"""The demo scripts print the same bytes as when their output was pinned, and the README quick start runs."""

import hashlib
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

#: sha256 prefix of each demo's stdout.  Every demo fixes its own seeds, so
#: the text is deterministic; the eavesdropper demo prints oracle curves and
#: calibrated thresholds.  A value that is 0 in theory prints as ``< 1e-12``
#: rather than as round-off digits, which vary with the SIMD and BLAS build.
_GOLDEN_STDOUT = {
    "eavesdropper_detection.py": "6cefc6ac7909d027",
    "expectation_playground.py": "bde3ae1951134b5f",
    "method1_walkthrough.py": "232df528653aeccc",
    "three_party_key_sharing.py": "d3f9f9da3b04c903",
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_STDOUT))
def test_demo_stdout_is_pinned(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == _GOLDEN_STDOUT[name]


def test_readme_quick_start_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out.startswith("Verdict.CLEAN\n")
