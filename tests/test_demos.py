"""The demo scripts print the same bytes as when their output was pinned."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

#: sha256 prefix of each demo's stdout.  Every demo fixes its own seeds, so
#: the text is deterministic; the eavesdropper demo prints oracle curves and
#: calibrated thresholds.
_GOLDEN_STDOUT = {
    "eavesdropper_detection.py": "5ab58f7144e86708",
    "expectation_playground.py": "334958416768a616",
    "method1_walkthrough.py": "28760eebbdc7159e",
    "three_party_key_sharing.py": "766b703448732279",
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_STDOUT))
def test_demo_stdout_is_pinned(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == _GOLDEN_STDOUT[name]
