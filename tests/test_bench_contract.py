"""The names the benchmark reaches into must keep existing.

``bench/spans.py`` swaps module attributes for timing wrappers and
``bench/run.py`` reads ``lru_cache`` statistics off ``core``; a rename in the
package would otherwise only surface as a crash under ``--trace 1``.
"""

import ast
import sys
from pathlib import Path

from ghzkd import core

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_span_targets_resolve():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
    assert spans.TARGETS
    for module, attr, _ in spans.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_core_has_the_benchmarked_caches():
    # run.py pins thread variables in os.environ on import, so read it as text.
    tree = ast.parse((BENCH / "run.py").read_text())
    (caches,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CACHES" for t in node.targets)
    ]
    names = [attr for _, attr in ast.literal_eval(caches)]
    assert len(names) == 3
    for attr in names:
        assert callable(getattr(getattr(core, attr, None), "cache_info", None)), attr
