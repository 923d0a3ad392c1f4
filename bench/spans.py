"""Layer spans recorded from outside the package.

The recorder swaps a name in an importing module's namespace (for example
``protocol.sample_joint``) for a timing wrapper, so every call that module
makes through the name becomes a span; ``restore`` puts the originals back.
Spans live in memory as flat rows (id, name, start, end, parent, operation)
and are written out once, after the run.
"""

from __future__ import annotations

import time
from array import array
from functools import update_wrapper

import numpy as np

from ghzkd import adversary, cli, protocol

ROOT = "bench.op"
_GHZ_NAMES = ("ghz_state", "is_super_classical", "solve_bob_phase", "super_classical_triples")

#: (module, attribute, span name).  Each entry is a call one ghzkd module
#: makes into the layer below, or the benchmark's own call into the top layer
#: (``cli.main``).  ``protocol._run_session`` is the session body behind
#: ``run_method1`` and ``run_method2``; ``protocol._round_rng`` is the
#: per-round stream derivation.
TARGETS = (
    (cli, "main", "cli.main"),
    (cli, "calibrate_threshold", "adversary.calibrate_threshold"),
    (cli, "transcript_to_dict", "transcript.serialize"),
    (protocol, "_run_session", "protocol.session"),
    (protocol, "_round_rng", "protocol.round_rng"),
    (protocol, "sample_joint", "core.sample_joint"),
    (protocol, "apply_noise", "adversary.apply_noise"),
    (protocol, "eve_intercept_resend", "adversary.eve_intercept_resend"),
    (adversary, "sample_joint", "core.sample_joint"),
    (adversary, "measure_single", "core.measure_single"),
    (adversary, "project_single", "core.project_single"),
    (adversary, "_joint_probs", "core.joint_probs"),
    (adversary, "apply_noise", "adversary.apply_noise"),
    (adversary, "exact_violation_rate", "adversary.exact_violation_rate"),
) + tuple(
    (module, fn, f"ghz.{fn}") for module in (protocol, adversary) for fn in _GHZ_NAMES if hasattr(module, fn)
)

_WIDTH = 6  # id, name code, start, end, parent id, operation


class SpanRecorder:
    def __init__(self):
        self.names = [ROOT]
        self._rows = array("d")
        self._stack = [-1]
        self._next_id = 0
        self._swapped = []
        self.op = -1

    def install(self):
        for module, attr, name in TARGETS:
            if name not in self.names:
                self.names.append(name)
            original = getattr(module, attr)
            self._swapped.append((module, attr, original))
            setattr(module, attr, self._wrap(original, self.names.index(name)))

    def restore(self):
        while self._swapped:
            module, attr, original = self._swapped.pop()
            setattr(module, attr, original)

    def run_op(self, op: int, fn, *args):
        """Run one benchmark operation under a root span."""
        self.op = op
        return self._wrap(fn, 0)(*args)

    def _wrap(self, fn, code: int):
        rows, stack, clock, recorder = self._rows, self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            span = recorder._next_id
            recorder._next_id = span + 1
            parent = stack[-1]
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows.extend((span, code, start, end, parent, recorder.op))

        return update_wrapper(traced, fn)

    def table(self) -> np.ndarray:
        """Spans as an (n, 6) array whose row i is span i; call once recording is over."""
        rows = np.frombuffer(self._rows, dtype=float).reshape(-1, _WIDTH)
        table = np.empty_like(rows)
        table[rows[:, 0].astype(int)] = rows
        return table

    def save(self, path, table: np.ndarray):
        np.savez(path, spans=table, names=np.array(self.names))


def layer_totals(table: np.ndarray, names: list[str]) -> dict:
    """Per span name: call count, total and self seconds, keyed by name.

    Self time is a span's duration minus the durations of its direct
    children.  Also counts ``core.sample_joint`` calls made under
    ``adversary.calibrate_threshold`` (its Monte-Carlo rounds).
    """
    code = table[:, 1].astype(int)
    parent = table[:, 4].astype(int)
    duration = table[:, 3] - table[:, 2]
    children = np.bincount(parent[parent >= 0], weights=duration[parent >= 0], minlength=len(table))
    own = duration - children
    n = len(names)
    calls = np.bincount(code, minlength=n)
    total = np.bincount(code, weights=duration, minlength=n)
    self_s = np.bincount(code, weights=own, minlength=n)
    out = {name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])} for i, name in enumerate(names)}

    calibrate = names.index("adversary.calibrate_threshold")
    under = np.zeros(len(table), dtype=bool)
    ancestor = parent.copy()
    while (ancestor >= 0).any():
        live = ancestor >= 0
        under[live] |= code[ancestor[live]] == calibrate
        ancestor[live] = parent[ancestor[live]]
    out["calibration_mc_rounds"] = int((under & (code == names.index("core.sample_joint"))).sum())
    return out


def calls_by_op(table: np.ndarray, names: list[str]) -> dict[int, dict[str, int]]:
    """Call count of every span name (zeros included) in every operation."""
    ops = table[:, 5].astype(int)
    codes = table[:, 1].astype(int)
    out = {}
    for op in np.unique(ops):
        counts = np.bincount(codes[ops == op], minlength=len(names))
        out[int(op)] = {f"calls.{name}": int(c) for name, c in zip(names, counts)}
    return out
