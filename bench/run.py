#!/usr/bin/env python3
"""ghzkd benchmark: one closed-loop client per workload, end-to-end metrics, traced layers.

Run from the repository root:

    python3 bench/run.py --workload session-menu-clean --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run on the same inputs.  Every line before the last is
human-readable; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

import os

# One BLAS/OpenMP thread, pinned before numpy loads; child processes inherit it.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("session-menu-clean", "cli-simulate-attacked", "oracle-audit")
#: Fresh processes timed per run for ``setup_s``: at least SETUP_REPEATS, and
#: more while they have taken under SETUP_BUDGET_S in all, up to SETUP_MAX.
#: The median is reported.
SETUP_REPEATS, SETUP_BUDGET_S, SETUP_MAX = 5, 4.0, 15
CACHES = (
    ("eigenbasis", "_eigenbasis_cached"),
    ("basis", "_basis_change"),
    ("observable", "_observable_cached"),
)


def load_package():
    """Import ghzkd from this checkout's sources, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import ghzkd

    if Path(ghzkd.__file__).resolve().parent != SRC / "ghzkd":
        raise ImportError(f"ghzkd resolved to {ghzkd.__file__}, not {SRC / 'ghzkd'}")
    import spans
    import workloads

    return workloads, spans


# --------------------------------------------------------------------------
# Operations


class Client:
    """The closed loop: one operation at a time, each timed and then checked."""

    def __init__(self, workload, core, outcome):
        self.workload = workload
        self.outcome = outcome
        self.caches = [(name, getattr(core, attr)) for name, attr in CACHES]

    def op(self, index: int, recorder=None):
        """(latency in seconds, Outcome) of operation ``index``."""
        w = self.workload
        case = w.make(index)
        before = [fn.cache_info() for _, fn in self.caches]
        start = time.perf_counter()
        try:
            raw = recorder.run_op(index, w.execute, case) if recorder else w.execute(case)
            latency = time.perf_counter() - start
            after = [fn.cache_info() for _, fn in self.caches]
            outcome = w.check(case, raw)
        except Exception as exc:  # an operation that raises is a failed operation
            latency = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            return latency, self.outcome(rounds=0, retained=None, counts={}, error=f"{type(exc).__name__}: {exc}")
        for (name, _), b, a in zip(self.caches, before, after):
            outcome.counts[f"{name}.hits"] = a.hits - b.hits
            outcome.counts[f"{name}.misses"] = a.misses - b.misses
        return latency, outcome

    def loop(self, seconds: float, recorder=None):
        """Operations 1, 2, ... until ``seconds`` have passed and a cycle is complete."""
        ops = {}
        deadline = time.perf_counter() + seconds
        index = 1
        while True:
            ops[index] = self.op(index, recorder)
            if time.perf_counter() >= deadline and index % self.workload.cycle == 0:
                return ops
            index += 1


def replay(args, client) -> int:
    """Child process: the warm-up operation, then operations 1..``args.replay``.

    ``setup_s`` runs from ``args.started``, the parent's monotonic clock just
    before it started this process, to the end of the warm-up operation.
    """
    ops = {0: client.op(0)}
    setup_s = time.monotonic() - args.started
    for index in range(1, args.replay + 1):
        ops[index] = client.op(index)
    print(json.dumps({
        "setup_s": setup_s,
        "latency_s": sum(lat for i, (lat, _) in ops.items() if i > 0),
        "counts": {i: o.counts for i, (_, o) in ops.items()},
        "errors": {i: o.error for i, (_, o) in ops.items() if o.error},
    }))  # fmt: skip
    return 0


def spawn_replay(args, n_ops: int) -> dict:
    """Run ``replay`` in a fresh process and return its parsed report."""
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--replay", str(n_ops),
        "--started", repr(time.monotonic()),
    ]  # fmt: skip
    # A replay lasts about half of --seconds; the rest is start-up and warm-up.
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120 + 2 * args.seconds)
    if proc.returncode != 0:
        raise RuntimeError(f"replay child exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["counts"] = {int(i): c for i, c in report["counts"].items()}
    return report


# --------------------------------------------------------------------------
# Determinism: the same workload seed must give the same counts


def mismatched(reference: dict, counts: dict) -> set:
    """Operation indices whose shared counts differ from ``reference``."""
    bad = set()
    for index, c in counts.items():
        ref = reference.get(index, {})
        if any(ref[k] != v for k, v in c.items() if k in ref):
            bad.add(index)
    return bad


def code_digest() -> str:
    """Digest of the package and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "ghzkd").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_history(args, counts: dict, env: dict) -> set:
    """Compare with earlier runs of this workload seed, then record.

    Only runs on the same code, Python and numpy count: numpy does not promise
    the same random streams across versions.
    """
    key = f"{args.workload}-{args.seed}-{env['code_digest']}-py{env['python']}-np{env['numpy']}"
    path = OUT / "counts" / f"{key}.json"
    history = {}
    if path.exists():
        history = {int(i): c for i, c in json.loads(path.read_text()).items()}
    bad = mismatched(history, counts)
    for index, c in counts.items():
        history.setdefault(index, {}).update(c)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(history, sort_keys=True))
    os.replace(tmp, path)
    return bad


# --------------------------------------------------------------------------
# Metrics


def tail(latencies):
    """(value, percentile): the highest percentile with ten samples beyond it.

    With fewer than 21 samples that percentile would not lie above the median,
    so the maximum is reported as percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(ops: dict, setup_times: list) -> tuple[dict, list]:
    latencies = [lat for lat, _ in ops.values()]
    passed = [o for _, o in ops.values() if o.error is None]
    busy = sum(latencies)
    tail_s, pct = tail(latencies)
    metrics = {
        "rounds_per_s": (sum(o.rounds for o in passed) / busy, "1/s"),
        "ops_per_s": (len(passed) / busy, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    notes = [
        f"op_tail_ms is p{pct:.4g} of {len(latencies)} operations",
        "setup_s runs: " + " ".join(f"{t:.4f}" for t in setup_times),
    ]
    return metrics, notes


def per_layer(totals: dict, ops: dict, overhead_ratio: float) -> dict:
    n = len(ops)
    metrics = {}

    def layer(name, key, metric=None):
        span = totals[name]
        if key == "calls":
            metrics[metric or f"{name}.calls"] = (span["calls"] / n, "count/op")
        else:
            metrics[metric or f"{name}.{key}"] = (span[key] / n, "s/op")

    for name in ("protocol.round_rng", "core.sample_joint", "core.measure_single", "adversary.eve_intercept_resend",
                 "adversary.apply_noise", "adversary.exact_violation_rate", "core.joint_probs", "core.project_single"):
        layer(name, "calls")
        layer(name, "self_s")
    layer("protocol.session", "self_s", "protocol.self_s")
    sessions = [o for _, o in ops.values() if o.retained is not None]
    rounds = sum(o.rounds for o in sessions)
    metrics["protocol.retention"] = (sum(o.retained for o in sessions) / rounds if rounds else 0.0, "ratio")
    ghz = [totals[k] for k in totals if k.startswith("ghz.")]
    metrics["ghz.calls"] = (sum(s["calls"] for s in ghz) / n, "count/op")
    metrics["ghz.self_s"] = (sum(s["self_s"] for s in ghz) / n, "s/op")
    layer("transcript.serialize", "self_s")
    metrics["transcript.bytes"] = (sum(o.counts.get("bytes", 0) for _, o in ops.values()) / n, "bytes/op")
    layer("cli.main", "self_s", "cli.self_s")
    layer("adversary.calibrate_threshold", "total_s", "adversary.calibrate_threshold.s")
    metrics["adversary.calibration_mc_rounds"] = (totals["calibration_mc_rounds"] / n, "count/op")
    for cache, _ in CACHES:
        hits = sum(o.counts.get(f"{cache}.hits", 0) for _, o in ops.values())
        misses = sum(o.counts.get(f"{cache}.misses", 0) for _, o in ops.values())
        metrics[f"core.{cache}_cache.hits"] = (hits / n, "count/op")
        metrics[f"core.{cache}_cache.misses"] = (misses / n, "count/op")
        # No lookups at all means nothing missed.
        metrics[f"core.{cache}_cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 1.0, "ratio")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics


def environment() -> dict:
    import numpy

    git = None
    if (ROOT / ".git").is_dir():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
                env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
            )  # fmt: skip
            git = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git,
        "code_digest": code_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------
# Runs


def run_untraced(args, client):
    setup_times = []
    probe_counts = []
    while len(setup_times) < SETUP_REPEATS or (sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX):
        report = spawn_replay(args, 0)
        setup_times.append(report["setup_s"])
        probe_counts.append((report["counts"], report["errors"]))
    ops = {0: client.op(0)}
    ops.update(client.loop(args.seconds))
    counts = {i: o.counts for i, (_, o) in ops.items()}
    bad = {}
    for probe, errors in probe_counts:
        bad.update(dict.fromkeys(mismatched(probe, counts), "counts differ from a set-up process"))
        bad.update({int(i): f"set-up process: {e}" for i, e in errors.items()})
    measured = {i: op for i, op in ops.items() if i > 0}
    metrics, notes = end_to_end(measured, setup_times)
    return ops, bad, metrics, notes


def run_traced(args, client, spans):
    ops = {0: client.op(0)}
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        measured = client.loop(args.seconds, recorder)
    finally:
        recorder.restore()
    ops.update(measured)
    table = recorder.table()
    for index, calls in spans.calls_by_op(table, recorder.names).items():
        ops[index][1].counts.update(calls)

    # The same inputs again, untraced, in a fresh process: about half the run.
    cycle, budget, replayed, traced_s = client.workload.cycle, args.seconds / 2.0, 0, 0.0
    for index, (lat, _) in measured.items():
        replayed, traced_s = index, traced_s + lat
        if traced_s >= budget and index % cycle == 0:
            break
    report = spawn_replay(args, replayed)
    counts = {i: o.counts for i, (_, o) in ops.items()}
    bad = dict.fromkeys(mismatched(report["counts"], counts), "counts differ from the untraced replay")
    bad.update({int(i): f"untraced replay: {e}" for i, e in report["errors"].items()})

    recorder.save(OUT / f"spans-{args.workload}.npz", table)
    totals = spans.layer_totals(table, recorder.names)
    metrics = per_layer(totals, measured, traced_s / report["latency_s"])
    op_s = totals[spans.ROOT]["total_s"]
    share = {name: totals[name]["total_s"] / op_s for name in ("protocol.session", "adversary.calibrate_threshold")}
    notes = [
        f"traced {len(measured)} operations; replayed {replayed} untraced for the overhead ratio",
        "share of traced operation time: " + ", ".join(f"{name} {v:.3f}" for name, v in share.items()),
    ]
    return ops, bad, metrics, notes


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--replay", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    try:
        workloads, spans = load_package()
    except ImportError as exc:
        print(f"bench: cannot import ghzkd from {SRC}: {exc}", file=sys.stderr)
        return 2
    from ghzkd import core

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"cli-output-{os.getpid()}.json"
    client = Client(workloads.WORKLOADS[args.workload](args.seed, scratch), core, workloads.Outcome)
    try:
        if args.replay is not None:
            return replay(args, client)
        if args.trace:
            ops, bad, metrics, notes = run_traced(args, client, spans)
        else:
            ops, bad, metrics, notes = run_untraced(args, client)
    finally:
        scratch.unlink(missing_ok=True)

    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared_metrics(args.trace):
        print(f"bench: metrics differ from BENCHMARK.json: {produced}", file=sys.stderr)
        return 2
    env = environment()
    history = check_history(args, {i: o.counts for i, (_, o) in ops.items()}, env)
    bad.update({i: "counts differ from an earlier run of this seed" for i in history})
    errors = {**bad, **{i: o.error for i, (_, o) in ops.items() if o.error}}
    run_error = client.workload.check_run([o for _, o in ops.values()])
    failed = min(len(ops), len(errors) + bool(run_error))
    latencies = {i: lat for i, (lat, _) in ops.items()}
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "environment": env, "notes": notes, "errors": errors, "run_error": run_error,
                    "latencies_s": latencies}, indent=2)
    )
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for index, error in sorted(errors.items()):
        print(f"FAILED operation {index}: {error}")
    if run_error:
        print(f"FAILED run check: {run_error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"fail_ratio = {failed / len(ops)!r} ({failed} of {len(ops)} operations)")
    for note in notes:
        print(note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
