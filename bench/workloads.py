"""The three benchmark workloads and the independent reference they are checked against.

Each workload turns (workload seed, operation index) into one operation's
inputs, runs the operation through the public ghzkd entry point, and checks
its output against a reference that shares no code with the package: the
closed-form violation law

    rate = (1 - (1-p)^2 * cos^2(e - phi_a)) / 2

for depolarizing transit noise p on particles a and c and an intercept-resend
eavesdropper at angle e on particle a (the cos^2 factor is 1 without her).

The ghzkd modules are always reached through their module attributes
(``protocol.run_method1``, ``cli.main``, ...) so the tracer's wrappers see the
calls.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ghzkd import adversary, cli, core, protocol
from ghzkd.ghz import GhzSpec

TWO_PI = 2.0 * math.pi
MENU = (0.0, math.pi / 2, math.pi)
SPECS = GhzSpec.all_canonical()
MODES = (core.Mode.SPIN, core.Mode.POLARIZATION)
CLI_MODES = {core.Mode.SPIN: "spin", core.Mode.POLARIZATION: "pol"}

#: Oracle and information values must match the reference to this absolute tolerance.
EXACT_TOL = 1e-9
#: One-sided tail probability of a 4-sigma normal deviation.
FOUR_SIGMA_TAIL = 0.5 * math.erfc(4.0 / math.sqrt(2.0))


# --------------------------------------------------------------------------
# Independent reference


def violation_law(p: float, eve_minus_alice: float | None) -> float:
    """Exact violation rate of one deterministic-parity round."""
    overlap = 1.0 if eve_minus_alice is None else math.cos(eve_minus_alice) ** 2
    return (1.0 - (1.0 - p) ** 2 * overlap) / 2.0


def deterministic(spec: GhzSpec, phases) -> bool:
    """True when the sign-weighted phase sum is a multiple of pi."""
    signs = [1 if ch == "+" else -1 for ch in spec.pattern]
    r = sum(s * a for s, a in zip(signs, phases)) % math.pi
    return min(r, math.pi - r) <= 1e-9


def solve_phi_b(spec: GhzSpec, phi_a: float, phi_c: float, half_turn: bool) -> float:
    """A receiver angle that makes (phi_a, phi_b, phi_c) deterministic."""
    s1, s2, s3 = (1 if ch == "+" else -1 for ch in spec.pattern)
    t = math.pi if half_turn else 0.0
    return (s2 * (t - s1 * phi_a - s3 * phi_c)) % TWO_PI


def count_is_plausible(count: int, rates) -> bool:
    """Whether ``count`` successes of independent Bernoulli(rates) lie within 4 sigma.

    Uses the exact Poisson-binomial distribution: the count fails when either
    tail probability at it is below that of a 4-sigma normal deviation.
    """
    pmf = np.ones(1)
    for r in rates:
        pmf = np.convolve(pmf, (1.0 - r, r))
    lower = float(pmf[: count + 1].sum())
    upper = float(pmf[count:].sum())
    return min(lower, upper) >= FOUR_SIGMA_TAIL


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# --------------------------------------------------------------------------
# Workloads


@dataclass
class Outcome:
    """What one operation did, as counts, and whether its output was right."""

    rounds: int
    retained: int | None  # None where the operation simulates no session
    counts: dict = field(default_factory=dict)
    error: str | None = None
    #: (violations, per-round law rates) for the run-level check.
    law: tuple | None = None


class Workload:
    """Inputs for each operation index, the operation itself, and its checks.

    ``scratch`` is a file an operation may write, such as the CLI's --output.
    """

    name = ""
    code = 0
    #: Operations per cycle; a run ends only on a cycle boundary.
    cycle = 1

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        salt = np.random.SeedSequence([seed, self.code]).generate_state(1)[0]
        self._salt = int(salt)

    def session_seed(self, index: int) -> int:
        # Distinct for every operation of a process, so no session replays
        # another one's rounds out of the core caches.
        return (index << 32) | self._salt

    def rng(self, index: int) -> np.random.Generator:
        # The warm-up operation 0 draws the same case for every workload seed,
        # so setup_s times the same work in every run.
        return np.random.default_rng([self.code, index] if index == 0 else [self.seed, self.code, index])

    def make(self, index: int) -> dict:
        raise NotImplementedError

    def execute(self, case: dict):
        raise NotImplementedError

    def check(self, case: dict, raw) -> Outcome:
        raise NotImplementedError

    def check_run(self, outcomes) -> str | None:
        """A check over every operation of a run: None, or what is wrong."""
        return None


class SessionMenuClean(Workload):
    """Honest, noiseless method-1 sessions on the menu (0, pi/2, pi)."""

    name = "session-menu-clean"
    code = 1
    #: The default of ProtocolConfig and of ``ghzkd simulate``.
    KEY_LENGTH = 128

    def make(self, index):
        rng = self.rng(index)
        return {
            "spec": SPECS[rng.integers(len(SPECS))],
            "mode": MODES[rng.integers(len(MODES))],
            "seed": self.session_seed(index),
        }

    def execute(self, case):
        config = protocol.ProtocolConfig(
            method=protocol.Method.METHOD1,
            spec=case["spec"],
            mode=case["mode"],
            menu=MENU,
            key_length=self.KEY_LENGTH,
            seed=case["seed"],
        )
        return protocol.run_method1(config)

    def check(self, case, raw):
        result, transcript = raw
        rounds = transcript.rounds
        retained = sum(r.retained for r in rounds)
        physics = [(r.phi_a, r.phi_b, r.phi_c, r.outcome_a, r.outcome_b, r.outcome_c) for r in rounds]
        out = Outcome(
            rounds=result.rounds_used,
            retained=retained,
            counts={"rounds": result.rounds_used, "retained": retained, "output": digest(repr(physics).encode())},
        )
        spec = case["spec"]
        if len(result.key_sent) != self.KEY_LENGTH or result.key_recovered != result.key_sent:
            out.error = "key not recovered exactly"
        elif result.detection.violations or any(r.violation for r in rounds):
            out.error = "violations on an honest noiseless session"
        elif len(rounds) != result.rounds_used or retained != self.KEY_LENGTH:
            out.error = f"{len(rounds)} records and {retained} retained for {result.rounds_used} rounds"
        elif any(r.retained != deterministic(spec, (r.phi_a, r.phi_b, r.phi_c)) for r in rounds):
            out.error = "a round was sifted against the deterministic-parity rule"
        return out


class CliSimulateAttacked(Workload):
    """In-process ``ghzkd simulate`` for method 2 with noise and a calibrated threshold.

    Even operations add an intercept-resend eavesdropper at a seeded angle and
    expect exit code 2; odd operations are noise only and expect exit code 0.
    """

    name = "cli-simulate-attacked"
    code = 2
    cycle = 2
    #: The session size of the end-to-end cases in ROADMAP.md.  At this size
    #: calibrate_threshold's fixed cost (2000 Monte-Carlo rounds and a 64-point
    #: exact grid) is a minor share of an operation, so the per-round layers
    #: dominate it.
    KEY_LENGTH = 4096
    NOISE_P = 0.05

    def make(self, index):
        rng = self.rng(index)
        case = {
            "spec": SPECS[rng.integers(len(SPECS))],
            "mode": MODES[rng.integers(len(MODES))],
            "seed": self.session_seed(index),
            "eve_angle": float(rng.uniform(0.0, TWO_PI)) if index % 2 == 0 else None,
        }
        argv = [
            "simulate", "--method", "2", "--noise-p", str(self.NOISE_P),
            "--reveal-secret", "--format", "json", "--output", str(self.scratch),
            "--seed", str(case["seed"]), "--spec", str(case["spec"]),
            "--mode", CLI_MODES[case["mode"]], "--key-length", str(self.KEY_LENGTH),
        ]  # fmt: skip
        if case["eve_angle"] is not None:
            argv += ["--eve", "intercept-a", "--eve-angle", format(case["eve_angle"], ".17g")]
        case["argv"] = argv
        return case

    def execute(self, case):
        return cli.main(case["argv"])

    def check(self, case, raw):
        data = self.scratch.read_bytes()
        out = Outcome(
            rounds=self.KEY_LENGTH,
            retained=0,
            counts={"exit": raw, "bytes": len(data), "output": digest(data)},
        )
        attacked = case["eve_angle"] is not None
        if raw != (cli.EXIT_EVE_DETECTED if attacked else cli.EXIT_CLEAN):
            out.error = f"exit code {raw}, attacked={attacked}"
            return out
        try:
            payload = json.loads(data)
            (run,) = payload["runs"]
            result, rounds = run["result"], run["transcript"]["rounds"]
            detection = result["detection"]
            phi_a = [float(r["phi_a"]) for r in rounds]
            violations = sum(bool(r["violation"]) for r in rounds if r["retained"])
            out.retained = sum(bool(r["retained"]) for r in rounds)
        except (ValueError, KeyError, TypeError) as exc:
            out.error = f"unreadable JSON output: {exc!r}"
            return out
        out.counts.update(rounds=result["rounds_used"], retained=out.retained)
        if payload["seed"] != case["seed"] or result["rounds_used"] != self.KEY_LENGTH:
            out.error = f"seed {payload['seed']} and rounds_used {result['rounds_used']}"
        elif detection["rounds_checked"] != self.KEY_LENGTH or detection["violations"] != violations:
            out.error = f"detection counted {detection['rounds_checked']} rounds, {detection['violations']} violations"
        else:
            e = case["eve_angle"]
            rates = [violation_law(self.NOISE_P, None if e is None else e - a) for a in phi_a]
            out.law = (violations, rates)
            if not count_is_plausible(violations, rates):
                out.error = f"{violations} violations, law expects {sum(rates):.1f}"
        return out

    def check_run(self, outcomes):
        # Pooled over the run, the count resolves a smaller error in the
        # violation rate than one operation's count can.  With thousands of
        # rounds the normal approximation to the Poisson-binomial count holds.
        pooled = [o.law for o in outcomes if o.law]
        count = sum(c for c, _ in pooled)
        rates = [r for _, rs in pooled for r in rs]
        mean, sd = sum(rates), math.sqrt(sum(r * (1.0 - r) for r in rates))
        if abs(count - mean) > 4.0 * sd:
            return f"{count} violations over the run, law expects {mean:.1f} +- {sd:.1f}"
        return None


class OracleAudit(Workload):
    """Exact oracles only: one (spec, mode, noise p, Eve angle) case per operation."""

    name = "oracle-audit"
    code = 3
    #: Eve-angle offsets from phi_a for exact_violation_rate: the default
    #: grid of ``ghzkd sweep --variable eve-angle``.
    EVE_OFFSETS = tuple(j * math.pi / 8 for j in range(5))
    N_GRID = 64  # continuous_attack_rate's default announced-angle grid

    def make(self, index):
        rng = self.rng(index)
        spec = SPECS[rng.integers(len(SPECS))]
        phi_a, phi_c = (float(x) for x in rng.uniform(0.0, TWO_PI, size=2))
        return {
            "spec": spec,
            "mode": MODES[rng.integers(len(MODES))],
            "p": float(rng.uniform(0.0, 0.25)),
            "eve_angle": float(rng.uniform(0.0, TWO_PI)),
            "phases": (phi_a, solve_phi_b(spec, phi_a, phi_c, bool(rng.integers(2))), phi_c),
            "seed": self.session_seed(index),
        }

    def execute(self, case):
        spec, mode, p, e = case["spec"], case["mode"], case["p"], case["eve_angle"]
        summary = adversary.menu_attack_summary(spec, MENU, mode, noise_p=p)
        continuous = [
            adversary.continuous_attack_rate(spec, pref, mode, eve_angle=e, noise_p=p, n_grid=self.N_GRID)
            for pref in (1, -1)
        ]
        phi_a = case["phases"][0]
        grid = [
            adversary.exact_violation_rate(spec, case["phases"], mode, eve_angle=phi_a + offset, noise_p=p)
            for offset in self.EVE_OFFSETS
        ]
        config = protocol.ProtocolConfig(
            method=protocol.Method.METHOD1, spec=spec, mode=mode, menu=MENU, key_length=4, seed=case["seed"]
        )
        info = adversary.mutual_information(adversary.impersonation_view_joint(config))
        return summary, continuous, grid, info

    def check(self, case, raw):
        summary, continuous, grid, info = raw
        p = case["p"]
        triples = [t for t in itertools.product(MENU, repeat=3) if deterministic(case["spec"], t)]
        k = len(triples)
        # Round settings the oracles average over: the three menu averagings
        # (k triples x 3 Eve guesses each), two continuous grids, the Eve-angle
        # sweep, and the impersonation view's k triples.
        settings = 9 * k + 2 * self.N_GRID + len(self.EVE_OFFSETS) + k
        values = [summary["joint_average"], *summary["by_eve_angle"].values(), *summary["by_triple"].values()]
        values += [*continuous, *grid, info]
        out = Outcome(rounds=settings, retained=None, counts={"rounds": settings, "output": digest(repr(values).encode())})

        if set(summary["by_triple"]) != set(triples) or set(summary["by_eve_angle"]) != set(MENU):
            out.error = "menu summary keyed by the wrong triples or Eve angles"
            return out
        expected = {t: [violation_law(p, a - t[0]) for a in MENU] for t in triples}
        checks = [(summary["joint_average"], float(np.mean(list(expected.values()))))]
        checks += [
            (summary["by_eve_angle"][a], sum(violation_law(p, a - t[0]) for t in triples) / k)
            for a in MENU
        ]
        checks += [(summary["by_triple"][t], sum(rates) / 3.0) for t, rates in expected.items()]
        # cos^2 averages to 1/2 over the uniform announced-angle grid.
        checks += [(c, (1.0 - (1.0 - p) ** 2 / 2.0) / 2.0) for c in continuous]
        checks += [(g, violation_law(p, offset)) for offset, g in zip(self.EVE_OFFSETS, grid)]
        checks.append((info, 0.0))
        misses = [(got, want) for got, want in checks if not abs(got - want) <= EXACT_TOL]
        if misses:
            out.error = f"{len(misses)} oracle values off the law, first {misses[0]}"
        return out


WORKLOADS = {w.name: w for w in (SessionMenuClean, CliSimulateAttacked, OracleAudit)}
