"""Command-line front end.

Subcommands: ``simulate`` runs sessions and writes results plus transcripts,
``expectation`` compares the closed-form and numeric expectation values,
``menu-eval`` scores an angle menu, and ``sweep`` tabulates violation rates
against the eavesdropper angle offset or the noise level.

Exit codes are a stable scripting contract: 0 clean, 1 usage or
configuration error, 2 eavesdropper detected.  Every output echoes the seed
(auto-generated when absent), and identical flags plus seed reproduce
identical bytes.  Secret material (keys, private bits, the prepared state,
the parity preference, per-class detection counts) is blanked unless
--reveal-secret is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import secrets
import stat
import sys

from .adversary import (
    EveStrategy,
    NoiseModel,
    NoRetainedRounds,
    Verdict,
    calibrate_threshold,
    exact_violation_rate,
    menu_attack_summary,
)
from .core import Mode, MeasurementSetting, expectation
from .ghz import GhzSpec, analytic_expectation, ghz_state, is_super_classical, solve_bob_phase, super_classical_triples
from .protocol import (
    ConfigError,
    KeyExhausted,
    Method,
    ProtocolConfig,
    monte_carlo_violation_rate,
    run_method1,
    run_method2,
    run_three_party,
    session_result_to_dict,
)
from .transcript import format_angle, nested_json, transcript_csv_chunks, transcript_json_chunks

# ``simulate`` writes its transcripts without this dict view; the name stays
# importable here because bench/spans.py traces it as ``cli.transcript_to_dict``.
from .transcript import transcript_to_dict  # noqa: F401

EXIT_CLEAN = 0
EXIT_ERROR = 1
EXIT_EVE_DETECTED = 2

SEED_ENV_VAR = "GHZQKD_SEED"

_MODES = {"spin": Mode.SPIN, "pol": Mode.POLARIZATION}

_PI_FORM = re.compile(r"(-?)(\d*\.?\d*)\*?pi(?:/(\d+\.?\d*))?")


def parse_angle(text: str) -> float:
    """Finite decimal radians, or simple pi fractions: 'pi', 'pi/2', '2pi/3', '-pi/4'."""
    s = text.strip().lower().replace(" ", "")
    try:
        value = float(s)
    except ValueError:
        m = _PI_FORM.fullmatch(s)
        if not m:
            raise ValueError(f"cannot parse angle {text!r}") from None
        sign = -1.0 if m.group(1) else 1.0
        coefficient = float(m.group(2)) if m.group(2) else 1.0
        divisor = float(m.group(3)) if m.group(3) else 1.0
        if divisor == 0.0:
            raise ValueError(f"cannot parse angle {text!r}: zero divisor") from None
        value = sign * coefficient * math.pi / divisor
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {value}")
    return value


def _parse_angle_list(text: str, expected: int | None = None) -> tuple[float, ...]:
    values = tuple(parse_angle(part) for part in text.split(","))
    if expected is not None and len(values) != expected:
        raise ValueError(f"expected {expected} comma-separated angles, got {len(values)}")
    return values


def probability(text: str) -> float:
    """A probability in [0, 1]; the argparse type of ``--noise-p``."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def count(text: str) -> int:
    """A positive integer; the argparse type of ``--mc-rounds``, ``--key-length`` and ``--rounds``."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; 2 is reserved for
    # eavesdropper detection here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
        if seed < 0:
            raise ConfigError(f"{SEED_ENV_VAR} must be non-negative")
        return seed
    return secrets.randbits(64)


def _check_output(args) -> None:
    """Fail before any work when ``--output`` cannot be opened for writing.

    The probe opens for appending, so an existing file keeps its contents
    until the run succeeds, and removes a file it had to create.
    """
    if not args.output:
        return
    existed = os.path.exists(args.output)
    with open(args.output, "a"):
        pass
    if not existed:
        os.remove(args.output)


def _write_output(args, chunks) -> None:
    """Write the strings of ``chunks`` in order, to ``--output`` or stdout, each as soon as it is made.

    An existing file is overwritten in place and then cut to the written
    length instead of being truncated at open: on an ext4 disk, writing a
    4.2 MB transcript over a file just truncated to zero took 3.45 ms against
    under 1 ms in place (ext4's flush on replace-via-truncate is the likely
    cause), and a re-run writes the same path.
    """
    if args.output:
        def untruncated(path, flags):
            return os.open(path, flags & ~os.O_TRUNC, 0o666)

        with open(args.output, "w", newline="", opener=untruncated) as fh:
            fh.writelines(chunks)
            # ftruncate fails on /dev/null, FIFOs and ttys; only a regular file has old bytes to cut.
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    else:
        sys.stdout.writelines(chunks)


# --------------------------------------------------------------------------
# simulate


#: The walkthrough's menu, which ``--demo`` gives method 1 when none is set.
_DEMO_MENU = "0,pi/2,pi"


def _build_config(args, seed: int) -> ProtocolConfig:
    mode = _MODES[args.mode]
    spec = GhzSpec.parse(args.spec)
    menu = _parse_angle_list(args.menu, 3) if args.menu else None
    if menu is None and args.demo and args.method == "1":
        menu = _parse_angle_list(_DEMO_MENU, 3)
    key_length = args.key_length if args.key_length is not None else (4 if args.demo else 128)

    if args.eve_angle is not None and args.eve != "intercept-a":
        raise ConfigError("--eve-angle applies only to --eve intercept-a")
    eve = EveStrategy.none() if args.eve == "none" else EveStrategy.intercept_resend_a(args.eve_angle)
    noise = NoiseModel.depolarizing(args.noise_p)

    method = Method.METHOD1 if args.method == "1" else Method.METHOD2
    if args.method == "3party":
        method = Method.METHOD1 if menu is not None else Method.METHOD2
    return ProtocolConfig(
        method=method,
        spec=spec,
        mode=mode,
        menu=menu,
        bob_parity_preference=args.parity_preference,
        key_length=key_length,
        max_rounds=args.rounds,
        seed=seed,
        eve=eve,
        noise=noise,
        threshold=args.threshold,
    )


def _json_chunks(seed: int, runs, reveal: bool):
    """``json.dumps({"seed": seed, "runs": [{"result": ..., "transcript": ...}]}, indent=2)`` plus a newline, in chunks.

    Per run: its result and the transcript's header, its ``public_log``
    block, then its ``rounds`` block.
    """
    head = '{\n  "seed": %s,\n  "runs": [\n' % json.dumps(seed)
    for r, t in runs:
        result = nested_json(session_result_to_dict(r, reveal), 3)
        chunks = transcript_json_chunks(t, reveal, 3)
        yield '%s    {\n      "result": %s,\n      "transcript": %s' % (head, result, next(chunks))
        yield from chunks
        yield "\n    }"
        head = ",\n"
    yield "\n  ]\n}\n"


def _payload_json(seed: int, runs, reveal: bool) -> str:
    """``_json_chunks`` joined."""
    return "".join(_json_chunks(seed, runs, reveal))


def _csv_chunks(seed: int, runs, reveal: bool):
    """The seed, then per run its number, result comments and ``transcript_csv_chunks``."""
    yield f"# seed={seed}\n"
    for i, (result, transcript) in enumerate(runs, start=1):
        report = result.detection
        yield (
            f"# run={i}\n"
            f"# rounds_used={result.rounds_used}\n"
            f"# key_match={result.key_recovered == result.key_sent}\n"
            f"# detection_rate={format_angle(report.rate)}\n"
            f"# detection_threshold={format_angle(report.threshold)}\n"
            f"# verdict={report.verdict.value}\n"
        )
        yield from transcript_csv_chunks(transcript, reveal)


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    config = _build_config(args, seed)
    if args.threshold is None and config.noise.p > 0:
        config = dataclasses.replace(config, threshold=calibrate_threshold(config))

    if args.method == "3party":
        runs = list(run_three_party(config))
    elif config.method is Method.METHOD1:
        runs = [run_method1(config)]
    else:
        runs = [run_method2(config)]
    detected = any(r.detection.verdict is Verdict.EVE_DETECTED for r, _ in runs)

    # Every run and verdict exists before the output is opened, so a failed
    # run leaves an existing file as it was.
    payload = _json_chunks if args.format == "json" else _csv_chunks
    _write_output(args, payload(seed, runs, args.reveal_secret))
    return EXIT_EVE_DETECTED if detected else EXIT_CLEAN


# --------------------------------------------------------------------------
# expectation


def cmd_expectation(args) -> int:
    spec = GhzSpec.parse(args.spec)
    mode = _MODES[args.mode]
    phases = _parse_angle_list(args.phases, 3)
    analytic = analytic_expectation(spec, phases)
    settings = tuple(MeasurementSetting(mode, p) for p in phases)
    numeric = expectation(ghz_state(spec), settings)
    parity = is_super_classical(spec, phases)
    lines = [
        f"analytic = {format_angle(analytic)}",
        f"numeric = {format_angle(numeric)}",
        f"difference = {format_angle(analytic - numeric)}",
        f"parity = {'none' if parity is None else f'{parity:+d}'}",
    ]
    _write_output(args, ["\n".join(lines) + "\n"])
    return EXIT_CLEAN


# --------------------------------------------------------------------------
# menu-eval


def cmd_menu_eval(args) -> int:
    spec = GhzSpec.parse(args.spec)
    menu = _parse_angle_list(args.menu, 3)
    triples = super_classical_triples(menu, spec)  # validates distinctness
    lines = [
        "menu = " + ",".join(format_angle(a) for a in menu),
        f"quality = {len(triples)}/27 = {format_angle(len(triples) / 27.0)}",
        "super-classical triples (phi_a,phi_b,phi_c -> parity):",
    ]
    for triple, parity in triples:
        lines.append("  " + ",".join(format_angle(a) for a in triple) + f" -> {parity:+d}")
    _write_output(args, ["\n".join(lines) + "\n"])
    return EXIT_CLEAN


# --------------------------------------------------------------------------
# sweep


_SWEEP_DEFAULTS = {
    "eve-angle": "0,pi/8,pi/4,3pi/8,pi/2",
    "noise-p": "0,0.25,0.5,0.75,1",
}


def cmd_sweep(args) -> int:
    spec = GhzSpec.parse(args.spec)
    mode = _MODES[args.mode]
    if args.phases:
        phases = _parse_angle_list(args.phases, 3)
        if is_super_classical(spec, phases) is None:
            raise ConfigError(f"phases {args.phases} are not super-classical for {args.spec}")
    else:
        phases = (0.0, solve_bob_phase(spec, 0.0, 0.0, 1), 0.0)
    values = _parse_angle_list(args.values or _SWEEP_DEFAULTS[args.variable])
    seed = _resolve_seed(args)

    lines = [f"# seed={seed}", f"# phases={','.join(format_angle(p) for p in phases)}"]
    if args.menu:
        menu = _parse_angle_list(args.menu, 3)
        summary = menu_attack_summary(spec, menu, mode, noise_p=args.noise_p)
        if summary["joint_average"] is None:
            raise ConfigError(f"menu {args.menu} has no super-classical triple for {args.spec}")
        lines.append(f"# menu_joint_average={format_angle(summary['joint_average'])}")
        for angle, rate in summary["by_eve_angle"].items():
            lines.append(f"# menu_average_at_eve_angle_{format_angle(angle)}={format_angle(rate)}")
        for triple, rate in summary["by_triple"].items():
            label = ",".join(format_angle(a) for a in triple)
            lines.append(f"# guess_average_at_triple_{label}={format_angle(rate)}")
    lines.append("parameter,oracle_rate,monte_carlo_rate,std_error")

    # (Eve's angle, noise level) per value.  The exact column comes first, so
    # a value outside the oracle's domain fails before any Monte-Carlo work.
    if args.variable == "eve-angle":
        channels = [(phases[0] + value, args.noise_p) for value in values]
    else:
        channels = [(None, value) for value in values]
    oracles = [exact_violation_rate(spec, phases, mode, eve_angle=e, noise_p=p) for e, p in channels]

    for value, oracle, (eve_angle, noise_p) in zip(values, oracles, channels):
        noise = NoiseModel.depolarizing(noise_p)
        v, n = monte_carlo_violation_rate(
            spec, phases, mode, eve_angle=eve_angle, noise=noise, n_rounds=args.mc_rounds, seed=seed
        )
        mc = v / n
        stderr = math.sqrt(mc * (1.0 - mc) / n)
        lines.append(f"{format_angle(value)},{format_angle(oracle)},{format_angle(mc)},{format_angle(stderr)}")
    _write_output(args, ["\n".join(lines) + "\n"])
    return EXIT_CLEAN


# --------------------------------------------------------------------------
# parser


def _add_common(p: _Parser) -> None:
    p.add_argument("--spec", default="+++,-", help="GHZ state as '<signs>,<sign>', e.g. '++-,-'")
    p.add_argument("--mode", choices=sorted(_MODES), default="spin")
    p.add_argument("--seed", type=int, default=None, help=f"falls back to ${SEED_ENV_VAR}, then random")
    p.add_argument("--output", default=None, help="write to this path instead of stdout")


@functools.cache  # about 1.5 ms to build; parsing leaves the parser as it was
def build_parser() -> _Parser:
    parser = _Parser(prog="ghzkd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="run key-distribution sessions")
    _add_common(p)
    p.add_argument("--method", choices=("1", "2", "3party"), default="1")
    p.add_argument("--menu", default=None, help="three angles, e.g. '0,pi/2,pi'")
    p.add_argument("--key-length", type=count, default=None, dest="key_length")
    p.add_argument("--rounds", type=count, default=None, help="round budget (method 1)")
    p.add_argument("--parity-preference", type=int, choices=(1, -1), default=1, dest="parity_preference")
    p.add_argument("--eve", choices=("none", "intercept-a"), default="none")
    p.add_argument("--eve-angle", type=parse_angle, default=None, dest="eve_angle")
    p.add_argument("--noise-p", type=probability, default=0.0, dest="noise_p")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--reveal-secret", action="store_true", dest="reveal_secret")
    p.add_argument("--demo", action="store_true", help=f"4-bit walkthrough-scale defaults (method 1: menu {_DEMO_MENU})")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("expectation", help="closed-form vs numeric expectation value")
    _add_common(p)
    p.add_argument("--phases", required=True, help="three angles, e.g. '0,0,0'")
    p.set_defaults(func=cmd_expectation)

    p = sub.add_parser("menu-eval", help="score an angle menu")
    _add_common(p)
    p.add_argument("--menu", required=True)
    p.set_defaults(func=cmd_menu_eval)

    p = sub.add_parser("sweep", help="violation rate vs eavesdropper angle or noise")
    _add_common(p)
    p.add_argument("--variable", choices=("eve-angle", "noise-p"), required=True)
    p.add_argument("--values", default=None, help="comma-separated sweep values")
    p.add_argument("--phases", default=None, help="super-classical base triple")
    p.add_argument("--menu", default=None, help="also print menu-averaged attack rates")
    p.add_argument("--noise-p", type=probability, default=0.0, dest="noise_p")
    p.add_argument("--mc-rounds", type=count, default=2000, dest="mc_rounds")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_output(args)
        return args.func(args)
    except (ConfigError, KeyExhausted, NoRetainedRounds, ValueError, OSError) as exc:
        # NoRetainedRounds: a menu that retains no triple.  OSError: an
        # --output path that cannot be written.
        print(f"ghzkd: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
