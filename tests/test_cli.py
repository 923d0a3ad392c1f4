"""Command-line contract: exit codes, determinism, redaction, output formats."""

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzkd.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_EVE_DETECTED, build_parser, main, parse_angle


def _run(tmp_path, *args, name="out.json"):
    path = tmp_path / name
    code = main([*args, "--output", str(path)])
    return code, path.read_bytes() if path.exists() else b""


def test_parse_angle_forms():
    assert parse_angle("1.5") == 1.5
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("pi/2") == pytest.approx(math.pi / 2)
    assert parse_angle("2pi/3") == pytest.approx(2 * math.pi / 3)
    assert parse_angle("-pi/4") == pytest.approx(-math.pi / 4)
    assert parse_angle("0.5pi") == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError):
        parse_angle("two pies")


def test_simulate_is_byte_deterministic(tmp_path):
    args = ["simulate", "--method", "2", "--key-length", "8", "--seed", "42"]
    code1, first = _run(tmp_path, *args, name="a.json")
    code2, second = _run(tmp_path, *args, name="b.json")
    assert code1 == code2 == EXIT_CLEAN
    assert first == second
    _, other = _run(tmp_path, *args[:-1], "43", name="c.json")
    assert other != first


def test_simulate_method1_requires_menu(tmp_path):
    code, _ = _run(tmp_path, "simulate", "--method", "1", "--seed", "1")
    assert code == EXIT_ERROR


def test_simulate_detects_interceptor(tmp_path):
    code, payload = _run(
        tmp_path,
        "simulate",
        "--method",
        "1",
        "--menu",
        "0,pi/2,pi",
        "--eve",
        "intercept-a",
        "--key-length",
        "64",
        "--seed",
        "7",
    )
    assert code == EXIT_EVE_DETECTED
    data = json.loads(payload)
    assert data["runs"][0]["result"]["detection"]["verdict"] == "eve-detected"


def test_simulate_masks_secrets_by_default(tmp_path):
    base = ["simulate", "--method", "2", "--key-length", "6", "--seed", "5"]
    _, masked = _run(tmp_path, *base, name="masked.json")
    data = json.loads(masked)
    run = data["runs"][0]
    assert run["result"]["key_sent"] is None
    assert run["transcript"]["header"]["spec"] is None
    _, revealed = _run(tmp_path, *base, "--reveal-secret", name="revealed.json")
    data = json.loads(revealed)
    run = data["runs"][0]
    assert run["result"]["key_sent"] is not None
    assert run["result"]["key_recovered"] == run["result"]["key_sent"]
    assert run["transcript"]["header"]["spec"] == "+++,-"


def test_simulate_csv_format(tmp_path):
    code, payload = _run(
        tmp_path,
        "simulate",
        "--method",
        "2",
        "--key-length",
        "4",
        "--seed",
        "3",
        "--format",
        "csv",
        name="out.csv",
    )
    assert code == EXIT_CLEAN
    text = payload.decode()
    assert "# seed=3" in text
    assert "# verdict=clean" in text
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert rows[0].startswith("index,phi_a,phi_b,phi_c")
    assert len(rows) == 1 + 4


def test_simulate_three_party(tmp_path):
    code, payload = _run(
        tmp_path, "simulate", "--method", "3party", "--key-length", "8", "--seed", "11"
    )
    assert code == EXIT_CLEAN
    data = json.loads(payload)
    assert len(data["runs"]) == 2
    assert all(r["result"]["key_match"] for r in data["runs"])


def test_simulate_demo_defaults(tmp_path):
    code, payload = _run(tmp_path, "simulate", "--method", "2", "--demo", "--seed", "1")
    assert code == EXIT_CLEAN
    data = json.loads(payload)
    assert data["runs"][0]["transcript"]["header"]["key_length"] == 4


def test_simulate_demo_gives_method1_the_walkthrough_menu(tmp_path):
    code, payload = _run(tmp_path, "simulate", "--demo", "--seed", "1", name="demo.json")
    assert code == EXIT_CLEAN
    header = json.loads(payload)["runs"][0]["transcript"]["header"]
    assert header["method"] == "method1"
    assert header["key_length"] == 4
    assert [float(a) for a in header["menu"]] == [0.0, math.pi / 2, math.pi]
    # An explicit menu wins, and a menu-less three-party demo stays on method 2.
    _, explicit = _run(tmp_path, "simulate", "--demo", "--menu", "0,pi/3,pi", "--seed", "1", name="menu.json")
    assert float(json.loads(explicit)["runs"][0]["transcript"]["header"]["menu"][1]) == math.pi / 3
    code, payload = _run(tmp_path, "simulate", "--method", "3party", "--demo", "--seed", "1", name="3p.json")
    assert code == EXIT_CLEAN
    assert {r["transcript"]["header"]["method"] for r in json.loads(payload)["runs"]} == {"method2"}


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("GHZQKD_SEED", "42")
    args = ["simulate", "--method", "2", "--key-length", "8"]
    _, via_env = _run(tmp_path, *args, name="env.json")
    _, via_flag = _run(tmp_path, *args, "--seed", "42", name="flag.json")
    assert via_env == via_flag
    # the flag wins over the environment
    _, overridden = _run(tmp_path, *args, "--seed", "43", name="override.json")
    assert overridden != via_env
    monkeypatch.setenv("GHZQKD_SEED", "not-a-number")
    code, _ = _run(tmp_path, *args, name="bad.json")
    assert code == EXIT_ERROR


def test_expectation_command(tmp_path):
    code, payload = _run(
        tmp_path, "expectation", "--spec", "+++,-", "--phases", "0,0,0", name="e.txt"
    )
    assert code == EXIT_CLEAN
    lines = payload.decode().splitlines()
    assert lines[0] == "analytic = -1"
    assert float(lines[1].split("=")[1]) == pytest.approx(-1.0, abs=1e-10)
    assert lines[3] == "parity = -1"

    code, payload = _run(
        tmp_path, "expectation", "--spec", "++-,-", "--phases", "1.0,1.0,2.0", name="e2.txt"
    )
    lines = payload.decode().splitlines()
    assert lines[0] == "analytic = -1"
    assert lines[3] == "parity = -1"

    code, payload = _run(
        tmp_path,
        "expectation",
        "--spec",
        "+-+,-",
        "--mode",
        "pol",
        "--phases",
        "0.3,0.2,0.1",
        name="e3.txt",
    )
    lines = payload.decode().splitlines()
    assert float(lines[0].split("=")[1]) == pytest.approx(-math.cos(0.2))
    assert lines[3] == "parity = none"


def test_menu_eval_command(tmp_path):
    code, payload = _run(tmp_path, "menu-eval", "--menu", "0,pi/2,pi", name="m.txt")
    assert code == EXIT_CLEAN
    text = payload.decode()
    assert "quality = 14/27" in text
    assert sum(1 for ln in text.splitlines() if ln.startswith("  ")) == 14

    code, payload = _run(tmp_path, "menu-eval", "--menu", "0,pi/3,2pi/3", name="m2.txt")
    assert "quality = 9/27" in payload.decode()

    code, payload = _run(tmp_path, "menu-eval", "--menu", "0.1,0.2,0.3", name="m3.txt")
    assert "quality = 0/27" in payload.decode()

    for i, menu in enumerate(("0,0,pi", "0,-1e-17,pi")):  # -1e-17 is 0 mod 2 pi
        code, _ = _run(tmp_path, "menu-eval", "--menu", menu, name=f"bad{i}.txt")
        assert code == EXIT_ERROR


def _read_sweep(payload):
    rows = [ln.split(",") for ln in payload.decode().splitlines() if ln and not ln.startswith("#")]
    assert rows[0] == ["parameter", "oracle_rate", "monte_carlo_rate", "std_error"]
    return [(float(a), float(b), float(c), float(d)) for a, b, c, d in rows[1:]]


def test_sweep_eve_angle(tmp_path):
    code, payload = _run(
        tmp_path,
        "sweep",
        "--variable",
        "eve-angle",
        "--values",
        "0,pi/4,pi/2",
        "--mc-rounds",
        "1500",
        "--seed",
        "9",
        name="sweep.csv",
    )
    assert code == EXIT_CLEAN
    rows = _read_sweep(payload)
    oracle = [r[1] for r in rows]
    assert oracle[0] == pytest.approx(0.0, abs=1e-12)
    assert oracle[-1] == pytest.approx(0.5, abs=1e-12)
    assert oracle == sorted(oracle)
    for _, o, mc, se in rows:
        assert abs(mc - o) <= 4 * max(se, math.sqrt(o * (1 - o) / 1500 + 1e-12))


def test_sweep_noise(tmp_path):
    code, payload = _run(
        tmp_path,
        "sweep",
        "--variable",
        "noise-p",
        "--values",
        "0,0.5,1",
        "--mc-rounds",
        "1500",
        "--seed",
        "4",
        name="noise.csv",
    )
    assert code == EXIT_CLEAN
    rows = _read_sweep(payload)
    assert rows[0][1] == pytest.approx(0.0, abs=1e-12)
    assert rows[-1][1] == pytest.approx(0.5, abs=1e-12)
    for _, o, mc, se in rows:
        assert abs(mc - o) <= 4 * max(se, math.sqrt(o * (1 - o) / 1500 + 1e-12))


def test_sweep_menu_summary_comments(tmp_path):
    code, payload = _run(
        tmp_path,
        "sweep",
        "--variable",
        "eve-angle",
        "--values",
        "pi/2",
        "--menu",
        "0,pi/2,pi",
        "--mc-rounds",
        "500",
        "--seed",
        "2",
        name="summary.csv",
    )
    assert code == EXIT_CLEAN
    text = payload.decode()
    assert "# menu_joint_average=" in text
    assert "# menu_average_at_eve_angle_" in text


def test_sweep_rejects_non_super_classical_phases(tmp_path):
    code, _ = _run(
        tmp_path, "sweep", "--variable", "eve-angle", "--phases", "0.3,0,0", name="bad.csv"
    )
    assert code == EXIT_ERROR


def test_usage_errors_exit_one(capsys):
    assert main([]) == EXIT_ERROR
    assert main(["simulate", "--method", "9"]) == EXIT_ERROR
    assert main(["simulate", "--menu", "0,pi/2"]) == EXIT_ERROR
    sweep = ["sweep", "--variable", "eve-angle", "--seed", "1"]
    for bad in (["--mc-rounds", "0"], ["--mc-rounds", "-3"], ["--noise-p", "-0.5"], ["--noise-p", "1.5"]):
        assert main([*sweep, *bad]) == EXIT_ERROR
    for bad in ("-0.1", "1.5", "nan"):
        assert main(["simulate", "--menu", "0,pi/2,pi", "--noise-p", bad, "--seed", "1"]) == EXIT_ERROR
    for bad in (["--key-length", "0"], ["--key-length", "-5"], ["--rounds", "0"]):
        assert main(["simulate", "--menu", "0,pi/2,pi", "--seed", "1", *bad]) == EXIT_ERROR
        assert "must be a positive integer" in capsys.readouterr().err
    capsys.readouterr()
    # A menu that retains no rounds leaves calibration nothing to measure; a
    # zero divisor in a pi form is no angle; an Eve angle needs the
    # intercepting eavesdropper; a sweep's menu summary needs super-classical
    # triples.
    for argv in (
        ["simulate", "--method", "1", "--menu", "0.1,0.2,0.3", "--noise-p", "0.1", "--seed", "1"],
        ["simulate", "--method", "3party", "--menu", "0.1,0.2,0.3", "--noise-p", "0.1", "--seed", "1"],
        ["expectation", "--phases", "pi/0,0,0"],
        ["simulate", "--method", "2", "--eve", "intercept-a", "--eve-angle", "2pi/0.0", "--seed", "1"],
        ["simulate", "--method", "2", "--eve-angle", "0.3", "--seed", "1"],
        ["simulate", "--menu", "0,pi/2,pi", "--eve", "impersonate-charlie", "--eve-angle", "0.3", "--seed", "1"],
        ["sweep", "--variable", "eve-angle", "--menu", "0.1,0.2,0.3", "--mc-rounds", "5", "--seed", "1"],
    ):
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(("ghzkd: error: ", "usage: "))
    # An --output that cannot be written is an error, not a traceback.
    here = Path(__file__).resolve().parent
    for path in (here / "no-such-dir" / "x.json", here):
        simulate = ["simulate", "--method", "2", "--key-length", "4", "--seed", "1", "--output", str(path)]
        assert main(simulate) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("ghzkd: error: ")


def test_unwritable_output_fails_before_any_work(tmp_path, monkeypatch, capsys):
    from ghzkd import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --output was checked")

    monkeypatch.setattr(cli, "calibrate_threshold", no_work)
    monkeypatch.setattr(cli, "monte_carlo_violation_rate", no_work)
    missing = str(tmp_path / "no-such-dir" / "x.json")
    simulate = ["simulate", "--method", "2", "--key-length", "4096", "--noise-p", "0.05", "--seed", "1"]
    sweep = ["sweep", "--variable", "noise-p", "--seed", "1"]
    for argv in (simulate, sweep):
        assert main([*argv, "--output", missing]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("ghzkd: error: ")
    # A run that fails after the check leaves an existing file as it was and
    # creates no new one.
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("earlier run\n")
    for path in (kept, fresh):
        assert main(["simulate", "--key-length", "0", "--seed", "1", "--output", str(path)]) == EXIT_ERROR
    assert kept.read_text() == "earlier run\n"
    assert not fresh.exists()


def test_configuration_error_keeps_existing_output(tmp_path, capsys):
    # Method 1 without a menu passes the parser and the --output check, then
    # fails building the configuration.
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("earlier run\n")
    for path in (kept, fresh):
        assert main(["simulate", "--method", "1", "--seed", "1", "--output", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("ghzkd: error: ")
    assert kept.read_text() == "earlier run\n"
    assert not fresh.exists()


def test_stdout_when_no_output_path(capsys):
    code = main(["expectation", "--phases", "0,0,0"])
    assert code == EXIT_CLEAN
    assert "analytic = -1" in capsys.readouterr().out


# --------------------------------------------------------------------------
# argv fuzzing

_ANGLES = ["0", "pi", "pi/2", "-pi/4", "2pi/3", "0.5pi", "3*pi/2", "0.3", "1e-300"]
_BAD_ANGLES = ["nan", "inf", "-inf", "", " ", "pi/", "pi/0", "2pi/0.0", ".pi", "-.pi", "pie", "9" * 400 + "pi"]
_BAD_LISTS = st.lists(st.sampled_from(_ANGLES + _BAD_ANGLES), max_size=4).map(",".join)
_PROBABILITIES = ["0", "0.1", "0.5", "1"]
_BAD_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "", "x", "1.5", "-0.5", "0", "-3"])


def _count(high):
    # Well-formed counts stay at most ``high`` so every run is small.
    return st.integers(1, high).map(str), _BAD_NUMBERS


#: For each option of the real parser: a strategy for well-formed values and
#: one for hostile ones (None for a flag that takes no value).  Well-formed
#: values cover every kind of run: menus that retain rounds and menus that
#: retain none, seeds of one to three 32-bit words, noise from 0 to 1.
#: Hostile ones are nan, inf, negatives, empty strings and malformed pi
#: forms.  ``--output`` is left out so the fuzzer writes no file; an option
#: missing here fails the test.
_FUZZ_VALUES = {
    "--spec": (st.sampled_from(["+++,-", "++-,+", "-+-,-", "+--,+"]), st.sampled_from(["", "+++", "abc,-", "+++,0"])),
    "--mode": (st.sampled_from(["spin", "pol"]), st.sampled_from(["", "polarization"])),
    "--seed": (
        st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64, 2**96)).map(str),
        st.integers(-(2**64), -1).map(str) | _BAD_NUMBERS,
    ),
    "--method": (st.sampled_from(["1", "2", "3party"]), st.sampled_from(["", "3", "method1"])),
    "--menu": (
        st.sampled_from(["0,pi/2,pi", "pi/2,pi,3pi/2"]) | st.sampled_from(["0.1,0.2,0.3", "0.1,0.2,0.4"]),
        _BAD_LISTS | st.sampled_from(["0,0,pi", "0,pi/2"]),
    ),
    "--key-length": _count(32),
    "--rounds": _count(256),
    "--mc-rounds": _count(20),
    "--parity-preference": (st.sampled_from(["1", "-1"]), st.sampled_from(["0", "2", "x"])),
    "--eve": (st.sampled_from(["none", "intercept-a", "impersonate-charlie"]), st.just("x")),
    "--eve-angle": (st.sampled_from(_ANGLES), st.sampled_from(_BAD_ANGLES)),
    "--noise-p": (st.sampled_from(_PROBABILITIES), _BAD_NUMBERS),
    "--threshold": (st.floats(0, 1).map(repr), st.floats(max_value=-1e-300).map(repr) | _BAD_NUMBERS),
    "--format": (st.sampled_from(["json", "csv"]), st.just("xml")),
    "--phases": (st.sampled_from(["0,0,0", "pi/3,pi/6,3pi/2", "0,pi/2,pi/2", "0.3,0,0"]), _BAD_LISTS),
    "--variable": (st.sampled_from(["eve-angle", "noise-p"]), st.just("x")),
    "--values": (
        st.lists(st.sampled_from(_PROBABILITIES + _ANGLES), min_size=1, max_size=4).map(",".join),
        _BAD_LISTS,
    ),
    "--reveal-secret": (None, None),
    "--demo": (None, None),
}

#: Options given on every draw: ``sweep`` runs 2000 Monte-Carlo rounds per
#: value when ``--mc-rounds`` is absent.
_ALWAYS_GIVEN = {"--mc-rounds"}


def _parser_options():
    """Each subcommand's option flags, as the real parser defines them."""
    (subcommands,) = (a.choices for a in build_parser()._actions if isinstance(a.choices, dict))
    return {
        name: [a.option_strings[-1] for a in sub._actions if a.option_strings and a.dest not in ("help", "output")]
        for name, sub in subcommands.items()
    }


_OPTIONS = _parser_options()


@st.composite
def _argvs(draw):
    """A subcommand with some of its options at well-formed values, then the same argv with one fault.

    Subcommands are drawn in proportion to their number of options.  A fault
    is a hostile value, a value on a flag that takes none, or a stray token;
    one fault per argv, next to the argv without it, lets a fault that only
    bites on an otherwise valid run be reached.
    """
    command = draw(st.sampled_from([name for name, options in _OPTIONS.items() for _ in options]))
    options = _OPTIONS[command]
    given_values = {}
    for flag in options:
        if flag in _ALWAYS_GIVEN or draw(st.booleans()):
            valid, _ = _FUZZ_VALUES[flag]
            given_values[flag] = None if valid is None else draw(valid)
    valid_argv = _joined(command, given_values)
    fault = draw(st.sampled_from([*options, "stray"]))
    if fault == "stray":
        return valid_argv, valid_argv + [draw(st.sampled_from(["--bogus", "extra", "--seed", "-x"]))]
    nasty = _FUZZ_VALUES[fault][1]
    return valid_argv, _joined(command, {**given_values, fault: draw(st.just("x") if nasty is None else nasty)})


def _joined(command, given_values):
    # "--flag=value" lets a value such as "-pi/4" reach its option.
    return [command] + [flag if v is None else f"{flag}={v}" for flag, v in given_values.items()]


@settings(max_examples=800, deadline=None)
@given(argvs=_argvs())
def test_any_argv_exits_0_1_or_2_without_a_traceback(argvs):
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (EXIT_CLEAN, EXIT_ERROR, EXIT_EVE_DETECTED)
        if code == EXIT_ERROR:
            assert err.getvalue().startswith(("ghzkd: error: ", "usage: "))


# --------------------------------------------------------------------------
# golden bytes

_GOLDEN_ADVERSARIES = {
    "none": (),
    "noise": ("--noise-p", "0.1"),
    "guess": ("--eve", "intercept-a"),
    "fixed": ("--eve", "intercept-a", "--eve-angle", "0.3", "--noise-p", "0.05"),
}

#: ``ghzkd simulate --key-length 64 --reveal-secret`` per method, menu (none or
#: 0,pi/2,pi), adversary, format and seed: exit code and the first 16 hex
#: digits of the sha256 of stdout.  Recorded with the one-round-at-a-time
#: engine that drew every stream from its own numpy generator; batching the
#: rounds must not change a byte.  Exit 1 (method 1 or a guessing intercept
#: without a menu) prints nothing.
_GOLDEN = """
1 - none json 1 1 e3b0c44298fc1c14
1 - none json 21474836487 1 e3b0c44298fc1c14
1 - none csv 1 1 e3b0c44298fc1c14
1 - none csv 21474836487 1 e3b0c44298fc1c14
1 - noise json 1 1 e3b0c44298fc1c14
1 - noise json 21474836487 1 e3b0c44298fc1c14
1 - noise csv 1 1 e3b0c44298fc1c14
1 - noise csv 21474836487 1 e3b0c44298fc1c14
1 - guess json 1 1 e3b0c44298fc1c14
1 - guess json 21474836487 1 e3b0c44298fc1c14
1 - guess csv 1 1 e3b0c44298fc1c14
1 - guess csv 21474836487 1 e3b0c44298fc1c14
1 - fixed json 1 1 e3b0c44298fc1c14
1 - fixed json 21474836487 1 e3b0c44298fc1c14
1 - fixed csv 1 1 e3b0c44298fc1c14
1 - fixed csv 21474836487 1 e3b0c44298fc1c14
1 menu none json 1 0 22be6515782433c9
1 menu none json 21474836487 0 118d6ab2315daf84
1 menu none csv 1 0 bcec5c321375140f
1 menu none csv 21474836487 0 355e78c81dc0065a
1 menu noise json 1 0 221eb6be790f789e
1 menu noise json 21474836487 0 1ed812df0712c8d0
1 menu noise csv 1 0 e10fd4ee75735fc3
1 menu noise csv 21474836487 0 6c373247700061db
1 menu guess json 1 2 73a681b6118eee6b
1 menu guess json 21474836487 0 bb615311fac31cfc
1 menu guess csv 1 2 29ae7ff6f3ebb357
1 menu guess csv 21474836487 0 73fa085ae1b02956
1 menu fixed json 1 2 48c963f7a2025548
1 menu fixed json 21474836487 2 d34c0c9a14486ad5
1 menu fixed csv 1 2 6ccad7dc14af3e55
1 menu fixed csv 21474836487 2 12d262161341192d
2 - none json 1 0 1cd8585eabfb8588
2 - none json 21474836487 0 9c648381ac597699
2 - none csv 1 0 57fb1aa9a670fa5b
2 - none csv 21474836487 0 de119382fba2d385
2 - noise json 1 0 a1b4d60cbca11972
2 - noise json 21474836487 0 ba55aa28e555258b
2 - noise csv 1 0 ff37f9e627e8f6f4
2 - noise csv 21474836487 0 1966c730838d2ac1
2 - guess json 1 1 e3b0c44298fc1c14
2 - guess json 21474836487 1 e3b0c44298fc1c14
2 - guess csv 1 1 e3b0c44298fc1c14
2 - guess csv 21474836487 1 e3b0c44298fc1c14
2 - fixed json 1 2 c87c96ae95114d8f
2 - fixed json 21474836487 2 e0c0a296ccd9856b
2 - fixed csv 1 2 22bb07a147f5ab22
2 - fixed csv 21474836487 2 cc8852b79234f92d
2 menu none json 1 0 1cd8585eabfb8588
2 menu none json 21474836487 0 9c648381ac597699
2 menu none csv 1 0 57fb1aa9a670fa5b
2 menu none csv 21474836487 0 de119382fba2d385
2 menu noise json 1 0 a1b4d60cbca11972
2 menu noise json 21474836487 0 ba55aa28e555258b
2 menu noise csv 1 0 ff37f9e627e8f6f4
2 menu noise csv 21474836487 0 1966c730838d2ac1
2 menu guess json 1 2 f11a12cc92037dd9
2 menu guess json 21474836487 2 5a9ff619cf1e9f61
2 menu guess csv 1 2 05397c54f20b51f5
2 menu guess csv 21474836487 2 6e08c00cbe215bce
2 menu fixed json 1 2 c87c96ae95114d8f
2 menu fixed json 21474836487 2 e0c0a296ccd9856b
2 menu fixed csv 1 2 22bb07a147f5ab22
2 menu fixed csv 21474836487 2 cc8852b79234f92d
3party - none json 1 0 6a8d2f6adf3bcd6a
3party - none json 21474836487 0 52dcb691ca3e55f0
3party - none csv 1 0 69742112db1cae95
3party - none csv 21474836487 0 652c27d0c64d8819
3party - noise json 1 0 b111593785055014
3party - noise json 21474836487 0 38469394f8a712ae
3party - noise csv 1 0 43a8190b121420cf
3party - noise csv 21474836487 0 58226ded07bb31a9
3party - guess json 1 1 e3b0c44298fc1c14
3party - guess json 21474836487 1 e3b0c44298fc1c14
3party - guess csv 1 1 e3b0c44298fc1c14
3party - guess csv 21474836487 1 e3b0c44298fc1c14
3party - fixed json 1 2 0cc39737d427c5c2
3party - fixed json 21474836487 2 a54df03fc87b33fe
3party - fixed csv 1 2 09812cc0f9a66d1b
3party - fixed csv 21474836487 2 514bda3d2c7bcf51
3party menu none json 1 0 77e1f1eeaa057f80
3party menu none json 21474836487 0 4d97de3335337922
3party menu none csv 1 0 b0fda64c72ed34c3
3party menu none csv 21474836487 0 0e097f2c55347856
3party menu noise json 1 0 da52d188afeb9727
3party menu noise json 21474836487 0 4ababdaa502334e4
3party menu noise csv 1 0 de79fee7c6a135b1
3party menu noise csv 21474836487 0 6b9feea07937b07e
3party menu guess json 1 2 6ab8f89955329178
3party menu guess json 21474836487 2 43d0435ac6e47cac
3party menu guess csv 1 2 8b4db31d8f1dad44
3party menu guess csv 21474836487 2 eea9508c32351e1f
3party menu fixed json 1 2 48dc14e4a107d402
3party menu fixed json 21474836487 2 bb15c2c93dc658e1
3party menu fixed csv 1 2 4cdaa0903cba1828
3party menu fixed csv 21474836487 2 84c73e571779f666
"""


#: Full-size ``ghzkd simulate --method 2 --key-length 4096 --noise-p 0.05
#: --reveal-secret --seed 1`` runs, noise only and with a fixed-angle
#: intercept: extra flags, exit code and sha256 prefix, recorded with
#: per-round numpy generators for the noise and eavesdropper streams.
_GOLDEN_FULL_SIZE = (
    ((), 0, "080e400da9c2ffe9"),
    (("--eve", "intercept-a", "--eve-angle", "1.234"), 2, "10712ceaff4a8916"),
)


def _golden_cases(table, reveal):
    cases = []
    for line in table.strip().splitlines():
        method, menu, adversary, fmt, seed, code, digest = line.split()
        argv = ["simulate", "--method", method, "--format", fmt, "--seed", seed, "--key-length", "64"]
        argv += ["--reveal-secret"] if reveal else []
        argv += ["--menu", "0,pi/2,pi"] if menu == "menu" else []
        argv += _GOLDEN_ADVERSARIES[adversary]
        cases.append((argv, int(code), digest))
    return cases


def _mismatches(cases, capsys):
    mismatches = []
    for argv, code, digest in cases:
        got_code = main(argv)
        got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
        if (got_code, got) != (code, digest):
            mismatches.append(" ".join(argv))
    return mismatches


def test_simulate_output_bytes_are_pinned(capsys):
    cases = _golden_cases(_GOLDEN, reveal=True)
    full_size = ["simulate", "--method", "2", "--key-length", "4096", "--noise-p", "0.05", "--reveal-secret"]
    for extra, code, digest in _GOLDEN_FULL_SIZE:
        cases.append(([*full_size, "--seed", "1", *extra], code, digest))
    assert not _mismatches(cases, capsys)


#: The matrix of ``_GOLDEN`` without ``--reveal-secret``: the masked public
#: view, where private columns are null or blank.
_GOLDEN_MASKED = """
1 - none json 1 1 e3b0c44298fc1c14
1 - none json 21474836487 1 e3b0c44298fc1c14
1 - none csv 1 1 e3b0c44298fc1c14
1 - none csv 21474836487 1 e3b0c44298fc1c14
1 - noise json 1 1 e3b0c44298fc1c14
1 - noise json 21474836487 1 e3b0c44298fc1c14
1 - noise csv 1 1 e3b0c44298fc1c14
1 - noise csv 21474836487 1 e3b0c44298fc1c14
1 - guess json 1 1 e3b0c44298fc1c14
1 - guess json 21474836487 1 e3b0c44298fc1c14
1 - guess csv 1 1 e3b0c44298fc1c14
1 - guess csv 21474836487 1 e3b0c44298fc1c14
1 - fixed json 1 1 e3b0c44298fc1c14
1 - fixed json 21474836487 1 e3b0c44298fc1c14
1 - fixed csv 1 1 e3b0c44298fc1c14
1 - fixed csv 21474836487 1 e3b0c44298fc1c14
1 menu none json 1 0 4233b447056edcf7
1 menu none json 21474836487 0 3bbb1dd38259e8c9
1 menu none csv 1 0 9df01b88a2c20af9
1 menu none csv 21474836487 0 3570a2341d09f8a5
1 menu noise json 1 0 1b25b98f7c57609e
1 menu noise json 21474836487 0 187d6091d1af1fef
1 menu noise csv 1 0 50e0108c83a4300a
1 menu noise csv 21474836487 0 901127c38571ed88
1 menu guess json 1 2 78a29a513f12a411
1 menu guess json 21474836487 0 93f71809490faab7
1 menu guess csv 1 2 d08e41c4051e4d00
1 menu guess csv 21474836487 0 b6a5557423e33a33
1 menu fixed json 1 2 f674aa167aba2c2e
1 menu fixed json 21474836487 2 18cfc7cd5fe7b494
1 menu fixed csv 1 2 2abf1363dfd1c098
1 menu fixed csv 21474836487 2 583e43fde749fb0d
2 - none json 1 0 92be166643eafc4a
2 - none json 21474836487 0 fef1d8978431bcd8
2 - none csv 1 0 cfe1ceda8bc3b811
2 - none csv 21474836487 0 97a5a38b713f9d0a
2 - noise json 1 0 05147272dc6110b3
2 - noise json 21474836487 0 fb1c697aad48e595
2 - noise csv 1 0 3ab28c83996758a9
2 - noise csv 21474836487 0 7804ae2a7c5db3ad
2 - guess json 1 1 e3b0c44298fc1c14
2 - guess json 21474836487 1 e3b0c44298fc1c14
2 - guess csv 1 1 e3b0c44298fc1c14
2 - guess csv 21474836487 1 e3b0c44298fc1c14
2 - fixed json 1 2 fd09f7707cb0cd82
2 - fixed json 21474836487 2 3b64e75d887112f6
2 - fixed csv 1 2 25d56ca12d3f4fd0
2 - fixed csv 21474836487 2 7422487db54185aa
2 menu none json 1 0 92be166643eafc4a
2 menu none json 21474836487 0 fef1d8978431bcd8
2 menu none csv 1 0 cfe1ceda8bc3b811
2 menu none csv 21474836487 0 97a5a38b713f9d0a
2 menu noise json 1 0 05147272dc6110b3
2 menu noise json 21474836487 0 fb1c697aad48e595
2 menu noise csv 1 0 3ab28c83996758a9
2 menu noise csv 21474836487 0 7804ae2a7c5db3ad
2 menu guess json 1 2 9864db7dc0f576e6
2 menu guess json 21474836487 2 f751a321e740f6ac
2 menu guess csv 1 2 df488e6d72925403
2 menu guess csv 21474836487 2 8d8cd9a325316007
2 menu fixed json 1 2 fd09f7707cb0cd82
2 menu fixed json 21474836487 2 3b64e75d887112f6
2 menu fixed csv 1 2 25d56ca12d3f4fd0
2 menu fixed csv 21474836487 2 7422487db54185aa
3party - none json 1 0 586b2367cd8d1faf
3party - none json 21474836487 0 6769bc848e19bff6
3party - none csv 1 0 ede2da2506ff0654
3party - none csv 21474836487 0 8bd1d86839f20e66
3party - noise json 1 0 5ac06689411f2314
3party - noise json 21474836487 0 05825abcd0087faf
3party - noise csv 1 0 eceb6f8aba000e11
3party - noise csv 21474836487 0 77789f182fba8efd
3party - guess json 1 1 e3b0c44298fc1c14
3party - guess json 21474836487 1 e3b0c44298fc1c14
3party - guess csv 1 1 e3b0c44298fc1c14
3party - guess csv 21474836487 1 e3b0c44298fc1c14
3party - fixed json 1 2 df6babb692ed3aa7
3party - fixed json 21474836487 2 207283f226c27dff
3party - fixed csv 1 2 579882e798752a45
3party - fixed csv 21474836487 2 3e4e7d8a29432378
3party menu none json 1 0 abe32746d9a2b4a2
3party menu none json 21474836487 0 c28d0cfa17ef4a2d
3party menu none csv 1 0 887952b817c42fa5
3party menu none csv 21474836487 0 b47e43a757be583e
3party menu noise json 1 0 0a786ee917eab4be
3party menu noise json 21474836487 0 66f3ba60577f9d1c
3party menu noise csv 1 0 635cfee3296f06ed
3party menu noise csv 21474836487 0 563a93de230d42d2
3party menu guess json 1 2 adbb7288181a8621
3party menu guess json 21474836487 2 b260519a56def4d2
3party menu guess csv 1 2 b0a5fe3a22cfbaf2
3party menu guess csv 21474836487 2 9080233c6f24d06b
3party menu fixed json 1 2 3e448e0a992cd288
3party menu fixed json 21474836487 2 959111e78b1ae2e7
3party menu fixed csv 1 2 9663d6cbeeb9c336
3party menu fixed csv 21474836487 2 1dfc6970296651d1
"""

#: ``ghzkd simulate --method 3party --key-length 37 --spec ++-,+ --mode pol
#: --parity-preference -1 --seed 5`` per menu (none or 0,pi/2,pi),
#: eavesdropper (none, or an intercept: guessing from the menu when there is
#: one, at angle 1.1 otherwise), format and reveal mode: exit code and sha256
#: prefix of stdout.
_GOLDEN_THREE_PARTY = """
- none json masked 0 590acca6b1f29978
- none json revealed 0 45fa2d6e54117886
- none csv masked 0 436f94756c72d632
- none csv revealed 0 89874bc543c95e0a
- intercept json masked 2 9aa556888102528d
- intercept json revealed 2 b66c2f7dc98cb886
- intercept csv masked 2 620ac0a82fe65936
- intercept csv revealed 2 59901fea14c7b759
menu none json masked 0 e4383349eedd3006
menu none json revealed 0 2655cba357ab4bf3
menu none csv masked 0 72202458107cbc71
menu none csv revealed 0 4e7e65c313fc37f6
menu intercept json masked 2 3d5ecd6d6ed2833b
menu intercept json revealed 2 a428aa50092cfb41
menu intercept csv masked 2 a1e0692e74aa33b7
menu intercept csv revealed 2 02d237da6d32af61
"""


def _three_party_cases():
    cases = []
    for line in _GOLDEN_THREE_PARTY.strip().splitlines():
        menu, eve, fmt, reveal, code, digest = line.split()
        argv = ["simulate", "--method", "3party", "--key-length", "37", "--spec", "++-,+", "--mode", "pol"]
        argv += ["--parity-preference", "-1", "--seed", "5", "--format", fmt]
        argv += ["--menu", "0,pi/2,pi"] if menu == "menu" else []
        if eve == "intercept":
            argv += ["--eve", "intercept-a"] + ([] if menu == "menu" else ["--eve-angle", "1.1"])
        argv += ["--reveal-secret"] if reveal == "revealed" else []
        cases.append((argv, int(code), digest))
    return cases


def test_masked_and_three_party_output_bytes_are_pinned(capsys):
    cases = _golden_cases(_GOLDEN_MASKED, reveal=False) + _three_party_cases()
    assert not _mismatches(cases, capsys)


#: ``ghzkd sweep --mc-rounds 200`` per variable, ``--noise-p``, menu (none or
#: 0,pi/2,pi), phases (default or pi/3,pi/6,3pi/2) and seed: exit code and
#: sha256 prefix of stdout, recorded with the one-state-at-a-time oracle.
#: The rows pin the exact column and the menu-summary comment lines, and the
#: Monte-Carlo columns as drawn from the session streams of run 0.
_GOLDEN_SWEEP = """
eve-angle 0 - - 1 0 66c3d41bdb33d71c
eve-angle 0 - - 21474836487 0 94f904a0deec0823
eve-angle 0 - explicit 1 0 b1a4942c88d8eba5
eve-angle 0 - explicit 21474836487 0 a736816c8b00237b
eve-angle 0 menu - 1 0 0e48c4abe226e81a
eve-angle 0 menu - 21474836487 0 d520027ad30d4b99
eve-angle 0 menu explicit 1 0 71ea0afd641d0010
eve-angle 0 menu explicit 21474836487 0 0848e8c2cd1a30b9
eve-angle 0.1 - - 1 0 fbcbad463a9b084f
eve-angle 0.1 - - 21474836487 0 1f49f0895523bf58
eve-angle 0.1 - explicit 1 0 2bf18c825cf44083
eve-angle 0.1 - explicit 21474836487 0 b6c213d430195a47
eve-angle 0.1 menu - 1 0 ec1cefb6fad3b83b
eve-angle 0.1 menu - 21474836487 0 b960e102771a11c6
eve-angle 0.1 menu explicit 1 0 ab9f3ead1fcf489f
eve-angle 0.1 menu explicit 21474836487 0 ff3a78bf0ddfc26b
noise-p 0 - - 1 0 1f4cced7713fa2b2
noise-p 0 - - 21474836487 0 81ae94b415a0011f
noise-p 0 - explicit 1 0 61aaf607aabe35bb
noise-p 0 - explicit 21474836487 0 4d97186fbff8f84b
noise-p 0 menu - 1 0 a48ffb1ee4200db3
noise-p 0 menu - 21474836487 0 f8aae3c6b1c3fcf3
noise-p 0 menu explicit 1 0 15f73abf9b77b598
noise-p 0 menu explicit 21474836487 0 f11a3fdc146d4100
noise-p 0.1 - - 1 0 1f4cced7713fa2b2
noise-p 0.1 - - 21474836487 0 81ae94b415a0011f
noise-p 0.1 - explicit 1 0 61aaf607aabe35bb
noise-p 0.1 - explicit 21474836487 0 4d97186fbff8f84b
noise-p 0.1 menu - 1 0 433677bb5971aa17
noise-p 0.1 menu - 21474836487 0 a09c12d725381b33
noise-p 0.1 menu explicit 1 0 de10caf2340d7033
noise-p 0.1 menu explicit 21474836487 0 090085abededde54
"""


def test_sweep_output_bytes_are_pinned(capsys):
    cases = []
    for line in _GOLDEN_SWEEP.strip().splitlines():
        variable, noise_p, menu, phases, seed, code, digest = line.split()
        argv = ["sweep", "--variable", variable, "--noise-p", noise_p, "--seed", seed, "--mc-rounds", "200"]
        argv += ["--menu", "0,pi/2,pi"] if menu == "menu" else []
        argv += ["--phases", "pi/3,pi/6,3pi/2"] if phases == "explicit" else []
        cases.append((argv, int(code), digest))
    assert not _mismatches(cases, capsys)


def test_output_file_bytes_equal_stdout_bytes(tmp_path, capsys):
    # The pinned digests read stdout; --output must write the same chunks.
    menu = ["simulate", "--method", "1", "--menu", "0,pi/2,pi", "--key-length", "64", "--seed", "1"]
    full_size = ["simulate", "--method", "2", "--key-length", "4096", "--noise-p", "0.05", "--seed", "1"]
    three_party = ["simulate", "--method", "3party", "--menu", "0,pi/2,pi", "--key-length", "37", "--seed", "5"]
    cases = [
        [*menu, "--reveal-secret"],
        [*menu, "--format", "csv"],
        [*full_size, "--reveal-secret", "--eve", "intercept-a", "--eve-angle", "1.234"],
        three_party,
    ]
    for i, argv in enumerate(cases):
        code = main(argv)
        stdout = capsys.readouterr().out.encode()
        path = tmp_path / f"out{i}"
        assert main([*argv, "--output", str(path)]) == code
        assert path.read_bytes() == stdout


def test_key_exhausted_run_keeps_existing_output(tmp_path, capsys):
    kept = tmp_path / "kept.json"
    kept.write_text("earlier run\n")
    argv = ["simulate", "--method", "1", "--menu", "0,pi/2,pi", "--key-length", "64", "--rounds", "64", "--seed", "1"]
    assert main([*argv, "--output", str(kept)]) == EXIT_ERROR
    assert "key bits placed" in capsys.readouterr().err
    assert kept.read_text() == "earlier run\n"
