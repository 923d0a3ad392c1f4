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
#: digits of the sha256 of stdout, with every draw from the counter-hash
#: streams (``protocol._round_rng``); batching the rounds must not change a
#: byte.  Exit 1 (method 1 or a guessing intercept without a menu) prints
#: nothing.
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
1 menu none json 1 0 69e6af8800ffc832
1 menu none json 21474836487 0 1a9a5001195eeb86
1 menu none csv 1 0 c90e9ad2bcd79039
1 menu none csv 21474836487 0 7f0682330151006a
1 menu noise json 1 0 f04f46d88c2273a0
1 menu noise json 21474836487 0 8e32e204f7a8e532
1 menu noise csv 1 0 ea64d00c126aae47
1 menu noise csv 21474836487 0 79eeb1ed318420ad
1 menu guess json 1 2 f44ac895a4de63c9
1 menu guess json 21474836487 2 e9eb18a75a2c7fd9
1 menu guess csv 1 2 3018f4d0c64e3794
1 menu guess csv 21474836487 2 6c9b6062173c9a0c
1 menu fixed json 1 2 07f8c9f684394d10
1 menu fixed json 21474836487 2 40c763016edc07cc
1 menu fixed csv 1 2 683cb335f8f46d22
1 menu fixed csv 21474836487 2 59a74712ed9904d8
2 - none json 1 0 022a0a0c2e94d542
2 - none json 21474836487 0 0970cdece89cf486
2 - none csv 1 0 640ed27058475bd8
2 - none csv 21474836487 0 a8cff9bd6b4c3188
2 - noise json 1 0 eb25fbfdd71581e7
2 - noise json 21474836487 0 524c2b3f78527000
2 - noise csv 1 0 e512d7fb0ae18d1b
2 - noise csv 21474836487 0 35072e16a4ba1449
2 - guess json 1 1 e3b0c44298fc1c14
2 - guess json 21474836487 1 e3b0c44298fc1c14
2 - guess csv 1 1 e3b0c44298fc1c14
2 - guess csv 21474836487 1 e3b0c44298fc1c14
2 - fixed json 1 2 efcc4266a601caa6
2 - fixed json 21474836487 2 7f2c836a8ae9f5d9
2 - fixed csv 1 2 e55076e2acf0cd8f
2 - fixed csv 21474836487 2 d049cb3fb3cf4fe0
2 menu none json 1 0 022a0a0c2e94d542
2 menu none json 21474836487 0 0970cdece89cf486
2 menu none csv 1 0 640ed27058475bd8
2 menu none csv 21474836487 0 a8cff9bd6b4c3188
2 menu noise json 1 0 eb25fbfdd71581e7
2 menu noise json 21474836487 0 524c2b3f78527000
2 menu noise csv 1 0 e512d7fb0ae18d1b
2 menu noise csv 21474836487 0 35072e16a4ba1449
2 menu guess json 1 2 a9e1492305f1c46b
2 menu guess json 21474836487 2 1c9c7c4aaf68ea36
2 menu guess csv 1 2 2e69578d23bec303
2 menu guess csv 21474836487 2 82ab85a6b7eb662e
2 menu fixed json 1 2 efcc4266a601caa6
2 menu fixed json 21474836487 2 7f2c836a8ae9f5d9
2 menu fixed csv 1 2 e55076e2acf0cd8f
2 menu fixed csv 21474836487 2 d049cb3fb3cf4fe0
3party - none json 1 0 087743110cea3f82
3party - none json 21474836487 0 45d4cd8da5de090b
3party - none csv 1 0 0d4cfd3586a55c57
3party - none csv 21474836487 0 63d6a1b73f4a9ba7
3party - noise json 1 0 f7ac777a5f13a110
3party - noise json 21474836487 0 79fee394292711fa
3party - noise csv 1 0 9b8fe4e8d114dbdf
3party - noise csv 21474836487 0 ba71a3fd06034e2e
3party - guess json 1 1 e3b0c44298fc1c14
3party - guess json 21474836487 1 e3b0c44298fc1c14
3party - guess csv 1 1 e3b0c44298fc1c14
3party - guess csv 21474836487 1 e3b0c44298fc1c14
3party - fixed json 1 2 1008c12a18199790
3party - fixed json 21474836487 2 7c24f3a4ee8b1bd7
3party - fixed csv 1 2 a02a3ae949406260
3party - fixed csv 21474836487 2 7e27ead4523a1df4
3party menu none json 1 0 fe8204376b24b69c
3party menu none json 21474836487 0 3697da7dfecb977f
3party menu none csv 1 0 e645c14d0a473d47
3party menu none csv 21474836487 0 cc46e782d40eb93d
3party menu noise json 1 0 5c4b4982c5c25a86
3party menu noise json 21474836487 0 117d9eaeff1f4a4c
3party menu noise csv 1 0 27c65f255b822913
3party menu noise csv 21474836487 0 b8f0d3c59b5a43f4
3party menu guess json 1 2 03eb62f818287de8
3party menu guess json 21474836487 2 d9a5f84e8e7d4358
3party menu guess csv 1 2 0cf575c5905ab904
3party menu guess csv 21474836487 2 0683f24d218f0956
3party menu fixed json 1 2 f06a0da6a92f90f7
3party menu fixed json 21474836487 2 b2de031e206a2a07
3party menu fixed csv 1 2 6b74c597e2c09e1d
3party menu fixed csv 21474836487 2 e354deeeec057b07
"""


#: Full-size ``ghzkd simulate --method 2 --key-length 4096 --noise-p 0.05
#: --reveal-secret --seed 1`` runs, noise only and with a fixed-angle
#: intercept: extra flags, exit code and sha256 prefix.  The noise and
#: eavesdropper draws read fixed slots of each round's counter-hash streams.
_GOLDEN_FULL_SIZE = (
    ((), 0, "53dc5160b8f6551e"),
    (("--eve", "intercept-a", "--eve-angle", "1.234"), 2, "40bbda4b88bb3526"),
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
1 menu none json 1 0 8d018b5edb169153
1 menu none json 21474836487 0 758625b166b430ed
1 menu none csv 1 0 5e6b44981d0355e7
1 menu none csv 21474836487 0 b8d21c7295a55a5f
1 menu noise json 1 0 de74f547f969449f
1 menu noise json 21474836487 0 be57000108f4457e
1 menu noise csv 1 0 015ddb5b1d933ea1
1 menu noise csv 21474836487 0 6d81d0ef0136fce2
1 menu guess json 1 2 f5b2502205c6219c
1 menu guess json 21474836487 2 c6c9877113607be2
1 menu guess csv 1 2 6417ae5e3edff65a
1 menu guess csv 21474836487 2 853d33a810f817b4
1 menu fixed json 1 2 1c32d35e0dc765c2
1 menu fixed json 21474836487 2 632d3a6199b0b51d
1 menu fixed csv 1 2 b49bb2194794e7a4
1 menu fixed csv 21474836487 2 ed1a4482d20248c5
2 - none json 1 0 851c5ff42e342eab
2 - none json 21474836487 0 7608d44797e17cc7
2 - none csv 1 0 f0a0767b6fbc9779
2 - none csv 21474836487 0 27cede82d8b46ef3
2 - noise json 1 0 5bd67510da3196ed
2 - noise json 21474836487 0 fce44bb86b34265c
2 - noise csv 1 0 f0df61ec2f9dcf74
2 - noise csv 21474836487 0 e0e69135eca02f43
2 - guess json 1 1 e3b0c44298fc1c14
2 - guess json 21474836487 1 e3b0c44298fc1c14
2 - guess csv 1 1 e3b0c44298fc1c14
2 - guess csv 21474836487 1 e3b0c44298fc1c14
2 - fixed json 1 2 0c982ed0a77534d3
2 - fixed json 21474836487 2 9e72d28f346dce52
2 - fixed csv 1 2 a68c4b606a21b511
2 - fixed csv 21474836487 2 fb3536c7a6870d8c
2 menu none json 1 0 851c5ff42e342eab
2 menu none json 21474836487 0 7608d44797e17cc7
2 menu none csv 1 0 f0a0767b6fbc9779
2 menu none csv 21474836487 0 27cede82d8b46ef3
2 menu noise json 1 0 5bd67510da3196ed
2 menu noise json 21474836487 0 fce44bb86b34265c
2 menu noise csv 1 0 f0df61ec2f9dcf74
2 menu noise csv 21474836487 0 e0e69135eca02f43
2 menu guess json 1 2 00fbb10e6548b007
2 menu guess json 21474836487 2 adf1a421a878cf03
2 menu guess csv 1 2 acfc0f60743672a4
2 menu guess csv 21474836487 2 41bb02238f714a9e
2 menu fixed json 1 2 0c982ed0a77534d3
2 menu fixed json 21474836487 2 9e72d28f346dce52
2 menu fixed csv 1 2 a68c4b606a21b511
2 menu fixed csv 21474836487 2 fb3536c7a6870d8c
3party - none json 1 0 260afb23825db539
3party - none json 21474836487 0 41f240fb6b654bc5
3party - none csv 1 0 ba0ceeefc67334c0
3party - none csv 21474836487 0 49bf80878aee9b77
3party - noise json 1 0 19a667c8343782d8
3party - noise json 21474836487 0 e37eee8d9c9f79a0
3party - noise csv 1 0 7a4a61245eec2f83
3party - noise csv 21474836487 0 a8de759318ec95c5
3party - guess json 1 1 e3b0c44298fc1c14
3party - guess json 21474836487 1 e3b0c44298fc1c14
3party - guess csv 1 1 e3b0c44298fc1c14
3party - guess csv 21474836487 1 e3b0c44298fc1c14
3party - fixed json 1 2 a0e38c5ff0a52d65
3party - fixed json 21474836487 2 55e4fd53470b96a6
3party - fixed csv 1 2 483efbbfac79a8fa
3party - fixed csv 21474836487 2 0ba793652895500e
3party menu none json 1 0 ffc20c083c07019a
3party menu none json 21474836487 0 bcdfcf527828ab65
3party menu none csv 1 0 5aef8c0ed07fffc1
3party menu none csv 21474836487 0 80a33539ece45a65
3party menu noise json 1 0 6fc467bbe8eb5842
3party menu noise json 21474836487 0 d806648400801a5e
3party menu noise csv 1 0 323163a65a35a866
3party menu noise csv 21474836487 0 ca42770986854a60
3party menu guess json 1 2 6f9a2d4ff82e5c78
3party menu guess json 21474836487 2 d2c9606b0b8faf1d
3party menu guess csv 1 2 da69eedd491ce3f2
3party menu guess csv 21474836487 2 c22dd7aecf8a7e7c
3party menu fixed json 1 2 6557b2240c764664
3party menu fixed json 21474836487 2 ac9c2551c7534f53
3party menu fixed csv 1 2 94bef56f4842f8ab
3party menu fixed csv 21474836487 2 c5771fab0755c8c7
"""

#: ``ghzkd simulate --method 3party --key-length 37 --spec ++-,+ --mode pol
#: --parity-preference -1 --seed 5`` per menu (none or 0,pi/2,pi),
#: eavesdropper (none, or an intercept: guessing from the menu when there is
#: one, at angle 1.1 otherwise), format and reveal mode: exit code and sha256
#: prefix of stdout.
_GOLDEN_THREE_PARTY = """
- none json masked 0 a4910caca449f609
- none json revealed 0 88413e69752643c1
- none csv masked 0 500256164db70bdc
- none csv revealed 0 386fe64d855e8f13
- intercept json masked 2 ad221910321f1244
- intercept json revealed 2 55a90c22b74e93c8
- intercept csv masked 2 366752acdf99897d
- intercept csv revealed 2 494bf056b8268a77
menu none json masked 0 bac40efd81373c78
menu none json revealed 0 55a6ad3adf26ce4f
menu none csv masked 0 7e0fd25764f0dbc0
menu none csv revealed 0 062d7be118089c1d
menu intercept json masked 2 c4f9dee010956c03
menu intercept json revealed 2 537f0c8415c8372e
menu intercept csv masked 2 af07f47631359b5b
menu intercept csv revealed 2 e1acb4537312e806
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
eve-angle 0 - - 1 0 91db153657afc898
eve-angle 0 - - 21474836487 0 1c1ff6fee126c03d
eve-angle 0 - explicit 1 0 9c7cf65932253c06
eve-angle 0 - explicit 21474836487 0 a7cebb58e2e0be42
eve-angle 0 menu - 1 0 5d4d6a9483c69199
eve-angle 0 menu - 21474836487 0 612177615d7a0ae2
eve-angle 0 menu explicit 1 0 5aeeb7ab60ad080b
eve-angle 0 menu explicit 21474836487 0 99e84b2fac69575b
eve-angle 0.1 - - 1 0 6b859b460894a01c
eve-angle 0.1 - - 21474836487 0 91940206446d8692
eve-angle 0.1 - explicit 1 0 22a2fe9786f2eb4b
eve-angle 0.1 - explicit 21474836487 0 eb54c3f07d5c537b
eve-angle 0.1 menu - 1 0 9caeee48fdbcd2ce
eve-angle 0.1 menu - 21474836487 0 38b31533d1631184
eve-angle 0.1 menu explicit 1 0 8adf4aae01530baf
eve-angle 0.1 menu explicit 21474836487 0 4ae2eac56ae0ec9d
noise-p 0 - - 1 0 7b5a1d86bd6fbc1f
noise-p 0 - - 21474836487 0 98a393d5c8cc8456
noise-p 0 - explicit 1 0 28d225eddd90ddbf
noise-p 0 - explicit 21474836487 0 335f846af94c0e72
noise-p 0 menu - 1 0 ec0b3750e736f108
noise-p 0 menu - 21474836487 0 b2f30393dafd5050
noise-p 0 menu explicit 1 0 d229235f30cdcb90
noise-p 0 menu explicit 21474836487 0 4357c8b72f10ee65
noise-p 0.1 - - 1 0 7b5a1d86bd6fbc1f
noise-p 0.1 - - 21474836487 0 98a393d5c8cc8456
noise-p 0.1 - explicit 1 0 28d225eddd90ddbf
noise-p 0.1 - explicit 21474836487 0 335f846af94c0e72
noise-p 0.1 menu - 1 0 04ab0cd7a6c7d5a1
noise-p 0.1 menu - 21474836487 0 3ff8d4a860e288b2
noise-p 0.1 menu explicit 1 0 63cd737d3346bce6
noise-p 0.1 menu explicit 21474836487 0 0dc3a5e9a09d36f9
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
