"""Command-line contract: exit codes, determinism, redaction, output formats."""

import contextlib
import hashlib
import io
import json
import math
import os
import stat
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
    assert run["result"]["detection"]["class_counts"] is None
    assert run["transcript"]["header"]["spec"] is None
    assert run["transcript"]["header"]["format"] == 1
    _, revealed = _run(tmp_path, *base, "--reveal-secret", name="revealed.json")
    data = json.loads(revealed)
    run = data["runs"][0]
    assert run["result"]["key_sent"] is not None
    assert run["result"]["key_recovered"] == run["result"]["key_sent"]
    assert run["result"]["detection"]["class_counts"] == {"-1": [0, 0], "1": [6, 0]}
    assert run["transcript"]["header"]["spec"] == "+++,-"
    assert run["transcript"]["header"]["format"] == 1
    for view in ([], ["--reveal-secret"]):
        _, text = _run(tmp_path, *base, *view, "--format", "csv", name="view.csv")
        assert "\n# format=1\n# method=method2\n" in text.decode()


def test_masked_detection_hides_the_parity_preference(tmp_path):
    detections = []
    for preference in ("1", "-1"):
        argv = ["simulate", "--method", "2", "--parity-preference", preference, "--key-length", "8", "--seed", "1"]
        _, masked = _run(tmp_path, *argv, name=f"preference{preference}.json")
        detections.append(json.loads(masked)["runs"][0]["result"]["detection"])
    assert detections[0] == detections[1]


def test_method1_verdict_pools_both_parity_classes(tmp_path):
    # Once this one-bit session checked its only round, of parity -1,
    # against the +1 class's threshold, 0.1164374999999999.
    argv = ["simulate", "--method", "1", "--menu", "0,pi/3,pi", "--noise-p", "0.05", "--eve", "intercept-a"]
    argv += ["--seed", "2", "--reveal-secret"]
    for key_length in (1, 64):
        _, payload = _run(tmp_path, *argv, "--key-length", str(key_length), name=f"found{key_length}.json")
        detection = json.loads(payload)["runs"][0]["result"]["detection"]
        assert detection["threshold"] == pytest.approx(0.11142361111111102, abs=1e-12)
        assert detection["rounds_checked"] == key_length == sum(n for n, _ in detection["class_counts"].values())


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
    # intercepting eavesdropper, and impersonate-charlie is no strategy; a
    # sweep's menu summary needs super-classical triples.
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
    "--eve": (st.sampled_from(["none", "intercept-a"]), st.sampled_from(["x", "impersonate-charlie"])),
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
1 menu none json 1 0 3d10119aa3ed8480
1 menu none json 21474836487 0 085a4abd33a35e99
1 menu none csv 1 0 6d89855e68cc480a
1 menu none csv 21474836487 0 b78ee4ab5b53887a
1 menu noise json 1 0 6840eecfa786f7be
1 menu noise json 21474836487 0 266ccce62207e50d
1 menu noise csv 1 0 fec8429ea3d5f043
1 menu noise csv 21474836487 0 c1a2c02cdd2cb028
1 menu guess json 1 2 d2b4114452545f89
1 menu guess json 21474836487 2 c37195a0283148c2
1 menu guess csv 1 2 506022fa14cfa66e
1 menu guess csv 21474836487 2 fc9b68a2ac595a8f
1 menu fixed json 1 2 a3371866360905dc
1 menu fixed json 21474836487 2 a3508f29538999c1
1 menu fixed csv 1 2 86b158db6c91c1ed
1 menu fixed csv 21474836487 2 dd03abaee3810d24
2 - none json 1 0 b260326785ddd22e
2 - none json 21474836487 0 df89558f8db9f5b8
2 - none csv 1 0 74ed647e86473dce
2 - none csv 21474836487 0 7ddffa1b752adccc
2 - noise json 1 0 bf409e120dc2dd2b
2 - noise json 21474836487 0 09b75158c7642fc4
2 - noise csv 1 0 2d831381e7a0eb70
2 - noise csv 21474836487 0 b1a1de5eac57197b
2 - guess json 1 1 e3b0c44298fc1c14
2 - guess json 21474836487 1 e3b0c44298fc1c14
2 - guess csv 1 1 e3b0c44298fc1c14
2 - guess csv 21474836487 1 e3b0c44298fc1c14
2 - fixed json 1 2 d0d2934da32dfee2
2 - fixed json 21474836487 2 121d8e617f7b01c6
2 - fixed csv 1 2 292823198c108d4c
2 - fixed csv 21474836487 2 c93907d5fbbbd2cd
2 menu none json 1 0 b260326785ddd22e
2 menu none json 21474836487 0 df89558f8db9f5b8
2 menu none csv 1 0 74ed647e86473dce
2 menu none csv 21474836487 0 7ddffa1b752adccc
2 menu noise json 1 0 bf409e120dc2dd2b
2 menu noise json 21474836487 0 09b75158c7642fc4
2 menu noise csv 1 0 2d831381e7a0eb70
2 menu noise csv 21474836487 0 b1a1de5eac57197b
2 menu guess json 1 2 19bdc2cde7563ee6
2 menu guess json 21474836487 2 256de3ce06de372e
2 menu guess csv 1 2 bf828dd957b71c46
2 menu guess csv 21474836487 2 36788d8ba7e77767
2 menu fixed json 1 2 d0d2934da32dfee2
2 menu fixed json 21474836487 2 121d8e617f7b01c6
2 menu fixed csv 1 2 292823198c108d4c
2 menu fixed csv 21474836487 2 c93907d5fbbbd2cd
3party - none json 1 0 28ee8927377cb283
3party - none json 21474836487 0 14166540a1e29770
3party - none csv 1 0 95a7be8741ac7cf4
3party - none csv 21474836487 0 113642b23e50a37d
3party - noise json 1 0 4048f5f77464bd7f
3party - noise json 21474836487 0 74a3d1f0145c8121
3party - noise csv 1 0 2cf9752623646df8
3party - noise csv 21474836487 0 25d32d2d7cd826b3
3party - guess json 1 1 e3b0c44298fc1c14
3party - guess json 21474836487 1 e3b0c44298fc1c14
3party - guess csv 1 1 e3b0c44298fc1c14
3party - guess csv 21474836487 1 e3b0c44298fc1c14
3party - fixed json 1 2 e72058616276a535
3party - fixed json 21474836487 2 70a01a3e8c26670e
3party - fixed csv 1 2 f363161699a37ff8
3party - fixed csv 21474836487 2 e1e4fccd8943f385
3party menu none json 1 0 d127826669095f37
3party menu none json 21474836487 0 58c286ef2f8254db
3party menu none csv 1 0 10eb444756ef26f4
3party menu none csv 21474836487 0 c48379932bf9239d
3party menu noise json 1 0 ad4c8f7a85709286
3party menu noise json 21474836487 0 ff6f1d80770bf8fc
3party menu noise csv 1 0 a6f7cf9a96869632
3party menu noise csv 21474836487 0 0162c0ac6715f1af
3party menu guess json 1 2 5acc011023ed2328
3party menu guess json 21474836487 2 132a3682d538f927
3party menu guess csv 1 2 3929ecbfb45af9c2
3party menu guess csv 21474836487 2 d1364aea710f86e2
3party menu fixed json 1 2 c5cf4e99c5c48015
3party menu fixed json 21474836487 2 1c691fab8e163bac
3party menu fixed csv 1 2 c8eb324749b5077d
3party menu fixed csv 21474836487 2 59392b0831b9bc0c
"""


#: Full-size ``ghzkd simulate --method 2 --key-length 4096 --noise-p 0.05
#: --reveal-secret --seed 1`` runs, noise only and with a fixed-angle
#: intercept: extra flags, exit code and sha256 prefix.  The noise and
#: eavesdropper draws read fixed slots of each round's counter-hash streams.
_GOLDEN_FULL_SIZE = (
    ((), 0, "4bf27e03ab1a4339"),
    (("--eve", "intercept-a", "--eve-angle", "1.234"), 2, "bef9a5284630fdee"),
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
1 menu none json 1 0 8b0aaa9143697872
1 menu none json 21474836487 0 6ca4d4c5c8533571
1 menu none csv 1 0 f4e0d0e4e531a6b4
1 menu none csv 21474836487 0 1f9b52482d2ed833
1 menu noise json 1 0 40baa543a48a57ab
1 menu noise json 21474836487 0 c44088a7af574fc9
1 menu noise csv 1 0 e2118317254cecd5
1 menu noise csv 21474836487 0 be0f3ea083918488
1 menu guess json 1 2 d674ce1c19e857d7
1 menu guess json 21474836487 2 20e579d0f02eb843
1 menu guess csv 1 2 87b298cb07593d2a
1 menu guess csv 21474836487 2 68cbb68ee3e53675
1 menu fixed json 1 2 a1c052f6c7d02af8
1 menu fixed json 21474836487 2 a8656450aadb09b9
1 menu fixed csv 1 2 ef019e03bec09967
1 menu fixed csv 21474836487 2 a30bc04af5932598
2 - none json 1 0 27e22737dabd3435
2 - none json 21474836487 0 241b014c04f8435c
2 - none csv 1 0 b445d3fe8056416c
2 - none csv 21474836487 0 adedef8d9ab7b076
2 - noise json 1 0 a20bd2f07da55968
2 - noise json 21474836487 0 0222748388e5301b
2 - noise csv 1 0 55e534d54bb86866
2 - noise csv 21474836487 0 6df7b88c60c88a2c
2 - guess json 1 1 e3b0c44298fc1c14
2 - guess json 21474836487 1 e3b0c44298fc1c14
2 - guess csv 1 1 e3b0c44298fc1c14
2 - guess csv 21474836487 1 e3b0c44298fc1c14
2 - fixed json 1 2 e86274f58822a7b6
2 - fixed json 21474836487 2 3f291c8f7f746ef6
2 - fixed csv 1 2 6cb737853e3efd75
2 - fixed csv 21474836487 2 6799cc834708892e
2 menu none json 1 0 27e22737dabd3435
2 menu none json 21474836487 0 241b014c04f8435c
2 menu none csv 1 0 b445d3fe8056416c
2 menu none csv 21474836487 0 adedef8d9ab7b076
2 menu noise json 1 0 a20bd2f07da55968
2 menu noise json 21474836487 0 0222748388e5301b
2 menu noise csv 1 0 55e534d54bb86866
2 menu noise csv 21474836487 0 6df7b88c60c88a2c
2 menu guess json 1 2 a52b2a825f99e71c
2 menu guess json 21474836487 2 cc6815a2a627c76d
2 menu guess csv 1 2 eb49368706aa8937
2 menu guess csv 21474836487 2 faf55a71f3bebb91
2 menu fixed json 1 2 e86274f58822a7b6
2 menu fixed json 21474836487 2 3f291c8f7f746ef6
2 menu fixed csv 1 2 6cb737853e3efd75
2 menu fixed csv 21474836487 2 6799cc834708892e
3party - none json 1 0 2489d4f1fd812b53
3party - none json 21474836487 0 1d09a5490e390d44
3party - none csv 1 0 abbc69026f8b0441
3party - none csv 21474836487 0 8288e167ad7e3d6a
3party - noise json 1 0 ecc867e9e6d70d44
3party - noise json 21474836487 0 90d565170b350332
3party - noise csv 1 0 5561b1eb095d76f1
3party - noise csv 21474836487 0 24b676e4c2fe351e
3party - guess json 1 1 e3b0c44298fc1c14
3party - guess json 21474836487 1 e3b0c44298fc1c14
3party - guess csv 1 1 e3b0c44298fc1c14
3party - guess csv 21474836487 1 e3b0c44298fc1c14
3party - fixed json 1 2 90d983256cf24656
3party - fixed json 21474836487 2 c0a802a8de2ad632
3party - fixed csv 1 2 365d7cf48e03e748
3party - fixed csv 21474836487 2 909078edbd57b2f3
3party menu none json 1 0 d79a30949c91b4ae
3party menu none json 21474836487 0 5f2150d1880ee2b9
3party menu none csv 1 0 d55eb2ab960a9f70
3party menu none csv 21474836487 0 8db5de39c8a83538
3party menu noise json 1 0 e238a020a2ce93bc
3party menu noise json 21474836487 0 b1e80c7b857aca65
3party menu noise csv 1 0 2a75c9ff0acb71c7
3party menu noise csv 21474836487 0 bcbf2e0cbf5c1df4
3party menu guess json 1 2 07506cd48f8d2340
3party menu guess json 21474836487 2 fb53a0ff8d2fbbd7
3party menu guess csv 1 2 03368bbdbf824872
3party menu guess csv 21474836487 2 085b14eb8df815f5
3party menu fixed json 1 2 fe8d64d88e6aebe2
3party menu fixed json 21474836487 2 b73d4775cedf7856
3party menu fixed csv 1 2 2133b6ef9088073e
3party menu fixed csv 21474836487 2 c0ab175e82192b39
"""

#: ``ghzkd simulate --method 3party --key-length 37 --spec ++-,+ --mode pol
#: --parity-preference -1 --seed 5`` per menu (none or 0,pi/2,pi),
#: eavesdropper (none, or an intercept: guessing from the menu when there is
#: one, at angle 1.1 otherwise), format and reveal mode: exit code and sha256
#: prefix of stdout.
_GOLDEN_THREE_PARTY = """
- none json masked 0 4e56a52dd523fe51
- none json revealed 0 218a42a1c6a4f084
- none csv masked 0 cc33a7040fa6fb9a
- none csv revealed 0 b8495688d1df9191
- intercept json masked 2 242d354630b3a994
- intercept json revealed 2 9b1c5a6a1f8ccb36
- intercept csv masked 2 df92e229d2d6350a
- intercept csv revealed 2 bf55f1e667216d7f
menu none json masked 0 8660866d824bbd2b
menu none json revealed 0 78368b7be9d98d93
menu none csv masked 0 301b06c6e42d1f37
menu none csv revealed 0 500bf9e20ccef5c9
menu intercept json masked 2 947db58de3bc0474
menu intercept json revealed 2 b453142d5e71aa0c
menu intercept csv masked 2 04a5a15e8e62ec8b
menu intercept csv revealed 2 8a0f58e1c6b430a8
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
    # The pinned digests read stdout; --output must write the same chunks,
    # whether the file is new or holds more or fewer bytes than the output.
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
        for name, earlier in (("new", None), ("longer", len(stdout) + 4097), ("shorter", len(stdout) // 2)):
            path = tmp_path / f"out{i}-{name}"
            if earlier is not None:
                path.write_bytes(b"x" * earlier)
            assert main([*argv, "--output", str(path)]) == code
            assert path.read_bytes() == stdout

    # The last case again, written through a symlink: the link stays a link
    # to the same file, which keeps its mode.
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"x" * (len(stdout) + 4097))
    target.chmod(0o640)
    link.symlink_to(target)
    before = target.stat()
    assert main([*argv, "--output", str(link)]) == code
    after = target.stat()
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
    assert target.read_bytes() == stdout


@pytest.mark.skipif(
    not (os.path.exists(os.devnull) and stat.S_ISCHR(os.stat(os.devnull).st_mode)),
    reason="os.devnull is not a character device",
)
def test_output_to_a_character_device():
    # Only a regular file is cut to length after writing: ftruncate fails on a device.
    simulate = ["simulate", "--method", "1", "--menu", "0,pi/2,pi", "--key-length", "64", "--seed", "1"]
    sweep = ["sweep", "--variable", "noise-p", "--seed", "1", "--mc-rounds", "50"]
    for argv in (simulate, sweep):
        assert main([*argv, "--output", os.devnull]) == EXIT_CLEAN


def test_key_exhausted_run_keeps_existing_output(tmp_path, capsys):
    kept = tmp_path / "kept.json"
    kept.write_text("earlier run\n")
    argv = ["simulate", "--method", "1", "--menu", "0,pi/2,pi", "--key-length", "64", "--rounds", "64", "--seed", "1"]
    assert main([*argv, "--output", str(kept)]) == EXIT_ERROR
    assert "key bits placed" in capsys.readouterr().err
    assert kept.read_text() == "earlier run\n"
