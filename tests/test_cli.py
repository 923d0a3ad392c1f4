"""Command-line contract: exit codes, determinism, redaction, output formats."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from ghzkd.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_EVE_DETECTED, main, parse_angle


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

    code, _ = _run(tmp_path, "menu-eval", "--menu", "0,0,pi", name="m4.txt")
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


def test_simulate_output_bytes_are_pinned(capsys):
    cases = []
    for line in _GOLDEN.strip().splitlines():
        method, menu, adversary, fmt, seed, code, digest = line.split()
        argv = ["simulate", "--method", method, "--format", fmt, "--seed", seed]
        argv += ["--key-length", "64", "--reveal-secret"]
        argv += ["--menu", "0,pi/2,pi"] if menu == "menu" else []
        argv += _GOLDEN_ADVERSARIES[adversary]
        cases.append((argv, int(code), digest))
    full_size = ["simulate", "--method", "2", "--key-length", "4096", "--noise-p", "0.05", "--reveal-secret"]
    for extra, code, digest in _GOLDEN_FULL_SIZE:
        cases.append(([*full_size, "--seed", "1", *extra], code, digest))
    mismatches = []
    for argv, code, digest in cases:
        got_code = main(argv)
        got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
        if (got_code, got) != (code, digest):
            mismatches.append(" ".join(argv))
    assert not mismatches


#: ``ghzkd sweep --mc-rounds 200`` per variable, ``--noise-p``, menu (none or
#: 0,pi/2,pi), phases (default or pi/3,pi/6,3pi/2) and seed: exit code and
#: sha256 prefix of stdout, recorded with the one-state-at-a-time oracle.
#: The rows pin the exact column and the menu-summary comment lines.
_GOLDEN_SWEEP = """
eve-angle 0 - - 1 0 a155f802e30b9f5d
eve-angle 0 - - 21474836487 0 4a7eb8fceb3b637b
eve-angle 0 - explicit 1 0 81171d9792834176
eve-angle 0 - explicit 21474836487 0 1ce2b78bad08f3f9
eve-angle 0 menu - 1 0 2aa243a6ee530d50
eve-angle 0 menu - 21474836487 0 ae7519be5c60ae9a
eve-angle 0 menu explicit 1 0 e937209338edb7ce
eve-angle 0 menu explicit 21474836487 0 393766deda1fff34
eve-angle 0.1 - - 1 0 11a01267badd0f90
eve-angle 0.1 - - 21474836487 0 7b7da52a143403d9
eve-angle 0.1 - explicit 1 0 db79d0a4ae7f4d8a
eve-angle 0.1 - explicit 21474836487 0 2a1ee46eff89ad5d
eve-angle 0.1 menu - 1 0 d0506c3b387dd2be
eve-angle 0.1 menu - 21474836487 0 6402c863eeb60162
eve-angle 0.1 menu explicit 1 0 c22694dbde6db192
eve-angle 0.1 menu explicit 21474836487 0 044f5d20991b8d50
noise-p 0 - - 1 0 a20d0d9d32e1b4fa
noise-p 0 - - 21474836487 0 b65069d2caf99ca9
noise-p 0 - explicit 1 0 1180e6f1d421232e
noise-p 0 - explicit 21474836487 0 45e9cab687e001cf
noise-p 0 menu - 1 0 597818b2e162cdb1
noise-p 0 menu - 21474836487 0 768f2b66ea31f663
noise-p 0 menu explicit 1 0 f04d6fc61e859cd3
noise-p 0 menu explicit 21474836487 0 9539cd4a596c1366
noise-p 0.1 - - 1 0 a20d0d9d32e1b4fa
noise-p 0.1 - - 21474836487 0 b65069d2caf99ca9
noise-p 0.1 - explicit 1 0 1180e6f1d421232e
noise-p 0.1 - explicit 21474836487 0 45e9cab687e001cf
noise-p 0.1 menu - 1 0 7b8deb95000bc331
noise-p 0.1 menu - 21474836487 0 e31759af97d6b7ae
noise-p 0.1 menu explicit 1 0 68df967f1a6d334c
noise-p 0.1 menu explicit 21474836487 0 a7713627fc076d03
"""


def test_sweep_output_bytes_are_pinned(capsys):
    mismatches = []
    for line in _GOLDEN_SWEEP.strip().splitlines():
        variable, noise_p, menu, phases, seed, code, digest = line.split()
        argv = ["sweep", "--variable", variable, "--noise-p", noise_p, "--seed", seed, "--mc-rounds", "200"]
        argv += ["--menu", "0,pi/2,pi"] if menu == "menu" else []
        argv += ["--phases", "pi/3,pi/6,3pi/2"] if phases == "explicit" else []
        got_code = main(argv)
        got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
        if (got_code, got) != (int(code), digest):
            mismatches.append(" ".join(argv))
    assert not mismatches
