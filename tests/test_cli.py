"""Command-line contract: exit codes, determinism, redaction, output formats."""

import json
import math

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
    capsys.readouterr()


def test_stdout_when_no_output_path(capsys):
    code = main(["expectation", "--phases", "0,0,0"])
    assert code == EXIT_CLEAN
    assert "analytic = -1" in capsys.readouterr().out
