import csv
import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from dissipative_spins import cli

ROOT = Path(__file__).resolve().parents[1]


def test_landau_scan_finds_staggered_sign_change(tmp_path):
    # a subprocess, so pytest's warning filter does not reach it: a numpy
    # warning fails the script through PYTHONWARNINGS instead
    out = tmp_path / "scan.csv"
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "landau_scan.py"),
         "--direction", "staggered-z", "--step", "0.1", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        u2 = {round(float(row["lambda"]), 9): float(row["u2"])
              for row in csv.DictReader(fh)}
    assert sorted(u2) == [1.4, 1.5, 1.6]
    # the staggered transition lambda_c2 = 3/2 is where u2 turns negative
    assert u2[1.5] > 0 > u2[1.6]


def test_phase_diagram_finds_both_transitions(tmp_path, monkeypatch):
    # the paper's result end to end: XY order below 1/2, staggered above 3/2
    out_dir = tmp_path / "pd"
    monkeypatch.setattr(sys, "argv", ["phase_diagram.py", "--step", "0.02",
                                      "--out-dir", str(out_dir)])
    runpy.run_path(str(ROOT / "scripts" / "phase_diagram.py"), run_name="__main__")
    summary = json.loads((out_dir / "phase_diagram.json").read_text())
    assert abs(summary["lambda_c1"] - 0.5) < 0.01
    assert abs(summary["lambda_c2"] - 1.5) < 0.01
    for name in ("sweep_xy.csv", "sweep_afm.csv"):
        assert cli.read_sweep_csv((out_dir / name).read_text())


def _refuse(*args, **kwargs):
    raise AssertionError("a capped or invalid input reached the library")


@pytest.mark.parametrize("script, argv, code", [
    ("phase_diagram.py", ["--step", "1e-6"], 3),         # 400,001 points a branch
    ("phase_diagram.py", ["--restarts", "5000"], 3),
    ("phase_diagram.py", ["--step", "0"], 1),
    ("phase_diagram.py", ["--z", "1"], 1),
    ("landau_scan.py", ["--samples", "5000"], 3),
    ("landau_scan.py", ["--step", "1e-6"], 3),           # 200,001 points a direction
    ("landau_scan.py", ["--direction", "in-plane", "--step", "1e-5"], 3),
    ("landau_scan.py", ["--step", "0"], 1),
    ("landau_scan.py", ["--z", "1"], 1),
])
def test_script_exits_with_the_cli_code_before_computing(tmp_path, monkeypatch, script, argv, code):
    # both scripts drive dspin through cli.main: its caps and checks apply,
    # and a refused input starts no sweep or fit and leaves no CSV
    monkeypatch.setattr(cli, "sweep", _refuse)
    monkeypatch.setattr(cli, "landau_expansion", _refuse)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script, *argv, *(
        ["--out", "scan.csv"] if script == "landau_scan.py" else ["--out-dir", "results"])])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    assert stop.value.code == code
    assert not list(tmp_path.rglob("*.csv"))


def test_landau_scan_refuses_a_window_outside_the_ball(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["landau_scan.py", "--phi-max", "5", "--out", "scan.csv"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(ROOT / "scripts" / "landau_scan.py"), run_name="__main__")
    assert stop.value.code == 1
    assert "phi_max" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()


def test_bench_counting_child_counts_a_sweep(tmp_path):
    # scripts/bench.py counts the engine's seams in a child process; a
    # renamed seam must fail here, not first when the bench runs
    bench = runpy.run_path(str(ROOT / "scripts" / "bench.py"))
    argv = ["sweep", "--ansatz", "uniform", "--lambda-min", "0.46", "--lambda-max", "0.5",
            "--step", "0.02", "--no-refine", "--seed", "0"]
    counted, plain = tmp_path / "counted.csv", tmp_path / "plain.csv"
    counts = bench["count_run"](ROOT, argv + ["--out", str(counted)])  # SystemExit unless it exits 0
    proc = subprocess.run([sys.executable, "-m", "dissipative_spins.cli", *argv, "--out", str(plain)],
                          env=bench["child_env"](ROOT), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(plain.read_text().splitlines()) == 4  # the header and 3 points
    assert counted.read_bytes() == plain.read_bytes()
    assert sorted(counts) == ["compiles", "derivative_calls", "derivative_rows",
                              "spectra_calls", "spectra_rows", "spectra_s"]
    assert all(value > 0 for value in counts.values()), counts


def test_bench_oracle_child_hashes_the_oracle_json(tmp_path):
    # the oracle key of scripts/bench.py hashes what dspin oracle writes and
    # times the two liouville calls it makes
    bench = runpy.run_path(str(ROOT / "scripts" / "bench.py"))
    timed = bench["time_oracle"](ROOT, [[3, 0.7]], 2)  # SystemExit unless the child exits 0
    out = tmp_path / "oracle.json"
    proc = subprocess.run([sys.executable, "-m", "dissipative_spins.cli", "oracle", "--n", "3",
                           "--lambda", "0.7", "--out", str(out)],
                          env=bench["child_env"](ROOT), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    [point] = timed["points"]
    assert (point["n"], point["lambda"], timed["repeats"]) == (3, 0.7, 2)
    assert point["json_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert sorted(point) == ["json_sha256", "lambda", "n", "ring_liouvillian_ms", "steady_states_ms"]
    assert point["ring_liouvillian_ms"] > 0 and point["steady_states_ms"] > 0


def test_bench_times_a_child_in_reference_units():
    # scripts/bench.py times its sweeps and start-ups with perfbench's
    # reference kernel around a child pinned to one CPU, and unpins itself after
    bench = runpy.run_path(str(ROOT / "scripts" / "bench.py"))
    usable = os.sched_getaffinity(0)
    cpu = max(usable)
    argv = [sys.executable, "-c", "import os, dissipative_spins.cli; print(*os.sched_getaffinity(0))"]
    proc, seconds, in_ref = bench["time_child"](argv, bench["child_env"](ROOT), cpu)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(cpu)]
    assert seconds > 0 and in_ref > 0
    assert os.sched_getaffinity(0) == usable
