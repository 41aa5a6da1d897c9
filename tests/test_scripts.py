import csv
import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

from dissipative_spins import cli

ROOT = Path(__file__).resolve().parents[1]


def test_phase_diagram_reproduces_the_paper_through_dspin(tmp_path, monkeypatch):
    # the paper's result end to end, in process so that pytest's RuntimeWarning
    # filter reaches it: XY order below 1/2, staggered order above 3/2
    out_dir = tmp_path / "pd"
    monkeypatch.setattr(sys, "argv", ["phase_diagram.py", "--out-dir", str(out_dir)])
    runpy.run_path(str(ROOT / "scripts" / "phase_diagram.py"), run_name="__main__")
    summary = json.loads((out_dir / "phase_diagram.json").read_text())
    assert abs(summary["lambda_c1"] - 0.5) < 0.01
    assert abs(summary["lambda_c2"] - 1.5) < 0.01
    # u2 changes sign once in each direction, next to the fitted transition
    with open(out_dir / "landau_scan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for direction, lam_c in (("in-plane", summary["lambda_c1"]), ("staggered-z", summary["lambda_c2"])):
        scan = [(float(r["lambda"]), float(r["u2"])) for r in rows if r["direction"] == direction]
        assert len(scan) == 11  # step 0.02 across a window of 0.2
        changes = [[l1, l2] for (l1, a), (l2, b) in zip(scan, scan[1:]) if a * b < 0]
        assert summary["u2_sign_changes"][direction] == changes
        [(l1, l2)] = changes
        assert abs((l1 + l2) / 2 - lam_c) < 0.02
    # the script only drives dspin: its sweep is the CLI's, byte for byte
    direct = tmp_path / "direct.csv"
    assert cli.main(["sweep", "--lambda-min", "0.3", "--lambda-max", "0.7", "--step", "0.01",
                     "--seed", "0", "--out", str(direct)]) == 0
    assert (out_dir / "sweep_xy.csv").read_bytes() == direct.read_bytes()


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
    # times the two liouville calls it makes, warm, and a first steady_states call
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
    assert sorted(point) == ["json_sha256", "lambda", "n", "ring_liouvillian_ms", "steady_states_first_ms",
                             "steady_states_ms"]
    assert point["ring_liouvillian_ms"] > 0 and point["steady_states_ms"] > 0 and point["steady_states_first_ms"] > 0


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
