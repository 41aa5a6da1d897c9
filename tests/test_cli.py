import concurrent.futures
import io
import json
import subprocess
import sys

import numpy as np
import pytest

import dissipative_spins
from dissipative_spins import cli, effective, liouville, variational
from dissipative_spins.cli import CSV_HEADER, main, read_sweep_csv
from dissipative_spins.liouville import (
    Liouvillian,
    build_liouvillian,
    ring_liouvillian,
)
from dissipative_spins.models import LatticeSpec
from dissipative_spins.opformat import OperatorFormatError, parse_problem_text

BELL_PROBLEM = """
[sites]
n = 2
aux = 1
[V+]
0.025 0 0:uu 1:+
0.025 0 0:ud 1:+
-0.025 0 0:du 1:+
-0.025 0 0:dd 1:+
[jump]
rate = 1.0
1 0 1:-
[P_e]
1 0 1:uu
"""


def run(argv):
    return main(argv)


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "s.csv"
    code = run([
        "sweep", "--lambda-min", "0.3", "--lambda-max", "0.34",
        "--step", "0.02", "--no-refine", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4  # 0.3, 0.32, 0.34
    recs = read_sweep_csv(out.read_text())
    assert [r.lam for r in recs] == [0.3, 0.32, 0.34]
    assert all(r.converged for r in recs)
    # XY-ordered region: in-plane moment, no staggered component
    assert recs[0].m > 0.1
    assert recs[0].m_s == 0.0


def test_sweep_deterministic_across_jobs(tmp_path):
    args = ["sweep", "--lambda-min", "0.4", "--lambda-max", "0.42",
            "--step", "0.01", "--no-refine", "--seed", "7"]
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert run(args + ["--jobs", "2", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_sweep_empty_range(tmp_path, capsys):
    assert run(["sweep", "--lambda-min", "0.6", "--lambda-max", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == CSV_HEADER


def test_sweep_refinement_adds_points(tmp_path):
    out = tmp_path / "r.csv"
    # coarse grid straddles the XY transition; refinement should fill in
    code = run([
        "sweep", "--lambda-min", "0.44", "--lambda-max", "0.56",
        "--step", "0.04", "--out", str(out),
    ])
    assert code == 0
    recs = read_sweep_csv(out.read_text())
    assert len(recs) > 4  # more than the bare 0.44/0.48/0.52/0.56 grid
    lams = np.array([r.lam for r in recs])
    assert lams.min() >= 0.44 - 1e-12 and lams.max() <= 0.56 + 1e-12
    assert (np.diff(np.sort(lams)) > 1e-12).all()  # no duplicates
    # fine spacing present near the onset
    assert np.diff(np.sort(lams)).min() == pytest.approx(0.004, abs=1e-9)


def test_sweep_resource_cap(capsys):
    # a billion grid points are refused before any grid is built
    assert run(["sweep", "--lambda-min", "0", "--lambda-max", "1",
                "--step", "1e-9"]) == 3
    assert "cap" in capsys.readouterr().err
    assert run(["sweep", "--lambda-min", "0", "--lambda-max", "inf"]) == 3


def refuse(*args, **kwargs):
    raise AssertionError("a capped input reached the library")


def test_sweep_restarts_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "sweep", refuse)
    assert run(["sweep", "--lambda-min", "1.0", "--lambda-max", "1.0",
                "--restarts", str(cli.MAX_RESTARTS + 1)]) == 3
    assert "cap" in capsys.readouterr().err


def test_sweep_work_cap(capsys, monkeypatch):
    # grid points x restarts, the refinement counted at its worst (101 more
    # points a bracket), is refused before any grid is minimized
    assert (cli.MAX_SWEEP_WORK, cli.MAX_RESTARTS, cli.REFINED_POINTS) == (1_000_000, 1_000, 101)
    monkeypatch.setattr(cli, "sweep", refuse)
    restarts = ["--lambda-min", "0", "--restarts", "1000"]
    # 11 points refine to at most 11 + 101 * 10: 1,021,000 simplices
    assert run(["sweep", *restarts, "--lambda-max", "1", "--step", "0.1"]) == 3
    assert "work cap" in capsys.readouterr().err
    # 1,001 points without refinement: 1,001,000
    assert run(["sweep", *restarts, "--lambda-max", "1", "--step", "0.001", "--no-refine"]) == 3
    assert "work cap" in capsys.readouterr().err
    # at the ceiling the sweep is called: 10 points refine to at most 919
    # (919,000), and 1,000 points unrefined are 1,000,000
    calls = []
    monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: calls.append(args) or [])
    assert run(["sweep", *restarts, "--lambda-max", "0.9", "--step", "0.1"]) == 0
    assert run(["sweep", *restarts, "--lambda-max", "0.999", "--step", "0.001", "--no-refine"]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("option", ["--restarts=0", "--jobs=0", "--jobs=-3"])
def test_sweep_refuses_fewer_than_one_restart_or_job(capsys, option):
    assert run(["sweep", "--lambda-min", "0.4", "--lambda-max", "0.42", option]) == 1
    assert "must be at least 1" in capsys.readouterr().err


def test_sweep_clamps_workers(tmp_path, monkeypatch):
    seen = []

    class InlinePool:
        """Stands in for the process pool and runs every task in-process."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    # sweep imports the pool where it starts one, so the stand-in goes on its module
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(variational.os, "cpu_count", lambda: 8)
    out = tmp_path / "s.csv"
    assert run(["sweep", "--lambda-min", "1.0", "--lambda-max", "1.04",
                "--step", "0.02", "--no-refine", "--jobs", "64",
                "--out", str(out)]) == 0
    assert seen == [3]  # one worker per grid point, not 64
    assert len(read_sweep_csv(out.read_text())) == 3


def test_sweep_z_flag_sets_the_lattice(tmp_path):
    out = tmp_path / "s.csv"
    code = run([
        "sweep", "--z", "4", "--ansatz", "uniform", "--renormalize", "on",
        "--lambda-min", "1.0", "--lambda-max", "1.0", "--no-refine", "--out", str(out),
    ])
    assert code == 0
    rec = read_sweep_csv(out.read_text())[0]
    # disordered norm (lambda + 1/2)/(z-1) pins that z came from the flag
    assert rec.norm == pytest.approx(1.5 / 3, abs=1e-8)


@pytest.mark.parametrize("extra", [
    ["--no-such-flag"],
    ["--config", "x"],
    ["--threshold", "1e-4"],
    ["--step", "abc"],
], ids=["unknown-flag", "config", "threshold", "bad-value"])
def test_usage_errors_exit_1(capsys, monkeypatch, extra):
    # every input is a flag: a removed or unknown one, or a value argparse
    # cannot read, is a malformed input and exits 1, never 2 (a fit failure)
    monkeypatch.setattr(cli, "sweep", refuse)
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--lambda-min", "0.4", "--lambda-max", "0.42", *extra])
    assert exc.value.code == 1
    assert "usage: dspin" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", [["nan", "1"], ["0.4", "nan"], ["nan", "nan"], ["inf", "inf"]])
def test_sweep_refuses_a_nan_span(capsys, monkeypatch, bounds):
    # a NaN lambda_max - lambda_min counted 0 points and printed a header-only CSV with exit 0
    monkeypatch.setattr(cli, "sweep", refuse)
    assert run(["sweep", "--lambda-min", bounds[0], "--lambda-max", bounds[1]]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "NaN" in out.err


@pytest.mark.parametrize("step", ["inf", "nan", "0", "-0.01"])
def test_sweep_refuses_a_step_that_is_not_finite_and_positive(capsys, monkeypatch, step):
    # --step inf built the grid [nan] and exited 1 blaming "rate lambda=nan"
    monkeypatch.setattr(cli, "sweep", refuse)
    assert run(["sweep", "--lambda-min", "0.4", "--lambda-max", "0.5", "--step", step]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"dspin sweep: step must be finite and positive, not {float(step)}\n"


@pytest.mark.parametrize("command, flag", [
    (["fit"], "--in"),
    (["oracle", "--n", "2"], "--out"),
    (["effective"], "--problem"),
])
def test_a_directory_path_is_an_input_error(tmp_path, command, flag):
    # reading or writing a directory is an OSError like a missing file: exit 1, one line
    proc = subprocess.run(
        [sys.executable, "-m", "dissipative_spins.cli", *command, flag, str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"dspin {command[0]}: ")


def test_fit_roundtrip(tmp_path):
    sweep_out = tmp_path / "s.csv"
    fit_out = tmp_path / "f.json"
    assert run([
        "sweep", "--lambda-min", "0.42", "--lambda-max", "0.58",
        "--step", "0.01", "--out", str(sweep_out),
    ]) == 0
    assert run([
        "fit", "--in", str(sweep_out), "--which", "m",
        "--window", "0.005,0.06", "--out", str(fit_out),
    ]) == 0
    fit = json.loads(fit_out.read_text())
    assert fit["which"] == "m"
    assert abs(fit["lambda_c"] - 0.5) < 0.01
    assert 0.3 < fit["beta"] < 0.7
    assert fit["window"][0] >= 0.42


def test_fit_without_transition(tmp_path):
    sweep_out = tmp_path / "s.csv"
    assert run([
        "sweep", "--lambda-min", "0.9", "--lambda-max", "1.0",
        "--step", "0.02", "--no-refine", "--out", str(sweep_out),
    ]) == 0
    assert run(["fit", "--in", str(sweep_out)]) == 2


def test_fit_rejects_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    for text in ("lambda,m\n0.3,0.1\n", "", "\n  \n"):  # a foreign header, no rows at all
        bad.write_text(text)
        assert run(["fit", "--in", str(bad)]) == 1
        with pytest.raises(OperatorFormatError):
            read_sweep_csv(bad.read_text())


def test_fit_reads_stdin(tmp_path, capsys, monkeypatch):
    # '--in -' reads the same CSV from stdin that a file gives
    rows = [f"{lam:.3f},{m:.6f},0,0,{m:.6f},0,0,{m:.6f},0,0.1,1,8" for lam, m in (
        (lam, 0.4 * max(0.0, 0.5 - lam) ** 0.5) for lam in np.arange(0.30, 0.701, 0.005))]
    text = "\n".join([CSV_HEADER, *rows]) + "\n"
    (tmp_path / "s.csv").write_text(text)
    assert run(["fit", "--in", str(tmp_path / "s.csv")]) == 0
    from_file = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(["fit", "--in", "-"]) == 0
    assert capsys.readouterr().out == from_file
    assert json.loads(from_file)["lambda_c"] == pytest.approx(0.5, abs=1e-3)
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert run(["fit"]) == 1  # stdin is the default input
    assert capsys.readouterr().err == "dspin fit: empty sweep CSV\n"


@pytest.mark.parametrize("window", ["0.05", "0.01,0.05,0.1", "0,0.1", "-0.01,0.1", "0.1,0.01", "0.1,0.1"])
def test_fit_refuses_a_window_that_is_not_lo_hi(tmp_path, capsys, window):
    # a usage error, exit 1, before any CSV is read
    with pytest.raises(SystemExit) as exc:
        run(["fit", "--in", str(tmp_path / "missing.csv"), f"--window={window}"])
    assert exc.value.code == 1
    assert "window must" in capsys.readouterr().err


_ROW = "0.5,0.1,0,0.2,0.1,0,0.2,0.1,0,0.25"


@pytest.mark.parametrize("row", [
    *(f"{_ROW},{bad},8" for bad in ("inf", "nan", "1.5", "2", "-1", "1e0")),
    *(f"{_ROW},1,{bad}" for bad in ("inf", "-inf", "nan", "1.5", "0")),
    # lambda is a rate, m and ms lengths inside the Bloch ball
    "-0.5" + _ROW[3:] + ",1,8",
    *(_ROW.replace(",0.1,0,0.25", f",{m},{ms},0.25") + ",1,8"
      for m, ms in (("1e200", "0"), ("-0.1", "0"), ("0.1", "1.01"), ("0.1", "-1e-3"))),
    "nan" + _ROW[3:] + ",1,8",
    _ROW[:-4] + "inf,1,8",
])
def test_fit_refuses_a_bad_field_with_its_line(tmp_path, capsys, row):
    # converged and restarts are integers (converged 0 or 1), every other field finite
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{CSV_HEADER}\n{_ROW},1,8\n{row}\n")
    assert run(["fit", "--in", str(bad)]) == 1
    assert "line 3" in capsys.readouterr().err
    with pytest.raises(OperatorFormatError) as err:
        read_sweep_csv(bad.read_text())
    assert err.value.line == 3


def test_fit_refuses_a_repeated_lambda_at_its_line(tmp_path, capsys):
    # a sweep writes each lambda once; a second row at one would move the fit
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{CSV_HEADER}\n{_ROW},1,8\n0.6{_ROW[3:]},1,8\n{_ROW[:-4]}0.9,1,8\n")
    assert run(["fit", "--in", str(bad)]) == 1
    assert capsys.readouterr().err == "dspin fit: line 4: lambda 0.5 repeats line 2\n"


def test_fit_counts_blank_lines_in_its_line_numbers(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"\n{CSV_HEADER}\n\n{_ROW},1,8\n\n{_ROW},2,8\n")
    assert run(["fit", "--in", str(bad)]) == 1
    assert "line 6" in capsys.readouterr().err


def test_sweep_csv_reads_back_unchanged():
    records = variational.sweep(0.48, 0.52, 0.02, LatticeSpec(z=6), "uniform", restarts=2, seed=1)
    text = cli.format_sweep_csv(records)
    again = read_sweep_csv(text)
    assert [r.restarts_used for r in again] == [2] * len(records)
    assert cli.format_sweep_csv(again) == text


def test_landau_json(capsys):
    assert run(["landau", "--lambda", "0.3", "--direction", "in-plane"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["direction"] == "in-plane"
    assert out["u2"] < 0
    assert set(out) >= {"lambda", "u0", "u2", "u4", "residual", "converged", "stationarity"}
    assert out["converged"] is True
    assert 0.0 <= out["stationarity"] <= 1e-7


@pytest.mark.parametrize("argv", [["landau", "--lambda", "1.0"], ["oracle", "--n", "2"]])
def test_only_sweep_takes_an_ansatz(capsys, argv):
    # landau and oracle fix their own families; an --ansatz there is a usage error
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--ansatz", "bipartite"])
    assert exc.value.code == 1
    assert "--ansatz" in capsys.readouterr().err


def test_landau_bad_samples():
    assert run(["landau", "--lambda", "1.0", "--samples", "3"]) == 1


def test_landau_phi_max_outside_the_ball(capsys):
    # |phi_max| > 1 or non-finite is an input error; a zero window a fit failure
    for phi_max in ("5", "-1.5", "nan", "inf"):
        assert run(["landau", "--lambda", "1.0", "--phi-max", phi_max]) == 1
        assert "phi_max" in capsys.readouterr().err
    assert run(["landau", "--lambda", "1.0", "--phi-max", "0"]) == 2


def test_non_finite_lambda_is_refused(capsys):
    for lam in ("nan", "inf"):
        assert run(["landau", "--lambda", lam]) == 1
        assert "lambda" in capsys.readouterr().err
        assert run(["oracle", "--n", "2", "--lambda", lam]) == 1
        assert "lambda" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--lambda-min", "0.4", "--lambda-max", "0.4", "--z", "100000000000000000000"],
    ["landau", "--z", "100000000000000000000"],
    ["oracle", "--z", "100000000000000000000"],
    ["sweep", "--lambda-min", "1e308", "--lambda-max", "1e308"],
    ["sweep", "--lambda-min", "0.4", "--lambda-max", "1e101", "--step", "1e101"],
    ["landau", "--lambda", "1e308"],
    ["oracle", "--n", "3", "--lambda", "1e308"],
    ["oracle", "--n", "3", "--lambda", "1e101"],
])
def test_model_flags_past_their_range_are_refused(capsys, monkeypatch, argv):
    # z past numpy's int64 ended in a TypeError, lambda = 1e308 in an
    # OverflowError (sweep), Infinity with exit 0 (landau) or a RuntimeWarning
    # (oracle); lambda above MAX_RATE = 1e100 is refused before any minimization
    monkeypatch.setattr(variational, "_sweep_chunk", refuse)
    assert run(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"dspin {argv[0]}: ") and out.err.count("\n") == 1
    assert ("z=" if "--z" in argv else "rate lambda=") in out.err


def test_model_flags_at_their_bounds_run(capsys):
    # the largest z and rate each run; together (z - 1) lambda = 9.2e118
    for argv in (["oracle", "--n", "2", "--lambda", "1e100"],
                 ["landau", "--lambda", "1e100", "--z", str(2**63 - 1), "--renormalize", "off"]):
        assert run(argv) == 0
        assert capsys.readouterr().err == ""


def test_landau_samples_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "landau_expansion", refuse)
    assert run(["landau", "--lambda", "1.0",
                "--samples", str(cli.MAX_LANDAU_SAMPLES + 1)]) == 3
    assert "cap" in capsys.readouterr().err


def test_effective_output(tmp_path, capsys):
    prob = tmp_path / "p.prob"
    prob.write_text(BELL_PROBLEM)
    assert run(["effective", "--problem", str(prob)]) == 0
    text = capsys.readouterr().out
    assert "[H_eff]" in text and "[c_eff 0]" in text
    # purely dissipative: no Hamiltonian terms emitted
    assert text.split("[c_eff 0]")[0].strip() == "[H_eff]"


def test_effective_validate(tmp_path, capsys):
    prob = tmp_path / "p.prob"
    prob.write_text(BELL_PROBLEM)
    assert run(["effective", "--problem", str(prob), "--validate",
                "--t-max", "10"]) == 0
    text = capsys.readouterr().out
    line = [ln for ln in text.splitlines() if ln.startswith("error =")][0]
    assert float(line.partition("=")[2]) < 0.05


@pytest.mark.parametrize("validate", [[], ["--validate", "--t-max", "1"]], ids=["plain", "validate"])
@pytest.mark.parametrize("old, new, at", [
    ("0.025 0 0:uu 1:+", "1e308 0 0:x 1:+\n1e308 0 0:x 1:+", "1e308"),
    ("1 0 1:-", "1e308 0 1:-", "[jump]"),
], ids=["sum", "folded-jump"])
def test_effective_refuses_an_overflowing_operator_at_its_line(tmp_path, capsys, validate, old, new, at):
    # the second 1e308 term sums to inf, and 1e308 under rate 4 folds to inf:
    # each is refused as input, at its term or its [jump] header
    text = BELL_PROBLEM.replace(old, new).replace("rate = 1.0", "rate = 4.0")
    prob = tmp_path / "p.prob"
    prob.write_text(text)
    line = [k for k, ln in enumerate(text.splitlines(), 1) if ln.startswith(at)][-1]
    assert run(["effective", "--problem", str(prob), *validate]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"dspin effective: line {line}: ") and err.count("\n") == 1


@pytest.mark.parametrize("old, new, message, validate", [
    ("[P_e]", "[H_g]\n1e308 0 0:z\n[H_e]\n1e308 0 0:z\n[P_e]", "H_g + H_e + V+ + V- overflows", False),
    ("[P_e]", "[H_g]\n1e308 0 0:z\n[H_e]\n1e308 0 0:z\n[P_e]", "H_g + H_e + V+ + V- overflows", True),
    ("1 0 1:uu", "1e308 0 1:uu", "p_excited must be an orthogonal projector", False),
    ("1 0 1:uu", "1e308 0 1:uu", "p_excited must be an orthogonal projector", True),
    ("1 0 1:-", "1e154 0 1:-", "the elimination leaves the float range", False),
], ids=["hamiltonian", "hamiltonian-validate", "projector", "projector-validate", "elimination"])
def test_effective_refuses_finite_operators_that_overflow(tmp_path, capsys, old, new, message, validate):
    # each operator is finite, but the Hamiltonian's sum, the projector test or
    # c^dag c (4e308 at rate 4) is not: exit 1 with one line, and no warning
    text = BELL_PROBLEM.replace(old, new).replace("rate = 1.0", "rate = 4.0")
    prob = tmp_path / "p.prob"
    prob.write_text(text)
    assert run(["effective", "--problem", str(prob)] + ["--validate", "--t-max", "1"] * validate) == 1
    err = capsys.readouterr().err
    assert err.startswith("dspin effective: ") and message in err and err.count("\n") == 1


def test_effective_validation_work_past_the_float_range_meets_the_cap(tmp_path, capsys):
    # rate 1e308 leaves the jump finite (1e154) but its squared norm, and so the work, infinite
    prob = tmp_path / "p.prob"
    prob.write_text(BELL_PROBLEM.replace("rate = 1.0", "rate = 1e308"))
    assert run(["effective", "--problem", str(prob), "--validate", "--t-max", "1"]) == 3
    assert "validation work inf exceeds the cap" in capsys.readouterr().err


def test_effective_validates_a_subnormal_entry(tmp_path, capsys):
    # a subnormal entry of L warns nowhere in the propagation, and the
    # error reported is that of the problem without it
    errors = []
    for p_e in ("1 0 1:uu", "1 1e-320 1:uu"):
        prob = tmp_path / "p.prob"
        prob.write_text(BELL_PROBLEM.replace("1 0 1:uu", p_e))
        assert run(["effective", "--problem", str(prob), "--validate", "--t-max", "1"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        errors.append([ln for ln in out.out.splitlines() if ln.startswith("error =")])
    assert errors[0] == errors[1]


@pytest.mark.parametrize("t_max", ["inf", "nan", "-5", "0"])
def test_effective_rejects_bad_t_max(tmp_path, t_max):
    prob = tmp_path / "p.prob"
    prob.write_text(BELL_PROBLEM)
    assert run(["effective", "--problem", str(prob), "--validate",
                f"--t-max={t_max}"]) == 1


def test_effective_long_horizon_meets_only_the_work_cap(tmp_path, capsys, monkeypatch):
    # the validation work is the one cap on --t-max: an astronomical horizon is
    # refused with nothing written, a horizon past 2000 with work under the cap runs
    prob, out = tmp_path / "p.prob", tmp_path / "eff.txt"
    prob.write_text(BELL_PROBLEM)
    problem = parse_problem_text(BELL_PROBLEM).problem
    monkeypatch.setattr(cli, "validate_elimination", refuse)
    assert run(["effective", "--problem", str(prob), "--validate", "--t-max", "1e300",
                "--out", str(out)]) == 3
    assert "cap" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.undo()
    horizon = 2100.0
    eff = effective.effective_hamiltonian(problem), effective.effective_jumps(problem)
    assert (cli._validation_work(problem.hamiltonian, problem.jumps, horizon)
            + cli._validation_work(*eff, horizon)) <= cli.MAX_VALIDATION_WORK
    assert run(["effective", "--problem", str(prob), "--validate", "--t-max", "2100",
                "--out", str(out)]) == 0
    assert f"# trace distance at t = {horizon:g}" in out.read_text()


def test_effective_validate_eliminates_once(tmp_path, monkeypatch):
    # --validate checks the printed H_eff and c_eff: one inverse of Htilde each,
    # the same two as a run without it
    calls = []
    invert = effective.invert_on_decaying_manifold

    def counted(*args):
        calls.append(1)
        return invert(*args)

    monkeypatch.setattr(effective, "invert_on_decaying_manifold", counted)
    prob, plain, checked = tmp_path / "p.prob", tmp_path / "plain.txt", tmp_path / "checked.txt"
    prob.write_text(BELL_PROBLEM)
    assert run(["effective", "--problem", str(prob), "--out", str(plain)]) == 0
    assert len(calls) == 2
    assert run(["effective", "--problem", str(prob), "--validate", "--out", str(checked)]) == 0
    assert len(calls) == 4
    assert checked.read_text().startswith(plain.read_text().rstrip("\n") + "\n[validation]\n")


def test_effective_validation_work_cap(tmp_path, capsys, monkeypatch):
    # a decay rate of 1e6 puts t_max ||L|| near 1e8: refused once parsed,
    # before any elimination or propagation, with nothing written
    monkeypatch.setattr(cli, "validate_elimination", refuse)
    monkeypatch.setattr(cli, "effective_hamiltonian", refuse)
    prob, out = tmp_path / "p.prob", tmp_path / "eff.txt"
    prob.write_text(BELL_PROBLEM.replace("rate = 1.0", "rate = 1e6"))
    assert run(["effective", "--problem", str(prob), "--validate", "--out", str(out)]) == 3
    assert "cap" in capsys.readouterr().err
    assert not out.exists()
    # the elimination alone is not capped
    monkeypatch.undo()
    assert run(["effective", "--problem", str(prob), "--out", str(out)]) == 0
    assert "[c_eff 0]" in out.read_text()


def test_validation_work_bounds_the_generator_norm():
    # the work counts steps of t_max B / theta, B a bound on ||L||_2, each of m
    # terms of jumps + 1 products
    rng = np.random.default_rng(3)
    problem = parse_problem_text(BELL_PROBLEM + "[jump]\nrate = 0.3\n1 0 0:z\n").problem
    h = problem.h_ground + problem.h_excited + problem.v_plus + problem.v_minus
    per_step = liouville.TAYLOR_TERMS * (len(problem.jumps) + 1)
    for _ in range(3):
        jumps = tuple(c * (rng.normal() + 1j * rng.normal()) for c in problem.jumps)
        norm = np.linalg.norm(build_liouvillian(h, jumps).matrix, 2)
        work = cli._validation_work(h, jumps, 2.5)
        assert work % per_step == 0
        assert 2.5 * norm / liouville.TAYLOR_THETA <= work / per_step * (1 + 1e-12)


@pytest.mark.parametrize("t_max", [1.0, 12.5, 50.0])
def test_validation_work_counts_the_products_it_admits(t_max, monkeypatch):
    # the generator products of each evolution a validation makes are within
    # the work the cap priced for it: the full one's from the problem, the
    # effective one's from the full-space effective operators
    problem = parse_problem_text(BELL_PROBLEM).problem
    products = {4: 0, 2: 0}  # per dimension: the full space, and the system alone
    apply = liouville.Liouvillian.apply

    def counted(self, rho):
        products[self.dim] += len(self.jumps) + 1
        return apply(self, rho)

    monkeypatch.setattr(liouville.Liouvillian, "apply", counted)
    down = np.diag([0.0, 1.0]).astype(complex)
    h_eff, c_eff = effective.effective_hamiltonian(problem), effective.effective_jumps(problem)
    effective.validate_elimination(problem, h_eff, c_eff, np.eye(2) / 2, down, [1], t_max=t_max)
    assert 0 < products[4] <= cli._validation_work(problem.hamiltonian, problem.jumps, t_max)
    assert 0 < products[2] <= cli._validation_work(h_eff, c_eff, t_max)


def test_effective_validation_work_prices_the_effective_evolution(tmp_path, capsys, monkeypatch):
    # a strong drive makes c_eff = c Htilde^-1 V+ large: the full evolution
    # alone is under the cap, the two together are not, so the run is
    # refused after the elimination, before any propagation, with nothing written
    text = driven_auxiliary_problem(2).replace("0.025", "5")
    problem = parse_problem_text(text).problem
    full = cli._validation_work(problem.hamiltonian, problem.jumps, 50.0)
    eff = cli._validation_work(effective.effective_hamiltonian(problem), effective.effective_jumps(problem), 50.0)
    assert full <= cli.MAX_VALIDATION_WORK < full + eff
    monkeypatch.setattr(cli, "validate_elimination", refuse)
    prob, out = tmp_path / "p.prob", tmp_path / "eff.txt"
    prob.write_text(text)
    assert run(["effective", "--problem", str(prob), "--validate", "--out", str(out)]) == 3
    assert f"validation work {full + eff:.4g} exceeds the cap" in capsys.readouterr().err
    assert not out.exists()


def driven_auxiliary_problem(n):
    """Sites 0..n-2 each driven into one decaying auxiliary, site n - 1."""
    aux = n - 1
    lines = ["[sites]", f"n = {n}", f"aux = {aux}", "[V+]"]
    lines += [f"0.025 0 {s}:x {aux}:+" for s in range(aux)]
    lines += ["[jump]", "rate = 1.0", f"1 0 {aux}:-", "[P_e]", f"1 0 {aux}:uu"]
    return "\n".join(lines) + "\n"


def test_effective_problem_size_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "parse_problem_text", refuse)
    prob = tmp_path / "p.prob"
    # refused from [sites] alone, before any 2^n x 2^n operator is built
    for n in (cli.MAX_PROBLEM_SITES + 1, 40):
        prob.write_text(driven_auxiliary_problem(n))
        assert run(["effective", "--problem", str(prob)]) == 3
        assert "cap" in capsys.readouterr().err
    # the cap itself still runs
    monkeypatch.undo()
    prob.write_text(driven_auxiliary_problem(cli.MAX_PROBLEM_SITES))
    assert run(["effective", "--problem", str(prob)]) == 0
    text = capsys.readouterr().out
    assert "[H_eff]" in text and "[c_eff 0]" in text


def test_effective_jump_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "effective_hamiltonian", refuse)
    prob, out = tmp_path / "p.prob", tmp_path / "eff.txt"
    # cap + 1 sections, refused before any jump operator is built
    prob.write_text(BELL_PROBLEM + "[jump]\n1 0 1:-\n" * cli.MAX_PROBLEM_JUMPS)
    assert run(["effective", "--problem", str(prob), "--out", str(out)]) == 3
    assert "cap" in capsys.readouterr().err
    assert not out.exists()
    # the cap itself still runs
    monkeypatch.undo()
    prob.write_text(BELL_PROBLEM + "[jump]\n1 0 1:-\n" * (cli.MAX_PROBLEM_JUMPS - 1))
    assert run(["effective", "--problem", str(prob), "--out", str(out)]) == 0
    assert f"[c_eff {cli.MAX_PROBLEM_JUMPS - 1}]" in out.read_text()


@pytest.mark.parametrize(
    "old,new,lineno",
    [
        ("0.025 0 0:uu", "nan 0 0:uu", 6),
        ("rate = 1.0", "rate = nan", 11),
        ("rate = 1.0", "rate = inf", 11),
        ("n = 2", "n = two", 3),
        ("aux = 1", "aux = 1 1", 4),
    ],
)
def test_effective_refuses_bad_numbers_at_their_line(tmp_path, capsys, old, new, lineno):
    prob, out = tmp_path / "p.prob", tmp_path / "eff.txt"
    prob.write_text(BELL_PROBLEM.replace(old, new))
    assert run(["effective", "--problem", str(prob), "--out", str(out)]) == 1
    assert f"line {lineno}:" in capsys.readouterr().err
    assert not out.exists()


def test_effective_gapless(tmp_path):
    prob = tmp_path / "p.prob"
    prob.write_text(BELL_PROBLEM.replace("[jump]\nrate = 1.0\n1 0 1:-\n", ""))
    assert run(["effective", "--problem", str(prob)]) == 2


def test_effective_parse_error(tmp_path, capsys):
    prob = tmp_path / "p.prob"
    prob.write_text(BELL_PROBLEM.replace("1:+", "1:!"))
    assert run(["effective", "--problem", str(prob)]) == 1
    assert "line" in capsys.readouterr().err


def test_effective_missing_file():
    assert run(["effective", "--problem", "/nonexistent/x.prob"]) == 1


def test_oracle_json(capsys):
    assert run(["oracle", "--n", "2", "--lambda", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["n", "lambda", "dark_dimension", "max_real_part", "trace_defect",
                         "conjugate_pair_defect", "zero_cut", "largest_zero", "smallest_nonzero",
                         "version", "z", "renormalize"]
    assert out["dark_dimension"] == 9
    assert out["max_real_part"] < 1e-10
    assert out["trace_defect"] < 1e-12
    assert out["conjugate_pair_defect"] == 0.0
    assert out["largest_zero"] <= out["zero_cut"] < out["smallest_nonzero"]
    assert (out["version"], out["z"], out["renormalize"]) == (dissipative_spins.__version__, 6, "on")


def test_oracle_json_carries_its_settings(capsys):
    assert run(["oracle", "--n", "3", "--lambda", "0.5", "--z", "4", "--renormalize", "off"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["n"], out["lambda"], out["z"], out["renormalize"]) == (3, 0.5, 4, "off")


def test_oracle_conjugate_pairs_n5(capsys):
    # lambda = 1.5 holds a defective eigenvalue (-2.4, a 2x2 Jordan block)
    # that eig resolves only to ~sqrt(eps) in each block; the q < 0 sectors
    # are their partners' spectra, so nothing is left to pair
    assert run(["oracle", "--n", "5", "--lambda", "1.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dark_dimension"] == 1
    assert out["conjugate_pair_defect"] == 0.0
    assert out["max_real_part"] < 1e-9
    assert out["trace_defect"] < 1e-12
    assert out["largest_zero"] <= out["zero_cut"] < out["smallest_nonzero"]


@pytest.mark.parametrize("n, lam", [(4, "1e14"), (3, "3e13")])
def test_oracle_stiff_ring_count_is_apart_from_the_cut(capsys, n, lam):
    # pumps 1e13-1e14 times the couplings: the one dark state lies at or
    # below the cut, and every other |eigenvalue| far above it
    assert run(["oracle", "--n", str(n), "--lambda", lam, "--z", "2", "--renormalize", "off"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dark_dimension"] == 1
    assert out["largest_zero"] <= out["zero_cut"] < out["smallest_nonzero"]


@pytest.mark.parametrize("n, lam, dim", [(2, 0.0, 9), (3, 0.7, 1), (4, 0.0, 25), (5, 1.0, 1)])
def test_oracle_forms_no_superoperator(capsys, monkeypatch, n, lam, dim):
    # the sectors are gathered from G and the jumps
    def refuse(self):
        raise AssertionError("the oracle formed the d^2 x d^2 generator")

    monkeypatch.setattr(Liouvillian, "matrix", property(refuse))
    assert run(["oracle", "--n", str(n), "--lambda", str(lam)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dark_dimension"] == dim
    assert out["trace_defect"] < 1e-12


@pytest.mark.parametrize("lam, dim", [(0.0, 49), (1.5, 1)])
def test_oracle_n6(capsys, lam, dim):
    assert run(["oracle", "--n", "6", "--lambda", str(lam)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dark_dimension"] == dim
    assert out["trace_defect"] <= 1e-12
    assert out["max_real_part"] <= 1e-9
    assert out["conjugate_pair_defect"] == 0.0


@pytest.mark.parametrize("z", [10_000_000_000, 2**62])
def test_oracle_dark_count_at_large_z(capsys, z):
    # renormalization scales every rate by 1/(z - 1), and the kernel cut
    # scales with the spectrum: one dark state, as at z = 6
    assert run(["oracle", "--n", "3", "--z", str(z)]) == 0
    assert json.loads(capsys.readouterr().out)["dark_dimension"] == 1


@pytest.mark.parametrize("n, lam", [(3, "1e9"), (2, "1e14"), (4, "1e13"), (5, "1e13")])
def test_oracle_dark_count_on_stiff_rings(capsys, n, lam):
    # the dark state comes out of eigvals near eps r, and the rates of order
    # 1 that the couplings leave (0.3 at n = 2, 0.6 at n = 4) stay rates
    assert run(["oracle", "--n", str(n), "--lambda", lam]) == 0
    assert json.loads(capsys.readouterr().out)["dark_dimension"] == 1


@pytest.mark.parametrize("argv", [["--n", "4", "--lambda", "1e30"], ["--n", "3", "--lambda", "1e100"],
                                  ["--n", "2", "--lambda", "1e20"],
                                  ["--n", "2", "--lambda", "1e20", "--z", "2", "--renormalize", "off"]])
def test_oracle_refuses_a_ring_too_stiff_to_resolve(capsys, argv):
    # there the rounding of the generator passes its rates of order 1: n = 4
    # at 1e30 would read two dark states, n = 3 at 1e100 a real part of 2e84,
    # and n = 2 (z 2, off) at 1e20 has no eigenvalue above -1
    assert run(["oracle"] + argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("dspin oracle: the ring is too stiff to resolve")


def test_oracle_resource_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ring_liouvillian", refuse)
    for n in (7, 8):
        assert run(["oracle", "--n", str(n)]) == 3
        assert "cap" in capsys.readouterr().err


def test_cli_import_leaves_scipy_optimize_unloaded():
    """Start-up loads no scipy module and no process pool.

    No command imports scipy, and the pool is imported only by a sweep
    with more than one worker.
    """
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, dissipative_spins.cli; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout)
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
    assert "concurrent.futures.process" not in loaded
    assert [m for m in loaded if m.split(".")[0] == "multiprocessing"] == []


@pytest.mark.parametrize("command", ["oracle", "effective"])
def test_oracle_loads_no_scipy(tmp_path, command):
    # the sectors and the validation's propagation need numpy alone
    out_path = tmp_path / "out.txt"
    if command == "oracle":
        argv = ["oracle", "--n", "3"]
    else:
        (tmp_path / "p.prob").write_text(BELL_PROBLEM)
        argv = ["effective", "--problem", str(tmp_path / "p.prob"), "--validate", "--t-max", "10"]
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\nfrom dissipative_spins.cli import main\n"
         f"code = main({argv + ['--out', str(out_path)]!r})\n"
         "print(json.dumps([code, sorted(sys.modules)]))"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    code, loaded = json.loads(out.stdout)
    assert code == 0
    text = out_path.read_text()
    if command == "oracle":
        assert json.loads(text)["dark_dimension"] == 1
    else:
        assert 0 <= float(text.split("error = ")[1]) < 1e-2
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_main_dispatches_to_the_current_command(capsys, monkeypatch):
    # the parser is built once and kept; the command is looked up per call,
    # so a function patched after the first call is the one that runs
    assert run(["oracle", "--n", "2", "--lambda", "0"]) == 0
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(cli, "cmd_oracle", lambda args: calls.append(args.n) or 0)
    assert run(["oracle", "--n", "3"]) == 0
    assert calls == [3]
    assert capsys.readouterr().out == ""
    assert cli.build_parser() is cli.build_parser()


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "dissipative_spins.cli", "--help"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    for name in ("sweep", "fit", "landau", "effective", "oracle"):
        assert name in out.stdout
