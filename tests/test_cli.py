import concurrent.futures
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from dissipative_spins import cli, effective, variational
from dissipative_spins.cli import CSV_HEADER, main, read_sweep_csv
from dissipative_spins.liouville import (
    Liouvillian,
    build_liouvillian,
    conjugate_pair_defect,
    ring_liouvillian,
    steady_states,
)
from dissipative_spins.models import JumpTerm, LatticeSpec, dissipative_heisenberg
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
    bad.write_text("lambda,m\n0.3,0.1\n")
    assert run(["fit", "--in", str(bad)]) == 1
    with pytest.raises(OperatorFormatError):
        read_sweep_csv(bad.read_text())


_ROW = "0.5,0.1,0,0.2,0.1,0,0.2,0.1,0,0.25"


@pytest.mark.parametrize("row", [
    *(f"{_ROW},{bad},8" for bad in ("inf", "nan", "1.5", "2", "-1", "1e0")),
    *(f"{_ROW},1,{bad}" for bad in ("inf", "-inf", "nan", "1.5", "0")),
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
    assert cli._validation_work(problem, horizon) <= cli.MAX_VALIDATION_WORK
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
    # the work is t_max times a bound on ||L||_2, times jumps + 1
    rng = np.random.default_rng(3)
    problem = parse_problem_text(BELL_PROBLEM + "[jump]\nrate = 0.3\n1 0 0:z\n").problem
    h = problem.h_ground + problem.h_excited + problem.v_plus + problem.v_minus
    for _ in range(3):
        jumps = tuple(c * (rng.normal() + 1j * rng.normal()) for c in problem.jumps)
        norm = np.linalg.norm(build_liouvillian(h, jumps).matrix, 2)
        work = cli._validation_work(replace(problem, jumps=jumps), 2.5)
        assert 2.5 * norm * (len(jumps) + 1) <= work * (1 + 1e-12)


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
    assert out["dark_dimension"] == 9
    assert out["max_real_part"] < 1e-10
    assert out["trace_defect"] < 1e-12
    assert out["conjugate_pair_defect"] < 1e-9


def test_oracle_conjugate_pairs_n5(capsys):
    # lambda = 1.5 holds a defective eigenvalue (-2.4, a 2x2 Jordan block)
    # that eig resolves only to ~sqrt(eps) in each block
    assert run(["oracle", "--n", "5", "--lambda", "1.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dark_dimension"] == 1
    assert out["conjugate_pair_defect"] < 1e-9
    assert out["max_real_part"] < 1e-9
    assert out["trace_defect"] < 1e-12


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
    assert out["conjugate_pair_defect"] < 1e-9


def test_conjugate_pair_defect_pairs_opposite_orders():
    # a phase jump diag(1, i) keeps the coherence-order blocks but makes
    # them complex: block q is the conjugate of block -q, not of itself
    heisenberg = dissipative_heisenberg(0.7, LatticeSpec(z=6))
    model = replace(heisenberg, jump_terms=heisenberg.jump_terms
                    + [JumpTerm(1, 0.4 * np.diag([1, 1j]), "phase")])
    blocks = steady_states(ring_liouvillian(model, 3)).blocks
    assert conjugate_pair_defect(blocks, 8) < 1e-12
    assert max(np.abs(b.eigenvalues.conj()[:, None] - b.eigenvalues).min(axis=1).max()
               for b in blocks) > 0.1


def test_oracle_resource_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ring_liouvillian", refuse)
    for n in (7, 8):
        assert run(["oracle", "--n", str(n)]) == 3
        assert "cap" in capsys.readouterr().err


def test_cli_import_leaves_scipy_optimize_unloaded():
    """Start-up loads no scipy module and no process pool.

    scipy is imported on first use (``effective --validate``) and the
    pool only by a sweep with more than one worker.
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


def test_oracle_loads_no_scipy(tmp_path):
    # the sectors need numpy alone
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\nfrom dissipative_spins.cli import main\n"
         f"code = main(['oracle', '--n', '3', '--out', {str(tmp_path / 'o.json')!r}])\n"
         "print(json.dumps([code, sorted(sys.modules)]))"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    code, loaded = json.loads(out.stdout)
    assert code == 0
    assert json.loads((tmp_path / "o.json").read_text())["dark_dimension"] == 1
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
