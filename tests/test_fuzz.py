"""Line-level mutations of a problem file and a sweep CSV, and drawn model flags, through the CLI.

Every run must end in exit 0 with nothing on stderr, in exit 1 (bad input)
or 2 (fit or elimination failure) with one ``dspin <cmd>:`` line, or in
exit 3 with one line naming the cap it exceeds. An uncaught exception or a
RuntimeWarning fails the run. The model-flag runs of ``oracle``, ``landau``
and ``sweep`` are kept small (rings of at most 4 sites, a few Landau samples,
sweeps of at most 3 grid points and 2 restarts) or over a cap, which exits
3 before any work.
"""

import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dissipative_spins import cli
from dissipative_spins.variational import SweepRecord, grid_size

from test_opformat import PROBLEM

PROBLEM_FIELDS = ["0", "1", "-1", "0.05", "4.0", "1e154", "1e308", "-1e308", "1e-160", "1e-320",
                  "nan", "inf", "x", "0:x", "1:+", "1:-", "0:uu", "1:dd", "0:y", "2:z", "0:?", "=", "#"]
PROBLEM_LINES = ["", "# note", "[sites]", "[jump]", "[V+]", "[P_e]", "[H_g]", "[H_e]",
                 "[other]", "n = 1", "n = 3", "n = 7", "aux = 0", "aux = 0 1", "rate = 4.0",
                 "rate = 1e308", "rate = 0", "1 0 1:-", "1e308 0 1:-", "1e154 0 1:-",
                 "1e308 1e308 0:x 1:+", "0 1 0:y 1:x", "1 0 0:uu", "-1 0"]


def _sweep_csv():
    """A uniform sweep through an onset at lambda = 1/2, m = sqrt(1/2 - lambda) below it."""
    lams = [0.4 + 0.005 * k for k in range(31)]
    records = [SweepRecord(lam, [m, 0, 0], [m, 0, 0], m, 0.0, 1e-3, True, 8)
               for lam in lams for m in [math.sqrt(max(0.5 - lam, 0.0))]]
    return cli.format_sweep_csv(records)


SWEEP_CSV = _sweep_csv()
CSV_FIELDS = ["0", "1", "-1", "0.45", "0.5", "2", "nan", "inf", "-inf", "1e200", "1e308",
              "-1e308", "1e-320", "", "x", "1.5"]
CSV_LINES = ["", "lambda", cli.CSV_HEADER, "0.45,0,0,0,0,0,0,0.2,0,0,1,8", "1,2,3"]


@st.composite
def mutated(draw, text, fields, lines):
    """``text`` after one to three line-level edits: drop, repeat, swap, insert, replace a field."""
    rows = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(rows)))
        edit = draw(st.sampled_from(["drop", "repeat", "swap", "insert", "field"]))
        if edit == "insert" or not rows:
            rows.insert(k, draw(st.sampled_from(lines)))
            continue
        k = min(k, len(rows) - 1)
        if edit == "drop":
            del rows[k]
        elif edit == "repeat":
            rows.insert(k, rows[k])
        elif edit == "swap":
            j = draw(st.integers(0, len(rows) - 1))
            rows[k], rows[j] = rows[j], rows[k]
        else:
            sep = "," if "," in rows[k] else " "
            parts = rows[k].split(sep)
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(fields))
            rows[k] = sep.join(parts)
    return "\n".join(rows) + "\n"


def run_cli(argv):
    """(exit code, stderr) of ``cli.main(argv)`` with RuntimeWarnings raised as errors."""
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(argv)
    return code, err.getvalue()


def assert_documented_outcome(command, code, err):
    if code == 0:
        assert err == ""
        return
    assert code in (1, 2, 3) and err.count("\n") == 1, (code, err)
    if code == 3:
        assert err.startswith(f"{command}: ") and "cap" in err
    else:
        assert err.startswith(f"dspin {command}: ")


_FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(text=mutated(PROBLEM, PROBLEM_FIELDS, PROBLEM_LINES), validate=st.booleans())
def test_mutated_problem_files(tmp_path, text, validate):
    path = tmp_path / "p.prob"
    path.write_text(text)
    argv = ["effective", "--problem", str(path)] + (["--validate", "--t-max", "1"] if validate else [])
    assert_documented_outcome("effective", *run_cli(argv))


@_FUZZ
@given(text=mutated(SWEEP_CSV, CSV_FIELDS, CSV_LINES))
def test_mutated_sweep_csvs(tmp_path, text):
    path = tmp_path / "sweep.csv"
    path.write_text(text)
    assert_documented_outcome("fit", *run_cli(["fit", "--in", str(path)]))


# numbers argparse reads, around each bound of the model flags; each goes in as --flag=value,
# so a negative one is not read as a flag
Z_VALUES = ["2", "3", "6", "1000", "9223372036854775807", "9223372036854775808",
            "100000000000000000000", "1", "0", "-6"]
LAMBDAS = ["0", "-0.0", "0.3", "0.5", "1", "1.5", "2", "1e-320", "1e100", "1.0000000000000002e100",
           "1e160", "1e308", "-0.5", "-1e-320", "nan", "inf", "-inf"]
model_flags = st.tuples(st.sampled_from(Z_VALUES), st.sampled_from(["on", "off"])).map(
    lambda f: [f"--z={f[0]}", f"--renormalize={f[1]}"])
_FLAGS = settings(max_examples=40, deadline=None, derandomize=True)


@_FLAGS
@given(n=st.sampled_from(["-1", "0", "1", "2", "3", "4", "7", "1000", "10000000000000000000000"]),
       lam=st.sampled_from(LAMBDAS), flags=model_flags)
def test_oracle_model_flags(n, lam, flags):
    code, err = run_cli(["oracle", f"--n={n}", f"--lambda={lam}"] + flags)
    assert_documented_outcome("oracle", code, err)
    if n in ("7", "1000", "10000000000000000000000"):
        assert code == 3  # the ring cap comes before the model is built


@_FLAGS
@given(samples=st.sampled_from(["-1", "0", "4", "5", "7", "1001"]),
       phi_max=st.sampled_from(["0.03", "-0.03", "0", "1e-300", "0.5", "1", "-1", "1.0000000000000002",
                                "-2", "1e308", "nan", "inf"]),
       direction=st.sampled_from(["in-plane", "staggered-z"]),
       lam=st.sampled_from(LAMBDAS), flags=model_flags)
def test_landau_model_flags(samples, phi_max, direction, lam, flags):
    argv = ["landau", f"--samples={samples}", f"--phi-max={phi_max}", f"--direction={direction}",
            f"--lambda={lam}"] + flags
    assert_documented_outcome("landau", *run_cli(argv))


@_FLAGS
@given(bounds=st.tuples(st.sampled_from(LAMBDAS), st.sampled_from(LAMBDAS)),
       step=st.sampled_from(["0.5", "1", "2", "1e-300", "1e300", "0", "-1", "nan", "inf"]),
       restarts=st.sampled_from(["-1", "0", "1", "2", "1001"]), ansatz=st.sampled_from(["uniform", "bipartite"]),
       refine=st.booleans(), flags=model_flags)
def test_sweep_model_flags(bounds, step, restarts, ansatz, refine, flags):
    try:  # at most 3 grid points, or over the cap, which exits 3 before any work
        points = grid_size(float(bounds[0]), float(bounds[1]), float(step))
        assume(points <= 3 or points > cli.MAX_SWEEP_POINTS)
    except ValueError:  # bounds grid_size refuses: exit 1 before any work
        pass
    argv = ["sweep", f"--lambda-min={bounds[0]}", f"--lambda-max={bounds[1]}", f"--step={step}",
            f"--restarts={restarts}", f"--ansatz={ansatz}"] + flags + ([] if refine else ["--no-refine"])
    assert_documented_outcome("sweep", *run_cli(argv))
