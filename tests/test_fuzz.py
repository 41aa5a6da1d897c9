"""Line-level mutations of a problem file and a sweep CSV, read through the CLI.

Every run must end in exit 0 with nothing on stderr, in exit 1 (bad input)
or 2 (fit or elimination failure) with one ``dspin <cmd>:`` line, or in
exit 3 with one line naming the cap it exceeds. An uncaught exception or a
RuntimeWarning fails the run.
"""

import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dissipative_spins import cli
from dissipative_spins.variational import SweepRecord

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
