from itertools import product

import numpy as np
import pytest

from dissipative_spins.opformat import (
    OperatorFormatError,
    _pauli_coefficients,
    format_operator,
    parse_operator_text,
    parse_problem_text,
    problem_size,
)
from dissipative_spins.operators import embed, kron, pauli


def test_parse_single_pauli():
    np.testing.assert_allclose(
        parse_operator_text("1 0 0:x", 1), pauli("x")
    )


def test_parse_multi_site_term():
    got = parse_operator_text("0.5 0 0:ud 1:du", 2)
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    want = 0.5 * kron(np.outer(up, down), np.outer(down, up))
    np.testing.assert_allclose(got, want)


def test_parse_imaginary_coefficient_and_identity():
    got = parse_operator_text("0 -2 1:z\n3 0", 2)
    want = -2j * embed(pauli("z"), [1], 2) + 3 * np.eye(4)
    np.testing.assert_allclose(got, want)


def test_parse_comments_and_blanks():
    text = """
    # header comment
    1 0 0:+   # inline comment

    0 1 0:-
    """
    got = parse_operator_text(text, 1)
    np.testing.assert_allclose(got, pauli("+") + 1j * pauli("-"))


@pytest.mark.parametrize(
    "bad,lineno",
    [
        ("1 0 0:q", 1),
        ("1 0 5:x", 1),
        ("1 0 0:x 0:z", 1),
        ("oops 0 0:x", 1),
        ("1 0 x", 1),
        ("1 0 a:z", 1),
        ("1", 1),
        ("1 0 0:x\n1 0 -1:z", 2),
    ],
)
def test_parse_errors_carry_line_numbers(bad, lineno):
    with pytest.raises(OperatorFormatError) as err:
        parse_operator_text(bad, 2)
    assert err.value.line == lineno
    assert f"line {lineno}" in str(err.value)


def test_format_roundtrip():
    rng = np.random.default_rng(9)
    letters = ["identity", "x", "y", "z"]
    op = np.zeros((8, 8), dtype=complex)
    for _ in range(6):
        coeff = complex(*rng.normal(size=2))
        factors = [pauli(letters[k]) for k in rng.integers(0, 4, size=3)]
        op += coeff * kron(*factors)
    text = format_operator(op, 3)
    np.testing.assert_allclose(parse_operator_text(text, 3), op, atol=1e-9)


def _kron_loop_coefficients(op, n):
    # reference: one kron and one dense trace per Pauli string
    letters = ("identity", "x", "y", "z")
    return np.array([
        np.trace(kron(*[pauli(letters[k]) for k in combo]).conj().T @ op) / 2**n
        for combo in product(range(4), repeat=n)
    ])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_coefficients_match_kron_loop(n):
    rng = np.random.default_rng(n)
    op = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    np.testing.assert_allclose(_pauli_coefficients(op, n), _kron_loop_coefficients(op, n),
                               rtol=0, atol=1e-14)


def test_format_zero_operator():
    assert format_operator(np.zeros((4, 4)), 2) == ""


def test_format_rejects_wrong_shape():
    with pytest.raises(ValueError):
        format_operator(np.zeros((4, 4)), 3)


PROBLEM = """
# pump one spin via a lossy auxiliary
[sites]
n = 2
aux = 1

[V+]
0.05 0 0:ud 1:+

[jump]
rate = 4.0
1 0 1:-

[P_e]
1 0 1:uu
"""


def test_parse_problem_roundtrip():
    pf = parse_problem_text(PROBLEM)
    assert pf.problem.n_sites == 2
    assert pf.aux_sites == (1,)
    # sqrt(rate) folded into the jump matrix
    np.testing.assert_allclose(
        pf.problem.jumps[0], 2.0 * embed(pauli("-"), [1], 2)
    )
    assert pf.problem.h_ground.shape == (4, 4)
    assert np.abs(pf.problem.h_excited).max() == 0


def test_parse_problem_errors():
    with pytest.raises(OperatorFormatError):
        parse_problem_text("[V+]\n1 0 0:x")  # no [sites]
    with pytest.raises(OperatorFormatError):
        parse_problem_text("[sites]\nn = 2\n[P_e]\n1 0 1:uu")  # no V+
    with pytest.raises(OperatorFormatError):
        parse_problem_text("[sites]\nn = 2\n[V+]\n1 0 0:x")  # no P_e
    with pytest.raises(OperatorFormatError):
        parse_problem_text(PROBLEM + "\n[sites]\nn = 3")  # duplicate
    with pytest.raises(OperatorFormatError):
        parse_problem_text(PROBLEM.replace("[P_e]", "[potato]"))
    with pytest.raises(OperatorFormatError):
        parse_problem_text(PROBLEM.replace("aux = 1", "aux = 7"))
    with pytest.raises(OperatorFormatError):
        parse_problem_text(PROBLEM.replace("rate = 4.0", "rate = fast"))
    with pytest.raises(OperatorFormatError):
        parse_problem_text("1 0 0:x\n" + PROBLEM.lstrip())  # body before header


def test_problem_error_points_at_file_line():
    broken = PROBLEM.replace("0.05 0 0:ud 1:+", "0.05 0 0:ud 1:??")
    with pytest.raises(OperatorFormatError) as err:
        parse_problem_text(broken)
    # line 8 of the file holds the bad token
    assert err.value.line == broken.splitlines().index("0.05 0 0:ud 1:??") + 1


def test_problem_jump_without_body():
    with pytest.raises(OperatorFormatError):
        parse_problem_text(PROBLEM.replace("1 0 1:-", ""))


def test_problem_sites_reads_only_the_sites_section():
    assert problem_size(PROBLEM)[0] == parse_problem_text(PROBLEM).problem.n_sites == 2
    # operator bodies are left unparsed: a bad token does not stop it
    assert problem_size(PROBLEM.replace("1:+", "1:??").replace("n = 2", "n = 30")) == (30, 1)
    with pytest.raises(OperatorFormatError):
        problem_size(PROBLEM.replace("aux = 1", "aux = 7"))


def _line_of(text, start):
    return next(k for k, line in enumerate(text.splitlines(), 1) if line.startswith(start))


@pytest.mark.parametrize(
    "old,new",
    [
        ("0.05 0 0:ud", "nan 0 0:ud"),
        ("0.05 0 0:ud", "0.05 -inf 0:ud"),
        ("0.05 0 0:ud", "1e400 0 0:ud"),
        ("rate = 4.0", "rate = nan"),
        ("rate = 4.0", "rate = inf"),
        ("rate = 4.0", "rate = -1"),
    ],
)
def test_problem_refuses_non_finite_numbers(old, new):
    # nan passes a sign test and inf reaches the linear algebra: both are
    # refused at their own line
    bad = PROBLEM.replace(old, new)
    with pytest.raises(OperatorFormatError) as err:
        parse_problem_text(bad)
    assert err.value.line == _line_of(bad, new)


@pytest.mark.parametrize(
    "old,new",
    [
        ("n = 2", "n = two"),
        ("n = 2", "n = 2 3"),
        ("aux = 1", "aux = x"),
        ("aux = 1", "aux = 1 1"),
        ("aux = 1", "aux = 1, 1"),
        ("aux = 1", "aux = 7"),
    ],
)
def test_sites_values_are_refused_at_their_line(old, new):
    bad = PROBLEM.replace(old, new)
    for parse in (problem_size, parse_problem_text):
        with pytest.raises(OperatorFormatError) as err:
            parse(bad)
        assert err.value.line == _line_of(bad, new)


def test_problem_jumps_counts_sections_unparsed():
    assert problem_size(PROBLEM) == (2, 1)
    assert problem_size(PROBLEM + "[jump]\n1 0 1:??\n" * 3) == (2, 4)
