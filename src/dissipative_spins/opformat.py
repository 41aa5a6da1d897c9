"""Plain-text serialization of multi-site spin operators and problem files.

Operator text: one term per line,

    coeff_re coeff_im [site:token ...]

where each token is a single-site factor: a Pauli letter (x, y, z), a
raising/lowering operator (+, -), or a ket-bra in the computational basis
(uu, ud, du, dd; first letter ket, second bra, u = spin up). Sites not
listed carry the identity; a line with no tokens is a multiple of the
identity. Lines starting with '#' and blank lines are ignored; '#' also
starts an inline comment. Site 0 is the leftmost (most significant) tensor
factor.

Problem files describe one adiabatic elimination in INI-like sections:

    [sites]            n = <total sites>, aux = <aux site indices>
    [H_g] [H_e] [V+] [P_e]   operator bodies (V- is the adjoint of V+)
    [jump]             optional 'rate = <gamma>' line, then an operator
                       body; sqrt(rate) is folded into the matrix;
                       repeat the section for several jumps

Parse failures raise OperatorFormatError carrying the offending line
number; an operator that leaves the float range is one (a jump that does
so once sqrt(rate) is folded in, at its [jump] header).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effective import EliminationProblem
from .operators import embed, kron, pauli


class OperatorFormatError(ValueError):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


_KET = {"u": np.array([1.0, 0.0]), "d": np.array([0.0, 1.0])}


def _token_matrix(token: str):
    if token in ("x", "y", "z", "+", "-"):
        return pauli(token)
    if len(token) == 2 and token[0] in _KET and token[1] in _KET:
        return np.outer(_KET[token[0]], _KET[token[1]]).astype(complex)
    return None


def parse_operator_text(text: str, n_sites: int) -> np.ndarray:
    """Sum of all term lines, as a 2^n x 2^n matrix."""
    return _parse_terms(enumerate(text.splitlines(), start=1), n_sites)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused at its line instead
def _parse_terms(numbered_lines, n_sites: int) -> np.ndarray:
    """Sum of the term lines of (line number, text) pairs; an error carries its pair's number."""
    dim = 2**n_sites
    total = np.zeros((dim, dim), dtype=complex)
    for lineno, raw in numbered_lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 2:
            raise OperatorFormatError("expected 'coeff_re coeff_im ...'", lineno)
        try:
            coeff = complex(float(fields[0]), float(fields[1]))
        except ValueError:
            raise OperatorFormatError(
                f"bad coefficient {fields[0]!r} {fields[1]!r}", lineno
            ) from None
        if not np.isfinite(coeff):
            raise OperatorFormatError(f"non-finite coefficient {fields[0]!r} {fields[1]!r}", lineno)
        factors = {}
        for tok in fields[2:]:
            site_str, _, name = tok.partition(":")
            if not _:
                raise OperatorFormatError(f"token {tok!r} lacks a ':'", lineno)
            try:
                site = int(site_str)
            except ValueError:
                raise OperatorFormatError(f"bad site index {site_str!r}", lineno) from None
            if not 0 <= site < n_sites:
                raise OperatorFormatError(
                    f"site {site} outside 0..{n_sites - 1}", lineno
                )
            if site in factors:
                raise OperatorFormatError(f"site {site} listed twice", lineno)
            mat = _token_matrix(name)
            if mat is None:
                raise OperatorFormatError(f"unknown token {name!r}", lineno)
            factors[site] = mat
        if factors:
            sites = sorted(factors)
            term = kron(*[factors[s] for s in sites])
            total += coeff * embed(term, sites, n_sites)
        else:
            total += coeff * np.eye(dim)
        if not np.isfinite(total).all():
            raise OperatorFormatError("the operator's sum overflows at this term", lineno)
    return total


_LETTERS = ("identity", "x", "y", "z")
# row k: conj(sigma_k) / 2 over a site's (ket, bra) index pair
_PAULI_DUAL = np.array([pauli(k).conj() for k in _LETTERS]).reshape(4, 4) / 2
_COEFF_TOL = 1e-12  # Pauli coefficients at most this large are not printed


def _pauli_coefficients(op: np.ndarray, n_sites: int) -> np.ndarray:
    """tr(P^+ op) / 2^n for all 4^n Pauli strings P, site 0 most significant.

    Each site's (ket, bra) index pair is contracted with the four Paulis in
    turn, O(n 4^n) in all; the contracted index moves to the back, so after
    n sites the strings are in order again.
    """
    order = [ax for s in range(n_sites) for ax in (s, n_sites + s)]
    x = op.reshape((2,) * (2 * n_sites)).transpose(order).reshape(-1)
    for _ in range(n_sites):
        x = (_PAULI_DUAL @ x.reshape(4, -1)).T.reshape(-1)
    return x


def format_operator(op: np.ndarray, n_sites: int) -> str:
    """Pauli-string decomposition of op, one term per line.

    Inverse of parse_operator_text up to the choice of basis (output uses
    x/y/z only, never the ket-bra tokens). Terms with |coefficient| at most
    ``_COEFF_TOL`` are left out.
    """
    op = np.asarray(op, dtype=complex)
    dim = 2**n_sites
    if op.shape != (dim, dim):
        raise ValueError(f"operator shape {op.shape} does not match {n_sites} sites")
    lines = []
    for combo, coeff in zip(np.ndindex(*(4,) * n_sites), _pauli_coefficients(op, n_sites)):
        if abs(coeff) <= _COEFF_TOL:
            continue
        toks = [f"{s}:{_LETTERS[k]}" for s, k in enumerate(combo) if k != 0]
        lines.append(
            " ".join(["%.12g" % coeff.real, "%.12g" % coeff.imag] + toks)
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class ProblemFile:
    aux_sites: tuple
    problem: EliminationProblem


_OP_SECTIONS = ("H_g", "H_e", "V+", "P_e")


def _read_sites(text: str):
    """Section bodies of a problem file and its [sites] values; no operator is built."""
    sections = {}   # name -> list of (lineno, line) bodies
    jump_bodies = []  # (header line, body) per [jump] section
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name == "jump":
                jump_bodies.append((lineno, []))
                current = jump_bodies[-1][1]
            elif name == "sites" or name in _OP_SECTIONS:
                if name in sections:
                    raise OperatorFormatError(f"duplicate section [{name}]", lineno)
                sections[name] = []
                current = sections[name]
            else:
                raise OperatorFormatError(f"unknown section [{name}]", lineno)
            continue
        if current is None:
            raise OperatorFormatError("content before any section header", lineno)
        current.append((lineno, line))

    if "sites" not in sections:
        raise OperatorFormatError("missing [sites] section")
    n_sites = None
    aux_sites, aux_line = (), 0
    for lineno, line in sections["sites"]:
        key, eq, value = (p.strip() for p in line.partition("="))
        if not eq:
            raise OperatorFormatError("expected 'key = value'", lineno)
        if key not in ("n", "aux"):
            raise OperatorFormatError(f"unknown [sites] key {key!r}", lineno)
        try:
            ints = tuple(int(v) for v in value.replace(",", " ").split())
        except ValueError:
            ints = None
        if ints is None or key == "n" and len(ints) != 1:
            raise OperatorFormatError(f"bad [sites] {key} value {value!r}", lineno)
        if key == "n":
            n_sites = ints[0]
        elif len(set(ints)) < len(ints):
            raise OperatorFormatError(f"repeated aux site in {value!r}", lineno)
        else:
            aux_sites, aux_line = ints, lineno
    if n_sites is None or n_sites < 1:
        raise OperatorFormatError("[sites] must set n to a positive integer")
    for s in aux_sites:
        if not 0 <= s < n_sites:
            raise OperatorFormatError(f"aux site {s} outside 0..{n_sites - 1}", aux_line)
    return sections, jump_bodies, n_sites, aux_sites


def problem_size(text: str) -> tuple:
    """(n_sites, n_jumps) of a problem file, read before any 2^n x 2^n operator exists."""
    _, jump_bodies, n_sites, _ = _read_sites(text)
    return n_sites, len(jump_bodies)


def parse_problem_text(text: str) -> ProblemFile:
    sections, jump_bodies, n_sites, aux_sites = _read_sites(text)

    def body_matrix(name):
        return _parse_terms(sections.get(name, ()), n_sites)

    if "V+" not in sections:
        raise OperatorFormatError("missing [V+] section")
    if "P_e" not in sections:
        raise OperatorFormatError("missing [P_e] section")

    jumps = []
    for header, body in jump_bodies:
        rate = 1.0
        op_lines = []
        for lineno, line in body:
            if line.replace(" ", "").startswith("rate="):
                try:
                    rate = float(line.partition("=")[2])
                except ValueError:
                    raise OperatorFormatError("bad rate value", lineno) from None
                if not (np.isfinite(rate) and rate >= 0):
                    raise OperatorFormatError("rate must be finite and nonnegative", lineno)
            else:
                op_lines.append((lineno, line))
        if not op_lines:
            raise OperatorFormatError("[jump] section has no operator lines", header)
        with np.errstate(over="ignore", invalid="ignore"):
            jump = np.sqrt(rate) * _parse_terms(op_lines, n_sites)
        if not np.isfinite(jump).all():
            raise OperatorFormatError("the jump overflows once sqrt(rate) is folded in", header)
        jumps.append(jump)

    problem = EliminationProblem(
        h_ground=body_matrix("H_g"),
        h_excited=body_matrix("H_e"),
        v_plus=body_matrix("V+"),
        jumps=tuple(jumps),
        p_excited=body_matrix("P_e"),
    )
    return ProblemFile(aux_sites=aux_sites, problem=problem)
