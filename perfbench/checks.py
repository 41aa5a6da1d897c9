"""Correctness checks on the program's outputs.

Every check is a pure function of parsed outputs and returns a list of
failure messages (empty when the output is correct). The checks compare
against physical properties and independent computations, never against
stored copies of earlier outputs.
"""

from __future__ import annotations

import csv
import io

import numpy as np

LAMBDA_C1 = 0.5
LAMBDA_C2 = 1.5
# accepted fitted onsets, as in the acceptance tests A2 and A3
LAMBDA_C1_RANGE = (0.48, 0.52)
LAMBDA_C2_RANGE = (1.45, 1.55)
ORDER_TOL = 1e-4
NORM_SLACK = 1e-9

# One-site matrices of the operator text format: Pauli letters, ladder
# operators (+ maps |d> to |u>) and ket-bra projectors, basis (u, d).
_SITE_MATRICES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "+": np.array([[0, 1], [0, 0]], dtype=complex),
    "-": np.array([[0, 0], [1, 0]], dtype=complex),
    "uu": np.array([[1, 0], [0, 0]], dtype=complex),
    "ud": np.array([[0, 1], [0, 0]], dtype=complex),
    "du": np.array([[0, 0], [1, 0]], dtype=complex),
    "dd": np.array([[0, 0], [0, 1]], dtype=complex),
}


def read_csv_rows(text: str) -> list[dict]:
    """Sweep CSV rows as dicts of floats, keyed by the documented header."""
    return [
        {key: float(value) for key, value in row.items()}
        for row in csv.DictReader(io.StringIO(text))
    ]


def operator_sections(text: str, n_sites: int) -> dict:
    """Matrices of the ``[name]`` sections of operator text output."""
    sections, current = {}, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            current = line.strip("[]")
            sections[current] = np.zeros((2**n_sites,) * 2, dtype=complex)
            continue
        if "=" in line or current is None:
            continue  # key = value lines of the [validation] section
        parts = line.split()
        factors = [np.eye(2, dtype=complex)] * n_sites
        for token in parts[2:]:
            site, name = token.split(":")
            factors[int(site)] = _SITE_MATRICES[name]
        term = np.eye(1, dtype=complex)
        for f in factors:
            term = np.kron(term, f)
        sections[current] += complex(float(parts[0]), float(parts[1])) * term
    return sections


def validation_error(text: str) -> float:
    for line in text.splitlines():
        if line.strip().startswith("error ="):
            return float(line.split("=", 1)[1])
    raise ValueError("no validation error in effective output")


def check_fit(fit: dict, lambda_range: tuple) -> list[str]:
    errors = []
    lo, hi = lambda_range
    if not lo <= fit["lambda_c"] <= hi:
        errors.append(f"lambda_c {fit['lambda_c']:.4f} outside [{lo}, {hi}]")
    if not 0.45 <= fit["beta"] <= 0.55:
        errors.append(f"beta {fit['beta']:.4f} outside [0.45, 0.55]")
    return errors


def check_sweep_rows(rows: list[dict], unordered_norm) -> list[str]:
    """Norm bound and vanishing order inside the disordered window.

    ``unordered_norm(lam)`` is the bond norm at alpha = 0, which the
    minimized norm can never exceed.
    """
    errors = []
    for row in rows:
        lam = row["lambda"]
        bound = unordered_norm(lam)
        if row["norm"] > bound + NORM_SLACK:
            errors.append(f"lambda={lam:g}: norm {row['norm']:.6g} above alpha=0 norm {bound:.6g}")
        if LAMBDA_C1 < lam < LAMBDA_C2 and max(row["m"], row["ms"]) >= ORDER_TOL:
            errors.append(f"lambda={lam:g}: order m={row['m']:.2e} ms={row['ms']:.2e} in the disordered window")
    return errors


def check_u2_sign_change(profiles: list[tuple], lambda_c: float, step: float,
                         ordered_below: bool) -> list[str]:
    """u2 changes sign once on the grid, within one step of lambda_c.

    ``profiles`` holds (lambda, u2) pairs. u2 is negative on the ordered
    side (below lambda_c when ``ordered_below``); the crossing is placed at
    the zero of the linear interpolant across the sign-change bracket.
    """
    profiles = sorted(profiles)
    brackets = [(p, q) for p, q in zip(profiles, profiles[1:]) if p[1] * q[1] < 0]
    if len(brackets) != 1:
        return [f"u2 changes sign {len(brackets)} times near lambda_c={lambda_c}"]
    (l1, u1), (l2, u2) = brackets[0]
    if (u1 < 0) != ordered_below:
        return [f"u2 is negative on the disordered side of lambda_c={lambda_c}"]
    zero = l1 + (l2 - l1) * u1 / (u1 - u2)
    if abs(zero - lambda_c) > step:
        return [f"u2 crossing at {zero:.4f} more than {step} from {lambda_c}"]
    return []


def check_oracle(out: dict, n: int, lam: float) -> list[str]:
    errors = []
    want = (n + 1) ** 2 if lam == 0 else 1
    if out["dark_dimension"] != want:
        errors.append(f"n={n} lambda={lam:g}: kernel dimension {out['dark_dimension']}, want {want}")
    if not out["trace_defect"] <= 1e-12:
        errors.append(f"n={n} lambda={lam:g}: trace defect {out['trace_defect']:.2e}")
    if not out["max_real_part"] <= 1e-9:
        errors.append(f"n={n} lambda={lam:g}: max real part {out['max_real_part']:.2e}")
    return errors


def structure_residual(c_eff: np.ndarray, target: np.ndarray) -> float:
    """Largest entry of c_eff left after removing its component along target."""
    coef = np.vdot(target, c_eff) / np.vdot(target, target)
    return float(np.abs(c_eff - coef * target).max())


def check_elimination(residuals: list[float], errors_strong_weak: tuple) -> list[str]:
    """Jump structure and the drive scaling of the validation error.

    Halving the drive at the matched dimensionless horizon cuts the
    accumulated error by about 4.
    """
    errors = [f"structure residual {r:.2e}" for r in residuals if not r < 1e-10]
    ratio = errors_strong_weak[0] / errors_strong_weak[1]
    if not 3.0 <= ratio <= 5.0:
        errors.append(f"validation error ratio {ratio:.3f} outside [3, 5]")
    return errors


def check_bound_slack(slacks: list[float]) -> list[str]:
    worst = min(slacks)
    return [] if worst > 0 else [f"bond-norm bound slack {worst:.3e} is not positive"]
