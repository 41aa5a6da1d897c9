"""Adiabatic elimination of fast-decaying auxiliary particles.

Given a system weakly driven (V+) into an excited manifold that decays
rapidly via jumps c_k, second-order perturbation theory yields an effective
master equation on the slow manifold:

    H_eff = H_g - (1/2) V- [Htilde^-1 + (Htilde^-1)^dag] V+
    c_eff,k = c_k Htilde^-1 V+

with the non-Hermitian excited-manifold Hamiltonian
Htilde = H_e - (i/2) sum_k c_k^dag c_k, which is i G on the excited block for
the generator G = -i H_e - (1/2) sum_k c_k^dag c_k that ``build_liouvillian``
forms. The inverse is taken on the decaying manifold only (the excited
projector's range); eliminating a manifold that does not decay is reported
as an error rather than silently regularized.

All operators act on the full (system x auxiliary) Hilbert space; callers
describe the block structure through projectors. Jump rates are folded into
the matrices as sqrt(gamma) prefactors. ``validate_elimination`` checks
given effective operators: it propagates the full and the effective dynamics
with ``Liouvillian.evolve``, which forms no d^2 x d^2 generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .liouville import build_liouvillian
from .operators import embed, partial_trace, trace_norm_hermitian


_GAP_TOL = 1e-10  # an excited-manifold eigenvalue below this neither decays nor dephases


class GaplessEliminationError(ValueError):
    """The excited manifold contains a non-decaying direction."""


@dataclass(frozen=True)
class EliminationProblem:
    """Inputs to one adiabatic elimination.

    h_ground: slow-manifold Hamiltonian (often zero).
    h_excited: excited-manifold Hamiltonian.
    v_plus: excitation operator (slow -> fast); V- is its adjoint.
    jumps: decay jump operators with sqrt(rate) folded in.
    p_excited: orthogonal projector onto the excited manifold.
    """

    h_ground: np.ndarray
    h_excited: np.ndarray
    v_plus: np.ndarray
    jumps: tuple
    p_excited: np.ndarray

    def __post_init__(self):
        dim = self.h_ground.shape[0]
        for m in (self.h_ground, self.h_excited, self.v_plus, self.p_excited, *self.jumps):
            if m.shape != (dim, dim):
                raise ValueError("all operators must share one square dimension")
        p = self.p_excited
        if np.abs(p @ p - p).max() > 1e-10 or np.abs(p - p.conj().T).max() > 1e-10:
            raise ValueError("p_excited must be an orthogonal projector")

    @property
    def v_minus(self) -> np.ndarray:
        return self.v_plus.conj().T

    @property
    def hamiltonian(self) -> np.ndarray:
        """The full Hamiltonian H_g + H_e + V+ + V-."""
        return self.h_ground + self.h_excited + self.v_plus + self.v_minus

    @property
    def n_sites(self) -> int:
        """Spin-1/2 sites of the operators' 2^n-dimensional space; ValueError otherwise."""
        dim = self.h_ground.shape[0]
        if dim & (dim - 1):
            raise ValueError(f"dimension {dim} is not a power of two")
        return dim.bit_length() - 1


def nonhermitian_hamiltonian(problem: EliminationProblem) -> np.ndarray:
    """Htilde = H_e - (i/2) sum_k c_k^dag c_k = i G of H_e and the jumps, on the excited block."""
    p = problem.p_excited
    return p @ (1j * build_liouvillian(problem.h_excited, problem.jumps).g) @ p


def invert_on_decaying_manifold(htilde: np.ndarray, p_excited: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of Htilde on the range of the excited projector.

    The block of Htilde inside the projector's range is inverted directly,
    which holds where it is defective too (an exceptional point). Any
    eigenvalue of magnitude below ``_GAP_TOL`` means part of the manifold
    neither decays nor dephases, and the perturbative elimination has no
    leading order there.
    """
    evals, evecs = np.linalg.eigh(p_excited)
    cols = evecs[:, evals > 0.5]  # orthonormal basis of the excited manifold
    if cols.shape[1] == 0:
        return np.zeros_like(htilde)
    block = cols.conj().T @ htilde @ cols
    w = np.linalg.eigvals(block)
    if np.abs(w).min() < _GAP_TOL:
        raise GaplessEliminationError(
            "gapless elimination: excited manifold has a non-decaying "
            f"direction (|eigenvalue| = {np.abs(w).min():.3e})"
        )
    return cols @ np.linalg.inv(block) @ cols.conj().T


def effective_hamiltonian(problem: EliminationProblem) -> np.ndarray:
    inv = invert_on_decaying_manifold(nonhermitian_hamiltonian(problem), problem.p_excited)
    shift = problem.v_minus @ (inv + inv.conj().T) @ problem.v_plus
    return problem.h_ground - 0.5 * shift


def effective_jumps(problem: EliminationProblem) -> list:
    inv = invert_on_decaying_manifold(nonhermitian_hamiltonian(problem), problem.p_excited)
    return [c @ inv @ problem.v_plus for c in problem.jumps]


def check_horizon(t_max: float) -> None:
    """ValueError unless t_max is finite and positive."""
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and positive, got {t_max}")


@dataclass(frozen=True)
class EliminationValidation:
    error: float          # trace distance full vs effective at t_max
    t_max: float
    rho_full: np.ndarray  # full evolution, auxiliary traced out
    rho_eff: np.ndarray


def validate_elimination(
    problem: EliminationProblem,
    h_eff: np.ndarray,
    c_eff,
    rho0_system: np.ndarray,
    rho0_aux: np.ndarray,
    aux_sites,
    t_max: float = 50.0,
) -> EliminationValidation:
    """Compare the full dynamics against that of the effective operators given.

    h_eff and c_eff act on the full space, as ``effective_hamiltonian`` and
    ``effective_jumps`` return them; ``strip_auxiliary`` contracts them with
    rho0_aux. Both master equations are propagated exactly, the full one from
    rho0_system (x) rho0_aux (the auxiliary then traced out), the effective
    one from rho0_system, and their trace distance at t_max is reported. The
    error should scale with the square of the perturbation, ~4x smaller at
    half the drive and fixed decay rate. ValueError unless t_max is finite
    and positive.
    """
    check_horizon(t_max)
    n_sites = problem.n_sites
    aux_sites = sorted(aux_sites)
    keep = [s for s in range(n_sites) if s not in aux_sites]
    # the product's slots are the system sites, then the auxiliary ones
    rho0 = embed(np.kron(rho0_system, rho0_aux), keep + aux_sites, n_sites)

    rho_full = build_liouvillian(problem.hamiltonian, list(problem.jumps)).evolve(rho0, t_max)
    rho_full_sys = partial_trace(rho_full, keep, n_sites)

    h_eff_sys = strip_auxiliary(h_eff, aux_sites, n_sites, rho0_aux)
    c_eff_sys = [strip_auxiliary(c, aux_sites, n_sites, rho0_aux) for c in c_eff]
    rho_eff = build_liouvillian(h_eff_sys, c_eff_sys).evolve(rho0_system, t_max)

    err = 0.5 * trace_norm_hermitian(rho_full_sys - rho_eff)
    return EliminationValidation(
        error=float(err), t_max=t_max, rho_full=rho_full_sys, rho_eff=rho_eff
    )


def strip_auxiliary(op: np.ndarray, aux_sites, n_sites: int, aux_state: np.ndarray) -> np.ndarray:
    """Project a full-space operator onto the system given a frozen auxiliary.

    The auxiliary factor of an eliminated operator is a projector onto the
    auxiliary rest state, so contracting it with that state (op_sys =
    tr_aux[op (1 (x) rho_aux)], the slots of rho_aux on the auxiliary sites
    in ascending order) leaves the pure system operator. Exact when the
    operator factorizes; used to express eliminated operators on the system
    space.
    """
    aux_sites = sorted(aux_sites)
    keep = [s for s in range(n_sites) if s not in aux_sites]
    return partial_trace(op @ embed(aux_state, aux_sites, n_sites), keep, n_sites)
