"""Adiabatic elimination of fast-decaying auxiliary particles.

Given a system weakly driven (V+) into an excited manifold that decays
rapidly via jumps c_k, second-order perturbation theory yields an effective
master equation on the slow manifold:

    H_eff = H_g - (1/2) V- [Htilde^-1 + (Htilde^-1)^dag] V+
    c_eff,k = c_k Htilde^-1 V+

with the non-Hermitian excited-manifold Hamiltonian
Htilde = H_e - (i/2) sum_k c_k^dag c_k. The inverse is taken on the decaying
manifold only (the excited projector's range); eliminating a manifold that
does not decay is reported as an error rather than silently regularized.

All operators act on the full (system x auxiliary) Hilbert space; callers
describe the block structure through projectors. Jump rates are folded into
the matrices as sqrt(gamma) prefactors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, expm_multiply

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
        mats = [self.h_ground, self.h_excited, self.v_plus, self.p_excited]
        mats += list(self.jumps)
        for m in mats:
            if m.shape != (dim, dim):
                raise ValueError("all operators must share one square dimension")
        p = self.p_excited
        if np.abs(p @ p - p).max() > 1e-10 or np.abs(p - p.conj().T).max() > 1e-10:
            raise ValueError("p_excited must be an orthogonal projector")

    @property
    def v_minus(self) -> np.ndarray:
        return self.v_plus.conj().T


def nonhermitian_hamiltonian(problem: EliminationProblem) -> np.ndarray:
    """Htilde = H_e - (i/2) sum_k c_k^dag c_k, restricted to the excited block."""
    acc = problem.h_excited.astype(complex).copy()
    for c in problem.jumps:
        acc = acc - 0.5j * (c.conj().T @ c)
    p = problem.p_excited
    return p @ acc @ p


def invert_on_decaying_manifold(htilde: np.ndarray, p_excited: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of Htilde on the range of the excited projector.

    Htilde is diagonalized inside the projector's range (it is not normal,
    so a direct eigendecomposition of the restricted block is used). Any
    eigenvalue of magnitude below ``_GAP_TOL`` means part of the manifold
    neither decays nor dephases, and the perturbative elimination has no
    leading order there.
    """
    evals, evecs = np.linalg.eigh(p_excited)
    cols = evecs[:, evals > 0.5]  # orthonormal basis of the excited manifold
    if cols.shape[1] == 0:
        return np.zeros_like(htilde)
    block = cols.conj().T @ htilde @ cols
    w, v = np.linalg.eig(block)
    if np.abs(w).min() < _GAP_TOL:
        raise GaplessEliminationError(
            "gapless elimination: excited manifold has a non-decaying "
            f"direction (|eigenvalue| = {np.abs(w).min():.3e})"
        )
    inv_block = v @ np.diag(1.0 / w) @ np.linalg.inv(v)
    return cols @ inv_block @ cols.conj().T


def effective_hamiltonian(problem: EliminationProblem) -> np.ndarray:
    htilde = nonhermitian_hamiltonian(problem)
    inv = invert_on_decaying_manifold(htilde, problem.p_excited)
    shift = problem.v_minus @ (inv + inv.conj().T) @ problem.v_plus
    return problem.h_ground - 0.5 * shift


def effective_jumps(problem: EliminationProblem) -> list:
    htilde = nonhermitian_hamiltonian(problem)
    inv = invert_on_decaying_manifold(htilde, problem.p_excited)
    return [c @ inv @ problem.v_plus for c in problem.jumps]


def check_horizon(t_max: float) -> float:
    """t_max itself if it is finite and positive, else ValueError."""
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    return t_max


def _propagate(rho0, hamiltonian, jumps, t):
    """exp(t L) rho0 for the Lindblad generator L of H and the jumps.

    expm_multiply works through the applied generator and its adjoint, so
    no d^2 x d^2 superoperator is formed. With G = -i H - 1/2 sum c^dag c,
    L rho = G rho + rho G^dag + sum c rho c^dag, and its trace, which
    shifts the Taylor series, is 2 d Re tr G + sum |tr c|^2.
    """
    d = rho0.shape[0]
    cs = np.asarray(jumps, dtype=complex).reshape(-1, d, d)
    cs_dag = cs.conj().transpose(0, 2, 1)
    g = -1j * np.asarray(hamiltonian, dtype=complex) - 0.5 * (cs_dag @ cs).sum(axis=0)
    g_dag = g.conj().T

    def generator(v):
        rho = v.reshape(d, d)
        return t * (g @ rho + rho @ g_dag + (cs @ rho @ cs_dag).sum(axis=0)).ravel()

    def adjoint(v):
        x = v.reshape(d, d)
        return t * (g_dag @ x + x @ g + (cs_dag @ x @ cs).sum(axis=0)).ravel()

    trace = 2 * d * np.trace(g).real + (np.abs(np.trace(cs, axis1=1, axis2=2)) ** 2).sum()
    op = LinearOperator((d * d, d * d), matvec=generator, rmatvec=adjoint, dtype=complex)
    # scipy's 1-norm estimate inside expm_multiply draws its probe vectors
    # from numpy's global random stream; a caller's stream is left as it was
    state = np.random.get_state()
    try:
        out = expm_multiply(op, np.asarray(rho0, dtype=complex).ravel(), traceA=t * trace)
    finally:
        np.random.set_state(state)
    return out.reshape(d, d)


@dataclass(frozen=True)
class EliminationValidation:
    error: float          # trace distance full vs effective at t_max
    t_max: float
    rho_full: np.ndarray  # full evolution, auxiliary traced out
    rho_eff: np.ndarray


def validate_elimination(
    problem: EliminationProblem,
    rho0_system: np.ndarray,
    rho0_aux: np.ndarray,
    aux_sites,
    n_sites: int,
    t_max: float = 50.0,
) -> EliminationValidation:
    """Compare full dynamics against the eliminated effective dynamics.

    Both are propagated exactly, exp(t_max L) applied to the product of
    rho0_system and rho0_aux; the auxiliary is traced out of the full
    result and the trace distance (half the trace norm of the difference)
    at t_max is reported. The error should scale with the square of the
    perturbation, i.e. drop by ~4 when the drive weakens by 2 at fixed
    decay rate. ValueError unless t_max is finite and positive.
    """
    check_horizon(t_max)
    aux_sites = sorted(aux_sites)
    keep = [s for s in range(n_sites) if s not in aux_sites]
    # the product's slots are the system sites, then the auxiliary ones
    rho0 = embed(np.kron(rho0_system, rho0_aux), keep + aux_sites, n_sites)

    h_full = problem.h_ground + problem.h_excited + problem.v_plus + problem.v_minus
    rho_full = _propagate(rho0, h_full, list(problem.jumps), t_max)
    rho_full_sys = partial_trace(rho_full, keep, n_sites)

    h_eff = effective_hamiltonian(problem)
    c_eff = effective_jumps(problem)
    h_eff_sys = strip_auxiliary(h_eff, aux_sites, n_sites, rho0_aux)
    c_eff_sys = [strip_auxiliary(c, aux_sites, n_sites, rho0_aux) for c in c_eff]
    rho_eff = _propagate(rho0_system, h_eff_sys, c_eff_sys, t_max)

    err = 0.5 * trace_norm_hermitian(rho_full_sys - rho_eff)
    return EliminationValidation(
        error=float(err), t_max=t_max, rho_full=rho_full_sys, rho_eff=rho_eff
    )


def strip_auxiliary(op: np.ndarray, aux_sites, n_sites: int, aux_state: np.ndarray) -> np.ndarray:
    """Project a full-space operator onto the system given a frozen auxiliary.

    The auxiliary factor of an eliminated operator is a projector onto the
    auxiliary rest state, so contracting it with that state (op_sys =
    tr_aux[(1 (x) rho_aux) op]) leaves the pure system operator. Exact when
    the operator factorizes; used to express eliminated operators on the
    system space.
    """
    aux_sites = sorted(aux_sites)
    keep = [s for s in range(n_sites) if s not in aux_sites]
    n_aux = len(aux_sites)
    full = np.asarray(op, dtype=complex)
    # weight the auxiliary slot with its state, then trace it out
    dims = [2] * n_sites
    t = full.reshape(dims + dims)
    # move aux sites to the end on both row and column indices
    perm = keep + aux_sites
    t = np.transpose(t, list(perm) + [n_sites + p for p in perm])
    d_sys = 2 ** len(keep)
    d_aux = 2**n_aux
    t = t.reshape(d_sys, d_aux, d_sys, d_aux)
    return np.einsum("abcd,db->ac", t, np.asarray(aux_state, dtype=complex))
