"""Variational trace-norm principle for dissipative lattice models.

The steady state of a translationally invariant, purely dissipative master
equation is approximated by a product ansatz (one Bloch vector per
sublattice). For each bond (i, j) the reduced time derivative K, Hermitian
and traceless, sums the single-site jumps, the bond's own two-site jumps
and the mean-field contribution of the 2(z-1) surrounding neighbors. The
sum of bond trace norms upper-bounds the full-state norm, and for a
homogeneous ansatz it collapses to a single bond norm, which is what gets
minimized. Order parameters, the Landau phi^4 expansion of the norm, and
critical-point fits are extracted from the minimizer.

``CompiledBond`` compiles a model once into complex tensors, the one bond
evaluator: W = P + rate A, P from the jumps at their own rates, A from the
model's rate set at unit rate (the Heisenberg model's anisotropy jumps, at
rate lambda). ``reduced_derivative`` reads one compile at one state; the
tests assemble K term by term as their reference. The minimizer only visits
ay = by = 0, where K is real: ``CompiledBond.tensor`` folds P and A onto the
monomials reached there (27 for the bipartite ansatz; 10 for the uniform
one, whose K it turns into a singlet block and a triplet block) and refuses
a model for which that drops more than rounding. The minimizer gathers each
monomial's three factors at once and builds K's feature rows from them, and
by the product rule those of dK and d2K; any batch of rows becomes
K = P + rate A by one real product with [P | A], each row at its problem's
rate. Its spectrum is one stacked real eigvalsh, and a state's K does not
depend on its batch. One compile serves a whole sweep batch, and sweeps,
``minimize_norm`` and Landau profiles all form K the same way.

The minimizer runs in two stages, each on many problems at once. An array
Nelder-Mead engine that steps like scipy's advances every restart of every
coupling of a sweep together (one batch per worker process, capped at 2048
restart simplices), each batch of trial points evaluated with one product
and one stacked eigvalsh; its only budget is an iteration cap. It stops
at basin resolution, since it only ranks the restarts. Each coupling's best restart is then polished by a kink-aware Newton
method on closed-form first and second derivatives of the bond matrix:
the minima of the ordered phases sit where one eigenvalue of it
vanishes, a kink of the norm, and the polish reports the first-order
residual and the kink's multiplier as a certificate. Where every
eigenvalue vanishes, at a dark state, a Gauss-Newton step onto K = 0 from
the same derivatives takes the norm to rounding, and a norm below 1e-13 is
its own certificate of a global minimum. Both stages and the ranking
between them are one function, ``_descend``. ``minimize_norm`` is it run
on a single model; a sweep point's record equals it bit for bit. A Landau
profile runs it on its phi samples, one start each, with phi held fixed by
the offsets of an affine map from the parameters to the Bloch vectors.

Jump matrices follow the (this-site, other-site) slot convention: the first
tensor slot of a two-site term sits on the bond site under consideration.
Both Heisenberg jump sets are closed under slot swap (up to phases), so bond
orientation never matters for the totals.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .liouville import build_liouvillian, coherence_orders
from .models import DissipativeModel, LatticeSpec, check_rate, dissipative_heisenberg
from .operators import (
    BALL_TOL,
    bloch_to_density,
    dissipator,
    embed,
    kron,
    partial_trace,
    pauli,
    trace_norm_hermitian,
)


class FitError(ValueError):
    """A fit could not be performed (no bracket, ill-conditioned, ...)."""


@dataclass(frozen=True)
class ProductAnsatz:
    """One or two Bloch vectors parameterizing the variational state."""

    kind: str  # 'uniform' | 'bipartite'
    alpha_A: np.ndarray
    alpha_B: np.ndarray

    def __post_init__(self):
        _check_ansatz(self.kind, bipartite=True)  # the kind; the lattice is checked where it is known
        for a in (self.alpha_A, self.alpha_B):
            if np.asarray(a).shape != (3,):
                raise ValueError("Bloch vectors must have 3 components")
            if not np.linalg.norm(a) <= 1 + BALL_TOL:  # NaN fails it too
                raise ValueError("Bloch vector leaves the unit ball")
        if self.kind == "uniform" and not np.array_equal(self.alpha_A, self.alpha_B):
            raise ValueError("a uniform ansatz holds one Bloch vector: alpha_B must equal alpha_A")

    @classmethod
    def uniform(cls, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return cls("uniform", alpha, alpha.copy())

    @classmethod
    def bipartite(cls, alpha_A, alpha_B):
        return cls(
            "bipartite",
            np.asarray(alpha_A, dtype=float),
            np.asarray(alpha_B, dtype=float),
        )


@dataclass(frozen=True)
class NormBreakdown:
    total: np.ndarray  # the complex 4x4 bond derivative K
    total_norm: float


@dataclass(frozen=True)
class LandauFit:
    u0: float
    u2: float
    u4: float
    residual: float
    converged: bool       # every sample's polish stopped by its own test, inside the ball
    stationarity: float   # largest first-order residual over the samples


@dataclass(frozen=True)
class CriticalFit:
    lambda_c: float
    beta: float
    window: tuple  # (lambda_lo, lambda_hi) actually used, ordered side only
    r_squared: float


@dataclass(frozen=True)
class SweepRecord:
    lam: float
    alpha_A: np.ndarray
    alpha_B: np.ndarray
    m: float
    m_s: float
    norm: float
    converged: bool
    restarts_used: int


@dataclass(frozen=True)
class MinimizeResult:
    ansatz: ProductAnsatz
    norm: float
    converged: bool
    restarts_used: int
    evaluations: int  # evaluations made: every restart, the polish's passes and trials, the final one
    stationarity: float  # first-order residual of the polish at the result
    multiplier: float  # kink multiplier t in [-1, 1], 0.0 where no eigenvalue is active


def mean_field_jump_term(c_bond, target_slot, neighbor_state, pair_state) -> np.ndarray:
    """Mean-field dissipator of a two-site jump with one leg on a neighbor.

    Built by the explicit 3-site route: embed the jump on (target, k),
    apply the dissipator to pair_state (x) rho_k on the 8-dimensional space,
    rho_k the state of the Bloch vector ``neighbor_state``, and trace out k.
    Works for arbitrary (non-product) pair states.
    """
    if target_slot not in ("i", "j"):
        raise ValueError("target_slot must be 'i' or 'j'")
    c_bond = np.asarray(c_bond, dtype=complex)
    rho_k = bloch_to_density(neighbor_state)
    three = kron(np.asarray(pair_state, dtype=complex), rho_k)  # sites (i, j, k)
    sites = [0, 2] if target_slot == "i" else [1, 2]
    c_full = embed(c_bond, sites, 3)
    return partial_trace(dissipator(c_full, three), [0, 1], 3)


def reduced_derivative(model: DissipativeModel, ansatz: ProductAnsatz) -> NormBreakdown:
    """The two-site reduced derivative K at the ansatz and its trace norm, from one compile of the model."""
    _check_ansatz(ansatz.kind, model.lattice.bipartite)
    k = CompiledBond(model).matrix(ansatz.alpha_A, ansatz.alpha_B)
    return NormBreakdown(total=k, total_norm=trace_norm_hermitian(k))


# ---------------------------------------------------------------------------
# compiled bond evaluator
#
# The bond derivative is a polynomial of degree <= 3 in the extended Bloch
# vectors a = (1, ax, ay, az) and b: bilinear terms from the bond's own
# generator (a_mu b_nu) and trilinear mean-field terms (a_mu b_nu b_s for
# the neighbor of slot i, a_mu b_nu a_s for the neighbor of slot j). The
# leading 1 of b absorbs the bilinear part into the a(x)b(x)b tensor, so the
# whole derivative is one 16x128 tensor W contracted with
# outer(a(x)b, [b; a]). The tests check it against a term-by-term assembly.
#
# W is linear in the generator, and the generator in each jump's rate, so
# a model's rate set compiles apart from the rest: W = P + rate A, P from
# the jumps at their own rates, A from the rate set at unit rate. Both are
# compiled in one stacked pass on all 128 columns, once per model, and
# every K of the engine is formed from one product onto [P | A] as
# P + rate A, so a model compiled once serves a whole sweep batch at each
# point's rate.
#
# Every state the minimizer visits has ay = by = 0: a rotation about z is a
# symmetry of the models it takes, so the sweeps fix that gauge, and both
# Landau maps lie in the x-z plane. There a and b keep (1, x, z), only 54
# of the 128 feature columns are nonzero, and those hold 27 distinct
# monomials, 10 where a = b. The engine works on these planar vectors
# (x, z) only: its tensor is the slice of W on those columns
# (``_PLANAR_COLUMNS``) folded onto one representative column per
# monomial, and it is real, K being real on that slice. Where a = b the
# bond matrix commutes with the swap of its sites, and in the basis
# (singlet, triplet) it is block diagonal, 1 + 3.
# A representative column is the product of three entries of [b; a]
# (``_FACTORS``), all gathered at once; the derivative rows apply the
# product rule to that gather and to the same gather of the directions.
# ---------------------------------------------------------------------------

def _monomials(uniform):
    """(columns, fold): the distinct monomials of the 54 planar feature columns.

    The planar columns are those of a (x) b (x) [b; a] left by ay = by = 0,
    in the order of ``_triple`` on a = (1, ax, az), b = (1, bx, bz).

    ``columns`` (M,) is the first column that carries each monomial and
    ``fold`` (M, 54) is 1 where a column carries monomial m. A column's
    monomial is its exponents of (ax, az, bx, bz), summed to (x, z) where
    alpha_B = alpha_A.
    """
    a = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]])  # exponents of 1, ax, az
    b = a[:, [2, 3, 0, 1]]
    exps = (a[:, None, None] + b[None, :, None] + np.vstack([b, a])[None, None, :]).reshape(54, 4)
    if uniform:
        exps = exps[:, :2] + exps[:, 2:]
    first = {}  # monomial -> its index, in order of first appearance
    monomial = np.array([first.setdefault(e, len(first)) for e in map(tuple, exps.tolist())])
    columns = np.unique(monomial, return_index=True)[1]
    return columns, (monomial == np.arange(len(columns))[:, None]).astype(float)


# per layout: 27 monomials for the bipartite ansatz, 10 for the uniform one
_MONOMIALS = {"uniform": _monomials(True), "bipartite": _monomials(False)}
# (3, M) per layout: the entries of [b; a] = (1, bx, bz, 1, ax, az) whose
# product is each representative column, its factors from a, b and [b; a]
_FACTORS = {kind: np.array(np.unravel_index(columns, (3, 3, 6))) + [[3], [0], [0]]
            for kind, (columns, _) in _MONOMIALS.items()}
# singlet, then the triplet |uu>, (|ud> + |du>)/sqrt 2, |dd>, as columns
_SINGLET_TRIPLET = np.array([[0.0, 1, 0, 0], [1, 0, 1, 0], [-1, 0, 1, 0], [0, 0, 0, 1]])
_SINGLET_TRIPLET[1:3] *= np.sqrt(0.5)
_SYMMETRY_RTOL = 1e-12  # a symmetry check fails beyond this times the largest entry checked


_PAULIS = np.array([pauli(name) for name in ("identity", "x", "y", "z")])
# the pair basis sigma_mu (x) sigma_nu / 4, a (row, col) x (mu, nu) matrix
_PAIR_BASIS = 0.25 * np.einsum("mpr,nqs->pqrsmn", _PAULIS, _PAULIS).reshape(16, 16)
# the 54 of W's 128 columns that ay = by = 0 reaches: a, b over (1, x, z), [b; a] over (1, bx, bz, 1, ax, az)
_PLANAR_COLUMNS = np.arange(128).reshape(4, 4, 8)[np.ix_([0, 1, 3], [0, 1, 3], [0, 1, 3, 4, 5, 7])].ravel()


def _bond_tensor(gens, half_zc):
    """W of each part: complex (part, 16, 128), columns in the order of ``_triple``.

    ``gens`` (part, bond | local, 16, 16) are each part's generators of the
    bond's own terms and of its single-site terms.
    """
    pair = (gens @ _PAIR_BASIS).reshape(2, 2, 2, 2, 2, 2, 4, 4)  # (part, bond | local, i, j, k, l, mu, nu)
    w_int = pair[:, 0] + pair[:, 1]
    t2 = np.einsum("pijkjmn->pikmn", pair[:, 0])  # bond image traced over slot 2
    # slot i feels t2[a, b] (x) rho_B: weights a_mu b_nu b_s
    w_ab_b = half_zc * np.einsum("pikmn,sjl->pijklmns", t2, _PAULIS)
    w_ab_b[..., 0] += w_int
    # slot j feels rho_A (x) t2[b, a]: weights a_mu b_nu a_s
    w_ab_a = half_zc * np.einsum("mik,pjlns->pijklmns", _PAULIS, t2)
    w = np.concatenate([w_ab_b, w_ab_a], axis=-1).reshape(2, 4, 4, -1)
    # Hermitian part folded in: x is real, so W x comes out Hermitian;
    # row 4 i + j of W gives K[i, j]
    return (0.5 * (w + w.transpose(0, 2, 1, 3).conj())).reshape(2, 16, -1)


class CompiledBond:
    """The bond derivative K(alpha_A, alpha_B) = P + rate A of any model, compiled once.

    A jump's shape is its arity: two-site (4x4) jumps enter both the bond's
    own generator and the mean-field terms; single-site (2x2) ones act on
    each slot of the bond and enter the bilinear part only. The compile
    folds the ``jump_terms`` into one Hermitian 16x128 tensor P and the
    unit-rate ``rate_jump_terms`` into A (0 for a model without a rate
    set), both in one stacked pass, and asks
    ``liouville.coherence_orders`` of each Liouvillian it builds whether it
    keeps the rotation about z. ``matrix`` forms the complex P + rate A at
    any state with the model's rate, read by ``norm`` and ``reduced_derivative``;
    ``tensor`` gives the engine's real [P | A] on the gauge-fixed slice.
    """

    def __init__(self, model: DissipativeModel):
        eye, zero = np.eye(2), np.zeros((4, 4))
        # (part, bond | local, 16, 16): part 0 (P) holds the jumps at their
        # own rates, part 1 (A) the rate set
        gens = np.zeros((2, 2, 16, 16), dtype=complex)
        self._z_symmetric = True  # until a generator W is linear in breaks the rotation about z
        for part, terms in enumerate((model.jump_terms, model.rate_jump_terms)):
            site = [c for c in terms if len(c) == 2]
            # the bond's own jumps, then the single-site jumps on both slots of the bond
            local = [kron(c, eye) for c in site] + [kron(eye, c) for c in site]
            for slot, cs in enumerate(([c for c in terms if len(c) != 2], local)):
                if cs:
                    liou = build_liouvillian(zero, cs)
                    gens[part, slot] = liou.matrix
                    self._z_symmetric &= coherence_orders(liou) is not None
        self.rate = model.rate
        self._w = _bond_tensor(gens, 0.5 * float(model.lattice.z - 1))  # (part, 16, 128)

    def matrix(self, alpha_a, alpha_b) -> np.ndarray:
        """The complex 4x4 K = P + rate A at any state, with the model's rate."""
        a, b = np.append(1.0, alpha_a), np.append(1.0, alpha_b)
        p, q = self._w @ _triple(a, b, np.concatenate([b, a]))
        return (p + self.rate * q).reshape(4, 4)

    def norm(self, alpha_a, alpha_b) -> float:
        """The bond norm at any state: the trace norm of ``matrix``."""
        return trace_norm_hermitian(self.matrix(alpha_a, alpha_b))

    def tensor(self, kind) -> np.ndarray:
        """The engine's real (M, 32) tensor [P | A]: ``_features(a, b, kind)`` @ it, then K = P + rate A, row-major.

        P and A folded onto the 27 monomials of the bipartite layout, or the
        10 of the uniform one, where they are also turned into the basis
        (singlet, triplet) with the coupling between the blocks set to
        exactly 0. ValueError where a jump has no one magnetization shift,
        breaking the rotation about z (the gauge the minimizer fixes; sigma_x
        with sigma_y too, though sqrt(2) sigma^+ with sqrt(2) sigma^- pass),
        or the fold drops more than rounding in either part: K is not real
        at ay = by = 0, or, uniform, the bond's sites are not swap-symmetric.
        """
        if not self._z_symmetric:
            raise ValueError("the model is not symmetric under rotations about z: give each jump one "
                             "magnetization shift (sigma_x, sigma_y as sqrt(2) sigma^+, sqrt(2) sigma^-)")
        w = self._w.take(_PLANAR_COLUMNS, axis=2)
        tol = _SYMMETRY_RTOL * np.abs(w).max(axis=(1, 2))[:, None, None]
        w = _MONOMIALS[kind][1] @ w.transpose(0, 2, 1)  # (part, M, 16)
        if (np.abs(w.imag) > tol).any():
            raise ValueError("the bond matrix is not real at ay = 0")
        w = w.real
        if kind == "uniform":
            w = _SINGLET_TRIPLET.T @ w.reshape(2, -1, 4, 4) @ _SINGLET_TRIPLET
            if (np.abs(w[:, :, 0, 1:]) > tol).any():
                raise ValueError("the bond's sites are not swap-symmetric")
            w[:, :, 0, 1:] = w[:, :, 1:, 0] = 0.0
        return np.concatenate(w.reshape(2, -1, 16), axis=1)


def _triple(x, y, z):
    """Feature rows x (x) y (x) z, x slowest, broadcast over leading axes."""
    t = x[..., :, None, None] * y[..., None, :, None] * z[..., None, None, :]
    return t.reshape(t.shape[:-3] + (-1,))


def _factors(lead, vec_a, vec_b, kind):
    """The factors from a, b and [b; a] of each monomial column of ``kind``: (n, 3, M).

    a = (lead, vec_a) and b = (lead, vec_b) at n planar rows (x, z): lead 1
    for states, 0 for the constant directions of their parameters. One
    gather of the rows [b; a] through ``_FACTORS``.
    """
    ba = np.full((len(vec_a), 6), lead, dtype=float)
    ba[:, 1:3] = vec_b
    ba[:, 4:] = vec_a
    return ba[:, _FACTORS[kind]]


def _features(alpha_a, alpha_b, kind) -> np.ndarray:
    """The monomial columns of ``kind`` of a (x) b (x) [b; a], a = (1, alpha_A), at planar vectors (x, z).

    Each is the product of its three factors in the order ``_triple``
    multiplies them, so it holds the same bits as its column there.
    """
    f = _factors(1.0, alpha_a, alpha_b, kind)
    return f[:, 0] * f[:, 1] * f[:, 2]


def _spectra(products) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric 4x4 matrices ``products`` (n, 4, 4).

    A uniform bond's matrix is singlet (+) triplet, with exact zeros between
    the blocks, which the solver's reduction skips: it costs less than on
    the product basis, and no more than the singlet entry plus a 3x3
    eigvalsh merged in order.
    """
    return np.linalg.eigvalsh(products)


def _bond_matrices(tensor, rates, features) -> np.ndarray:
    """K = P + rate A of feature rows (n, M) or stacks (n, m, M), row or stack k at ``rates[k]``: (n, [m,] 4, 4).

    One (rows, M) @ (M, 32) product onto the bond's ``tensor`` [P | A],
    then P + rate A elementwise, whatever the rows' rates. A row's value
    does not depend on the other rows: numpy sends a one-row product
    through gemv, which rounds unlike the gemm of every longer batch, so a
    single row is padded to two; the output width 32 is one at which
    OpenBLAS's gemm rounds every row alike (with 27 monomials, widths 9, 10
    and 12 give the first row other bits at most call sizes); and the sum
    is elementwise.
    """
    rows = features.reshape(-1, features.shape[-1])
    y = (np.repeat(rows, 2, axis=0) @ tensor)[:1] if len(rows) == 1 else rows @ tensor
    rates = rates if features.ndim == 2 else np.repeat(rates, features.shape[1])
    return (y[:, :16] + rates[:, None] * y[:, 16:]).reshape(features.shape[:-1] + (4, 4))


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def _project_rows(alpha):
    """Rows pulled radially into the unit ball, and 100 (r - 1)^2 for those outside."""
    r = np.maximum(np.sqrt((alpha * alpha).sum(axis=1)), 1.0)  # x / 1.0 is exact
    return alpha / r[:, None], 100.0 * (r - 1.0) ** 2


@dataclass(frozen=True)
class _AffineMap:
    """Planar Bloch vector rows (x D_A + o_A[s], x D_B + o_B[s]) of parameter rows x of problems s.

    A planar vector is (x, z): the y component is 0 on every map. D is a
    0/1 selection, held as the column of [x, 0] that each component takes
    (index d takes the 0), so the components are copied from x exactly;
    ``take_b`` None means alpha_B = alpha_A (the uniform ansatz and
    layout). The offsets o (S, 2) belong to each problem, None for none.
    """

    take_a: np.ndarray
    take_b: np.ndarray | None = None
    off_a: np.ndarray | None = None
    off_b: np.ndarray | None = None

    @property
    def kind(self) -> str:
        """The layout of ``CompiledBond.tensor`` its problems take."""
        return "uniform" if self.take_b is None else "bipartite"

    def __call__(self, rows, x):
        ext = np.zeros((len(x), x.shape[1] + 1))
        ext[:, :-1] = x
        a = ext.take(self.take_a, axis=1)
        if self.off_a is not None:
            a += self.off_a[rows]
        if self.take_b is None:
            return a, a
        b = ext.take(self.take_b, axis=1)
        if self.off_b is not None:
            b += self.off_b[rows]
        return a, b

    def directions(self, dim):
        """D_A and D_B (dim, 2), the derivatives of the planar vectors by x."""
        eye = np.eye(dim + 1)[:dim]
        dirs_a = eye.take(self.take_a, axis=1)
        return dirs_a, (dirs_a if self.take_b is None else eye.take(self.take_b, axis=1))


def _sweep_map(kind) -> _AffineMap:
    """The minimizer's parameters: (ax, az) per sublattice, with ay = 0.

    A rotation about z is a symmetry of the norm (``CompiledBond.tensor``
    refuses a model without it), so ay = 0 on one sublattice loses
    nothing; for the bipartite ansatz it also fixes the sublattices'
    relative in-plane angle to 0 or pi.
    """
    if kind == "uniform":
        return _AffineMap(np.array([0, 1]))
    return _AffineMap(np.array([0, 1]), np.array([2, 3]))


# scipy's Nelder-Mead coefficients (reflection, expansion, contraction,
# shrink) and initial simplex steps
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
# the second trial point of an iteration is C1 xbar - C2 worst, indexed by
# the reflection's class: inside contraction, outside contraction, (accepted
# reflection, no second point), expansion
_C1 = np.array([1 - _PSI, 1 + _PSI * _RHO, np.nan, 1 + _RHO * _CHI])
_C2 = np.array([-_PSI, _PSI * _RHO, np.nan, _RHO * _CHI])
# stage 1 of the minimizers only ranks the restart basins and the Newton
# polish gives the digits, so it stops at basin resolution
_RANK_OPTIONS = dict(xatol=1e-4, fatol=1e-7, maxiter=2000)


@dataclass(frozen=True)
class _SimplexResult:
    x: np.ndarray        # (S, d) best vertex of each simplex
    fun: np.ndarray      # (S,)
    nfev: np.ndarray     # (S,) evaluations made
    nit: np.ndarray      # (S,) iterations, counted as scipy counts them
    success: np.ndarray  # (S,) converged before maxiter


def _sorted(sim, fsim):
    """Each simplex's vertices in ascending order of value (scipy's argsort)."""
    ind = fsim.argsort(axis=1)
    rows = np.arange(len(fsim))[:, None]
    return sim[rows, ind], fsim[rows, ind]


def _nelder_mead(fun, x0, xatol, fatol, maxiter) -> _SimplexResult:
    """scipy's Nelder-Mead run on S independent problems at once.

    ``fun(rows, x)`` returns the objective of the points x (n, d), where
    point k belongs to problem ``rows[k]``; rows always come in ascending
    order. Each problem follows scipy's ``minimize(method="Nelder-Mead")``
    with ``maxiter`` and no ``maxfev`` step by step from its start
    ``x0[s]``: same initial simplex, coefficients, convergence test, sort
    and cap, so with an objective whose rows do not depend on each other
    every result is the one scipy gives. Per iteration the
    reflections of all live simplices are one batch, written into their
    worst vertices at once; the expansions and contractions they call for
    are a second, formed only for those simplices; the shrinks of failed
    contractions are a third. A simplex leaves the live set once it converges or reaches
    ``maxiter``, after at most (d + 1) + maxiter (d + 2) evaluations. Its
    best value never rises, so ``fun`` is at most the objective at its
    start.
    """
    x0 = np.asarray(x0, dtype=float)
    count, dim = x0.shape
    sim = np.repeat(x0[:, None, :], dim + 1, axis=1)
    k = np.arange(dim)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + _NONZDELT) * x0, _ZDELT)
    fsim = fun(np.repeat(np.arange(count), dim + 1),
               sim.reshape(-1, dim)).reshape(count, dim + 1)
    sim, fsim = _sorted(*_sorted(sim, fsim))  # scipy sorts twice here
    nfev = np.full(count, dim + 1)
    nit = 1  # every live simplex has made the same number of iterations

    live = np.arange(count)  # problem index of each row of the live arrays
    ranks = np.array([0, dim - 1, dim])  # best, second worst and worst vertex
    x_out, f_out = np.empty((count, dim)), np.empty(count)
    nfev_out, nit_out = np.empty(count, dtype=int), np.empty(count, dtype=int)
    ok_out = np.empty(count, dtype=bool)
    while live.size:
        # scipy's test: max |f0 - fk| <= fatol and max |x0 - xk| <= xatol. The
        # values are sorted and rounding is monotone, so the first is f-1 - f0;
        # the second runs only on the rows that pass it
        conv = (fsim[:, -1] - fsim[:, 0] <= fatol).nonzero()[0]
        if conv.size:
            conv = conv[np.abs(sim[conv, 1:] - sim[conv, :1]).max(axis=(1, 2)) <= xatol]
        capped = nit >= maxiter
        if capped or conv.size:
            done = np.full(len(live), capped)
            done[conv] = True
            ids = live[done]
            x_out[ids], f_out[ids] = sim[done, 0], fsim[done].min(axis=1)
            nfev_out[ids], nit_out[ids], ok_out[ids] = nfev[done], nit, not capped
            keep = ~done
            live, sim, fsim, nfev = live[keep], sim[keep], fsim[keep], nfev[keep]
            if not live.size:
                break

        xbar = sim[:, :-1].sum(axis=1) / dim
        worst = sim[:, -1].copy()
        sim[:, -1] = (1 + _RHO) * xbar - _RHO * worst
        fxr = fun(live, sim[:, -1])
        nfev += 1
        # the class of the reflection is 3 minus the first of f0, f-2, f-1 it
        # lies below: 3 expansion, 2 accepted, 1 outside contraction, 0 inside
        # contraction (below none). On sorted values it is the count of those
        # it lies below; a NaN, sorted last, breaks that order, not this
        fcmp = fsim[:, ranks]
        cls = np.logical_or.accumulate(fxr[:, None] < fcmp, axis=1).sum(axis=1)
        fsim[:, -1] = fxr
        second = (cls != 2).nonzero()[0]
        if second.size:
            c = cls[second]
            x2 = _C1[c][:, None] * xbar[second] - _C2[c][:, None] * worst[second]
            f2 = fun(live[second], x2)
            nfev[second] += 1
            # taken if below fsim[-1] (inside), at most fxr (outside), below fxr (expansion)
            bound = np.where(c == 0, fcmp[second, 2], fxr[second])
            take = np.where(c == 1, f2 <= bound, f2 < bound)
            sim[second[take], -1], fsim[second[take], -1] = x2[take], f2[take]
            # a failed contraction shrinks the simplex towards its best vertex
            shrink = second[~take & (c < 2)]
            if shrink.size:
                sim[shrink, -1] = worst[shrink]
                best = sim[shrink, :1]
                sim[shrink, 1:] = best + _SIGMA * (sim[shrink, 1:] - best)
                fsim[shrink, 1:] = fun(np.repeat(live[shrink], dim),
                                       sim[shrink, 1:].reshape(-1, dim)).reshape(-1, dim)
                nfev[shrink] += dim
        nit += 1
        sim, fsim = _sorted(sim, fsim)

    return _SimplexResult(x_out, f_out, nfev_out, nit_out, ok_out)


# ---------------------------------------------------------------------------
# kink-aware Newton polish
#
# At a minimum of the bond norm sum_i |lambda_i(K)| either no eigenvalue of
# K vanishes and the norm is smooth, or exactly one does and the minimum
# sits on a kink. The polish takes Newton steps on sum_i s_i lambda_i,
# s_i = sign(lambda_i), in the first case; in the second it solves the KKT
# system of min sum_{i != 0} s_i lambda_i subject to lambda_0 = 0, whose
# multiplier t certifies the minimum when |t| <= 1 (the eigenvalue-sum
# optimality condition of Overton & Womersley, Math. Program. 62, 321
# (1993)). K = (P + rate A) phi(x) with phi trilinear in (a, b, [b; a]), all
# affine in the parameters x, so dK and d2K are exact products of the same
# [P | A], combined at the same rate.
# ---------------------------------------------------------------------------

_NEWTON_MAXITER = 50  # derivative passes a row may take
_NEWTON_XTOL = 1e-12  # a step or line-search trial shorter than this ends a row
_NEWTON_FTOL = 4 * np.finfo(float).eps  # a decrease left below this * norm ends a row
_KINK_RTOL = 1e-3     # |lambda_0| <= this * max |lambda| may be an active kink
_SOLVE_RCOND = 1e-12  # relative eigenvalue cut of the least-squares solves
_DARK_NORM = 1e-13    # a norm below this is numerically dark: a global minimum
_GN_FIT = 0.1         # a Gauss-Newton trial where the linear model leaves at most this of |K|


@dataclass(frozen=True)
class _PolishResult:
    x: np.ndarray             # (S, d) final parameters
    fun: np.ndarray           # (S,) penalized norm, never above the start's
    nfev: np.ndarray          # (S,) derivative passes plus line-search trials
    success: np.ndarray       # (S,) stopped by its own test before the cap, inside the ball
    stationarity: np.ndarray  # (S,) first-order residual at x
    multiplier: np.ndarray    # (S,) kink multiplier t at x, 0 where no kink is active


@dataclass(frozen=True)
class _NewtonStep:
    step: np.ndarray          # (n, d)
    active: np.ndarray        # (n,) the smallest |lambda| is an active kink
    kink: np.ndarray          # (n,) index of that eigenvalue in ascending order
    kink_grad: np.ndarray     # (n, d) its gradient gc
    stationarity: np.ndarray  # (n,) |g_F + t gc| on active rows, |g| elsewhere
    multiplier: np.ndarray    # (n,) t on active rows, else 0
    decrease: np.ndarray      # (n,) decrease of the norm the quadratic model predicts for the step


def _penalized_spectra(tensor, rates, pmap):
    """fun(rows, x): penalized norms and eigenvalues at parameter rows x of problems ``rows``.

    ``pmap`` is the problems' ``_AffineMap``, ``tensor`` their bond's
    ``tensor(pmap.kind)`` and ``rates`` their rates; a Bloch vector outside
    the unit ball at radius r is pulled onto it and adds 100 (r - 1)^2.
    """
    def fun(rows, x):
        a, b = pmap(rows, x)
        # a call whose rows all lie in the ball skips the projection, which
        # would divide them by 1.0 and add 0.0, both exact; a uniform map's
        # one vector is projected once
        inside = (a * a).sum(axis=1).max() <= 1.0 and (b is a or (b * b).sum(axis=1).max() <= 1.0)
        if not inside:
            a, pen_a = _project_rows(a)
            b, pen_b = (a, pen_a) if b is a else _project_rows(b)
        lam = _spectra(_bond_matrices(tensor, rates[rows], _features(a, b, pmap.kind)))
        norms = np.abs(lam).sum(axis=1)
        return (norms if inside else norms + (pen_a + pen_b)), lam
    return fun


def _derivative_features(alpha_a, alpha_b, dirs_a, dirs_b, kind) -> np.ndarray:
    """Feature rows of K, dK/dx_k and d2K/dx_k dx_l (k <= l) at n planar states.

    The product rule on the factors of ``_features`` and on those of the
    parameters' constant directions ``dirs_a`` and ``dirs_b`` (d, 2). Each
    term multiplies in ``_triple``'s order, so the K rows are bitwise the
    K of the norm. Shape (n, 1 + d + p, M), p = d (d + 1) / 2 pairs in
    ``np.triu_indices`` order, M the monomials of ``kind``.
    """
    a, b, c = _factors(1.0, alpha_a, alpha_b, kind)[:, :, None].swapaxes(0, 1)
    da, db, dc = _factors(0.0, dirs_a, dirs_b, kind).swapaxes(0, 1)
    k, l = np.triu_indices(len(da))
    ab = a * b
    grad = da * b * c + a * db * c + ab * dc
    hess = (da[k] * db[l] * c + da[l] * db[k] * c + da[k] * b * dc[l] + da[l] * b * dc[k]
            + a * db[k] * dc[l] + a * db[l] * dc[k])
    return np.concatenate([ab * c, grad, hess], axis=1)


def _newton_step(mats, dim) -> _NewtonStep:
    """Kink-aware Newton step from K, dK and d2K (``_bond_matrices`` of ``_derivative_features``)."""
    kmat, dk, ddk = mats[:, 0], mats[:, 1:dim + 1], mats[:, dim + 1:]
    n = len(mats)
    rows = np.arange(n)
    lam, u = np.linalg.eigh(kmat)
    m = u.swapaxes(-1, -2)[:, None] @ dk @ u[:, None]   # M_k = U^T dK_k U
    grads = np.diagonal(m, axis1=-2, axis2=-1)           # (n, d, 4) d lambda_i / dx_k
    curv = np.einsum("npi,nmpq,nqi->nmi", u, ddk, u)     # diag(U^T d2K U)

    i0 = np.abs(lam).argmin(axis=1)
    weights = np.where(lam < 0, -1.0, 1.0)
    s0 = weights[rows, i0]
    weights[rows, i0] = 0.0
    g_f = np.einsum("nki,ni->nk", grads, weights)  # gradient of sum_{i != i0} s_i lambda_i
    gc = grads[rows, :, i0]
    gc2 = (gc * gc).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -(g_f * gc).sum(axis=1) / gc2  # least-squares multiplier; NaN where gc = 0
    active = ((np.abs(lam[rows, i0]) <= _KINK_RTOL * np.abs(lam).max(axis=1))
              & (gc2 > 0) & (np.abs(t) <= 1))
    t = np.where(active, t, 0.0)
    weights[rows, i0] = np.where(active, t, s0)
    grad = g_f + weights[rows, i0][:, None] * gc  # the Lagrangian's gradient, or the plain one

    # Hessian of sum_i w_i lambda_i: sum_i w_i diag(U^T d2K U)_i
    # + sum_{i != j} (w_i - w_j) / (lambda_i - lambda_j) (M_k)_ij (M_l)_ji
    dw = weights[:, :, None] - weights[:, None, :]
    dl = lam[:, :, None] - lam[:, None, :]
    coupling = np.divide(dw, dl, out=np.zeros_like(dw), where=(dw != 0) & (dl != 0))
    k, l = np.triu_indices(dim)
    hess = np.empty((n, dim, dim))
    hess[:, k, l] = hess[:, l, k] = np.einsum("npi,ni->np", curv, weights)
    hess += np.einsum("nij,nkij,nlji->nkl", coupling, m, m)

    # active rows: [[H, gc], [gc^T, 0]] (dx, t') = (-g_F, -lambda_0); the
    # others carry a zero border and solve H dx = -g
    kkt = np.zeros((n, dim + 1, dim + 1))
    kkt[:, :dim, :dim] = hess
    kkt[active, :dim, dim] = kkt[active, dim, :dim] = gc[active]
    rhs = np.zeros((n, dim + 1))
    rhs[:, :dim] = -np.where(active[:, None], g_f, grad)
    rhs[active, dim] = -lam[rows, i0][active]
    mu, q = np.linalg.eigh(kkt)
    scale = np.abs(mu).max(axis=1)
    # a positive-definite shift where the plain Hessian is not
    shift = ~active & (mu[:, 0] < -_SOLVE_RCOND * scale)
    mu = mu - np.where(shift, 2.0 * mu[:, 0], 0.0)[:, None]
    # least squares: directions with |mu| below the cut get no step
    keep = np.abs(mu) > _SOLVE_RCOND * np.abs(mu).max(axis=1)[:, None]
    inv = np.divide(1.0, mu, out=np.zeros_like(mu), where=keep)
    coef = (q.swapaxes(1, 2) @ rhs[:, :, None])[:, :, 0] * inv
    step = (q @ coef[:, :, None])[:, :dim, 0]
    # the model: g.dx + dx.H dx / 2, on active rows plus the change of |lambda_0 + gc.dx|
    lam0 = lam[rows, i0]
    decrease = (np.where(active, np.abs(lam0) - np.abs(lam0 + (gc * step).sum(axis=1)), 0.0)
                + (rhs[:, :dim] * step).sum(axis=1)
                - 0.5 * np.einsum("nk,nkl,nl->n", step, hess, step))
    return _NewtonStep(step, active, i0, gc, np.sqrt((grad * grad).sum(axis=1)), t, decrease)


def _gauss_newton_step(mats, dim):
    """Least-squares step of K + sum_k dx_k dK_k = 0 from K and dK, and the fit it leaves.

    The fit is |K + dK dx| / |K| in the Frobenius norm: near 0 where the
    linear model zeroes K, as on the manifold of dark states, where every
    eigenvalue of K vanishes and the one-kink model of ``_newton_step``
    has nothing to hold on to; near 1 at a minimum with a nonzero norm.
    NaN where K is exactly 0.
    """
    n = len(mats)
    kvec = mats[:, 0].reshape(n, 16)
    jac = mats[:, 1:dim + 1].reshape(n, dim, 16).swapaxes(1, 2)
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    # directions with a singular value below the cut (along the dark
    # manifold) get no step
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > _SOLVE_RCOND * s[:, :1])
    coef = (u.swapaxes(1, 2) @ kvec[:, :, None]) * inv[:, :, None]
    step = -(vt.swapaxes(1, 2) @ coef)[:, :, 0]
    left = kvec + (jac @ step[:, :, None])[:, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        fit = np.sqrt((left * left).sum(axis=1) / (kvec * kvec).sum(axis=1))
    return step, fit


def _newton_polish(tensor, rates, pmap, x0, f0) -> _PolishResult:
    """Kink-aware Newton descent of S problems at once from x0 with penalized norms f0.

    Problem s is the bond ``tensor`` at ``rates[s]`` under the
    parameterization ``pmap`` (an ``_AffineMap``). Each
    iteration is one derivative pass for every live row; the step is
    backtracked (1, 1/2, ...) on the true penalized norm and taken at the
    first trial that lowers it; on an active kink each trial also tries
    one second-order correction back onto lambda_0 = 0 and keeps the lower
    of the two. Where the linear model of K zeroes K to within a tenth of
    it, the pass first tries the Gauss-Newton step onto K = 0 and, if that
    lowers the norm, takes it instead. A row stops (success) when its norm
    is below the dark level 1e-13 after that trial, with stationarity 0.0
    (the norm is >= 0, so 0 is in its subdifferential there); when no
    trial of at least 1e-12 lowers its norm, when its step is shorter than
    that, or when the decrease its quadratic model predicts, plus on an
    active kink the |lambda_0| the norm itself last saw there, is at most
    4 eps times the norm; else after 50 passes. A row's value never rises.
    A row whose Bloch vectors end more than 1e-9 outside the unit ball is
    no success however it stopped: the penalty's kink at |alpha| = 1 is not
    in the model, so the stop test can pass there off any minimum.
    """
    count, dim = x0.shape
    fun = _penalized_spectra(tensor, rates, pmap)
    dirs_a, dirs_b = pmap.directions(dim)
    x, f = np.array(x0, dtype=float), np.array(f0, dtype=float)
    nfev, passes = np.zeros(count, dtype=int), 0  # every live row has made `passes` passes
    success = np.zeros(count, dtype=bool)
    stationarity, multiplier = np.zeros(count), np.zeros(count)
    kink_at = np.full(count, np.nan)  # smallest |lambda| the norm saw at x, once a step is taken
    live = np.arange(count)
    while live.size:
        a, b = pmap(live, x[live])
        mats = _bond_matrices(tensor, rates[live], _derivative_features(a, b, dirs_a, dirs_b, pmap.kind))
        newton = _newton_step(mats, dim)
        nfev[live] += 1
        passes += 1
        stationarity[live], multiplier[live] = newton.stationarity, newton.multiplier

        gn_step, gn_fit = _gauss_newton_step(mats, dim)
        jumped = np.zeros(len(live), dtype=bool)
        trial = np.flatnonzero(gn_fit <= _GN_FIT)  # False for a NaN fit
        if trial.size:
            ids = live[trial]
            xt = x[ids] + gn_step[trial]
            ft, lam = fun(ids, xt)
            nfev[ids] += 1
            lower = ft < f[ids]
            x[ids[lower]], f[ids[lower]] = xt[lower], ft[lower]
            kink_at[ids[lower]] = np.abs(lam[lower]).min(axis=1)
            jumped[trial[lower]] = True
        dark = f[live] < _DARK_NORM
        stationarity[live[dark]] = multiplier[live[dark]] = 0.0

        length = np.sqrt((newton.step * newton.step).sum(axis=1))
        # the model's decrease is below the norm's rounding; on a kink the
        # norm's own lambda_0 must be too: the KKT solve meets the linearized
        # lambda_0 = 0 only to ~1e-15, so a correction onto it can still lower f
        tol = _NEWTON_FTOL * f[live]
        spent = np.abs(newton.decrease) + np.where(newton.active, kink_at[live], 0.0) <= tol
        moves = (length >= _NEWTON_XTOL) & ~spent  # False for a NaN step too
        success[live[dark | ~(moves | jumped)]] = True
        uncapped = passes < _NEWTON_MAXITER
        # a row that took the Gauss-Newton step starts its next pass there
        again = jumped & ~dark & uncapped
        go = moves & ~jumped & ~dark & uncapped
        rows = live[go]
        step, length = newton.step[go], length[go]
        active, kink, gc = newton.active[go], newton.kink[go], newton.kink_grad[go]

        lowered = np.zeros(len(rows), dtype=bool)
        trying = np.arange(len(rows))
        scale = 1.0
        while trying.size:
            ids = rows[trying]
            xt = x[ids] + scale * step[trying]
            ft, lam = fun(ids, xt)
            nfev[ids] += 1
            soc = np.flatnonzero(active[trying])
            if soc.size:
                g = gc[trying[soc]]
                lam0 = lam[soc, kink[trying[soc]]]
                xc = xt[soc] - (lam0 / (g * g).sum(axis=1))[:, None] * g
                fc, lamc = fun(ids[soc], xc)
                nfev[ids[soc]] += 1
                better = fc < ft[soc]
                xt[soc[better]], ft[soc[better]] = xc[better], fc[better]
                lam[soc[better]] = lamc[better]
            lower = ft < f[ids]
            x[ids[lower]], f[ids[lower]] = xt[lower], ft[lower]
            kink_at[ids[lower]] = np.abs(lam[lower]).min(axis=1)
            lowered[trying[lower]] = True
            scale *= 0.5
            trying = trying[~lower & (scale * length[trying] >= _NEWTON_XTOL)]
        success[rows[~lowered]] = True
        again[np.flatnonzero(go)[lowered]] = True
        live = live[again]
    a, b = pmap(np.arange(count), x)
    radius = np.sqrt(np.maximum((a * a).sum(axis=1), (b * b).sum(axis=1)))
    success &= radius <= 1 + BALL_TOL
    return _PolishResult(x, f, nfev, success, stationarity, multiplier)


# fixed restart directions, whole Bloch vectors: alpha, or (alpha_A, alpha_B)
_FIXED_STARTS = {
    "uniform": np.array([
        (0.9, 0.0, 0.0),
        (-0.9, 0.0, 0.0),
        (0.0, 0.0, 0.9),
        (0.0, 0.0, -0.9),
        (0.5, 0.0, 0.5),
        (0.0, 0.0, 0.0),
    ]),
    "bipartite": np.array([
        (0.9, 0, 0, 0.9, 0, 0),
        (-0.9, 0, 0, -0.9, 0, 0),
        (0, 0, 0.9, 0, 0, -0.9),   # Neel
        (0, 0, -0.9, 0, 0, 0.9),
        (0.5, 0, 0.3, 0.5, 0, -0.3),
        (0, 0, 0, 0, 0, 0),
    ], dtype=float),
}
_GAUGE_COLUMNS = {"uniform": [0, 2], "bipartite": [0, 2, 3, 5]}  # (ax, az) per vector


def _start_points(kind, restarts, rng) -> np.ndarray:
    """(restarts, d) starts: the fixed directions padded with seeded random interior points.

    Both are drawn as whole Bloch vectors and keep their (ax, az) columns.
    """
    fixed = _FIXED_STARTS[kind]
    extra = rng.uniform(-0.7, 0.7, (max(restarts - len(fixed), 0), fixed.shape[1]))
    return np.vstack([fixed, extra])[:restarts, _GAUGE_COLUMNS[kind]]


def minimize_norm(
    model: DissipativeModel,
    kind: str = "uniform",
    restarts: int = 8,
    seed: int = 0,
) -> MinimizeResult:
    """Minimize the bond norm over product ansaetze of the given kind.

    Derivative-free simplex descent from fixed restart directions plus
    seeded random interiors; |alpha| <= 1 enforced by radial projection with
    a quadratic penalty outside the ball. All restarts descend together to
    basin resolution (xatol 1e-4, fatol 1e-7, capped only by ``maxiter``);
    the first strictly best one is polished by the kink-aware Newton
    method, at most 50 derivative passes, whose value never rises above the
    winner's. ``converged`` says the polish stopped by its own test (the
    norm is dark, below 1e-13; no backtracked step lowers the norm; the
    step is below 1e-12; or the decrease left is below the norm's rounding)
    before that cap, with the polished Bloch vectors at most 1e-9 outside
    the unit ball; ``stationarity`` is its first-order residual at the
    result, min over |t| <= 1 of |g_F + t gc| on an active kink (g_F the
    gradient of the other eigenvalues' signed sum, gc that of the vanishing
    one), 0.0 at a dark norm and the plain gradient's length elsewhere;
    ``multiplier`` is t, or 0.0 without an active kink. ``evaluations``
    counts every evaluation made: all restarts (also those that ran past an
    early stop at a dark minimum), each derivative pass, line-search trial
    and Gauss-Newton trial of the polish, and the final norm. Deterministic
    for a fixed seed. Non-convergence is flagged on the result, never
    raised. A sweep point is exactly this minimization, run in a batch with
    its neighbors. The minimization fixes ay = 0; ValueError for a model
    where that could change the minimum (``CompiledBond.tensor``).
    """
    return _minimize_batch(model, [model.rate], kind, restarts, [seed])[0]


def _descend(tensor, rates, pmap, starts, restarts):
    """Both stages of the minimizer on S problems at once: (polish, restarts used, evaluations).

    Every problem is the bond ``tensor``; problem s owns rows
    s R ... s R + R - 1 of ``starts`` (R = ``restarts``), the rate
    ``rates[s]`` and the offsets of s in ``pmap``. Stage 1
    runs every row through one ``_nelder_mead`` at basin resolution; each
    problem's first strictly best restart is polished by one batched
    ``_newton_polish``, which only takes steps that lower the norm, so it
    ends no higher. A problem's result depends only on its own rows.
    """
    count = len(rates)
    problem = np.repeat(np.arange(count), restarts)
    spectra = _penalized_spectra(tensor, rates, pmap)
    rank = _nelder_mead(lambda rows, x: spectra(problem[rows], x)[0], starts, **_RANK_OPTIONS)
    # stage 1 only ranks the basins: over full 0-2 sweeps and the A2 and A3
    # windows at 1e-3 steps, the best restart that polishes into another
    # basin ended stage 1 at least 9.3e2 times the winner's stage-1 error
    # above the winner
    fun = rank.fun.reshape(count, restarts)
    # a numerically dark minimum cannot be improved: the ranking stops at the
    # first one and later restarts do not count (they ran alongside, so
    # their evaluations do)
    dark = np.minimum.accumulate(fun, axis=1) < _DARK_NORM
    used = np.where(dark.any(axis=1), dark.argmax(axis=1) + 1, restarts)
    best = np.where(np.arange(restarts) < used[:, None], fun, np.inf).argmin(axis=1)
    winners = np.arange(count) * restarts + best
    polish = _newton_polish(tensor, rates, pmap, rank.x[winners], rank.fun[winners])
    return polish, used, rank.nfev.reshape(count, restarts).sum(axis=1) + polish.nfev


def _check_ansatz(kind, bipartite):
    """ValueError for an unknown ansatz kind, or a bipartite one on a non-bipartite lattice."""
    if kind not in ("uniform", "bipartite"):
        raise ValueError(f"unknown ansatz kind {kind!r}")
    if kind == "bipartite" and not bipartite:
        raise ValueError("bipartite ansatz requested on a non-bipartite lattice")


def _minimize_batch(model, rates, kind, restarts, seeds) -> list:
    """``minimize_norm`` of ``model`` with its rate set at each of ``rates``, each with its seed, in one ``_descend``.

    The model is compiled once; ``model.rate`` is not read. A rate's result
    depends only on its own rows, so it is ``minimize_norm`` of the model at
    that rate. ValueError for a rate that is negative or not finite, and
    for a model whose ``CompiledBond.tensor`` refuses the gauge fixing.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    _check_ansatz(kind, model.lattice.bipartite)
    for rate in rates:
        check_rate(rate)
    tensor = CompiledBond(model).tensor(kind)
    rates = np.array(rates, dtype=float)
    starts = np.vstack([_start_points(kind, restarts, np.random.default_rng(seed))
                        for seed in seeds])
    pmap = _sweep_map(kind)
    polish, used, evaluations = _descend(tensor, rates, pmap, starts, restarts)
    a, b = pmap(None, polish.x)
    a, _ = _project_rows(a)
    b, _ = _project_rows(b)
    norms = np.abs(_spectra(_bond_matrices(tensor, rates, _features(a, b, kind)))).sum(axis=1)
    a, b = np.insert(a, 1, 0.0, axis=1), np.insert(b, 1, 0.0, axis=1)  # ay = 0
    return [
        MinimizeResult(
            ansatz=(ProductAnsatz.uniform(a[p]) if kind == "uniform"
                    else ProductAnsatz.bipartite(a[p], b[p])),
            norm=float(norms[p]),
            converged=bool(polish.success[p]),
            restarts_used=int(used[p]),
            evaluations=int(evaluations[p]) + 1,  # and the final norm
            stationarity=float(polish.stationarity[p]),
            multiplier=float(polish.multiplier[p]),
        )
        for p in range(len(rates))
    ]


def order_parameters(ansatz: ProductAnsatz):
    """(m, m_s): mean in-plane magnetization and staggered z magnetization."""
    a, b = ansatz.alpha_A, ansatz.alpha_B
    m = 0.5 * (np.hypot(a[0], a[1]) + np.hypot(b[0], b[1]))
    m_s = 0.5 * abs(a[2] - b[2])
    return float(m), float(m_s)


# ---------------------------------------------------------------------------
# lambda sweeps
# ---------------------------------------------------------------------------

_GRID_SLACK = 1e-9  # lambda_max counts as reached within this slack
ONSET = 1e-4  # an order parameter above this is ordered: the sweep's refinement and the fit's bracket


def grid_size(lambda_min: float, lambda_max: float, step: float) -> int:
    """Number of points of ``sweep_grid``, counted without building it.

    The grid holds every lambda_min + k * step <= lambda_max + 1e-9. The
    division can round across that bound at the last point, so the count
    it gives is checked against the inequality itself. ValueError for a
    step that is not finite and positive (with an infinite one the first
    point, lambda_min + 0 * step, is NaN), or a NaN span (lambda_max -
    lambda_min) / step: a NaN bound or both bounds the same infinity.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and positive, not {step}")
    top = lambda_max + _GRID_SLACK
    span = (top - lambda_min) / step
    if math.isnan(span):
        raise ValueError(f"(lambda_max - lambda_min) / step = ({lambda_max} - {lambda_min}) / {step} is NaN")
    if span < 0:  # empty range
        return 0
    n = math.floor(min(span, 2.0**62)) + 1  # an infinite span is over any cap
    if lambda_min + (n - 1) * step > top:
        return n - 1
    if lambda_min + n * step <= top:
        return n + 1
    return n


def sweep_grid(lambda_min: float, lambda_max: float, step: float) -> list:
    """lambda_min + k * step up to lambda_max, rounded to 9 digits."""
    n = grid_size(lambda_min, lambda_max, step)
    return [round(lambda_min + k * step, 9) for k in range(n)]


def _point_seed(seed: int, lam: float) -> int:
    # stable per-coupling seed so results never depend on evaluation order
    return (seed * 1_000_003 + int(round(lam * 1e6))) % 2**32


def _sweep_chunk(task) -> list:
    lams, lattice, kind, restarts, seed = task
    # one compile for the batch: its rate set runs at each point's lambda
    results = _minimize_batch(
        dissipative_heisenberg(0.0, lattice), lams,
        kind, restarts, [_point_seed(seed, lam) for lam in lams],
    )
    records = []
    for lam, res in zip(lams, results):
        m, m_s = order_parameters(res.ansatz)
        records.append(SweepRecord(
            lam=lam,
            alpha_A=res.ansatz.alpha_A,
            alpha_B=res.ansatz.alpha_B,
            m=m,
            m_s=m_s,
            norm=res.norm,
            converged=res.converged,
            restarts_used=res.restarts_used,
        ))
    return records


# restart simplices per descent at most: a sweep is one batch per worker up to
# this, and MAX_SWEEP_POINTS x MAX_RESTARTS of the CLI cannot allocate unbounded
_BATCH_SIMPLICES = 2048


def sweep(
    lambda_min: float,
    lambda_max: float,
    step: float,
    lattice: LatticeSpec,
    kind: str,
    restarts: int = 8,
    seed: int = 0,
    jobs: int = 1,
    refine: bool = True,
) -> list:
    """Minimize the Heisenberg bond norm on a lambda grid, sorted by lambda.

    Each point derives its own seed from ``seed`` and its coupling, and
    its record is exactly ``minimize_norm`` with that seed. The grid is cut
    into one contiguous batch per worker process (``jobs``, at most one per
    point and CPU), or into more where a batch would hold over 2048 restart
    simplices; each batch is one batched descent. A point's result depends
    only on its own simplices, so the records do not depend on ``jobs`` or
    on the batches. With ``refine``, every onset of m or m_s above
    ``ONSET`` gets a grid ten times finer within 5 steps of the bracket's
    midpoint, clipped to the scan range, so ``fit_critical`` brackets the
    same crossing on the fine grid. ValueError, before any grid is built,
    for an unknown ``kind``, a bipartite one on a non-bipartite
    ``lattice``, ``restarts`` or ``jobs`` below 1, or bounds or a step
    ``grid_size`` refuses; and before any minimization for a grid point
    ``check_rate`` refuses.
    """
    _check_ansatz(kind, lattice.bipartite)
    if restarts < 1 or jobs < 1:
        raise ValueError(f"restarts = {restarts} and jobs = {jobs} must be at least 1")

    def run(points):
        if not points:
            return []
        workers = min(jobs, len(points), os.cpu_count() or 1)
        parts = max(workers, -(-len(points) // max(1, _BATCH_SIMPLICES // restarts)))
        cuts = [len(points) * i // parts for i in range(parts + 1)]
        tasks = [(points[lo:hi], lattice, kind, restarts, seed) for lo, hi in zip(cuts, cuts[1:])]
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay its import

            with ProcessPoolExecutor(max_workers=workers) as pool:
                batches = list(pool.map(_sweep_chunk, tasks))
        else:
            batches = [_sweep_chunk(t) for t in tasks]
        return [r for batch in batches for r in batch]

    grid = sweep_grid(lambda_min, lambda_max, step)
    for lam in grid[:1] + grid[-1:]:  # the ends of the grid bound every point, refined ones too
        check_rate(lam)
    records = {r.lam: r for r in run(grid)}

    if refine and records:
        fine = step / 10.0
        offsets = [j * fine for j in range(51) if j * fine <= 5 * step]
        srec = sorted(records.values(), key=lambda r: r.lam)
        extra = set()
        for key in ("m", "m_s"):
            above = np.array([getattr(r, key) for r in srec]) > ONSET
            for i in np.nonzero(above[:-1] != above[1:])[0]:
                center = 0.5 * (srec[i].lam + srec[i + 1].lam)
                for off in offsets:
                    for lam in (round(center - off, 9), round(center + off, 9)):
                        if lambda_min <= lam <= lambda_max and lam not in records:
                            extra.add(lam)
        for r in run(sorted(extra)):
            records[r.lam] = r

    return [records[lam] for lam in sorted(records)]


# ---------------------------------------------------------------------------
# Landau expansion and critical fits
# ---------------------------------------------------------------------------


def _landau_profile(model, direction, phis) -> _PolishResult:
    """Conditional minima of the penalized bond norm at every phi, all in one ``_descend``.

    phi enters through the offsets of an ``_AffineMap``: in-plane,
    alpha_A = alpha_B = (phi, 0, x0); staggered-z, alpha_A = (x0, 0, x2 + phi)
    and alpha_B = (x1, 0, x2 - phi). Every sample is one problem with one
    start, x = 0. The polish alone stalls: from x = 0 it stops on the
    stationary point of the z mirror, so stage 1 runs first. A sample's
    result depends only on its own phi.
    """
    pmap, dim = _landau_map(direction, phis)
    return _descend(CompiledBond(model).tensor(pmap.kind), np.full(len(phis), float(model.rate)),
                    pmap, np.zeros((len(phis), dim)), 1)[0]


def _landau_map(direction, phis):
    """The ``_AffineMap`` of a Landau profile's samples and its parameter count."""
    off_a = np.zeros((len(phis), 2))
    if direction == "in-plane":
        off_a[:, 0] = phis
        return _AffineMap(np.array([1, 0]), off_a=off_a), 1
    off_b = np.zeros((len(phis), 2))
    off_a[:, 1], off_b[:, 1] = phis, -phis
    return _AffineMap(np.array([0, 2]), np.array([1, 2]), off_a, off_b), 3


def landau_expansion(
    model: DissipativeModel,
    direction: str,
    phi_max: float,
    samples: int,
) -> LandauFit:
    """Quartic fit of the bond norm along one order-parameter direction.

    phi parameterizes the in-plane magnetization (uniform family) or the
    staggered z magnetization (bipartite family); all other ansatz
    parameters sit at their conditional minimum for each phi. The fit window
    phi_max matters: the norm is only a smooth phi^4 form below its first
    eigenvalue-crossing kink, while the confining quartic growth on the
    disordered side is only visible on windows spanning that kink. Beyond
    |phi_max| = 1 a Bloch vector leaves the unit ball, so that is refused.

    The ``samples`` conditional minimizations run as one batch through the
    sweep's two stages, each from x = 0 (no warm start, so a sample's
    minimum does not depend on its neighbors): a batched Nelder-Mead at
    basin resolution,
    then the kink-aware Newton polish with phi held fixed. ``converged``
    says every sample's polish stopped by its own test with its Bloch
    vectors at most 1e-9 outside the unit ball (a conditional minimum that
    wants |alpha| > 1 sits on the ball penalty, not on the norm);
    ``stationarity`` is the largest first-order residual over the samples.
    """
    if samples < 5:
        raise ValueError("need at least 5 phi samples")
    if direction not in ("in-plane", "staggered-z"):
        raise ValueError(f"unknown direction {direction!r}")
    if direction == "staggered-z" and not model.lattice.bipartite:
        raise ValueError("staggered-z direction needs a bipartite lattice")
    if not abs(phi_max) <= 1:  # else the fit sees the ball penalty, not the norm
        raise ValueError(f"phi_max = {phi_max} must be finite with |phi_max| <= 1")
    phis = np.linspace(0.0, phi_max, samples)
    profile = _landau_profile(model, direction, phis)

    design = np.vstack([np.ones_like(phis), phis**2, phis**4]).T
    coef, res_arr, rank, _ = np.linalg.lstsq(design, profile.fun, rcond=None)
    if rank < 3:
        raise FitError("ill-conditioned phi^4 fit (degenerate phi grid)")
    residual = float(np.sqrt(res_arr[0] / samples)) if res_arr.size else 0.0
    return LandauFit(
        u0=float(coef[0]),
        u2=float(coef[1]),
        u4=float(coef[2]),
        residual=residual,
        converged=bool(profile.success.all()),
        stationarity=float(profile.stationarity.max()),
    )


def fit_critical(
    records,
    which: str = "m",
    window=(0.01, 0.1),
) -> CriticalFit:
    """Locate a transition and fit the critical exponent from sweep records.

    ``which`` is "m" or "m_s". lambda_c: the order parameter crosses
    ``ONSET``, the onset ``sweep`` refines around, somewhere between
    two grid points; the squared order parameter (linear in lambda for a
    square-root onset) is extrapolated to zero through the two ordered-side
    records nearest the crossing, and the root is clamped into that
    bracket. beta: log-log regression of the order parameter over the
    ordered-side window |lambda - lambda_c| in [window[0], window[1]],
    converged records only.
    """
    if which not in ("m", "m_s"):
        raise ValueError("which must be 'm' or 'm_s'")
    pts = sorted(
        ((r.lam, getattr(r, which)) for r in records if r.converged),
        key=lambda t: t[0],
    )
    if len(pts) < 8:
        raise FitError("need at least 8 converged records near the transition")
    lams = np.array([p[0] for p in pts])
    vals = np.array([p[1] for p in pts])

    above = vals > ONSET
    crossings = np.nonzero(above[:-1] != above[1:])[0]
    if crossings.size == 0:
        raise FitError("no transition bracketed in scan range")
    i = int(crossings[0])
    ordered_left = vals[i] > ONSET  # ordered side sits below lambda_c
    near, far = (i, i - 1) if ordered_left else (i + 1, i + 2)
    if far < 0 or far >= len(vals) or vals[far] <= ONSET:
        raise FitError("need two ordered-side records next to the onset")
    q_near, q_far = vals[near] ** 2, vals[far] ** 2
    with np.errstate(divide="ignore", over="ignore"):  # an infinite root is clamped like any other
        root = lams[near] - q_near * (lams[near] - lams[far]) / (q_near - q_far)
    lambda_c = np.clip(root, lams[i], lams[i + 1])

    if ordered_left:
        dist = lambda_c - lams
    else:
        dist = lams - lambda_c
    sel = (dist >= window[0]) & (dist <= window[1]) & (vals > ONSET)
    if sel.sum() < 2:
        raise FitError("too few ordered-side points inside the fit window")
    x = np.log(dist[sel])
    y = np.log(vals[sel])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    used = lams[sel]
    return CriticalFit(
        lambda_c=float(lambda_c),
        beta=float(slope),
        window=(float(used.min()), float(used.max())),
        r_squared=float(r_squared),
    )
