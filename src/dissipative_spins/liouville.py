"""Exact Lindblad generators on small clusters, for cross-checking the mean field.

``Liouvillian`` holds the generator of H and the jumps c_k as the stacked
jumps and G = -i H - 1/2 sum_k c_k^dag c_k, so L rho = G rho + rho G^dag +
sum_k c_k rho c_k^dag; the jump sum is one product S^dag S of the stacked
jumps S read as a (k d, d) matrix. ``apply`` and ``evolve`` (exp(t L) rho,
a Taylor series) form no d^2 x d^2 superoperator. The one layout is
row-major: |i><j| is entry i d + j of rho.ravel(), and ``_rows`` is the one
place where the entries L[(i, j), (k, l)] are formed, for ``steady_states``
and for ``matrix``, the whole d^2 x d^2 generator that the bond compile and
dense references read.

Spectra of Lindblad generators come in conjugate pairs with non-positive
real parts; the null space holds the steady states. ``steady_states``
counts them sector by sector without ``matrix``: a conserved coherence
order q (the weak U(1) symmetry of the ring models) and, on a ring, the
momentum k of the site translation split the generator into (q, k)
sectors, whose matrices are gathered from G and the jumps and then
diagonalized in stacks, one ``eigvals`` call per sector size and dtype
(at n = 6 the largest sector has 160 rows, against 4,096 for the whole
generator). Only q >= 0 is gathered: L(rho^dag) = L(rho)^dag makes each
q < 0 spectrum a conjugated copy of its partner's. The count is read off
those spectra, with the cut and the |eigenvalues| nearest it either side
as a measure of how sure it is, and a ring whose rounding passes
``ROUNDING_CAP`` is refused rather than counted. What of this is
structure (the T-orbits, their periods and orders, the rows and gather
indices, the momentum phases and weights, and each sector's kept orbits,
dtype, stack slot and copies) is a sector plan, cached per (d, ring, real,
conserved) and built on a shape's first call, not at import; it holds
nothing that depends on lambda or on any entry, so a call does only the
numeric work: the rows, the momentum sums, the spectra and the count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .models import DissipativeModel
from .operators import embed, trace_norm_hermitian

_NULL_TOL = 1e-9  # an |eigenvalue| up to this times min(1, spectral radius) is zero,
_NULL_EPS = 64 * np.finfo(float).eps  # as is one up to this times the radius (eigvals' rounding)
ROUNDING_CAP = 1e-2  # up to this, far below the rates of order 1 that a stiff ring keeps
TAYLOR_TERMS, TAYLOR_THETA = 55, 9.5  # m and theta of ``evolve``'s Taylor series


@dataclass(frozen=True)
class Liouvillian:
    g: np.ndarray      # G = -i H - 1/2 sum_k c_k^dag c_k, (d, d)
    jumps: np.ndarray  # the c_k stacked, (k, d, d)
    ring: int = 0      # sites n of a ring whose translation commutes with L; 0 for none

    @property
    def dim(self) -> int:  # Hilbert-space dimension d
        return self.g.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L rho, formed from d x d products."""
        g, cs = self.g, self.jumps
        return g @ rho + rho @ g.conj().T + (cs @ rho @ cs.conj().transpose(0, 2, 1)).sum(axis=0)

    @property
    def norm_bound(self) -> float:
        """2 ||G||_2 + sum_k ||c_k||_2^2 >= ||L||_2 (||A (x) B||_2 = ||A||_2 ||B||_2); inf for a G not finite."""
        if not np.isfinite(self.g).all():  # as it is wherever a jump is not
            return np.inf
        with np.errstate(over="ignore"):  # a bound past the float range is inf
            return float(2 * np.linalg.norm(self.g, 2) + (np.linalg.norm(self.jumps, 2, axis=(1, 2)) ** 2).sum())

    def taylor_cost(self, t: float) -> tuple[float, float]:
        """``evolve``'s steps to t, s = ceil(t ``norm_bound`` / theta), and its products, s m (jumps + 1) at most."""
        steps = float(np.ceil(float(t) * self.norm_bound / TAYLOR_THETA))  # Python floats: inf, or nan for 0 inf
        return steps, steps * TAYLOR_TERMS * (len(self.jumps) + 1)

    def evolve(self, rho0: np.ndarray, t: float) -> np.ndarray:
        """exp(t L) rho0: in each of ``taylor_cost``'s steps h = t/s, the Taylor series of exp(h L).

        As h ||L||_2 <= theta = 9.5, cut after m = 55 terms a step's remainder is at most theta^(m+1)/(m+1)!
        e^theta <= 2^-53 of its input (root theta = 9.506); it stops sooner once a term's largest entry is below
        2^-53 of the sum's: Al-Mohy and Higham's truncated Taylor method (SIAM J. Sci. Comput. 33, 488 (2011)) at
        one degree, stepped by the bound in place of their norm estimates. ValueError for t < 0 or past the floats.
        """
        steps, _ = self.taylor_cost(t)
        rho = np.array(rho0, dtype=complex).reshape(self.dim, self.dim)
        for _ in range(int(steps) if 0 <= steps < np.inf else 0):
            term = rho
            for k in range(1, TAYLOR_TERMS + 1):
                term = self.apply(term) * (t / steps / k)
                rho = rho + term
                if np.abs(term).max() <= 2.0**-53 * np.abs(rho).max():
                    break
        if not (t >= 0 and steps < np.inf and np.isfinite(rho).all()):
            raise ValueError(f"the propagation to t = {t:g} runs backward or leaves the float range")
        return rho

    @property
    def matrix(self) -> np.ndarray:
        """The d^2 x d^2 generator, row-major: L @ rho.ravel() is (L rho).ravel()."""
        d = self.dim
        return _rows(self.g, self.jumps, *np.divmod(np.arange(d * d), d)).reshape(d * d, d * d)


def _rows(g: np.ndarray, cs: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Rows (i, j) of L, each a d x d array over (k, l): (len(i), d, d).

    L[(i, j), (k, l)] = G[i, k] d(j, l) + conj G[j, l] d(i, k) + sum_c c[i, k] conj c[j, l]:
    the jump sum as one batched (d, jumps) @ (jumps, d) product per row,
    then the two G terms.
    """
    a = np.arange(len(i))
    rows = cs[:, i].transpose(1, 2, 0) @ cs[:, j].conj().transpose(1, 0, 2)
    rows[a, :, j] += g[i]
    rows[a, i, :] += g[j].conj()
    return rows


def build_liouvillian(hamiltonian, jumps) -> Liouvillian:
    """The generator of H and the jumps c_k; no d^2 x d^2 work is done here.

    G's jump sum is one (d, k d) @ (k d, d) product: sum_k c_k^dag c_k =
    S^dag S with S the stacked jumps reshaped to (k d, d).
    """
    h = np.asarray(hamiltonian, dtype=complex)
    d = h.shape[0]
    if h.shape != (d, d):
        raise ValueError("hamiltonian must be square")
    cs = np.asarray(jumps, dtype=complex)
    if cs.size == 0:
        cs = cs.reshape(0, d, d)
    if cs.shape[1:] != (d, d):
        raise ValueError("jump operator dimension mismatch")
    s = cs.reshape(-1, d)
    g = -1j * h - 0.5 * (s.conj().T @ s)
    return Liouvillian(g=g, jumps=cs)


def ring_liouvillian(model: DissipativeModel, n_sites: int) -> Liouvillian:
    """Exact generator of the model on a periodic chain of n_sites spins.

    A jump's shape is its arity: every two-site (4x4) jump is placed on
    each nearest-neighbor bond (i, i+1) and every single-site (2x2) jump on
    each site, one ``embed`` of the stack of all terms of an arity per
    placement, and the jumps are stacked term by term, each term's
    placements in order; for n_sites = 2 the two bonds of the formal ring
    coincide, so the pair is counted once. The model has no Hamiltonian,
    so H = 0. The jumps are its ``folded_jump_terms()``,
    used exactly as they come, so any renormalization convention carries
    over unchanged (it rescales the generator without moving its null
    space).
    """
    if n_sites < 2:
        raise ValueError("need at least 2 sites")
    d = 2**n_sites
    bonds = [[i, (i + 1) % n_sites] for i in range(n_sites)] if n_sites > 2 else [[0, 1]]
    terms = model.folded_jump_terms()
    placed = [None] * len(terms)  # per term, its jump on each placement: (placements, d, d)
    for dim, places in ((2, [[s] for s in range(n_sites)]), (4, bonds)):
        of_arity = [t for t, c in enumerate(terms) if len(c) == dim]
        if of_arity:  # one embed of all the terms of this arity per placement
            stack = np.stack([terms[t] for t in of_arity])
            for t, jumps in zip(of_arity, np.stack([embed(stack, at, n_sites) for at in places], axis=1)):
                placed[t] = jumps
    # every bond carries every term, so the site translation is exact; the
    # single bond of n = 2 is not symmetric under the swap in general
    return replace(build_liouvillian(np.zeros((d, d)), np.concatenate(placed or [np.zeros((0, d, d))])),
                   ring=n_sites if n_sites > 2 else 0)


@dataclass(frozen=True)
class SpectralBlock:
    q: int  # coherence order popcount(i) - popcount(j) of the sector; 0 where not conserved
    k: int  # momentum 2 pi k / n under the ring's translation; 0 without one
    eigenvalues: np.ndarray  # spectrum of the generator on the sector


@dataclass(frozen=True)
class SteadySpace:
    dimension: int  # steady states: the zero eigenvalues over all sectors
    blocks: list  # SpectralBlock per (q, k) sector of the generator
    trace_defect: float  # max |u^dag F_0| on sector (0, 0), u the identity there
    zero_cut: float  # an |eigenvalue| up to this counts as zero
    largest_zero: float  # the largest |eigenvalue| counted as zero, the forced one of (0, 0) too
    smallest_nonzero: float | None  # the smallest |eigenvalue| not counted as zero; None for none
    max_real_part: float  # the largest real part of the spectrum, 0 in exact arithmetic

    @property
    def eigenvalues(self) -> np.ndarray:
        """Full spectrum of the generator: the union of the sector spectra."""
        return np.concatenate([b.eigenvalues for b in self.blocks])


def coherence_orders(liou: Liouvillian):
    """popcount(i) - popcount(j) of each |i><j| (row-major) if L conserves it, else None.

    It is conserved when G keeps popcount and every jump shifts it by one
    fixed amount of its own: G rho, rho G^dag and c rho c^dag then keep the
    order of each |i><j|. The package's one test of the rotation about z:
    ``steady_states`` and the variational bond compile both ask it.
    """
    shift = _popcount_shifts(liou.dim)
    nonzero = liou.jumps != 0
    low = np.where(nonzero, shift, liou.dim).min(axis=(1, 2))
    high = np.where(nonzero, shift, -liou.dim).max(axis=(1, 2))
    if shift[liou.g != 0].any() or (low < high).any():
        return None
    return shift.flatten()  # a copy: no caller writes into the cached table


@functools.cache
def _popcount_shifts(d: int) -> np.ndarray:
    """popcount(i) - popcount(k), the popcount change made by the entry (i, k) of a d x d operator."""
    pc = np.array([bin(i).count("1") for i in range(d)])
    return pc[:, None] - pc


def _site_rotations(d: int, ring: int) -> np.ndarray:
    """T^m as a map of the d basis states, m < n: (n, d); T rotates the ring's sites by one.

    Without a ring (``ring`` 0) the only map is the identity, n = 1.
    """
    i = np.arange(d)
    if not ring:
        return i[None]
    m = np.arange(ring)[:, None]
    return ((i << m) | (i >> (ring - m))) & (d - 1)


# the sector plan's records: a NamedTuple is defined at import in about a sixth of a frozen dataclass's time
class _Sector(NamedTuple):
    q: int
    k: int               # momentum, and the index of its F_k in its order's momentum sums
    keep: tuple | None   # np.ix_ of the orbits with k p = 0 mod n; None where all are kept
    r: np.ndarray        # orbit representatives of the kept orbits, and their periods
    p: np.ndarray
    real: bool           # diagonalized in real arithmetic (dtype float, else complex)
    group: int           # its stack, one per (size, dtype), and its slot there
    slot: int
    copies: tuple        # (q, k, conjugated) of each block its spectrum stands for


class _Order(NamedTuple):
    i: np.ndarray        # the rows (i, j) of L at its orbit representatives r_a
    j: np.ndarray
    take: np.ndarray     # R_m[a, b] = L[r_a, T^m r_b] as flat indices into those rows: (n, A * A)
    phase: np.ndarray    # exp(-2 pi i k m / n) over its momenta k and m: (k's, n)
    weight: np.ndarray   # sqrt(p_a p_b) / n: (A, A)
    sectors: tuple       # its _Sectors, k ascending


class _SectorPlan(NamedTuple):
    rotations: np.ndarray  # T^m of the basis states: (n, d)
    reps: np.ndarray       # representative and period of each T-orbit of entries |i><j|
    periods: np.ndarray
    orders: tuple          # an _Order per q >= 0, q ascending
    groups: tuple          # (sectors in it, size, dtype) of each stack
    u: np.ndarray          # the identity in sector (0, 0)'s basis, sqrt(p_a) on its diagonal orbits


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # the plan is cached and shared by every call of its shape
    return a


@functools.cache
def _sector_plan(d: int, ring: int, real: bool, conserving: bool) -> _SectorPlan:
    """The sector structure ``steady_states`` reads, which depends on these four alone.

    Built on first use, never at import, and kept: the rotations, the
    T-orbits and their periods, per order q >= 0 its rows, gather, momentum
    phases and weights, and per sector its momentum, kept orbits, dtype,
    stack slot and copies. Nothing in it depends on an entry of G or a jump.
    """
    rot = _site_rotations(d, ring)
    n = len(rot)
    orbit = (rot[:, :, None] * d + rot[:, None, :]).reshape(n, d * d)  # T^m |i><j|
    reps = np.flatnonzero(orbit.min(axis=0) == np.arange(d * d))
    period = n // (orbit[:, reps] == reps).sum(axis=0)
    q_of = _popcount_shifts(d).ravel()[reps] if conserving else np.zeros(reps.size, dtype=int)
    phase = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    orders, groups = [], {}  # groups: (size, dtype) -> the sectors in its stack
    for q in map(int, np.unique(q_of[q_of >= 0])):  # sector (-q, -k) is the conjugate of (q, k)
        r, p = reps[q_of == q], period[q_of == q]
        i, j = divmod(r, d)
        a = np.arange(r.size)[:, None]
        take = ((a * d + rot[:, i][:, None, :]) * d + rot[:, j][:, None, :]).reshape(n, -1)
        ks = np.arange(n // 2 + 1 if real or q == 0 else n)
        sectors = []
        for k in ks:
            keep = k * p % n == 0
            if not keep.any():
                continue
            sector_real = real and 2 * k % n == 0
            key = (int(keep.sum()), np.dtype(float if sector_real else complex))
            slot = groups.setdefault(key, 0)
            groups[key] += 1
            copies = [(q, k, False)]  # the sectors this spectrum stands for
            if 2 * k % n and (real or q == 0):  # (q, -k) is the conjugate: L is real, or q = 0 is its own partner
                copies.append((q, n - k, True))
            if q:  # the adjoint: (-q, -k) is the conjugate of (q, k)
                copies += [(-q, -c % n, not conj) for _, c, conj in copies]
            sectors.append(_Sector(q=q, k=k, keep=None if keep.all() else tuple(map(_frozen, np.ix_(keep, keep))),
                                   r=_frozen(r[keep]), p=_frozen(p[keep]), real=sector_real,
                                   group=list(groups).index(key), slot=slot, copies=tuple(copies)))
        orders.append(_Order(i=_frozen(i), j=_frozen(j), take=_frozen(take), phase=_frozen(phase[ks]),
                             weight=_frozen(np.sqrt(np.outer(p, p)) / n), sectors=tuple(sectors)))
    first = orders[0].sectors[0]  # (0, 0): every diagonal |i><i| has q = 0, and k = 0 keeps all
    i, j = divmod(first.r, d)
    return _SectorPlan(rotations=_frozen(rot), reps=_frozen(reps), periods=_frozen(period),
                       orders=tuple(orders),
                       groups=tuple((count, size, dtype) for (size, dtype), count in groups.items()),
                       u=_frozen(np.where(i == j, np.sqrt(first.p), 0.0)))


def steady_states(liou: Liouvillian) -> SteadySpace:
    """Dimension of the generator's null space, counted sector by sector.

    L commutes with the weak U(1) symmetry (coherence order q, when
    ``coherence_orders`` finds it conserved) and with the ring's
    translation T, so it is block diagonal in (q, k) sectors. A sector's
    basis holds one vector per T-orbit of entries |i><j| of order q: with
    representative r_a and period p_a, v_a = sqrt(p_a)/n sum_m
    exp(-2 pi i k m/n) T^m r_a, kept when k p_a = 0 mod n. Its matrix,
    F_k[a, b] = sqrt(p_a p_b)/n sum_m exp(-2 pi i k m/n) L[r_a, T^m r_b],
    is gathered from the rows r_a of L that ``_rows`` forms from G and the
    jumps; the d^2 x d^2 generator is never formed. The adjoint |i><j| ->
    |j><i| commutes with L and maps sector (q, k) onto (-q, -k), so the
    spectrum of (-q, -k) is the conjugate of that of (q, k): only q >= 0 is
    gathered and diagonalized, and of q = 0 only k <= n/2. A real generator
    also has F_{n-k} = conj F_k, so there every q keeps only k <= n/2, k = 0
    (and n/2) in real arithmetic, and (-q, k) has the spectrum of (q, k);
    real is decided from G and each jump times the conjugate phase of its
    largest entry (so sigma_y or i c counts as real). Each spectrum's block
    is kept with its copies, the conjugated ones, and its zeros count once
    for each block it stands for (up to four). Every sector's matrix is
    gathered first, into its slot of a stack; then one ``eigvals`` call
    takes all sectors of one size and dtype as that stack (bitwise the
    spectra of one call per sector, though a stack of real sectors comes
    back complex for all when one has a complex eigenvalue). An eigenvalue
    counts as zero up to the cut
    max(``_NULL_TOL`` min(1, r), min(``_NULL_EPS`` r, ``ROUNDING_CAP``)),
    r the largest |eigenvalue|: rates far below 1, the rounding of
    ``eigvals`` (a zero near eps r) below the rates of order 1 a stiff
    ring keeps, every exact zero at r = 0; and sector (0, 0), which the
    trace makes singular, counts its smallest |eigenvalue| in any case.
    The bounded semigroup has no Jordan block at zero, so the count of
    zeros is the number of independent steady states.

    All of this that is structure (the orbits, their periods and orders,
    the rows and the gather, the phases and weights, each sector's kept
    orbits, dtype, stack slot and copies, and u below) is the sector plan
    of (d, ring, real, conserved), built on a shape's first call and kept,
    read-only; it holds nothing that depends on lambda or on any entry.
    A call forms the rows, the momentum sums and the spectra, and counts.

    The sector spectra are kept on the result, and ``trace_defect`` is
    max |u^dag F_0| on the sector (0, 0), u the identity in that sector's
    basis (sqrt(p_a) on the diagonal orbits). Both it and the largest real
    part, ``max_real_part``, are 0 in exact arithmetic; a ValueError
    refuses the ring when either passes ``ROUNDING_CAP``, where rounding can
    have moved the rates of order 1 onto the cut or a zero off it. A count
    clear of rounding has ``largest_zero`` <= ``zero_cut`` <
    ``smallest_nonzero``, gaps wide.
    """
    d, g, cs = liou.dim, liou.g, liou.jumps
    if cs.imag.any():  # turn each jump by the conjugate phase of its largest entry
        flat = cs.reshape(len(cs), d * d)
        top = flat[np.arange(len(cs)), np.abs(flat).argmax(axis=1)]
        cs = cs * np.divide(top.conj(), abs(top), out=np.ones_like(top), where=top != 0)[:, None, None]
    real = not (g.imag.any() or cs.imag.any())
    if real:  # real arithmetic in the gather and in the real sectors
        g, cs = g.real, cs.real
    plan = _sector_plan(d, liou.ring, real, coherence_orders(liou) is not None)
    stacks = [np.empty((count, size, size), dtype) for count, size, dtype in plan.groups]
    for order in plan.orders:
        f_k = (order.phase @ _rows(g, cs, order.i, order.j).ravel()[order.take]).reshape(-1, *order.weight.shape)
        f_k *= order.weight
        for s in order.sectors:
            f = f_k[s.k] if s.keep is None else f_k[s.k][s.keep]
            if s.real:
                f = f.real
            if s.q == 0 and s.k == 0:  # on the .real view, as it is stacked: a contiguous copy rounds otherwise
                trace_defect = float(np.abs(plan.u @ f).max())
            stacks[s.group][s.slot] = f
    spectra = [np.linalg.eigvals(stack) for stack in stacks]
    radius = max([0.0] + [np.abs(stack).max() for stack in spectra])  # the largest |eigenvalue| of all sectors
    cut = max(_NULL_TOL * min(1.0, radius), min(_NULL_EPS * radius, ROUNDING_CAP))
    blocks, dimension = [], 0
    zeros, others = [], []  # the |eigenvalues| counted as zero, and the rest
    for s in (s for order in plan.orders for s in order.sectors):
        evals = spectra[s.group][s.slot]
        size = np.abs(evals)
        zero = size <= cut
        if s.q == 0 and s.k == 0:
            zero[size.argmin()] = True  # u F = 0: this sector is singular, however its zero is rounded
        zeros.append(size[zero])
        others.append(size[~zero])
        blocks += [SpectralBlock(q=q, k=k, eigenvalues=evals.conj() if conj else evals) for q, k, conj in s.copies]
        dimension += len(s.copies) * zeros[-1].size
    zeros, others = np.concatenate(zeros), np.concatenate(others)
    top = float(np.concatenate([b.eigenvalues for b in blocks]).real.max())
    if max(trace_defect, abs(top)) > ROUNDING_CAP:  # 0 is in the spectrum, which lies in Re <= 0
        raise ValueError(f"the ring is too stiff to resolve: its trace defect {trace_defect:.3g} "
                         f"or largest real part {top:.3g} passes {ROUNDING_CAP:g}")
    return SteadySpace(dimension=dimension, blocks=blocks, trace_defect=trace_defect, zero_cut=float(cut),
                       largest_zero=float(zeros.max()),
                       smallest_nonzero=float(others.min()) if others.size else None, max_real_part=top)


def exact_norm(liou: Liouvillian, rho: np.ndarray) -> float:
    """Trace norm of the exact time derivative of rho under the generator."""
    return trace_norm_hermitian(liou.apply(rho))
