"""Declarative dissipative lattice models.

A :class:`DissipativeModel` is a lattice description plus the jump terms of
a translationally invariant, purely dissipative master equation: there is no
Hamiltonian, and the jumps alone fix the dynamics. The constructors here
build the dissipative Heisenberg (XXZ) family: a ferromagnetic pump set
that makes every uniform product state dark, and an anisotropy set (rate
lambda) whose dark states are the two Neel bond states.

Two-site jump matrices are written in the basis {uu, ud, du, dd}. A model
holds its jumps in two sets: ``jump_terms`` with the rate folded into the
matrix (a term with rate g carries a sqrt(g) prefactor), and
``rate_jump_terms`` at unit rate beside the one rate they share. The bond
derivative is linear in each jump's rate, so the variational evaluator
compiles the two sets apart and forms K = P + rate A; every other consumer
takes ``folded_jump_terms()``, the one list with that rate folded in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import bell_state, ketbra

_UU = np.array([1, 0, 0, 0], dtype=complex)
_UD = np.array([0, 1, 0, 0], dtype=complex)
_DU = np.array([0, 0, 1, 0], dtype=complex)
_DD = np.array([0, 0, 0, 1], dtype=complex)


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice parameters: coordination number, bipartiteness, rate convention.

    ``renormalize`` applies lambda = lambda'/(z-1) to every two-particle
    coupling rate (matrices divided by sqrt(z-1)) so the mean-field term
    stays finite as z grows.
    """

    z: int = 6
    bipartite: bool = True
    renormalize: bool = True

    def __post_init__(self):
        if self.z < 2:
            raise ValueError(f"coordination number z={self.z} must be >= 2")


@dataclass(frozen=True)
class JumpTerm:
    arity: int
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.arity not in (1, 2):
            raise ValueError("jump arity must be 1 or 2")
        d = 2**self.arity
        if self.matrix.shape != (d, d):
            raise ValueError(
                f"jump {self.label!r}: matrix shape {self.matrix.shape} "
                f"does not match arity {self.arity}"
            )


def check_rate(rate: float):
    """ValueError unless a jump rate is finite and >= 0."""
    if not 0 <= rate < np.inf:
        raise ValueError(f"rate lambda={rate} must be finite and >= 0")


@dataclass(frozen=True)
class DissipativeModel:
    """A lattice and its one- and two-site jumps, in two sets.

    ``jump_terms`` carry their rates folded into their matrices;
    ``rate_jump_terms`` are written at unit rate and all run at ``rate``.
    A model without a rate set leaves that list empty.
    """

    lattice: LatticeSpec
    jump_terms: list = field(default_factory=list)
    rate_jump_terms: list = field(default_factory=list)  # unit rate, scaled by ``rate``
    rate: float = 0.0

    def __post_init__(self):
        check_rate(self.rate)

    def folded_jump_terms(self) -> list:
        """Every jump with its rate in its matrix: ``jump_terms``, then sqrt(rate) times each of the rate set."""
        s = np.sqrt(self.rate)
        return self.jump_terms + [JumpTerm(t.arity, s * t.matrix, t.label) for t in self.rate_jump_terms]


def ferro_pump_jumps():
    """The three unit-rate pump operators out of the singlet.

    |uu><psi-|, |dd><psi-| and |psi+><psi-| drain the antisymmetric Bell
    state into the spin-triplet space, so every symmetric product state
    (any uniform ferromagnet) is dark.
    """
    psi_m = bell_state("-")
    psi_p = bell_state("+")
    return [
        JumpTerm(2, ketbra(_UU, psi_m), "uu<psi-"),
        JumpTerm(2, ketbra(_DD, psi_m), "dd<psi-"),
        JumpTerm(2, ketbra(psi_p, psi_m), "psi+<psi-"),
    ]


def anisotropy_jumps(lam: float):
    """Four rate-lambda operators draining the polarized bond states.

    sqrt(lambda) {|ud><uu|, |du><uu|, |ud><dd|, |du><dd|}: they lift the
    SU(2) symmetry and leave |ud> and |du> (the Neel bond states) dark.
    """
    check_rate(lam)
    s = np.sqrt(lam)
    return [
        JumpTerm(2, s * ketbra(_UD, _UU), "ud<uu"),
        JumpTerm(2, s * ketbra(_DU, _UU), "du<uu"),
        JumpTerm(2, s * ketbra(_UD, _DD), "ud<dd"),
        JumpTerm(2, s * ketbra(_DU, _DD), "du<dd"),
    ]


def dissipative_heisenberg(lam: float, lattice: LatticeSpec) -> DissipativeModel:
    """Purely dissipative Heisenberg model: ferro pumps plus anisotropy set.

    The pumps are the unit-rate ``jump_terms``; the four anisotropy jumps
    are the rate set, written at unit rate, and ``rate`` is lambda. With
    ``lattice.renormalize`` every two-particle rate is divided by (z-1)
    (both sets' matrices by sqrt(z-1)); for this all-two-particle model that
    is an exact overall rescale of the dynamics, so the phase boundaries are
    convention independent (only the norm scale and the z-scaling of the
    interaction part change).
    """
    scale = 1.0 / np.sqrt(lattice.z - 1)
    jumps = [JumpTerm(2, scale * m if lattice.renormalize else m.copy(), label)
             for label, m in _UNIT_JUMPS]
    return DissipativeModel(lattice=lattice, jump_terms=jumps[:3], rate_jump_terms=jumps[3:],
                            rate=lam)


# (label, matrix) of the three pumps, then the four anisotropy jumps, at unit rate
_UNIT_JUMPS = [(t.label, t.matrix) for t in ferro_pump_jumps() + anisotropy_jumps(1.0)]
