"""The bond derivative assembled term by term: the tests' independent reference.

The package forms the two-site reduced derivative K from one compiled
tensor (``variational.CompiledBond``). This module builds it the other
way, from the dissipators themselves: each single-site jump on both slots
of the bond (d_loc), each two-site jump on the bond (d_int), and each
two-site jump with one leg on a surrounding neighbor in its mean-field
state (d_mf, through ``mean_field_jump_term``'s 8x8 three-site route),
2(z-1) neighbors in all. Nothing here reads the compiled tensor.
"""

from dataclasses import dataclass

import numpy as np

from dissipative_spins.operators import bloch_to_density, dissipator, kron, trace_norm_hermitian
from dissipative_spins.variational import mean_field_jump_term


@dataclass(frozen=True)
class TermByTerm:
    d_loc: np.ndarray
    d_int: np.ndarray
    d_mf: np.ndarray
    total_norm: float

    @property
    def total(self) -> np.ndarray:
        return self.d_loc + self.d_int + self.d_mf


def _neighbor_states(ansatz):
    """Neighbor Bloch vectors seen from slot i and slot j."""
    if ansatz.kind == "bipartite":
        # i in sublattice A: its other neighbors live on B, and vice versa
        return ansatz.alpha_B, ansatz.alpha_A
    return ansatz.alpha_A, ansatz.alpha_B


def term_by_term(model, ansatz) -> TermByTerm:
    """d_loc, d_int and d_mf of the bond at ``ansatz``, each from its dissipators, and the trace norm of their sum."""
    pair = kron(bloch_to_density(ansatz.alpha_A), bloch_to_density(ansatz.alpha_B))
    eye = np.eye(2)
    zc = float(model.lattice.z - 1)
    nb_i, nb_j = _neighbor_states(ansatz)

    d_loc = np.zeros((4, 4), dtype=complex)
    d_int = np.zeros((4, 4), dtype=complex)
    d_mf = np.zeros((4, 4), dtype=complex)
    for c in model.folded_jump_terms():
        if len(c) == 2:  # one site
            d_loc += dissipator(kron(c, eye), pair)
            d_loc += dissipator(kron(eye, c), pair)
        else:
            d_int += dissipator(c, pair)
            for slot, nb in (("i", nb_i), ("j", nb_j)):
                d_mf += zc * mean_field_jump_term(c, slot, nb, pair)

    return TermByTerm(d_loc, d_int, d_mf, trace_norm_hermitian(d_loc + d_int + d_mf))
