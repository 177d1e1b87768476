"""Chain Hamiltonians on number-conserving sectors and their invariants.

Both lattice models live on a fixed-total-quanta sector of an open chain:
the nonlinear-hopping chain couples neighbouring sites with bare hops and
an attractive on-site n^2 well, the deformed chain replaces the hop
amplitudes with basic-q-number ones.  Each chain is a diagonal plus 2(n-1)
hop shifts (fock_algebra.SectorOperator), and the chain builders return
the `scipy.sparse.csr_array` formed once from those terms.  On two sites
each block of fixed total quanta reduces to the corresponding dimer
tridiagonal matrix after an overall sign and constant shift, which the
dimer builders record as energy_scale and energy_shift.

The conservation suite checks that the quadratic and quartic invariants
built from the ladder realization commute with the nonlinear chain, and
that the deformed quadratic invariant commutes with the two-site deformed
chain, alongside the exactly conserved Cartan charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .fock_algebra import (
    FockSectorBasis,
    SectorOperator,
    _casimir_diagonals,
    _csr,
    _maxabs,
    al_hop_operator,
    build_sector_basis,
    # perfbench/tracing.py wraps casimir_matrix on this module
    casimir_matrix,  # noqa: F401
    hop_operator,
    number_operator,
    su_n_generators,
    suq2_casimir,
    suq_n_generators,
    verify_chevalley,
    verify_serre,
)
from .qnumbers import _finite, q_from_gamma

if TYPE_CHECKING:
    from scipy import sparse


def _qdnls_terms(basis, gamma, epsilon):
    """The nonlinear chain as its diagonal and its 2(n-1) scaled hops, at a
    finite gamma and epsilon."""
    _finite(gamma=gamma, epsilon=epsilon)
    well = np.zeros(basis.dim)
    for i in range(1, basis.n_sites + 1):
        num = number_operator(basis, i).amp
        well -= 0.5 * gamma * (num * num)
    terms = [SectorOperator.diagonal(basis, well)]
    for i in range(1, basis.n_sites):
        terms += [-epsilon * hop_operator(basis, i, i + 1), -epsilon * hop_operator(basis, i + 1, i)]
    return terms


def _qal_terms(basis, gamma):
    """The deformed chain as its diagonal and its 2(n-1) negated hops."""
    terms = [SectorOperator.diagonal(basis, np.full(basis.dim, 2.0 * basis.total_quanta))]
    for i in range(1, basis.n_sites):
        terms += [-1.0 * al_hop_operator(basis, i, i + 1, gamma),
                  -1.0 * al_hop_operator(basis, i + 1, i, gamma)]
    return terms


def _chain_csr(terms) -> sparse.csr_array:
    """The sum of the chain terms, which share no entry, without zero entries."""
    H = _csr(terms)
    H.eliminate_zeros()
    return H


def build_qdnls_chain(basis: FockSectorBasis, gamma: float, epsilon: float = 1.0) -> sparse.csr_array:
    """Sparse sector matrix of the nonlinear chain: -eps * sum of neighbour
    hops minus (gamma/2) * sum n_i^2 (`.toarray()` for the dense matrix).
    Refuses a gamma or epsilon that is not finite, as build_qdnls_dimer does."""
    return _chain_csr(_qdnls_terms(basis, gamma, epsilon))


def build_qal_chain(basis: FockSectorBasis, gamma: float) -> sparse.csr_array:
    """Sparse sector matrix of the deformed chain: minus the basic-q-number
    hops plus twice the total quanta (a constant on the sector)."""
    return _chain_csr(_qal_terms(basis, gamma))


@dataclass
class ConservationReport:
    """Commutator norms of a Hamiltonian against candidate invariants."""

    context: str
    pairs: list

    def add(self, label: str, norm: float, tol: float):
        self.pairs.append((label, norm, tol, norm <= tol))


def _commutator_norm(terms, c) -> float:
    """Max-entry norm of [H, diag c] for H the sum of the shift terms:
    entry (dst[s], s) of a term's commutator is amp[s] c[s] - c[dst[s]] amp[s]."""
    return _maxabs(np.concatenate([t.amp * c - c[t.dst] * t.amp for t in terms]))


def conservation_suite(n_sites: int, total_quanta: int, gamma: float) -> ConservationReport:
    """Commutator checks for one sector: nonlinear chain against the
    quadratic and quartic invariants and a Cartan charge; on two sites also
    the deformed chain against the deformed quadratic invariant.

    Every invariant here is diagonal, so each commutator is read on the
    amplitudes of the chain's terms; C_2 and C_4 come from one G and one
    G G formed on shift amplitudes (fock_algebra._casimir_diagonals)."""
    basis = build_sector_basis(n_sites, total_quanta)
    q = q_from_gamma(gamma).q  # refuses a gamma that is negative or not finite
    dim = basis.dim
    report = ConservationReport(
        context=f"n{n_sites}.M{total_quanta}.g{gamma:g}", pairs=[]
    )

    total_number = basis.occupations.sum(axis=1).astype(float)

    H = _qdnls_terms(basis, gamma, 1.0)
    c2, c4 = _casimir_diagonals(su_n_generators(basis), 2)
    report.add("dnls_c2", _commutator_norm(H, c2), 1e-10 * dim)
    report.add("dnls_c4", _commutator_norm(H, c4), 1e-8 * dim)
    report.add("dnls_total_number", _commutator_norm(H, total_number), 0.0)

    Hq = _qal_terms(basis, gamma)
    qgens = suq_n_generators(basis, q)
    if n_sites == 2:
        report.add("al_cq", _commutator_norm(Hq, suq2_casimir(qgens).amp), 1e-10 * dim)
    else:
        chev = verify_chevalley(qgens)
        report.add("al_chevalley", chev.max_residual, 1e-12 * dim)
        serre = verify_serre(qgens)
        if not serre.vacuous:
            report.add("al_serre", serre.max_residual, 1e-12 * dim)
    report.add("al_total_number", _commutator_norm(Hq, total_number), 0.0)
    return report
