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

The conservation suite checks the invariants of motion and nothing else
(acceptance criterion 6): the quadratic and quartic invariants built from
the ladder realization and the total number against the nonlinear chain,
and the deformed quadratic invariant (two sites) and the total number
against the deformed chain.  On three or more sites the deformed side
checks the total number only, since no su_q(n) Casimir is built for
n >= 3; the su_q(n) Chevalley and Serre relations are the algebra
checks' (`qdimer verify --suite algebra` runs them at gamma 0.5, 2 and 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .fock_algebra import (
    FockSectorBasis,
    SectorOperator,
    _basic_qnums,
    _casimir_diagonals,
    _csr,
    _hop,
    _maxabs,
    build_sector_basis,
    hop_operator,
    number_operator,
    su_n_generators,
    suq2_casimir,
    suq_n_generators,
)
# perfbench/tracing.py wraps these on this module
from .fock_algebra import casimir_matrix, verify_chevalley, verify_serre  # noqa: F401
from .qnumbers import _finite, q_from_gamma

if TYPE_CHECKING:
    from scipy import sparse


def _qdnls_terms(basis, gamma, epsilon, e, f):
    """The nonlinear chain as its diagonal and its 2(n-1) scaled hops, from
    the hops e_i = a_i' a_{i+1} and f_i = a_{i+1}' a_i, at a finite gamma
    and epsilon."""
    _finite(gamma=gamma, epsilon=epsilon)
    well = np.zeros(basis.dim)
    for i in range(1, basis.n_sites + 1):
        num = number_operator(basis, i).amp
        well -= 0.5 * gamma * (num * num)
    terms = [SectorOperator.diagonal(basis, well)]
    for x, y in zip(e, f):
        terms += [-epsilon * x, -epsilon * y]
    return terms


def _qal_terms(basis, gamma):
    """The deformed chain as its diagonal and its 2(n-1) negated hops, all
    from one table of basic q-numbers {n}."""
    terms = [SectorOperator.diagonal(basis, np.full(basis.dim, 2.0 * basis.total_quanta))]
    if basis.n_sites > 1:  # a one-site chain has no hop, and no {n} to refuse
        qnums = _basic_qnums(basis, gamma)
        for i in range(1, basis.n_sites):
            terms += [-1.0 * _hop(basis, i, i + 1, qnums), -1.0 * _hop(basis, i + 1, i, qnums)]
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
    sites = range(1, basis.n_sites)
    e = [hop_operator(basis, i, i + 1) for i in sites]
    f = [hop_operator(basis, i + 1, i) for i in sites]
    return _chain_csr(_qdnls_terms(basis, gamma, epsilon, e, f))


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
    """Commutator checks for one sector: the nonlinear chain against the
    quadratic and quartic invariants and the total number, the deformed
    chain against the total number and, on two sites, the deformed
    quadratic invariant.  No su_q(n) Casimir is built for n >= 3, so there
    the deformed chain is checked against the total number only; the
    su_q(n) relations are checked by the algebra suite, not here.

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

    gens = su_n_generators(basis)
    H = _qdnls_terms(basis, gamma, 1.0, gens.e, gens.f)
    c2, c4 = _casimir_diagonals(gens, 2)
    report.add("dnls_c2", _commutator_norm(H, c2), 1e-10 * dim)
    report.add("dnls_c4", _commutator_norm(H, c4), 1e-8 * dim)
    report.add("dnls_total_number", _commutator_norm(H, total_number), 0.0)

    Hq = _qal_terms(basis, gamma)
    if n_sites == 2:
        cq = suq2_casimir(suq_n_generators(basis, q)).amp
        report.add("al_cq", _commutator_norm(Hq, cq), 1e-10 * dim)
    report.add("al_total_number", _commutator_norm(Hq, total_number), 0.0)
    return report
