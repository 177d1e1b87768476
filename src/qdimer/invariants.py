"""Chain Hamiltonians on number-conserving sectors and their invariants.

Both lattice models live on a fixed-total-quanta sector of an open chain,
as sparse matrices like the sector operators: the nonlinear-hopping chain
couples neighbouring sites with bare hops and an attractive on-site n^2
well, the deformed chain replaces the hop amplitudes with basic-q-number
ones.  On two sites each block of fixed
total quanta reduces to the corresponding dimer tridiagonal matrix after an
overall sign and constant shift, which the dimer builders record as
energy_scale and energy_shift.

The conservation suite checks that the quadratic and quartic invariants
built from the ladder realization commute with the nonlinear chain, and
that the deformed quadratic invariant commutes with the two-site deformed
chain, alongside the exactly conserved Cartan charges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .fock_algebra import (
    FockSectorBasis,
    _diagonal,
    _diagonal_block_sum,
    _generator_matrix,
    _maxabs,
    _opmat_mul,
    al_hop_operator,
    build_sector_basis,
    casimir_matrix,  # noqa: F401  perfbench/tracing.py wraps it on this module
    hop_operator,
    number_operator,
    su_n_generators,
    suq_n_generators,
    suq2_casimir,
    verify_chevalley,
    verify_serre,
)
from .qnumbers import q_from_gamma


def build_qdnls_chain(basis: FockSectorBasis, gamma: float, epsilon: float = 1.0) -> sparse.csr_array:
    """Sparse sector matrix of the nonlinear chain: -eps * sum of neighbour
    hops minus (gamma/2) * sum n_i^2 (`.toarray()` for the dense matrix)."""
    n = basis.n_sites
    well = np.zeros(basis.dim)
    for i in range(1, n + 1):
        num = number_operator(basis, i).matrix.diagonal()
        well -= 0.5 * gamma * (num * num)
    H = _diagonal(well)
    for i in range(1, n):
        H = H - epsilon * (hop_operator(basis, i, i + 1).matrix + hop_operator(basis, i + 1, i).matrix)
    return H


def build_qal_chain(basis: FockSectorBasis, gamma: float) -> sparse.csr_array:
    """Sparse sector matrix of the deformed chain: minus the basic-q-number
    hops plus twice the total quanta (a constant on the sector)."""
    n = basis.n_sites
    H = _diagonal(np.full(basis.dim, 2.0 * basis.total_quanta))
    for i in range(1, n):
        H = H - al_hop_operator(basis, i, i + 1, gamma).matrix
        H = H - al_hop_operator(basis, i + 1, i, gamma).matrix
    return H


def check_commutes(H, O, tol: float) -> tuple[float, bool]:
    """Max-entry norm of [H, O] and whether it is below tol.

    H and O may be dense or sparse; the commutator is formed on sparse arrays.
    """
    if H.shape != O.shape:
        raise ValueError(f"shape mismatch {H.shape} vs {O.shape}")
    H, O = sparse.csr_array(H), sparse.csr_array(O)
    norm = _maxabs(H @ O - O @ H)
    return norm, norm <= tol


@dataclass
class ConservationReport:
    """Commutator norms of a Hamiltonian against candidate invariants."""

    context: str
    pairs: list

    def add(self, label: str, norm: float, tol: float):
        self.pairs.append((label, norm, tol, norm <= tol))

    @property
    def passed(self) -> bool:
        return all(ok for (_, _, _, ok) in self.pairs)

    def lines(self):
        out = []
        for label, norm, tol, ok in self.pairs:
            word = "PASS" if ok else "FAIL"
            out.append(f"{word} {self.context}.{label} value={norm:.3e} tol={tol:.1e}")
        return out


def conservation_suite(n_sites: int, total_quanta: int, gamma: float, epsilon: float = 1.0) -> ConservationReport:
    """Commutator checks for one sector: nonlinear chain against the
    quadratic and quartic invariants and a Cartan charge; on two sites also
    the deformed chain against the deformed quadratic invariant."""
    basis = build_sector_basis(n_sites, total_quanta)
    dim = basis.dim
    report = ConservationReport(
        context=f"n{n_sites}.M{total_quanta}.g{gamma:g}", pairs=[]
    )

    total_number = number_operator(basis, 1).matrix
    for i in range(2, n_sites + 1):
        total_number = total_number + number_operator(basis, i).matrix

    H = build_qdnls_chain(basis, gamma, epsilon)
    gens = su_n_generators(basis)
    # C_2 and C_4 of casimir_matrix from one G and one G G
    G = _generator_matrix(gens)
    gg = _opmat_mul(G, G)
    c2 = sum(gg[a][a] for a in range(n_sites))
    norm, _ = check_commutes(H, c2, 1e-10 * dim)
    report.add("dnls_c2", norm, 1e-10 * dim)
    c4 = _diagonal_block_sum(gg, gg)
    norm, _ = check_commutes(H, c4, 1e-8 * dim)
    report.add("dnls_c4", norm, 1e-8 * dim)
    norm, _ = check_commutes(H, total_number, 0.0)
    report.add("dnls_total_number", norm, 0.0)

    Hq = build_qal_chain(basis, gamma)
    q = q_from_gamma(gamma).q
    qgens = suq_n_generators(basis, q)
    if n_sites == 2:
        cq = suq2_casimir(qgens, q).matrix
        norm, _ = check_commutes(Hq, cq, 1e-10 * dim)
        report.add("al_cq", norm, 1e-10 * dim)
    else:
        chev = verify_chevalley(qgens)
        report.add("al_chevalley", chev.max_residual, 1e-12 * dim)
        serre = verify_serre(qgens)
        if not serre.vacuous:
            report.add("al_serre", serre.max_residual, 1e-12 * dim)
    norm, _ = check_commutes(Hq, total_number, 0.0)
    report.add("al_total_number", norm, 0.0)
    return report
