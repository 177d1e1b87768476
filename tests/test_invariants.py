"""Chain builders on fixed-quanta sectors, dimer reduction, and the
conservation suite."""

import numpy as np
import pytest
from scipy import sparse

from qdimer import (
    ConservationReport,
    al_hop_operator,
    al_oscillator_ops,
    build_qal_chain,
    build_qal_dimer,
    build_qdnls_chain,
    build_qdnls_dimer,
    build_sector_basis,
    cartan_matrix,
    casimir_matrix,
    conservation_suite,
    hop_operator,
    number_operator,
    q_binomial,
    q_from_gamma,
    su_n_generators,
    suq_n_generators,
    sym_qnum,
    verify_chevalley,
    verify_serre,
)


def test_one_quantum_two_sites():
    basis = build_sector_basis(2, 1)
    H = build_qdnls_chain(basis, 0.0).toarray()
    assert np.array_equal(H, np.array([[0.0, -1.0], [-1.0, 0.0]]))
    Hq = build_qal_chain(basis, 0.0).toarray()
    # zero hop amplitude is the same, constant shift 2M = 2
    assert np.array_equal(Hq, np.array([[2.0, -1.0], [-1.0, 2.0]]))


def test_chain_matrices_symmetric():
    for M in (3, 6):
        basis = build_sector_basis(3, M)
        H = build_qdnls_chain(basis, 2.0, 0.7).toarray()
        assert np.array_equal(H, H.T)
        Hq = build_qal_chain(basis, 2.0).toarray()
        assert np.max(np.abs(Hq - Hq.T)) < 1e-13


def test_dnls_chain_reduces_to_dimer():
    # two-site sector with chain nonlinearity gamma/2 equals the rescaled
    # dimer matrix: H_chain = scale * H_dimer + shift * I
    for M in range(1, 13):
        for gamma in (0.0, 2.0, 5.0):
            basis = build_sector_basis(2, M)
            Hc = build_qdnls_chain(basis, gamma / 2.0, 1.0)
            Hd = build_qdnls_dimer(M, gamma)
            lhs = Hd.energy_scale * Hd.to_dense() + Hd.energy_shift * np.eye(M + 1)
            assert np.max(np.abs(Hc.toarray() - lhs)) < 1e-12, (M, gamma)


def test_al_chain_reduces_to_dimer():
    for M in range(1, 13):
        for gamma in (0.0, 0.5, 2.0):
            basis = build_sector_basis(2, M)
            Hc = build_qal_chain(basis, gamma)
            Hd = build_qal_dimer(M, gamma)
            lhs = Hd.energy_scale * Hd.to_dense() + Hd.energy_shift * np.eye(M + 1)
            assert np.max(np.abs(Hc.toarray() - lhs)) < 1e-12, (M, gamma)


def test_al_chain_reduces_to_dimer_strong_coupling():
    # entries grow with gamma, so compare relative to the largest entry
    for M in (4, 8, 12):
        basis = build_sector_basis(2, M)
        Hc = build_qal_chain(basis, 8.0)
        Hd = build_qal_dimer(M, 8.0)
        lhs = Hd.energy_scale * Hd.to_dense() + Hd.energy_shift * np.eye(M + 1)
        scale = np.max(np.abs(Hc))
        assert np.max(np.abs(Hc.toarray() - lhs)) < 1e-13 * scale


def test_sector_blocks_of_independent_full_space():
    # build the two-site chain on the full truncated Fock space with plain
    # kron operators, then check each fixed-quanta block matches the sector
    # builder and nothing couples across blocks
    n_max = 5
    d1 = n_max + 1
    b = np.diag(np.sqrt(np.arange(1.0, d1)), 1)
    num = np.diag(np.arange(d1, dtype=float))
    eye = np.eye(d1)
    gamma, eps = 3.0, 0.8
    hop = np.kron(b.T, b) + np.kron(b, b.T)
    well = np.kron(num @ num, eye) + np.kron(eye, num @ num)
    Hfull = -eps * hop - 0.5 * gamma * well
    Ntot = np.kron(num, eye) + np.kron(eye, num)
    assert np.max(np.abs(Hfull @ Ntot - Ntot @ Hfull)) == 0.0
    for M in (2, 4, 5):
        basis = build_sector_basis(2, M)
        idx = [n1 * d1 + n2 for n1, n2 in basis.occupations.tolist()]
        block = Hfull[np.ix_(idx, idx)]
        Hc = build_qdnls_chain(basis, gamma, eps)
        assert np.max(np.abs(block - Hc.toarray())) < 1e-14
        others = [i for i in range(d1 * d1)
                  if i not in idx and (i // d1 + i % d1) <= n_max]
        assert np.max(np.abs(Hfull[np.ix_(idx, others)])) == 0.0


def test_total_number_commutes_exactly():
    for n_sites, M in ((2, 6), (3, 4)):
        basis = build_sector_basis(n_sites, M)
        Ntot = sum(number_operator(basis, i).matrix for i in range(1, n_sites + 1))
        for gamma in (0.0, 2.0, 8.0):
            for H in (build_qdnls_chain(basis, gamma), build_qal_chain(basis, gamma)):
                comm = H @ Ntot - Ntot @ H
                assert comm.shape == (basis.dim, basis.dim)
                assert np.all(comm.data == 0.0)


@pytest.mark.parametrize("gamma, epsilon, name", [
    (float("nan"), 1.0, "gamma"), (float("inf"), 1.0, "gamma"), (-float("inf"), 1.0, "gamma"),
    (2.0, float("nan"), "epsilon"), (2.0, float("inf"), "epsilon"),
])
def test_qdnls_chain_refuses_non_finite_inputs(gamma, epsilon, name):
    # a nan gamma gave a nan diagonal; the texts are build_qdnls_dimer's
    value = gamma if name == "gamma" else epsilon
    for build in (lambda: build_qdnls_chain(build_sector_basis(2, 3), gamma, epsilon),
                  lambda: build_qdnls_dimer(3, gamma, epsilon)):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            build()


@pytest.mark.parametrize("build", [
    lambda: conservation_suite(2, 445, 8.0),
    lambda: al_hop_operator(build_sector_basis(2, 445), 1, 2, 8.0),
    lambda: al_oscillator_ops(445, 8.0),
    lambda: suq_n_generators(build_sector_basis(2, 1000), q_from_gamma(8.0).q),
])
def test_qnumber_overflow_is_refused(build):
    with pytest.raises(ValueError, match="overflows double precision"):
        build()


def test_conservation_suite_passes():
    for gamma in (0.5, 2.0, 8.0):
        for n_sites, M in ((3, 4), (2, 8)):
            rep = conservation_suite(n_sites, M, gamma)
            assert all(ok for *_, ok in rep.pairs), rep.pairs
            labels = [label for (label, _, _, _) in rep.pairs]
            assert "dnls_c2" in labels
            assert "dnls_c4" in labels
            assert "dnls_total_number" in labels
            assert "al_total_number" in labels
            if n_sites == 2:
                assert "al_cq" in labels
            else:
                assert "al_chevalley" in labels


def test_conservation_report_add():
    rep = ConservationReport(context="demo", pairs=[])
    rep.add("good", 1e-12, 1e-10)
    rep.add("bad", 1.0, 1e-10)
    assert rep.pairs == [("good", 1e-12, 1e-10, True), ("bad", 1.0, 1e-10, False)]


def _csr_diagonal(values):
    return sparse.csr_array(sparse.diags_array(np.asarray(values, dtype=float), format="csr"))


def _csr_maxabs(m):
    return float(np.max(np.abs(m.data))) if m.nnz else 0.0


def _csr_qnums(x, q):
    return np.array([sym_qnum(v, q) for v in x])


def _csr_casimirs(gens):
    """C_2 and C_4 by csr products: root vectors [E_a,a+1, E_a+1,b], G
    blocks multiplied with @, and both invariants as diagonal block sums."""
    n = gens.n
    E = [[None] * n for _ in range(n)]
    for a in range(n - 1):
        E[a][a + 1] = gens.e[a].matrix
    for span in range(2, n):
        for a in range(n - span):
            b = a + span
            E[a][b] = E[a][a + 1] @ E[a + 1][b] - E[a + 1][b] @ E[a][a + 1]
    # traceless weights: eps_a - eps_{a+1} = 2 h_a, sum eps_a = 0
    g = [2.0 * h.matrix.diagonal() for h in gens.h]
    mean = sum((k + 1) * g[k] for k in range(n - 1)) / n
    eps, tail = [None] * n, np.zeros(gens.basis.dim)
    for a in range(n - 1, -1, -1):
        eps[a] = tail - mean
        if a > 0:
            tail = tail + g[a - 1]
    G = [[None] * n for _ in range(n)]
    for a in range(n):
        G[a][a] = _csr_diagonal(eps[a])
        for b in range(a + 1, n):
            G[a][b], G[b][a] = E[a][b], E[a][b].T.tocsr()
    gg = [[sum(G[a][c] @ G[c][b] for c in range(n)) for b in range(n)] for a in range(n)]
    c2 = sum(gg[a][a] for a in range(n))
    c4 = sum(sum(gg[a][c] @ gg[c][a] for c in range(n)) for a in range(n))
    return c2, c4


def _csr_chevalley(gens):
    """Max deformed Chevalley residual: the k relations on the stored
    entries of e_j and f_j, [e_i, f_j] - delta_ij [2 h_i] with csr @."""
    a, r, q = cartan_matrix(gens.n), gens.rank, gens.q
    kd = [k.matrix.diagonal() for k in gens.k]
    worst = 0.0
    for i in range(r):
        for j in range(r):
            worst = max(worst, float(np.max(np.abs(kd[i] * kd[j] - kd[j] * kd[i]))))
            for x, power in ((gens.e[j].matrix, 0.5 * a[i, j]), (gens.f[j].matrix, -0.5 * a[i, j])):
                rows = np.repeat(np.arange(x.shape[0]), np.diff(x.indptr))
                conj = (kd[i][rows] * x.data) / kd[i][x.indices]
                worst = max(worst, _csr_maxabs(sparse.csr_array((conj - q**power * x.data, x.indices, x.indptr))))
            comm = gens.e[i].matrix @ gens.f[j].matrix - gens.f[j].matrix @ gens.e[i].matrix
            if i == j:
                comm = comm - _csr_diagonal(_csr_qnums(2.0 * gens.h[i].matrix.diagonal(), q))
            worst = max(worst, _csr_maxabs(comm))
    return worst


def _csr_serre(gens):
    """Max Serre residual, each term ((coeff x_i^r) @ x_j) @ x_i^s in csr."""
    a, r = cartan_matrix(gens.n), gens.rank
    identity = _csr_diagonal(np.ones(gens.basis.dim))
    worst = 0.0
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            order = 1 - a[i, j]
            for ops in (gens.e, gens.f):
                xi, xj = ops[i].matrix, ops[j].matrix
                powers = [identity, xi]
                while len(powers) <= order:
                    powers.append(powers[-1] @ xi)
                acc = sum((-1.0) ** rr * q_binomial(order, rr, gens.q) * powers[rr] @ xj @ powers[order - rr]
                          for rr in range(order + 1))
                worst = max(worst, _csr_maxabs(acc))
    return worst


def _csr_conservation(n_sites, M, gamma):
    """Every value of conservation_suite, by sparse matrix products."""
    basis = build_sector_basis(n_sites, M)
    comm = lambda H, C: _csr_maxabs(H @ C - C @ H)
    total = number_operator(basis, 1).matrix
    for i in range(2, n_sites + 1):
        total = total + number_operator(basis, i).matrix
    H = build_qdnls_chain(basis, gamma)
    c2, c4 = _csr_casimirs(su_n_generators(basis))
    values = {"dnls_c2": comm(H, c2), "dnls_c4": comm(H, c4), "dnls_total_number": comm(H, total)}
    Hq = build_qal_chain(basis, gamma)
    q = q_from_gamma(gamma).q
    qgens = suq_n_generators(basis, q)
    if n_sites == 2:
        m = qgens.h[0].matrix.diagonal()
        cq = _csr_diagonal(_csr_qnums(m, q) * _csr_qnums(m - 1.0, q)) + qgens.e[0].matrix @ qgens.f[0].matrix
        values["al_cq"] = comm(Hq, cq)
    else:
        values["al_chevalley"] = _csr_chevalley(qgens)
        values["al_serre"] = _csr_serre(qgens)
    values["al_total_number"] = comm(Hq, total)
    return values


@pytest.mark.parametrize("gamma", [0.5, 2.0, 8.0])
def test_conservation_suite_matches_csr_products(gamma):
    # the suite's shift-amplitude products have one term per entry, so every
    # value is the sparse-product value bit for bit
    sectors = [(3, M) for M in range(6, 13)] + [(2, M) for M in range(8, 21)] + [(4, 5)]
    nonzero = 0
    for n_sites, M in sectors:
        rep = conservation_suite(n_sites, M, gamma)
        got = {label: norm for label, norm, _, _ in rep.pairs}
        assert got == _csr_conservation(n_sites, M, gamma), (n_sites, M)
        nonzero += sum(v > 0.0 for v in got.values())
    assert nonzero > 0


def test_checks_run_without_sparse_products(monkeypatch):
    # the generators, the algebra and conservation checks and the Casimirs
    # form no sparse matrix product and construct no csr array
    def refuse(self, *args, **kwargs):
        raise AssertionError("sparse matrix operation")

    eye = sparse.csr_array(np.eye(2))
    monkeypatch.setattr(sparse.csr_array, "__matmul__", refuse)
    monkeypatch.setattr(sparse.csr_array, "__rmatmul__", refuse)
    monkeypatch.setattr(sparse.csr_array, "__init__", refuse)
    with pytest.raises(AssertionError):
        eye @ eye
    with pytest.raises(AssertionError):
        sparse.csr_array(np.eye(2))
    for rep in (conservation_suite(3, 8, 2.0), conservation_suite(2, 8, 8.0)):
        assert all(ok for *_, ok in rep.pairs), rep.pairs
    basis = build_sector_basis(3, 6)
    for gens in (su_n_generators(basis), suq_n_generators(basis, q_from_gamma(2.0).q)):
        assert verify_chevalley(gens).max_residual < 1e-12 * basis.dim
        assert verify_serre(gens).max_residual < 1e-12 * basis.dim
    c2 = casimir_matrix(su_n_generators(basis), 1).amp
    assert np.max(np.abs(c2 - c2[0])) < 1e-10


def _csr_sum_chains(basis, gamma, epsilon):
    """Both chains as a csr diagonal minus csr sums of the hop matrices."""
    dim, n = basis.dim, basis.n_sites
    diagonal = lambda v: sparse.csr_array((v, np.arange(dim), np.arange(dim + 1)), shape=(dim, dim))
    well = np.zeros(dim)
    for i in range(1, n + 1):
        num = number_operator(basis, i).amp
        well -= 0.5 * gamma * (num * num)
    H = diagonal(well)
    for i in range(1, n):
        H = H - epsilon * (hop_operator(basis, i, i + 1).matrix + hop_operator(basis, i + 1, i).matrix)
    Hq = diagonal(np.full(dim, 2.0 * basis.total_quanta))
    for i in range(1, n):
        Hq = Hq - al_hop_operator(basis, i, i + 1, gamma).matrix
        Hq = Hq - al_hop_operator(basis, i + 1, i, gamma).matrix
    return H, Hq


def test_chains_match_csr_sums_bitwise():
    for n_sites, M in ((2, 1), (2, 20), (3, 0), (3, 12), (4, 5), (5, 3)):
        basis = build_sector_basis(n_sites, M)
        for gamma in (0.0, 0.5, 2.0, 8.0):
            for epsilon in (1.0, 0.7):
                ref, ref_q = _csr_sum_chains(basis, gamma, epsilon)
                pairs = ((build_qdnls_chain(basis, gamma, epsilon), ref),
                         (build_qal_chain(basis, gamma), ref_q))
                for got, want in pairs:
                    assert isinstance(got, sparse.csr_array)
                    got.sort_indices()
                    want.sort_indices()
                    for name in ("indptr", "indices", "data"):
                        assert np.array_equal(getattr(got, name), getattr(want, name)), (
                            n_sites, M, gamma, epsilon, name)
