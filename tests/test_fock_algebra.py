"""Sector bases, ladder realizations, algebra relations, and invariant
operators on small occupation-number sectors."""

import math

import numpy as np
import pytest
from scipy import sparse

from qdimer import (
    MAX_SECTOR_DIM,
    SectorOperator,
    al_hop_operator,
    al_oscillator_ops,
    basic_qnum,
    build_sector_basis,
    cartan_matrix,
    casimir_matrix,
    hop_operator,
    number_operator,
    omega_matrix,
    q_binomial,
    q_from_gamma,
    su2_casimir,
    su_n_generators,
    suq2_casimir,
    suq_n_generators,
    sym_qnum,
    verify_al_relations,
    verify_chevalley,
    verify_number_reconstruction,
    verify_serre,
)
from qdimer.fock_algebra import _hop, _sym_qnums


def _q_hop(basis, i, j, q):
    """q-boson hop with matrix elements sqrt([n_i + 1] [n_j])."""
    return _hop(basis, i, j, _sym_qnums(basis, q))


def test_basis_enumeration():
    basis = build_sector_basis(2, 3)
    assert basis.states == ((0, 3), (1, 2), (2, 1), (3, 0))
    assert basis.dim == 4
    basis = build_sector_basis(3, 2)
    assert basis.states == ((0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0))
    assert basis.dim == 6
    for n_sites in (2, 3, 4):
        for total in range(6):
            b = build_sector_basis(n_sites, total)
            assert b.dim == math.comb(total + n_sites - 1, n_sites - 1)
            assert list(b.states) == sorted(b.states)
            assert all(sum(s) == total for s in b.states)
            assert np.array_equal(b.positions(b.occupations), np.arange(b.dim))


def test_basis_validation():
    with pytest.raises(ValueError):
        build_sector_basis(0, 3)
    with pytest.raises(ValueError):
        build_sector_basis(2, -1)
    # dimension guard: C(2001, 2) is about 2e6 states
    with pytest.raises(ValueError):
        build_sector_basis(3, 1999)
    assert MAX_SECTOR_DIM == 1_000_000
    assert build_sector_basis(1, 3).states == ((3,),)


def test_sector_operator_shape_check():
    basis = build_sector_basis(2, 2)
    with pytest.raises(ValueError):
        SectorOperator(basis, np.zeros((2, 2)))


def test_sector_operator_stores_csr():
    basis = build_sector_basis(2, 2)
    dense = np.arange(9.0).reshape(3, 3)
    for given in (dense, sparse.csr_array(dense), sparse.coo_array(dense)):
        op = SectorOperator(basis, given)
        assert isinstance(op.matrix, sparse.csr_array)
        assert np.array_equal(op.matrix.toarray(), dense)
    with pytest.raises(ValueError):
        SectorOperator(basis, sparse.csr_array((2, 2)))


def _dict_hop(basis, i, j, amplitude):
    """Reference hop: per-state loop over a dict of basis positions."""
    index = {s: k for k, s in enumerate(basis.states)}
    mat = np.zeros((basis.dim, basis.dim))
    for col, s in enumerate(basis.states):
        if s[j - 1] == 0:
            continue
        t = list(s)
        t[i - 1] += 1
        t[j - 1] -= 1
        mat[index[tuple(t)], col] = amplitude(s[i - 1], s[j - 1])
    return mat


def test_hops_match_index_loop():
    q, gamma = 0.7, 2.0
    for n_sites, total in ((2, 5), (3, 4), (4, 3), (5, 2)):
        basis = build_sector_basis(n_sites, total)
        assert np.array_equal(basis.positions(basis.occupations), np.arange(basis.dim))
        for i in range(1, n_sites + 1):
            for j in range(1, n_sites + 1):
                if i == j:
                    continue
                ref = _dict_hop(basis, i, j, lambda ni, nj: math.sqrt((ni + 1) * nj))
                assert np.array_equal(hop_operator(basis, i, j).matrix.toarray(), ref)
                ref = _dict_hop(basis, i, j, lambda ni, nj: math.sqrt(
                    sym_qnum(ni + 1, q) * sym_qnum(nj, q)))
                assert np.array_equal(_q_hop(basis, i, j, q).matrix.toarray(), ref)
                ref = _dict_hop(basis, i, j, lambda ni, nj: math.sqrt(
                    basic_qnum(ni + 1, gamma) * basic_qnum(nj, gamma)))
                assert np.array_equal(al_hop_operator(basis, i, j, gamma).matrix.toarray(), ref)


def test_large_sector_chevalley():
    # dim 45451: one dense operator would take 16.5 GB, a sparse one O(dim)
    basis = build_sector_basis(3, 300)
    assert basis.dim == 45451
    gens = su_n_generators(basis)
    for g in gens.e + gens.f + gens.h:
        assert g.matrix.nnz <= basis.dim
    assert verify_chevalley(gens).max_residual <= 1e-12 * basis.dim


def test_number_and_hop_elements():
    basis = build_sector_basis(2, 1)
    # states (0,1), (1,0)
    n1 = number_operator(basis, 1).matrix.toarray()
    assert np.array_equal(n1, np.diag([0.0, 1.0]))
    t = hop_operator(basis, 1, 2).matrix.toarray()
    expect = np.zeros((2, 2))
    expect[basis.states.index((1, 0)), basis.states.index((0, 1))] = 1.0
    assert np.array_equal(t, expect)
    # amplitude sqrt((n_i + 1) n_j) on a bigger sector
    basis = build_sector_basis(2, 4)
    t = hop_operator(basis, 1, 2).matrix.toarray()
    src = basis.states.index((1, 3))
    dst = basis.states.index((2, 2))
    assert abs(t[dst, src] - math.sqrt(2 * 3)) < 1e-15
    with pytest.raises(ValueError):
        hop_operator(basis, 1, 1)
    with pytest.raises(ValueError):
        hop_operator(basis, 0, 2)


def test_hops_are_exact_adjoints():
    basis = build_sector_basis(3, 3)
    q = 0.7
    for i, j in ((1, 2), (2, 3), (1, 3)):
        a = hop_operator(basis, i, j).matrix.toarray()
        b = hop_operator(basis, j, i).matrix.toarray()
        assert np.array_equal(a.T, b)
        aq = _q_hop(basis, i, j, q).matrix.toarray()
        bq = _q_hop(basis, j, i, q).matrix.toarray()
        assert np.array_equal(aq.T, bq)


def test_al_hop_amplitude():
    basis = build_sector_basis(2, 3)
    gamma = 2.0
    t = al_hop_operator(basis, 1, 2, gamma).matrix
    src = basis.states.index((1, 2))
    dst = basis.states.index((2, 1))
    expect = math.sqrt(basic_qnum(2, gamma) * basic_qnum(2, gamma))
    assert abs(t[dst, src] - expect) < 1e-14 * expect


def test_cartan_matrix():
    assert np.array_equal(cartan_matrix(2), np.array([[2.0]]))
    assert np.array_equal(cartan_matrix(3), np.array([[2.0, -1.0], [-1.0, 2.0]]))


def test_chevalley_su2_exact():
    gens = su_n_generators(build_sector_basis(2, 2))
    rep = verify_chevalley(gens)
    assert rep.max_residual < 1e-13


def test_chevalley_suq2():
    rep = verify_chevalley(suq_n_generators(build_sector_basis(2, 4), 0.5))
    assert rep.max_residual < 1e-12


def test_chevalley_and_serre_su3():
    basis = build_sector_basis(3, 3)
    gens = su_n_generators(basis)
    assert verify_chevalley(gens).max_residual < 1e-12
    assert verify_serre(gens).max_residual < 1e-12


def test_q_serre_suq3():
    basis = build_sector_basis(3, 2)
    gens = suq_n_generators(basis, 1.0 / math.sqrt(2.0))
    assert verify_chevalley(gens).max_residual < 1e-12
    assert verify_serre(gens).max_residual < 1e-12


def test_serre_vacuous_for_rank_one():
    rep = verify_serre(su_n_generators(build_sector_basis(2, 3)))
    assert rep.vacuous


def test_q_one_degeneration_entrywise():
    basis = build_sector_basis(3, 2)
    classical = su_n_generators(basis)
    deformed = suq_n_generators(basis, 1.0)
    for a, b in zip(classical.e + classical.f + classical.h,
                    deformed.e + deformed.f + deformed.h):
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-14
    assert abs(verify_chevalley(deformed).max_residual
               - verify_chevalley(classical).max_residual) < 1e-13


def test_al_oscillator_relations():
    for gamma, n_max in ((0.0, 10), (2.0, 20), (8.0, 15)):
        b, bd, n_op = al_oscillator_ops(n_max, gamma)
        assert b.shape == (n_max + 1, n_max + 1)
        rep = verify_al_relations(b, bd, n_op, gamma, n_max)
        assert rep.max_residual <= 1e-10
    # matrix elements: b has sqrt({n}) on the superdiagonal
    b, _, _ = al_oscillator_ops(6, 2.0)
    for n in range(1, 6):
        assert abs(b[n - 1, n] - math.sqrt(basic_qnum(n, 2.0))) < 1e-14


def test_su2_casimir_closed_form():
    # spin-1 sector: J0(J0-1) + J+J- has the single eigenvalue j(j+1) = 2
    basis = build_sector_basis(2, 2)
    gens = su_n_generators(basis)
    c = su2_casimir(gens).matrix
    assert np.max(np.abs(c - 2.0 * np.eye(basis.dim))) < 1e-12
    for g in gens.e + gens.f + gens.h:
        m = g.matrix
        assert np.max(np.abs(c @ m - m @ c)) < 1e-12


def test_suq2_casimir_closed_form():
    q = 1.0 / math.sqrt(2.0)
    basis = build_sector_basis(2, 2)
    gens = suq_n_generators(basis, q)
    c = suq2_casimir(gens, q).matrix
    expect = sym_qnum(1, q) * sym_qnum(2, q)
    assert np.max(np.abs(c - expect * np.eye(basis.dim))) < 1e-12
    for g in gens.e + gens.f:
        m = g.matrix
        assert np.max(np.abs(c @ m - m @ c)) < 1e-12


def test_casimir_matrix_su2_scalar():
    # the trace form gives 2 j(j+1) on a spin-j sector
    for total in (1, 2, 3, 4):
        basis = build_sector_basis(2, total)
        gens = su_n_generators(basis)
        c = casimir_matrix(gens, p=1).matrix
        j = 0.5 * total
        assert np.max(np.abs(c - 2.0 * j * (j + 1.0) * np.eye(basis.dim))) < 1e-11


def test_casimir_matrix_centrality_su3():
    basis = build_sector_basis(3, 3)
    gens = su_n_generators(basis)
    for p in (1, 2):
        c = casimir_matrix(gens, p=p).matrix
        for g in gens.e + gens.f + gens.h:
            m = g.matrix
            assert np.max(np.abs(c @ m - m @ c)) < 1e-10
        # scalar on the (irreducible) symmetric sector
        val = c[0, 0]
        assert np.max(np.abs(c - val * np.eye(basis.dim))) < 1e-10


def test_casimir_matrix_chain_invariance():
    # the nested-commutator root vectors can be built from either end
    basis = build_sector_basis(3, 2)
    gens = su_n_generators(basis)
    a = casimir_matrix(gens, p=1, chain="low").matrix
    b = casimir_matrix(gens, p=1, chain="high").matrix
    assert np.max(np.abs(a - b)) < 1e-12


def test_casimir_matrix_rejects_deformed():
    gens = suq_n_generators(build_sector_basis(3, 2), 0.5)
    with pytest.raises(ValueError):
        casimir_matrix(gens, p=1)


def test_omega_matrix():
    assert np.array_equal(omega_matrix(2), np.array([[1.0, -1.0], [1.0, 1.0]]))
    w = omega_matrix(3)
    assert np.array_equal(w, np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 1.0, 1.0]]))


def test_number_reconstruction():
    assert verify_number_reconstruction(build_sector_basis(2, 3)).max_residual < 1e-12
    assert verify_number_reconstruction(build_sector_basis(3, 2)).max_residual < 1e-12
    assert verify_number_reconstruction(build_sector_basis(4, 3)).max_residual < 1e-12


def test_chevalley_residual_grid():
    rng = np.random.default_rng(11)
    for _ in range(12):
        n_sites = int(rng.integers(2, 4))
        total = int(rng.integers(1, 5))
        q = float(rng.uniform(0.3, 1.0))
        basis = build_sector_basis(n_sites, total)
        rep = verify_chevalley(suq_n_generators(basis, q))
        assert rep.max_residual < 1e-12 * basis.dim
        rep = verify_serre(suq_n_generators(basis, q))
        if not rep.vacuous:
            assert rep.max_residual < 1e-12 * basis.dim


def test_q_hop_matches_al_hop_up_to_sector_scale():
    # {n} = q^(1-n)[n] makes the two hop kinds proportional on a sector
    basis = build_sector_basis(2, 4)
    gamma = 2.0
    q = q_from_gamma(gamma).q
    a = al_hop_operator(basis, 1, 2, gamma).matrix
    b = _q_hop(basis, 1, 2, q).matrix
    scale = q ** (0.5 * (1.0 - basis.total_quanta))
    assert np.max(np.abs(a - scale * b)) < 1e-12


def _dense_chevalley(gens):
    """verify_chevalley's relations on dense matrices with numpy products."""
    a = cartan_matrix(gens.n)
    dense = lambda ops: [g.matrix.toarray() for g in ops]
    e, f, h = dense(gens.e), dense(gens.f), dense(gens.h)
    comm = lambda x, y: x @ y - y @ x
    out = []
    for i in range(gens.rank):
        for j in range(gens.rank):
            if gens.q == 1.0:
                out.append(comm(h[i], h[j]))
                out.append(comm(h[i], e[j]) - 0.5 * a[i, j] * e[j])
                out.append(comm(h[i], f[j]) + 0.5 * a[i, j] * f[j])
                target = 2.0 * h[i] if i == j else 0.0
            else:
                k = np.diag(gens.k[i].matrix.toarray())
                out.append(comm(np.diag(k), gens.k[j].matrix.toarray()))
                out.append((k[:, None] * e[j]) / k[None, :] - gens.q ** (0.5 * a[i, j]) * e[j])
                out.append((k[:, None] * f[j]) / k[None, :] - gens.q ** (-0.5 * a[i, j]) * f[j])
                target = (np.diag([sym_qnum(2.0 * x, gens.q) for x in np.diag(h[i])])
                          if i == j else 0.0)
            out.append(comm(e[i], f[j]) - target)
    return [float(np.max(np.abs(m))) for m in out]


def _dense_serre(gens):
    """verify_serre's sums on dense matrices, each term (c x_i^r) @ x_j @ x_i^s."""
    a = cartan_matrix(gens.n)
    out = []
    for i in range(gens.rank):
        for j in range(gens.rank):
            if i == j:
                continue
            order = 1 - a[i, j]
            for ops in (gens.e, gens.f):
                xi, xj = ops[i].matrix.toarray(), ops[j].matrix.toarray()
                acc = np.zeros_like(xi)
                for r in range(order + 1):
                    coeff = (-1.0) ** r * q_binomial(order, r, gens.q)
                    acc += (coeff * np.linalg.matrix_power(xi, r) @ xj
                            @ np.linalg.matrix_power(xi, order - r))
                out.append(float(np.max(np.abs(acc))))
    return out


def test_residuals_match_dense_products():
    # every product of hops and diagonals has one term per entry, so the
    # sparse residuals are the dense ones bit for bit
    nonzero = 0
    for n_sites, total, gamma in ((3, 6, 8.0), (3, 12, 2.0), (2, 12, 8.0)):
        basis = build_sector_basis(n_sites, total)
        for gens in (su_n_generators(basis), suq_n_generators(basis, q_from_gamma(gamma).q)):
            chev = [v for _, v in verify_chevalley(gens).entries]
            assert chev == _dense_chevalley(gens)
            serre = [v for _, v in verify_serre(gens).entries]
            assert serre == _dense_serre(gens)
            nonzero += sum(v > 0.0 for v in chev + serre)
    assert nonzero > 0
