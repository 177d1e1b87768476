"""Sector bases, ladder realizations, algebra relations, and invariant
operators on small occupation-number sectors."""

import dataclasses
import functools
import itertools
import math
import operator
import re
import tracemalloc

import numpy as np
import pytest
from mpmath import mp
from scipy import sparse

from qdimer import (
    MAX_SECTOR_DIM,
    ResidualReport,
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
    su_n_generators,
    suq2_casimir,
    suq_n_generators,
    sym_qnum,
    verify_al_relations,
    verify_chevalley,
    verify_number_reconstruction,
    verify_serre,
)
from qdimer.fock_algebra import _CHECK_RUN, _hop, _qnum_map, _root_vectors, _targets


def _q_hop(basis, i, j, q):
    """q-boson hop with matrix elements sqrt([n_i + 1] [n_j])."""
    return _hop(basis, i, j, _qnum_map(np.arange(basis.total_quanta + 2), q))


def _states(basis):
    """The basis states as occupation tuples, in basis order."""
    return tuple(map(tuple, basis.occupations.tolist()))


def test_basis_enumeration():
    basis = build_sector_basis(2, 3)
    assert _states(basis) == ((0, 3), (1, 2), (2, 1), (3, 0))
    assert basis.dim == 4
    basis = build_sector_basis(3, 2)
    assert _states(basis) == ((0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0))
    assert basis.dim == 6


def test_basis_validation():
    with pytest.raises(ValueError):
        build_sector_basis(0, 3)
    with pytest.raises(ValueError):
        build_sector_basis(2, -1)
    # dimension guard: C(2001, 2) is about 2e6 states
    with pytest.raises(ValueError):
        build_sector_basis(3, 1999)
    assert MAX_SECTOR_DIM == 1_000_000
    assert _states(build_sector_basis(1, 3)) == ((3,),)
    assert build_sector_basis(np.int64(3), np.int32(2)).dim == 6


@pytest.mark.parametrize("n_sites, total_quanta, name", [
    (True, 3, "n_sites"), (2.0, 3, "n_sites"), (np.float64(2.0), 3, "n_sites"),
    (2, True, "total_quanta"), (2, 3.0, "total_quanta"), (2, np.True_, "total_quanta"),
])
def test_sector_sizes_must_be_integers(n_sites, total_quanta, name):
    # bools and integral floats are refused, not built as a 1- or 2-state
    # sector or ended in numpy's reshape
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        build_sector_basis(n_sites, total_quanta)


SECTOR_TABLES = ([(1, m) for m in (*range(13), 1000)]
                 + [(n, m) for n in range(2, 7) for m in range(7)]
                 + [(10, 6), (20, 3), (40, 2), (63, 1)]
                 # several runs of the build's state decoding each
                 + [(2, 200_000), (3, 600), (4, 100)])


@pytest.mark.parametrize("n_sites, total", SECTOR_TABLES)
def test_sector_tables(n_sites, total):
    b = build_sector_basis(n_sites, total)
    occ = b.occupations
    assert b.dim == math.comb(total + n_sites - 1, n_sites - 1)
    assert occ.shape == (b.dim, n_sites) and occ.dtype == np.int64
    if (total + 1) ** n_sites <= 200_000:
        ref = sorted(s for s in itertools.product(range(total + 1), repeat=n_sites) if sum(s) == total)
        assert _states(b) == tuple(ref)
    # dim rows of states, each one's first change from the last upwards:
    # every state, in lexicographic order
    assert (occ >= 0).all() and (occ.sum(axis=1) == total).all()
    step = np.diff(occ, axis=0)
    first = np.argmax(step != 0, axis=1)
    assert (step[np.arange(len(step)), first] > 0).all()
    assert b._counts.tolist() == [[math.comb(r + m - 1, m - 1) for m in range(2, n_sites + 1)]
                                  for r in range(total + 1)]
    assert np.array_equal(b.positions(occ), np.arange(b.dim))


def test_guard_sector_build_peak():
    # near the guard a build keeps the occupations and the rank table and
    # peaks 2.5 MiB above them (26.6 MB at 2 sites, M 999999, 24 MB kept);
    # a build that held a table of the whole sector besides would not pass
    for n_sites, total in ((2, 999_999), (3, 1412), (4, 178)):
        tracemalloc.start()
        try:
            b = build_sector_basis(n_sites, total)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert b.dim > 970_000 and peak < b.occupations.nbytes + b._counts.nbytes + 4 * 2**20
        edge = [0] * (n_sites - 2)
        assert b.occupations[[0, 1, -1]].tolist() == [edge + [0, total], edge + [1, total - 1],
                                                      [total] + [0] * (n_sites - 1)]
        assert np.array_equal(b.positions(b.occupations), np.arange(b.dim))
        del b


def test_guard_sector_targets_peak():
    # a shift's first target rows are formed over runs of states, so near
    # the guard they peak 4.6-6.5 MiB above the rows they keep; one pass
    # over the whole occupation table would peak 70-96 MiB above them
    for n_sites, total in ((2, 999_999), (3, 1412), (4, 178)):
        b = build_sector_basis(n_sites, total)
        delta = (1, -1) + (0,) * (n_sites - 2)
        tracemalloc.start()
        try:
            dst = _targets(b, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dst.nbytes + 8 * 2**20
        live = b.occupations[:, 1] > 0
        assert np.array_equal(dst[~live], np.full(np.count_nonzero(~live), -1))
        assert np.array_equal(b.occupations[dst[live]], b.occupations[live] + delta)
        del b, dst


def test_sector_operator_shape_check():
    basis = build_sector_basis(2, 2)
    SectorOperator(basis, (1, -1), np.zeros(3))
    with pytest.raises(ValueError, match="amplitude shape"):
        SectorOperator(basis, (1, -1), np.zeros(2))
    with pytest.raises(ValueError, match="amplitude shape"):
        SectorOperator(basis, (0, 0), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="sites"):
        SectorOperator(basis, (1, 0, -1), np.zeros(3))


def test_sector_operator_stores_csr():
    # .matrix is formed from (delta, amp) on first access and then kept
    basis = build_sector_basis(3, 3)
    amp = np.zeros(basis.dim)
    ref = np.zeros((basis.dim, basis.dim))
    index = {s: k for k, s in enumerate(_states(basis))}
    for col, s in enumerate(_states(basis)):
        if s[1] > 0:
            amp[col] = col + 1.0
            ref[index[(s[0] + 1, s[1] - 1, s[2])], col] = col + 1.0
    op = SectorOperator(basis, (1, -1, 0), amp)
    assert isinstance(op.matrix, sparse.csr_array)
    assert op.matrix is op.matrix
    assert np.array_equal(op.matrix.toarray(), ref)
    assert np.array_equal(op.T.matrix.toarray(), ref.T)
    hop = hop_operator(basis, 1, 2)
    assert isinstance(hop.matrix, sparse.csr_array)
    assert np.array_equal(hop.matrix.toarray(),
                          _dict_hop(basis, 1, 2, lambda ni, nj: math.sqrt((ni + 1) * nj)))


def _dict_hop(basis, i, j, amplitude):
    """Reference hop: per-state loop over a dict of basis positions."""
    index = {s: k for k, s in enumerate(_states(basis))}
    mat = np.zeros((basis.dim, basis.dim))
    for col, s in enumerate(_states(basis)):
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


def _perturbed_e1(gens):
    """gens with one amplitude of e_1 scaled by 1 + 1e-6."""
    e1 = gens.e[0]
    amp = e1.amp.copy()
    amp[np.flatnonzero(amp)[0]] *= 1.0 + 1e-6
    return dataclasses.replace(gens, e=(SectorOperator(gens.basis, e1.delta, amp),) + gens.e[1:])


def test_checks_detect_a_perturbed_amplitude():
    basis = build_sector_basis(3, 3)
    tol = 1e-12 * basis.dim
    for gens in (su_n_generators(basis), suq_n_generators(basis, q_from_gamma(2.0).q)):
        assert verify_chevalley(gens).max_residual <= tol
        assert verify_serre(gens).max_residual <= tol
        bad = _perturbed_e1(gens)
        assert verify_chevalley(bad).max_residual > tol
        assert verify_serre(bad).max_residual > tol
    gens = su_n_generators(basis)
    for g, lost in ((gens, False), (_perturbed_e1(gens), True)):
        c = casimir_matrix(g, 1).matrix
        worst = max(_sparse_maxabs(c @ x.matrix - x.matrix @ c) for x in g.e + g.h + tuple(x.T for x in g.e))
        assert (worst > 1e-10) == lost, worst


def _sparse_maxabs(m):
    return float(np.max(np.abs(m.data))) if m.nnz else 0.0


def test_number_and_hop_elements():
    basis = build_sector_basis(2, 1)
    # states (0,1), (1,0)
    n1 = number_operator(basis, 1).matrix.toarray()
    assert np.array_equal(n1, np.diag([0.0, 1.0]))
    t = hop_operator(basis, 1, 2).matrix.toarray()
    expect = np.zeros((2, 2))
    expect[_states(basis).index((1, 0)), _states(basis).index((0, 1))] = 1.0
    assert np.array_equal(t, expect)
    # amplitude sqrt((n_i + 1) n_j) on a bigger sector
    basis = build_sector_basis(2, 4)
    t = hop_operator(basis, 1, 2).matrix.toarray()
    src = _states(basis).index((1, 3))
    dst = _states(basis).index((2, 2))
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
    src = _states(basis).index((1, 2))
    dst = _states(basis).index((2, 1))
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
    assert rep.vacuous == (not rep.entries)


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


@pytest.mark.parametrize("gamma, n_max, rows, text", [
    (2.0, 3, 7, "b, bd and n_op must be 4 x 4 at n_max 3, got shapes (7, 7), (7, 7), (7, 7)"),
    (2.0, 7, 7, "b, bd and n_op must be 8 x 8 at n_max 7, got shapes (7, 7), (7, 7), (7, 7)"),
    (2.0, 6, 6, "b, bd and n_op must be 7 x 7 at n_max 6, got shapes (7, 7), (6, 6), (7, 7)"),
    (2.0, 2.5, 7, "n_max must be an integer >= 1, got 2.5"),
    (2.0, 6.0, 7, "n_max must be an integer >= 1, got 6.0"),
    (2.0, True, 7, "n_max must be an integer >= 1, got True"),
    (2.0, 0, 7, "n_max must be an integer >= 1, got 0"),
    (math.nan, 6, 7, "gamma must be finite, got nan"),
    (math.inf, 6, 7, "gamma must be finite, got inf"),
    (-math.inf, 6, 7, "gamma must be finite, got -inf"),
    (-1.0, 6, 7, "gamma must be >= 0, got -1.0"),
])
def test_al_relations_refuse_what_they_cannot_check(gamma, n_max, rows, text):
    # an n_max off the matrices' size ended in numpy's broadcast error, 2.5 in
    # a TypeError, and a nan, infinite or negative gamma returned a residual;
    # bd is cut to its leading rows x rows block
    b, bd, n_op = al_oscillator_ops(6, 2.0)
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        verify_al_relations(b, bd[:rows, :rows], n_op, gamma, n_max)


def test_max_residual_reads_nan():
    # Python's max keeps a finite entry over a NaN that follows it
    rep = ResidualReport()
    rep.add("a", 0.0)
    rep.add("b", math.nan)
    assert math.isnan(rep.max_residual)
    rep = ResidualReport()
    rep.add("b", math.nan)
    rep.add("a", 0.0)
    assert math.isnan(rep.max_residual)
    assert ResidualReport().max_residual == 0.0


def test_su2_casimir_closed_form():
    # spin-1 sector: at q = 1, J0(J0-1) + J+J- has the single eigenvalue j(j+1) = 2
    basis = build_sector_basis(2, 2)
    gens = su_n_generators(basis)
    c = suq2_casimir(gens).matrix
    assert np.max(np.abs(c - 2.0 * np.eye(basis.dim))) < 1e-12
    for g in gens.e + gens.f + gens.h:
        m = g.matrix
        assert np.max(np.abs(c @ m - m @ c)) < 1e-12


def test_suq2_casimir_closed_form():
    q = 1.0 / math.sqrt(2.0)
    basis = build_sector_basis(2, 2)
    gens = suq_n_generators(basis, q)
    c = suq2_casimir(gens).matrix
    expect = sym_qnum(1, q) * sym_qnum(2, q)
    assert np.max(np.abs(c - expect * np.eye(basis.dim))) < 1e-12
    for g in gens.e + gens.f:
        m = g.matrix
        assert np.max(np.abs(c @ m - m @ c)) < 1e-12


def test_suq2_casimir_reads_q_from_generators():
    # the invariant is taken at the generators' own q, so it is the scalar
    # [j][j+1] on every spin-j sector, and the su(2) one for su_n_generators
    for total in range(7):
        basis = build_sector_basis(2, total)
        j = 0.5 * total
        for q in (1.0, 0.5, 0.7, 2.0):
            c = suq2_casimir(suq_n_generators(basis, q)).amp
            expect = sym_qnum(j, q) * sym_qnum(j + 1.0, q)
            assert np.max(np.abs(c - expect)) <= 1e-12 * expect + 1e-15, (total, q)
        assert np.array_equal(suq2_casimir(su_n_generators(basis)).amp,
                              suq2_casimir(suq_n_generators(basis, 1.0)).amp)


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
    for p in (1, 2, 3):
        c = casimir_matrix(gens, p=p).matrix
        for g in gens.e + gens.f + gens.h:
            m = g.matrix
            assert np.max(np.abs(c @ m - m @ c)) < 1e-10
        # scalar on the (irreducible) symmetric sector
        val = c[0, 0]
        assert np.max(np.abs(c - val * np.eye(basis.dim))) < 1e-10


def _upper_end_roots(gens):
    """Reference root vectors nested from the upper end: E_ab = [E_a,b-1, E_b-1,b]."""
    E = {(a, a + 1): gens.e[a].matrix for a in range(gens.n - 1)}
    for span in range(2, gens.n):
        for a in range(gens.n - span):
            b = a + span
            E[a, b] = E[a, b - 1] @ E[b - 1, b] - E[b - 1, b] @ E[a, b - 1]
    return E


def test_casimir_matrix_chain_invariance():
    # the root vectors nested from the lower end (casimir_matrix) equal those
    # nested from the upper end, and so does the quadratic Casimir
    # sum_a eps_a^2 + sum_{a<b} (E_ab E_ab' + E_ab' E_ab), eps_a = N_a - M/n
    for n_sites, total in ((3, 2), (4, 3), (5, 2)):
        basis = build_sector_basis(n_sites, total)
        gens = su_n_generators(basis)
        roots = _upper_end_roots(gens)
        eps = [number_operator(basis, a + 1).matrix.diagonal() - total / n_sites
               for a in range(n_sites)]
        ref = np.diag(sum(x * x for x in eps))
        for m in roots.values():
            ref = ref + (m @ m.T + m.T @ m).toarray()
        lower = _root_vectors(gens.e)
        for (a, b), m in roots.items():
            assert np.max(np.abs(lower[a][b].matrix.toarray() - m.toarray())) < 1e-12
        c = casimir_matrix(gens, p=1).matrix.toarray()
        assert np.max(np.abs(c - ref)) < 1e-12


def test_casimir_matrix_rejects_deformed():
    gens = suq_n_generators(build_sector_basis(3, 2), 0.5)
    with pytest.raises(ValueError):
        casimir_matrix(gens, p=1)


def test_casimir_matrix_refuses_non_integer_degree():
    # a bool or an integral float is not taken for p (True would give C_2,
    # 2.0 would give C_4), as build_dimer and FockSectorBasis refuse them
    gens = su_n_generators(build_sector_basis(3, 2))
    for p in (True, False, 2.0, 1.5, 0, -1, "2"):
        with pytest.raises(ValueError, match=f"^p must be a positive integer, got {re.escape(repr(p))}$"):
            casimir_matrix(gens, p)
    assert np.array_equal(casimir_matrix(gens, np.int64(2)).amp, casimir_matrix(gens, 2).amp)


@pytest.mark.parametrize("bad", [1.0, 1.5, True, np.True_, "1"])
def test_site_indices_must_be_integers(bad):
    # a float site raised numpy's or Python's indexing error, and True
    # hopped from site 1
    basis = build_sector_basis(3, 2)
    for build in (lambda: hop_operator(basis, bad, 2), lambda: hop_operator(basis, 2, bad),
                  lambda: al_hop_operator(basis, bad, 2, 1.0), lambda: number_operator(basis, bad)):
        with pytest.raises(ValueError, match=f"^site index {re.escape(str(bad))} outside 1..3$"):
            build()
    assert hop_operator(basis, np.int64(1), np.int32(2)).delta == (1, -1, 0)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, np.float64(3.0), "3"])
def test_algebra_sizes_must_be_integers(bad):
    # each raised a TypeError from numpy or range() at a float, and True
    # built a 1-level oscillator
    with pytest.raises(ValueError, match=f"^n_max must be an integer >= 1, got {re.escape(repr(bad))}$"):
        al_oscillator_ops(bad, 1.0)
    for f in (cartan_matrix, omega_matrix):
        with pytest.raises(ValueError, match=f"^need an integer n >= 2, got {re.escape(repr(bad))}$"):
            f(bad)
    assert np.array_equal(cartan_matrix(np.int64(3)), cartan_matrix(3))
    assert np.array_equal(al_oscillator_ops(np.int64(4), 1.0)[0], al_oscillator_ops(4, 1.0)[0])


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
    # (4, 5) and (5, 3) hold rank 3 and 4, Serre pairs of order 1 and the
    # n = 4, 5 Casimir blocks
    for n_sites, total, gamma in ((3, 6, 8.0), (3, 12, 2.0), (2, 12, 8.0), (4, 5, 2.0), (5, 3, 8.0)):
        basis = build_sector_basis(n_sites, total)
        for gens in (su_n_generators(basis), suq_n_generators(basis, q_from_gamma(gamma).q)):
            chev = [v for _, v in verify_chevalley(gens).entries]
            assert chev == _dense_chevalley(gens)
            serre = [v for _, v in verify_serre(gens).entries]
            assert serre == _dense_serre(gens)
            nonzero += sum(v > 0.0 for v in chev + serre)
        c2, c4 = (casimir_matrix(su_n_generators(basis), p).amp for p in (1, 2))
        assert np.array_equal(c2, _dense_casimir(su_n_generators(basis), 1))
        assert np.array_equal(c4, _dense_casimir(su_n_generators(basis), 2))
    assert nonzero > 0


def _dense_casimir(gens, p):
    """diag(C_2p) by dense products of the G blocks: root vectors nested
    from the lower end, their transposes, and the traceless weights."""
    n = gens.n
    E = {(a, a + 1): gens.e[a].matrix.toarray() for a in range(n - 1)}
    for span in range(2, n):
        for a in range(n - span):
            b = a + span
            E[a, b] = E[a, a + 1] @ E[a + 1, b] - E[a + 1, b] @ E[a, a + 1]
    g = [2.0 * np.diag(h.matrix.toarray()) for h in gens.h]
    mean = sum((k + 1) * g[k] for k in range(n - 1)) / n
    eps, tail = [None] * n, np.zeros(gens.basis.dim)
    for a in range(n - 1, -1, -1):
        eps[a] = tail - mean
        if a > 0:
            tail = tail + g[a - 1]
    G = [[E[a, b] if a < b else E[b, a].T if a > b else np.diag(eps[a]) for b in range(n)]
         for a in range(n)]
    block = lambda A, B, a, b: functools.reduce(operator.add, (A[a][c] @ B[c][b] for c in range(n)))
    M = [[block(G, G, a, b) for b in range(n)] for a in range(n)]
    left = M
    for _ in range(2, p + 1):
        left = [[block(left, M, a, b) for b in range(n)] for a in range(n)]
    return np.diag(functools.reduce(operator.add, (left[a][a] for a in range(n))))


def test_chevalley_targets_off_the_q_number_table():
    # an h whose 2h is no integer reads [2h] by sym_qnum per value, as the
    # dense reference does
    basis = build_sector_basis(3, 5)
    gens = suq_n_generators(basis, q_from_gamma(2.0).q)
    shifted = dataclasses.replace(gens, h=tuple(SectorOperator.diagonal(basis, x.amp + 0.25)
                                                for x in gens.h))
    assert [v for _, v in verify_chevalley(shifted).entries] == _dense_chevalley(shifted)
    assert verify_chevalley(shifted).max_residual > 0.1


def test_serre_nan_survives_the_runs():
    # the deformed Serre sums overflow to inf - inf = NaN in the first runs
    # of states only, and the residual stays NaN over the later finite ones
    basis = build_sector_basis(3, 600)
    assert basis.dim > 20 * _CHECK_RUN
    gens = suq_n_generators(basis, q_from_gamma(8.0).q)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = verify_serre(gens)
    assert math.isnan(rep.max_residual)


def _as_mpf(gens):
    """gens with every amplitude an object array of mpmath mpf values."""
    def convert(ops):
        return tuple(SectorOperator(gens.basis, x.delta,
                                    np.array([mp.mpf(v) for v in x.amp.tolist()], dtype=object))
                     for x in ops)

    return dataclasses.replace(gens, e=convert(gens.e), f=convert(gens.f), h=convert(gens.h),
                               k=gens.k and convert(gens.k))


def test_checks_run_on_mpf_amplitudes():
    # the checks use only the amplitudes' own arithmetic, which mpf at 53
    # bits rounds as float64 does, so they return the float entries
    with mp.workprec(53):
        for n_sites, total, gamma in ((3, 6, 2.0), (4, 4, 8.0)):
            basis = build_sector_basis(n_sites, total)
            for gens in (su_n_generators(basis), suq_n_generators(basis, q_from_gamma(gamma).q)):
                mpf = _as_mpf(gens)
                assert mpf.e[0].amp.dtype == object
                for check in (verify_chevalley, verify_serre):
                    assert check(mpf).entries == check(gens).entries


def test_zero_shift_targets_are_the_states(monkeypatch):
    # a diagonal's targets are the identity, read without a rank pass
    basis = build_sector_basis(3, 4)

    def refuse(occupations):
        raise AssertionError("rank pass")

    monkeypatch.setattr(basis, "positions", refuse)
    dst = SectorOperator.diagonal(basis, np.ones(basis.dim)).dst
    assert np.array_equal(dst, np.arange(basis.dim)) and dst.dtype == np.int64
