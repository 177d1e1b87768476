"""Sturm counting, bisection eigenvalues, parity-block eigenvectors, and the
structure checks built on them."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qdimer import (
    TridiagonalHamiltonian,
    build_dimer,
    build_qal_dimer,
    build_qdnls_dimer,
    completeness_check,
    dense_oracle,
    df_orthonormality_check,
    eigenvalues_bisection,
    gershgorin_bounds,
    parity_structure_check,
    solve_spectrum,
)
from qdimer.spectral import (
    _df_gram_float,
    _df_gram_mp,
    _mp_eigenvalues,
    _mp_minors,
    _pivots,
    _radius,
    _reduce,
    _roots,
    _scaled,
)


def _pivot_counts(H, xs):
    """Eigenvalues of H below each x: the negative pivots of the float kernel."""
    d, o, exp = _scaled(H)
    lam = np.ldexp(np.asarray(xs, dtype=float), -exp)
    q = _pivots(d[:, None], np.zeros(lam.size, dtype=int), (o * o)[:, None], lam)
    assert np.isfinite(q).all()
    return np.count_nonzero(q <= 0.0, axis=0)


def _mp_count(H, x):
    """Eigenvalues of H below x: the sign agreements of the mp minor loop."""
    return _mp_minors(list(H.diag), list(H.off**2), x)[1]


def test_sturm_eval_two_level():
    H = build_qal_dimer(1, 2.0)
    minors, count = _mp_minors(list(H.diag), list(H.off**2), 0.0)
    # p_2(0) = -off^2 = -1 between the two eigenvalues +-1
    assert minors == [1.0, 0.0, -1.0]
    assert count == 1
    assert list(_pivot_counts(H, [0.0])) == [1]


def test_sturm_count_outside_bounds():
    H = build_qdnls_dimer(9, 3.0)
    lo, hi = gershgorin_bounds(H)
    assert list(_pivot_counts(H, [lo - 1.0, hi + 1.0])) == [0, H.dim]
    assert _mp_count(H, lo - 1.0) == 0
    assert _mp_count(H, hi + 1.0) == H.dim


def test_sturm_rejects_non_finite():
    H = build_qdnls_dimer(2, 1.0)
    for bad in (float("nan"), float("inf")):
        diag = H.diag.copy()
        diag[1] = bad
        H_bad = TridiagonalHamiltonian(H.sector, "dnls", diag, H.off)
        with pytest.raises(ValueError, match="must be finite"):
            eigenvalues_bisection(H_bad)
        with pytest.raises(ValueError, match="must be finite"):
            solve_spectrum(H_bad)


def test_sturm_count_monotone():
    rng = np.random.default_rng(314)
    for _ in range(20):
        two_j = int(rng.integers(1, 25))
        gamma = float(rng.uniform(0.0, 9.0))
        model = ("dnls", "al")[int(rng.integers(2))]
        H = build_dimer(model, two_j, gamma)
        lo, hi = gershgorin_bounds(H)
        grid = np.sort(rng.uniform(lo, hi, size=12))
        counts = list(_pivot_counts(H, grid))
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert all(0 <= c <= H.dim for c in counts)
        # the float kernel and the mp referee count alike
        assert counts == [_mp_count(H, x) for x in grid]


def test_sturm_no_overflow_large_sector():
    # plain products of (lam - d_k) overflow long before 2j = 120
    H = build_qdnls_dimer(120, 8.0)
    lo, hi = gershgorin_bounds(H)
    assert list(_pivot_counts(H, [hi + 1.0])) == [H.dim]


def test_bisection_two_level_closed_form():
    H = build_qdnls_dimer(1, 4.0)
    evs = eigenvalues_bisection(H)
    assert np.max(np.abs(evs - np.array([-0.5, 1.5]))) < 1e-12


def test_bisection_against_dense_oracle():
    for model, two_j, gamma in (("dnls", 12, 2.0), ("al", 12, 2.0),
                                ("dnls", 25, 8.0), ("al", 20, 5.0)):
        H = build_dimer(model, two_j, gamma)
        evs = eigenvalues_bisection(H, tol=1e-12)
        ref = dense_oracle(H).eigenvalues
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(evs - ref)) < 1e-11 * scale
        assert evs.size == H.dim
        assert np.all(np.diff(evs) >= 0.0)


def test_bisection_trace_identity():
    rng = np.random.default_rng(42)
    for _ in range(25):
        two_j = int(rng.integers(1, 28))
        gamma = float(rng.uniform(0.0, 9.0))
        model = ("dnls", "al")[int(rng.integers(2))]
        H = build_dimer(model, two_j, gamma)
        evs = eigenvalues_bisection(H)
        scale = max(1.0, abs(float(np.sum(H.diag))), float(np.sum(np.abs(evs))))
        assert abs(np.sum(evs) - np.sum(H.diag)) < 1e-10 * scale


def test_bisection_single_level():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        H = build_qdnls_dimer(0, 2.0)
    assert np.array_equal(eigenvalues_bisection(H), H.diag)


def test_eigenvector_two_level():
    s = solve_spectrum(build_qal_dimer(1, 2.0))
    r = 1.0 / math.sqrt(2.0)
    assert np.max(np.abs(s.eigenvalues - [-1.0, 1.0])) < 1e-14
    assert np.max(np.abs(s.vectors[:, 1] - np.array([r, r]))) < 1e-14
    assert abs(s.norm_constants[1] - r) < 1e-14


def test_eigenvector_zero_mode_node():
    # the lam = 0 vector of the integer-spin deformed dimer has an exact node
    s = solve_spectrum(build_qal_dimer(2, 2.0))
    zero = int(np.argmin(np.abs(s.eigenvalues)))
    assert abs(s.eigenvalues[zero]) < 1e-14
    c = s.vectors[:, zero]
    r = 1.0 / math.sqrt(2.0)
    assert c[1] == 0.0
    assert np.max(np.abs(c - np.array([r, 0.0, -r]))) < 1e-14
    assert abs(s.norm_constants[zero] - r) < 1e-14


def test_solve_spectrum_matches_oracle_vectors():
    # direct column comparison is meaningful only when gaps resolve in
    # double precision; collapsed clusters are compared via completeness
    for model, two_j, gamma in (("al", 10, 2.0), ("al", 8, 8.0), ("dnls", 6, 2.0)):
        H = build_dimer(model, two_j, gamma)
        s = solve_spectrum(H)
        o = dense_oracle(H)
        scale = max(1.0, float(np.max(np.abs(o.eigenvalues))))
        assert np.min(np.diff(o.eigenvalues)) > 1e-3 * scale
        assert np.max(np.abs(s.vectors - o.vectors)) < 1e-8
        assert np.max(np.abs(s.eigenvalues - o.eigenvalues)) < 1e-10 * scale


def test_solve_spectrum_residuals():
    for model, gammas in (("dnls", (0.0, 2.0, 8.0, 10.0)), ("al", (0.0, 2.0))):
        for gamma in gammas:
            H = build_dimer(model, 40, gamma)
            s = solve_spectrum(H, tol=1e-14)
            dense = H.to_dense()
            res = np.max(np.abs(dense @ s.vectors - s.vectors * s.eigenvalues))
            assert res < 1e-10, (model, gamma, res)


def test_solve_spectrum_reconstruction():
    eps = np.finfo(float).eps
    for model, two_j, gamma in (("dnls", 20, 2.0), ("al", 20, 2.0),
                                ("dnls", 24, 0.0), ("al", 12, 8.0)):
        H = build_dimer(model, two_j, gamma)
        s = solve_spectrum(H)
        rebuilt = s.vectors @ np.diag(s.eigenvalues) @ s.vectors.T
        tol = 200.0 * s.dim * eps * max(1.0, _radius(H))
        assert np.max(np.abs(rebuilt - H.to_dense())) < tol


def _is_mirror_exact(v):
    return np.array_equal(v[::-1], v) or np.array_equal(v[::-1], -v)


def test_cluster_repair_bookkeeping():
    # strongly collapsed level pairs are even/odd partners: every column is
    # exactly (anti)symmetric, so the clusters need no repair and the basis
    # is complete
    H = build_qdnls_dimer(20, 8.0)
    s = solve_spectrum(H)
    assert all(_is_mirror_exact(v) for v in s.vectors.T)
    assert s.vector_method == ["recurrence"] * s.dim
    assert completeness_check(s) < 1e-9 * s.dim


@pytest.mark.parametrize("two_j, gamma", [(240, 9.0), (400, 8.0)])
def test_al_huge_couplings_match_lapack(two_j, gamma):
    # couplings reach 1e40-1e70 here; squaring them inside a plain Sturm
    # recurrence overflowed and returned wrong eigenvalues
    H = build_qal_dimer(two_j, gamma)
    s = solve_spectrum(H)
    ref = scipy.linalg.eigvalsh_tridiagonal(H.diag, H.off)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(s.eigenvalues - ref)) <= 1e-10 * scale
    assert np.max(np.abs(eigenvalues_bisection(H) - ref)) <= 1e-10 * scale
    assert completeness_check(s) <= 1e-9 * s.dim


@pytest.mark.parametrize("gamma", [1.0, 0.0])
def test_zero_couplings_give_diagonal_spectrum(gamma):
    H = build_dimer("dnls", 4, gamma, epsilon=0.0)
    s = solve_spectrum(H)
    assert np.array_equal(s.eigenvalues, np.sort(H.diag))
    assert np.array_equal(eigenvalues_bisection(H), np.sort(H.diag))
    assert np.max(np.abs(s.vectors.T @ s.vectors - np.eye(s.dim))) < 1e-15
    assert np.max(np.abs(H.to_dense() @ s.vectors - s.vectors * s.eigenvalues)) == 0.0


def test_non_persymmetric_input_stays_orthonormal():
    # one nudged diagonal entry breaks the mirror symmetry, so the collapsed
    # pairs share a block and take the Rayleigh-Ritz guard
    H = build_qdnls_dimer(30, 8.0)
    diag = H.diag.copy()
    diag[0] += 1e-9
    H = TridiagonalHamiltonian(H.sector, "dnls", diag, H.off)
    s = solve_spectrum(H)
    assert "ritz" in s.vector_method
    assert df_orthonormality_check(s) <= 1e-9 * s.dim
    scale = max(1.0, float(np.max(np.abs(s.eigenvalues))))
    assert completeness_check(s) < 1e-9 * s.dim
    assert np.max(np.abs(H.to_dense() @ s.vectors - s.vectors * s.eigenvalues)) < 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(["dnls", "al"]),
    two_j=st.integers(1, 300),
    gamma=st.floats(0.0, 10.0),
    epsilon=st.floats(0.0, 2.0),
)
def test_solve_spectrum_property(model, two_j, gamma, epsilon):
    H = build_dimer(model, two_j, gamma, epsilon if model == "dnls" else 1.0)
    s = solve_spectrum(H)
    ref = scipy.linalg.eigvalsh_tridiagonal(H.diag, H.off)
    assert np.max(np.abs(s.eigenvalues - ref)) <= 1e-10 * max(1.0, float(np.max(np.abs(ref))))
    assert completeness_check(s) <= 1e-9 * s.dim
    assert all(_is_mirror_exact(v) for v in s.vectors.T)


def test_df_orthonormality_small():
    s = solve_spectrum(build_qal_dimer(1, 2.0))
    assert df_orthonormality_check(s) < 1e-12
    s = solve_spectrum(build_qdnls_dimer(6, 2.0))
    assert df_orthonormality_check(s) < 1e-10
    # on the linear dimer a forward recurrence over all of H runs past the
    # decay region of the eigenvectors (5.8e-6/dim at two_j 80); the parity
    # blocks stop at the mirror
    for two_j in (60, 80, 120):
        s = solve_spectrum(build_qdnls_dimer(two_j, 0.0))
        assert df_orthonormality_check(s) <= 1e-9 * s.dim, two_j


def test_df_orthonormality_forced_precision():
    # the mp Gram of the whole scaled H at fixed digits is an oracle for the
    # block path, which stays in double precision here
    s = solve_spectrum(build_qdnls_dimer(6, 2.0))
    H = s.hamiltonian
    d, o, _ = _scaled(H)
    assert _df_gram_mp(d, o, 40) < 1e-10
    red = _reduce(H)
    lam = _roots(H, red, 1e-12)
    blocks = [
        _df_gram_float(red.diag[a : a + n], red.off[a : a + n - 1], lam[a : a + n])[0]
        for a, n in zip(red.starts, red.sizes)
    ]
    auto = df_orthonormality_check(s)
    assert max(blocks) <= 1e-12 * s.dim
    assert auto == max(blocks)
    assert auto < 1e-10


def test_df_orthonormality_zero_couplings():
    # the decoupled dimer has exactly equal level pairs across its 1 x 1
    # blocks; each block is checked on its own
    s = solve_spectrum(build_dimer("dnls", 4, 1.0, epsilon=0.0))
    assert df_orthonormality_check(s) == 0.0


def test_df_orthonormality_collapsed_cluster():
    # float64 gap collapses to ~5e-13 here; the collapsed pairs are even/odd
    # partners, so each parity block checks well separated roots
    H = build_qdnls_dimer(12, 8.0)
    s = solve_spectrum(H)
    assert df_orthonormality_check(s) < 1e-9 * s.dim
    # the block roots the check uses are the solver's eigenvalues
    red = _reduce(H)
    assert np.array_equal(np.sort(np.ldexp(_roots(H, red, 1e-12), red.exp)), s.eigenvalues)


def test_mp_eigenvalues_resolve_collapsed_cluster():
    # the full-matrix mp oracle at fixed digits separates the collapsed
    # pairs of the whole scaled H
    H = build_qdnls_dimer(12, 8.0)
    evs = eigenvalues_bisection(H)
    assert np.min(np.diff(evs)) < 1e-8
    d, o, _ = _scaled(H)
    roots = _mp_eigenvalues(d, o, 60)
    assert len(roots) == H.dim
    gaps = [roots[i + 1] - roots[i] for i in range(len(roots) - 1)]
    assert min(gaps) > 0
    assert _df_gram_mp(d, o, 60) < 1e-9 * H.dim
    assert df_orthonormality_check(solve_spectrum(H)) < 1e-9 * H.dim


def test_completeness():
    s = solve_spectrum(build_qal_dimer(1, 2.0))
    assert completeness_check(s) < 1e-14
    for model in ("dnls", "al"):
        s = solve_spectrum(build_dimer(model, 20, 2.0))
        assert completeness_check(s) < 1e-10


def test_parity_structure():
    rep = parity_structure_check(solve_spectrum(build_qal_dimer(2, 2.0)))
    assert rep.passed
    assert rep.zero_count == 1 and rep.expected_zero_count == 1
    rep = parity_structure_check(solve_spectrum(build_qal_dimer(3, 2.0)))
    assert rep.passed
    assert rep.zero_count == 0
    rep = parity_structure_check(solve_spectrum(build_qal_dimer(8, 2.0)))
    assert rep.passed
    assert rep.max_pair_residual < 1e-10
    assert rep.offending_pairs == ()


def test_parity_rejects_dnls():
    s = solve_spectrum(build_qdnls_dimer(4, 2.0))
    with pytest.raises(ValueError):
        parity_structure_check(s)


def test_characteristic_coefficients_structure():
    # p4 = x^4 - 11.5 x^2 + 12.25 from the q-deformed couplings: roots
    # +-1.0899, +-3.2112
    H = build_qal_dimer(3, 2.0)
    roots = np.sort(np.roots([1.0, 0.0, -11.5, 0.0, 12.25]).real)
    assert np.max(np.abs(eigenvalues_bisection(H) - roots)) < 1e-10
    assert np.max(np.abs(dense_oracle(H).eigenvalues - roots)) < 1e-10
    assert np.max(np.abs(roots - [-3.2112, -1.0899, 1.0899, 3.2112])) < 1e-4


def test_dense_oracle_norm_constants_match_recurrence():
    H = build_qal_dimer(6, 2.0)
    s = solve_spectrum(H)
    o = dense_oracle(H)
    assert s.vector_method[0] == "recurrence"
    assert o.vector_method[0] == "dense"
    assert np.max(np.abs(s.norm_constants - o.norm_constants)) < 1e-10
