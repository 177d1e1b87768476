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
    characteristic_coefficients,
    completeness_check,
    dense_oracle,
    df_orthonormality_check,
    eigenvalues_bisection,
    eigenvector_from_recurrence,
    epsilon_factors,
    gershgorin_bounds,
    parity_structure_check,
    solve_spectrum,
    sturm_eval,
)
from qdimer.spectral import _mp_eigenvalues, _radius


def test_sturm_eval_two_level():
    H = build_qal_dimer(1, 2.0)
    ev = sturm_eval(H, 0.0)
    # p_2(0) = -off^2 = -1 between the two eigenvalues +-1
    assert ev.value == -1.0
    assert ev.log_scale == 0
    assert ev.sign_changes == 1


def test_sturm_count_outside_bounds():
    H = build_qdnls_dimer(9, 3.0)
    lo, hi = gershgorin_bounds(H)
    assert sturm_eval(H, lo - 1.0).sign_changes == 0
    assert sturm_eval(H, hi + 1.0).sign_changes == H.dim


def test_sturm_rejects_non_finite():
    H = build_qdnls_dimer(2, 1.0)
    with pytest.raises(ValueError):
        sturm_eval(H, float("nan"))
    with pytest.raises(ValueError):
        sturm_eval(H, float("inf"))


def test_sturm_count_monotone():
    rng = np.random.default_rng(314)
    for _ in range(20):
        two_j = int(rng.integers(1, 25))
        gamma = float(rng.uniform(0.0, 9.0))
        model = ("dnls", "al")[int(rng.integers(2))]
        H = build_dimer(model, two_j, gamma)
        lo, hi = gershgorin_bounds(H)
        grid = np.sort(rng.uniform(lo, hi, size=12))
        counts = [sturm_eval(H, x).sign_changes for x in grid]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert all(0 <= c <= H.dim for c in counts)


def test_sturm_no_overflow_large_sector():
    # plain products of (lam - d_k) overflow long before 2j = 120
    H = build_qdnls_dimer(120, 8.0)
    lo, hi = gershgorin_bounds(H)
    ev = sturm_eval(H, hi + 1.0)
    assert math.isfinite(ev.value)
    assert ev.sign_changes == H.dim
    assert ev.log_scale > 0


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
    H = build_qal_dimer(1, 2.0)
    c, nc = eigenvector_from_recurrence(H, 1.0)
    r = 1.0 / math.sqrt(2.0)
    assert np.max(np.abs(c - np.array([r, r]))) < 1e-14
    assert abs(nc - r) < 1e-14


def test_eigenvector_zero_mode_node():
    # the lam = 0 vector of the integer-spin deformed dimer has an exact node
    H = build_qal_dimer(2, 2.0)
    c, nc = eigenvector_from_recurrence(H, 0.0)
    r = 1.0 / math.sqrt(2.0)
    assert c[1] == 0.0
    assert np.max(np.abs(c - np.array([r, 0.0, -r]))) < 1e-14
    assert abs(nc - r) < 1e-14


def test_eigenvector_rejects_non_eigenvalue():
    H = build_qdnls_dimer(4, 2.0)
    evs = eigenvalues_bisection(H)
    midpoint = 0.5 * (evs[0] + evs[1])
    with pytest.raises(ValueError):
        eigenvector_from_recurrence(H, midpoint)


def test_epsilon_factors_values():
    e = epsilon_factors(2, "dnls")
    assert e[0] == 1.0
    assert abs(e[1] - math.sqrt(2.0)) < 1e-15
    assert abs(e[2] - 2.0) < 1e-15
    assert np.array_equal(epsilon_factors(6, "al", 0.0), epsilon_factors(6, "dnls"))


def test_epsilon_factors_log_mode():
    lin = epsilon_factors(4, "al", 2.0)
    logf = epsilon_factors(4, "al", 2.0, log=True)
    assert np.max(np.abs(np.exp(logf) - lin)) < 1e-12 * np.max(lin)


def test_epsilon_factors_overflow_guard():
    with pytest.raises(OverflowError):
        epsilon_factors(350, "al", 8.0)
    logf = epsilon_factors(350, "al", 8.0, log=True)
    assert np.all(np.isfinite(logf))
    assert logf.size == 351


def test_epsilon_factors_validation():
    with pytest.raises(ValueError):
        epsilon_factors(4, "heis")
    with pytest.raises(ValueError):
        epsilon_factors(-1, "al")


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


def test_df_orthonormality_forced_precision():
    s = solve_spectrum(build_qdnls_dimer(6, 2.0))
    auto = df_orthonormality_check(s)
    forced_float = df_orthonormality_check(s, digits=0)
    forced_mp = df_orthonormality_check(s, digits=40)
    assert auto == forced_float
    assert forced_mp < 1e-10
    assert auto < 1e-10


def test_df_orthonormality_collapsed_cluster():
    # float64 gap collapses to ~5e-13 here; the check must escalate rather
    # than divide by a garbage Gram matrix
    s = solve_spectrum(build_qdnls_dimer(12, 8.0))
    assert df_orthonormality_check(s) < 1e-9 * s.dim


def test_mp_eigenvalues_resolve_collapsed_cluster():
    H = build_qdnls_dimer(12, 8.0)
    evs = eigenvalues_bisection(H)
    assert np.min(np.diff(evs)) < 1e-8
    roots = _mp_eigenvalues(H, 60)
    assert len(roots) == H.dim
    gaps = [roots[i + 1] - roots[i] for i in range(len(roots) - 1)]
    assert min(gaps) > 0


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
    H = build_qal_dimer(3, 2.0)
    polys = characteristic_coefficients(H)
    assert [p.size - 1 for p in polys] == [0, 1, 2, 3, 4]
    for p in polys:
        assert p[-1] == 1.0
    # zero-diagonal matrix: the minor polynomials have fixed parity
    assert np.max(np.abs(polys[-1][1::2])) == 0.0
    roots = np.sort(np.roots(polys[-1][::-1]).real)
    oracle = dense_oracle(H).eigenvalues
    assert np.max(np.abs(roots - oracle)) < 1e-10
    # p4 = x^4 - 11.5 x^2 + 12.25 from the q-deformed couplings
    assert np.allclose(polys[-1], [12.25, 0.0, -11.5, 0.0, 1.0], atol=1e-12)


def test_dense_oracle_norm_constants_match_recurrence():
    H = build_qal_dimer(6, 2.0)
    s = solve_spectrum(H)
    o = dense_oracle(H)
    assert s.vector_method[0] == "recurrence"
    assert o.vector_method[0] == "dense"
    assert np.max(np.abs(s.norm_constants - o.norm_constants)) < 1e-10
