"""Sturm counting, bisection eigenvalues, parity-block eigenvectors, and the
structure checks built on them."""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qdimer import (
    MODELS,
    SpinSector,
    TridiagonalHamiltonian,
    build_dimer,
    build_qal_dimer,
    build_qdnls_dimer,
    completeness_check,
    dense_oracle,
    df_orthonormality_check,
    eigenvalues_batch,
    eigenvalues_bisection,
    gershgorin_bounds,
    parity_structure_check,
    solve_spectrum,
)
from qdimer import spectral
from qdimer.spectral import (
    _df_gram_float,
    _df_gram_mp,
    _mirrored,
    _mp_eigenvalues,
    _mp_minors,
    _multisect,
    _negatives,
    _pivots,
    _reduce,
    _roots,
    _row_sum,
    _stack,
    _twisted,
)


def _scaled(H):
    """Diagonal and couplings of H times 2**-exp, which puts its largest entry
    into [0.5, 1), as _reduce scales it, and exp."""
    exp = math.frexp(max(np.max(np.abs(H.diag)), np.max(np.abs(H.off), initial=0.0)))[1]
    return np.ldexp(H.diag, -exp), np.ldexp(H.off, -exp), exp


def _radius(H):
    """Largest magnitude of H's Gershgorin interval."""
    return max(abs(x) for x in gershgorin_bounds(H.diag, H.off))


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
    lo, hi = gershgorin_bounds(H.diag, H.off)
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
        lo, hi = gershgorin_bounds(H.diag, H.off)
        grid = np.sort(rng.uniform(lo, hi, size=12))
        counts = list(_pivot_counts(H, grid))
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert all(0 <= c <= H.dim for c in counts)
        # the float kernel and the mp referee count alike
        assert counts == [_mp_count(H, x) for x in grid]


def test_sturm_no_overflow_large_sector():
    # plain products of (lam - d_k) overflow long before 2j = 120
    H = build_qdnls_dimer(120, 8.0)
    lo, hi = gershgorin_bounds(H.diag, H.off)
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


def _float_range_matrices():
    """Seeded hand-built tridiagonals of dim 1-60 with entries up to about
    1e308: spread over up to six decades below their matrix's largest, or
    over one decade below a largest above 1e307 in every sixth; a zero
    diagonal in every fourth, zero couplings in every third, persymmetric
    in every fifth, the others neither.  Then four pinned ones: two whose
    unscaled Gershgorin bound overflowed and whose eigenvalues read nan
    (LAPACK: +-1.618e308, +-6.18e307 and +-1.414e308), one whose zero root
    ends at -3.2e-309 in scaled units, a subnormal pivot whose ratio
    overflowed and made its twisted vector nan, and one whose top
    eigenvalue is past the float range."""
    rng = np.random.default_rng(308)
    out = []
    for i in range(150):
        n, near_max = int(rng.integers(1, 61)), i % 6 == 0
        spread = rng.uniform(0.0, 1.0 if near_max else 6.0)
        big = 10.0 ** rng.uniform(307.0 if near_max else -300.0, 308.25)
        d, o = (big * rng.uniform(-1.0, 1.0, k) * 10.0 ** -rng.uniform(0.0, spread, k)
                for k in (n, n - 1))
        if i % 4 == 0:
            d[:] = 0.0
        if i % 3 == 0 and n > 1:
            o[rng.integers(0, n - 1, 2)] = 0.0
        if i % 5 == 0:
            d = np.where(np.arange(n) < n / 2, d, d[::-1])
            o = np.where(np.arange(n - 1) < (n - 1) / 2, o, o[::-1])
        out.append((d, o))
    out += [([0.0] * 4, [1e308] * 3), ([1e308, -1e308], [1e308]),
            ([0.0] * 3, [0.8e300, 0.63e300]), ([1.5e308] * 3, [1e308] * 2)]
    return [TridiagonalHamiltonian(SpinSector(len(d) - 1), "al", d, o) for d, o in out]


def test_float_range_matches_lapack():
    # roots are bracketed on the scaled H, so an H of finite entries never
    # reads nan; one whose eigenvalue overflows is refused
    accepted = []
    for H in _float_range_matrices():
        with np.errstate(over="ignore", invalid="ignore"):
            ref = scipy.linalg.eigvalsh_tridiagonal(H.diag, H.off)
        if np.isfinite(ref).all():
            accepted.append((H, ref))
            continue
        for solve in (eigenvalues_bisection, solve_spectrum):
            with pytest.raises(ValueError, match="overflows double precision"):
                solve(H)
    assert 130 <= len(accepted) < 154
    for (H, ref), evs in zip(accepted, eigenvalues_batch([H for H, _ in accepted])):
        assert not np.isnan(evs).any()
        assert np.max(np.abs(evs - ref)) <= 1e-10 * np.max(np.abs(ref)), (H.diag, H.off)
        s = solve_spectrum(H)
        assert evs.tobytes() == s.eigenvalues.tobytes()
        assert completeness_check(s) <= 1e-9 * s.dim


def test_overflowing_eigenvalue_refused():
    # LAPACK's top eigenvalue here is inf; the bracket from the unscaled
    # Gershgorin interval once gave [1.5e308, nan, nan]
    H = TridiagonalHamiltonian(SpinSector(2), "al", [1.5e308] * 3, [1e308] * 2)
    for solve in (lambda: eigenvalues_batch([H]), lambda: eigenvalues_batch([H], top=1),
                  lambda: solve_spectrum(H)):
        with pytest.raises(ValueError, match="eigenvalue overflows double precision"):
            solve()
    assert eigenvalues_batch([H], top=0)[0].size == 0


def _sweeps(monkeypatch, solve, *args):
    """Kernel calls (of spectral._pivots) that solve(*args) makes, and the
    columns they sweep together."""
    calls = []
    kernel = spectral._pivots

    def counted(*sweep_args):
        calls.append(sweep_args[3].size)
        return kernel(*sweep_args)

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_pivots", counted)
        solve(*args)
    return len(calls), sum(calls)


@pytest.mark.parametrize("model, two_j, gamma", [("dnls", 300, 4.7), ("al", 240, 9.0)])
def test_solve_kernel_sweeps(monkeypatch, model, two_j, gamma):
    # one multisection sweep brackets every root, bisection goes on only
    # until each root is isolated, Newton steps finish it and each twisted
    # factorization runs the stack and its mirror in one call: 15 and 14
    # calls here, against 25 and 22 when the two ran one after the other,
    # 31 and 30 when every root was bisected from the whole bracket, and 58
    # and 192 when bisection went down to the width tol; fusing the calls
    # leaves the columns they sweep unchanged
    calls, swept = _sweeps(monkeypatch, solve_spectrum, build_dimer(model, two_j, gamma))
    assert calls <= 16 and swept <= {"dnls": 4539, "al": 3223}[model]


def test_batch_kernel_sweeps(monkeypatch):
    # the stacked grid shares the multisection sweep: 14 calls, against 24
    # with separate down and up runs and 29 when every root was bisected
    # from the whole bracket
    Hs = [build_dimer("dnls", 100, g) for g in np.geomspace(0.5, 10.0, 16)]
    calls, swept = _sweeps(monkeypatch, eigenvalues_batch, Hs)
    assert calls <= 15 and swept <= 21235
    # the four levels of gaps' two pairs: the first sweep counts the eight
    # highest points of each parity block, then the top four roots of each
    # block only, 2014 columns where a full-width first sweep made 3374
    _, swept = _sweeps(monkeypatch, eigenvalues_batch, Hs, 1e-12, 4)
    assert swept <= 21235 // 5
    assert swept <= 2100
    # at two_j 200 the windowed first sweep takes one call, and the 128
    # selected columns one call per step: 9 calls over 2002 columns, where
    # a full-width first sweep took three calls under the cell budget (11
    # calls, 4962 columns) and consecutive stacks of whole solves took 26
    Hs = [build_dimer("dnls", 200, g) for g in np.geomspace(0.5, 10.0, 16)]
    calls, swept = _sweeps(monkeypatch, eigenvalues_batch, Hs, 1e-12, 4)
    assert calls <= 11
    assert calls <= 9 and swept <= 2100


def _first_phase_calls(monkeypatch, Hs, top):
    """Kernel calls that eigenvalues_batch(Hs, top=top) makes before its
    multisection brackets, and its roots."""
    calls, at = [], []
    kernel, multisect = spectral._pivots, spectral._multisect
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_pivots", lambda *args: calls.append(1) or kernel(*args))
        patch.setattr(spectral, "_multisect",
                      lambda *args: at.append(len(calls)) or multisect(*args))
        roots = eigenvalues_batch(Hs, top=top)
    return at[0], roots


def test_short_window_takes_one_more_sweep(monkeypatch):
    # the top root sits near 1000, far above the other 39 in [-2, 2], so
    # each multisection point below it counts 39 roots: the 2c highest
    # points of top 2, 3 and 5 leave the lowest wanted root's lower end
    # among the points not counted, and the segment's other points are
    # counted in one more sweep, which keeps every root bitwise
    diag = np.zeros(40)
    diag[-1] = 1000.0
    H = TridiagonalHamiltonian(SpinSector(39), "dnls", diag, np.ones(39))
    full = eigenvalues_batch([H])[0]
    one, roots = _first_phase_calls(monkeypatch, [H], 1)
    assert roots[0].tobytes() == _top(full, 1).tobytes()
    for k in (2, 3, 5):
        calls, roots = _first_phase_calls(monkeypatch, [H], k)
        assert calls == one + 1, k
        assert roots[0].tobytes() == _top(full, k).tobytes(), k


@pytest.mark.parametrize("two_j", [101, 103])
def test_windows_at_both_ends(two_j):
    # at even dim the odd block of an AL dimer takes its top roots from the
    # even block's bottom ones, so the even block counts a window at each
    # end of its multisection points
    Hs = _al_grid(two_j)
    full = eigenvalues_batch(Hs)
    for k in (1, 2, 4, 8):
        for evs, part in zip(full, eigenvalues_batch(Hs, top=k)):
            assert part.tobytes() == _top(evs, k).tobytes(), k


def _random_stack(rng):
    """The stack of random tridiagonals of 3 to 9 rows, one of them cut by a
    zero coupling and one persymmetric, with one random shift per column
    and, in column 0, the shift that makes its first real pivot exactly 0."""
    Hs = []
    for n in (5, 9, 3, 7):
        off = rng.uniform(0.1, 1.0, n - 1)
        Hs.append(TridiagonalHamiltonian(SpinSector(n - 1), "dnls", rng.uniform(-1, 1, n), off))
    off = Hs[1].off.copy()
    off[3] = 0.0
    Hs[1] = TridiagonalHamiltonian(Hs[1].sector, "dnls", Hs[1].diag, off)
    d = rng.uniform(-1, 1, 6)
    Hs.append(TridiagonalHamiltonian(SpinSector(5), "dnls", np.concatenate((d[:3], d[2::-1])),
                                     [0.3, 0.5, 0.7, 0.5, 0.3]))
    _, seg, _, d, off = _stack(_reduce(Hs))
    lam = rng.uniform(-1.0, 1.0, seg.size)
    lam[0] = d[d[:, 0] != spectral._PAD_DIAG, 0][0]
    return seg, d, off * off, lam


def test_twisted_is_two_kernel_runs(monkeypatch):
    # one call over the stack and its mirror gives bitwise the separate down
    # and up runs and the twisted pivots formed from them
    rng = np.random.default_rng(11)
    for _ in range(20):
        seg, d, o2, lam = _random_stack(rng)
        assert (np.bincount(seg) > 0).all() and (d == spectral._PAD_DIAG).any()
        up = _pivots(d, seg, o2, lam)
        down = _pivots(d[::-1], seg, o2[-2::-1], lam)[::-1]
        gamma = up + down
        gamma += lam
        dc = np.take(d, seg, axis=1)
        gamma -= dc
        gamma[dc == spectral._PAD_DIAG] = np.inf
        assert (up[:, 0] == -spectral._PIVMIN).any()  # the clamp path ran
        dm, o2m = _mirrored(d, o2)
        for reuse_down in (False, True):
            calls, swept = _sweeps(monkeypatch, _twisted, dm, seg, o2m, lam, reuse_down)
            assert (calls, swept) == (1, 2 * seg.size)
            parts = _twisted(dm, seg, o2m, lam, reuse_down)
            if reuse_down:
                assert parts[1] is parts[2]
            else:
                assert np.array_equal(parts[1], down)
            assert np.array_equal(parts[0], up) and np.array_equal(parts[2], gamma)


def _scalar_pivots(d, o2, lam, clamp):
    """One column of the kernel's recurrence in float64 scalars, row by row:
    q_0 = d_0 - lam, q_k = (d_k - lam) - o2_{k-1} / q_{k-1}, a pivot below
    _PIVMIN in magnitude set to -_PIVMIN under clamp, and the whole column
    swept again under clamp when a pivot is not finite."""
    q = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(d.size):
            x = d[k] - lam
            if k:
                x = x - o2[k - 1] / q[-1]
            if clamp and abs(x) < spectral._PIVMIN:
                x = -spectral._PIVMIN
            q.append(x)
    q = np.array(q)
    return q if clamp or np.isfinite(q).all() else _scalar_pivots(d, o2, lam, True)


def test_kernel_matches_scalar_recurrence():
    # a ragged stack, whose short segments leave padding rows over more than
    # one _ROWS block, at random shifts; column 0's first real pivot is
    # exactly 0, so its first sweep runs into infinities and is redone
    rng = np.random.default_rng(29)
    Hs = [TridiagonalHamiltonian(SpinSector(n - 1), "dnls", rng.uniform(-1, 1, n),
                                 rng.uniform(0.1, 1.0, n - 1)) for n in (3, 45, 20, 2, 37)]
    _, seg, _, d, off = _stack(_reduce(Hs))
    o2 = off * off
    pad = np.take(d, seg, axis=1) == spectral._PAD_DIAG
    assert pad[spectral._ROWS :].any() and not pad.all(axis=0).any()
    lam = rng.uniform(-1.0, 1.0, seg.size)
    lam[0] = d[~pad[:, 0], 0][0]
    dm, o2m = _mirrored(d, o2)
    for clamp in (False, True):
        up = np.column_stack([_scalar_pivots(d[:, s], o2[:, s], x, clamp)
                              for s, x in zip(seg, lam)])
        down = np.column_stack([_scalar_pivots(d[::-1, s], o2[-2::-1, s], x, clamp)[::-1]
                                for s, x in zip(seg, lam)])
        assert (up[:, 0] == -spectral._PIVMIN).any()  # the clamped sweep ran
        q =_pivots(d, seg, o2, lam, clamp)
        assert np.array_equal(q, up)
        assert np.array_equal(_negatives(q), np.count_nonzero(up <= 0.0, axis=0))
        ups, downs, gamma = _twisted(dm, seg, o2m, lam, clamp=clamp)
        assert np.array_equal(ups, up) and np.array_equal(downs, down)
        with np.errstate(over="ignore"):
            ref = up + down + lam - np.take(d, seg, axis=1)
        assert np.array_equal(gamma == np.inf, pad)
        assert np.array_equal(gamma[~pad], ref[~pad])
    # a Sturm count past 255 rows, the most one uint8 sum holds
    q = rng.uniform(-1.0, 0.5, (600, 5))
    assert np.array_equal(_negatives(q), np.count_nonzero(q <= 0.0, axis=0))


@pytest.mark.parametrize("width", [1, 2, 7, 300, 2000])
def test_row_sum_is_the_running_sum(width):
    # the Newton step's sum of 1 / gamma_k adds the rows in order, as cumsum
    # does, whatever the width of the stack, also on the row-reversed half
    # of a 2w-wide table, as _twisted hands it over
    rng = np.random.default_rng(width)
    table = rng.standard_normal((151, width)) * np.exp(rng.uniform(-30, 30, (151, width)))
    table[5] = 0.0  # 1 / inf on a padding row
    running = np.cumsum(table, axis=0)[-1]
    assert np.array_equal(_row_sum(table), running)
    wide = np.zeros((151, 2 * width))
    wide[::-1, width:] = table
    assert np.array_equal(_row_sum(wide[::-1, width:]), running)


def test_pivots_refuse_descending_segments():
    seg, d, o2, lam = _random_stack(np.random.default_rng(3))
    with pytest.raises(ValueError, match="ascend"):
        _pivots(d, seg[::-1], o2, lam)


def test_multisect_brackets_from_counts():
    # three segments of 3, 2 and 2 roots; the middle one's counts fall
    seg = np.array([0, 0, 0, 1, 1, 2, 2])
    idx = np.array([0, 1, 2, 0, 1, 0, 1])
    lo = np.array([0.0, 0.0, 0.0, -1.0, -1.0, 5.0, 5.0])
    hi = np.array([4.0, 4.0, 4.0, 1.0, 1.0, 8.0, 8.0])
    x = np.array([1.0, 2.0, 3.0, -0.5, 0.5, 6.0, 7.0])
    count = np.array([1, 1, 3, 2, 1, 1, 2])
    lo, hi, n_lo, n_hi = _multisect(seg, idx, lo, hi, x, count)
    # points [0, 1, 2, 3, 4] with counts [0, 1, 1, 3, 3]: root 0 is isolated
    # in (0, 1], roots 1 and 2 share (2, 3]
    assert lo[:3].tolist() == [0.0, 2.0, 2.0] and hi[:3].tolist() == [1.0, 3.0, 3.0]
    assert n_lo[:3].tolist() == [0, 1, 1] and n_hi[:3].tolist() == [1, 3, 3]
    # counts 2, 1 do not rise: the segment keeps its whole bracket
    assert lo[3:5].tolist() == [-1.0, -1.0] and hi[3:5].tolist() == [1.0, 1.0]
    assert n_lo[3:5].tolist() == [0, 0] and n_hi[3:5].tolist() == [2, 2]
    # points [5, 6, 7, 8] with counts [0, 1, 2, 2]: both roots isolated
    assert lo[5:].tolist() == [5.0, 6.0] and hi[5:].tolist() == [6.0, 7.0]
    assert n_lo[5:].tolist() == [0, 1] and n_hi[5:].tolist() == [1, 2]


@pytest.mark.parametrize("model, two_j, gamma", [("dnls", 60, 2.0), ("al", 41, 9.0)])
def test_multisect_brackets_hold_their_roots(model, two_j, gamma):
    # kernel counts at the shifts _roots takes: each bracket holds its root,
    # with the true number of roots below either end
    red = _reduce([build_dimer(model, two_j, gamma)])
    cols, seg, idx, d, off = _stack(red)
    lo, hi = np.full(seg.size, red.lo[0]), np.full(seg.size, red.hi[0])
    x = lo + (hi - lo) * ((idx + 1) / (np.bincount(seg)[seg] + 1))
    count = np.count_nonzero(_pivots(d, seg, off * off, x) <= 0.0, axis=0)
    assert (np.diff(count)[np.diff(seg) == 0] >= 0).all()
    lo, hi, n_lo, n_hi = _multisect(seg, idx, lo, hi, x, count)
    ref = [scipy.linalg.eigvalsh_tridiagonal(red.diag[a : a + b], red.off[a : a + b - 1])
           for a, b in zip(red.starts, red.sizes) if b > 1]
    for ends, counts in ((lo, n_lo), (hi, n_hi)):
        assert [np.searchsorted(ref[s], e) for s, e in zip(seg, ends)] == counts.tolist()
    assert (n_lo <= idx).all() and (idx < n_hi).all()
    assert np.count_nonzero((n_lo == idx) & (n_hi == idx + 1)) > seg.size // 2


def test_newton_iterates_do_not_swing_between_bracket_ends(monkeypatch):
    # here a Newton step from one end of a bracket a few ulps wide lands on
    # the other end and back, until the 4096-step cap, unless a step from an
    # end that reaches the other end is replaced by bisection
    H = build_qdnls_dimer(73, 6.79729402773982)
    diag = H.diag.copy()
    diag[12] += 1.0
    H = TridiagonalHamiltonian(H.sector, "dnls", diag, H.off)
    assert _sweeps(monkeypatch, eigenvalues_bisection, H, 1e-15)[0] <= 100
    ref = scipy.linalg.eigvalsh_tridiagonal(H.diag, H.off)
    assert np.max(np.abs(eigenvalues_bisection(H, 1e-15) - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("model, two_j, gamma, tol", [
    ("dnls", 100, 0.17420709385712702, 1e-15),
    ("al", 51, 15.581556161088884, 1e-12),
    ("al", 240, 0.13572088082974532, 1e-15),
])
def test_newton_settles_at_a_bracket_end(monkeypatch, model, two_j, gamma, tol):
    # the iterate is clipped onto a bracket end at its root, and its step
    # from there, a rounding floor of 8-21 eps |x|, points out through that
    # end: it is done there, in 19, 15 and 11 kernel calls (36, 26 and 19
    # when the down and up runs took one call each), where alternating
    # between the end and bisection took 108, 106 and 89 calls
    H = build_dimer(model, two_j, gamma)
    assert _sweeps(monkeypatch, eigenvalues_bisection, H, tol)[0] <= 40
    ref = scipy.linalg.eigvalsh_tridiagonal(H.diag, H.off)
    assert np.max(np.abs(eigenvalues_bisection(H, tol) - ref)) <= 1e-13 * np.max(np.abs(ref))


def _top(evs, k):
    """The top k of an ascending spectrum, as eigenvalues_batch's top keeps them."""
    return evs[max(evs.size - k, 0) :]


def _al_grid(two_j):
    return [build_qal_dimer(two_j, float(g)) for g in np.geomspace(0.5, 10.0, 16)]


def _assert_mirrored(lo, hi, dim):
    """lo, the bottom of an ascending chiral spectrum of dim roots, is bitwise
    minus hi, its top, reversed.  The middle root of an odd dim is its own
    partner: solved, it is zero only to rounding, and is left out."""
    k = min(lo.size, hi.size, dim // 2)
    assert lo[:k].tobytes() == (-hi[::-1][:k]).tobytes()


@pytest.mark.parametrize("two_j", [101, 100])
def test_chiral_fold_mirrors_al_spectra(two_j):
    # the fold solves the even block of an odd two_j, the top half of each
    # block of an even one, and mirrors the rest: minus a solved root,
    # bitwise, under top too
    Hs, dim = _al_grid(two_j), two_j + 1
    full = eigenvalues_batch(Hs)
    for H, evs in zip(Hs, full):
        _assert_mirrored(evs, evs, dim)
        assert evs.tobytes() == solve_spectrum(H).eigenvalues.tobytes()
    for k in (0, 1, 2, 4, 7, dim + 3):
        for evs, hi in zip(full, eigenvalues_batch(Hs, top=k)):
            assert hi.tobytes() == _top(evs, k).tobytes()
            _assert_mirrored(evs[:k], hi, dim)


@pytest.mark.parametrize("two_j, gamma", [(101, 2.0), (100, 2.0), (41, 9.0), (40, 0.5),
                                          (7, 2.0), (6, 2.0), (2, 1.0)])
def test_chiral_vectors_are_checkerboard_images(two_j, gamma):
    # column a's partner is column dim - 1 - a: a mirrored column is the
    # solved one with every other entry negated, up to its sign
    s = solve_spectrum(build_qal_dimer(two_j, gamma))
    n = s.dim
    mirrored = np.flatnonzero([m == "chiral" for m in s.vector_method])
    assert mirrored.size == n // 2 and not np.isin(n - 1 - mirrored, mirrored).any()
    assert s.eigenvalues[mirrored].tobytes() == (-s.eigenvalues[n - 1 - mirrored]).tobytes()
    image = (-1.0) ** np.arange(n)[:, None] * s.vectors[:, n - 1 - mirrored]
    for v, w in zip(s.vectors[:, mirrored].T, image.T):
        assert np.array_equal(v, w) or np.array_equal(v, -w)
    rep = parity_structure_check(s)
    assert rep.passed and (rep.max_pair_residual == 0.0 or n % 2)
    scale = max(1.0, float(np.max(np.abs(s.eigenvalues))))
    dense = s.hamiltonian.to_dense()
    assert np.max(np.abs(dense @ s.vectors - s.vectors * s.eigenvalues)) < 1e-10 * scale
    assert np.max(np.abs(s.vectors.T @ s.vectors - np.eye(n))) <= 1e-9 * n
    assert completeness_check(s) <= 1e-9 * n
    assert df_orthonormality_check(s) <= 1e-9 * n


def _zero_diagonal(n, persymmetric):
    """A hand-built tridiagonal of zero diagonal, cut by zero couplings at
    rows 1 and n - 3: persymmetric or not."""
    off = np.random.default_rng(n).uniform(0.2, 1.0, n - 1)
    if persymmetric:
        off = np.where(np.arange(n - 1) < (n - 1) / 2, off, off[::-1])
    off[[1, n - 3]] = 0.0
    return TridiagonalHamiltonian(SpinSector(n - 1), "al", np.zeros(n), off)


@pytest.mark.parametrize("n", [10, 11, 12])
@pytest.mark.parametrize("persymmetric", [True, False])
def test_chiral_fold_of_hand_built_matrices(n, persymmetric):
    H = _zero_diagonal(n, persymmetric)
    red = _reduce([H])
    assert (red.twin >= 0).sum() == (n // 2 if persymmetric and n % 2 == 0 else
                                     sum(size // 2 for size in red.sizes))
    s = solve_spectrum(H)
    assert "chiral" in s.vector_method
    evs = eigenvalues_batch([H])[0]
    assert evs.tobytes() == s.eigenvalues.tobytes()
    _assert_mirrored(evs, evs, n)
    ref = scipy.linalg.eigvalsh_tridiagonal(H.diag, H.off)
    assert np.max(np.abs(evs - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.max(np.abs(H.to_dense() @ s.vectors - s.vectors * s.eigenvalues)) < 1e-14
    assert np.max(np.abs(s.vectors.T @ s.vectors - np.eye(n))) <= 1e-14
    assert completeness_check(s) <= 1e-14
    assert df_orthonormality_check(s) <= 1e-12 * n
    for k in (0, 1, 2, 4, 7, n + 3):
        assert eigenvalues_batch([H], top=k)[0].tobytes() == _top(evs, k).tobytes()


def test_chiral_fold_under_the_ritz_guard():
    # level pairs 1e-9 apart inside the even block: the Rayleigh-Ritz guard
    # replaces solved and mirrored columns alike
    H = TridiagonalHamiltonian(SpinSector(5), "al", np.zeros(6), [1.0, 1e-9, 1.0, 1e-9, 1.0])
    s = solve_spectrum(H)
    assert {"ritz", "chiral", "recurrence"} == set(s.vector_method)
    assert np.max(np.abs(H.to_dense() @ s.vectors - s.vectors * s.eigenvalues)) < 1e-14
    assert np.max(np.abs(s.vectors.T @ s.vectors - np.eye(6))) <= 1e-14
    assert completeness_check(s) <= 1e-14


def test_chiral_fold_halves_the_al_sweeps(monkeypatch):
    # the 16-step grid at two_j 101 stacks the even blocks only: 9666
    # columns where both blocks took 19334; at two_j 131, 13 calls where
    # two stacks of both blocks took 24; an even two_j bisects and finishes
    # the top half of each block: 1740 columns where all took 3223
    calls, swept = _sweeps(monkeypatch, eigenvalues_batch, _al_grid(101))
    assert calls <= 13 and swept <= 19334 // 2 + 100
    assert _sweeps(monkeypatch, eigenvalues_batch, _al_grid(131))[0] <= 14
    _, swept = _sweeps(monkeypatch, solve_spectrum, build_qal_dimer(240, 9.0))
    assert swept <= 1800


def test_al_exact_zero_mode():
    # the Newton steps land on the exact zero eigenvalue of even two_j, where
    # the kernel meets zero pivots; the twisted vectors there stay finite
    for two_j in range(2, 41, 2):
        s = solve_spectrum(build_qal_dimer(two_j, 6.0))
        scale = max(1.0, float(np.max(np.abs(s.eigenvalues))))
        assert np.isfinite(s.vectors).all(), two_j
        assert np.min(np.abs(s.eigenvalues)) <= 1e-15 * scale, two_j
        assert completeness_check(s) <= 1e-10, two_j


@pytest.mark.parametrize("gamma", [1.0, 0.0])
def test_zero_couplings_give_diagonal_spectrum(gamma):
    H = build_dimer("dnls", 4, gamma, epsilon=0.0)
    s = solve_spectrum(H)
    assert np.array_equal(s.eigenvalues, np.sort(H.diag))
    assert np.array_equal(eigenvalues_bisection(H), np.sort(H.diag))
    assert np.max(np.abs(s.vectors.T @ s.vectors - np.eye(s.dim))) < 1e-15
    assert np.max(np.abs(H.to_dense() @ s.vectors - s.vectors * s.eigenvalues)) == 0.0


def _nudged_dimer():
    """build_qdnls_dimer(30, 8) with diag[0] nudged by 1e-9: not persymmetric,
    so its collapsed pairs share one block of 31 rows."""
    H = build_qdnls_dimer(30, 8.0)
    diag = H.diag.copy()
    diag[0] += 1e-9
    return TridiagonalHamiltonian(H.sector, "dnls", diag, H.off)


def test_non_persymmetric_input_stays_orthonormal(monkeypatch):
    # one nudged diagonal entry breaks the mirror symmetry, so the collapsed
    # pairs share a block and take the Rayleigh-Ritz guard
    H = _nudged_dimer()
    s = solve_spectrum(H)
    assert "ritz" in s.vector_method
    # the mp pass (336 digits here) runs the minor loop once per root, for
    # its Gram column; bisecting the roots took about 1000 loops per root
    calls = []
    minors = spectral._mp_minors
    monkeypatch.setattr(spectral, "_mp_minors", lambda *args: calls.append(1) or minors(*args))
    assert df_orthonormality_check(s) <= 1e-9 * s.dim
    assert len(calls) == s.dim
    scale = max(1.0, float(np.max(np.abs(s.eigenvalues))))
    assert completeness_check(s) < 1e-9 * s.dim
    assert np.max(np.abs(H.to_dense() @ s.vectors - s.vectors * s.eigenvalues)) < 1e-10 * scale


def _mixed_dimers():
    """AL with zero modes, zero couplings, linear ladders, the Sturm-overflow
    AL dimer, a large chirally folded one and a non-persymmetric one, in one
    list."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # two_j = 0 is a 1 x 1 sector
        Hs = [build_qal_dimer(two_j, 2.0) for two_j in range(41)]
    Hs += [build_dimer("dnls", two_j, 2.0, epsilon=0.0) for two_j in (1, 4, 7)]
    Hs += [build_qdnls_dimer(two_j, g) for two_j in (2, 30, 31) for g in (0.0, 8.0)]
    Hs += [build_qal_dimer(240, 9.0), build_qal_dimer(241, 9.0), build_qal_dimer(12, 0.0)]
    H = build_qdnls_dimer(30, 8.0)
    diag = H.diag.copy()
    diag[0] += 1e-9
    Hs.append(TridiagonalHamiltonian(H.sector, "dnls", diag, H.off))
    return Hs


@pytest.mark.parametrize("tol", [1e-12, 1e-15])
def test_batch_matches_per_matrix(tol):
    # every matrix keeps its own scaling, bracket and tol inside the stack
    Hs = _mixed_dimers()
    assert len(Hs) == 54
    _, seg, _, d, _ = _stack(_reduce(Hs))
    assert seg.size * d.shape[0] > spectral._STACK_CELLS  # the first sweep is split
    batch = eigenvalues_batch(Hs, tol)
    assert len(batch) == len(Hs)
    for H, evs in zip(Hs, batch):
        assert np.array_equal(evs, eigenvalues_bisection(H, tol)), (H.model, H.dim)


@pytest.mark.parametrize("tol", [1e-12, 1e-15])
def test_selected_roots_are_the_full_solves(tol):
    # each kept root runs the same steps on its own column as in the full
    # solve; top=0 keeps none of it
    Hs = _mixed_dimers()
    full = eigenvalues_batch(Hs, tol)
    for k in (0, 1, 2, 4, 7, max(H.dim for H in Hs) + 3):
        for evs, part in zip(full, eigenvalues_batch(Hs, tol, top=k)):
            assert part.tobytes() == _top(evs, k).tobytes(), k


def test_selected_roots_on_random_grids():
    # 1024 dimers in 32 gamma grids of 32 steps, as the command line stacks
    # them: dnls and AL, two_j 1-300 log-uniform, one grid in 4 from gamma 0,
    # and three couplings set to 0 in every fifth dimer
    rng = np.random.default_rng(23)
    compared = 0
    for g in range(32):
        model, two_j = MODELS[g % 2], int(np.exp(rng.uniform(0.0, math.log(301.0))))
        grid = np.geomspace(rng.uniform(0.05, 1.0), rng.uniform(2.0, 10.0), 32)
        grid[0] *= g % 4 > 0
        Hs = [build_dimer(model, two_j, float(gamma)) for gamma in grid]
        for H in Hs[::5]:
            H.off[rng.integers(0, two_j, 3)] = 0.0
        full = eigenvalues_batch(Hs)
        k = int(rng.choice([1, 2, 3, 4, 8, int(rng.integers(0, two_j + 4))]))
        for evs, part in zip(full, eigenvalues_batch(Hs, top=k)):
            assert part.tobytes() == _top(evs, k).tobytes(), (model, two_j, k)
            compared += 1
    assert compared == 1024


@pytest.mark.parametrize("top", [-1, 2.5, slice(-2, None), "2", True, np.True_])
def test_invalid_top_rejected(top):
    with pytest.raises(ValueError, match="top"):
        eigenvalues_batch([build_qal_dimer(6, 1.0)], top=top)


def test_batch_edge_cases():
    assert eigenvalues_batch([]) == []
    with pytest.raises(ValueError, match="tol"):
        eigenvalues_batch([build_qal_dimer(2, 1.0)], tol=0.0)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_non_finite_tol_rejected(tol):
    # tol = inf once returned -5.0996, -0.0394, ... for -4.9842, -1.1789, ...
    H = build_dimer("dnls", 6, 2.0)
    for solve, arg in ((eigenvalues_batch, [H]), (eigenvalues_bisection, H), (solve_spectrum, H)):
        with pytest.raises(ValueError, match="tol"):
            solve(arg, tol)


def test_solve_spectrum_rejects_loose_tol():
    # eigenvectors need roots to at least 1e-10; eigenvalues take any tol > 0
    H = build_qdnls_dimer(12, 2.0)
    for tol in (1e-9, 1e-3, 0.0):
        with pytest.raises(ValueError, match="1e-10"):
            solve_spectrum(H, tol)
    assert np.array_equal(solve_spectrum(H, spectral.SOLVE_TOL_MAX).eigenvalues,
                          eigenvalues_bisection(H, spectral.SOLVE_TOL_MAX))
    loose = eigenvalues_bisection(H, 1e-3)
    assert np.array_equal(eigenvalues_batch([H], 1e-3)[0], loose)
    assert np.max(np.abs(loose - dense_oracle(H).eigenvalues)) < 1e-3 * (1.0 + _radius(H))


def _batch_peak(Hs):
    """tracemalloc peak of eigenvalues_batch(Hs), in bytes."""
    tracemalloc.start()
    try:
        eigenvalues_batch(Hs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_is_bounded():
    # a 64-step grid at dim 201 stacks to about 23 MB of kernel tables in
    # one piece; the cell budget cuts every kernel call to about 1 MB (2 MB
    # for a twisted call), and the whole grid's per-column state is small
    Hs = [build_qdnls_dimer(200, float(g)) for g in np.geomspace(0.5, 10.0, 64)]
    assert _batch_peak(Hs) < 4 * 2**20


def test_split_calls_hold_no_earlier_table():
    # a 40-step grid at dim 251 makes ten calls per full-width step; the
    # peak, 3.43 MB, is within 10% of the 3.20 MB that consecutive stacks of
    # whole solves took, which a run that kept an earlier call's table
    # alive (7.58 MB) was not
    Hs = [build_qdnls_dimer(250, float(g)) for g in np.geomspace(0.5, 10.0, 40)]
    assert _batch_peak(Hs) <= 1.1 * 3.20e6


def test_split_calls_are_bitwise(monkeypatch):
    # a budget of 600 cells splits every kernel call of these stacks into
    # runs of at most 20 columns; no root or vector moves
    grids = [_mixed_dimers(), _al_grid(101),
             [build_dimer("dnls", 60, g) for g in np.geomspace(0.5, 10.0, 16)]]
    solved = [build_qal_dimer(41, 9.0), build_qal_dimer(40, 2.0), build_qdnls_dimer(60, 8.0),
              _nudged_dimer()]

    def run():
        out = [[evs.tobytes() for evs in eigenvalues_batch(Hs, top=k)]
               for Hs in grids for k in (None, 0, 1, 4, max(H.dim for H in Hs) + 3)]
        for H in solved:
            s = solve_spectrum(H)
            out.append([s.eigenvalues.tobytes(), s.vectors.tobytes(), s.vector_method])
        return out

    calls = []
    kernel = spectral._pivots
    monkeypatch.setattr(spectral, "_pivots", lambda *args: calls.append(1) or kernel(*args))
    whole, unsplit = run(), len(calls)
    monkeypatch.setattr(spectral, "_STACK_CELLS", 600)
    assert run() == whole
    assert len(calls) - unsplit > 10 * unsplit
    assert eigenvalues_batch([]) == []


def test_solve_memory_is_bounded():
    # 3.72 MB at dim 481, set by the eigenvector matrix and the tables of
    # its parity blocks; vectors that kept a view of the twisted call's
    # 2w-wide pivot table alive read 4.61 MB
    H = build_dimer("dnls", 480, 8.7)
    tracemalloc.start()
    try:
        solve_spectrum(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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
    red = _reduce([H])
    lam = _roots(red, 1e-12)
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
    red = _reduce([H])
    assert np.array_equal(np.sort(np.ldexp(_roots(red, 1e-12), red.exp[0])), s.eigenvalues)


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


def _mp_blocks(H):
    """The blocks of H that df_orthonormality_check takes to mpmath, with the
    digits it picks there."""
    red = _reduce([H])
    lam = _roots(red, 1e-12)
    for a, n in zip(red.starts, red.sizes):
        d, o = red.diag[a : a + n], red.off[a : a + n - 1]
        residual, decades = _df_gram_float(d, o, lam[a : a + n])
        if residual > 1e-12 * H.dim:
            yield d, o, 30 + math.ceil(decades)


@pytest.mark.parametrize("H", [build_qdnls_dimer(30, 8.0), _nudged_dimer()],
                         ids=["dnls30-g8", "nudged"])
def test_mp_roots_confirmed_by_sturm_counts(H):
    # every mp root of an escalated block lies alone in root -+ 10^(6 - dps)
    # by the Sturm counts of the mp minor loop
    blocks = list(_mp_blocks(H))
    assert blocks
    for d, o, dps in blocks:
        roots = _mp_eigenvalues(d, o, dps)
        with mp.workdps(dps):
            d, o2 = [mp.mpf(x) for x in d], [mp.mpf(x) ** 2 for x in o]
            w = mp.mpf(10) ** (6 - dps)
            for i, x in enumerate(roots):
                assert _mp_minors(d, o2, x - w)[1] == i, (dps, i)
                assert _mp_minors(d, o2, x + w)[1] == i + 1, (dps, i)


def test_mp_referee_rejects_bad_roots(monkeypatch):
    # roots with one repeated, or one moved by 1e-8, fail the mp Gram
    H = build_qdnls_dimer(30, 8.0)
    for d, o, dps in _mp_blocks(H):
        roots = _mp_eigenvalues(d, o, dps)
        bad = []
        with mp.workdps(dps):
            for j in range(len(roots)):
                moved = list(roots)
                moved[j] += mp.mpf("1e-8")
                bad.append(moved)
            bad.append(roots[:1] + roots[:-1])
        for wrong in bad:
            monkeypatch.setattr(spectral, "_mp_eigenvalues", lambda *args: wrong)
            assert _df_gram_mp(d, o, dps) > 1e-9 * H.dim


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


def test_dense_oracle_single_level():
    # the 1 x 1 sector: eigenvalue d0, vector [[1]], norm constant 1
    with pytest.warns(UserWarning, match="1x1 sector"):
        Hs = [build_dimer(model, 0, 2.0) for model in ("dnls", "al")]
    Hs.append(TridiagonalHamiltonian(SpinSector(0), "dnls", [-3.5], []))
    for H in Hs:
        o = dense_oracle(H)
        assert np.array_equal(o.eigenvalues, H.diag)
        assert np.array_equal(o.vectors, [[1.0]])
        assert np.array_equal(o.norm_constants, [1.0])
        assert o.vector_method == ["dense"]


def test_dense_oracle_norm_constants_match_recurrence():
    # the bottom three columns are the chiral images of the top three
    H = build_qal_dimer(6, 2.0)
    s = solve_spectrum(H)
    o = dense_oracle(H)
    assert s.vector_method == ["chiral"] * 3 + ["recurrence"] * 4
    assert o.vector_method[0] == "dense"
    assert np.max(np.abs(s.norm_constants - o.norm_constants)) < 1e-10
