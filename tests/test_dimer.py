"""Dimer builders: matrix elements, closed-form spectra, chain metadata."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from qdimer import (
    TridiagonalHamiltonian,
    build_dimer,
    build_dimer_grid,
    build_qal_dimer,
    build_qdnls_dimer,
    dense_oracle,
    eigenvalues_bisection,
    gershgorin_bounds,
    q_from_gamma,
    sym_qnum,
)
from qdimer.dimer import _sym_qnums


def test_spin_sector():
    # the ladder m = -j .. j of 2j + 1 levels, and a negative 2j refused
    H = build_qdnls_dimer(5, 2.0)
    assert H.dim == 6
    assert np.array_equal(H.diag, np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]) ** 2)
    for model in ("dnls", "al"):
        with pytest.raises(ValueError, match="^two_j must be a nonnegative integer, got -1$"):
            build_dimer(model, -1, 1.0)


@pytest.mark.parametrize("two_j", [2.0, np.float64(3.0), True, np.True_, "3"])
def test_sector_size_must_be_an_integer(two_j):
    # an integral float or a bool is not a sector size: refused like -1,
    # not taken as 2j or ended in a numpy cast error
    for model in ("dnls", "al"):
        with pytest.raises(ValueError, match="two_j must be a nonnegative integer"):
            build_dimer(model, two_j, 1.0)


def test_numpy_integer_sector_sizes_build():
    for two_j in (np.int64(3), np.int32(3), np.uint8(3)):
        for model in ("dnls", "al"):
            H = build_dimer(model, two_j, 1.0)
            assert H.dim == 4 and np.array_equal(H.off, build_dimer(model, 3, 1.0).off)


def test_qdnls_matrix_elements():
    H = build_qdnls_dimer(3, 2.0)
    # diag (gamma/2) m^2 at m = -1.5 .. 1.5
    assert np.allclose(H.diag, [2.25, 0.25, 0.25, 2.25], atol=1e-15)
    # off_k = eps sqrt((2j - k)(k + 1))
    assert np.allclose(H.off, [math.sqrt(3.0), 2.0, math.sqrt(3.0)], atol=1e-15)
    H = build_qdnls_dimer(3, 2.0, epsilon=0.5)
    assert np.allclose(H.off, [0.5 * math.sqrt(3.0), 1.0, 0.5 * math.sqrt(3.0)], atol=1e-15)


def test_qal_matrix_elements():
    gamma = 2.0
    q = q_from_gamma(gamma).q
    H = build_qal_dimer(2, gamma)
    assert np.array_equal(H.diag, np.zeros(3))
    expect = [math.sqrt(sym_qnum(2, q) * sym_qnum(1, q)),
              math.sqrt(sym_qnum(1, q) * sym_qnum(2, q))]
    assert np.allclose(H.off, expect, atol=1e-15)


def test_qdnls_two_level_closed_form():
    # dim 2: eigenvalues gamma/8 +- eps
    for gamma, eps in ((4.0, 1.0), (2.0, 0.7), (0.0, 1.3)):
        H = build_qdnls_dimer(1, gamma, eps)
        evs = np.linalg.eigvalsh(H.to_dense())
        expect = np.sort([gamma / 8.0 - eps, gamma / 8.0 + eps])
        assert np.max(np.abs(evs - expect)) < 1e-14
    evs = np.linalg.eigvalsh(build_qdnls_dimer(1, 4.0).to_dense())
    assert np.max(np.abs(evs - np.array([-0.5, 1.5]))) < 1e-14


def test_linear_limit_spectra():
    # gamma=0 collapses both models onto the equally spaced ladder 2 m eps
    for two_j in (2, 4, 7):
        m = np.arange(two_j + 1) - 0.5 * two_j
        evs = np.linalg.eigvalsh(build_qdnls_dimer(two_j, 0.0).to_dense())
        assert np.max(np.abs(evs - 2.0 * m)) < 1e-12
        evs = np.linalg.eigvalsh(build_qal_dimer(two_j, 0.0).to_dense())
        assert np.max(np.abs(evs - 2.0 * m)) < 1e-12


def test_qal_three_level_closed_form():
    # zero diagonal with equal couplings a: eigenvalues 0, +-sqrt(2) a
    gamma = 2.0
    q = q_from_gamma(gamma).q
    H = build_qal_dimer(2, gamma)
    evs = np.linalg.eigvalsh(H.to_dense())
    top = math.sqrt(2.0 * sym_qnum(2, q))
    assert np.max(np.abs(evs - np.array([-top, 0.0, top]))) < 1e-14
    assert abs(top - math.sqrt(3.0 * math.sqrt(2.0))) < 1e-14


def test_qal_two_level_is_unit_pair():
    # off coupling sqrt([1][1]) = 1 independent of gamma
    for gamma in (0.0, 2.0, 8.0):
        H = build_qal_dimer(1, gamma)
        evs = np.linalg.eigvalsh(H.to_dense())
        assert np.max(np.abs(evs - np.array([-1.0, 1.0]))) < 1e-14


def test_energy_metadata():
    H = build_qdnls_dimer(6, 2.0)
    assert H.energy_scale == -1.0
    assert abs(H.energy_shift + 0.5 * 2.0 * 3.0 * 3.0) < 1e-15
    dp = q_from_gamma(3.0)
    H = build_qal_dimer(5, 3.0)
    assert abs(H.energy_scale + dp.q ** (0.5 - 2.5)) < 1e-15
    assert H.energy_shift == 10.0
    phys = H.to_physical(np.array([0.0, 1.0]))
    assert np.allclose(phys, [10.0, 10.0 + H.energy_scale], atol=1e-14)


def test_energy_scale_is_negative():
    # both builders put the lowest physical levels at the top of H, so the
    # command line asks eigenvalues_batch for top=k
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # two_j = 0 and gamma < 0 warn
        for two_j in (0, 1, 2, 7, 40):
            for gamma in (-3.0, 0.0, 2.5):
                for epsilon in (-1.5, 0.0, 0.7):
                    assert build_qdnls_dimer(two_j, gamma, epsilon).energy_scale < 0
            for gamma in (0.0, 0.5, 9.0, 1e3):
                assert build_qal_dimer(two_j, gamma).energy_scale < 0


def test_build_dimer_dispatch_and_errors():
    a = build_dimer("dnls", 3, 2.0, 0.5)
    b = build_qdnls_dimer(3, 2.0, 0.5)
    assert np.array_equal(a.diag, b.diag) and np.array_equal(a.off, b.off)
    with pytest.raises(ValueError):
        build_dimer("al", 3, 2.0, epsilon=0.5)
    with pytest.raises(ValueError):
        build_dimer("xxz", 3, 2.0)
    with pytest.raises(ValueError):
        build_qal_dimer(3, -1.0)


def test_two_j_zero_warns():
    with pytest.warns(UserWarning):
        H = build_qdnls_dimer(0, 2.0)
    assert H.dim == 1
    with pytest.warns(UserWarning):
        build_qal_dimer(0, 1.0)


def test_negative_gamma_dnls_warns():
    with pytest.warns(UserWarning):
        H = build_qdnls_dimer(2, -2.0)
    assert H.diag[0] == -1.0


def test_warnings_point_at_the_caller():
    # through build_dimer as through a direct builder call, each warning
    # names the calling line here, not a line inside the library
    for call in (lambda: build_dimer("al", 0, 1.0), lambda: build_dimer("dnls", 2, -1.0),
                 lambda: build_dimer("dnls", 0, -1.0), lambda: build_qal_dimer(0, 1.0),
                 lambda: build_qdnls_dimer(2, -1.0)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert caught and all(w.filename == __file__ for w in caught)


def test_to_dense_symmetric():
    H = build_dimer("al", 5, 4.0)
    m = H.to_dense()
    assert np.array_equal(m, m.T)
    assert np.array_equal(np.diag(m), H.diag)
    assert np.array_equal(np.diag(m, 1), H.off)


def test_tridiagonal_validation():
    # the dimension is read from the diagonal, which must be a non-empty vector
    H = TridiagonalHamiltonian([1.0, 2.0, 3.0], [0.5, 0.5])
    assert H.dim == 3
    for diag in ([], np.zeros((2, 2)), 1.0):
        with pytest.raises(ValueError, match="^diagonal must be a non-empty vector"):
            TridiagonalHamiltonian(diag, [])
    for off in (np.zeros(3), np.zeros(1), np.zeros((1, 2))):
        with pytest.raises(ValueError, match="^off-diagonal length must be dim - 1$"):
            TridiagonalHamiltonian(np.zeros(3), off)
    # gershgorin_bounds takes the same shapes
    for diag, off in (([], []), ([1.0], [2.0]), ([1.0, 2.0], [])):
        with pytest.raises(ValueError, match="^(diagonal|off-diagonal)"):
            gershgorin_bounds(diag, off)


def test_spectrum_scale_grows_with_gamma():
    # the deformed couplings grow with nonlinearity at fixed size
    prev = 0.0
    for gamma in (0.5, 1.0, 2.0, 4.0, 8.0):
        top = np.max(np.abs(dense_oracle(build_qal_dimer(8, gamma)).eigenvalues))
        assert top > prev
        prev = top


@pytest.mark.parametrize("model, gamma, epsilon", [
    ("dnls", math.nan, 1.0),
    ("dnls", math.inf, 1.0),
    ("dnls", 2.0, math.nan),
    ("dnls", 2.0, -math.inf),
    ("al", math.nan, 1.0),
    ("al", math.inf, 1.0),
])
def test_non_finite_parameters_rejected(model, gamma, epsilon):
    with pytest.raises(ValueError, match="must be finite"):
        build_dimer(model, 4, gamma, epsilon)


def test_al_coupling_overflow_rejected():
    with pytest.raises(ValueError, match=r"al coupling off\[0\]"):
        build_dimer("al", 2000, 8.0)
    with pytest.raises(ValueError, match=r"^al coupling off\[0\] = sqrt\(\[1000\] \[1\]\) at "
                                         r"q=0.25 overflows double precision "
                                         r"\(two_j=1000, gamma=30.0\)$"):
        build_dimer("al", 1000, 30.0)


def test_al_builds_up_to_the_last_finite_qnumber():
    # [512] at q 0.25 is 4.79e307 although 4^512 overflows; [513] is 1.9e308
    H = build_dimer("al", 512, 30.0)
    ref = eigvalsh_tridiagonal(H.diag, H.off)
    evs = eigenvalues_bisection(H)
    assert np.max(np.abs(evs - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))
    assert np.isfinite(H.to_physical(evs)).all()  # the top level is 9.6e307
    # at gamma 30.1 the couplings fit but the top physical level, 2.1e308, does not
    with pytest.raises(ValueError, match=r"^al physical levels -q\^\(1/2 - j\) lambda \+ 2 M at "
                                         r"q=0.2496\d* overflow double precision "
                                         r"\(two_j=512, gamma=30.1\)$"):
        build_dimer("al", 512, 30.1)
    with pytest.raises(ValueError, match=r"^al coupling off\[0\] = sqrt\(\[513\] \[1\]\) at "
                                         r"q=0.25 overflows double precision "
                                         r"\(two_j=513, gamma=30.0\)$"):
        build_dimer("al", 513, 30.0)


@pytest.mark.parametrize("two_j", [101, 131, 240])
@pytest.mark.parametrize("gamma", [0.5, 4.0, 9.0])
def test_al_couplings_from_one_qnumber_table(two_j, gamma):
    # the table [0] .. [two_j] gives bitwise the per-coupling formula
    q = q_from_gamma(gamma).q
    expect = [math.sqrt(sym_qnum(two_j - k, q) * sym_qnum(k + 1, q)) for k in range(two_j)]
    assert np.array_equal(build_qal_dimer(two_j, gamma).off, expect)


def _sym_qnum_or_inf(n, q):
    try:
        return sym_qnum(n, q)
    except ValueError:
        return math.inf


@pytest.mark.parametrize("q", [0.25, 0.2496, 0.5, 1.0 - 1e-9, 1.0 - 2e-8, 0.999, 1.0, 1.5, 4.0])
def test_qnumber_table_is_sym_qnum(q):
    # the comprehension of the power ratio and the sym_qnum calls past
    # e^700 and near q = 1 give bitwise the scalar q-numbers, inf where
    # they overflow
    assert _sym_qnums(600, q) == [_sym_qnum_or_inf(n, q) for n in range(601)]
    assert _sym_qnums(0, q) == [0.0]


def test_qnumber_table_on_random_bases():
    rng = np.random.default_rng(5)
    for q in np.exp(rng.uniform(-3.0, 3.0, 200)).tolist():
        n_max = int(rng.integers(0, 700))
        assert _sym_qnums(n_max, q) == [_sym_qnum_or_inf(n, q) for n in range(n_max + 1)]


def test_couplings_match_scalar_loops():
    # the numpy coupling expressions give bitwise the scalar formulas, up
    # to the AL refusal edge at two_j 512 (gamma 30 builds, 30.1 is refused
    # for its physical levels, its couplings still finite)
    for two_j in (1, 2, 40, 101, 300, 511, 512):
        for gamma in (0.0, 1e-9, 0.5, 4.0, 9.0, 30.0):
            q = q_from_gamma(gamma).q
            qn = [sym_qnum(n, q) for n in range(two_j + 1)]
            expect = np.sqrt(np.array(qn[two_j:0:-1]) * qn[1:])
            if np.isfinite(expect).all():
                assert build_qal_dimer(two_j, gamma).off.tobytes() == expect.tobytes()
            else:
                with pytest.raises(ValueError, match="al coupling"):
                    build_qal_dimer(two_j, gamma)
            for eps in (1.0, -0.3, 7e-5):
                expect = [eps * math.sqrt((two_j - k) * (k + 1)) for k in range(two_j)]
                assert build_qdnls_dimer(two_j, gamma, eps).off.tobytes() == np.array(expect).tobytes()
    q = q_from_gamma(30.1).q
    assert math.isfinite(sym_qnum(512, q) * sym_qnum(1, q))
    with pytest.raises(ValueError, match="al physical levels"):
        build_qal_dimer(512, 30.1)


@pytest.mark.parametrize("gamma, epsilon", [(1e308, 1.0), (2.0, 1e308)])
def test_dnls_entry_overflow_rejected(gamma, epsilon):
    # 0.5 * gamma * m^2 or eps * sqrt((j - m)(j + m + 1)) past the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="dnls entries overflow"):
            build_qdnls_dimer(4, gamma, epsilon)


@pytest.mark.parametrize("gamma", [8e307, -8e307])
def test_dnls_level_overflow_rejected(gamma):
    # the entries fit (|diag| <= 1.6e308) but the levels -lambda - (gamma/2) j^2
    # reach 3.2e308; 4e307 still builds, its lowest level -1.6e308 finite
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # negative gamma warns
        with pytest.raises(ValueError, match=r"^dnls physical levels -lambda - \(gamma/2\) j\^2 "
                                             r"overflow double precision \(two_j=4, "):
            build_qdnls_dimer(4, gamma)
    H = build_qdnls_dimer(4, 4e307)
    assert np.isfinite(H.to_physical(eigenvalues_bisection(H))).all()


REFUSALS = ("gamma must be finite", "epsilon must be finite", "dnls entries overflow", "al coupling off[",
            "dnls physical levels", "al physical levels", "gamma must be >= 0", "two_j must be",
            "epsilon applies")


def _coupling(rng, model, two_j):
    """gamma or epsilon of either sign: small, anywhere up to 1e308, or near
    the model's overflow edge (dnls levels gamma j^2 ~ 2e308, al couplings
    [two_j] ~ q^(1 - two_j) ~ 1e308)."""
    kind = rng.integers(3)
    if kind == 2 and model == "al":
        return 2.0 * math.expm1(min(700.0, 1418.0 / max(two_j - 1, 1))) * rng.uniform(0.97, 1.03)
    sign = rng.choice([-1.0, 1.0])
    if kind == 2:
        return sign * min(1.7e308, float(rng.uniform(1.0, 4.0)) * (1e308 / max(1.0, two_j * two_j / 4.0)))
    return sign * 10.0 ** rng.uniform(-3.0, 3.0 if kind == 0 else 308.25)


def test_builders_build_finite_levels_or_refuse():
    # on random inputs a build has finite entries and a finite bound
    # |scale| max(-lo, hi) + |shift| on its physical levels; anything else is
    # one of the documented ValueErrors, never an OverflowError or a
    # RuntimeWarning
    rng = np.random.default_rng(2021)
    seen = set()
    for _ in range(1000):
        model = ("dnls", "al")[rng.integers(2)]
        two_j = int(rng.integers(0, 601))
        gamma = float(_coupling(rng, model, two_j))
        epsilon = 1.0 if model == "al" and rng.random() < 0.7 else float(_coupling(rng, "dnls", two_j))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", UserWarning)  # two_j = 0, negative gamma
            try:
                H = build_dimer(model, two_j, gamma, epsilon)
            except ValueError as e:
                assert str(e).startswith(REFUSALS), str(e)
                seen.add(next(p for p in REFUSALS if str(e).startswith(p)))
                continue
        assert np.isfinite(H.diag).all() and np.isfinite(H.off).all()
        lo, hi = gershgorin_bounds(H.diag, H.off)
        assert math.isfinite(abs(H.energy_scale) * max(-lo, hi) + abs(H.energy_shift))
        seen.add("built")
    assert seen >= {"built", "dnls entries overflow", "al coupling off[", "dnls physical levels",
                    "al physical levels", "gamma must be >= 0", "epsilon applies"}


def _per_gamma(model, two_j, gamma, epsilon):
    """diag, off, energy_scale and energy_shift of one dimer by the scalar
    formulas: numpy's per-gamma entries, Python floats for the constants and
    the AL q-numbers."""
    j = 0.5 * two_j
    if model == "dnls":
        k = np.arange(two_j)
        return (0.5 * gamma * (np.arange(two_j + 1) - j) ** 2,
                epsilon * np.sqrt((two_j - k) * (k + 1)), -1.0, -0.5 * gamma * j * j)
    q = q_from_gamma(gamma).q
    qn = _sym_qnums(two_j, q)
    return (np.zeros(two_j + 1), np.sqrt(np.array(qn[two_j:0:-1]) * qn[1:]),
            -(q ** (0.5 - 0.5 * two_j)), 2.0 * two_j)


def test_grid_builds_are_the_per_gamma_builds():
    # each H of a grid is bitwise build_dimer at its gamma and the scalar
    # formulas, on log and linear grids from gamma 0 and, for dnls, through
    # negative gamma
    grids = [np.geomspace(0.05, 12.0, 16), np.linspace(0.0, 10.0, 11)]
    for model, epsilons in (("dnls", (1.0, -1.0, 0.3)), ("al", (1.0,))):
        for two_j in (*range(42), 100, 131, 200, 255, 300):
            for grid in grids + [np.linspace(-6.0, 6.0, 13)] * (model == "dnls"):
                gammas = grid.tolist()
                for epsilon in epsilons:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # two_j = 0, negative gamma
                        Hs = build_dimer_grid(model, two_j, gammas, epsilon)
                        ones = [build_dimer(model, two_j, g, epsilon) for g in gammas]
                    assert len(Hs) == len(gammas)
                    for g, H, one in zip(gammas, Hs, ones):
                        diag, off, scale, shift = _per_gamma(model, two_j, g, epsilon)
                        for built in (H, one):
                            assert built.diag.tobytes() == diag.tobytes(), (model, two_j, g)
                            assert built.off.tobytes() == off.tobytes(), (model, two_j, g)
                            assert type(built.energy_scale) is type(built.energy_shift) is float
                            assert (built.energy_scale, built.energy_shift) == (scale, shift)


def _refusal_text(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("model, two_j, gammas, refused", [
    ("al", 512, [30.0, 30.1, 29.0], "al physical levels"),
    ("al", 512, [29.0, 30.1, -1.0, math.nan], "al physical levels"),
    ("al", 512, [30.0, math.nan, 30.1], "gamma must be finite"),
    ("al", 512, [2.0, -1.0, 30.1], "gamma must be >= 0"),
    ("al", 513, [0.5, 30.0, -1.0], "al coupling off["),
    ("dnls", 4, [1.0, 8e307, 1e308], "dnls physical levels"),
    ("dnls", 4, [1.0, 1e308, 8e307], "dnls entries overflow"),
    ("dnls", 4, [2.0, -8e307, math.inf], "dnls physical levels"),
    ("dnls", 4, [math.inf, 2.0], "gamma must be finite"),
])
def test_grid_refuses_at_its_first_refused_gamma(model, two_j, gammas, refused):
    # a grid raises the text that building its first refused gamma alone
    # raises, whichever check refuses the later gammas
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # negative gamma
        first = next(filter(None, (_refusal_text(lambda: build_dimer(model, two_j, g))
                                   for g in gammas)))
        assert first.startswith(refused)
        with pytest.raises(ValueError, match=f"^{re.escape(first)}$"):
            build_dimer_grid(model, two_j, gammas)


@pytest.mark.parametrize("model, two_j, epsilon", [("al", 3, 2.0), ("xxz", 3, 1.0),
                                                  ("dnls", 2.5, 1.0), ("dnls", 3, math.nan)])
def test_grid_refuses_as_build_dimer(model, two_j, epsilon):
    # the model, sector size and epsilon refusals of the one-gamma build
    text = _refusal_text(lambda: build_dimer(model, two_j, 1.0, epsilon))
    assert text
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        build_dimer_grid(model, two_j, [1.0, 2.0], epsilon)


def test_empty_grid_builds_nothing():
    assert build_dimer_grid("al", 3, []) == []


def test_grid_warns_once_at_the_caller():
    # the two_j = 0 and negative-gamma warnings fire once per grid, naming
    # the calling line here
    for call, count in ((lambda: build_dimer_grid("dnls", 2, [-1.0, 0.5, -2.0]), 1),
                        (lambda: build_dimer_grid("dnls", 0, [-1.0, -2.0]), 2),
                        (lambda: build_dimer_grid("al", 0, [1.0, 2.0, 3.0]), 1),
                        (lambda: build_dimer_grid("dnls", 3, np.linspace(0.0, 2.0, 5)), 0)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert len(caught) == count and all(w.filename == __file__ for w in caught)
