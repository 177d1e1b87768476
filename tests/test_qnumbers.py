"""Checks of the q-number arithmetic against closed forms and mpmath."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from qdimer import (
    DeformationParameter,
    al_hop_operator,
    al_oscillator_ops,
    basic_qnum,
    build_qal_chain,
    build_sector_basis,
    conservation_suite,
    q_binomial,
    q_from_gamma,
    suq_n_generators,
    sym_qnum,
)


def test_q_from_gamma_values():
    dp = q_from_gamma(2.0)
    assert isinstance(dp, DeformationParameter)
    assert abs(dp.q - 0.7071067811865476) < 1e-15
    assert abs(dp.s - math.log(dp.q)) == 0.0
    assert q_from_gamma(6.0).q == 0.5
    assert q_from_gamma(0.0).q == 1.0


def test_q_from_gamma_rejects_negative():
    with pytest.raises(ValueError):
        q_from_gamma(-1.0)
    with pytest.raises(ValueError):
        q_from_gamma(float("nan"))


def test_sym_qnum_frozen_value():
    q = 1.0 / math.sqrt(2.0)
    assert abs(sym_qnum(2.0, q) - 2.1213203435596424) < 1e-15
    # [2] = q + 1/q exactly
    assert abs(sym_qnum(2.0, q) - (q + 1.0 / q)) < 1e-15


def test_sym_qnum_limits_and_symmetries():
    assert sym_qnum(5.0, 1.0) == 5.0
    assert sym_qnum(0.0, 0.3) == 0.0
    for q in (0.25, 0.5, 0.9, 1.7):
        for x in (0.5, 1.0, 2.0, 7.0):
            # odd in x, invariant under q -> 1/q
            assert abs(sym_qnum(-x, q) + sym_qnum(x, q)) < 1e-12
            assert abs(sym_qnum(x, q) - sym_qnum(x, 1.0 / q)) < 1e-12 * abs(sym_qnum(x, q))
    with pytest.raises(ValueError):
        sym_qnum(1.0, 0.0)
    with pytest.raises(ValueError):
        sym_qnum(1.0, -0.5)


def test_sym_qnum_against_mpmath():
    for q in (0.3, 0.7071067811865476, 0.95):
        for x in (1, 2, 3, 10, 25.5):
            with mp.workdps(50):
                qm = mp.mpf(q)
                ref = float((qm**x - qm**-x) / (qm - 1 / qm))
            got = sym_qnum(x, q)
            assert abs(got - ref) < 1e-13 * max(1.0, abs(ref))


def test_basic_qnum_frozen_values():
    # gamma=2 has base 2, so {n} = 2^n - 1
    assert basic_qnum(2, 2.0) == 3.0
    for n in range(12):
        assert abs(basic_qnum(n, 2.0) - (2.0**n - 1.0)) < 1e-12 * max(1.0, 2.0**n)
    assert basic_qnum(7, 0.0) == 7.0
    with pytest.raises(ValueError):
        basic_qnum(-1, 2.0)
    with pytest.raises(ValueError):
        basic_qnum(3, -0.1)


def test_basic_qnum_generating_identity():
    # 1 + (gamma/2){n} = (1 + gamma/2)^n, relative 1e-12 for n <= 30, gamma <= 10
    for gamma in (1e-6, 0.5, 2.0, 7.3, 10.0):
        for n in range(31):
            lhs = 1.0 + 0.5 * gamma * basic_qnum(n, gamma)
            rhs = (1.0 + 0.5 * gamma) ** n
            assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_basic_qnum_step_is_commutator_weight():
    # {n+1} - {n} = (1 + gamma/2)^n is the [b, b'] eigenvalue on |n>
    for gamma in (0.5, 2.0, 8.0):
        for n in range(20):
            step = basic_qnum(n + 1, gamma) - basic_qnum(n, gamma)
            ref = (1.0 + 0.5 * gamma) ** n
            assert abs(step - ref) < 1e-11 * ref


def test_basic_equals_scaled_symmetric():
    # {n} = q^(1-n) [n] ties the two q-number families together
    for gamma in (0.3, 2.0, 6.0, 10.0):
        q = q_from_gamma(gamma).q
        for n in range(1, 25):
            lhs = basic_qnum(n, gamma)
            rhs = q ** (1 - n) * sym_qnum(n, q)
            assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


def test_qnumber_overflow_is_a_value_error():
    # [512] at q 0.25 and {441} at gamma 8 fit, though a power in their
    # defining ratios does not; [513] and {442} themselves overflow
    assert math.isfinite(sym_qnum(512, 0.25)) and math.isfinite(basic_qnum(441, 8.0))
    with pytest.raises(ValueError, match=r"^q-number \[513\] at q=0.25 overflows double precision$"):
        sym_qnum(513, 0.25)
    with pytest.raises(ValueError, match=r"overflows double precision$"):
        sym_qnum(np.float64(600.0), 0.25)
    with pytest.raises(ValueError, match=r"^q-number \{442\} at q=0.44721359549995793 \(gamma=8.0\) "
                                         r"overflows double precision$"):
        basic_qnum(442, 8.0)


def test_counts_past_double_range_are_refused():
    # 10^400 is past double range, and so is every q-number of it: each is a
    # ValueError naming the q-number, not an OverflowError, with the count in
    # e-notation, so 10^5000, past the 4300 digits str() converts, is named
    # too; a q-binomial or a basic q-number that overflows only in its last
    # division is refused too, not inf
    big, huge = 10**400, 10**5000
    e400, e5000 = r"1\.0{16}e\+400", r"1\.0{16}e\+5000"
    cases = ((basic_qnum, (big, 0.0), rf"q-number \{{{e400}\}} at q=1 \(gamma=0.0\)"),
             (basic_qnum, (big, 2.0), rf"q-number \{{{e400}\}} at q=0.70710678118654746 \(gamma=2.0\)"),
             (basic_qnum, (huge, 2.0), rf"q-number \{{{e5000}\}} at q=0.70710678118654746 \(gamma=2.0\)"),
             (basic_qnum, (69_300_000_000, 2e-8), r"q-number \{69300000000\} at q=0.99999999500000003 "
                                                   r"\(gamma=2e-08\)"),
             (sym_qnum, (big, 0.5), rf"q-number \[{e400}\] at q=0.5"),
             (sym_qnum, (-big, 1.0), rf"q-number \[-{e400}\] at q=1"),
             (sym_qnum, (big, mp.mpf(0.5)), rf"q-number \[{e400}\] at q=0.5"),
             (sym_qnum, (huge, 0.5), rf"q-number \[{e5000}\] at q=0.5"),
             (q_binomial, (big, 1, 0.5), rf"q-number \[{e400}\] at q=0.5"),
             (q_binomial, (huge, 1, 0.5), rf"q-number \[{e5000}\] at q=0.5"),
             (q_binomial, (2000, 1000, 1.0), r"q-binomial \[2000 over 1000\] at q=1"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, args, text in cases:
            with pytest.raises(ValueError, match=f"^{text} overflows double precision$"):
                f(*args)
        # exact counts that need no such q-number stay
        assert q_binomial(big, 0, 0.5) == q_binomial(big, big, 0.5) == 1.0
        assert math.isfinite(q_binomial(1000, 500, 1.0)) and math.isfinite(basic_qnum(10**300, 0.0))


def test_non_finite_deformation_is_refused():
    # an infinite or nan gamma, q or x is refused by name, not taken into
    # math.log (a "math domain error") or returned as inf or nan
    inf, nan = math.inf, math.nan
    b = build_sector_basis(2, 3)
    cases = ((basic_qnum, (inf, 2.0), "n must be a nonnegative integer"),
             (sym_qnum, (2, inf), "q must be finite"),
             (sym_qnum, (inf, 0.5), "x must be finite"),
             (sym_qnum, (nan, 0.5), "x must be finite"),
             (sym_qnum, (np.float64(2.0), np.float64(inf)), "q must be finite"),
             (q_binomial, (3, 1, inf), "q must be finite"),
             (q_binomial, (inf, 1, 0.5), "need 0 <= n <= m"),
             (suq_n_generators, (b, inf), "q must be finite"))
    # a gamma that is not finite is named so before its sign is read
    for gamma in (inf, nan, -inf):
        cases += ((q_from_gamma, (gamma,), f"gamma must be finite, got {gamma}$"),
                  (basic_qnum, (2, gamma), f"gamma must be finite, got {gamma}$"),
                  (conservation_suite, (2, 3, gamma), f"gamma must be finite, got {gamma}$"),
                  (al_hop_operator, (b, 1, 2, gamma), f"gamma must be finite, got {gamma}$"),
                  (al_oscillator_ops, (5, gamma), f"gamma must be finite, got {gamma}$"),
                  (build_qal_chain, (b, gamma), f"gamma must be finite, got {gamma}$"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, args, text in cases:
            with pytest.raises(ValueError, match=f"^{text}"):
                f(*args)


def test_qnumbers_past_an_overflowing_power():
    # 4^512 = 16^256 = 2^1024 overflows in the defining ratios, the
    # q-numbers do not: [512] = 4.7938483596328424e307 at q 0.25 (and at
    # q 4, odd in x) and {256} = 1.1984620899082106e307 at gamma 30
    eps = np.finfo(float).eps
    with mp.workdps(40):
        sym = (mp.mpf(4) ** 512 - mp.mpf(4) ** -512) / (4 - mp.mpf(0.25))
        basic = (mp.mpf(16) ** 256 - 1) / 15
        for value, ref in ((sym_qnum(512, 0.25), sym), (sym_qnum(-512, 4.0), -sym),
                           (basic_qnum(256, 30.0), basic)):
            assert abs(value - ref) <= 4 * eps * abs(ref)


def _outcome(f, *args):
    """f(*args) as ("value", its bytes and type) or ("error", the message),
    failing on any warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = f(*args)
        except ValueError as e:
            return "error", str(e)
    return "value", np.float64(value).tobytes(), type(value)


def test_qnumbers_at_numpy_scalars():
    # numpy scalar powers overflow to inf with a RuntimeWarning where float
    # powers raise OverflowError, so a numpy argument must give the q-number
    # of the Python scalar of the same value, the overflow refusals included
    cases = [(sym_qnum, x, q, (np.float64, np.int64))
             for x in (0, 1, 7, 511, 512, 513, 600, -512) for q in (0.25, 0.5, 0.9, 1.0, 1.0 + 1e-9, 4.0)]
    cases += [(basic_qnum, n, g, (np.int64,)) for n in (0, 1, 9, 255, 256, 441, 442)
              for g in (0.0, 1e-9, 2.0, 8.0, 30.0)]
    for f, x, y, x_types in cases:
        for to in (np.float64, np.float32, np.int64):
            assert _outcome(f, x, to(y)) == _outcome(f, x, to(y).item())
        for to in x_types:
            assert _outcome(f, to(x), y) == _outcome(f, to(x).item(), y)
    sym, basic = np.float64(4.793848359632842e307), np.float64(1.1984620899082106e307)
    assert _outcome(sym_qnum, 512, np.float64(0.25)) == ("value", sym.tobytes(), float)
    assert _outcome(basic_qnum, 256, np.float64(30.0)) == ("value", basic.tobytes(), float)
    assert _outcome(basic_qnum, np.int64(256), 30.0) == ("value", basic.tobytes(), float)
    assert _outcome(sym_qnum, 513, np.float64(0.25))[0] == "error"
    assert _outcome(basic_qnum, 442, np.float64(8.0))[0] == "error"
    with pytest.raises(ValueError, match=r"^q-number \[513\] at q=0.25 overflows"):
        suq_n_generators(build_sector_basis(2, 600), np.float64(0.25))
    # an mpmath argument stays an mpf
    assert isinstance(sym_qnum(600, mp.mpf(0.25)), mp.mpf)
    assert isinstance(basic_qnum(442, mp.mpf(8)), mp.mpf)


def test_q_binomial_frozen_value():
    q = 1.0 / math.sqrt(2.0)
    # [4 choose 2] = [3][4]/([1][2]) = 8.75 at q = 1/sqrt(2)
    assert abs(q_binomial(4, 2, q) - 8.75) < 1e-13
    assert q_binomial(5, 0, q) == 1.0
    assert q_binomial(5, 5, q) == 1.0


def test_q_binomial_symmetry_and_errors():
    q = 0.6
    for m in range(1, 9):
        for n in range(m + 1):
            a = q_binomial(m, n, q)
            b = q_binomial(m, m - n, q)
            assert abs(a - b) < 1e-12 * max(1.0, abs(a))
    with pytest.raises(ValueError):
        q_binomial(3, 4, q)
    with pytest.raises(ValueError):
        q_binomial(-1, 0, q)


def test_q_binomial_against_mpmath_ratio():
    for q in (0.4, 0.7071067811865476):
        for m, n in ((6, 2), (8, 3), (10, 5)):
            with mp.workdps(60):
                qm = mp.mpf(q)

                def s(x):
                    return (qm**x - qm**-x) / (qm - 1 / qm)

                num = mp.mpf(1)
                den = mp.mpf(1)
                for i in range(1, n + 1):
                    num *= s(m - n + i)
                    den *= s(i)
                ref = float(num / den)
            got = q_binomial(m, n, q)
            assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_q_binomial_reduces_to_binomial():
    for m in range(9):
        for n in range(m + 1):
            assert abs(q_binomial(m, n, 1.0) - math.comb(m, n)) < 1e-12


def test_near_one_continuity():
    # values just inside and outside the analytic-limit window agree
    for x in (1.0, 3.0, 11.0):
        inside = sym_qnum(x, 1.0 + 5e-9)
        outside = sym_qnum(x, 1.0 + 5e-8)
        assert abs(inside - outside) < 1e-6 * abs(x)
    gamma_tiny = 1e-9
    for n in (1, 5, 17):
        assert abs(basic_qnum(n, gamma_tiny) - n) < 1e-7 * n


def test_randomized_q_identities():
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = float(rng.uniform(0.2, 1.8))
        x = float(rng.uniform(0.0, 12.0))
        y = float(rng.uniform(0.0, 12.0))
        # addition rule [x+y] = [x] q^-y + q^x [y]
        lhs = sym_qnum(x + y, q)
        rhs = sym_qnum(x, q) * q**-y + q**x * sym_qnum(y, q)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
