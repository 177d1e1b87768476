"""q-number arithmetic for the nonlinearity-deformed oscillator algebras.

The deformation strength gamma >= 0 maps to the deformation base
q = 1 / sqrt(1 + gamma/2), so 0 < q <= 1 and s = ln q <= 0.  Two kinds of
q-integers appear: the symmetric ones [x] = (q^x - q^-x) / (q - q^-1) used
by the su_q(n) generators, and the basic ones {n} = ((1 + gamma/2)^n - 1) /
(gamma/2) that are the eigenvalues of b'b for the deformed lattice
oscillator.  They are related by {n} = q^(1-n) [n].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this distance from q = 1 the defining ratios are evaluated by their
# analytic limits ([x] -> x, {n} -> n) to avoid 0/0 loss of significance.
Q_ONE_THRESHOLD = 1e-8


@dataclass(frozen=True)
class DeformationParameter:
    """Deformation strength with its derived base q and exponent s = ln q."""

    gamma: float
    q: float
    s: float


def q_from_gamma(gamma: float) -> DeformationParameter:
    """Map the finite nonlinearity strength gamma >= 0 to q = 1/sqrt(1 + gamma/2)."""
    _deformation(gamma)
    q = 1.0 / math.sqrt(1.0 + 0.5 * gamma)
    return DeformationParameter(gamma=float(gamma), q=q, s=math.log(q))


def _is_count(x, least: int = 0) -> bool:
    """Whether x is a Python or numpy integer, not a bool, and x >= least:
    the one rule for every integer input, each caller refusing in its own
    words."""
    return not isinstance(x, bool) and isinstance(x, (int, np.integer)) and x >= least


def _finite(**inputs):
    """Refuse the first named input that is not finite."""
    for name, x in inputs.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")


def _deformation(gamma):
    """Refuse a gamma that is not finite, then one below 0: the one rule for
    a deformation strength."""
    _finite(gamma=gamma)
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")


def _scalar(x):
    """x as a Python number where it is a numpy scalar, whose powers return
    inf with a RuntimeWarning where Python's raise OverflowError; any other
    number, an mpmath mpf included, as it is."""
    return x.item() if isinstance(x, np.generic) else x


def _text(x) -> str:
    """x as an error message shows it: an integer past the float range, which
    may have more digits than str() converts, in e-notation to 17 digits."""
    try:
        float(x)
    except OverflowError:
        from decimal import Decimal

        return f"{Decimal(x):.16e}"
    return str(x)


def _base(q):
    """q as _scalar gives it, refused where it is not finite and > 0: the
    one rule for a base q."""
    q = _scalar(q)
    if not q > 0.0:
        raise ValueError(f"q must be > 0, got {q}")
    if q == math.inf:
        raise ValueError(f"q must be finite, got {q}")
    return q


def sym_qnum(x: float, q: float) -> float:
    """Symmetric q-number [x] = (q^x - q^-x) / (q - q^-1); [x] -> x as q -> 1.

    Where a power overflows, the same ratio is taken with the large power
    factored out, [x] = sign(x) p^(1-|x|) (1 - p^(2|x|)) / (1 - p^2) with
    p = min(q, 1/q), since [x] is odd in x and unchanged by q -> 1/q.
    Raises ValueError where x or q is not finite, or where [x] itself
    overflows double precision, as it does wherever x does.
    """
    q = _base(q)  # x enters the powers as float(x)
    try:
        finite = math.isfinite(x)
    except OverflowError:  # an integer past double range, and |[x]| >= |x| for |x| >= 1
        raise ValueError(f"q-number [{_text(x)}] at q={float(q):.17g} overflows double precision") from None
    if not finite:
        raise ValueError(f"x must be finite, got {x}")
    if abs(q - 1.0) < Q_ONE_THRESHOLD:
        return float(x)
    try:
        return (q ** float(x) - q ** -float(x)) / (q - 1.0 / q)
    except OverflowError:
        pass
    p, ax = min(q, 1.0 / q), abs(float(x))
    try:
        value = math.copysign(p ** (1.0 - ax) * ((1.0 - p ** (2.0 * ax)) / (1.0 - p * p)), x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"q-number [{_text(x)}] at q={q:.17g} overflows double precision")
    return value


def _sym_qnums(n_max: int, q: float) -> list[float]:
    """[0], [1], ..., [n_max] at q, each bitwise sym_qnum(n, q), with inf
    where [n] overflows double precision: n itself near q = 1, sym_qnum's
    power ratio in one comprehension over the n whose powers q^-+n stay
    below e^700, and sym_qnum itself past them.  Python's float powers, not
    np.power, whose results differ from them in the last bit for some q and
    x.  Refuses a q as sym_qnum does."""
    q = _base(q)
    if abs(q - 1.0) < Q_ONE_THRESHOLD:
        return [float(n) for n in range(n_max + 1)]
    safe = int(700.0 / abs(math.log(q))) + 1
    c = q - 1.0 / q
    table = [(q**x - q**-x) / c for x in map(float, range(min(safe, n_max + 1)))]
    for n in range(len(table), n_max + 1):
        try:
            table.append(sym_qnum(n, q))
        except ValueError:  # [n] overflows
            table.append(math.inf)
    return table


def basic_qnum(n: int, gamma: float) -> float:
    """Basic q-number {n} = ((1 + gamma/2)^n - 1) / (gamma/2); {n} -> n as gamma -> 0.

    These are the b'b eigenvalues of the deformed lattice oscillator, with
    base 1 + gamma/2 = q^-2 so that {n+1} - {n} = (1 + gamma/2)^n, which is
    exactly the commutation rule [b, b'] = 1 + (gamma/2) b'b.  Where the
    power overflows, the same ratio is taken with the large power factored
    out, {n} = g^(n-1) (g - g^(1-n)) / (gamma/2) with g = 1 + gamma/2.
    Raises ValueError where gamma is not finite, or where {n} itself
    overflows double precision.
    """
    n, gamma = _scalar(n), _scalar(gamma)
    if not 0 <= n < math.inf or int(n) != n:
        raise ValueError(f"n must be a nonnegative integer, got {_text(n)}")
    _deformation(gamma)
    half = 0.5 * gamma
    try:
        if half < Q_ONE_THRESHOLD:
            value = float(n)
        else:
            base = 1.0 + half
            try:
                value = (base ** n - 1.0) / half
            except OverflowError:
                value = base ** (n - 1) * ((base - base ** (1 - n)) / half)
    except OverflowError:
        value = math.inf
    if value == math.inf:  # float overflow; an mpf value stays finite
        q = q_from_gamma(gamma).q
        raise ValueError(f"q-number {{{_text(n)}}} at q={q:.17g} (gamma={gamma}) overflows double precision")
    return value


def q_binomial(m: int, n: int, q: float) -> float:
    """q-binomial [m]! / ([n]! [m-n]!), evaluated as a product of ratios.

    Raises ValueError where it overflows double precision.
    """
    if not 0 <= n <= m < math.inf or int(m) != m or int(n) != n:
        raise ValueError(f"need 0 <= n <= m, got m={_text(m)}, n={_text(n)}")
    k = min(int(n), int(m) - int(n))
    out = 1.0
    for i in range(1, k + 1):
        out *= sym_qnum(m - k + i, q) / sym_qnum(i, q)
    if out == math.inf:
        raise ValueError(f"q-binomial [{_text(m)} over {_text(n)}] at q={float(q):.17g} "
                         "overflows double precision")
    return out
