"""Two-mode Hamiltonians reduced to spin tridiagonal form on a fixed sector.

A two-site sector with total quanta M carries spin j = M/2 through the
Schwinger map, with magnetic label m = (n_1 - n_2)/2 running from -j to j.
Both models become real symmetric tridiagonal matrices in the |j m> basis:

  discrete nonlinear Schrodinger dimer:  H = eps (J+ + J-) + (gamma/2) J0^2
  deformed (integrable) lattice dimer:   H = Jq+ + Jq-   at q(gamma)

The physical two-site chain Hamiltonians differ from these by an overall
scale and a shift that are constant on the sector; both constants are kept
on the returned object so absolute energies can be reconstructed.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .qnumbers import Q_ONE_THRESHOLD, _finite, _is_count, q_from_gamma, sym_qnum

MODELS = ("dnls", "al")


@dataclass
class TridiagonalHamiltonian:
    """Symmetric tridiagonal sector Hamiltonian with chain-energy metadata.

    diag[k] and off[k] couple the m = -j + k ladder, 2j = dim - 1;
    eigenvalues of the physical two-site chain are energy_scale * lambda +
    energy_shift.
    """

    diag: np.ndarray
    off: np.ndarray
    energy_scale: float = 1.0
    energy_shift: float = 0.0

    def __post_init__(self):
        self.diag, self.off = _tridiagonal(self.diag, self.off)

    @property
    def dim(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        if self.off.size:
            m += np.diag(self.off, 1) + np.diag(self.off, -1)
        return m

    def to_physical(self, eigenvalues: np.ndarray) -> np.ndarray:
        """Map sector eigenvalues to absolute two-site chain energies."""
        return self.energy_scale * np.asarray(eigenvalues, dtype=float) + self.energy_shift


def _tridiagonal(diag, off):
    """diag and off as float arrays, refusing a diag that is not a non-empty
    vector and an off that has not one entry fewer."""
    diag, off = np.asarray(diag, dtype=float), np.asarray(off, dtype=float)
    if diag.ndim != 1 or not diag.size:
        raise ValueError(f"diagonal must be a non-empty vector, got shape {diag.shape}")
    if off.shape != (diag.size - 1,):
        raise ValueError("off-diagonal length must be dim - 1")
    return diag, off


def gershgorin_bounds(diag, off) -> tuple[float, float]:
    """Inclusive interval holding every eigenvalue of the symmetric
    tridiagonal matrix with diagonal diag and couplings off; an end past the
    float range is -inf or inf.  Refuses the shapes TridiagonalHamiltonian
    refuses."""
    diag, off = _tridiagonal(diag, off)
    lo, hi = _gershgorin(diag, np.append(off, 0.0), [0])
    return float(lo[0]), float(hi[0])


def _gershgorin(d, o, starts):
    """Gershgorin intervals (lo, hi) of the tridiagonal matrices stacked in
    the rows of d, matrix m from row starts[m] on: o[i] couples rows i and
    i + 1 and is zero at each matrix's last row, so row i's radius is
    |o[i - 1]| + |o[i]|.  An end past the float range is -inf or inf."""
    r = np.abs(o)
    with np.errstate(over="ignore"):
        r[1:] += r[:-1].copy()
        return np.minimum.reduceat(d - r, starts), np.maximum.reduceat(d + r, starts)


def _warn(message: str):
    """A UserWarning at the first caller outside this module, whether it
    called a builder or build_dimer."""
    frame, level = sys._getframe(1), 2
    while frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _refusal(check, *args, **inputs):
    """The text of the ValueError that check raises at these inputs, or None."""
    try:
        check(*args, **inputs)
    except ValueError as exc:
        return str(exc)
    return None


def _dimers(model, two_j, gammas, entries, **inputs) -> list[TridiagonalHamiltonian]:
    """The model's sector Hamiltonians at each gamma of a grid, built
    together, at finite inputs (each gamma; epsilon) and a sector size two_j,
    an integer >= 0.

    entries(gammas, errors, where) gives the grid's diag and off, one row per
    gamma, its energy scales and shifts, and levels(i), the text of the
    physical levels at gamma i; it writes into errors[i] the text of the
    first refusal of gamma i, unless one is there already, and where(i) is
    the "two_j=..., gamma=..." text that ends every refusal.  With [lo, hi]
    the Gershgorin interval of an H, |energy_scale| max(-lo, hi) +
    |energy_shift| bounds its physical levels, refused where that overflows;
    one _gershgorin call over the stacked grid gives every interval.  A grid
    with a refused gamma raises ValueError with the text of the first, the
    one that building that gamma alone raises.
    """
    gammas = list(gammas)
    errors = [_refusal(_finite, gamma=x, **inputs) for x in gammas]
    if errors and errors[0]:
        raise ValueError(errors[0])
    if not _is_count(two_j):
        raise ValueError(f"two_j must be a nonnegative integer, got {two_j}")
    if two_j == 0:
        _warn("two_j = 0 gives a degenerate 1x1 sector")
    if not gammas:
        return []

    def where(i):
        named = dict(two_j=two_j, gamma=gammas[i], **inputs)
        return ", ".join(f"{name}={x}" for name, x in named.items())

    diag, off, scale, shift, levels = entries(gammas, errors, where)
    n, dim = diag.shape
    padded = np.zeros((n, dim))  # off with a zero after each matrix's last row
    padded[:, :-1] = off
    with np.errstate(over="ignore", invalid="ignore"):  # invalid: in rows refused already
        lo, hi = _gershgorin(diag.ravel(), padded.ravel(), np.arange(0, n * dim, dim))
        bound = np.abs(scale) * np.maximum(-lo, hi) + np.abs(shift)
    for i in np.flatnonzero(~np.isfinite(bound)):
        errors[i] = errors[i] or (f"{model} physical levels {levels(i)} overflow double "
                                  f"precision ({where(i)})")
    refused = next((text for text in errors if text), None)
    if refused:
        raise ValueError(refused)
    return [TridiagonalHamiltonian(d, o, float(a), float(b))
            for d, o, a, b in zip(diag, off, scale, shift)]


def _qdnls_dimers(two_j, gammas, epsilon) -> list[TridiagonalHamiltonian]:
    """build_qdnls_dimer at each gamma of a grid: off once, and the diagonals
    one outer product of gamma/2 and m^2."""
    def entries(gammas, errors, where):
        g = np.array([math.nan if e else x for x, e in zip(gammas, errors)], dtype=float)
        if (g < 0).any():
            _warn("negative gamma: attractive convention")
        k, j = np.arange(two_j), 0.5 * two_j
        with np.errstate(over="ignore"):
            off = epsilon * np.sqrt((two_j - k) * (k + 1))
            diag = np.multiply.outer(0.5 * g, (np.arange(two_j + 1) - j) ** 2)  # (gamma/2) m^2
            shift = -0.5 * g * j * j
        for i in np.flatnonzero(~np.isfinite(diag).all(axis=1) | ~np.isfinite(off).all()):
            errors[i] = errors[i] or f"dnls entries overflow double precision ({where(i)})"
        return (diag, np.tile(off, (g.size, 1)), np.full(g.size, -1.0), shift,
                lambda i: "-lambda - (gamma/2) j^2")

    return _dimers("dnls", two_j, gammas, entries, epsilon=epsilon)


def build_qdnls_dimer(two_j: int, gamma: float, epsilon: float = 1.0) -> TridiagonalHamiltonian:
    """Nonlinear dimer H = eps (J+ + J-) + (gamma/2) J0^2 on the spin-j ladder.

    diag_m = (gamma/2) m^2 and off(m, m+1) = eps sqrt((j - m)(j + m + 1)).
    The physical chain with hopping eps and per-site nonlinearity gamma/2
    has spectrum -lambda - (gamma/2) j^2, recorded in the energy metadata.
    Raises ValueError where an entry, or a physical level's Gershgorin
    bound, overflows double precision.
    """
    return _qdnls_dimers(two_j, [gamma], epsilon)[0]


def _sym_qnums(n_max: int, q: float) -> list[float]:
    """[0], [1], ..., [n_max] at q, each bitwise sym_qnum(n, q), with inf
    where [n] overflows double precision: sym_qnum's power ratio in one
    comprehension over the n whose powers q^-+n stay below e^700, and
    sym_qnum itself past them and near q = 1.  Python's float powers, not
    np.power, whose results differ from them in the last bit for some q and x."""
    safe = 0 if abs(q - 1.0) < Q_ONE_THRESHOLD else int(700.0 / abs(math.log(q))) + 1
    c = q - 1.0 / q
    table = [(q**x - q**-x) / c for x in map(float, range(min(safe, n_max + 1)))]
    for n in range(len(table), n_max + 1):
        try:
            table.append(sym_qnum(n, q))
        except ValueError:  # [n] overflows
            table.append(math.inf)
    return table


def _qal_dimers(two_j, gammas) -> list[TridiagonalHamiltonian]:
    """build_qal_dimer at each gamma of a grid: one q-number table per gamma,
    and the couplings of all of them in one step."""
    def entries(gammas, errors, where):
        for i, x in enumerate(gammas):
            errors[i] = errors[i] or _refusal(q_from_gamma, x)
        qs = [math.nan if e else q_from_gamma(x).q for x, e in zip(gammas, errors)]
        qn = np.array([[0.0] * (two_j + 1) if e else _sym_qnums(two_j, q)
                       for q, e in zip(qs, errors)])
        with np.errstate(over="ignore"):
            off = np.sqrt(qn[:, two_j:0:-1] * qn[:, 1:])
        for i in np.flatnonzero(~np.isfinite(off).all(axis=1)):
            k = int(np.argmin(np.isfinite(off[i])))
            errors[i] = errors[i] or (f"al coupling off[{k}] = sqrt([{two_j - k}] [{k + 1}]) at "
                                      f"q={qs[i]:.17g} overflows double precision ({where(i)})")
        scale = [math.nan if e else -(q ** (0.5 - 0.5 * two_j)) for q, e in zip(qs, errors)]
        return (np.zeros_like(qn), off, np.array(scale), np.full(len(qs), 2.0 * two_j),
                lambda i: f"-q^(1/2 - j) lambda + 2 M at q={qs[i]:.17g}")

    return _dimers("al", two_j, gammas, entries)


def build_qal_dimer(two_j: int, gamma: float) -> TridiagonalHamiltonian:
    """Integrable deformed dimer H = Jq+ + Jq- at q = 1/sqrt(1 + gamma/2).

    Zero diagonal and off(m, m+1) = sqrt([j - m][j + m + 1]) in symmetric
    q-numbers, so the spectrum is symmetric around zero.  The physical
    two-site chain (hops of the deformed lattice oscillators plus the 2 sum N
    term) has spectrum -q^(1/2 - j) lambda + 2 M; the sector constants come
    from C_1^-1 = q^-j and from {n} = q^(1-n) [n] relating the two kinds of
    hops, and are recorded in the energy metadata.  Raises ValueError where
    a coupling, or a physical level's Gershgorin bound, overflows double
    precision.
    """
    return _qal_dimers(two_j, [gamma])[0]


def build_dimer_grid(model: str, two_j: int, gammas, epsilon: float = 1.0) -> list[TridiagonalHamiltonian]:
    """build_dimer at each gamma of gammas, in their order, built together:
    a grid's gamma-independent parts once, its entries in whole-array steps
    and its physical-level check over the stacked grid.  Each H is bitwise
    the one build_dimer gives; a refused grid raises the ValueError that
    build_dimer raises at the first gamma it refuses, and a warning fires
    once per grid."""
    if model == "dnls":
        return _qdnls_dimers(two_j, gammas, epsilon)
    if model == "al":
        if epsilon != 1.0:
            raise ValueError("epsilon applies to the dnls model only")
        return _qal_dimers(two_j, gammas)
    raise ValueError(f"model must be one of {MODELS}, got {model!r}")


def build_dimer(model: str, two_j: int, gamma: float, epsilon: float = 1.0) -> TridiagonalHamiltonian:
    """Dispatch on the model name ("dnls" or "al"): build_dimer_grid at one gamma."""
    return build_dimer_grid(model, two_j, [gamma], epsilon)[0]
