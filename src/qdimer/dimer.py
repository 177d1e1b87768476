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
from dataclasses import dataclass, field

import numpy as np

from .qnumbers import Q_ONE_THRESHOLD, q_from_gamma, sym_qnum

MODELS = ("dnls", "al")


@dataclass(frozen=True)
class SpinSector:
    """Spin sector carrying 2j = total quanta of the two-site problem."""

    two_j: int

    def __post_init__(self):
        if self.two_j < 0 or int(self.two_j) != self.two_j:
            raise ValueError(f"two_j must be a nonnegative integer, got {self.two_j}")

    @property
    def j(self) -> float:
        return 0.5 * self.two_j

    @property
    def dim(self) -> int:
        return self.two_j + 1

    @property
    def m_values(self) -> np.ndarray:
        return -self.j + np.arange(self.dim)


@dataclass
class TridiagonalHamiltonian:
    """Symmetric tridiagonal sector Hamiltonian with chain-energy metadata.

    diag[k] and off[k] couple the m = -j + k ladder; eigenvalues of the
    physical two-site chain are energy_scale * lambda + energy_shift.
    """

    sector: SpinSector
    model: str
    diag: np.ndarray
    off: np.ndarray
    params: dict = field(default_factory=dict)
    energy_scale: float = 1.0
    energy_shift: float = 0.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        self.diag = np.asarray(self.diag, dtype=float)
        self.off = np.asarray(self.off, dtype=float)
        if self.diag.shape != (self.sector.dim,):
            raise ValueError("diagonal length must equal the sector dimension")
        if self.off.shape != (max(self.sector.dim - 1, 0),):
            raise ValueError("off-diagonal length must be dim - 1")

    @property
    def dim(self) -> int:
        return self.sector.dim

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        if self.off.size:
            m += np.diag(self.off, 1) + np.diag(self.off, -1)
        return m

    def to_physical(self, eigenvalues: np.ndarray) -> np.ndarray:
        """Map sector eigenvalues to absolute two-site chain energies."""
        return self.energy_scale * np.asarray(eigenvalues, dtype=float) + self.energy_shift


def gershgorin_bounds(diag, off) -> tuple[float, float]:
    """Inclusive interval holding every eigenvalue of the symmetric
    tridiagonal matrix with diagonal diag and couplings off; an end past the
    float range is -inf or inf."""
    r = np.zeros(len(diag))
    with np.errstate(over="ignore"):
        r[:-1] += np.abs(off)
        r[1:] += np.abs(off)
        return float(np.min(diag - r)), float(np.max(diag + r))


def _warn(message: str):
    """A UserWarning at the first caller outside this module, whether it
    called a builder or build_dimer."""
    frame, level = sys._getframe(1), 2
    while frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _dimer(model, two_j, entries, levels, **inputs) -> TridiagonalHamiltonian:
    """The model's sector Hamiltonian at finite inputs (gamma, epsilon).
    entries(sector, where) gives its diag, off, params, energy_scale and
    energy_shift, refusing entries that overflow; where() is the "two_j=...,
    gamma=..." text that ends every refusal.  With [lo, hi] the Gershgorin
    interval, |energy_scale| max(-lo, hi) + |energy_shift| bounds the physical
    levels (levels formatted with params): a ValueError where it overflows."""
    for name, x in inputs.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
    sector = SpinSector(two_j)
    if two_j == 0:
        _warn("two_j = 0 gives a degenerate 1x1 sector")

    def where():
        return ", ".join(f"{name}={x}" for name, x in dict(two_j=two_j, **inputs).items())

    diag, off, params, scale, shift = entries(sector, where)
    lo, hi = gershgorin_bounds(diag, off)
    if not math.isfinite(abs(scale) * max(-lo, hi) + abs(shift)):
        levels = levels.format(**params)
        raise ValueError(f"{model} physical levels {levels} overflow double precision ({where()})")
    return TridiagonalHamiltonian(sector, model, diag, off, params, scale, shift)


def build_qdnls_dimer(two_j: int, gamma: float, epsilon: float = 1.0) -> TridiagonalHamiltonian:
    """Nonlinear dimer H = eps (J+ + J-) + (gamma/2) J0^2 on the spin-j ladder.

    diag_m = (gamma/2) m^2 and off(m, m+1) = eps sqrt((j - m)(j + m + 1)).
    The physical chain with hopping eps and per-site nonlinearity gamma/2
    has spectrum -lambda - (gamma/2) j^2, recorded in the energy metadata.
    Raises ValueError where an entry, or a physical level's Gershgorin
    bound, overflows double precision.
    """
    def entries(sector, where):
        if gamma < 0:
            _warn("negative gamma: attractive convention")
        k = np.arange(two_j)
        with np.errstate(over="ignore"):
            off = epsilon * np.sqrt((two_j - k) * (k + 1))
            diag = 0.5 * gamma * sector.m_values**2
        if not (np.isfinite(diag).all() and np.isfinite(off).all()):
            raise ValueError(f"dnls entries overflow double precision ({where()})")
        params = {"gamma": float(gamma), "epsilon": float(epsilon), "chain_gamma": 0.5 * gamma}
        return diag, off, params, -1.0, -0.5 * gamma * sector.j * sector.j

    return _dimer("dnls", two_j, entries, "-lambda - (gamma/2) j^2", gamma=gamma, epsilon=epsilon)


def _sym_qnums(n_max: int, q: float) -> list[float]:
    """[0], [1], ..., [n_max] at q, each bitwise sym_qnum(n, q), with inf
    where [n] overflows double precision: sym_qnum's power ratio in one
    comprehension over the n whose powers q^-+n stay below e^700, and
    sym_qnum itself past them and near q = 1."""
    safe = 0 if abs(q - 1.0) < Q_ONE_THRESHOLD else int(700.0 / abs(math.log(q))) + 1
    c = q - 1.0 / q
    table = [(q**x - q**-x) / c for x in map(float, range(min(safe, n_max + 1)))]
    for n in range(len(table), n_max + 1):
        try:
            table.append(sym_qnum(n, q))
        except ValueError:  # [n] overflows
            table.append(math.inf)
    return table


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
    def entries(sector, where):
        q = q_from_gamma(gamma).q
        qn = np.array(_sym_qnums(two_j, q))
        with np.errstate(over="ignore"):
            off = np.sqrt(qn[two_j:0:-1] * qn[1:])
        bad = np.flatnonzero(~np.isfinite(off))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"al coupling off[{k}] = sqrt([{two_j - k}] [{k + 1}]) at "
                             f"q={q:.17g} overflows double precision ({where()})")
        scale = -(q ** (0.5 - sector.j))
        return np.zeros(sector.dim), off, {"gamma": float(gamma), "q": q}, scale, 2.0 * two_j

    return _dimer("al", two_j, entries, "-q^(1/2 - j) lambda + 2 M at q={q:.17g}", gamma=gamma)


def build_dimer(model: str, two_j: int, gamma: float, epsilon: float = 1.0) -> TridiagonalHamiltonian:
    """Dispatch on the model name ("dnls" or "al")."""
    if model == "dnls":
        return build_qdnls_dimer(two_j, gamma, epsilon)
    if model == "al":
        if epsilon != 1.0:
            raise ValueError("epsilon applies to the dnls model only")
        return build_qal_dimer(two_j, gamma)
    raise ValueError(f"model must be one of {MODELS}, got {model!r}")
