"""Independent references for the benchmark's correctness gate.

The dimer matrices are rebuilt here from their closed forms, written apart
from `qdimer.dimer` (the deformed couplings use sinh in the log domain
rather than powers of q), and diagonalized with scipy's LAPACK tridiagonal
drivers.  Nothing in this module calls into `qdimer`.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# Criterion-1 bound on eigenvalues, relative to max(1, |lambda|_max).
EIG_REL_TOL = 1e-10
# Criterion-4 bounds on orthonormality and completeness, per dimension.
VECTOR_TOL_PER_DIM = 1e-9
# The batched Sturm count renormalizes every 8 steps, so an off-diagonal
# above about 2^128 overflows within one block; from 2^120 on the seed is
# known to return wrong eigenvalues for some inputs.
STURM_OVERFLOW_LOG2 = 120.0


def _log_sym_qnums(x: np.ndarray, gamma: float) -> np.ndarray:
    """log [x] for x >= 1, with [x] = sinh(a x) / sinh(a), a = ln(1 + gamma/2)/2."""
    a = 0.5 * math.log1p(0.5 * gamma)
    if a < 1e-12:
        return np.log(x)
    ax = a * x
    return ax + np.log1p(-np.exp(-2.0 * ax)) - math.log(2.0 * math.sinh(a))


def _log_offdiag(model: str, two_j: int, gamma: float) -> np.ndarray:
    k = np.arange(two_j, dtype=float)
    if model == "dnls":
        return 0.5 * (np.log(two_j - k) + np.log(k + 1.0))
    return 0.5 * (_log_sym_qnums(two_j - k, gamma) + _log_sym_qnums(k + 1.0, gamma))


def dimer_matrix(model: str, two_j: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the sector Hamiltonian at unit hopping."""
    if model == "dnls":
        m = np.arange(two_j + 1) - 0.5 * two_j
        diag = 0.5 * gamma * m * m
    else:
        diag = np.zeros(two_j + 1)
    return diag, np.exp(_log_offdiag(model, two_j, gamma))


def energy_constants(model: str, two_j: int, gamma: float) -> tuple[float, float]:
    """(scale, shift) mapping sector eigenvalues to two-site chain energies."""
    j = 0.5 * two_j
    if model == "dnls":
        return -1.0, -0.5 * gamma * j * j
    return -math.exp(0.5 * (j - 0.5) * math.log1p(0.5 * gamma)), 2.0 * two_j


def sturm_overflow_regime(model: str, two_j: int, gamma: float) -> bool:
    """True where the seed's Sturm count is known to overflow (AL, huge couplings)."""
    if model != "al" or two_j < 1:
        return False
    return float(np.max(_log_offdiag(model, two_j, gamma))) / math.log(2.0) >= STURM_OVERFLOW_LOG2


def eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues from LAPACK."""
    if diag.size == 1:
        return diag.copy()
    return scipy.linalg.eigvalsh_tridiagonal(diag, off)


def eigenvalue_error(evs, ref: np.ndarray) -> float | None:
    """Criterion-1 error of evs against ref, or None when the shapes differ."""
    evs = np.asarray(evs, dtype=float)
    if evs.shape != ref.shape:
        return None
    return float(np.max(np.abs(evs - ref))) / max(1.0, float(np.max(np.abs(ref))))


def eigenvalues_ok(evs, ref: np.ndarray) -> bool:
    err = eigenvalue_error(evs, ref)
    return err is not None and err <= EIG_REL_TOL


def completeness_residual(vectors: np.ndarray) -> float:
    """max |V V^T - I|, computed here rather than by the program."""
    return float(np.max(np.abs(vectors @ vectors.T - np.eye(vectors.shape[0]))))
