"""Three-term-recurrence spectral solver for the dimer tridiagonal matrices.

The solver runs one kernel, the LDL^T pivot form of the recurrence,

    q_0 = d_0 - x,  q_k = (d_k - x) - o_{k-1}^2 / q_{k-1},

batched over many shifts x at once.  The number of negative pivots is the
number of eigenvalues below x (a Sturm count), and pivots stay bounded, so no
rescaling is needed once H is scaled by a power of two.  Both dimer matrices
are persymmetric (reflecting m to -m leaves them unchanged), so H splits
exactly into an even and an odd block, and the self-trapped level pairs that
collapse in double precision are even/odd partners; inside one block the
spectrum is well separated.  Blocks are also cut at zero couplings.  All
blocks are bisected together on the pivot count, and the same kernel run
forward and backward over a block at its roots gives twisted-factorization
eigenvectors, mirrored into exactly even or odd columns.

The orthonormality check runs per parity block of the same reduction, on the
block's roots.  It builds the recurrence columns c_k = p_k(x)/eps_k of the
minor polynomials p_{k+1}(x) = (x - d_k) p_k(x) - o_{k-1}^2 p_{k-1}(x) from
the same pivots, since p_{k+1}/p_k = -q_k, in double precision first.  A
block that fails there gets one mpmath pass, at 30 digits plus the decades
its columns span: one scalar loop over the minor polynomials serves as both
the Sturm count of an arbitrary-precision bisection and the Gram columns, an
independent referee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
import scipy.linalg

from .dimer import TridiagonalHamiltonian

_EPS = float(np.finfo(float).eps)
# Smallest pivot magnitude of the recurrence kernel; with entries scaled
# below 1, o^2 / _PIVMIN stays finite.
_PIVMIN = float(np.finfo(float).tiny)
# Diagonal of the padding rows that fill short blocks up to the stack
# height: above every shift of the scaled problem, so their pivots stay
# positive and are never counted.
_PAD_DIAG = 8.0


@dataclass
class Spectrum:
    """Converged eigensystem of a dimer Hamiltonian.

    Eigenvalues ascend; vectors[:, a] is the unit eigenvector for
    eigenvalues[a] with its first significant component positive.
    norm_constants[a] is |vectors[0, a]|, which equals
    1 / sqrt(sum_k p_k(lam_a)^2 / eps_k^2), the normalization of the
    recurrence eigenvector expansion.  vector_method[a] records how the
    column was obtained.
    """

    hamiltonian: TridiagonalHamiltonian
    eigenvalues: np.ndarray
    vectors: np.ndarray
    norm_constants: np.ndarray
    vector_method: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def gershgorin_bounds(H: TridiagonalHamiltonian) -> tuple[float, float]:
    """Inclusive interval containing the whole spectrum."""
    d, off = H.diag, H.off
    r = np.zeros(H.dim)
    if off.size:
        r[:-1] += np.abs(off)
        r[1:] += np.abs(off)
    return float(np.min(d - r)), float(np.max(d + r))


def _radius(H) -> float:
    lo, hi = gershgorin_bounds(H)
    return max(abs(lo), abs(hi))


def _pivots(d, seg, o2, lam):
    """LDL^T pivots of T - lam, one column per shift: the solver's one kernel.

    Column j runs down segment seg[j] of the stack (diagonal d[:, seg[j]],
    o2[k, j] the squared coupling of rows k and k + 1) at lam[j]:
    q_0 = d_0 - lam and q_k = (d_k - lam) - o2_{k-1} / q_{k-1}.  The pivots
    <= 0 count the eigenvalues below lam, and pivots stay bounded, so nothing
    is rescaled.  A zero pivot first runs through IEEE infinities; if any
    appear, the sweep is redone with pivots below _PIVMIN set to -_PIVMIN
    (LAPACK's dstebz rule).
    """
    q = np.take(d, seg, axis=1)
    q -= lam
    t = np.empty_like(lam)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(1, q.shape[0]):
            np.divide(o2[k - 1], q[k - 1], out=t)
            np.subtract(q[k], t, out=q[k])
    if np.isfinite(q).all():
        return q
    q = np.take(d, seg, axis=1) - lam
    for k in range(q.shape[0]):
        if k:
            q[k] -= o2[k - 1] / q[k - 1]
        q[k][np.abs(q[k]) < _PIVMIN] = -_PIVMIN
    return q


@dataclass(frozen=True)
class _Reduction:
    """H scaled by 2**-exp, folded into parity blocks and cut at zero couplings.

    Reduced row i lifts to full row rows[i] with weight weights[i] and, where
    mirror[i] is +-1, to full row dim - 1 - rows[i] with that sign.  off[i]
    couples rows i and i + 1 and is zero at every segment end; diag and off
    end with a padding row.  Segment s has sizes[s] rows from starts[s].
    """

    diag: np.ndarray
    off: np.ndarray
    exp: int
    rows: np.ndarray
    weights: np.ndarray
    mirror: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray


def _scaled(H: TridiagonalHamiltonian):
    """Diagonal and couplings of H times 2**-exp, which puts its largest entry
    into [0.5, 1), and exp."""
    top = max(float(np.max(np.abs(H.diag))), float(np.max(np.abs(H.off), initial=0.0)))
    if not math.isfinite(top):
        raise ValueError("Hamiltonian entries must be finite")
    exp = math.frexp(top)[1]
    return np.ldexp(H.diag, -exp), np.ldexp(H.off, -exp), exp


def _reduce(H: TridiagonalHamiltonian) -> _Reduction:
    """Exact reduction of H: scaled by _scaled, the even and odd blocks when H
    equals its mirror image, and cuts at couplings that are zero or whose
    square underflows."""
    n = H.dim
    d, o, exp = _scaled(H)
    m = n // 2
    rows, weights, mirror = np.arange(n), np.ones(n), np.zeros(n)
    if n > 1 and np.array_equal(d, d[::-1]) and np.array_equal(o, o[::-1]):
        # even block (u_k = u_{n-1-k}) on the half-ladder with the central
        # coupling folded in, then the odd block (u_k = -u_{n-1-k})
        rows = np.concatenate((np.arange(n - m), np.arange(m)))
        weights = np.where(rows == n - 1 - rows, 1.0, math.sqrt(0.5))
        mirror = np.repeat([1.0, -1.0], (n - m, m))
        inner = o[: m - 1]
        if n % 2 == 0:
            d = np.concatenate((d[:m], d[:m]))
            d[[m - 1, n - 1]] += [o[m - 1], -o[m - 1]]
            o = np.concatenate((inner, [0.0], inner))
        else:
            d = np.concatenate((d[: m + 1], d[:m]))
            o = np.concatenate((inner, [math.sqrt(2.0) * o[m - 1], 0.0], inner))
    o = np.append(o, [0.0, 0.0])
    o[o * o == 0.0] = 0.0
    starts = np.append(0, np.flatnonzero(o[: n - 1] == 0.0) + 1)
    sizes = np.diff(np.append(starts, n))
    return _Reduction(np.append(d, _PAD_DIAG), o, exp, rows, weights, mirror, starts, sizes)


def _stack(red: _Reduction):
    """The segments of two or more rows side by side, bottom-aligned.

    Returns, for each root in such a segment (root i of segment s is number
    i - starts[s] in it): i, the segment's column in the tables, and that
    number; then the stacked diagonal and couplings, one column per segment,
    where off[k] couples stack rows k and k + 1 and the rows above a short
    segment are padding.
    """
    multi = np.flatnonzero(red.sizes > 1)
    sizes = red.sizes[multi]
    height = int(sizes.max(initial=1))
    rows = np.arange(height)[:, None] + (red.starts[multi] + sizes - height)
    rows[rows < red.starts[multi]] = red.rows.size
    cols = np.flatnonzero(np.repeat(red.sizes > 1, red.sizes))
    seg = np.repeat(np.arange(multi.size), sizes)
    return cols, seg, cols - red.starts[multi][seg], red.diag[rows], red.off[rows]


def _roots(H: TridiagonalHamiltonian, red: _Reduction, tol: float) -> np.ndarray:
    """Roots of every segment in scaled units, ascending within a segment.

    All segments are bisected together from the Gershgorin interval of H:
    one kernel sweep per step counts the negative pivots at every bracket
    midpoint.  A bracket is done at width max(tol * min(1, 2**-exp),
    4 eps |lambda|), which is tol in the units of H unless H is small.
    """
    n = H.dim
    lam = red.diag[:n].copy()  # a one-row segment is its own root
    cols, seg, idx, d, off = _stack(red)
    if not cols.size:
        return lam
    glo, ghi = (math.ldexp(x, -red.exp) for x in gershgorin_bounds(H))
    pad = 1e-3 * max(-glo, ghi)
    lo, hi = np.full(cols.size, glo - pad), np.full(cols.size, ghi + pad)
    o2 = np.take(off * off, seg, axis=1)
    act = np.arange(cols.size)
    tol = math.ldexp(tol, -max(red.exp, 0))
    for _ in range(4096):
        mid = 0.5 * (lo[act] + hi[act])
        below = np.count_nonzero(_pivots(d, seg, o2, mid) <= 0.0, axis=0) <= idx
        lo[act] = np.where(below, mid, lo[act])
        hi[act] = np.where(below, hi[act], mid)
        edge = np.maximum(np.abs(lo[act]), np.abs(hi[act]))
        keep = hi[act] - lo[act] > np.maximum(tol, 4.0 * _EPS * edge)
        if not keep.any():
            break
        if not keep.all():
            act, seg, idx = act[keep], seg[keep], idx[keep]
            o2 = o2[:, keep]
    lam[cols] = 0.5 * (lo + hi)
    return lam


def eigenvalues_bisection(H: TridiagonalHamiltonian, tol: float = 1e-12) -> np.ndarray:
    """All eigenvalues by bisection on the pivot Sturm count, ascending.

    H is scaled by a power of two, split into its even and odd blocks when
    it is persymmetric and cut at zero couplings; all blocks are bisected
    together, each eigenvalue to a bracket of width max(tol, 4 eps |lambda|),
    with tol relative to the largest entry of H when that entry is below 1.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    red = _reduce(H)
    return np.sort(np.ldexp(_roots(H, red, tol), red.exp))


def _twisted_vectors(red: _Reduction, lam):
    """The stack's columns and their unit eigenvectors, bottom-aligned as in
    _stack and zero on the padding rows.

    The kernel run down and up the stack gives the twisted factorizations of
    T - lam (Dhillon & Parlett), gamma_k = q+_k - o_k^2 / q-_{k+1}.  At
    r = argmin |gamma_k| the vector with z_r = 1 that it yields is the
    eigenvector: z_k = -o_k z_{k+1} / q+_k above r, -o_{k-1} z_{k-1} / q-_k
    below.
    """
    cols, seg, _, d, off = _stack(red)
    lam = lam[cols]
    o2 = np.take(off * off, seg, axis=1)
    up = _pivots(d, seg, o2, lam)
    down = _pivots(d[::-1], seg, o2[-2::-1], lam)[::-1]
    gamma = np.divide(o2[:-1], down[1:], out=o2[:-1])
    gamma = np.subtract(up, o2, out=o2)
    gamma[np.take(d, seg, axis=1) == _PAD_DIAG] = np.inf
    r = np.argmin(np.abs(gamma, out=gamma), axis=0)
    del gamma, o2
    k = np.arange(d.shape[0])[:, None]
    o = np.take(-off[:-1], seg, axis=1)
    np.divide(o, up[:-1], out=up[:-1])
    up[k >= r] = 1.0
    np.divide(o, down[1:], out=down[1:])
    down[k <= r] = 1.0
    del o
    z = np.cumprod(up[::-1], axis=0, out=up[::-1])[::-1]
    z *= np.cumprod(down, axis=0, out=down)
    z /= np.linalg.norm(z, axis=0)
    return cols, z


def _ritz(red: _Reduction, first: int, size: int, resolved) -> np.ndarray:
    """Ascending Rayleigh-Ritz vectors of a segment on the complement of its
    resolved eigenvectors."""
    q = np.linalg.qr(resolved, mode="complete")[0][:, resolved.shape[1] :]
    o = red.off[first : first + size - 1, None]
    tq = red.diag[first : first + size, None] * q
    tq[:-1] += o * q[1:]
    tq[1:] += o * q[:-1]
    return q @ np.linalg.eigh(q.T @ tq)[1]


def solve_spectrum(H: TridiagonalHamiltonian, tol: float = 1e-12) -> Spectrum:
    """Full eigensystem: the eigenvalues of eigenvalues_bisection and
    twisted-factorization eigenvectors from the same pivot kernel.

    Each parity block's vectors come from the kernel run down and up the
    block at all of its roots, and are mirrored into exactly even or odd
    columns, so level pairs that collapse in double precision are orthogonal
    by construction.  Inside one block of a hand-built H that is not
    persymmetric, roots closer than 1e-6 * radius give coinciding twisted
    vectors; those columns come from a Rayleigh-Ritz step on the complement
    of the block's other vectors and are marked "ritz" in vector_method, all
    others "recurrence".
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    red = _reduce(H)
    n = H.dim
    lam = _roots(H, red, tol)
    cols, z = _twisted_vectors(red, lam)
    order = np.argsort(lam, kind="stable")
    column = np.argsort(order)
    gap = math.ldexp(1e-6 * _radius(H), -red.exp)
    methods = np.full(n, "recurrence", dtype=object)
    vectors = np.zeros((n, n))
    for first, size in zip(red.starts, red.sizes):
        seg = slice(first, first + size)
        block = np.ones((1, 1))
        if size > 1:
            c = np.searchsorted(cols, first)
            block = z[-size:, c : c + size]
            run = np.diff(lam[seg]) <= gap
            if run.any():
                run = np.append(run, False) | np.insert(run, 0, False)
                block[:, run] = _ritz(red, first, size, block[:, ~run])
                methods[seg][run] = "ritz"
        block = _lead_positive(block * red.weights[seg, None])
        row = red.rows[first]
        vectors[row : row + size, column[seg]] = block
        if red.mirror[first]:
            vectors[n - row - size : n - row, column[seg]] = red.mirror[first] * block[::-1]
    return Spectrum(
        hamiltonian=H,
        eigenvalues=np.ldexp(lam[order], red.exp),
        vectors=vectors,
        norm_constants=np.abs(vectors[0, :]),
        vector_method=list(methods[order]),
    )


def _lead_positive(v):
    """v with each column's first significant component made positive, in place."""
    mag = np.abs(v)
    lead = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    v *= np.where(v[lead, np.arange(v.shape[1])] < 0.0, -1.0, 1.0)
    return v


def dense_oracle(H: TridiagonalHamiltonian) -> Spectrum:
    """Independent eigensystem from the library tridiagonal QR/QL solver."""
    if H.dim == 1:
        w = H.diag.copy()
        v = np.ones((1, 1))
    else:
        w, v = scipy.linalg.eigh_tridiagonal(H.diag, H.off)
    order = np.argsort(w)
    w = w[order]
    v = _lead_positive(v[:, order])
    return Spectrum(
        hamiltonian=H,
        eigenvalues=w,
        vectors=v,
        norm_constants=np.abs(v[0, :]),
        vector_method=["dense"] * H.dim,
    )


# ---------------------------------------------------------------------------
# verification: orthonormality, completeness, parity
# ---------------------------------------------------------------------------


def df_orthonormality_check(spectrum: Spectrum) -> float:
    """Max residual of the discrete orthogonality of the recurrence columns.

    The kernel identity for the minor polynomials states that the weighted
    columns (p_k(lam)/eps_k), normalized per root, form an orthonormal
    family over the roots.  The check runs on the solver's own reduction:
    each parity block of _reduce, cut at zero couplings, on its roots from
    _roots, which are bitwise the eigenvalues solve_spectrum returns at its
    default tol.  Mirror-even and mirror-odd columns are exactly orthogonal,
    so the lift to H is orthogonal and the block Grams are the Gram of H in
    exact arithmetic.  Returns the largest max |Gram - I| over the blocks.

    Each block is checked in double precision.  A block whose residual
    exceeds 1e-12 * dim is checked once more in mpmath, at 30 digits plus
    the decades its recurrence columns span; that pass bisects the block
    exactly as _reduce stores it, whose folded corner entry is one rounding
    away from H.
    """
    H = spectrum.hamiltonian
    red = _reduce(H)
    lam = _roots(H, red, 1e-12)
    worst = 0.0
    for first, size in zip(red.starts, red.sizes):
        d = red.diag[first : first + size]
        o = red.off[first : first + size - 1]
        residual, decades = _df_gram_float(d, o, lam[first : first + size])
        if residual > 1e-12 * H.dim:
            residual = _df_gram_mp(d, o, 30 + math.ceil(decades))
        worst = max(worst, residual)
    return worst


def _df_gram_float(d, o, lam):
    """Gram residual of the recurrence columns of the tridiagonal (d, o) at
    its roots lam, and the decades the columns span, from one kernel sweep
    over all roots: p_{k+1}/p_k = -q_k, so the column ratios
    c_{k+1}/c_k = -q_k/o_k, accumulated in the log domain."""
    q = _pivots(d[:, None], np.zeros(lam.size, dtype=int), (o * o)[:, None], lam)[:-1]
    log_c = np.zeros((d.size, lam.size))
    np.cumsum(np.log(np.abs(q)) - np.log(np.abs(o))[:, None], axis=0, out=log_c[1:])
    sign = np.ones_like(log_c)
    np.cumprod(-np.sign(q) * np.sign(o)[:, None], axis=0, out=sign[1:])
    top = log_c.max(axis=0)
    c = sign * np.exp(log_c - top)
    c /= np.linalg.norm(c, axis=0)
    decades = float(np.max(top - log_c.min(axis=0))) / math.log(10.0)
    return float(np.max(np.abs(c.T @ c - np.eye(lam.size)))), decades


def _mp_minors(d, off2, lam):
    """Minor polynomials p_0 .. p_dim at lam in mpmath, and the count of sign
    agreements between consecutive ones (a zero taking the sign opposite to
    its predecessor), which is the number of eigenvalues below lam."""
    p_prev, p = mp.mpf(0), mp.mpf(1)
    minors = [p]
    s_prev, count = 1, 0
    for k in range(len(d)):
        p_prev, p = p, (lam - d[k]) * p - (off2[k - 1] if k > 0 else 0) * p_prev
        s = 1 if p > 0 else (-1 if p < 0 else -s_prev)
        if s == s_prev:
            count += 1
        s_prev = s
        minors.append(p)
    return minors, count


def _mp_eigenvalues(d, off, dps):
    """All roots of the scaled tridiagonal (d, off) by Sturm bisection in
    mpmath working precision dps, each to a bracket of 10**(6 - dps).

    Scaled entries lie below 1 in magnitude, a folded corner below 2 and a
    folded coupling below sqrt(2), so by Gershgorin every root of H scaled
    as in _scaled, and of each block of _reduce, lies in (-4, 4).
    """
    with mp.workdps(dps):
        d = [mp.mpf(x) for x in d]
        off2 = [mp.mpf(x) ** 2 for x in off]
        target = mp.mpf(10) ** (6 - dps)
        roots = []
        for i in range(len(d)):
            lo, hi = mp.mpf(-4), mp.mpf(4)
            while hi - lo > target:
                mid = (lo + hi) / 2
                if _mp_minors(d, off2, mid)[1] <= i:
                    lo = mid
                else:
                    hi = mid
            roots.append((lo + hi) / 2)
    return roots


def _df_gram_mp(d, off, digits: int):
    """Gram residual of the recurrence columns of the scaled tridiagonal
    (d, off) in mpmath at the given digits, on roots bisected at the same
    precision: the minor loop gives both the Sturm counts and the columns."""
    roots = _mp_eigenvalues(d, off, digits)
    dim = len(roots)
    with mp.workdps(digits):
        d = [mp.mpf(x) for x in d]
        off = [mp.mpf(x) for x in off]
        off2 = [o * o for o in off]
        eps = [mp.mpf(1)]
        for o in off:
            eps.append(eps[-1] * o)
        cols = []
        for lam in roots:
            weighted = [p / e for p, e in zip(_mp_minors(d, off2, lam)[0], eps)]
            nrm = mp.sqrt(mp.fsum(w * w for w in weighted))
            cols.append([w / nrm for w in weighted])
        worst = mp.mpf(0)
        for i in range(dim):
            for jx in range(i, dim):
                g = mp.fsum(cols[i][k] * cols[jx][k] for k in range(dim))
                tgt = 1 if i == jx else 0
                worst = max(worst, abs(g - tgt))
    return float(worst)


def completeness_check(spectrum: Spectrum) -> float:
    """Max residual of sum_a |psi_a><psi_a| = 1 over the eigenvector set."""
    v = spectrum.vectors
    return float(np.max(np.abs(v @ v.T - np.eye(spectrum.dim))))


@dataclass(frozen=True)
class ParityReport:
    """Outcome of the symmetric-spectrum structure check."""

    max_pair_residual: float
    zero_count: int
    expected_zero_count: int
    min_abs_eigenvalue: float
    offending_pairs: tuple
    passed: bool


def parity_structure_check(spectrum: Spectrum, tol: float = 1e-10) -> ParityReport:
    """Check the deformed-dimer spectrum is symmetric under lam -> -lam and
    that a zero eigenvalue occurs exactly for odd dimension (integer spin)."""
    if spectrum.hamiltonian.model != "al":
        raise ValueError("parity structure applies to the 'al' model only")
    evs = spectrum.eigenvalues
    dim = evs.size
    pair_res = np.abs(evs + evs[::-1])
    offending = tuple(int(i) for i in np.nonzero(pair_res > tol)[0])
    zero_count = int(np.count_nonzero(np.abs(evs) <= tol))
    expected = 1 if dim % 2 == 1 else 0
    passed = not offending and zero_count == expected
    return ParityReport(
        max_pair_residual=float(np.max(pair_res)) if dim else 0.0,
        zero_count=zero_count,
        expected_zero_count=expected,
        min_abs_eigenvalue=float(np.min(np.abs(evs))) if dim else 0.0,
        offending_pairs=offending,
        passed=passed,
    )
