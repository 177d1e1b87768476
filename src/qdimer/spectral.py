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

The characteristic-polynomial form p_{k+1}(x) = (x - d_k) p_k(x) -
o_{k-1}^2 p_{k-1}(x) stays behind sturm_eval and the orthonormality checks,
which can escalate to arbitrary-precision bisection when double precision
cannot resolve the level spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
import scipy.linalg

from .dimer import TridiagonalHamiltonian
from .qnumbers import Q_ONE_THRESHOLD, q_from_gamma

# Rescaling window for recurrence values, as powers of two.
_SCALE_BITS = 512
_SCALE_HI = 2.0**_SCALE_BITS
_SCALE_LO = 2.0**-_SCALE_BITS

_EPS = float(np.finfo(float).eps)
# Smallest pivot magnitude of the recurrence kernel; with entries scaled
# below 1, o^2 / _PIVMIN stays finite.
_PIVMIN = float(np.finfo(float).tiny)
# Diagonal of the padding rows that fill short blocks up to the stack
# height: above every shift of the scaled problem, so their pivots stay
# positive and are never counted.
_PAD_DIAG = 8.0


@dataclass(frozen=True)
class SturmEvaluation:
    """One recurrence sweep at lam: final value (times 2^log_scale) and the
    count of eigenvalues below lam."""

    lam: float
    value: float
    log_scale: int
    sign_changes: int


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
    epsilon_factors: np.ndarray
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


def sturm_eval(H: TridiagonalHamiltonian, lam: float) -> SturmEvaluation:
    """Run the minor recurrence at lam with power-of-two rescaling.

    The true p_dim(lam) equals value * 2^log_scale; sign_changes counts
    eigenvalues strictly below lam.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    d, off = H.diag, H.off
    p_prev, p = 0.0, 1.0
    s_prev = 1
    count = 0
    log_scale = 0
    for k in range(H.dim):
        o2 = off[k - 1] * off[k - 1] if k > 0 else 0.0
        p_new = (lam - d[k]) * p - o2 * p_prev
        mag = abs(p_new)
        if mag > _SCALE_HI or (0.0 < mag < _SCALE_LO):
            _, e = math.frexp(p_new)
            p_new = math.ldexp(p_new, -e)
            p = math.ldexp(p, -e)
            log_scale += e
        s = 0 if p_new == 0.0 else (1 if p_new > 0.0 else -1)
        if s == 0:
            s = -s_prev
        if s == s_prev:
            count += 1
        p_prev, p, s_prev = p, p_new, s
    return SturmEvaluation(lam=float(lam), value=p, log_scale=log_scale, sign_changes=count)


def characteristic_coefficients(H: TridiagonalHamiltonian) -> list:
    """Coefficient arrays of the minor polynomials p_0 .. p_dim.

    Entry k holds the coefficients of p_k in ascending powers, built by the
    same three-term recurrence acting on coefficient vectors (multiply by x
    is a shift).  Coefficients grow combinatorially, so this is a
    desk-scale cross-check of degrees and parity, not a solver path.
    """
    d, off = H.diag, H.off
    polys = [np.array([1.0])]
    prev = np.zeros(1)
    for k in range(H.dim):
        p = polys[-1]
        shifted = np.concatenate(([0.0], p))
        cur = shifted.copy()
        cur[: p.size] -= d[k] * p
        if k > 0:
            cur[: prev.size] -= off[k - 1] * off[k - 1] * prev
        prev = p
        polys.append(cur)
    return polys


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


def _reduce(H: TridiagonalHamiltonian) -> _Reduction:
    """Exact reduction of H: its largest entry scaled into [0.5, 1) by a power
    of two, the even and odd blocks when H equals its mirror image, and cuts
    at couplings that are zero or whose square underflows."""
    n = H.dim
    top = max(float(np.max(np.abs(H.diag))), float(np.max(np.abs(H.off), initial=0.0)))
    if not math.isfinite(top):
        raise ValueError("Hamiltonian entries must be finite")
    exp = math.frexp(top)[1]
    d, o = np.ldexp(H.diag, -exp), np.ldexp(H.off, -exp)
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


def epsilon_factors(two_j: int, model: str, gamma: float = 0.0, log: bool = False) -> np.ndarray:
    """Normalization weights eps_k of the recurrence eigenvector expansion.

    eps_k is the product of the first k off-diagonal couplings at unit
    hopping: sqrt(k! prod_{i<k}(2j - i)) for the nonlinear dimer and the
    same with symmetric q-numbers for the deformed one; eps_0 = 1.  The
    products overflow doubles for large sectors, so log=True returns
    log(eps_k) instead; the linear form raises once any factor exceeds
    double range.
    """
    if two_j < 0 or int(two_j) != two_j:
        raise ValueError(f"two_j must be a nonnegative integer, got {two_j}")
    if model not in ("dnls", "al"):
        raise ValueError(f"model must be 'dnls' or 'al', got {model!r}")
    if model == "al":
        q = q_from_gamma(gamma).q
        logs = [_log_sym_qnum(i, q) for i in range(1, two_j + 1)]
        log_off = [0.5 * (logs[two_j - 1 - k] + logs[k]) for k in range(two_j)]
    else:
        log_off = [
            0.5 * (math.log(two_j - k) + math.log(k + 1)) for k in range(two_j)
        ]
    out = np.zeros(two_j + 1)
    out[1:] = np.cumsum(log_off)
    if log:
        return out
    if out.size and float(np.max(out)) > 700.0:
        raise OverflowError(
            "epsilon factors overflow double precision; pass log=True"
        )
    return np.exp(out)


def _log_sym_qnum(x: float, q: float) -> float:
    """log [x] for x > 0, stable for large x where [x] itself overflows."""
    if abs(q - 1.0) < Q_ONE_THRESHOLD:
        return math.log(x)
    s = abs(math.log(q))
    return x * s + math.log1p(-math.exp(-2.0 * x * s)) - math.log(math.exp(s) - math.exp(-s))


def _recurrence_log_table(d, off, lam):
    """Signs and natural logs of p_k(lam), k = 0..dim-1, plus the log and
    sign of the running off-diagonal products eps_k."""
    dim = d.shape[0]
    sgn_p = np.zeros(dim)
    log_p = np.full(dim, -np.inf)
    sgn_p[0], log_p[0] = 1.0, 0.0
    p_prev, p = 0.0, 1.0
    scale_bits = 0
    ln2 = math.log(2.0)
    for k in range(1, dim):
        o2 = off[k - 2] * off[k - 2] if k > 1 else 0.0
        p_new = (lam - d[k - 1]) * p - o2 * p_prev
        mag = abs(p_new)
        if mag > _SCALE_HI or (0.0 < mag < _SCALE_LO):
            _, e = math.frexp(p_new)
            p_new = math.ldexp(p_new, -e)
            p = math.ldexp(p, -e)
            scale_bits += e
        p_prev, p = p, p_new
        if p != 0.0:
            sgn_p[k] = math.copysign(1.0, p)
            log_p[k] = math.log(abs(p)) + scale_bits * ln2
    sgn_eps = np.ones(dim)
    log_eps = np.zeros(dim)
    for k in range(1, dim):
        o = off[k - 1]
        sgn_eps[k] = sgn_eps[k - 1] * (1.0 if o >= 0.0 else -1.0)
        log_eps[k] = log_eps[k - 1] + math.log(abs(o))
    return sgn_p, log_p, sgn_eps, log_eps


def _recurrence_vector(H, lam):
    """Normalized recurrence eigenvector and its normalization constant."""
    sgn_p, log_p, sgn_eps, log_eps = _recurrence_log_table(H.diag, H.off, lam)
    log_c = log_p - log_eps
    peak = float(np.max(log_c))
    c = sgn_p * sgn_eps * np.exp(log_c - peak)
    nrm = float(np.linalg.norm(c))
    c /= nrm
    # norm constant 1/sqrt(sum p^2/eps^2) in the log domain
    log_norm2 = peak + math.log(nrm)
    norm_constant = math.exp(-log_norm2) if log_norm2 < 700.0 else 0.0
    return _fix_sign(c), norm_constant


def _fix_sign(c):
    anchor = np.abs(c) > 1e-12 * np.max(np.abs(c))
    first = int(np.argmax(anchor))
    if c[first] < 0.0:
        return -c
    return c


def _residual(H, lam, c):
    d, off = H.diag, H.off
    hv = d * c
    if off.size:
        hv[:-1] += off * c[1:]
        hv[1:] += off * c[:-1]
    return float(np.max(np.abs(hv - lam * c)))


def eigenvector_from_recurrence(H: TridiagonalHamiltonian, lam: float):
    """Eigenvector components c_k = p_k(lam)/eps_k, unit norm, and the
    normalization constant of the expansion.

    lam must be a converged eigenvalue; if the assembled vector fails the
    residual test the input was not an eigenvalue and a ValueError is
    raised.
    """
    c, norm_constant = _recurrence_vector(H, lam)
    res = _residual(H, lam, c)
    if res > 1e-6 * max(1.0, _radius(H)):
        raise ValueError(
            f"lam={lam} is not an eigenvalue (residual {res:.3e})"
        )
    return c, norm_constant


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
        block = block * red.weights[seg, None]
        mag = np.abs(block)
        lead = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
        block *= np.where(block[lead, np.arange(size)] < 0.0, -1.0, 1.0)
        row = red.rows[first]
        vectors[row : row + size, column[seg]] = block
        if red.mirror[first]:
            vectors[n - row - size : n - row, column[seg]] = red.mirror[first] * block[::-1]
    return Spectrum(
        hamiltonian=H,
        eigenvalues=np.ldexp(lam[order], red.exp),
        vectors=vectors,
        norm_constants=np.abs(vectors[0, :]),
        epsilon_factors=_off_products(H),
        vector_method=list(methods[order]),
    )


def _off_products(H):
    out = np.ones(H.dim)
    if H.dim > 1:
        with np.errstate(over="ignore"):
            out[1:] = np.cumprod(H.off)
    return out


def dense_oracle(H: TridiagonalHamiltonian) -> Spectrum:
    """Independent eigensystem from the library tridiagonal QR/QL solver."""
    if H.dim == 1:
        w = H.diag.copy()
        v = np.ones((1, 1))
    else:
        w, v = scipy.linalg.eigh_tridiagonal(H.diag, H.off)
    order = np.argsort(w)
    w = w[order]
    v = v[:, order]
    for a in range(H.dim):
        v[:, a] = _fix_sign(v[:, a])
    return Spectrum(
        hamiltonian=H,
        eigenvalues=w,
        vectors=v,
        norm_constants=np.abs(v[0, :]),
        epsilon_factors=_off_products(H),
        vector_method=["dense"] * H.dim,
    )


# ---------------------------------------------------------------------------
# verification: orthonormality, completeness, parity
# ---------------------------------------------------------------------------


def df_orthonormality_check(spectrum: Spectrum, digits: int | None = None) -> float:
    """Max residual of the discrete orthogonality of the recurrence columns.

    The kernel identity for the minor polynomials states that the weighted
    columns (p_k(lam_a)/eps_k), normalized per root, form an orthonormal
    family over the roots.  Returns max |Gram - I|.

    With digits=None the check runs in double precision while the level
    spacing is resolvable and escalates to arbitrary-precision root
    refinement when it is not (clustered strong-coupling spectra); an
    explicit digits forces that precision.
    """
    H = spectrum.hamiltonian
    if digits is None:
        gaps = np.diff(spectrum.eigenvalues)
        resolvable = gaps.size == 0 or float(np.min(gaps)) > 1e-5 * max(1.0, _radius(H))
        if resolvable:
            return _df_gram_float(H, spectrum.eigenvalues)
        return _df_gram_mp(H)
    if digits <= 0:
        return _df_gram_float(H, spectrum.eigenvalues)
    return _df_gram_mp(H, digits)


def _df_gram_float(H, evs):
    dim = H.dim
    cols = np.empty((dim, dim))
    for a in range(dim):
        c, _ = _recurrence_vector(H, evs[a])
        cols[:, a] = c
    gram = cols.T @ cols
    return float(np.max(np.abs(gram - np.eye(dim))))


def _mp_count_below(d, off2, lam, dim):
    p_prev, p = mp.mpf(0), mp.mpf(1)
    s_prev, count = 1, 0
    for k in range(dim):
        p_new = (lam - d[k]) * p - (off2[k - 1] if k > 0 else 0) * p_prev
        s = 1 if p_new > 0 else (-1 if p_new < 0 else -s_prev)
        if s == s_prev:
            count += 1
        p_prev, p, s_prev = p, p_new, s
    return count


def _mp_eigenvalues(H, dps):
    """All roots by Sturm bisection in mpmath working precision dps."""
    dim = H.dim
    with mp.workdps(dps):
        d = [mp.mpf(x) for x in H.diag]
        off = [mp.mpf(x) for x in H.off]
        off2 = [o * o for o in off]
        glo, ghi = gershgorin_bounds(H)
        radius = max(abs(glo), abs(ghi), 1.0)
        pad = mp.mpf(radius) * mp.mpf("1e-3")
        target = mp.mpf(radius) * mp.mpf(10) ** (-(dps - 6))
        roots = []
        for i in range(dim):
            lo, hi = mp.mpf(glo) - pad, mp.mpf(ghi) + pad
            while hi - lo > target:
                mid = (lo + hi) / 2
                if _mp_count_below(d, off2, mid, dim) <= i:
                    lo = mid
                else:
                    hi = mid
            roots.append((lo + hi) / 2)
    return roots


def _df_gram_mp(H, digits: int | None = None):
    """Gram residual with roots refined beyond double precision.

    Precision deepens until adjacent roots are separated by the working
    tolerance, so the identity is checked for the exact spectrum of the
    stored double-precision matrix.
    """
    dim = H.dim
    dps = digits if digits else 40
    for _ in range(6):
        roots = _mp_eigenvalues(H, dps)
        with mp.workdps(dps):
            sep = min(
                (roots[i + 1] - roots[i] for i in range(dim - 1)),
                default=mp.mpf(1),
            )
            resolved = sep > max(1.0, _radius(H)) * mp.mpf(10) ** (-(dps - 14))
            if resolved or digits:
                d = [mp.mpf(x) for x in H.diag]
                off = [mp.mpf(x) for x in H.off]
                cols = []
                for lam in roots:
                    p_prev, p = mp.mpf(0), mp.mpf(1)
                    col = [p]
                    for k in range(1, dim):
                        o2 = off[k - 2] * off[k - 2] if k > 1 else 0
                        p_new = (lam - d[k - 1]) * p - o2 * p_prev
                        p_prev, p = p, p_new
                        col.append(p)
                    eps = mp.mpf(1)
                    weighted = [col[0]]
                    for k in range(1, dim):
                        eps = eps * off[k - 1]
                        weighted.append(col[k] / eps)
                    nrm = mp.sqrt(mp.fsum(w * w for w in weighted))
                    cols.append([w / nrm for w in weighted])
                worst = mp.mpf(0)
                for i in range(dim):
                    for jx in range(i, dim):
                        g = mp.fsum(cols[i][k] * cols[jx][k] for k in range(dim))
                        tgt = 1 if i == jx else 0
                        worst = max(worst, abs(g - tgt))
                return float(worst)
        dps *= 2
        if dps > 320:
            raise RuntimeError("level spacing unresolved at 320 digits")
    raise RuntimeError("precision escalation failed")


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
