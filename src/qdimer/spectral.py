"""Three-term-recurrence spectral solver for the dimer tridiagonal matrices.

The solver runs one kernel, the LDL^T pivot form of the recurrence,

    q_0 = d_0 - x,  q_k = (d_k - x) - o_{k-1}^2 / q_{k-1},

batched over many shifts x at once.  The number of negative pivots is the
number of eigenvalues below x (a Sturm count), and pivots stay bounded, so no
rescaling is needed once H is scaled by a power of two.  Both dimer matrices
are persymmetric (reflecting m to -m leaves them unchanged), so H splits
exactly into an even and an odd block, and the self-trapped level pairs that
collapse in double precision are even/odd partners; inside one block the
spectrum is well separated.  Blocks are also cut at zero couplings.

All blocks are solved together, one column per root, and the blocks of many
matrices share one stack (eigenvalues_batch): a whole gamma grid of the
command line is solved in consecutive stacks under a fixed budget of table
cells, each matrix with its own scaling, bracket and tol.  One first sweep
brackets every root by multisection: a block of m roots is counted at m
evenly spaced shifts, and the counts, shared across the block, narrow each
root's bracket (Lo, Philippe & Sameh, SIAM J. Sci. Stat. Comput. 8 (1987)
s155); a block whose counts do not rise with the shift keeps its whole
bracket.  Each root is then bisected on the pivot count only until its
bracket isolates it, and finished by Newton steps on det(T - x) (Dhillon &
Parlett, Linear Algebra Appl. 387 (2004) 1; Parlett, The Symmetric
Eigenvalue Problem, ch. 4).  One kernel call over the stack and its mirror,
the stack's tables side by side with their row-reversed copies, runs
forward and backward at x at once and gives the twisted pivots gamma_k, the
reciprocals of the diagonal of (T - x)^-1, so the step is
delta = 1 / sum_k 1 / gamma_k, summed row by row in order; the forward
run's count narrows the bracket, a step that leaves the bracket becomes a
bisection step, and a root is done once |delta| <= max(tol, 4 eps |x|), or
at a bracket end whose step points out through that end, whose step is
then only rounding (the settle rule).  A cluster that never isolates is
bisected to a bracket of that width.  The
same one-call twisted factorizations at the roots give the eigenvectors,
mirrored into exactly even or odd columns.

A zero diagonal, as in every AL dimer, folds H once more (the chiral fold).
With S the checkerboard signature diag(+1, -1, +1, ...), S T S = -T for a
tridiagonal T of zero diagonal, so T's roots come in pairs -+lam and S maps
the eigenvector of lam to one of -lam.  Each such block then bisects and
finishes only its top half of roots, and takes the others as their exact
negatives and the S-images of their vectors.  At even dimension the even
block carries the central coupling on its diagonal, but the odd block is
-S (even block) S, so only the even block is stacked and the odd block
takes all of its roots and vectors from it.  The solved roots and vectors
are bitwise those of the unfolded solve; the mirrored ones make an AL
spectrum of even dimension antisymmetric bitwise.

A caller that needs only a prefix or a suffix of each spectrum (the
command line's lowest physical levels are the top of H) passes that slice
as select.  It enters after the first sweep, which still counts every root
of every block, as the counts of a block bracket all of its roots together
and so need its full width; then only each block's roots that can fall in
the slice are bisected and finished.  No step of a column depends on
another column, so a selected root is bitwise the full solve's.

The orthonormality check runs per parity block of the same reduction, on the
block's roots.  It builds the recurrence columns c_k = p_k(x)/eps_k of the
minor polynomials p_{k+1}(x) = (x - d_k) p_k(x) - o_{k-1}^2 p_{k-1}(x) from
the same pivots, since p_{k+1}/p_k = -q_k, in double precision first.  A
block that fails there gets one mpmath pass, at 30 digits plus the decades
its columns span, an independent referee: mpmath's symmetric QL eigensolver
(eigsy) gives the block's roots at those digits, and one scalar loop over
the minor polynomials at each root gives its Gram column.
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
# Cells (stack height times columns) of one stacked solve: a list of
# matrices is solved in consecutive stacks of at most this many cells, and
# a matrix whose stack alone is larger is solved by itself.
_STACK_CELLS = 2**17
# Rows of squared couplings that the kernel takes at its columns at a time.
_ROWS = 16
# Largest tol that solve_spectrum accepts.  A cluster that never isolates
# is bisected only to width tol, and its twisted vectors are formed at
# those roots: on 300 clustered dimers (dim 13-113) the worst completeness
# read 0.63, 1.7e-5 and 7.3e-10 at tol 1e-3, 1e-6 and 1e-8, and 3.4e-11
# at 1e-10, as at the default 1e-12.
SOLVE_TOL_MAX = 1e-10


@dataclass
class Spectrum:
    """Converged eigensystem of a dimer Hamiltonian.

    Eigenvalues ascend; vectors[:, a] is the unit eigenvector for
    eigenvalues[a] with its first significant component positive.
    norm_constants[a] is |vectors[0, a]|, which equals
    1 / sqrt(sum_k p_k(lam_a)^2 / eps_k^2), the normalization of the
    recurrence eigenvector expansion.  vector_method[a] records how the
    column was obtained: "recurrence" (a twisted factorization at its
    root), "chiral" (the chiral fold's image of a solved column of a
    zero-diagonal H, every other entry of its parity block negated, for
    minus that column's eigenvalue), "ritz" (the Rayleigh-Ritz guard of
    close roots in one block) or "dense" (dense_oracle).
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
    o2[k, seg[j]] the squared coupling of rows k and k + 1) at lam[j]:
    q_0 = d_0 - lam and q_k = (d_k - lam) - o2_{k-1} / q_{k-1}.  The pivots
    <= 0 count the eigenvalues below lam, and pivots stay bounded, so nothing
    is rescaled.  seg must ascend, so the diagonal is gathered by repeating
    each segment's column; o2 is taken at the columns _ROWS rows at a time,
    so no table of it is held.  The tables may hold segments that seg does
    not name: _twisted passes the stack and its mirror side by side
    (_mirrored, 2 nseg columns) with seg followed by seg + nseg and its w
    shifts twice, so one call runs its 2w columns down and up.  A zero
    pivot first runs through IEEE infinities; the columns where any appear
    are swept again with pivots below _PIVMIN set to -_PIVMIN (LAPACK's
    dstebz rule).  Every column's pivots thus depend on its own segment and
    shift alone, in a batch as on its own.
    """
    if (seg[1:] < seg[:-1]).any():
        raise ValueError("segments of the kernel's columns must ascend")

    def sweep(seg, lam, clamp):
        q = np.repeat(d, np.bincount(seg, minlength=d.shape[1]), axis=1)
        q -= lam
        if clamp:
            q[0][np.abs(q[0]) < _PIVMIN] = -_PIVMIN
        t = np.empty_like(lam)
        block = np.empty((_ROWS, lam.size))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for k in range(0, q.shape[0] - 1, _ROWS):
                rows = block[: min(_ROWS, q.shape[0] - 1 - k)]
                np.take(o2[k : k + rows.shape[0]], seg, axis=1, out=rows, mode="clip")
                for o2k, prev, cur in zip(rows, q[k:], q[k + 1 :]):
                    np.divide(o2k, prev, out=t)
                    np.subtract(cur, t, out=cur)
                    if clamp:
                        cur[np.abs(cur) < _PIVMIN] = -_PIVMIN
        return q

    q = sweep(seg, lam, False)
    redo = np.flatnonzero(~np.isfinite(q).all(axis=0))
    if redo.size:
        q[:, redo] = sweep(seg[redo], lam[redo], True)
    return q


def _mirrored(d, o2):
    """The stack's diagonal and squared couplings side by side with their
    row-reversed copies: column s + nseg is segment s read upward, so the
    kernel run down it is the kernel run up segment s.  Row k of the
    reversed couplings couples reversed rows k and k + 1; its last row is
    never read."""
    return np.hstack((d, d[::-1])), np.hstack((o2, np.roll(o2[::-1], -1, axis=0)))


def _twisted(d, seg, o2, lam, reuse_down=False):
    """The kernel run down and up the stack at lam, in one call of _pivots.

    d and o2 are the stack's tables and their mirror, as _mirrored gives
    them: columns seg run down at lam, columns seg + nseg up at lam again.
    Returns the pivots up[k] = q+_k and down[k] = q-_k, views of that call's
    2w-wide table, and the twisted pivots gamma_k = q+_k - o2_k / q-_{k+1}
    = q+_k + q-_k - (d_k - lam) (Dhillon & Parlett), formed the second way,
    in down's place when reuse_down is set; gamma is inf on the padding
    rows.  The diagonal is subtracted _ROWS rows at a time, so no table of
    it is held.  1 / gamma_k is entry (k, k) of (T - lam)^-1.  At an exact
    eigenvalue the pivots of -_PIVMIN can push gamma_k past the float range;
    +-inf then stands for a diagonal entry of 0.
    """
    w, nseg = seg.size, d.shape[1] // 2
    q = _pivots(d, np.concatenate((seg, seg + nseg)), o2, np.concatenate((lam, lam)))
    up, down = q[:, :w], q[::-1, w:]
    with np.errstate(over="ignore"):
        gamma = np.add(up, down, out=down if reuse_down else None)
    gamma += lam
    counts = np.bincount(seg, minlength=nseg)
    for k in range(0, gamma.shape[0], _ROWS):
        dc = np.repeat(d[k : k + _ROWS, :nseg], counts, axis=1)
        rows = gamma[k : k + _ROWS]
        rows -= dc
        rows[dc == _PAD_DIAG] = np.inf
    return up, down, gamma


def _row_sum(table):
    """Sum of the table's rows, added in row order as a running sum, so a
    column's sum is the same at any width: np.add.reduce adds the rows of a
    table two or more columns wide one after another, but pairs up the rows
    of a single column, where np.cumsum runs instead (np.cumsum down the
    rows of a wide table takes 4-8 times as long)."""
    if table.shape[1] == 1:
        return np.cumsum(table, axis=0)[-1]
    return np.add.reduce(table, axis=0)


@dataclass(frozen=True)
class _Reduction:
    """H scaled by 2**-exp, folded into parity blocks and cut at zero couplings.

    Reduced row i lifts to full row rows[i] with weight weights[i] and, where
    mirror[i] is +-1, to full row dim - 1 - rows[i] with that sign.  off[i]
    couples rows i and i + 1 and is zero at every segment end; diag and off
    end with a padding row.  Segment s has sizes[s] rows from starts[s].
    bracket, where the search for every root of H starts, is its scaled
    Gershgorin interval widened by 1e-3 of its radius.  Where twin[i] >= 0,
    row i's root is minus the root of row twin[i], which lies in a segment
    of the same size, and its vector is that root's vector with every other
    entry negated (the chiral fold); the solver solves only the rows whose
    twin is -1, the padding row's included.  stacked marks the segments
    the stacked solve holds: those of two or more rows whose roots are not
    all mirrored from another segment's.
    """

    diag: np.ndarray
    off: np.ndarray
    exp: int
    bracket: tuple[float, float]
    rows: np.ndarray
    weights: np.ndarray
    mirror: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    twin: np.ndarray
    stacked: np.ndarray


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
    square underflows.  A zero diagonal adds the chiral fold (see the module
    docstring) as twin: each segment of two or more rows takes its bottom
    half of roots from its top half, except at the even dimension of a
    persymmetric H, where the odd block takes all of its roots from the even
    block.
    """
    n = H.dim
    d, o, exp = _scaled(H)
    chiral = not d.any()
    m = n // 2
    rows, weights, mirror = np.arange(n), np.ones(n), np.zeros(n)
    folded = n > 1 and np.array_equal(d, d[::-1]) and np.array_equal(o, o[::-1])
    if folded:
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
    twin = np.full(n + 1, -1)
    if chiral:
        i = np.arange(n)
        partner = np.repeat(2 * starts + sizes - 1, sizes) - i  # the row of -lam
        if folded and n % 2 == 0:
            twin[:n] = np.where((i >= m) & np.repeat(sizes > 1, sizes), partner - m, -1)
        else:
            twin[:n] = np.where(i < partner, partner, -1)
    glo, ghi = (math.ldexp(x, -exp) for x in gershgorin_bounds(H))
    pad = 1e-3 * max(-glo, ghi)
    bracket = (glo - pad, ghi + pad)
    stacked = (sizes > 1) & (twin[starts + sizes - 1] < 0)
    return _Reduction(np.append(d, _PAD_DIAG), o, exp, bracket, rows, weights, mirror,
                      starts, sizes, twin, stacked)


def _stack(reds):
    """The stacked segments of the reductions (_Reduction.stacked) side by
    side, bottom-aligned.

    The reductions' rows are laid end to end, each keeping its padding row,
    so row i of reds[r] is row i + sum of reds[:r]'s diag sizes.  Returns,
    for each root in such a segment (root i of segment s is number
    i - starts[s] in it): i in that layout, the segment's column in the
    tables, and that number; then the stacked diagonal and couplings, one
    column per segment, where off[k] couples stack rows k and k + 1 and the
    rows above a short segment are padding.
    """
    base = np.cumsum([0] + [red.diag.size for red in reds])
    stacked = np.concatenate([red.stacked for red in reds])
    starts = np.concatenate([red.starts + b for red, b in zip(reds, base)])[stacked]
    sizes = np.concatenate([red.sizes for red in reds])[stacked]
    height = int(sizes.max(initial=1))
    rows = np.arange(height)[:, None] + (starts + sizes - height)
    rows[rows < starts] = base[1] - 1
    seg = np.repeat(np.arange(sizes.size), sizes)
    idx = np.arange(seg.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    diag = np.concatenate([red.diag for red in reds])
    off = np.concatenate([red.off for red in reds])
    return starts[seg] + idx, seg, idx, diag[rows], off[rows]


def _cells(red: _Reduction) -> tuple[int, int]:
    """Height and width of red's stack."""
    sizes = red.sizes[red.stacked]
    return int(sizes.max(initial=1)), int(sizes.sum())


def _batches(reds):
    """reds cut into consecutive runs whose stacks hold at most _STACK_CELLS
    cells together; a reduction whose stack alone is larger runs by itself."""
    run, height, width = [], 0, 0
    for red in reds:
        h, w = _cells(red)
        if run and max(height, h) * (width + w) > _STACK_CELLS:
            yield run
            run, height, width = [], 0, 0
        run.append(red)
        height, width = max(height, h), width + w
    if run:
        yield run


def _multisect(seg, idx, lo, hi, x, count):
    """Brackets of the roots of the stack's segments from one Sturm count per
    root, shared across each segment (multisection).

    Column j is root idx[j] of segment seg[j], whose columns are adjacent
    with idx ascending from 0; lo and hi bracket the segment's m roots, and
    count[j] roots lie below x[j], with x ascending in the segment.  The
    segment's points [lo, x..., hi] carry the counts [0, count..., m], and
    root i takes the highest point whose count is <= i as its lower end and
    the next point, the lowest whose count is >= i + 1, as its upper end.
    Returns lo, hi and the counts n_lo, n_hi at both.  Floating-point counts
    need not rise with the shift (Demmel, Dhillon & Ren, ETNA 3 (1995) 116),
    so a segment whose counts fall somewhere keeps its brackets, with counts
    0 and m.
    """
    m = np.bincount(seg)[seg]
    start = np.arange(seg.size) - idx
    rises = np.ones(seg.size, dtype=bool)
    rises[1:] = (np.diff(count) >= 0) | (idx[1:] == 0)
    keep = np.bincount(seg, ~rises)[seg] > 0
    # the counts offset by start + seg ascend over the whole stack, as
    # segment s then spans [start + s, start + s + m] and the next one
    # starts above it; the running max only touches segments kept anyway
    offset = start + seg
    up = np.searchsorted(np.maximum.accumulate(count + offset), offset + idx, side="right")
    below = (up > start) & ~keep
    above = (up < start + m) & ~keep
    k = np.minimum(up, seg.size - 1)
    return (np.where(below, x[up - 1], lo), np.where(above, x[k], hi),
            np.where(below, count[up - 1], 0), np.where(above, count[k], m))


def _narrow(lo, hi, tol):
    """Whether each bracket is at most max(tol, 4 eps |end|) wide."""
    return hi - lo <= np.maximum(tol, 4.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)))


def _candidates(red: _Reduction, select) -> np.ndarray:
    """Which of red's rows hold a root that can fall in the prefix or suffix
    select of H's ascending spectrum (all rows where select is None, never
    the padding row): a prefix of b roots lies among each segment's lowest b
    roots, a suffix of c among each segment's top c.  A mirrored candidate
    needs its twin solved: the twins of a chiral segment's top or bottom c
    are its top c, and the odd block of an even dimension takes its top c
    from the even block's bottom c."""
    n = red.diag.size - 1
    if select is None:
        return np.ones(n, dtype=bool)
    a, b = select.indices(n)[:2]
    idx = np.arange(n) - np.repeat(red.starts, red.sizes)
    if select.start is None:
        return idx < b
    return idx >= np.repeat(red.sizes, red.sizes) - (n - a)


def _cut(lam, n: int, select) -> np.ndarray:
    """The part select names of an ascending spectrum of n roots, taken from
    lam, its candidate roots sorted."""
    a, b = select.indices(n)[:2]
    return lam[:b] if select.start is None else lam[lam.size - (n - a) :]


def _roots(reds, tol: float, select=None) -> list[np.ndarray]:
    """Roots of every segment of each reduction, in its scaled units and
    ascending within a segment; with select, only the roots _candidates
    names, in the same order.

    One stacked solve serves many matrices, a whole gamma grid of the
    command line: the segments of all reductions in a run of _batches, which
    holds at most _STACK_CELLS table cells, are solved together, one column
    per root, each from the bracket of its own reduction with its own tol
    and exp.  Every step runs the kernel at one shift per column and narrows
    the column's bracket by the count of negative pivots there.

    The first sweep counts the column of root i of a segment of m roots at
    lo + (i + 1)(hi - lo)/(m + 1), and _multisect brackets all of the
    segment's roots from these counts, which are shared within one segment
    of one reduction only, so a matrix's roots are the same in any stack.
    The columns not isolated there (idx roots below lo, idx + 1 below hi)
    are bisected, one sweep per step, until they are.  Then
    each isolated column takes safeguarded Newton steps on det(T - x) from
    its midpoint: one _twisted call runs the kernel down and up at x and
    gives the twisted pivots gamma_k, and delta = 1 / sum_k 1 / gamma_k,
    since 1 / gamma_k is the diagonal of (T - x)^-1; the sum runs over the
    rows in order (_row_sum), so a column's step is the same in any stack.
    The up pivots give the count at x.  A step that leaves the bracket is
    replaced by a bisection step, unless it comes from inside the bracket
    and overshoots by less than 1e-3 |delta|, as onto an exact root at a
    bracket end; then it is clipped onto that end.  A step
    from an end that reaches the other end is replaced too, so no iterate
    can swing between the two ends.  A column is done with x + delta once
    |delta| <= max(tol * min(1, 2**-exp), 4 eps |x|), which is tol in the
    units of H unless H is small, or at the midpoint once its bracket is
    that narrow, which ends a cluster that never isolates.  It is also done
    at x when x was already a bracket end, clipped there by the step before,
    and its step now points out through that same end (the settle rule):
    the count puts the root on the bracket side of x and the step on the
    other, so x is the root to working accuracy and the step, some 8-21
    eps |x| there, is its rounding floor, which the 4 eps |x| stop misses.

    The chiral fold and a selection enter after the first sweep: that
    sweep still counts every root of a stacked segment, since its counts
    bracket all of the segment's roots together, and then only the columns
    whose twin is -1 and whose root is a candidate or a candidate's twin are
    bisected and finished.  As no step depends on another column, each of
    those roots is bitwise the one the full solve returns.  Each mirrored
    root is then minus its twin's.
    """
    roots = []
    for run in _batches(reds):
        base = np.cumsum([0] + [red.diag.size for red in run])
        need = np.zeros(base[-1], dtype=bool)  # never a padding row
        for red, b in zip(run, base):
            need[b : b + red.diag.size - 1] = _candidates(red, select)
        twin = np.concatenate([red.twin for red in run])
        mirrored = twin >= 0
        twin[mirrored] += np.repeat(base[:-1], np.diff(base))[mirrored]
        want = need & ~mirrored
        want[twin[need & mirrored]] = True
        lam = np.concatenate([red.diag for red in run])  # one-row segments
        cols, seg, idx, d, off = _stack(run)
        d, o2 = _mirrored(d, off * off)
        width = [_cells(red)[1] for red in run]
        lo, hi = (np.repeat(b, width) for b in zip(*(red.bracket for red in run)))
        tols = np.repeat([math.ldexp(tol, -max(red.exp, 0)) for red in run], width)
        x = lo + (hi - lo) * ((idx + 1) / (np.bincount(seg)[seg] + 1))
        count = np.count_nonzero(_pivots(d, seg, o2, x) <= 0.0, axis=0)
        lo, hi, n_lo, n_hi = _multisect(seg, idx, lo, hi, x, count)
        x = 0.5 * (lo + hi)
        done = _narrow(lo, hi, tols) | ~want[cols]
        isolated = ~done & (n_lo == idx) & (n_hi == idx + 1)
        act = np.flatnonzero(~(done | isolated))
        newton = False
        for _ in range(4096):
            if not act.size:
                if newton or not isolated.any():
                    break
                act, newton = np.flatnonzero(isolated), True
            xa, i, tol_a = x[act], idx[act], tols[act]
            if newton:
                up, _, gamma = _twisted(d, seg[act], o2, xa, reuse_down=True)
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    delta = 1.0 / _row_sum(np.reciprocal(gamma, out=gamma))
                del gamma
            else:
                up = _pivots(d, seg[act], o2, xa)
            count = np.count_nonzero(up <= 0.0, axis=0)
            del up
            below = count <= i
            on_end = (xa == lo[act]) | (xa == hi[act])
            la = lo[act] = np.where(below, xa, lo[act])
            ha = hi[act] = np.where(below, hi[act], xa)
            mid = 0.5 * (la + ha)
            done = _narrow(la, ha, tol_a)
            if newton:
                step = xa + delta
                small = np.abs(delta) <= np.maximum(tol_a, 4.0 * _EPS * np.abs(xa))
                with np.errstate(invalid="ignore"):
                    over = np.maximum(la - step, step - ha)
                    fits = small | (over < np.where(on_end, 0.0, 1e-3 * np.abs(delta)))
                    # an end whose step points out through that same end
                    settle = on_end & np.where(below, step < la, step > ha)
                x[act] = np.where(settle, xa, np.where(fits, np.clip(step, la, ha), mid))
                done |= small | settle
            else:
                x[act] = mid
                n_lo[act] = np.where(below, count, n_lo[act])
                n_hi[act] = np.where(below, n_hi[act], count)
                isolated[act] = ~done & (n_lo[act] == i) & (n_hi[act] == i + 1)
                done |= isolated[act]
            act = act[~done]
        lam[cols] = x
        lam[mirrored] = -lam[twin[mirrored]]
        roots += np.split(lam[need], np.cumsum(need)[base[1:-1] - 1])
    return roots


def eigenvalues_batch(Hs, tol: float = 1e-12, select=None) -> list[np.ndarray]:
    """The eigenvalues_bisection eigenvalues of every H in Hs, in one stacked
    solve per run of matrices under a fixed cell budget.

    Each H keeps its own scaling, bracket and tol, and every column of the
    stack is computed on its own, so its array is bitwise what
    eigenvalues_bisection(H, tol) returns.  select, a prefix slice(stop) or
    a suffix slice(start, None) without a step, keeps that part of each
    ascending spectrum, bitwise eigenvalues_batch(Hs, tol)[i][select].
    _roots then still brackets every root in its first sweep, whose shared
    counts need the segment's full width, but bisects and finishes only
    each segment's roots that can fall in the selection; the result keeps
    the selected part of those, sorted.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if select is not None and not (isinstance(select, slice) and select.step is None
                                   and None in (select.start, select.stop)):
        raise ValueError(f"select must be slice(stop) or slice(start, None), got {select!r}")
    reds = [_reduce(H) for H in Hs]
    out = [np.sort(np.ldexp(lam, red.exp)) for lam, red in zip(_roots(reds, tol, select), reds)]
    if select is not None:
        out = [_cut(lam, H.dim, select) for lam, H in zip(out, Hs)]
    return out


def eigenvalues_bisection(H: TridiagonalHamiltonian, tol: float = 1e-12) -> np.ndarray:
    """All eigenvalues by bisection to isolation and Newton steps, ascending.

    H is scaled by a power of two, split into its even and odd blocks when
    it is persymmetric and cut at zero couplings; all blocks are solved
    together, and where H has a zero diagonal only half of their roots, the
    rest being their exact negatives (the chiral fold).  One multisection
    sweep, m Sturm counts at evenly spaced shifts for a block of m
    eigenvalues, brackets them all; each eigenvalue
    is then bisected on the pivot Sturm count until its bracket holds no
    other, and refined by Newton steps on
    det(H - lambda) from the twisted pivots, kept inside the bracket, until
    a step is at most max(tol, 4 eps |lambda|), with tol relative to the
    largest entry of H when that entry is below 1.  A cluster that never
    isolates is bisected to a bracket of that width.
    """
    return eigenvalues_batch([H], tol)[0]


def _twisted_vectors(red: _Reduction, lam):
    """The stack's solved columns (twin -1) and their unit eigenvectors,
    bottom-aligned as in _stack and zero on the padding rows.

    One kernel call over the stack and its mirror (_twisted) gives the
    twisted factorizations of T - lam (Dhillon & Parlett),
    gamma_k = q+_k - o_k^2 / q-_{k+1}.  At r = argmin |gamma_k| the vector
    with z_r = 1 that it yields is the eigenvector: z_k = -o_k z_{k+1} / q+_k
    above r, -o_{k-1} z_{k-1} / q-_k below.  The norm adds the squares in
    row order (_row_sum), so a column's vector is the same at any width.
    """
    cols, seg, _, d, off = _stack([red])
    solved = red.twin[cols] < 0
    cols, seg = cols[solved], seg[solved]
    d, o2 = _mirrored(d, off * off)
    up, down, gamma = _twisted(d, seg, o2, lam[cols])
    r = np.argmin(np.abs(gamma, out=gamma), axis=0)
    del gamma
    k = np.arange(d.shape[0])[:, None]
    o = np.repeat(-off[:-1], np.bincount(seg, minlength=off.shape[1]), axis=1)
    np.divide(o, up[:-1], out=up[:-1])
    up[k >= r] = 1.0
    np.divide(o, down[1:], out=down[1:])
    down[k <= r] = 1.0
    del o
    # a table of its own, so z keeps no view of the 2w-wide one alive
    z = np.cumprod(up[::-1], axis=0)[::-1]
    z *= np.cumprod(down, axis=0, out=down)
    del up, down
    z /= np.sqrt(_row_sum(z * z))
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

    Each parity block's vectors come from one kernel call down and up the
    block at all of its roots, and are mirrored into exactly even or odd
    columns, so level pairs that collapse in double precision are orthogonal
    by construction.  Inside one block of a hand-built H that is not
    persymmetric, roots closer than 1e-6 * radius give coinciding twisted
    vectors; those columns come from a Rayleigh-Ritz step on the complement
    of the block's other vectors and are marked "ritz" in vector_method.
    Where H has a zero diagonal, the columns the chiral fold mirrors (see
    _reduce) are a solved column with every other entry of its block
    negated, and are marked "chiral"; all others are "recurrence".  tol must
    lie in (0, SOLVE_TOL_MAX = 1e-10].
    """
    if not 0.0 < tol <= SOLVE_TOL_MAX:
        raise ValueError(f"tol must be in (0, {SOLVE_TOL_MAX:g}] for eigenvectors, got {tol}")
    red = _reduce(H)
    n = H.dim
    lam = _roots([red], tol)[0]
    cols, z = _twisted_vectors(red, lam)
    at = np.zeros(n, dtype=int)
    at[cols] = np.arange(cols.size)  # z's column of each solved row
    order = np.argsort(lam, kind="stable")
    column = np.argsort(order)
    gap = math.ldexp(1e-6 * _radius(H), -red.exp)
    methods = np.full(n, "recurrence", dtype=object)
    vectors = np.zeros((n, n))
    for first, size in zip(red.starts, red.sizes):
        seg = slice(first, first + size)
        block = np.ones((1, 1))
        if size > 1:
            twin = red.twin[seg]
            mirrored = twin >= 0
            block = z[-size:, at[np.where(mirrored, twin, np.arange(first, first + size))]]
            block[1::2, mirrored] *= -1.0
            methods[seg][mirrored] = "chiral"
            run = np.diff(lam[seg]) <= gap
            if run.any():
                run = np.append(run, False) | np.insert(run, 0, False)
                block[:, run] = _ritz(red, first, size, block[:, ~run])
                methods[seg][run] = "ritz"
        block *= red.weights[seg, None]  # a copy of z's columns, so in place
        block = _lead_positive(block)
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
    the decades its recurrence columns span.  That pass takes the roots of
    the block exactly as _reduce stores it, whose folded corner entry is one
    rounding away from H, from mpmath's symmetric eigensolver (eigsy) at the
    same digits, independent of the float roots, and builds the columns from
    the minor polynomials there.
    """
    H = spectrum.hamiltonian
    red = _reduce(H)
    lam = _roots([red], 1e-12)[0]
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
    """All roots of the tridiagonal (d, off), ascending, from mpmath's
    symmetric QL eigensolver (eigsy) in working precision dps.  A QL sweep
    that does not converge raises RuntimeError."""
    with mp.workdps(dps):
        A = mp.diag([mp.mpf(x) for x in d])
        for k, o in enumerate(off):
            A[k, k + 1] = A[k + 1, k] = mp.mpf(o)
        return sorted(mp.eigsy(A, eigvals_only=True))


def _df_gram_mp(d, off, digits: int):
    """Gram residual of the recurrence columns of the scaled tridiagonal
    (d, off) in mpmath at the given digits, on its roots from
    _mp_eigenvalues at the same precision: one minor loop per root gives
    its column."""
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
