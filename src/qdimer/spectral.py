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
command line is reduced and solved as one stack, each matrix with its own
scaling, bracket and tol, and each kernel call is held to 2^17 cells of
the stack by running it on consecutive runs of its columns.  One first sweep
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

A caller that needs only the top roots of each spectrum (the command
line's lowest physical levels are the top of H) passes their number as
top, and pays for those roots only.  A block's wanted roots form a run at
its top, and at the bottom of the even block whose odd partner mirrors it;
the first sweep counts only a window of 2c multisection points next to a
run of c roots, at the full sweep's shifts, and a block whose window falls
short (a wanted root's bracket end lies among the points not counted) has
its other points counted in one more sweep.  Only the wanted roots are
then bisected and finished.  Where the counts rise with the shift, as they
did on every dimer tried, each is bitwise the full solve's root; a block
whose counts fall only outside its windows keeps its whole bracket in the
full solve but not here, and its top roots may then differ in the last
bits.

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

import numpy as np

from .dimer import TridiagonalHamiltonian

_EPS = float(np.finfo(float).eps)
# Smallest pivot magnitude of the recurrence kernel; with entries scaled
# below 1, o^2 / _PIVMIN stays finite.
_PIVMIN = float(np.finfo(float).tiny)
# Diagonal of the padding rows that fill short blocks up to the stack
# height: above every shift of the scaled problem, so their pivots stay
# positive and are never counted.
_PAD_DIAG = 8.0
# Cells (stack height times columns) of one kernel call: a call over more
# columns runs on consecutive runs of them (_in_parts); a twisted call's
# table, which holds the stack and its mirror, has twice as many.
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


def _pivots(d, seg, o2, lam, clamp=False):
    """LDL^T pivots of T - lam, one column per shift: the solver's one kernel.

    Column j runs down segment seg[j] of the stack (diagonal d[:, seg[j]],
    o2[k, seg[j]] the squared coupling of rows k and k + 1) at lam[j]:
    q_0 = d_0 - lam and q_k = (d_k - lam) - o2_{k-1} / q_{k-1}.  The pivots
    <= 0 count the eigenvalues below lam, and pivots stay bounded, so nothing
    is rescaled.  seg must ascend, so the diagonal is gathered by repeating
    each segment's column; o2 is taken at the columns _ROWS rows at a time
    into one scratch block, so no table of it is held.  The row loop runs
    over views of the table's and the block's rows made once per sweep,
    with two in-place operations per row: t = o2_{k-1}, t /= q_{k-1},
    q_k -= t.  The tables may hold segments that seg does not name: _twisted
    passes the stack and its mirror side by side (_mirrored, 2 nseg columns)
    with seg followed by seg + nseg and its w shifts twice, so one call runs
    its 2w columns down and up.  A zero pivot first runs through IEEE
    infinities; when the table is not all finite, the columns where they
    appear are swept again with pivots below _PIVMIN set to -_PIVMIN
    (LAPACK's dstebz rule); clamp applies that rule from the first sweep.
    Every column's pivots thus depend on its own segment and shift alone, in
    a batch as on its own.
    """
    if (seg[1:] < seg[:-1]).any():
        raise ValueError("segments of the kernel's columns must ascend")

    def sweep(seg, lam, clamp):
        q = d.repeat(np.bincount(seg, minlength=d.shape[1]), axis=1)
        q -= lam
        if clamp:
            np.copyto(q[0], -_PIVMIN, where=np.abs(q[0]) < _PIVMIN)
        rows = list(q)
        block = np.empty((_ROWS, lam.size))
        ratios = list(block)  # o2_{k-1}, then o2_{k-1} / q_{k-1}, in place
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for k in range(0, len(rows) - 1, _ROWS):
                n = min(_ROWS, len(rows) - 1 - k)
                o2[k : k + n].take(seg, axis=1, out=block[:n], mode="clip")
                for t, prev, cur in zip(ratios[:n], rows[k : k + n], rows[k + 1 : k + 1 + n]):
                    t /= prev
                    cur -= t
                    if clamp:
                        np.copyto(cur, -_PIVMIN, where=np.abs(cur) < _PIVMIN)
        return q

    q = sweep(seg, lam, clamp)
    if not np.isfinite(q).all():
        redo = np.flatnonzero(~np.isfinite(q).all(axis=0))
        q[:, redo] = sweep(seg[redo], lam[redo], True)
    return q


def _mirrored(d, o2):
    """The stack's diagonal and squared couplings side by side with their
    row-reversed copies: column s + nseg is segment s read upward, so the
    kernel run down it is the kernel run up segment s.  Row k of the
    reversed couplings couples reversed rows k and k + 1; its last row is
    never read."""
    return np.hstack((d, d[::-1])), np.hstack((o2, np.roll(o2[::-1], -1, axis=0)))


def _twisted(d, seg, o2, lam, reuse_down=False, clamp=False):
    """The kernel run down and up the stack at lam, in one call of _pivots.

    d and o2 are the stack's tables and their mirror, as _mirrored gives
    them: columns seg run down at lam, columns seg + nseg up at lam again.
    Returns the pivots up[k] = q+_k and down[k] = q-_k, views of that call's
    2w-wide table, and the twisted pivots gamma_k = q+_k - o2_k / q-_{k+1}
    = q+_k + q-_k - (d_k - lam) (Dhillon & Parlett), formed the second way,
    in down's place when reuse_down is set; gamma is inf on the padding
    rows.  The diagonal is taken at the columns _ROWS rows at a time into
    one scratch block, so no table of it is held.  The stack is
    bottom-aligned (_stack), so a column's padding rows come first, and inf
    is written only in the blocks down to the first one whose last row is
    padding in no column.  1 / gamma_k is entry (k, k) of (T - lam)^-1.  At
    an exact eigenvalue the pivots of -_PIVMIN can push gamma_k past the
    float range; +-inf then stands for a diagonal entry of 0.
    """
    w, nseg = seg.size, d.shape[1] // 2
    q = _pivots(d, np.concatenate((seg, seg + nseg)), o2, np.concatenate((lam, lam)), clamp)
    up, down = q[:, :w], q[::-1, w:]
    with np.errstate(over="ignore"):
        gamma = np.add(up, down, out=down if reuse_down else None)
    gamma += lam
    block = np.empty((_ROWS, w))
    padded = True
    for k in range(0, gamma.shape[0], _ROWS):
        rows = gamma[k : k + _ROWS]
        dc = block[: rows.shape[0]]
        d[k : k + _ROWS].take(seg, axis=1, out=dc, mode="clip")
        rows -= dc
        if padded:
            pad = dc == _PAD_DIAG
            np.copyto(rows, np.inf, where=pad)
            padded = pad[-1].any()
    return up, down, gamma


def _negatives(q):
    """The pivots <= 0 in each column of q, the Sturm counts: one uint8 sum
    over each run of up to 255 rows, which no count can overflow."""
    neg = (q <= 0.0).view(np.uint8)
    count = np.add.reduce(neg[:255], axis=0, dtype=np.uint8).astype(np.intp)
    for k in range(255, neg.shape[0], 255):
        count += np.add.reduce(neg[k : k + 255], axis=0, dtype=np.uint8)
    return count


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
    """Every H of a list scaled by 2**-exp, folded into parity blocks and cut
    at zero couplings, the matrices' reduced rows laid end to end in list
    order.

    off[i] couples rows i and i + 1 and is zero at every segment end; diag
    and off end with one padding row.  Segment s has sizes[s] rows from
    starts[s] and belongs to matrix matrix[s]; its rows lift to rows lift[s]
    .. lift[s] + sizes[s] - 1 of that matrix and, where mirror[s] is +-1,
    also to their mirror images dim - 1 - row with that sign, each then
    weighted by sqrt(1/2) unless it is its own mirror image.  Per matrix
    (an array over the list), exp scales it, radius is the larger
    magnitude of the two ends of the scaled H's Gershgorin interval, and
    [lo, hi], where the search for every root of H starts, is that interval
    widened by 1e-3 radius.  Where twin[i] >= 0, row i's root is minus the
    root of row twin[i], which lies in a segment of the same size, and its
    vector is that root's vector with every other entry negated (the chiral
    fold); the solver solves only the rows whose twin is -1.  stacked marks
    the segments the stacked solve holds: those of two or more rows whose
    roots are not all mirrored from another segment's.
    """

    diag: np.ndarray
    off: np.ndarray
    exp: np.ndarray
    radius: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    matrix: np.ndarray
    lift: np.ndarray
    mirror: np.ndarray
    twin: np.ndarray
    stacked: np.ndarray


def _reduce(Hs) -> _Reduction:
    """Exact reduction of every H in Hs, in whole-array steps over all of
    their rows: each H scaled by the power of two that puts its largest
    entry into [0.5, 1), folded into its even and odd blocks when it equals
    its mirror image, and cut at couplings that are zero or whose square
    underflows.  A zero diagonal adds the chiral fold (see the module
    docstring) as twin: each segment of two or more rows takes its bottom
    half of roots from its top half, except at the even dimension of a
    persymmetric H, where the odd block takes all of its roots from the even
    block.
    """
    dims = np.array([H.dim for H in Hs])
    base = np.append(0, np.cumsum(dims))
    owner = np.repeat(np.arange(dims.size), dims)  # each row's matrix
    i = np.arange(base[-1])
    k, n = i - base[owner], dims[owner]  # the row in its matrix, and its dim
    d = np.concatenate([H.diag for H in Hs])
    o = np.zeros(i.size)  # o[i] couples rows i and i + 1, 0 at each matrix end
    o[k < n - 1] = np.concatenate([H.off for H in Hs])
    top = np.maximum.reduceat(np.maximum(np.abs(d), np.abs(o)), base[:-1])
    if not np.isfinite(top).all():
        raise ValueError("Hamiltonian entries must be finite")
    exp = np.frexp(top)[1]
    d, o = np.ldexp(d, -exp[owner]), np.ldexp(o, -exp[owner])
    r = np.abs(o)
    r[1:] += r[:-1].copy()
    glo, ghi = np.minimum.reduceat(d - r, base[:-1]), np.maximum.reduceat(d + r, base[:-1])
    radius = np.where(ghi > -glo, ghi, -glo)
    chiral = ~np.logical_or.reduceat(d != 0.0, base[:-1])[owner]
    rev = 2 * base[owner] + n - 1 - i  # the mirror image of row i
    same = (d == d[rev]) & ((k == n - 1) | (o == o[np.maximum(rev - 1, 0)]))
    folded = ((dims > 1) & np.logical_and.reduceat(same, base[:-1]))[owner]
    # even block (u_k = u_{n-1-k}) on the half-ladder with the central
    # coupling folded in, then the odd block (u_k = -u_{n-1-k})
    m = n // 2
    odd = folded & (k >= n - m)
    rows = np.where(odd, k - (n - m), k)
    mirror = np.where(folded, np.where(odd, -1.0, 1.0), 0.0)
    src = base[owner] + rows
    d, oc = d[src], o[src]
    centre = folded & (rows == m - 1)
    even_n = centre & (n % 2 == 0)
    d[even_n] += mirror[even_n] * oc[even_n]
    o = np.where(folded & (rows >= m - 1), 0.0, oc)
    odd_n = centre & ~odd & (n % 2 == 1)
    o[odd_n] = math.sqrt(2.0) * oc[odd_n]
    o[o * o == 0.0] = 0.0
    starts = np.append(0, np.flatnonzero(o[:-1] == 0.0) + 1)
    sizes = np.diff(np.append(starts, i.size))
    partner = np.repeat(2 * starts + sizes - 1, sizes) - i  # the row of -lam
    twin = np.where(folded & (n % 2 == 0),
                    np.where(odd & np.repeat(sizes > 1, sizes), partner - m, -1),
                    np.where(i < partner, partner, -1))
    twin[~chiral] = -1
    stacked = (sizes > 1) & (twin[starts + sizes - 1] < 0)
    return _Reduction(np.append(d, _PAD_DIAG), np.append(o, 0.0), exp, radius,
                      glo - 1e-3 * radius, ghi + 1e-3 * radius, starts, sizes,
                      owner[starts], rows[starts], mirror[starts], twin, stacked)


def _stack(red: _Reduction):
    """The stacked segments of red (_Reduction.stacked) side by side,
    bottom-aligned.

    Returns, for each root in such a segment (root i of segment s is number
    i - starts[s] in it): its row i, the segment's column in the tables,
    and that number; then the stacked diagonal and couplings, one column
    per segment, where off[k] couples stack rows k and k + 1 and the rows
    above a short segment are padding.
    """
    starts, sizes = red.starts[red.stacked], red.sizes[red.stacked]
    height = int(sizes.max(initial=1))
    rows = np.arange(height)[:, None] + (starts + sizes - height)
    rows[rows < starts] = red.diag.size - 1
    seg = np.repeat(np.arange(sizes.size), sizes)
    idx = np.arange(seg.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return starts[seg] + idx, seg, idx, red.diag[rows], red.off[rows]


def _in_parts(step, height, cols):
    """step(cols) on consecutive runs of the columns cols, as few as hold
    each run's stack, height cells per column, to _STACK_CELLS cells, and
    the runs' results joined."""
    runs = -(-cols.size * height // _STACK_CELLS)
    if runs <= 1:
        return step(cols)
    return np.concatenate([step(run) for run in np.array_split(cols, runs)])


def _multisect(seg, idx, lo, hi, x, count, at=None, m=None):
    """Brackets of roots of the stack's segments from Sturm counts at points
    shared across each segment (multisection).

    Root j is root idx[j] of segment seg[j], seg ascending; lo[j] and hi[j]
    bracket all m[j] roots of that segment.  Point p lies in segment at[p],
    at ascending, and count[p] roots lie below x[p], with x ascending in the
    segment.  By default every root of each segment is named and has its
    point: at is seg and m counts the roots seg names, as in the full first
    sweep.  The segment's points [lo, x..., hi] carry the counts
    [0, count..., m], and root i takes the highest point whose count is
    <= i as its lower end and the next point, the lowest whose count is
    >= i + 1, as its upper end.  Returns lo, hi and the counts n_lo, n_hi at
    both.  Floating-point counts need not rise with the shift (Demmel,
    Dhillon & Ren, ETNA 3 (1995) 116), so a segment whose points' counts
    fall somewhere keeps its brackets, with counts 0 and m.
    """
    if at is None:
        at, m = seg, np.bincount(seg)[seg]
    rises = np.ones(at.size, dtype=bool)
    rises[1:] = (np.diff(count) >= 0) | (at[1:] != at[:-1])
    keep = np.isin(seg, at[~rises])
    # the counts offset by span * segment ascend over all points, as no
    # count passes span; the running max only touches segments kept anyway
    span = max(int(m.max(initial=0)), int(count.max(initial=0))) + 1
    up = np.searchsorted(np.maximum.accumulate(count + span * at), span * seg + idx,
                         side="right")
    below = (up > np.searchsorted(at, seg)) & ~keep
    above = (up < np.searchsorted(at, seg, side="right")) & ~keep
    k = np.minimum(up, at.size - 1)
    return (np.where(below, x[up - 1], lo), np.where(above, x[k], hi),
            np.where(below, count[up - 1], 0), np.where(above, count[k], m))


def _narrow(lo, hi, tol):
    """Whether each bracket is at most max(tol, 4 eps |end|) wide."""
    return hi - lo <= np.maximum(tol, 4.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)))


def _candidates(red: _Reduction, top) -> np.ndarray:
    """Which of red's rows hold a root that can be among the top roots of
    its H (all rows where top is None): the top c roots of H lie among each
    segment's top c.  A mirrored candidate needs its
    twin solved: the twins of a chiral segment's top c are among its top c,
    and the odd block of an even dimension takes its top c from the even
    block's bottom c."""
    n = red.diag.size - 1
    idx = np.arange(n) - np.repeat(red.starts, red.sizes)
    return idx >= np.repeat(red.sizes, red.sizes) - (n if top is None else top)


def _roots(red: _Reduction, tol: float, top=None) -> np.ndarray:
    """Roots of every segment of red, in its matrices' scaled units and
    ascending within a segment, in row order; with top, only the roots of
    the rows _candidates names, in the same order.

    One stacked solve serves all matrices of red, a whole gamma grid of the
    command line: the segments of every matrix are solved together, one
    column per root, each from the bracket of its own matrix with its own
    tol and exp.  Every step runs the kernel at one shift per column and
    narrows the column's bracket by the count of negative pivots there; a
    kernel call whose table would pass _STACK_CELLS cells runs on
    consecutive runs of its columns (_in_parts), which changes no column.

    The wanted roots are the candidates and the twins that the mirrored
    candidates need (the chiral fold), so a stacked segment of m roots has
    at most one run of them at each end: c at the top, and at the even
    dimension of a persymmetric H also c at the bottom of the even block,
    whose odd block takes its top roots from there.  The multisection point
    j of the segment lies at lo + (j + 1)(hi - lo)/(m + 1), and the first
    sweep counts the 2c highest points for a top run and the 2c lowest for
    a bottom run; without top, every root is wanted (or mirrored, in the
    bottom half of a chiral segment) and every point is counted.  A window
    falls short when its innermost count is above m - c (top run) or below
    c (bottom run) while the point beyond it is not counted: a wanted root's
    bracket end then lies among the points not counted, and the segment's
    remaining points are counted in one more sweep.  _multisect brackets
    the wanted roots from the counted points, whose counts are shared
    within one segment only, so a matrix's roots are the same in any stack;
    with rising counts each bracket is the full sweep's.
    The wanted roots not isolated there (idx roots below lo, idx + 1 below
    hi) are bisected, one sweep per step, until they are.  Then
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

    As no step depends on another column, each wanted root is bitwise the
    one the full solve returns whenever its bracket is.  That holds where
    the counts rise with the shift.  Counts that fall keep a segment's
    whole bracket (_multisect), and that rule sees only the counted points,
    so a top root can differ in bits from the full solve's only when a
    segment's counts fall outside its windows; falling counts were never
    seen on 400 stressed dimers.  Each mirrored root is then minus its
    twin's.
    """
    need = _candidates(red, top)
    mirrored = red.twin >= 0
    want = need & ~mirrored
    want[red.twin[need & mirrored]] = True
    rows, seg, idx, d, off = _stack(red)
    d, o2 = _mirrored(d, off * off)
    del off
    height = d.shape[0]
    owner = red.matrix[red.stacked]  # of each stacked segment
    tols = np.ldexp(tol, -np.maximum(red.exp, 0))[owner]
    lo_s, hi_s = red.lo[owner], red.hi[owner]
    m = np.bincount(seg)  # each segment's roots, and its multisection points
    wanted = want[rows]
    del rows
    # the window of points next to each run of wanted roots: the 2c highest
    # for a top run of c, the 2c lowest for a bottom run of c, each segment
    # counted from top_in up and from bot_in down
    first = np.cumsum(m) - m  # each segment's column of root 0
    c_top = m - 1 - np.maximum.reduceat(np.where(wanted, -1, idx), first)
    c_bot = np.minimum.reduceat(np.where(wanted, m[seg], idx), first)
    top_in, bot_in = m - 2 * c_top, 2 * c_bot - 1
    counted = (idx >= top_in[seg]) | (idx <= bot_in[seg])
    del first

    def sweep(points):
        """The multisection points of these columns and their Sturm counts,
        in one sweep."""
        s = seg[points]
        x = lo_s[s] + (hi_s[s] - lo_s[s]) * ((idx[points] + 1) / (m[s] + 1))
        return x, _in_parts(lambda j: _negatives(_pivots(d, s[j], o2, x[j])), height,
                            np.arange(points.size))

    def advance(act):
        """One step of the roots act, in place; returns which are not done."""
        xa, sa = x[act], seg_r[act]
        if newton:
            up, _, gamma = _twisted(d, sa, o2, xa, reuse_down=True)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                delta = 1.0 / _row_sum(np.reciprocal(gamma, out=gamma))
            del gamma
        else:
            up = _pivots(d, sa, o2, xa)
        count = _negatives(up)
        del up
        i, tol_a = idx_r[act], tols[sa]
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
            lo_ok[act] = np.where(below, count == i, lo_ok[act])
            hi_ok[act] = np.where(below, hi_ok[act], count == i + 1)
            isolated[act] = ~done & lo_ok[act] & hi_ok[act]
            done |= isolated[act]
        return ~done

    points = np.flatnonzero(counted)
    x, count = sweep(points)
    # a window falls short where its innermost count leaves a wanted root's
    # bracket end among the points not counted: the segment's other points
    # are counted in one more sweep
    j, s = idx[points], seg[points]
    short = (((j == top_in[s]) & (j > bot_in[s] + 1) & (count > (m - c_top)[s]))
             | ((j == bot_in[s]) & (j < top_in[s] - 1) & (count < c_bot[s])))
    if short.any():
        more = np.flatnonzero(np.isin(seg, s[short]) & ~counted)
        order = np.argsort(np.concatenate((points, more)), kind="stable")
        x, count = (np.concatenate(pair)[order] for pair in zip((x, count), sweep(more)))
        points = np.concatenate((points, more))[order]
    del counted, j, s
    # the wanted roots, one column each from here on, each with its number
    # in its segment, in 32 bits to keep the per-column state small
    roots = np.flatnonzero(wanted)
    seg_r, idx_r = seg[roots], idx[roots].astype(np.int32)
    lo, hi, n_lo, n_hi = _multisect(seg_r, idx_r, lo_s[seg_r], hi_s[seg_r], x, count,
                                    seg[points], m[seg_r])
    # whether the count at each bracket end isolates the column's root
    lo_ok, hi_ok = n_lo == idx_r, n_hi == idx_r + 1
    del n_lo, n_hi, x, count, points, roots, wanted, seg, idx
    x = 0.5 * (lo + hi)
    done = _narrow(lo, hi, tols[seg_r])
    isolated = ~done & lo_ok & hi_ok
    act = np.flatnonzero(~(done | isolated))
    newton = False
    for _ in range(4096):
        if not act.size:
            if newton or not isolated.any():
                break
            act, newton = np.flatnonzero(isolated), True
        act = act[_in_parts(advance, height, act)]
    lam = red.diag[:-1].copy()  # one-row segments
    lam[red.starts[red.stacked][seg_r] + idx_r] = x
    lam[mirrored] = -lam[red.twin[mirrored]]
    return lam[need]


def _unscaled(lam, exp) -> np.ndarray:
    """Roots in scaled units times 2**exp, refused where one overflows
    double precision."""
    with np.errstate(over="ignore"):
        lam = np.ldexp(lam, exp)
    if not np.isfinite(lam).all():
        raise ValueError("an eigenvalue overflows double precision")
    return lam


def eigenvalues_batch(Hs, tol: float = 1e-12, top=None) -> list[np.ndarray]:
    """The eigenvalues_bisection eigenvalues of every H in Hs, in one stacked
    solve, each kernel call held to a fixed budget of table cells.

    Each H keeps its own scaling, bracket and tol, and every column of the
    stack is computed on its own, so its array is bitwise what
    eigenvalues_bisection(H, tol) returns.  top, a count k >= 0, keeps the
    highest k roots of each H, ascending, the whole spectrum when k >= dim
    and none at k = 0: the first sweep counts a window of 2c multisection
    points next to each block's c wanted roots, once more over the block's
    other points where the window falls short, and only the roots that can
    be among the top k are bisected and finished.  Each is bitwise the full
    solve's, unless a block's Sturm counts fall with the shift outside its
    windows, which no dimer tried has shown (see _roots).  Raises
    ValueError where a returned eigenvalue overflows double precision.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if top is not None and (isinstance(top, bool)
                            or not (isinstance(top, (int, np.integer)) and top >= 0)):
        raise ValueError(f"top must be a count >= 0, got {top!r}")
    Hs = list(Hs)
    if not Hs:
        return []
    red = _reduce(Hs)
    kept = np.minimum(red.sizes, red.diag.size if top is None else top)
    ends = np.cumsum(np.bincount(red.matrix, kept)).astype(int)  # of each H's roots
    out = []
    for lam, exp in zip(np.split(_roots(red, tol, top), ends[:-1]), red.exp):
        lam = np.sort(lam)
        out.append(_unscaled(lam if top is None else lam[max(lam.size - top, 0) :], exp))
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
    row order (_row_sum), so a column's vector is the same at any width.  A
    column that comes out with a non-finite entry, as where a root within
    _PIVMIN of zero leaves a subnormal pivot whose ratio overflows, is formed
    again from pivots under the clamp rule of _pivots.
    """
    cols, seg, _, d, off = _stack(red)
    solved = red.twin[cols] < 0
    cols, seg = cols[solved], seg[solved]
    d, o2 = _mirrored(d, off * off)

    def vectors(seg, x, clamp):  # with z_r = 1
        up, down, gamma = _twisted(d, seg, o2, x, clamp=clamp)
        r = np.argmin(np.abs(gamma, out=gamma), axis=0)
        del gamma
        k = np.arange(d.shape[0])[:, None]
        o = np.repeat(-off[:-1], np.bincount(seg, minlength=off.shape[1]), axis=1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(o, up[:-1], out=up[:-1])
            np.copyto(up, 1.0, where=k >= r)
            np.divide(o, down[1:], out=down[1:])
            np.copyto(down, 1.0, where=k <= r)
            del o
            # a table of its own, so z keeps no view of the 2w-wide one alive
            z = np.cumprod(up[::-1], axis=0)[::-1]
            z *= np.cumprod(down, axis=0, out=down)
        return z

    x = lam[cols]
    z = vectors(seg, x, False)
    redo = np.flatnonzero(~np.isfinite(z).all(axis=0))
    if redo.size:
        z[:, redo] = vectors(seg[redo], x[redo], True)
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
    lie in (0, SOLVE_TOL_MAX = 1e-10].  Raises ValueError where an
    eigenvalue overflows double precision.
    """
    if not 0.0 < tol <= SOLVE_TOL_MAX:
        raise ValueError(f"tol must be in (0, {SOLVE_TOL_MAX:g}] for eigenvectors, got {tol}")
    red = _reduce([H])
    n = H.dim
    lam = _roots(red, tol)
    order = np.argsort(lam, kind="stable")
    eigenvalues = _unscaled(lam[order], red.exp[0])
    cols, z = _twisted_vectors(red, lam)
    at = np.zeros(n, dtype=int)
    at[cols] = np.arange(cols.size)  # z's column of each solved row
    column = np.argsort(order)
    gap = 1e-6 * red.radius[0]
    methods = np.full(n, "recurrence", dtype=object)
    vectors = np.zeros((n, n))
    for first, size, row, sign in zip(red.starts, red.sizes, red.lift, red.mirror):
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
        if sign:
            rows = np.arange(row, row + size)[:, None]
            block *= np.where(rows == n - 1 - rows, 1.0, math.sqrt(0.5))  # z's copy, in place
        block = _lead_positive(block)
        vectors[row : row + size, column[seg]] = block
        if sign:
            vectors[n - row - size : n - row, column[seg]] = sign * block[::-1]
    return Spectrum(
        hamiltonian=H,
        eigenvalues=eigenvalues,
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
    import scipy.linalg

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
    red = _reduce([H])
    lam = _roots(red, 1e-12)
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
    import mpmath as mp

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
    import mpmath as mp

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
    import mpmath as mp

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
        offending_pairs=offending,
        passed=passed,
    )
