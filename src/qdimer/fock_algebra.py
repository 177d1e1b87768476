"""Fixed-quanta Fock sectors, boson and q-boson hopping algebra on them.

A sector is the span of all occupation states of n_sites lattice modes with
a fixed total number of quanta M.  Hopping operators a_i' a_j preserve M, so
every operator here is a square matrix on one sector.  The nearest
neighbour hops realize the Chevalley generators of su(n_sites), and their
q-deformed counterparts (matrix elements built from symmetric q-numbers)
realize su_q(n_sites).  The module also provides the deformed lattice
oscillator on a truncated single-mode space (dense, it is small), Casimir
invariants, and the linear map reconstructing the mode numbers N_i from
the Cartan generators.

Every sector operator here, and every root vector, Chevalley word and
Serre term the checks form, moves the occupations by one fixed vector
delta, so it has at most one entry per column: an amplitude amp[s] in the
target row dst[s] of state s + delta.  A SectorOperator holds just (basis,
delta, amp); number, Cartan, group-like and Casimir operators are the
shifts by delta = 0.  Its `matrix`, a `scipy.sparse.csr_array`, is formed
on first access.  A product A B is one gather and one multiply,
A.amp[B.dst] * B.amp, a sum of terms with one delta adds their amplitudes,
and a commutator with a diagonal is read on the other operand's entries.
Every entry has one term, and each product keeps its operand order and
each sum its term order, so the Chevalley, Serre and Casimir residuals are
the same numbers the dense products give.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .qnumbers import Q_ONE_THRESHOLD, _deformation, _is_count, basic_qnum, q_binomial, sym_qnum

if TYPE_CHECKING:
    from scipy import sparse

# Largest admitted sector, 1e6 states (memory: see FockSectorBasis).
MAX_SECTOR_DIM = 1_000_000
# States that a sector build decodes, and that _targets moves, per pass, so
# that no temporary spans the sector.
_RUN = 2**16


class FockSectorBasis:
    """Occupation basis of the (n_sites, total_quanta) sector.

    `occupations` is a (dim, n_sites) int64 array whose row k is state k,
    (n_1, ..., n_sites) with sum(n) = total_quanta; the rows are in
    ascending lexicographic order so the layout is reproducible.

    Sectors above MAX_SECTOR_DIM = 1e6 states are refused before anything
    is allocated.  The basis keeps 8 bytes per state and site, plus the
    rank table of positions(), 8 bytes per site but one and quanta count
    0..M, from which the build decodes the states in runs of _RUN, so its
    other temporaries stay near 3 MB.  Near the guard (tracemalloc,
    retained / build peak): 24.0 / 26.6 MB on two sites at M 999999, 24.0 /
    26.6 MB on three at M 1412 and 31.1 / 33.7 MB on four at M 178.  Each
    occupation shift in use adds an int64 target row per state (8 MB at the
    guard, formed in runs of _RUN with under 7 MB of temporaries), and a
    sector operator 8 bytes of amplitude per state, where a
    dense one would take 8 dim^2 bytes = 8 TB; its csr `matrix` adds at most
    24 bytes per state.
    """

    def __init__(self, n_sites: int, total_quanta: int):
        for name, x, least in (("n_sites", n_sites, 1), ("total_quanta", total_quanta, 0)):
            if not _is_count(x, least):
                raise ValueError(f"{name} must be an integer >= {least}, got {x!r}")
        dim = math.comb(total_quanta + n_sites - 1, n_sites - 1)
        if dim > MAX_SECTOR_DIM:
            raise ValueError(f"sector dimension {dim} exceeds the size guard {MAX_SECTOR_DIM}")
        self.n_sites = n_sites
        self.total_quanta = total_quanta
        self.dim = dim
        # C(r + m - 1, m - 1) states of r quanta on m >= 2 sites, by Pascal's
        # rule: column m - 2 is r + 1 on two sites and sums column m - 3 over r
        self._counts = count = np.empty((total_quanta + 1, n_sites - 1), dtype=np.int64)
        count[:, :1] = np.arange(1, total_quanta + 2)[:, None]
        for m in range(1, n_sites - 1):
            np.cumsum(count[:, m - 1], out=count[:, m])
        # positions() backwards, _RUN states a pass: of the col[r] states with
        # r quanta on the sites from k on, the last col[t] give site k >= r - t
        self.occupations = occ = np.empty((dim, n_sites), dtype=np.int64)
        for run in range(0, dim, _RUN):
            rows = occ[run:run + _RUN]
            pos = np.arange(run, run + len(rows))
            left = np.full(len(rows), total_quanta, dtype=np.int64)
            for k in range(n_sites - 1):
                col = count[:, n_sites - k - 2]
                rest = col[left] - pos  # the states from this one to the last
                t = np.searchsorted(col, rest)
                rows[:, k] = left - t
                pos, left = col[t] - rest, t
            rows[:, -1] = left
        self._targets = {}  # delta -> target rows, see _targets

    def positions(self, occupations: np.ndarray) -> np.ndarray:
        """Basis indices of the occupation rows, by lexicographic rank.

        The states before s are those sharing a prefix s_1..s_{k-1} with a
        smaller k-th entry; with r quanta left for the m sites from k on,
        there are C(r + m - 1, m - 1) - C(r - s_k + m - 1, m - 1) of them.
        """
        n, total = self.n_sites, self.total_quanta
        count = self._counts
        pos = np.zeros(len(occupations), dtype=np.int64)
        left = np.full(len(occupations), total, dtype=np.int64)
        for k in range(n - 1):
            col = n - k - 2  # the n - k sites from k on
            pos += count[left, col] - count[left - occupations[:, k], col]
            left -= occupations[:, k]
        return pos

    def __repr__(self):
        return (
            f"FockSectorBasis(n_sites={self.n_sites}, "
            f"total_quanta={self.total_quanta}, dim={self.dim})"
        )


def build_sector_basis(n_sites: int, total_quanta: int) -> FockSectorBasis:
    """Enumerate the fixed-quanta occupation basis; dim = C(M+n-1, n-1).

    The states are the rows of `occupations`, in lexicographic order.
    Refuses sectors above MAX_SECTOR_DIM = 1e6 states.
    """
    return FockSectorBasis(n_sites, total_quanta)


class SectorOperator:
    """Real operator on one sector that moves every state s to s + delta,
    times amp[s].

    Column s holds its one entry amp[s] in row dst[s], the basis index of
    s + delta; where s + delta leaves the sector dst[s] is -1 and amp[s]
    must be 0, so a gather through it reads the last entry and multiplies it
    by that zero.  Number, Cartan and group-like operators are the shifts by
    delta = 0, with their diagonal in amp.  `matrix` is the
    `scipy.sparse.csr_array`, formed on first access (`.matrix.toarray()`
    for the dense matrix).

    Products, sums, scalar multiples and adjoints of shifts are shifts, with
    the operand and term order of the matrix expressions they stand for: a
    product's entry is A_rk * B_kc and a sum's entry adds the terms' entries
    left to right.  Sums take operands of one delta.
    """

    __array_ufunc__ = None  # numpy scalars defer to __rmul__

    def __init__(self, basis: FockSectorBasis, delta, amp):
        delta, amp = tuple(delta), np.asarray(amp)
        if len(delta) != basis.n_sites:
            raise ValueError(f"shift {delta} does not match {basis.n_sites} sites")
        if amp.shape != (basis.dim,):
            raise ValueError(f"amplitude shape {amp.shape} does not match sector dim {basis.dim}")
        self.basis = basis
        self.delta = delta
        self.amp = amp

    @classmethod
    def diagonal(cls, basis, values):
        """diag(values), the shift by 0."""
        return cls(basis, (0,) * basis.n_sites, np.asarray(values, dtype=float))

    @property
    def dst(self):
        return _targets(self.basis, self.delta)

    @functools.cached_property
    def matrix(self) -> sparse.csr_array:
        return _csr([self])

    def __matmul__(self, other):
        delta = tuple(a + b for a, b in zip(self.delta, other.delta))
        return SectorOperator(self.basis, delta, self.amp[other.dst] * other.amp)

    def __add__(self, other):
        return SectorOperator(self.basis, self._same_delta(other), self.amp + other.amp)

    def __sub__(self, other):
        return SectorOperator(self.basis, self._same_delta(other), self.amp - other.amp)

    def __rmul__(self, scalar):
        return SectorOperator(self.basis, self.delta, self.amp * scalar)

    def _same_delta(self, other):
        if other.delta != self.delta:
            raise ValueError(f"cannot add shifts {self.delta} and {other.delta}")
        return self.delta

    @property
    def T(self):
        """The adjoint, a shift by -delta."""
        live = self.dst >= 0
        amp = np.zeros_like(self.amp)
        amp[self.dst[live]] = self.amp[live]
        return SectorOperator(self.basis, tuple(-x for x in self.delta), amp)


def _csr(ops) -> sparse.csr_array:
    """One csr array holding the entries of shifts, on one basis, that share
    no entry."""
    from scipy import sparse

    live = [np.flatnonzero(op.dst >= 0) for op in ops]
    data = np.concatenate([op.amp[c] for op, c in zip(ops, live)])
    rows = np.concatenate([op.dst[c] for op, c in zip(ops, live)])
    dim = ops[0].basis.dim
    return sparse.csr_array((data, (rows, np.concatenate(live))), shape=(dim, dim))


def _site_range_check(basis, *sites):
    for s in sites:
        if not (_is_count(s, 1) and s <= basis.n_sites):
            raise ValueError(f"site index {s} outside 1..{basis.n_sites}")


def _occupation(basis, i):
    return basis.occupations[:, i - 1].astype(float)


def number_operator(basis: FockSectorBasis, i: int) -> SectorOperator:
    """Diagonal mode-occupation operator N_i (1-based site index)."""
    _site_range_check(basis, i)
    return SectorOperator.diagonal(basis, _occupation(basis, i))


def hop_operator(basis: FockSectorBasis, i: int, j: int) -> SectorOperator:
    """Boson hop a_i' a_j with matrix elements sqrt(n_i + 1) sqrt(n_j)."""
    return _hop(basis, i, j, _boson_numbers(basis))


def al_hop_operator(basis: FockSectorBasis, i: int, j: int, gamma: float) -> SectorOperator:
    """Deformed-lattice-oscillator hop b_i' b_j with elements sqrt({n_i+1} {n_j})."""
    qnums = [basic_qnum(n, gamma) for n in range(basis.total_quanta + 2)]
    return _hop(basis, i, j, np.array(qnums))


def _hop(basis, i, j, qnums):
    """Hop from site j to site i with elements sqrt(qnums[n_i + 1] qnums[n_j])."""
    _site_range_check(basis, i, j)
    if i == j:
        raise ValueError("hop requires distinct sites; use number_operator for i == j")
    delta = [0] * basis.n_sites
    delta[i - 1], delta[j - 1] = 1, -1
    delta = tuple(delta)
    cols = np.flatnonzero(_targets(basis, delta) >= 0)
    occ = basis.occupations
    amp = np.zeros(basis.dim)
    amp[cols] = np.sqrt(qnums[occ[cols, i - 1] + 1] * qnums[occ[cols, j - 1]])
    return SectorOperator(basis, delta, amp)


def _targets(basis, delta):
    """Basis index of state s + delta for every state s, -1 where it leaves
    the sector; computed once per delta and basis."""
    dst = basis._targets.get(delta)
    if dst is None:
        shift = np.array(delta, dtype=np.int64)
        dst = np.full(basis.dim, -1, dtype=np.int64)
        for run in range(0, basis.dim, _RUN):
            moved = basis.occupations[run:run + _RUN] + shift
            inside = np.all(moved >= 0, axis=1)
            dst[run:run + _RUN][inside] = basis.positions(moved[inside])
        basis._targets[delta] = dst
    return dst


def _sum(terms):
    """Left-to-right sum of shifts of one delta."""
    return functools.reduce(operator.add, terms)


def cartan_matrix(n: int) -> np.ndarray:
    """A_{n-1} Cartan matrix: 2 on the diagonal, -1 on adjacent off-diagonals."""
    if not _is_count(n, 2):
        raise ValueError(f"need an integer n >= 2, got {n!r}")
    return (2 * np.eye(n - 1, dtype=int) - np.eye(n - 1, k=1, dtype=int)
            - np.eye(n - 1, k=-1, dtype=int))


@dataclass
class ChevalleyGenerators:
    """Chevalley generators e_i, f_i, h_i on a sector, i = 1..n-1 (list slot i-1).

    For q != 1 the group-like k_i = q^h_i is also populated.  Every operator
    is a SectorOperator: e_i and f_i are shifts by the hop's occupation
    change, h and k are diagonal.  n is the basis's site count.
    """

    q: float
    basis: FockSectorBasis
    e: tuple
    f: tuple
    h: tuple
    k: tuple | None = None

    @property
    def n(self) -> int:
        return self.basis.n_sites

    @property
    def rank(self) -> int:
        return self.n - 1


def _chevalley(basis, qnums):
    """e_i = hop i <- i+1 with the number table qnums, f_i = e_i' and
    h_i = (N_i - N_{i+1})/2, for i = 1..n-1."""
    if basis.n_sites < 2:
        raise ValueError("need at least two sites")
    sites = range(1, basis.n_sites)
    e = tuple(_hop(basis, i, i + 1, qnums) for i in sites)
    h = tuple(SectorOperator.diagonal(basis, 0.5 * (_occupation(basis, i) - _occupation(basis, i + 1)))
              for i in sites)
    return e, tuple(x.T for x in e), h


def su_n_generators(basis: FockSectorBasis) -> ChevalleyGenerators:
    """Boson realization e_i = a_i' a_{i+1}, f_i = e_i', h_i = (N_i - N_{i+1})/2."""
    e, f, h = _chevalley(basis, _boson_numbers(basis))
    return ChevalleyGenerators(q=1.0, basis=basis, e=e, f=f, h=h)


def _boson_numbers(basis):
    """n for n = 0..M+1, the number table of the boson hops."""
    return np.arange(basis.total_quanta + 2, dtype=float)


def suq_n_generators(basis: FockSectorBasis, q: float) -> ChevalleyGenerators:
    """q-boson realization of su_q(n) with symmetric q-number matrix elements."""
    e, f, h = _chevalley(basis, _qnum_map(np.arange(basis.total_quanta + 2), q))
    k = tuple(SectorOperator.diagonal(basis, q**x.amp) for x in h)
    return ChevalleyGenerators(q=float(q), basis=basis, e=e, f=f, h=h, k=k)


@dataclass
class ResidualReport:
    """Labelled max-norm residuals from an identity check."""

    entries: list = field(default_factory=list)

    def add(self, label, value):
        self.entries.append((label, float(value)))

    @property
    def vacuous(self) -> bool:
        """Whether no relation was checked, as for the Serre relations at rank 1."""
        return not self.entries

    @property
    def max_residual(self) -> float:
        """The largest residual, NaN where any is NaN, 0.0 where none was checked."""
        values = [v for _, v in self.entries]
        return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def _maxabs(m):
    """Largest |entry| of an array, 0 for an empty one."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def _comm(a, b):
    return a @ b - b @ a


def _qnum_map(x, q):
    """sym_qnum over the array x, one scalar call per distinct value."""
    values, where = np.unique(x, return_inverse=True)
    return np.array([sym_qnum(v, q) for v in values.tolist()])[where]


def verify_chevalley(gens: ChevalleyGenerators) -> ResidualReport:
    """Residuals of the defining relations on the sector.

    q = 1:  [h_i,h_j] = 0, [h_i,e_j] = (a_ij/2) e_j, [h_i,f_j] = -(a_ij/2) f_j,
            [e_i,f_j] = 2 h_i delta_ij.
    q != 1: k_i k_j = k_j k_i, k_i e_j k_i^-1 = q^(a_ij/2) e_j (and inverse
            power for f_j), [e_i,f_j] = delta_ij [2 h_i].

    Relations with a diagonal factor (h_i, k_i) are evaluated on the
    amplitudes: entry (dst[c], c) of d x - x d is d_dst[c] x_c - x_c d_c.
    [e_i, f_j] is the shift product.
    """
    rep = ResidualReport()
    a = cartan_matrix(gens.n)
    r = gens.rank
    deformed = abs(gens.q - 1.0) >= Q_ONE_THRESHOLD
    hd = [g.amp for g in gens.h]
    if deformed:
        kd = [g.amp for g in gens.k]
        targets = [_qnum_map(2.0 * d, gens.q) for d in hd]
    else:
        targets = [2.0 * d for d in hd]
    e, f = gens.e, gens.f
    for i in range(r):
        for j in range(r):
            er, ex = e[j].dst, e[j].amp
            fr, fx = f[j].dst, f[j].amp
            if not deformed:
                hi = hd[i]
                rep.add(f"[h{i+1},h{j+1}]", _maxabs(hi * hd[j] - hd[j] * hi))
                rep.add(f"[h{i+1},e{j+1}]", _maxabs(hi[er] * ex - ex * hi - 0.5 * a[i, j] * ex))
                rep.add(f"[h{i+1},f{j+1}]", _maxabs(hi[fr] * fx - fx * hi + 0.5 * a[i, j] * fx))
            else:
                ki = kd[i]
                rep.add(f"k{i+1}k{j+1}", _maxabs(ki * kd[j] - kd[j] * ki))
                conj_e = (ki[er] * ex) / ki
                rep.add(
                    f"k{i+1}e{j+1}k{i+1}^-1",
                    _maxabs(conj_e - gens.q ** (0.5 * a[i, j]) * ex),
                )
                conj_f = (ki[fr] * fx) / ki
                rep.add(
                    f"k{i+1}f{j+1}k{i+1}^-1",
                    _maxabs(conj_f - gens.q ** (-0.5 * a[i, j]) * fx),
                )
            comm = _comm(e[i], f[j])
            if i == j:
                comm = comm - SectorOperator.diagonal(gens.basis, targets[i])
            rep.add(f"[e{i+1},f{j+1}]", _maxabs(comm.amp))
    return rep


def verify_serre(gens: ChevalleyGenerators) -> ResidualReport:
    """Residuals of the (q-)Serre relations for every ordered pair i != j.

    sum_{r+s=1-a_ij} (-1)^r C_q(1-a_ij, r) x_i^r x_j x_i^s = 0 for x = e and
    x = f, with q-binomials (ordinary binomials at q = 1).  Vacuous for rank 1.
    Each term is formed as ((coeff x_i^r) x_j) x_i^s on the generators'
    shifts, and the terms are summed in order of r.
    """
    rep = ResidualReport()
    r = gens.rank
    if r < 2:
        return rep
    a = cartan_matrix(gens.n)
    identity = SectorOperator.diagonal(gens.basis, np.ones(gens.basis.dim))
    ladders = (("e", gens.e), ("f", gens.f))
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            order = 1 - a[i, j]
            for name, ops in ladders:
                xi, xj = ops[i], ops[j]
                powers = [identity, xi]
                while len(powers) <= order:
                    powers.append(powers[-1] @ xi)
                acc = _sum(
                    (-1.0) ** rr * q_binomial(order, rr, gens.q) * powers[rr] @ xj @ powers[order - rr]
                    for rr in range(order + 1)
                )
                rep.add(f"serre_{name}{i+1}{name}{j+1}", _maxabs(acc.amp))
    return rep


# ---------------------------------------------------------------------------
# deformed lattice oscillator on a truncated single-mode space
# ---------------------------------------------------------------------------


def al_oscillator_ops(n_max: int, gamma: float):
    """Truncated (n_max+1)-dim matrices (b, b', N) with b|n> = sqrt({n}) |n-1>."""
    if not _is_count(n_max, 1):
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    amps = np.array([math.sqrt(basic_qnum(n, gamma)) for n in range(1, n_max + 1)])
    b = np.diag(amps, 1)
    bd = b.T.copy()
    n_op = np.diag(np.arange(n_max + 1, dtype=float))
    return b, bd, n_op


def verify_al_relations(b, bd, n_op, gamma: float, n_max: int) -> ResidualReport:
    """Relative residuals of [b,b'] = 1 + (gamma/2) b'b and of the number map.

    The number map is N = ln(1 + (gamma/2) b'b) / ln(1 + gamma/2) for
    gamma > 0 and N = b'b in the linear limit.  Rows and columns at the
    truncation edge n = n_max are excluded, where b' leaks out of the space.
    Refuses a gamma that is not finite or is negative, an n_max that is not
    an integer >= 1, and matrices that are not all (n_max+1) x (n_max+1).
    """
    _deformation(gamma)
    if not _is_count(n_max, 1):
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    shapes = [np.shape(m) for m in (b, bd, n_op)]
    if any(shape != (n_max + 1, n_max + 1) for shape in shapes):
        raise ValueError(f"b, bd and n_op must be {n_max + 1} x {n_max + 1} at n_max {n_max}, "
                         f"got shapes {', '.join(map(str, shapes))}")
    rep = ResidualReport()
    sub = slice(0, n_max)
    eye = np.eye(n_max + 1)
    occ = bd @ b
    ccr = _comm(b, bd) - (eye + 0.5 * gamma * occ)
    expected = eye + 0.5 * gamma * occ
    scale = max(1.0, _maxabs(expected[sub, sub]))
    rep.add("commutation", _maxabs(ccr[sub, sub]) / scale)
    if gamma > 0.0:
        recon = np.diag(np.log1p(0.5 * gamma * np.diag(occ)) / math.log1p(0.5 * gamma))
    else:
        recon = occ
    scale = max(1.0, _maxabs(n_op[sub, sub]))
    rep.add("number_map", _maxabs((n_op - recon)[sub, sub]) / scale)
    return rep




# ---------------------------------------------------------------------------
# Casimir invariants
# ---------------------------------------------------------------------------


def _root_vectors(e):
    """E_{a,a+1} = e_a and E_ab = [E_a,a+1, E_a+1,b] for a < b, from the e_a shifts."""
    n = len(e) + 1
    E = [[None] * n for _ in range(n)]
    for a in range(n - 1):
        E[a][a + 1] = e[a]
    for span in range(2, n):
        for a in range(n - span):
            b = a + span
            E[a][b] = _comm(E[a][a + 1], E[a + 1][b])
    return E


def _cartan_weights(h):
    """Diagonals of the traceless weights eps_a: eps_a - eps_{a+1} = 2 h_a, sum eps_a = 0."""
    n = len(h) + 1
    g = [2.0 * x.amp for x in h]
    tail = np.zeros(len(g[0]))
    eps = [None] * n
    mean = sum((k + 1) * g[k] for k in range(n - 1)) / n
    for a in range(n - 1, -1, -1):
        eps[a] = tail - mean
        if a > 0:
            tail = tail + g[a - 1]
    return eps


def casimir_matrix(gens: ChevalleyGenerators, p: int) -> SectorOperator:
    """Even-degree invariant C_2p = sum_a (M^p)_aa with M_ab = sum_c G_ac G_cb.

    G is the full n x n generator matrix: nested-commutator root vectors
    above the diagonal, their adjoints below, and the traceless Cartan
    weights eps_a on the diagonal.  The diagonal entries are required for
    centrality; without them the contraction fails to commute with e_i.
    C_2p is diagonal; it is formed on shift amplitudes (_casimir_diagonals).
    Supported for the undeformed algebra only (gens.q = 1).
    """
    if not _is_count(p, 1):
        raise ValueError(f"p must be a positive integer, got {p!r}")
    if abs(gens.q - 1.0) >= Q_ONE_THRESHOLD:
        raise ValueError("casimir_matrix supports only the undeformed algebra (q = 1)")
    return SectorOperator.diagonal(gens.basis, _casimir_diagonals(gens, int(p))[-1])


def _generator_matrix(gens):
    """The n x n shift matrix G of casimir_matrix: E_ab above the diagonal,
    E_ab' below it, diag(eps_a) on it."""
    n = gens.n
    E = _root_vectors(gens.e)
    eps = _cartan_weights(gens.h)
    G = [[None] * n for _ in range(n)]
    for a in range(n):
        G[a][a] = SectorOperator.diagonal(gens.basis, eps[a])
        for b in range(a + 1, n):
            G[a][b] = E[a][b]
            G[b][a] = E[a][b].T
    return G


def _casimir_diagonals(gens, p):
    """Diagonals of C_2, C_4, ..., C_2p, with C_2k = sum_a (M^(k-1) M)_aa.

    One G and one M = G G serve every degree.  Block (a, b) of a product
    A B is sum_c A_ac B_cb, summed in order of c, and each C_2k sums the
    diagonal blocks in order of a; for k > 1 only the diagonal blocks of
    the last product are formed.
    """
    n = gens.n
    G = _generator_matrix(gens)

    def block(A, B, a, b):
        return _sum(A[a][c] @ B[c][b] for c in range(n))

    M = [[block(G, G, a, b) for b in range(n)] for a in range(n)]
    diagonals = [_sum(M[a][a] for a in range(n))]
    left = M
    for k in range(2, p + 1):
        if k > 2:
            left = [[block(left, M, a, b) for b in range(n)] for a in range(n)]
        diagonals.append(_sum(block(left, M, a, a) for a in range(n)))
    return [d.amp for d in diagonals]


def suq2_casimir(gens: ChevalleyGenerators) -> SectorOperator:
    """Quadratic su_q(2) invariant [J0][J0 - 1] + J+ J-, eigenvalue [j][j+1],
    at the generators' q; at q = 1 it is the su(2) invariant J0 (J0 - 1) +
    J+ J-, eigenvalue j(j+1)."""
    if gens.rank != 1:
        raise ValueError("suq2_casimir needs rank-1 generators (two sites)")
    m = gens.h[0].amp
    values = _qnum_map(m, gens.q) * _qnum_map(m - 1.0, gens.q)
    return SectorOperator.diagonal(gens.basis, values) + gens.e[0] @ gens.f[0]


# ---------------------------------------------------------------------------
# number reconstruction from the Cartan generators
# ---------------------------------------------------------------------------


def omega_matrix(n: int) -> np.ndarray:
    """Difference-plus-total matrix: rows i < n carry (1, -1) at (i, i+1),
    the last row is all ones.  Applied to (N_1..N_n) it yields the n - 1
    differences N_i - N_{i+1} and the total number."""
    if not _is_count(n, 2):
        raise ValueError(f"need an integer n >= 2, got {n!r}")
    om = np.eye(n) - np.eye(n, k=1)
    om[-1] = 1.0
    return om


def verify_number_reconstruction(basis: FockSectorBasis) -> ResidualReport:
    """Residual of N_i = sum_j (Omega^-1)_ij (2 h_j) + (Omega^-1)_in h.

    h_j = (N_j - N_{j+1})/2 feeds the difference rows of Omega through the
    factor 2, and h = sum N_i is the sector total.  Exact by linear algebra,
    asserted entrywise on the sector; every operator involved is diagonal,
    so the identity is checked on the diagonals, read from the occupations.
    """
    n = basis.n_sites
    om_inv = np.linalg.inv(omega_matrix(n))
    total = np.full(basis.dim, float(basis.total_quanta))
    numbers = [_occupation(basis, i) for i in range(1, n + 1)]
    twice_h = [2.0 * (0.5 * (numbers[j] - numbers[j + 1])) for j in range(n - 1)]
    rep = ResidualReport()
    for i in range(n):
        recon = om_inv[i, n - 1] * total
        for jx in range(n - 1):
            recon = recon + om_inv[i, jx] * twice_h[jx]
        rep.add(f"N{i+1}", _maxabs(numbers[i] - recon))
    return rep
