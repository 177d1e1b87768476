"""Fixed-quanta Fock sectors, boson and q-boson hopping algebra on them.

A sector is the span of all occupation states of n_sites lattice modes with
a fixed total number of quanta M.  Hopping operators a_i' a_j preserve M, so
every operator here is a square matrix on one sector, stored as a
`scipy.sparse.csr_array`: a hop has at most one nonzero per column and the
number, Cartan and group-like operators are diagonal, so an operator holds
O(dim) entries rather than dim^2 (`.toarray()` gives the dense matrix).  The
nearest neighbour hops realize the Chevalley generators of su(n_sites), and
their q-deformed counterparts (matrix elements built from symmetric
q-numbers) realize su_q(n_sites).  The module also provides the deformed
lattice oscillator on a truncated single-mode space (dense, it is small),
Casimir invariants, and the linear map reconstructing the mode numbers N_i
from the Cartan generators.

The checks multiply sparse operators, and where one factor is diagonal they
scale the other operand's stored entries by the diagonal instead.  Every
product of hops and diagonals has one term per entry, so the Chevalley and
Serre residuals are the same numbers the dense products give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .qnumbers import Q_ONE_THRESHOLD, basic_qnum, q_binomial, sym_qnum

# Largest admitted sector, 1e6 states.  A hop or diagonal operator stores at
# most one entry per column, 16 bytes each (float64 value, int64 column
# index), plus an 8-byte row pointer per row: at most 24 bytes per state, 24 MB
# at the guard, where one dense operator would take 8 * dim^2 bytes = 8 TB.
# The basis costs about 120 bytes per state on three or four sites (state
# tuple and occupation row): about 0.12 GB at the guard.
MAX_SECTOR_DIM = 1_000_000


class FockSectorBasis:
    """Occupation basis of the (n_sites, total_quanta) sector.

    States are tuples (n_1, ..., n_sites) with sum(n) = total_quanta, listed
    in ascending lexicographic order so the layout is reproducible;
    `occupations` holds the same states as a (dim, n_sites) integer array.
    Sectors above MAX_SECTOR_DIM = 1e6 states are refused: the basis takes
    about 120 bytes per state (0.12 GB at the guard) and a sparse operator at
    most 24 bytes per state (24 MB), where a dense one would take 8 TB.
    """

    def __init__(self, n_sites: int, total_quanta: int):
        if n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {n_sites}")
        if total_quanta < 0:
            raise ValueError(f"total_quanta must be >= 0, got {total_quanta}")
        dim = math.comb(total_quanta + n_sites - 1, n_sites - 1)
        if dim > MAX_SECTOR_DIM:
            raise ValueError(
                f"sector dimension {dim} exceeds the size guard {MAX_SECTOR_DIM}"
            )
        self.n_sites = n_sites
        self.total_quanta = total_quanta
        self.states = tuple(sorted(_compositions(n_sites, total_quanta)))
        self.occupations = np.array(self.states, dtype=np.int64)

    @property
    def dim(self) -> int:
        return len(self.states)

    def positions(self, occupations: np.ndarray) -> np.ndarray:
        """Basis indices of the occupation rows, by lexicographic rank.

        The states before s are those sharing a prefix s_1..s_{k-1} with a
        smaller k-th entry; with r quanta left for the m sites from k on,
        there are C(r + m - 1, m - 1) - C(r - s_k + m - 1, m - 1) of them.
        """
        n, total = self.n_sites, self.total_quanta
        count = np.array(
            [[math.comb(r + m - 1, m - 1) for m in range(1, n + 1)] for r in range(total + 1)],
            dtype=np.int64,
        )
        pos = np.zeros(len(occupations), dtype=np.int64)
        left = np.full(len(occupations), total, dtype=np.int64)
        for k in range(n - 1):
            col = n - k - 1
            pos += count[left, col] - count[left - occupations[:, k], col]
            left -= occupations[:, k]
        return pos

    def __repr__(self):
        return (
            f"FockSectorBasis(n_sites={self.n_sites}, "
            f"total_quanta={self.total_quanta}, dim={self.dim})"
        )


def _compositions(n_sites, total):
    if n_sites == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(n_sites - 1, total - first):
            yield (first,) + rest


def build_sector_basis(n_sites: int, total_quanta: int) -> FockSectorBasis:
    """Enumerate the fixed-quanta occupation basis; dim = C(M+n-1, n-1).

    Refuses sectors above MAX_SECTOR_DIM = 1e6 states (about 0.12 GB of
    basis, at most 24 MB per sparse operator).
    """
    return FockSectorBasis(n_sites, total_quanta)


@dataclass
class SectorOperator:
    """A real sparse (CSR) matrix acting on one fixed-quanta sector.

    `matrix` is a `scipy.sparse.csr_array`; dense or sparse input is
    converted.  Use `matrix.toarray()` for the dense matrix.
    """

    basis: FockSectorBasis
    matrix: sparse.csr_array

    def __post_init__(self):
        self.matrix = sparse.csr_array(self.matrix, dtype=float)
        if self.matrix.shape != (self.basis.dim, self.basis.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match sector dim {self.basis.dim}"
            )


def _diagonal(values) -> sparse.csr_array:
    """Sparse diagonal matrix with the given diagonal."""
    values = np.asarray(values, dtype=float)
    dim = len(values)
    return sparse.csr_array((values, np.arange(dim), np.arange(dim + 1)), shape=(dim, dim))


def _site_range_check(basis, *sites):
    for s in sites:
        if not 1 <= s <= basis.n_sites:
            raise ValueError(f"site index {s} outside 1..{basis.n_sites}")


def _occupation(basis, i):
    return basis.occupations[:, i - 1].astype(float)


def number_operator(basis: FockSectorBasis, i: int) -> SectorOperator:
    """Diagonal mode-occupation operator N_i (1-based site index)."""
    _site_range_check(basis, i)
    return SectorOperator(basis, _diagonal(_occupation(basis, i)))


def hop_operator(basis: FockSectorBasis, i: int, j: int) -> SectorOperator:
    """Boson hop a_i' a_j with matrix elements sqrt(n_i + 1) sqrt(n_j)."""
    return _hop(basis, i, j, np.arange(basis.total_quanta + 2, dtype=float))


def al_hop_operator(basis: FockSectorBasis, i: int, j: int, gamma: float) -> SectorOperator:
    """Deformed-lattice-oscillator hop b_i' b_j with elements sqrt({n_i+1} {n_j})."""
    qnums = [basic_qnum(n, gamma) for n in range(basis.total_quanta + 2)]
    return _hop(basis, i, j, np.array(qnums))


def _sym_qnums(basis, q):
    """[n] for n = 0..M+1, one scalar call per occupation number."""
    return np.array([sym_qnum(n, q) for n in range(basis.total_quanta + 2)])


def _hop(basis, i, j, qnums):
    """Hop from site j to site i with elements sqrt(qnums[n_i + 1] qnums[n_j])."""
    _site_range_check(basis, i, j)
    if i == j:
        raise ValueError("hop requires distinct sites; use number_operator for i == j")
    cols = np.flatnonzero(basis.occupations[:, j - 1])
    src = basis.occupations[cols]
    ni, nj = src[:, i - 1], src[:, j - 1]
    amp = np.sqrt(qnums[ni + 1] * qnums[nj])
    dst = src.copy()
    dst[:, i - 1] += 1
    dst[:, j - 1] -= 1
    rows = basis.positions(dst)
    mat = sparse.csr_array((amp, (rows, cols)), shape=(basis.dim, basis.dim))
    return SectorOperator(basis, mat)


def cartan_matrix(n: int) -> np.ndarray:
    """A_{n-1} Cartan matrix: 2 on the diagonal, -1 on adjacent off-diagonals."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    a = 2 * np.eye(n - 1, dtype=int)
    for i in range(n - 2):
        a[i, i + 1] = a[i + 1, i] = -1
    return a


@dataclass
class ChevalleyGenerators:
    """Chevalley generators e_i, f_i, h_i on a sector, i = 1..n-1 (list slot i-1).

    For q != 1 the group-like k_i = q^h_i and the local sector weights
    C_i = q^((N_i + N_{i+1})/2) are also populated.  h, k and c_loc are
    diagonal; every operator is a sparse SectorOperator.
    """

    n: int
    q: float
    basis: FockSectorBasis
    e: tuple
    f: tuple
    h: tuple
    k: tuple | None = None
    c_loc: tuple | None = None

    @property
    def rank(self) -> int:
        return self.n - 1


def _adjoint(op: SectorOperator) -> SectorOperator:
    return SectorOperator(op.basis, op.matrix.T.tocsr())


def su_n_generators(basis: FockSectorBasis) -> ChevalleyGenerators:
    """Boson realization e_i = a_i' a_{i+1}, f_i = e_i', h_i = (N_i - N_{i+1})/2."""
    if basis.n_sites < 2:
        raise ValueError("need at least two sites")
    e, f, h = [], [], []
    for i in range(1, basis.n_sites):
        ei = hop_operator(basis, i, i + 1)
        e.append(ei)
        f.append(_adjoint(ei))
        hdiag = 0.5 * (_occupation(basis, i) - _occupation(basis, i + 1))
        h.append(SectorOperator(basis, _diagonal(hdiag)))
    return ChevalleyGenerators(
        n=basis.n_sites, q=1.0, basis=basis, e=tuple(e), f=tuple(f), h=tuple(h)
    )


def suq_n_generators(basis: FockSectorBasis, q: float) -> ChevalleyGenerators:
    """q-boson realization of su_q(n) with symmetric q-number matrix elements."""
    if basis.n_sites < 2:
        raise ValueError("need at least two sites")
    if not q > 0.0:
        raise ValueError(f"q must be > 0, got {q}")
    qnums = _sym_qnums(basis, q)
    e, f, h, k, c_loc = [], [], [], [], []
    for i in range(1, basis.n_sites):
        ei = _hop(basis, i, i + 1, qnums)
        e.append(ei)
        f.append(_adjoint(ei))
        ni = _occupation(basis, i)
        nip = _occupation(basis, i + 1)
        hdiag = 0.5 * (ni - nip)
        h.append(SectorOperator(basis, _diagonal(hdiag)))
        k.append(SectorOperator(basis, _diagonal(q**hdiag)))
        c_loc.append(SectorOperator(basis, _diagonal(q ** (0.5 * (ni + nip)))))
    return ChevalleyGenerators(
        n=basis.n_sites,
        q=float(q),
        basis=basis,
        e=tuple(e),
        f=tuple(f),
        h=tuple(h),
        k=tuple(k),
        c_loc=tuple(c_loc),
    )


@dataclass
class ResidualReport:
    """Labelled max-norm residuals from an identity check."""

    entries: list = field(default_factory=list)
    dim: int = 0
    vacuous: bool = False

    def add(self, label, value):
        self.entries.append((label, float(value)))

    @property
    def max_residual(self) -> float:
        return max((v for _, v in self.entries), default=0.0)

    def ok(self, tol: float) -> bool:
        return all(v <= tol for _, v in self.entries)


def _maxabs(m):
    """Largest |entry|; a sparse matrix is read on its stored entries."""
    data = m.data if sparse.issparse(m) else m
    return float(np.max(np.abs(data))) if data.size else 0.0


def _comm(a, b):
    return a @ b - b @ a


def _rows(m):
    """Row index of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))


def _qnum_map(x, q):
    """sym_qnum over the array x, one scalar call per distinct value."""
    values, where = np.unique(x, return_inverse=True)
    return np.array([sym_qnum(v, q) for v in values])[where]


def verify_chevalley(gens: ChevalleyGenerators) -> ResidualReport:
    """Residuals of the defining relations on the sector.

    q = 1:  [h_i,h_j] = 0, [h_i,e_j] = (a_ij/2) e_j, [h_i,f_j] = -(a_ij/2) f_j,
            [e_i,f_j] = 2 h_i delta_ij.
    q != 1: k_i k_j = k_j k_i, k_i e_j k_i^-1 = q^(a_ij/2) e_j (and inverse
            power for f_j), [e_i,f_j] = delta_ij [2 h_i].

    Relations with a diagonal factor (h_i, k_i) are evaluated on the stored
    entries of e_j and f_j: entry (r, c) of d x - x d is d_r x_rc - x_rc d_c.
    """
    rep = ResidualReport(dim=gens.basis.dim)
    a = cartan_matrix(gens.n)
    r = gens.rank
    deformed = abs(gens.q - 1.0) >= Q_ONE_THRESHOLD
    hd = [g.matrix.diagonal() for g in gens.h]
    if deformed:
        kd = [g.matrix.diagonal() for g in gens.k]
        targets = [_diagonal(_qnum_map(2.0 * d, gens.q)) for d in hd]
    else:
        targets = [2.0 * g.matrix for g in gens.h]
    stored = [(_rows(x.matrix), x.matrix.indices, x.matrix.data) for x in gens.e + gens.f]
    for i in range(r):
        for j in range(r):
            er, ec, ex = stored[j]
            fr, fc, fx = stored[r + j]
            if not deformed:
                hi = hd[i]
                rep.add(f"[h{i+1},h{j+1}]", _maxabs(hi * hd[j] - hd[j] * hi))
                rep.add(f"[h{i+1},e{j+1}]", _maxabs(hi[er] * ex - ex * hi[ec] - 0.5 * a[i, j] * ex))
                rep.add(f"[h{i+1},f{j+1}]", _maxabs(hi[fr] * fx - fx * hi[fc] + 0.5 * a[i, j] * fx))
            else:
                ki = kd[i]
                rep.add(f"k{i+1}k{j+1}", _maxabs(ki * kd[j] - kd[j] * ki))
                conj_e = (ki[er] * ex) / ki[ec]
                rep.add(
                    f"k{i+1}e{j+1}k{i+1}^-1",
                    _maxabs(conj_e - gens.q ** (0.5 * a[i, j]) * ex),
                )
                conj_f = (ki[fr] * fx) / ki[fc]
                rep.add(
                    f"k{i+1}f{j+1}k{i+1}^-1",
                    _maxabs(conj_f - gens.q ** (-0.5 * a[i, j]) * fx),
                )
            comm = _comm(gens.e[i].matrix, gens.f[j].matrix)
            if i == j:
                comm = comm - targets[i]
            rep.add(f"[e{i+1},f{j+1}]", _maxabs(comm))
    return rep


def verify_serre(gens: ChevalleyGenerators) -> ResidualReport:
    """Residuals of the (q-)Serre relations for every ordered pair i != j.

    sum_{r+s=1-a_ij} (-1)^r C_q(1-a_ij, r) x_i^r x_j x_i^s = 0 for x = e and
    x = f, with q-binomials (ordinary binomials at q = 1).  Vacuous for rank 1.
    Each term is formed as ((coeff x_i^r) x_j) x_i^s.
    """
    rep = ResidualReport(dim=gens.basis.dim)
    r = gens.rank
    if r < 2:
        rep.vacuous = True
        return rep
    a = cartan_matrix(gens.n)
    identity = _diagonal(np.ones(gens.basis.dim))
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            order = 1 - a[i, j]
            for name, ops in (("e", gens.e), ("f", gens.f)):
                xi, xj = ops[i].matrix, ops[j].matrix
                powers = [identity, xi]
                while len(powers) <= order:
                    powers.append(powers[-1] @ xi)
                acc = sum(
                    (-1.0) ** rr * q_binomial(order, rr, gens.q) * powers[rr] @ xj @ powers[order - rr]
                    for rr in range(order + 1)
                )
                rep.add(f"serre_{name}{i+1}{name}{j+1}", _maxabs(acc))
    return rep


# ---------------------------------------------------------------------------
# deformed lattice oscillator on a truncated single-mode space
# ---------------------------------------------------------------------------


def al_oscillator_ops(n_max: int, gamma: float):
    """Truncated (n_max+1)-dim matrices (b, b', N) with b|n> = sqrt({n}) |n-1>."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
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
    """
    rep = ResidualReport(dim=n_max + 1)
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


def _raising_matrix(gens, chain="low"):
    """Root vectors E_ab for a < b from nested commutators of the e_i.

    E_{a,a+1} = e_a and E_ab = [E_ac, E_cb] with the intermediate index
    c = a+1 ("low") or c = b-1 ("high"); both chains give the same matrix in
    this realization, which verify code asserts.
    """
    n = gens.n
    E = [[None] * n for _ in range(n)]
    for a in range(n - 1):
        E[a][a + 1] = gens.e[a].matrix
    for span in range(2, n):
        for a in range(n - span):
            b = a + span
            c = a + 1 if chain == "low" else b - 1
            E[a][b] = _comm(E[a][c], E[c][b])
    return E


def _cartan_diagonal(gens):
    """Diagonals of the traceless weights eps_a: eps_a - eps_{a+1} = 2 h_a, sum eps_a = 0."""
    n = gens.n
    g = [2.0 * gens.h[i].matrix.diagonal() for i in range(n - 1)]
    tail = np.zeros(gens.basis.dim)
    eps = [None] * n
    mean = sum((k + 1) * g[k] for k in range(n - 1)) / n
    for a in range(n - 1, -1, -1):
        eps[a] = tail - mean
        if a > 0:
            tail = tail + g[a - 1]
    return eps


def casimir_matrix(gens: ChevalleyGenerators, p: int, chain: str = "low") -> SectorOperator:
    """Even-degree invariant C_2p = sum_a (M^p)_aa with M_ab = sum_c G_ac G_cb.

    G is the full n x n generator matrix: nested-commutator root vectors
    above the diagonal, their adjoints below, and the traceless Cartan
    weights eps_a on the diagonal.  The diagonal entries are required for
    centrality; without them the contraction fails to commute with e_i.
    Only the diagonal blocks of the last product M^(p-1) M are formed.
    Supported for the undeformed algebra only (gens.q = 1).
    """
    if p < 1 or int(p) != p:
        raise ValueError(f"p must be a positive integer, got {p}")
    if abs(gens.q - 1.0) >= Q_ONE_THRESHOLD:
        raise ValueError("casimir_matrix supports only the undeformed algebra (q = 1)")
    G = _generator_matrix(gens, chain)
    if p == 1:
        left = right = G
    else:
        right = _opmat_mul(G, G)
        left = right
        for _ in range(int(p) - 2):
            left = _opmat_mul(left, right)
    return SectorOperator(gens.basis, _diagonal_block_sum(left, right))


def _generator_matrix(gens, chain="low"):
    """The n x n operator matrix G of casimir_matrix: E_ab above the
    diagonal, E_ab' below it, diag(eps_a) on it."""
    n = gens.n
    E = _raising_matrix(gens, chain)
    eps = _cartan_diagonal(gens)
    G = [[None] * n for _ in range(n)]
    for a in range(n):
        G[a][a] = _diagonal(eps[a])
        for b in range(a + 1, n):
            G[a][b] = E[a][b]
            G[b][a] = E[a][b].T.tocsr()
    return G


def _diagonal_block_sum(A, B):
    """sum_a (A B)_aa over the operator-matrix product A B."""
    return sum(_block_product(A, B, a, a) for a in range(len(A)))


def _block_product(A, B, a, b):
    """Block (a, b) of the operator-matrix product A B."""
    return sum(A[a][c] @ B[c][b] for c in range(len(A)))


def _opmat_mul(A, B):
    n = len(A)
    return [[_block_product(A, B, a, b) for b in range(n)] for a in range(n)]


def su2_casimir(gens: ChevalleyGenerators) -> SectorOperator:
    """Quadratic su(2) invariant J0 (J0 - 1) + J+ J-, eigenvalue j(j+1)."""
    if gens.rank != 1:
        raise ValueError("su2_casimir needs rank-1 generators (two sites)")
    j0 = gens.h[0].matrix.diagonal()
    c = _diagonal(j0 * (j0 - 1.0)) + gens.e[0].matrix @ gens.f[0].matrix
    return SectorOperator(gens.basis, c)


def suq2_casimir(gens: ChevalleyGenerators, q: float) -> SectorOperator:
    """Quadratic su_q(2) invariant [J0][J0 - 1] + J+ J-, eigenvalue [j][j+1]."""
    if gens.rank != 1:
        raise ValueError("suq2_casimir needs rank-1 generators (two sites)")
    m = gens.h[0].matrix.diagonal()
    c = _diagonal(_qnum_map(m, q) * _qnum_map(m - 1.0, q)) + gens.e[0].matrix @ gens.f[0].matrix
    return SectorOperator(gens.basis, c)


# ---------------------------------------------------------------------------
# number reconstruction from the Cartan generators
# ---------------------------------------------------------------------------


def omega_matrix(n: int) -> np.ndarray:
    """Difference-plus-total matrix: rows i < n carry (1, -1) at (i, i+1),
    the last row is all ones.  Applied to (N_1..N_n) it yields the n - 1
    differences N_i - N_{i+1} and the total number."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    om = np.zeros((n, n))
    for i in range(n - 1):
        om[i, i] = 1.0
        om[i, i + 1] = -1.0
    om[n - 1, :] = 1.0
    if abs(np.linalg.det(om)) < 0.5:
        raise RuntimeError("omega matrix unexpectedly singular")
    return om


def verify_number_reconstruction(basis: FockSectorBasis) -> ResidualReport:
    """Residual of N_i = sum_j (Omega^-1)_ij (2 h_j) + (Omega^-1)_in h.

    h_j = (N_j - N_{j+1})/2 feeds the difference rows of Omega through the
    factor 2, and h = sum N_i is the sector total.  Exact by linear algebra,
    asserted entrywise on the sector; every operator involved is diagonal,
    so the identity is checked on the diagonals.
    """
    n = basis.n_sites
    gens = su_n_generators(basis)
    om_inv = np.linalg.inv(omega_matrix(n))
    total = np.full(basis.dim, float(basis.total_quanta))
    rep = ResidualReport(dim=basis.dim)
    for i in range(n):
        recon = om_inv[i, n - 1] * total
        for jx in range(n - 1):
            recon = recon + om_inv[i, jx] * (2.0 * gens.h[jx].matrix.diagonal())
        rep.add(f"N{i+1}", _maxabs(number_operator(basis, i + 1).matrix.diagonal() - recon))
    return rep
