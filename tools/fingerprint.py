"""Print one SHA-256 per group of qdimer's outputs, to show that a change
leaves them bitwise as they were.

Run it against two source trees and compare the two listings:

    PYTHONPATH=<old checkout>/src python tools/fingerprint.py > before.txt
    PYTHONPATH=src python tools/fingerprint.py > after.txt
    diff before.txt after.txt

It calls the public API only (the names `qdimer` exports and the command
line's `qdimer.cli.main`), so it runs on older trees too, except where a
call form it uses has changed: there, compare the older tree's own copy of
this tool on that tree with this one on the new tree.  A call that
raises is hashed as its exception type and message; refusals of invalid
input have a group of their own, so a changed error text shows there
alone, and so do the residuals of the spectral checks (`checks`), so the
`spectra` group holds the solvers' outputs only.  Arrays are hashed with
their dtype and shape, floats exactly.
It takes about 2 s on a 2-core host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import warnings

import numpy as np

import qdimer
from qdimer.cli import main as cli_main

# the gamma grids of the eigenvalue groups, and the sector sizes of each model
GRIDS = (np.geomspace(0.05, 12.0, 16), np.linspace(0.5, 10.0, 16))
BATCH_TWO_J = {"dnls": (1, 2, 7, 40, 100, 200), "al": (1, 2, 8, 41, 101, 131)}

# README's commands, the benchmark's seven sweep/gaps shapes, verify and
# two usage errors
CLI_COMMANDS = (
    "spectrum --model al --two-j 2 --gamma 2",
    "spectrum --model dnls --two-j 40 --gamma 3.5",
    "sweep --model dnls --two-j 6 --gamma-min 2 --gamma-max 10 --steps 20",
    "gaps --model dnls --two-j 6 --pairs 2 --gamma-min 2 --gamma-max 10",
    "quanta-scan --gamma 2 --two-j-max 8 --levels 4",
    *(f"{cmd} --model {model} --two-j {two_j} --steps 16 --gamma-min 0.5 --gamma-max 10"
      for cmd, model, two_j in (("sweep", "dnls", 100), ("gaps", "dnls", 100),
                                ("gaps", "al", 101), ("sweep", "al", 101), ("gaps", "al", 105),
                                ("gaps", "dnls", 200), ("sweep", "al", 131))),
    "gaps --model al --two-j 41 --pairs 3 --steps 12 --scale linear",
    "verify --suite all",
    "verify --suite algebra --m-max 12",
    "verify --suite conservation --m-max 8",
    "sweep --model al --two-j 4 --epsilon 2",
    "spectrum --model dnls --two-j 4 --gamma 1 --tol 1e-6",
)


def _bytes(x) -> bytes:
    if isinstance(x, np.ndarray):
        return f"{x.dtype.str}{x.shape}".encode() + np.ascontiguousarray(x).tobytes()
    if isinstance(x, float):
        return x.hex().encode()
    if isinstance(x, (list, tuple)):
        return b"[" + b",".join(map(_bytes, x)) + b"]"
    if isinstance(x, dict):
        return _bytes(sorted(x.items()))
    return repr(x).encode()


class Group:
    """A running SHA-256 over the items added, each framed by its length."""

    def __init__(self, name):
        self.name, self.items, self.sha = name, 0, hashlib.sha256()

    def add(self, *items):
        for x in items:
            data = _bytes(x)
            self.sha.update(len(data).to_bytes(8, "little") + data)
            self.items += 1

    def line(self) -> str:
        return f"{self.name:<14} {self.items:>6} {self.sha.hexdigest()}"


def attempt(f, *args, **kwargs):
    """f(*args, **kwargs), or the text of the exception it raises."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - a refusal is an output too
        return f"{type(exc).__name__}: {exc}"


def builders(g):
    for model in qdimer.MODELS:
        for two_j in (0, 1, 2, 3, 10, 41, 100, 300, 512):
            for gamma in (0.0, 0.3, 2.0, 9.5, 30.0):
                H = attempt(qdimer.build_dimer, model, two_j, gamma)
                if isinstance(H, str):
                    g.add(H)
                    continue
                g.add(H.diag, H.off, H.energy_scale, H.energy_shift,
                      H.to_physical(np.linspace(-1.0, 1.0, 5)))
    for two_j, gamma, epsilon in ((5, 2.0, 0.5), (40, -1.0, 1.0), (60, 4.0, 3.0)):
        H = qdimer.build_qdnls_dimer(two_j, gamma, epsilon)
        g.add(H.diag, H.off, H.energy_scale, H.energy_shift)
    g.add([qdimer.gershgorin_bounds(H.diag, H.off) for H in
           (qdimer.build_dimer(m, 20, 3.0) for m in qdimer.MODELS)])


def refusals(g):
    cases = (("dnls", 2.0, 1.0), ("al", 2.0, 1.0), ("al", np.float64(3.0), 1.0),
             ("dnls", True, 1.0), ("dnls", -1, 1.0), ("dnls", 5, float("nan")),
             ("al", 513, 0.25), ("al", 512, 30.1), ("dnls", 10**160, 1e300), ("xx", 3, 1.0))
    for model, two_j, gamma in cases:
        g.add(attempt(lambda: qdimer.build_dimer(model, two_j, gamma).off))
    g.add(attempt(qdimer.build_dimer, "al", 3, 1.0, 2.0))
    for n, m in ((2, True), (True, 3), (2.0, 3), (0, 3), (2, -1), (3, 1999)):
        g.add(attempt(lambda: qdimer.build_sector_basis(n, m).occupations))
    H = qdimer.build_dimer("dnls", 10, 1.0)
    for top in (True, -1, 2.5):
        g.add(attempt(qdimer.eigenvalues_batch, [H], 1e-12, top))
    g.add(attempt(qdimer.solve_spectrum, H, 1e-6))
    inf, nan = float("inf"), float("nan")
    for f, args in ((qdimer.q_from_gamma, (inf,)), (qdimer.q_from_gamma, (nan,)),
                    (qdimer.basic_qnum, (2, inf)), (qdimer.basic_qnum, (inf, 2.0)),
                    (qdimer.sym_qnum, (2, inf)), (qdimer.sym_qnum, (inf, 0.5)),
                    (qdimer.sym_qnum, (nan, 0.5)), (qdimer.q_binomial, (3, 1, inf)),
                    (qdimer.conservation_suite, (2, 3, inf)), (qdimer.basic_qnum, (10**400, 0.0)),
                    (qdimer.basic_qnum, (69_300_000_000, 2e-8)), (qdimer.sym_qnum, (10**400, 0.5)),
                    (qdimer.q_binomial, (10**400, 1, 0.5)), (qdimer.q_binomial, (2000, 1000, 1.0)),
                    (qdimer.basic_qnum, (10**5000, 2.0)), (qdimer.sym_qnum, (10**5000, 0.5)),
                    (qdimer.q_binomial, (10**5000, 1, 0.5))):
        g.add(attempt(f, *args))
    gens = qdimer.su_n_generators(qdimer.build_sector_basis(3, 2))
    for p in (True, 2.0, 0):
        g.add(attempt(lambda: qdimer.casimir_matrix(gens, p).amp))
    b = qdimer.build_sector_basis(3, 2)
    for i, j in ((1.0, 2), (2, 1.5), (True, 2), (0, 2), (1, 4), (1, 1)):
        g.add(attempt(lambda: qdimer.hop_operator(b, i, j).amp))
    for i in (1.5, True, 0):
        g.add(attempt(lambda: qdimer.number_operator(b, i).amp))
    for n in (2.5, 2.0, True, 0):
        g.add(attempt(qdimer.al_oscillator_ops, n, 1.0), attempt(qdimer.cartan_matrix, n),
              attempt(qdimer.omega_matrix, n))
    for gamma, epsilon in ((nan, 1.0), (inf, 1.0), (2.0, nan), (2.0, -inf)):
        g.add(attempt(lambda: qdimer.build_qdnls_chain(b, gamma, epsilon).toarray()))
    for gamma in (0.0, 1.0):  # a zero and a nonzero dnls diagonal
        s = qdimer.solve_spectrum(qdimer.build_dimer("dnls", 4, gamma))
        g.add(attempt(_parity, s))
    for gamma in (nan, -inf):
        for f, args in ((qdimer.q_from_gamma, ()), (qdimer.basic_qnum, (2,)),
                        (qdimer.al_hop_operator, (b, 1, 2)), (qdimer.al_oscillator_ops, (5,)),
                        (qdimer.build_qal_chain, (b,)), (qdimer.conservation_suite, (2, 3))):
            g.add(attempt(f, *args, gamma))
    ops = qdimer.al_oscillator_ops(6, 2.0)
    for gamma, n_max in ((2.0, 3), (2.0, 7), (2.0, 2.5), (2.0, True), (2.0, 0),
                         (nan, 6), (inf, 6), (-1.0, 6)):
        g.add(attempt(lambda: _report(qdimer.verify_al_relations(*ops, gamma, n_max))))


def batch(g):
    for model, levels in BATCH_TWO_J.items():
        for two_j in levels:
            for grid in GRIDS:
                Hs = [qdimer.build_dimer(model, two_j, float(x)) for x in grid]
                g.add(qdimer.eigenvalues_batch(Hs), qdimer.eigenvalues_batch(Hs, top=4))
    H = qdimer.build_dimer("al", 61, 4.0)
    g.add(qdimer.eigenvalues_bisection(H), qdimer.eigenvalues_bisection(H, 1e-8),
          qdimer.eigenvalues_batch([H] * 3, 1e-10, top=1))
    # top-k where the top root's parity block depends on the dimension
    # (epsilon < 0), where every coupling is zero (epsilon 0), and off
    # persymmetry (one diagonal entry moved)
    for epsilon in (-1.0, 0.0, 0.3):
        for two_j in (7, 40, 100, 101):
            Hs = [qdimer.build_dimer("dnls", two_j, float(x), epsilon) for x in GRIDS[0]]
            g.add(*(qdimer.eigenvalues_batch(Hs, top=k) for k in (1, 3, 4)))
    H = qdimer.build_dimer("dnls", 40, 3.0)
    H.diag[5] += 1e-9
    g.add(*(qdimer.eigenvalues_batch([H], top=k) for k in (1, 3, 4)))


def spectra(g):
    rng = np.random.default_rng(2024)
    Hs = [qdimer.build_dimer(qdimer.MODELS[i % 2], int(rng.integers(1, 301)),
                             float(rng.uniform(0.0, 10.0))) for i in range(24)]
    Hs += [qdimer.build_dimer(m, t, 2.0) for m in qdimer.MODELS for t in (1, 2, 19, 20)]
    for H in Hs:
        s = qdimer.solve_spectrum(H)
        g.add(s.eigenvalues, s.vectors, s.norm_constants, s.vector_method)
    d = qdimer.dense_oracle(qdimer.build_dimer("dnls", 12, 3.0))
    g.add(d.eigenvalues, d.vectors)


def checks(g):
    s = qdimer.solve_spectrum(qdimer.build_dimer("dnls", 12, 3.0))
    g.add(qdimer.completeness_check(s), qdimer.df_orthonormality_check(s.hamiltonian))
    for two_j in (11, 12):
        s = qdimer.solve_spectrum(qdimer.build_dimer("al", two_j, 3.0))
        g.add(_parity(s))


def fock(g):
    sectors = [(n, m) for n in range(1, 7) for m in range(9)]
    sectors += [(2, 5000), (3, 300), (4, 40), (10, 6), (20, 3), (40, 2), (63, 1)]
    sectors.append((3, 400))  # past one run of the build's state decoding
    for n, m in sectors:
        b = qdimer.build_sector_basis(n, m)
        g.add(b.dim, b.occupations, b.positions(b.occupations))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j and (n <= 6 or abs(i - j) == 1):
                    for op in (qdimer.hop_operator(b, i, j),
                               qdimer.al_hop_operator(b, i, j, 0.05)):
                        g.add(op.delta, op.dst, op.amp)
        for i in range(1, n + 1):
            g.add(qdimer.number_operator(b, i).amp)
    b = qdimer.build_sector_basis(3, 4)
    op = qdimer.hop_operator(b, 1, 3)
    g.add(op.matrix.toarray(), op.T.amp, (op @ op.T).amp)
    for n in range(2, 12):
        g.add(qdimer.cartan_matrix(n), qdimer.omega_matrix(n))
    for n_max, gamma in ((6, 0.0), (20, 2.0)):
        g.add(*qdimer.al_oscillator_ops(n_max, gamma))


def _parity(s):
    """The parity report's fields, with its derived verdict."""
    rep = qdimer.parity_structure_check(s)
    return {**vars(rep), "passed": rep.passed}


def _report(rep):
    return [rep.entries, rep.vacuous, rep.max_residual]


def algebra(g):
    # 3 sites at M 130 span two runs of the checks' passes
    for n, m in ((2, 0), (2, 5), (2, 12), (3, 1), (3, 6), (3, 16), (4, 4), (5, 2), (3, 130)):
        b = qdimer.build_sector_basis(n, m)
        for gens in (qdimer.su_n_generators(b), qdimer.suq_n_generators(b, 0.7)):
            g.add(_report(qdimer.verify_chevalley(gens)), _report(qdimer.verify_serre(gens)))
            g.add([x.amp for x in gens.e + gens.f + gens.h + (gens.k or ())])
        gens = qdimer.su_n_generators(b)
        g.add(qdimer.casimir_matrix(gens, 1).amp, qdimer.casimir_matrix(gens, 2).amp,
              _report(qdimer.verify_number_reconstruction(b)))
        if n == 2:
            for q in (1.0, 0.7):
                g.add(qdimer.suq2_casimir(qdimer.suq_n_generators(b, q)).amp)
    for gamma in (0.0, 2.0, 8.0):
        g.add(_report(qdimer.verify_al_relations(*qdimer.al_oscillator_ops(20, gamma), gamma, 20)))
    for n, m, gamma in ((2, 5, 2.0), (2, 21, 8.0), (3, 4, 0.5), (3, 11, 8.0), (4, 3, 2.0),
                        (4, 7, 8.0)):
        rep = qdimer.conservation_suite(n, m, gamma)
        g.add(rep.context, rep.pairs)
        b = qdimer.build_sector_basis(n, m)
        g.add(qdimer.build_qdnls_chain(b, gamma).toarray(), qdimer.build_qal_chain(b, gamma).toarray())


def cli(g):
    for command in CLI_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(command.split())
            except SystemExit as exc:
                code = exc.code
        # stderr holds verify's wall times, also when a check fails (exit 1),
        # so only a refusal's text (exit 2) is kept
        g.add(command, code, out.getvalue(), err.getvalue() if code == 2 else "")


def main():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, fill in (("builders", builders), ("refusals", refusals), ("batch", batch),
                           ("spectra", spectra), ("checks", checks), ("fock", fock),
                           ("algebra", algebra), ("cli", cli)):
            g = Group(name)
            fill(g)
            print(g.line(), flush=True)


if __name__ == "__main__":
    main()
