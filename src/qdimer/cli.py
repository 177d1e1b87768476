"""Command-line front end emitting deterministic CSV.

Subcommands: spectrum (one dimer eigensystem), sweep (eigenvalues over a
nonlinearity grid), gaps (pair-gap log-log analysis of the physical
spectrum), quanta-scan (lowest absolute levels versus sector size), verify
(self-check suites with machine-readable pass/fail lines; the wall time of
each suite goes to stderr as a `# suite=<name> wall_s=<t>` line).

Every CSV starts with a `# key=value` parameter echo followed by a column
header; numeric cells carry 17 significant digits and lines end with a
bare newline, so identical flags reproduce byte-identical files.  The raw
dimer eigenvalues are emitted together with the recorded energy_scale and
energy_shift constants, from which absolute chain energies are
scale * lam + shift; gaps and quanta-scan work on those absolute energies.
A command raises ValueError for an input it refuses, and so does the library
for one it cannot handle; main turns either into a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np

from . import __version__
from .dimer import MODELS, build_dimer, build_dimer_grid
from .fock_algebra import (
    al_oscillator_ops,
    build_sector_basis,
    su_n_generators,
    suq_n_generators,
    verify_al_relations,
    verify_chevalley,
    verify_number_reconstruction,
    verify_serre,
)
from .invariants import conservation_suite
from .qnumbers import q_from_gamma
from .spectral import (
    dense_oracle,
    eigenvalues_batch,
    eigenvalues_bisection,
    parity_structure_check,
    solve_spectrum,
)


def _checked(cast, ok, what):
    """argparse type: the text cast, refused with `must be <what>` where ok
    fails, so a bad value is a usage error (exit 2)."""

    def parse(text):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = cast.__name__  # named in argparse's "invalid float value"
    return parse


_FINITE = _checked(float, math.isfinite, "finite")
_POSITIVE = _checked(float, lambda x: 0.0 < x < math.inf, "positive and finite")
_NATURAL = _checked(int, lambda n: n >= 0, ">= 0")
_COUNT = _checked(int, lambda n: n >= 1, ">= 1")


def _fmt(x) -> str:
    """A string as it is, a number as %.17g, as _table writes its cells."""
    return x if isinstance(x, str) else format(float(x), ".17g")


def _echo(args, keys, *extra) -> str:
    """`# key=value` line: the named arguments, the extra pairs, then version."""
    pairs = [(k, getattr(args, k)) for k in keys.split()]
    pairs += [*extra, ("version", __version__)]
    return "# " + " ".join(f"{k}={_fmt(v)}" for k, v in pairs)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _table(args, echo, header, rows, tail=()) -> int:
    """Write the echo, the header and one line per row, then tail.  Every row
    is one %-format of .17g cells, which writes a float as _fmt does and an
    integer below 2^53 as str(int)."""
    line = ",".join(["%.17g"] * len(header))
    _emit([echo, ",".join(header), *(line % tuple(row) for row in rows), *tail], args.out)
    return 0


def _lowest_levels(Hs, count, tol):
    """The count lowest physical levels of each H, ascending: both models
    have energy_scale < 0, so these are H's top count roots."""
    return [np.sort(H.to_physical(evs))[:count]
            for H, evs in zip(Hs, eigenvalues_batch(Hs, tol, top=count))]


def cmd_spectrum(args) -> int:
    H = build_dimer(args.model, args.two_j, args.gamma, args.epsilon)
    spec = solve_spectrum(H, args.tol)
    echo = _echo(args, "command model two_j gamma epsilon tol",
                 ("energy_scale", H.energy_scale), ("energy_shift", H.energy_shift))
    rows = zip(range(spec.dim), spec.eigenvalues, spec.norm_constants)
    return _table(args, echo, ["index", "eigenvalue", "norm_constant"], rows)


def _gamma_grid(args):
    if not args.gamma_min < args.gamma_max:
        raise ValueError("--gamma-min must be below --gamma-max")
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    if args.scale == "log":
        if args.gamma_min <= 0.0:
            raise ValueError("log scale requires --gamma-min > 0")
        return np.geomspace(args.gamma_min, args.gamma_max, args.steps)
    return np.linspace(args.gamma_min, args.gamma_max, args.steps)


def cmd_sweep(args) -> int:
    grid = _gamma_grid(args)
    Hs = build_dimer_grid(args.model, args.two_j, grid.tolist(), args.epsilon)
    rows = [[g, H.energy_scale, H.energy_shift, *evs]
            for g, H, evs in zip(grid, Hs, eigenvalues_batch(Hs, args.tol))]
    header = ["gamma", "energy_scale", "energy_shift"]
    header += [f"ev_{i}" for i in range(args.two_j + 1)]
    echo = _echo(args, "command model two_j gamma_min gamma_max steps scale epsilon tol")
    return _table(args, echo, header, rows)


def cmd_gaps(args) -> int:
    grid = _gamma_grid(args)
    dim = args.two_j + 1
    if 2 * args.pairs > dim:
        raise ValueError(f"--pairs {args.pairs} out of range for dimension {dim}")

    Hs = build_dimer_grid(args.model, args.two_j, grid.tolist(), args.epsilon)
    levels = np.array(_lowest_levels(Hs, 2 * args.pairs, args.tol))
    gaps = levels[:, 1::2] - levels[:, ::2]
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_g = np.log(grid)
        ln_gap = np.log(gaps)
        # a pair that collapses exactly has ln_gap = -inf, and gamma <= 0 a
        # non-finite ln_gamma; y is nan there, so is every difference over it
        y = np.where(np.isfinite(ln_gap) & np.isfinite(ln_g)[:, None], ln_gap, np.nan)
        span = (ln_g[2:] - ln_g[:-2])[:, None]
        slope = np.full_like(gaps, np.nan)
        slope[1:-1] = (y[2:] - y[:-2]) / span
        # second divided difference: steepest change of the log-log slope
        chord = np.diff(y, axis=0) / np.diff(ln_g)[:, None]
        curvature = np.full_like(gaps, np.nan)
        curvature[1:-1] = 2.0 * (chord[1:] - chord[:-1]) / span
    finite = np.isfinite(curvature)
    best = np.argmax(np.where(finite, np.abs(curvature), -np.inf), axis=0)
    steepest = np.where(finite.any(axis=0), grid[best], np.nan)

    header = ["gamma", "ln_gamma"]
    for k in range(1, args.pairs + 1):
        header += [f"gap_{k}", f"ln_gap_{k}", f"slope_{k}"]
    cells = np.stack([gaps, ln_gap, slope], axis=2).reshape(len(grid), -1)
    rows = np.column_stack([grid, ln_g, cells])
    tail = [f"# steepest_change pair={k} gamma={_fmt(g)}"
            for k, g in enumerate(steepest, 1)]
    echo = _echo(args, "command model two_j pairs gamma_min gamma_max steps scale "
                 "epsilon tol")
    return _table(args, echo, header, rows, tail)


def cmd_quanta_scan(args) -> int:
    sizes = range(1, args.two_j_max + 1)
    Hs = [build_dimer(args.model, two_j, args.gamma, args.epsilon) for two_j in sizes]
    rows = []
    for two_j, H, phys in zip(sizes, Hs, _lowest_levels(Hs, args.levels, args.tol)):
        rows.append([two_j, H.dim, *np.pad(phys, (0, args.levels - phys.size),
                                           constant_values=np.nan)])
    header = ["two_j", "dim"] + [f"level_{i}" for i in range(1, args.levels + 1)]
    echo = _echo(args, "command model gamma epsilon two_j_max levels tol")
    return _table(args, echo, header, rows)

# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class _Checks:
    def __init__(self):
        self.lines = []
        self.failed = False

    def add(self, name, value, tol):
        ok = value <= tol
        self.failed |= not ok
        word = "PASS" if ok else "FAIL"
        self.lines.append(f"{word} {name} value={value:.3e} tol={tol:.3e}")


# the couplings of the su_q(n) relation checks and the conservation checks
_COUPLINGS = (0.5, 2.0, 8.0)


def _verify_algebra(checks, m_max):
    for n_sites in (2, 3):
        basis = build_sector_basis(n_sites, m_max)
        gens, tol = su_n_generators(basis), 1e-12 * basis.dim
        packs = [(f"su{n_sites}.M{m_max}", gens)] + [
            (f"suq{n_sites}.M{m_max}.g{gamma:g}", suq_n_generators(basis, q_from_gamma(gamma).q))
            for gamma in _COUPLINGS]
        for name, g in packs:
            checks.add(f"algebra.chevalley.{name}", verify_chevalley(g).max_residual, tol)
            rep = verify_serre(g)
            if not rep.vacuous:
                checks.add(f"algebra.serre.{name}", rep.max_residual, tol)
        qone = suq_n_generators(basis, 1.0)
        worst = 0.0
        for a, b in zip(gens.e + gens.f + gens.h, qone.e + qone.f + qone.h):
            worst = max(worst, float(np.max(np.abs(a.amp - b.amp))))
        checks.add(f"algebra.q_one_degeneration.n{n_sites}.M{m_max}", worst, 1e-14)
        rec = verify_number_reconstruction(basis)
        checks.add(f"algebra.number_reconstruction.n{n_sites}.M{m_max}", rec.max_residual, 1e-12)
    for gamma in (0.0, 2.0, 8.0):
        b, bd, n_op = al_oscillator_ops(20, gamma)
        rep = verify_al_relations(b, bd, n_op, gamma, 20)
        checks.add(f"algebra.al_oscillator.g{gamma:g}", rep.max_residual, 1e-10)


def _verify_spectral(checks, two_j_max, cases):
    rng = np.random.default_rng(1729)
    Hs = []
    for _ in range(cases):
        model = MODELS[int(rng.integers(0, 2))]
        two_j = int(rng.integers(1, two_j_max + 1))
        gamma = float(rng.uniform(0.0, 10.0))
        Hs.append(build_dimer(model, two_j, gamma))
    worst = 0.0
    for H, evs in zip(Hs, eigenvalues_batch(Hs, 1e-12)):
        ref = dense_oracle(H).eigenvalues
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst = max(worst, float(np.max(np.abs(evs - ref))) / scale)
    checks.add(f"spectral.oracle_equivalence.cases{cases}", worst, 1e-10)

    worst = 0.0
    for model in MODELS:
        H = build_dimer(model, 12, 0.0)
        evs = eigenvalues_bisection(H, 1e-14)
        expect = np.array([2.0 * (k - 6.0) for k in range(13)])
        worst = max(worst, float(np.max(np.abs(evs - expect))))
    checks.add("spectral.linear_limit.two_j12", worst, 1e-12)

    worst = 0.0
    structure_ok = True
    for two_j in range(1, 13):
        for gamma in (0.5, 2.0, 8.0):
            H = build_dimer("al", two_j, gamma)
            for spec in (solve_spectrum(H), dense_oracle(H)):
                rep = parity_structure_check(spec)
                worst = max(worst, rep.max_pair_residual)
                structure_ok &= rep.zero_count == rep.expected_zero_count
    checks.add("spectral.parity_antisymmetry", worst, 1e-10)
    checks.add("spectral.parity_zero_structure", 0.0 if structure_ok else 1.0, 0.0)


def _verify_conservation(checks, m_max):
    for gamma in _COUPLINGS:
        for n_sites, quanta in ((3, m_max), (2, 8)):
            rep = conservation_suite(n_sites, quanta, gamma)
            for label, norm, tol, _ in rep.pairs:
                checks.add(f"conservation.{rep.context}.{label}", norm, tol)


def cmd_verify(args) -> int:
    checks = _Checks()
    suites = (
        ("algebra", lambda: _verify_algebra(checks, args.m_max)),
        ("spectral", lambda: _verify_spectral(checks, args.two_j_max, args.cases)),
        ("conservation", lambda: _verify_conservation(checks, args.m_max)),
    )
    for name, run in suites:
        if args.suite in (name, "all"):
            start = time.perf_counter()
            run()
            sys.stderr.write(f"# suite={name} wall_s={time.perf_counter() - start:.3f}\n")
    _emit(checks.lines, args.out)
    return 1 if checks.failed else 0


def _add_common(p, need_two_j=True):
    if need_two_j:
        p.add_argument("--two-j", dest="two_j", type=_NATURAL, required=True,
                       help="twice the sector spin (dimension minus one)")
    p.add_argument("--model", choices=MODELS, default="dnls")
    p.add_argument("--epsilon", type=_FINITE, default=1.0,
                   help="hopping strength (dnls only)")
    p.add_argument("--tol", type=_POSITIVE, default=1e-12,
                   help="a root is done once its Newton step is at most "
                        "max(tol, 4 eps |lambda|) in the units of H; tol is relative to H's "
                        "largest entry when that entry is below 1 (spectrum: at most 1e-10)")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def _add_grid(p):
    p.add_argument("--gamma-min", dest="gamma_min", type=_FINITE, default=0.5)
    p.add_argument("--gamma-max", dest="gamma_max", type=_FINITE, default=10.0)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--scale", choices=("linear", "log"), default="log")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qdimer parser, built once per process: parsing leaves it as it
    is, and each subcommand's cmd_* function looks the library's names up
    when it runs."""
    parser = argparse.ArgumentParser(
        prog="qdimer",
        description="Dimer spectra, symmetry checks, and CSV sweeps",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and norm constants of one dimer")
    _add_common(p)
    p.add_argument("--gamma", type=_FINITE, required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="eigenvalue table over a nonlinearity grid")
    _add_common(p)
    _add_grid(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gaps", help="pair gaps of the physical spectrum, log-log")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--pairs", type=_COUNT, default=2)
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("quanta-scan", help="lowest levels versus sector size")
    _add_common(p, need_two_j=False)
    p.set_defaults(model="al")
    p.add_argument("--gamma", type=_FINITE, default=2.0)
    p.add_argument("--two-j-max", dest="two_j_max", type=_COUNT, default=8)
    p.add_argument("--levels", type=_COUNT, default=4)
    p.set_defaults(func=cmd_quanta_scan)

    p = sub.add_parser("verify", help="self-check suites")
    p.add_argument("--suite", choices=("algebra", "spectral", "conservation", "all"),
                   default="all")
    p.add_argument("--two-j-max", dest="two_j_max", type=_COUNT, default=40)
    p.add_argument("--m-max", dest="m_max", type=_NATURAL, default=4)
    p.add_argument("--cases", type=_COUNT, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # every refusal, the library's included
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
