"""Command-line front end emitting deterministic CSV.

Subcommands: spectrum (one dimer eigensystem), sweep (eigenvalues over a
nonlinearity grid), gaps (pair-gap log-log analysis of the physical
spectrum), quanta-scan (lowest absolute levels versus sector size), verify
(self-check suites with machine-readable pass/fail lines).

Every CSV starts with a `# key=value` parameter echo followed by a column
header; numeric cells carry 17 significant digits and lines end with a
bare newline, so identical flags reproduce byte-identical files.  The raw
dimer eigenvalues are emitted together with the recorded energy_scale and
energy_shift constants, from which absolute chain energies are
scale * lam + shift; gaps and quanta-scan work on those absolute energies.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .dimer import MODELS, build_dimer
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
from .qnumbers import basic_qnum, q_from_gamma
from .spectral import (
    dense_oracle,
    eigenvalues_bisection,
    parity_structure_check,
    solve_spectrum,
)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _echo(pairs) -> str:
    return "# " + " ".join(f"{k}={_fmt(v)}" for k, v in pairs)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _check_epsilon(parser, args):
    if args.model == "al" and args.epsilon != 1.0:
        parser.error("--epsilon applies to the dnls model only")
    if args.model == "al" and getattr(args, "gamma", 0.0) < 0.0:
        parser.error("the al model requires --gamma >= 0")


def cmd_spectrum(parser, args) -> int:
    _check_epsilon(parser, args)
    H = build_dimer(args.model, args.two_j, args.gamma, args.epsilon)
    spec = solve_spectrum(H, args.tol)
    lines = [
        _echo(
            [
                ("command", "spectrum"),
                ("model", args.model),
                ("two_j", args.two_j),
                ("gamma", args.gamma),
                ("epsilon", args.epsilon),
                ("tol", args.tol),
                ("energy_scale", H.energy_scale),
                ("energy_shift", H.energy_shift),
                ("version", __version__),
            ]
        ),
        "index,eigenvalue,norm_constant",
    ]
    for i in range(spec.dim):
        lines.append(
            f"{i},{_fmt(spec.eigenvalues[i])},{_fmt(spec.norm_constants[i])}"
        )
    _emit(lines, args.out)
    return 0


def _gamma_grid(parser, args):
    if not args.gamma_min < args.gamma_max:
        parser.error("--gamma-min must be below --gamma-max")
    if args.steps < 2:
        parser.error("--steps must be at least 2")
    if args.model == "al" and args.gamma_min < 0.0:
        parser.error("the al model requires --gamma-min >= 0")
    if args.scale == "log":
        if args.gamma_min <= 0.0:
            parser.error("log scale requires --gamma-min > 0")
        return np.geomspace(args.gamma_min, args.gamma_max, args.steps)
    return np.linspace(args.gamma_min, args.gamma_max, args.steps)


def cmd_sweep(parser, args) -> int:
    _check_epsilon(parser, args)
    grid = _gamma_grid(parser, args)

    def one(g):
        H = build_dimer(args.model, args.two_j, float(g), args.epsilon)
        return H, eigenvalues_bisection(H, args.tol)

    results = [one(g) for g in grid]

    dim = args.two_j + 1
    lines = [
        _echo(
            [
                ("command", "sweep"),
                ("model", args.model),
                ("two_j", args.two_j),
                ("gamma_min", args.gamma_min),
                ("gamma_max", args.gamma_max),
                ("steps", args.steps),
                ("scale", args.scale),
                ("epsilon", args.epsilon),
                ("tol", args.tol),
                ("version", __version__),
            ]
        ),
        "gamma,energy_scale,energy_shift,"
        + ",".join(f"ev_{i}" for i in range(dim)),
    ]
    for g, (H, evs) in zip(grid, results):
        cells = [g, H.energy_scale, H.energy_shift, *evs]
        lines.append(",".join(_fmt(c) for c in cells))
    _emit(lines, args.out)
    return 0


def cmd_gaps(parser, args) -> int:
    _check_epsilon(parser, args)
    grid = _gamma_grid(parser, args)
    dim = args.two_j + 1
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if 2 * args.pairs > dim:
        parser.error(
            f"--pairs {args.pairs} out of range for dimension {dim}"
        )

    def one(g):
        H = build_dimer(args.model, args.two_j, float(g), args.epsilon)
        evs = eigenvalues_bisection(H, args.tol)
        return np.sort(H.to_physical(evs))

    spectra = [one(g) for g in grid]

    npairs = args.pairs
    gaps = np.empty((len(grid), npairs))
    for r, phys in enumerate(spectra):
        for k in range(npairs):
            gaps[r, k] = phys[2 * k + 1] - phys[2 * k]
    # a pair that collapses exactly has ln_gap = -inf and nan slopes
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_g = np.log(grid)
        ln_gap = np.log(gaps)
        slope = np.full_like(gaps, np.nan)
        for k in range(npairs):
            slope[1:-1, k] = (ln_gap[2:, k] - ln_gap[:-2, k]) / (ln_g[2:] - ln_g[:-2])

    header = ["gamma", "ln_gamma"]
    for k in range(1, npairs + 1):
        header += [f"gap_{k}", f"ln_gap_{k}", f"slope_{k}"]
    lines = [
        _echo(
            [
                ("command", "gaps"),
                ("model", args.model),
                ("two_j", args.two_j),
                ("pairs", args.pairs),
                ("gamma_min", args.gamma_min),
                ("gamma_max", args.gamma_max),
                ("steps", args.steps),
                ("scale", args.scale),
                ("epsilon", args.epsilon),
                ("tol", args.tol),
                ("version", __version__),
            ]
        ),
        ",".join(header),
    ]
    for r in range(len(grid)):
        cells = [grid[r], ln_g[r]]
        for k in range(npairs):
            cells += [gaps[r, k], ln_gap[r, k], slope[r, k]]
        lines.append(",".join(_fmt(c) for c in cells))
    for k in range(npairs):
        lines.append(_steepest_change_line(k + 1, ln_g, ln_gap[:, k], grid))
    _emit(lines, args.out)
    return 0


def _steepest_change_line(pair, x, y, grid):
    """Interior point of largest curvature of y(x), as a trailing comment."""
    d2 = np.full(x.size, np.nan)
    with np.errstate(invalid="ignore"):
        for i in range(1, x.size - 1):
            left = (y[i] - y[i - 1]) / (x[i] - x[i - 1])
            right = (y[i + 1] - y[i]) / (x[i + 1] - x[i])
            d2[i] = 2.0 * (right - left) / (x[i + 1] - x[i - 1])
    mag = np.abs(d2)
    if np.all(~np.isfinite(mag)):
        return f"# steepest_change pair={pair} gamma=nan"
    best = int(np.nanargmax(np.where(np.isfinite(mag), mag, -np.inf)))
    return f"# steepest_change pair={pair} gamma={_fmt(grid[best])}"


def cmd_quanta_scan(parser, args) -> int:
    _check_epsilon(parser, args)
    if args.two_j_max < 1:
        parser.error("--two-j-max must be at least 1")
    if args.levels < 1:
        parser.error("--levels must be at least 1")
    lines = [
        _echo(
            [
                ("command", "quanta-scan"),
                ("model", args.model),
                ("gamma", args.gamma),
                ("epsilon", args.epsilon),
                ("two_j_max", args.two_j_max),
                ("levels", args.levels),
                ("tol", args.tol),
                ("version", __version__),
            ]
        ),
        "two_j,dim," + ",".join(f"level_{i}" for i in range(1, args.levels + 1)),
    ]
    for two_j in range(1, args.two_j_max + 1):
        H = build_dimer(args.model, two_j, args.gamma, args.epsilon)
        evs = eigenvalues_bisection(H, args.tol)
        phys = np.sort(H.to_physical(evs))
        cells = [two_j, H.dim]
        for i in range(args.levels):
            cells.append(phys[i] if i < phys.size else float("nan"))
        lines.append(",".join(_fmt(c) for c in cells))
    _emit(lines, args.out)
    return 0


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


def _verify_algebra(checks, m_max):
    for n_sites in (2, 3):
        basis = build_sector_basis(n_sites, m_max)
        dim = basis.dim
        gens = su_n_generators(basis)
        rep = verify_chevalley(gens)
        checks.add(f"algebra.chevalley.su{n_sites}.M{m_max}", rep.max_residual, 1e-12 * dim)
        rep = verify_serre(gens)
        if not rep.vacuous:
            checks.add(f"algebra.serre.su{n_sites}.M{m_max}", rep.max_residual, 1e-12 * dim)
        q = q_from_gamma(2.0).q
        qgens = suq_n_generators(basis, q)
        rep = verify_chevalley(qgens)
        checks.add(f"algebra.chevalley.suq{n_sites}.M{m_max}", rep.max_residual, 1e-12 * dim)
        rep = verify_serre(qgens)
        if not rep.vacuous:
            checks.add(f"algebra.serre.suq{n_sites}.M{m_max}", rep.max_residual, 1e-12 * dim)
        qone = suq_n_generators(basis, 1.0)
        worst = 0.0
        for a, b in zip(gens.e + gens.f + gens.h, qone.e + qone.f + qone.h):
            worst = max(worst, float(np.max(np.abs(a.matrix - b.matrix))))
        checks.add(f"algebra.q_one_degeneration.n{n_sites}.M{m_max}", worst, 1e-14)
        rec = verify_number_reconstruction(basis)
        checks.add(f"algebra.number_reconstruction.n{n_sites}.M{m_max}", rec.max_residual, 1e-12)
    for gamma in (0.0, 2.0, 8.0):
        b, bd, n_op = al_oscillator_ops(20, gamma)
        rep = verify_al_relations(b, bd, n_op, gamma, 20)
        checks.add(f"algebra.al_oscillator.g{gamma:g}", rep.max_residual, 1e-10)


def _verify_spectral(checks, two_j_max, cases):
    rng = np.random.default_rng(1729)
    worst = 0.0
    for _ in range(cases):
        model = MODELS[int(rng.integers(0, 2))]
        two_j = int(rng.integers(1, two_j_max + 1))
        gamma = float(rng.uniform(0.0, 10.0))
        H = build_dimer(model, two_j, gamma)
        evs = eigenvalues_bisection(H, 1e-12)
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
            spec = solve_spectrum(build_dimer("al", two_j, gamma))
            rep = parity_structure_check(spec)
            worst = max(worst, rep.max_pair_residual)
            structure_ok &= rep.zero_count == rep.expected_zero_count
    checks.add("spectral.parity_antisymmetry", worst, 1e-10)
    checks.add("spectral.parity_zero_structure", 0.0 if structure_ok else 1.0, 0.0)


def _verify_conservation(checks, m_max):
    for gamma in (0.5, 2.0, 8.0):
        for n_sites, quanta in ((3, m_max), (2, 8)):
            rep = conservation_suite(n_sites, quanta, gamma)
            for label, norm, tol, _ in rep.pairs:
                checks.add(f"conservation.{rep.context}.{label}", norm, tol)


def cmd_verify(parser, args) -> int:
    checks = _Checks()
    suite = args.suite
    if suite in ("algebra", "all"):
        _verify_algebra(checks, args.m_max)
    if suite in ("spectral", "all"):
        _verify_spectral(checks, args.two_j_max, args.cases)
    if suite in ("conservation", "all"):
        _verify_conservation(checks, args.m_max)
    if getattr(args, "self_test_fail", False):
        checks.add("self_test.forced_failure", 1.0, 0.0)
    _emit(checks.lines, args.out)
    return 1 if checks.failed else 0


def _add_common(p, need_two_j=True):
    if need_two_j:
        p.add_argument("--two-j", dest="two_j", type=int, required=True,
                       help="twice the sector spin (dimension minus one)")
    p.add_argument("--model", choices=MODELS, default="dnls")
    p.add_argument("--epsilon", type=float, default=1.0,
                   help="hopping strength (dnls only)")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="relative eigenvalue bracket width")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def _add_grid(p):
    p.add_argument("--gamma-min", dest="gamma_min", type=float, default=0.5)
    p.add_argument("--gamma-max", dest="gamma_max", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--scale", choices=("linear", "log"), default="log")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdimer",
        description="Dimer spectra, symmetry checks, and CSV sweeps",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and norm constants of one dimer")
    _add_common(p)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="eigenvalue table over a nonlinearity grid")
    _add_common(p)
    _add_grid(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gaps", help="pair gaps of the physical spectrum, log-log")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--pairs", type=int, default=2)
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("quanta-scan", help="lowest levels versus sector size")
    _add_common(p, need_two_j=False)
    p.set_defaults(model="al")
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--two-j-max", dest="two_j_max", type=int, default=8)
    p.add_argument("--levels", type=int, default=4)
    p.set_defaults(func=cmd_quanta_scan)

    p = sub.add_parser("verify", help="self-check suites")
    p.add_argument("--suite", choices=("algebra", "spectral", "conservation", "all"),
                   default="all")
    p.add_argument("--two-j-max", dest="two_j_max", type=int, default=40)
    p.add_argument("--m-max", dest="m_max", type=int, default=4)
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--out", default=None)
    p.add_argument("--self-test-fail", dest="self_test_fail",
                   action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
