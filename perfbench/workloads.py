"""Seeded workloads: the op lists, and the gate that judges each op's output.

Every workload is a fixed list of ops that one timed pass runs in order,
one op at a time (a closed loop with a single client).  The seed draws the
inputs inside fixed strata, so every seed puts the same amount of work and
the same share of known failures into a pass; the seed moves sizes by a
few percent (keeping their parity) and the couplings within their bands.
A pass holds an odd number of ops, so the median latency is that of one
op rather than an interpolation between two ops of different cost.

An op's `run` makes only program calls.  Its `check` runs after the op's
timer has stopped and returns (reason, known): reason is None when the
output is correct, and known is True when the failure belongs to a defect
of the program that is recorded in perfbench/README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref


@dataclass
class Op:
    label: str
    size: int  # eigenvalue levels, summed over a sweep's grid, or sector dimension
    run: Callable[[], object]
    check: Callable[[object], tuple]
    expect_failure: bool = False  # the input lies in a recorded defect's regime
    matrices: tuple = ()  # (model, two_j, gamma) of every dimer the op diagonalizes
    output_bytes: int = 0  # size of the file the op's last run wrote


@dataclass
class Workload:
    name: str
    ops: list
    min_passes: int = 3
    # where the calibration kernel runs next to the ops (calibration.py):
    # "thread" on the op's core, "cores" on each core in turn, "off" not at all
    calibration: str = "thread"

    @property
    def tail_percentile(self) -> float:
        """Highest percentile with ten samples beyond it in the shortest run."""
        n = len(self.ops) * self.min_passes
        return 100.0 * (n - 10) / n

    @property
    def warmup(self) -> Op:
        return min(self.ops, key=lambda op: op.size)


def _jitter(rng, level: int, rel: float) -> int:
    """level moved by up to `rel`, keeping its parity: for even two_j the AL
    spectrum has an exact zero mode, and bisection runs longer to resolve it."""
    step = int(round(level * rel / 2.0))
    return level + 2 * int(rng.integers(-step, step + 1))


def _spectrum_check(model, two_j, gamma, expect_failure):
    cache = {}

    def check(spec):
        if "evs" not in cache:
            cache["evs"] = ref.eigenvalues(*ref.dimer_matrix(model, two_j, gamma))
        err = ref.eigenvalue_error(spec.eigenvalues, cache["evs"])
        if err is None or not err <= ref.EIG_REL_TOL:
            return f"eigenvalues off LAPACK by {err}", expect_failure
        comp = ref.completeness_residual(spec.vectors)
        if not comp <= ref.VECTOR_TOL_PER_DIM * (two_j + 1):
            return f"completeness residual {comp:.3e}", expect_failure
        return None, expect_failure

    return check


# --------------------------------------------------------------------------
# solve_large: build_dimer + solve_spectrum at large dimension
# --------------------------------------------------------------------------

# (model, two_j level, gamma window).  The windows are narrow because the
# solve cost moves with gamma (by up to 40% for AL at small gamma, where
# fewer columns need repair).  Three DNLS solves of the same size hold the
# median of a pass, so the median latency does not jump between ops of
# different cost.  The AL op at two_j ~ 240 with gamma >= 8 lies in the
# Sturm-overflow regime and fails at the seed; the other AL window stays
# where the seed is exact, so every seed fails the same one op.
SOLVE_SLOTS = (
    ("dnls", 150, (0.0, 2.5)),
    ("al", 150, (2.5, 7.5)),
    ("dnls", 300, (2.5, 4.0)),
    ("dnls", 300, (4.0, 5.5)),
    ("dnls", 300, (5.5, 7.0)),
    ("al", 240, (8.0, 10.0)),
    ("dnls", 480, (7.5, 10.0)),
)
TINY_SOLVE_SLOTS = (("dnls", 8, (0.0, 5.0)), ("al", 12, (8.0, 10.0)), ("dnls", 12, (5.0, 10.0)))


def _solve_op(qd, model, two_j, gamma):
    def run():
        return qd.spectral.solve_spectrum(qd.dimer.build_dimer(model, two_j, gamma))

    expect = ref.sturm_overflow_regime(model, two_j, gamma)
    return Op(
        label=f"{model}.two_j{two_j}.g{gamma:.4f}",
        size=two_j + 1,
        run=run,
        check=_spectrum_check(model, two_j, gamma, expect),
        expect_failure=expect,
        matrices=((model, two_j, gamma),),
    )


def solve_large(qd, rng, tiny=False, **_):
    slots = TINY_SOLVE_SLOTS if tiny else SOLVE_SLOTS
    ops = [_solve_op(qd, model, _jitter(rng, level, 0.02), rng.uniform(*window))
           for model, level, window in slots]
    return Workload("solve_large", ops)


# --------------------------------------------------------------------------
# sweep_cli: in-process `qdimer sweep` / `qdimer gaps` with --out
# --------------------------------------------------------------------------

# (command, model, two_j level, steps).  Five commands of about the same
# cost (two_j ~100, AL at odd two_j) hold the median of a pass, so the
# median latency does not jump between commands of different cost; two
# larger ones carry the upper sizes.  AL sweeps stay at two_j <= 131: an AL
# sweep costs more than a DNLS one of the same size at the seed, and up to
# gamma = 10 the AL grid stays below the Sturm-overflow regime, which
# solve_large carries at a fixed share.
SWEEP_SLOTS = (
    ("sweep", "dnls", 100, 16),
    ("gaps", "dnls", 100, 16),
    ("gaps", "al", 101, 16),
    ("sweep", "al", 101, 16),
    ("gaps", "al", 105, 16),
    ("gaps", "dnls", 200, 16),
    ("sweep", "al", 131, 16),
)
TINY_SWEEP_SLOTS = (("sweep", "dnls", 10, 4), ("gaps", "al", 8, 4))


def _parse_csv(text: str):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [[float(c) for c in ln.split(",")] for ln in lines[1:]]


def _sweep_op(qd, out_dir: Path, index, command, model, two_j, steps, gmin, gmax):
    path = out_dir / f"op{index}.csv"
    argv = [command, "--model", model, "--two-j", str(two_j), "--steps", str(steps),
            "--gamma-min", repr(gmin), "--gamma-max", repr(gmax), "--out", str(path)]
    grid = np.geomspace(gmin, gmax, steps)
    matrices = tuple((model, two_j, float(g)) for g in grid)
    expect = any(ref.sturm_overflow_regime(*m) for m in matrices)
    first = {}

    def run():
        return qd.cli.main(argv)

    def check_row(cells, header):
        gamma = cells[0]
        evs = ref.eigenvalues(*ref.dimer_matrix(model, two_j, gamma))
        scale, shift = ref.energy_constants(model, two_j, gamma)
        tol = ref.EIG_REL_TOL * max(1.0, float(np.max(np.abs(evs))))
        if command == "sweep":
            if not (math.isclose(cells[1], scale, rel_tol=1e-12)
                    and math.isclose(cells[2], shift, rel_tol=1e-12, abs_tol=1e-12)):
                return f"energy constants wrong at gamma={gamma}"
            if not ref.eigenvalues_ok(cells[3:], evs):
                return f"eigenvalues off LAPACK at gamma={gamma}"
            return None
        phys = np.sort(scale * evs + shift)
        for k in range((len(header) - 2) // 3):
            want = phys[2 * k + 1] - phys[2 * k]
            if not abs(cells[2 + 3 * k] - want) <= 2.0 * tol * abs(scale):
                return f"gap {k + 1} off LAPACK at gamma={gamma}"
        return None

    def check(rc):
        if rc != 0:
            return f"exit code {rc}", expect
        data = path.read_bytes()
        op.output_bytes = len(data)
        if "bytes" in first and data != first["bytes"]:
            return "output differs from the op's first invocation", expect
        first.setdefault("bytes", data)
        header, rows = _parse_csv(data.decode())
        if len(rows) != steps:
            return f"{len(rows)} rows for {steps} steps", expect
        for cells in rows:
            reason = check_row(cells, header)
            if reason:
                return reason, expect
        return None, expect

    op = Op(
        label=f"{command}.{model}.two_j{two_j}.steps{steps}",
        size=(two_j + 1) * steps,
        run=run,
        check=check,  # sets op.output_bytes
        expect_failure=expect,
        matrices=matrices,
    )
    return op


def sweep_cli(qd, rng, tiny=False, out_dir=None):
    slots = TINY_SWEEP_SLOTS if tiny else SWEEP_SLOTS
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, (command, model, level, steps) in enumerate(slots):
        two_j = _jitter(rng, level, 0.02)
        gmin = round(rng.uniform(0.45, 0.55), 6)
        gmax = round(rng.uniform(9.5, 10.0), 6)
        ops.append(_sweep_op(qd, out_dir, i, command, model, two_j, steps, gmin, gmax))
    return Workload("sweep_cli", ops, calibration="cores")


# --------------------------------------------------------------------------
# algebra_sectors: conservation suite + the algebra suite's checks
# --------------------------------------------------------------------------

ALGEBRA_GAMMAS = (0.5, 2.0, 8.0)
# Sector sizes M per site count.  Each level L stands for {L-1, L, L+1},
# dealt to the three couplings by a seeded permutation, so a pass always
# holds the same sectors; no level straddles the M at which a deformed
# residual first exceeds its absolute tolerance (3 sites: M 11 at gamma 8,
# M 24 at gamma 2; 2 sites: M 10 and 21).  The twelve 2-site sectors and
# the 3-site level 8 take a few ms each, so the median op of a pass lies in
# 3-site level 16 (~50 ms), past the sizes where a product's time is mostly
# waiting for the second BLAS thread.  That level keeps M = 16 at all three
# couplings, so the median is taken over ops of one cost.
ALGEBRA_LEVELS = {3: (8, 16, 18, 20, 22, 26, 29), 2: (6, 15, 26, 38)}
ALGEBRA_MEDIAN_LEVEL = (3, 16)
TINY_ALGEBRA_LEVELS = {3: (3,), 2: (5,)}
# su_q(n) and deformed-chain checks, whose residuals outgrow their absolute
# tolerances at large M and gamma at the seed
DEFORMED_CHECKS = {"al_cq", "al_chevalley", "al_serre", "chevalley.suq", "serre.suq"}
OSCILLATOR_N_MAX = 20


def _algebra_op(qd, n_sites, quanta, gamma):
    fa = qd.fock_algebra

    def run():
        cons = qd.invariants.conservation_suite(n_sites, quanta, gamma)
        basis = fa.build_sector_basis(n_sites, quanta)
        gens = fa.su_n_generators(basis)
        qgens = fa.suq_n_generators(basis, qd.qnumbers.q_from_gamma(gamma).q)
        qone = fa.suq_n_generators(basis, 1.0)
        b, bd, n_op = fa.al_oscillator_ops(OSCILLATOR_N_MAX, gamma)
        return {
            "cons": cons,
            "dim": basis.dim,
            "gens": gens,
            "qone": qone,
            "chevalley.su": fa.verify_chevalley(gens),
            "serre.su": fa.verify_serre(gens),
            "chevalley.suq": fa.verify_chevalley(qgens),
            "serre.suq": fa.verify_serre(qgens),
            "number_reconstruction": fa.verify_number_reconstruction(basis),
            "al_oscillator": fa.verify_al_relations(b, bd, n_op, gamma, OSCILLATOR_N_MAX),
        }

    def check(out):
        dim = out["dim"]
        rows = [(label, norm, tol) for label, norm, tol, _ in out["cons"].pairs]
        for key in ("chevalley.su", "serre.su", "chevalley.suq", "serre.suq"):
            if not out[key].vacuous:
                rows.append((key, out[key].max_residual, 1e-12 * dim))
        gens, qone = out["gens"], out["qone"]
        worst = max(float(np.max(np.abs(a.matrix - b.matrix)))
                    for a, b in zip(gens.e + gens.f + gens.h, qone.e + qone.f + qone.h))
        rows.append(("q_one_degeneration", worst, 1e-14))
        rows.append(("number_reconstruction", out["number_reconstruction"].max_residual, 1e-12))
        rows.append(("al_oscillator", out["al_oscillator"].max_residual, 1e-10))
        bad = [(label, norm, tol) for label, norm, tol in rows if not norm <= tol]
        if not bad:
            return None, False
        reason = "; ".join(f"{label} {norm:.2e} > {tol:.1e}" for label, norm, tol in bad)
        known = all(label in DEFORMED_CHECKS for label, _, _ in bad)
        return reason, known

    return Op(f"n{n_sites}.M{quanta}.g{gamma:g}", math.comb(quanta + n_sites - 1, n_sites - 1),
              run, check)


def algebra_sectors(qd, rng, tiny=False, **_):
    levels = TINY_ALGEBRA_LEVELS if tiny else ALGEBRA_LEVELS
    ops = []
    for n_sites, ms in levels.items():
        for level in ms:
            offsets = rng.permutation(3) - 1
            if (n_sites, level) == ALGEBRA_MEDIAN_LEVEL:
                offsets[:] = 0
            for gamma, offset in zip(ALGEBRA_GAMMAS, offsets):
                ops.append(_algebra_op(qd, n_sites, level + int(offset), gamma))
    return Workload("algebra_sectors", ops, calibration="off")


BUILDERS = {
    "solve_large": solve_large,
    "sweep_cli": sweep_cli,
    "algebra_sectors": algebra_sectors,
}


def build(name: str, seed: int, qd, out_dir: Path, tiny: bool = False) -> Workload:
    rng = np.random.default_rng([seed, list(BUILDERS).index(name)])
    return BUILDERS[name](qd, rng, tiny=tiny, out_dir=out_dir)
