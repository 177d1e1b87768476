"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, checks the host-speed
calibration (one BLAS thread in the gate, the per-core kernel, the scaling
of each op by the kernel times on both sides of it), and checks that
the gate fails an injected wrong eigenvalue, a corrupted CLI file and the
recorded AL Sturm-overflow case (two_j=400, gamma=8), that BENCHMARK.json
names exactly the metrics run.py prints, and that run.py refuses to run
without the program.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
import warnings

import numpy as np

import calibration
import reference
import run
import tracing
import workloads


def expect(ok: bool, what: str):
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def tiny_workloads(qd):
    for name in workloads.BUILDERS:
        wl = workloads.build(name, 7, qd, run.OUT / "selftest" / name, tiny=True)
        runner = run.Runner(wl)
        runner.passes(0.0, 1)
        expect(runner.attempted == len(wl.ops) and not runner.failures,
               f"{name}: tiny pass of {len(wl.ops)} ops, no failures {runner.failures}")

        tracer = tracing.Tracer()
        tracer.install(qd)
        try:
            runner.passes(0.0, 1, tracer)
        finally:
            tracer.uninstall()
        layer = tracing.layer_metrics(tracer.spans, 1, 2, run.baseline(wl, repeats=1), 0.0)
        layer["trace.overhead_s"] = 0.0
        expect(set(layer) == set(tracing.UNITS), f"{name}: traced pass gives every per-layer metric")
        if name == "sweep_cli":
            main_ids = {s.sid for s in tracer.spans if s.name == "cli.main"}
            pooled = [s for s in tracer.spans
                      if s.name == "spectral.eigenvalues_bisection" and s.thread != threading.main_thread().ident]
            expect(pooled and all(s.parent in main_ids for s in pooled),
                   "sweep_cli: pool-thread bisection spans are children of cli.main")
            expect(layer["spectral.eigenvalues_bisection.calls"]
                   == sum(len(op.matrices) for op in wl.ops),
                   "sweep_cli: one bisection call per gamma row")
        if name == "algebra_sectors":
            expect(layer["spectral.eigenvalues_bisection.calls"] == 0
                   and layer["fock_algebra.sector_dim_sum"] > 0,
                   "algebra_sectors: Fock layers traced, no spectral calls")
        expect(qd.spectral.solve_spectrum.__name__ == "solve_spectrum"
               and not hasattr(qd.spectral.solve_spectrum, "__wrapped__"),
               f"{name}: tracer uninstalled")


def calibration_checks(qd):
    pairs = calibration._openblas_thread_setters()
    before = [get() for get, _ in pairs]
    with calibration.one_blas_thread():
        inside = [get() for get, _ in pairs]
    expect(pairs and all(n == 1 for n in inside) and [get() for get, _ in pairs] == before,
           f"one_blas_thread: {len(pairs)} OpenBLAS at 1 thread inside, {before} restored")
    allowed = os.sched_getaffinity(0)
    t = calibration.measure(every_core=True)
    expect(t > 0 and os.sched_getaffinity(0) == allowed,
           f"per-core kernel {t * 1e3:.1f} ms, affinity restored")

    wl = workloads.build("solve_large", 7, qd, run.OUT / "selftest" / "cal", tiny=True)
    runner = run.Runner(wl)
    walls = runner.passes(0.0, 2)
    norm = runner.normalized()
    idx = np.array(runner.cal_index)
    expect(norm.shape == (2, len(wl.ops)) and len(runner.cals) == idx.max() + 2
           and np.allclose(norm, np.array(runner.raw) * calibration.REFERENCE_S
                           / (0.5 * (np.array(runner.cals)[idx] + np.array(runner.cals)[idx + 1])))
           and np.allclose(walls, norm.sum(axis=1)),
           "every op is scaled by the kernel times on both sides of it")
    wl = workloads.build("algebra_sectors", 7, qd, run.OUT / "selftest" / "cal", tiny=True)
    runner = run.Runner(wl)
    runner.passes(0.0, 1)
    expect(not runner.cals and np.array_equal(runner.normalized(), np.array(runner.raw)),
           "algebra_sectors runs no kernel and reports raw times")


def gate_cases(qd):
    op = workloads._solve_op(qd, "dnls", 20, 3.0)
    spec = op.run()
    expect(op.check(spec) == (None, False), "gate passes a correct dnls two_j=20 solve")
    spec.eigenvalues = spec.eigenvalues.copy()
    spec.eigenvalues[3] += 1e-8 * max(1.0, float(np.max(np.abs(spec.eigenvalues))))
    reason, known = op.check(spec)
    expect(reason is not None and not known, f"gate fails an injected wrong eigenvalue: {reason}")

    expect(reference.sturm_overflow_regime("al", 400, 8.0)
           and not reference.sturm_overflow_regime("al", 400, 0.5)
           and not reference.sturm_overflow_regime("dnls", 400, 8.0),
           "al two_j=400 gamma=8 is in the recorded Sturm-overflow regime")
    op = workloads._solve_op(qd, "al", 400, 8.0)
    t0 = time.perf_counter()
    reason, known = op.check(op.run())
    expect(reason is not None and known,
           f"gate fails al two_j=400 gamma=8 as the known defect ({time.perf_counter() - t0:.1f} s): {reason}")

    out_dir = run.OUT / "selftest" / "gate"
    out_dir.mkdir(parents=True, exist_ok=True)
    args = (qd, out_dir, 0, "sweep", "dnls", 12, 4, 0.5, 10.0)
    op = workloads._sweep_op(*args)
    expect(op.check(op.run()) == (None, False), "gate passes a correct sweep CSV")
    path = out_dir / "op0.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[5] = repr(float(cells[5]) * (1 + 1e-6))
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    reason, known = op.check(0)
    expect(reason is not None and not known, f"gate fails a changed CLI file: {reason}")
    reason, known = workloads._sweep_op(*args).check(0)
    expect(reason is not None and not known, f"gate fails a wrong CLI eigenvalue: {reason}")


def contract():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS),
           "BENCHMARK.json workloads match the builders")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS,
           "BENCHMARK.json end-to-end metrics match run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS,
           "BENCHMARK.json per-layer metrics match tracing.py")


def full_size_shapes(qd):
    for name in workloads.BUILDERS:
        wl = workloads.build(name, 1, qd, run.OUT / "selftest" / name)
        expect(len(wl.ops) % 2 == 1 and wl.tail_percentile >= 50.0,
               f"{name}: {len(wl.ops)} ops a pass (odd), tail p{wl.tail_percentile:.1f}")


def refuses_without_program():
    bare = run.OUT / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"run.py exits {proc.returncode} with no result where src/ is absent")
    shutil.rmtree(bare)


def main() -> int:
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    run.OUT.mkdir(exist_ok=True)
    qd = run.load_program()
    contract()
    full_size_shapes(qd)
    tiny_workloads(qd)
    calibration_checks(qd)
    gate_cases(qd)
    refuses_without_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
