"""qdimer benchmark: one workload per run, seeded inputs, gated outputs.

    python3 perfbench/run.py --workload solve_large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.  The
last line of standard output is the result JSON; the line before it
(`# detail {...}`) records input sizes, sample counts, failures and the
environment, and the same record is written under .bench_out/.

--trace 0 reports the end-to-end metrics: set-up time over fresh
processes, the wall time of one pass over the workload's op list (each op
at its median over the passes), the median and tail per-op latency, peak
resident memory and the share of ops that pass the gate.  Every time is
scaled to a reference host speed by a calibration kernel timed next to
each op and each set-up probe (see calibration.py); `# detail` carries the
unscaled times as `raw_metrics`.  --trace 1 reports the per-layer metrics
from spans recorded around the program's public functions (see
tracing.py) and writes the spans to .bench_out/ at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import calibration
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
MAX_FAILURES_LISTED = 20


def load_program():
    """Import qdimer from ./src of this checkout, or exit 2."""
    src = ROOT / "src"
    if not (src / "qdimer" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'qdimer'}")
    sys.path.insert(0, str(src))
    try:
        import qdimer
        import qdimer.cli
        import qdimer.dimer
        import qdimer.fock_algebra
        import qdimer.invariants
        import qdimer.qnumbers
        import qdimer.spectral
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import qdimer from {src}: {exc}")
    if src.resolve() not in Path(qdimer.__file__).resolve().parents:
        sys.exit(f"perfbench: qdimer was imported from {qdimer.__file__}, not {src}")
    return qdimer


def environment(seed: int) -> dict:
    import ctypes

    import mpmath
    import scipy

    blas = []
    for path, lib, suffix in calibration.openblas_libs():
        threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        config = getattr(lib, f"scipy_openblas_get_config{suffix}")
        threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
        blas.append({"library": Path(path).name, "threads": threads(),
                     "config": config().decode()})
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": blas,
        "blas_thread_env": {k: v for k, v in os.environ.items()
                            if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Runner:
    """Closed-loop passes over a workload, with the gate after every op.

    Unless the workload's calibration is "off", the calibration kernel runs
    before every op and after the last one, so each op has a kernel time
    on both sides (calibration.py).
    """

    def __init__(self, workload):
        self.workload = workload
        self.raw: list[list[float]] = []  # [pass][op] latency, seconds
        self.cal_index: list[list[int]] = []  # [pass][op] index of the kernel time before it
        self.cals: list[float] = []
        self.attempted = 0
        self.failures: list[dict] = []

    @staticmethod
    def gate(op, output, error):
        """(reason, known) for one op execution; reason is None when correct."""
        if error is not None:
            return f"raised {type(error).__name__}: {error}", op.expect_failure
        with calibration.one_blas_thread():
            return op.check(output)

    def calibrate(self):
        if self.workload.calibration != "off":
            self.cals.append(calibration.measure(self.workload.calibration == "cores"))

    def one_pass(self, tracer=None) -> float:
        """One pass over the op list; returns its elapsed wall time."""
        row, idx = [], []
        start = time.perf_counter()
        for op in self.workload.ops:
            self.calibrate()
            idx.append(len(self.cals) - 1)
            if tracer is not None:
                tracer.op = self.attempted  # one id per op execution in the run
            output = error = None
            t0 = time.perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # a raising op is a failed op, not a crash
                error = exc
            row.append(time.perf_counter() - t0)
            self.attempted += 1
            reason, known = self.gate(op, output, error)
            if reason is not None:
                self.failures.append({"op": op.label, "reason": reason, "known": known})
        self.raw.append(row)
        self.cal_index.append(idx)
        return time.perf_counter() - start

    def passes(self, seconds: float, min_passes: int, tracer=None) -> list[float]:
        """Run passes until `seconds` would be exceeded, at least `min_passes`;
        returns their normalized walls."""
        first = len(self.raw)
        elapsed = []
        start = time.perf_counter()
        while len(elapsed) < min_passes or time.perf_counter() - start + elapsed[-1] <= seconds:
            elapsed.append(self.one_pass(tracer))
        self.calibrate()  # closes the last op
        return [float(np.sum(row)) for row in self.normalized()[first:]]

    def normalized(self) -> np.ndarray:
        """[pass][op] latencies at the reference host speed, seconds."""
        if self.workload.calibration == "off":
            return np.array(self.raw)
        cals = np.array(self.cals)
        idx = np.array(self.cal_index)
        local = 0.5 * (cals[idx] + cals[idx + 1])
        return np.array(self.raw) * calibration.REFERENCE_S / local


def setup_probe(args) -> int:
    """Fresh-process set-up: import, generate the inputs, one warm-up op."""
    qd = load_program()
    wl = workloads.build(args.workload, args.seed, qd, OUT / f"probe-{args.workload}")
    wl.warmup.run()
    return 0


def measure_setup(args, scaled: bool) -> tuple[list[float], list[float]]:
    """Raw and normalized set-up times of SETUP_PROBES fresh processes.  When
    `scaled`, each probe sits between two runs of the calibration kernel on
    every core (a probe runs on whichever core the system gives it);
    otherwise the normalized times are the raw ones."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, normalized = [], []
    before = calibration.measure(every_core=True) if scaled else None
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        if not scaled:
            normalized.append(raw[-1])
            continue
        after = calibration.measure(every_core=True)
        normalized.append(raw[-1] * calibration.REFERENCE_S / (0.5 * (before + after)))
        before = after
    return raw, normalized


def baseline(workload, repeats: int = 3) -> dict:
    """LAPACK on the dimers the workload's ops diagonalize, per pass."""
    import scipy.linalg

    sums = {"eigh_tridiagonal_s": 0.0, "eigvalsh_tridiagonal_s": 0.0}
    fns = {"eigh_tridiagonal_s": scipy.linalg.eigh_tridiagonal,
           "eigvalsh_tridiagonal_s": scipy.linalg.eigvalsh_tridiagonal}
    for op in workload.ops:
        for model, two_j, gamma in op.matrices:
            diag, off = reference.dimer_matrix(model, two_j, gamma)
            if diag.size < 2:
                continue
            for key, fn in fns.items():
                runs = []
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    fn(diag, off)
                    runs.append(time.perf_counter() - t0)
                sums[key] += statistics.median(runs)
    return sums


E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB", "ok_frac": "ratio"}


def end_to_end(setup_times, latencies, tail_percentile, failed, attempted) -> dict:
    """End-to-end values from set-up times and per-pass, per-op latencies (seconds)."""
    lat = np.asarray(latencies)
    return {
        "setup_s": statistics.median(setup_times),
        # one pass over the op list, each op at its median over the passes
        "wall_s": float(np.sum(np.median(lat, axis=0))),
        "op_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "op_tail_ms": float(np.percentile(lat, tail_percentile)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }


def write_spans(path: Path, spans):
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.thread, s.op,
                                 s.cpu, s.info]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    warnings.filterwarnings("ignore", category=RuntimeWarning)  # overflow in the AL regime
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    qd = load_program()
    env = environment(args.seed)
    wl = workloads.build(args.workload, args.seed, qd, OUT / f"run-{args.workload}")
    setup_raw, setup_times = measure_setup(args, wl.calibration != "off") if not args.trace else ([], [])
    runner = Runner(wl)

    warm = wl.warmup
    output = error = None
    try:
        output = warm.run()
    except Exception as exc:  # judged by the gate like any other op
        error = exc
    warm_reason, warm_known = runner.gate(warm, output, error)

    start = time.perf_counter()
    walls = runner.passes(args.seconds, wl.min_passes)
    detail = {}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(qd)
        try:
            traced = runner.passes(args.seconds - (time.perf_counter() - start), 1, tracer)
        finally:
            tracer.uninstall()
        layer = tracing.layer_metrics(
            tracer.spans, len(traced), env["nproc"], baseline(wl),
            float(sum(op.output_bytes for op in wl.ops)),
        )
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        metrics = {k: {"value": float(v), "unit": tracing.UNITS[k]} for k, v in layer.items()}
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", tracer.spans)
        detail.update(spans=len(tracer.spans), traced_pass_walls_s=traced)
    else:
        values = end_to_end(setup_times, runner.normalized(), wl.tail_percentile,
                            len(runner.failures), runner.attempted)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        raw = end_to_end(setup_raw, runner.raw, wl.tail_percentile,
                         len(runner.failures), runner.attempted)
        detail.update(
            raw_metrics={k: raw[k] for k in ("setup_s", "wall_s", "op_p50_ms", "op_tail_ms")},
            setup_probes_raw_s=setup_raw,
        )

    failed = len(runner.failures)
    unexpected = [f for f in runner.failures if not f["known"]]
    if warm_reason is not None and not warm_known:
        unexpected.append({"op": warm.label, "reason": warm_reason, "known": False})
    first_failure = {}
    for f in runner.failures:
        first_failure.setdefault(f["op"], f)
    detail.update(
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        ops_per_pass=len(wl.ops),
        levels_per_pass=sum(op.size for op in wl.ops),
        passes=len(walls),
        pass_walls_s=walls,
        samples=runner.attempted,
        tail_percentile=wl.tail_percentile,
        setup_probes_s=setup_times,
        calibration={"where": wl.calibration,
                     "reference_s": calibration.REFERENCE_S,
                     "runs": len(runner.cals),
                     "median_s": statistics.median(runner.cals) if runner.cals else None},
        failed_frac=failed / runner.attempted,
        failed_known=failed - sum(1 for f in runner.failures if not f["known"]),
        failed_unexpected=len(unexpected),
        failing_ops=list(first_failure.values())[:MAX_FAILURES_LISTED],
        environment=env,
    )
    (OUT / f"detail-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print("# detail " + json.dumps(detail))
    result = {
        "correct": not unexpected,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
