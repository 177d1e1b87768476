"""Spans around the program's public functions, for the traced run only.

The tracer replaces functions on the module attributes that callers look up
(for example `qdimer.cli.eigenvalues_bisection`, which the CLI thread pool
calls, and `qdimer.spectral.eigenvalues_bisection`, which `solve_spectrum`
calls), records one span per call in memory and puts the originals back on
`uninstall`.  Nothing under `src/` changes.  Untraced runs never install it.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int | None
    cpu: float | None = None
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _levels(args, result):
    return {"levels": int(args[0].dim)}


def _repaired(args, result):
    methods = result.vector_method
    return {"columns": len(methods), "repaired": sum(m == "inverse_iteration" for m in methods)}


def _sector_dim(args, result):
    return {"dim": int(result.dim)}


def _failed_checks(args, result):
    return {"failed": sum(not ok for (_, _, _, ok) in result.pairs)}


# (module, attribute, span name, info extractor, record thread CPU time)
PATCHES = [
    ("spectral", "eigenvalues_bisection", "spectral.eigenvalues_bisection", _levels, True),
    ("cli", "eigenvalues_bisection", "spectral.eigenvalues_bisection", _levels, True),
    ("spectral", "solve_spectrum", "spectral.solve_spectrum", _repaired, False),
    ("spectral", "dense_oracle", "spectral.dense_oracle", None, False),
    ("cli", "dense_oracle", "spectral.dense_oracle", None, False),
    ("dimer", "build_dimer", "dimer.build_dimer", None, False),
    ("cli", "build_dimer", "dimer.build_dimer", None, False),
    ("dimer", "sym_qnum", "qnumbers.sym_qnum", None, False),
    ("fock_algebra", "sym_qnum", "qnumbers.sym_qnum", None, False),
    ("cli", "main", "cli.main", None, False),
    ("invariants", "conservation_suite", "invariants.conservation_suite", _failed_checks, False),
]
for _mod in ("fock_algebra", "invariants"):
    PATCHES += [
        (_mod, "build_sector_basis", "fock_algebra.build_sector_basis", _sector_dim, False),
        (_mod, "su_n_generators", "fock_algebra.su_n_generators", None, False),
        (_mod, "suq_n_generators", "fock_algebra.suq_n_generators", None, False),
        (_mod, "verify_chevalley", "fock_algebra.verify_chevalley", None, False),
        (_mod, "verify_serre", "fock_algebra.verify_serre", None, False),
        (_mod, "casimir_matrix", "fock_algebra.casimir_matrix", None, False),
    ]


# Per-layer metric units, in the order BENCHMARK.json lists them.
UNITS = {
    "spectral.eigenvalues_bisection.calls": "count",
    "spectral.eigenvalues_bisection.levels": "count",
    "spectral.eigenvalues_bisection.self_s": "s",
    "spectral.solve_spectrum.self_s": "s",
    "spectral.solve_spectrum.repaired_frac": "ratio",
    "spectral.dense_oracle.self_s": "s",
    "baseline.eigh_tridiagonal_s": "s",
    "baseline.eigvalsh_tridiagonal_s": "s",
    "spectral.solve_over_lapack": "ratio",
    "spectral.bisection_over_lapack": "ratio",
    "dimer.build_dimer.calls": "count",
    "dimer.build_dimer.self_s": "s",
    "qnumbers.sym_qnum.calls": "count",
    "qnumbers.sym_qnum.s": "s",
    "fock_algebra.build_sector_basis.self_s": "s",
    "fock_algebra.su_n_generators.self_s": "s",
    "fock_algebra.suq_n_generators.self_s": "s",
    "fock_algebra.verify_chevalley.self_s": "s",
    "fock_algebra.verify_serre.self_s": "s",
    "fock_algebra.casimir_matrix.self_s": "s",
    "fock_algebra.sector_dim_sum": "count",
    "invariants.conservation_suite.self_s": "s",
    "invariants.conservation_suite.failed_checks": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.pool_efficiency": "ratio",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder.

    A span's parent is the innermost open span of its own thread.  A span
    opened in a thread with no open span (a CLI pool worker) takes the
    innermost open span of the main thread, which is the `cli.main` call
    that started the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, info=None, cpu=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            stack.append(sid)
            result = None
            c0 = time.thread_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time() if cpu else None
                stack.pop()
                extra = info(args, result) if info is not None and result is not None else None
                self.spans.append(
                    Span(sid, name, t0, t1, parent, threading.get_ident(), self.op,
                         None if c1 is None else c1 - c0, extra)
                )

        return traced

    def install(self, qd):
        for mod_name, attr, name, info, cpu in PATCHES:
            mod = getattr(qd, mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, info, cpu))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def _union_length(intervals) -> float:
    total, reach = 0.0, -np.inf
    for a, b in sorted(intervals):
        a = max(a, reach)
        if b > a:
            total += b - a
            reach = b
    return total


def _subtract(lo, hi, holes):
    """Pieces of [lo, hi] outside the sorted, possibly overlapping holes."""
    pieces, reach = [], lo
    for a, b in holes:
        if a > reach:
            pieces.append((reach, min(a, hi)))
        reach = max(reach, b)
        if reach >= hi:
            break
    if reach < hi:
        pieces.append((reach, hi))
    return pieces


def self_intervals(spans) -> dict[int, list]:
    """Each span's interval minus the parts its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: _subtract(s.start, s.end, sorted(children.get(s.sid, ()))) for s in spans}


def layer_metrics(spans, passes: int, nproc: int, baseline: dict, output_bytes: float) -> dict:
    """Per-pass per-layer numbers from the spans of `passes` traced passes.

    A layer's self time is the wall time during which at least one of its
    spans runs outside its child spans.  For one thread that is the sum of
    the spans' self times; for the CLI pool, where eight threads share two
    cores, it counts each instant once instead of once per waiting thread.
    """
    own = self_intervals(spans)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def calls(name):
        return len(by[name]) / passes

    def self_s(name, pick=lambda s: True):
        return _union_length([iv for s in by[name] if pick(s) for iv in own[s.sid]]) / passes

    def info_sum(name, key):
        return sum(s.info[key] for s in by[name] if s.info) / passes

    bis = by["spectral.eigenvalues_bisection"]
    bis_busy = _union_length([(s.start, s.end) for s in bis]) / passes
    solve_wall = sum(s.duration for s in by["spectral.solve_spectrum"]) / passes
    columns = info_sum("spectral.solve_spectrum", "columns")
    main_wall = sum(s.duration for s in by["cli.main"]) / passes
    pool_cpu = sum(s.cpu for s in bis if s.thread != threading.main_thread().ident) / passes
    eigh_s = baseline.get("eigh_tridiagonal_s", 0.0)
    eigvalsh_s = baseline.get("eigvalsh_tridiagonal_s", 0.0)

    m = {
        "spectral.eigenvalues_bisection.calls": calls("spectral.eigenvalues_bisection"),
        "spectral.eigenvalues_bisection.levels": info_sum("spectral.eigenvalues_bisection", "levels"),
        "spectral.eigenvalues_bisection.self_s": self_s("spectral.eigenvalues_bisection"),
        "spectral.solve_spectrum.self_s": self_s("spectral.solve_spectrum"),
        "spectral.solve_spectrum.repaired_frac": (
            info_sum("spectral.solve_spectrum", "repaired") / columns if columns else 0.0
        ),
        "spectral.dense_oracle.self_s": self_s("spectral.dense_oracle"),
        "baseline.eigh_tridiagonal_s": eigh_s,
        "baseline.eigvalsh_tridiagonal_s": eigvalsh_s,
        "spectral.solve_over_lapack": solve_wall / eigh_s if solve_wall and eigh_s else 0.0,
        "spectral.bisection_over_lapack": bis_busy / eigvalsh_s if bis_busy and eigvalsh_s else 0.0,
        "dimer.build_dimer.calls": calls("dimer.build_dimer"),
        "dimer.build_dimer.self_s": self_s("dimer.build_dimer"),
        "qnumbers.sym_qnum.calls": calls("qnumbers.sym_qnum"),
        "qnumbers.sym_qnum.s": sum(s.duration for s in by["qnumbers.sym_qnum"]) / passes,
        "fock_algebra.sector_dim_sum": info_sum("fock_algebra.build_sector_basis", "dim"),
        "invariants.conservation_suite.self_s": self_s("invariants.conservation_suite"),
        "invariants.conservation_suite.failed_checks": info_sum(
            "invariants.conservation_suite", "failed"
        ),
        "cli.main.self_s": self_s("cli.main"),
        "cli.output_bytes": output_bytes,
        "cli.pool_efficiency": pool_cpu / (main_wall * nproc) if main_wall else 0.0,
    }
    for fn in ("build_sector_basis", "su_n_generators", "suq_n_generators",
               "verify_chevalley", "verify_serre", "casimir_matrix"):
        m[f"fock_algebra.{fn}.self_s"] = self_s(f"fock_algebra.{fn}")
    return m
