"""Spans around orthopencil's layers, for the traced run only.

Each wrapper is installed at the module attribute its caller resolves at call
time (``cli.pencil_eigen`` is the name ``cli`` calls, ``spectral.qz_solve`` the
one ``pencil_eigen`` calls), so the program itself is unchanged.  Installing a
name that no longer exists raises: a layer must not vanish from the trace
silently.  Spans are kept in memory and written out at the end of the run.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

ROOT = "cli.run"

# (module under orthopencil, attribute, span name).  A module of None means the
# attribute belongs to MatrixPolynomial.
TIMED = (
    ("cli", "anchor_pencil", "pencil.anchor"),
    ("ansatz", "anchor_pencil", "pencil.anchor"),
    ("cli", "make_m1", "ansatz.make"),
    ("cli", "make_m2", "ansatz.make"),
    ("cli", "check_linearization", "ansatz.check"),
    ("cli", "verify_membership", "ansatz.membership"),
    ("cli", "build_dm_pencil", "blocksym.build"),
    ("blocksym", "build_dm", "blocksym.solver"),
    ("blocksym", "build_dm_generic", "blocksym.solver"),
    ("cli", "pencil_eigen", "spectral.eigen"),
    ("spectral", "qz_solve", "spectral.qz"),
    ("cli", "recover_right", "spectral.recover"),
    ("cli", "recover_left", "spectral.recover"),
    ("spectral", "phi_vector", "basis.phi_vector"),
    ("ansatz", "phi_vector", "basis.phi_vector"),
    (None, "evaluate", "matpoly.evaluate"),
    ("cli", "eigenvalue_exclusion", "spectral.exclusion"),
    ("cli", "reference_spectrum", "oracle.reference"),
    ("spectral", "reference_spectrum", "oracle.reference"),
    ("oracle", "det_poly", "oracle.det_poly"),
    ("cli", "pencil_to_obj", "serialize.encode"),
    ("cli", "factor_to_obj", "serialize.encode"),
    ("cli", "spectrum_report_obj", "serialize.encode"),
    ("cli", "dump_json", "serialize.dump"),
)
# Counted calls without a span of their own: their time stays in the caller.
COUNTED = (("spectral", "eval_pencil", "spectral.eval_pencil"),)

# Self-time metrics: together they partition the traced op time.
SELF_MS = {
    "cli.self_ms": ROOT,
    "pencil.anchor_ms": "pencil.anchor",
    "ansatz.make_ms": "ansatz.make",
    "ansatz.check_ms": "ansatz.check",
    "ansatz.membership_ms": "ansatz.membership",
    "blocksym.build_ms": "blocksym.build",
    "blocksym.solver_ms": "blocksym.solver",
    "spectral.eigen_self_ms": "spectral.eigen",
    "spectral.qz_ms": "spectral.qz",
    "spectral.recover_ms": "spectral.recover",
    "basis.phi_vector_ms": "basis.phi_vector",
    "matpoly.evaluate_ms": "matpoly.evaluate",
    "spectral.exclusion_self_ms": "spectral.exclusion",
    "oracle.reference_ms": "oracle.reference",
    "oracle.det_poly_ms": "oracle.det_poly",
    "serialize.encode_ms": "serialize.encode",
    "serialize.dump_ms": "serialize.dump",
}

# name -> (unit, better); every per-layer metric the traced run reports
LAYER_METRICS = {
    **{name: ("ms", "lower") for name in SELF_MS},
    "spectral.eigen_over_qz": ("ratio", "lower"),
    "spectral.regularity_samples": ("count", "lower"),
    "spectral.singular_verdicts": ("count", "lower"),
    "spectral.recover_calls": ("count", "lower"),
    "spectral.recover_errors": ("count", "lower"),
    "spectral.recover_over_qz": ("ratio", "lower"),
    "basis.phi_vector_calls": ("count", "lower"),
    "matpoly.evaluate_calls": ("count", "lower"),
    "serialize.out_kb": ("kB", "lower"),
    "trace.op_ms": ("ms", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


@dataclass
class Span:
    op: int
    name: str
    start: float
    end: float
    parent: int | None
    error: str | None
    child_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    def __init__(self, package):
        self._package = package
        self.spans: list[Span] = []
        self.counts: list[tuple[int, str, int | None]] = []  # (op, name, parent span)
        self._stack: list[int] = []
        self._op = -1

    def _targets(self, table):
        from orthopencil.matpoly import MatrixPolynomial

        for module, attr, name in table:
            owner = MatrixPolynomial if module is None else getattr(self._package, module)
            if attr not in vars(owner):
                raise RuntimeError(f"trace target {owner.__name__}.{attr} no longer exists")
            yield owner, attr, name

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            span = Span(self._op, name, 0.0, 0.0, parent, None)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.total_s
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts.append((self._op, name, self._stack[-1] if self._stack else None))
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self, op: int):
        """Wrap every layer for the duration of one op; restore them in finally."""
        saved = []
        try:
            for owner, attr, name in self._targets(TIMED):
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, self._timed(name, vars(owner)[attr]))
            for owner, attr, name in self._targets(COUNTED):
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, self._counted(name, vars(owner)[attr]))
            self._op = op
            yield self._timed(ROOT, self._package.cli.run)
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._op = -1

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"op": s.op, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "error": s.error}) + "\n")

    def layer_metrics(self, out_bytes: int, untraced_s: float) -> dict:
        """Per-op means over the traced ops, keyed as in LAYER_METRICS."""
        roots = [s for s in self.spans if s.name == ROOT]
        ops = len(roots)
        known = set(SELF_MS.values())
        self_s, total_s, calls, errors = Counter(), Counter(), Counter(), defaultdict(Counter)
        qz_eigen_s = 0.0  # inclusive pencil_eigen time of the calls that reached QZ
        for s in self.spans:
            if s.name not in known:
                raise RuntimeError(f"span {s.name} has no metric")
            self_s[s.name] += s.self_s
            total_s[s.name] += s.total_s
            calls[s.name] += 1
            if s.error:
                errors[s.name][s.error] += 1
            if s.name == "spectral.qz" and s.parent is not None:
                qz_eigen_s += self.spans[s.parent].total_s
        samples = sum(1 for _, name, parent in self.counts
                      if parent is not None and self.spans[parent].name == "spectral.eigen")
        qz = total_s["spectral.qz"]
        traced_s = total_s[ROOT]
        metrics = {m: 1e3 * self_s[name] / ops for m, name in SELF_MS.items()}
        metrics.update({
            "spectral.eigen_over_qz": qz_eigen_s / qz if qz else 0.0,
            "spectral.regularity_samples": samples / ops,
            "spectral.singular_verdicts": errors["spectral.eigen"]["SingularPencilError"] / ops,
            "spectral.recover_calls": calls["spectral.recover"] / ops,
            "spectral.recover_errors": errors["spectral.recover"]["RecoveryError"] / ops,
            "spectral.recover_over_qz": total_s["spectral.recover"] / qz if qz else 0.0,
            "basis.phi_vector_calls": calls["basis.phi_vector"] / ops,
            "matpoly.evaluate_calls": calls["matpoly.evaluate"] / ops,
            "serialize.out_kb": out_bytes / 1024.0 / ops,
            "trace.op_ms": 1e3 * traced_s / ops,
            "trace.overhead_share": traced_s / untraced_s - 1.0,
        })
        return metrics
