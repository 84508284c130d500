#!/usr/bin/env python3
"""Benchmark of the orthopencil command line.

    python3 bench/run.py --workload eig-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
One client calls ``orthopencil.cli.run(argv)`` in a closed loop in this
process, with stdout and stderr captured and BLAS pinned to one thread.
Every op's output is judged by checker.py, which does not use orthopencil.

--trace 0 reports the end-to-end metrics.  Every op then runs once in each of
three rounds and its time is the least of the three; a fixed computation that
does not use orthopencil is timed among the ops and scales their times to the
reference speed.  --trace 1 makes one round, runs every op twice, untraced and
traced in alternating order, asserts that both write the same bytes, and
reports the per-layer metrics of tracer.py.  The last line of
stdout is one JSON object; a fuller record, with provenance and the failure
breakdown, goes to .bench_out/.  See bench/README.md.
"""

import os

# The pin must precede the first import of numpy in this process.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

import checker  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Relative, so that recorded command lines do not depend on where the checkout is;
# main() changes into the checkout root.
WORKDIR = Path(".bench_out")
# Untraced, each op runs once per round; its time is the least of its rounds.
ROUNDS = 3
# Set-up starts spread evenly over each round, so that they sample the whole run.
SETUP_STARTS_PER_ROUND = 3
# Calls of the reference computation mixed into each untraced round.
REF_CALLS = 90
# The reference computation's time on the reference host when it is not slowed
# by other tenants (two-core x86_64, scipy-openblas 0.3.31, one thread).
REF_MS = 6.0
_REF_PENCIL = np.random.default_rng(20161).uniform(-1.0, 1.0, (2, 48, 48))
SETUP_OP = ["eig", "--random", "6,4,7"]
# Keeps a run well inside the 180 s a single invocation may take.
WALL_LIMIT_S = 140.0

REASONS = checker.REASONS + ("unrepeatable",)
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "solved_per_s": "1/s",
    "fail_share": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_program():
    if not (SRC / "orthopencil" / "cli.py").is_file():
        raise BenchError(f"no orthopencil sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("orthopencil")
    importlib.import_module("orthopencil.cli")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"orthopencil was imported from {package.__file__}, not from {SRC}")
    return package


def reload_program():
    for module in [m for m in sys.modules if m == "orthopencil" or m.startswith("orthopencil.")]:
        del sys.modules[module]
    return load_program()


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    stderr: str
    exc: str | None
    seconds: float


def call(run, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = run(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # an escaped exception is a failed op, not a failed benchmark
            exc = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - start
    return Outcome(rc, out.getvalue(), err.getvalue(), exc, seconds)


def reference_call() -> float:
    """Seconds of a fixed computation that does not use orthopencil: a 48 x 48
    QZ and the JSON of its eigenvectors, the two costs that dominate an op."""
    start = time.perf_counter()
    _, vectors = scipy.linalg.eig(*_REF_PENCIL)
    json.dumps([[float(x.real), float(x.imag)] for x in vectors.ravel()])
    return time.perf_counter() - start


def call_traced(tr, op: int, argv) -> Outcome:
    with tr.installed(op) as traced_run:
        return call(traced_run, argv)


def setup_start() -> float:
    """Seconds from spawning a fresh interpreter to the end of one warm-up op."""
    code = "\n".join([
        "import contextlib, io, sys, time",
        f"sys.path.insert(0, {str(SRC)!r})",
        "import orthopencil.cli as cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    rc = cli.run({SETUP_OP!r})",
        "print(time.monotonic(), rc)",
    ])
    start = time.monotonic()  # CLOCK_MONOTONIC is shared by every process on the host
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, timeout=60)
    fields = proc.stdout.split()
    if proc.returncode or len(fields) != 2 or fields[1] != "0":
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return float(fields[0]) - start


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name)
                         for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def measure(package, name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, max_passes: int | None = None) -> dict:
    """Run one workload and return its record (metrics, counts, failures)."""
    workload = WORKLOADS[name]
    WORKDIR.mkdir(exist_ok=True)

    def program(argv):
        outcome = call(package.cli.run, argv)
        if outcome.rc != 0:
            raise BenchError(f"input generation failed: {argv[0]}: {outcome.stderr.strip()[:200]}")
        return outcome.stdout

    def make_pass(rng, fixed, workdir, tiny):
        workdir.mkdir(exist_ok=True)
        return fixed + workload.make_pass(rng, workdir, program, tiny=tiny)

    # warm-up: one tiny pass, neither timed nor judged
    warm_rng = np.random.default_rng([seed, 1 << 30])
    warm_fixed = workload.setup(warm_rng, WORKDIR, program, tiny=True) if workload.setup else []
    for op in make_pass(warm_rng, warm_fixed, WORKDIR / "warm", tiny=True):
        call(package.cli.run, op.argv)
    setup_rng = np.random.default_rng([seed, 1 << 31])
    fixed = workload.setup(setup_rng, WORKDIR, program, tiny=tiny) if workload.setup else []

    # The op count follows from --seconds, never from the clock, so that the seed
    # fixes every op of a run and with it `attempted` and `failed`.  Untraced, each
    # op runs once in each of ROUNDS rounds; a traced run makes one round of twins.
    rounds = 1 if trace else ROUNDS
    if max_passes is None:
        max_passes = math.ceil(seconds / workload.pass_seconds / (2 if trace else rounds))
    ops = []
    for p in range(max_passes):
        ops += make_pass(np.random.default_rng([seed, p]), fixed, WORKDIR / f"pass-{p}", tiny)
    min_ops = math.ceil(10 / (1 - workload.tail_percentile / 100))
    if len(ops) < min_ops and not tiny:
        raise BenchError(f"{len(ops)} ops leave fewer than ten beyond p{workload.tail_percentile:g}")

    tr = tracer.Tracer(package) if trace else None
    op_s = np.full(len(ops), np.inf)
    # Untraced, REF_CALLS reference calls join the ops of every round and are
    # timed the same way; their times scale the run to the reference speed.
    n_ref = 0 if trace else REF_CALLS
    ref_s = np.full(n_ref, np.inf)
    reasons = [None] * len(ops)
    digests = [None] * len(ops)
    examples = {}
    setup_samples = []
    untraced = 0.0
    out_bytes = mismatches = 0
    wall_start = time.monotonic()
    if tr is None:
        setup_start()  # untimed: fills the page and bytecode caches for later starts
        setup_every = math.ceil((len(ops) + n_ref) / (1 if tiny else SETUP_STARTS_PER_ROUND))
    for r in range(rounds):
        if time.monotonic() - wall_start > WALL_LIMIT_S:
            raise BenchError(f"{r} of {rounds} rounds took over {WALL_LIMIT_S:g} s")
        if r:
            # a fresh import, as each CLI invocation has: no state of the program
            # outlives a round, so a repeat cannot be served from the first run
            package = reload_program()
        run = package.cli.run
        for j, i in enumerate(np.random.default_rng([seed, 1 << 29, r]).permutation(len(ops) + n_ref)):
            if tr is None and j % setup_every == 0:
                setup_samples.append(setup_start())
            if i >= len(ops):
                ref_s[i - len(ops)] = min(ref_s[i - len(ops)], reference_call())
                continue
            op = ops[i]
            if tr is None:
                outcome = call(run, op.argv)
            else:
                # alternate which twin runs first, so neither always finds warm caches
                if i % 2:
                    traced = call_traced(tr, int(i), op.argv)
                outcome = call(run, op.argv)
                if not i % 2:
                    traced = call_traced(tr, int(i), op.argv)
                mismatches += (traced.stdout, traced.rc) != (outcome.stdout, outcome.rc)
                untraced += outcome.seconds
                out_bytes += len(outcome.stdout.encode())
            op_s[i] = min(op_s[i], outcome.seconds)
            digest = (outcome.rc, hashlib.blake2b(outcome.stdout.encode()).digest())
            if r == 0:
                reasons[i], detail = checker.judge(op, outcome.rc, outcome.stdout,
                                                   outcome.stderr, outcome.exc)
                digests[i] = digest
            elif digest != digests[i] and reasons[i] is None:
                reasons[i], detail = "unrepeatable", f"round {r} wrote other output than round 0"
            else:
                continue
            if reasons[i] is not None:
                examples.setdefault(f"{op.title}: {reasons[i]}", f"{' '.join(op.argv)} -> {detail}")
    shutil.rmtree(WORKDIR / "warm")
    for p in range(max_passes):
        shutil.rmtree(WORKDIR / f"pass-{p}")

    attempted = len(ops)
    failed = sum(r is not None for r in reasons)
    ms = op_s * 1e3
    # The host's speed changes by up to 1.8x over tens of seconds, for every
    # process alike.  Untraced op times are scaled by REF_MS over the reference
    # computation's time in the same run, taken with the same statistic: the
    # median of its least-of-rounds times.  Set-up starts stay unscaled; a
    # fresh interpreter did not track the reference calls.
    op_scale = REF_MS / (float(np.median(ref_s)) * 1e3) if n_ref else 1.0
    labels = [op.title for op in ops]
    by_label = defaultdict(Counter)
    for label, reason in zip(labels, reasons):
        by_label[label][reason or "solved"] += 1
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "passes": max_passes,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "fail_reasons": {r: reasons.count(r) for r in REASONS},
        "fail_by_label": {label: dict(c) for label, c in sorted(by_label.items())},
        "fail_examples": examples,
        "tail_percentile": workload.tail_percentile,
        "tolerance": f"{checker.TOL_FACTOR:g} * kn * eps",
        "label_median_ms": {label: float(np.median(ms[[lb == label for lb in labels]]))
                            for label in sorted(by_label)},
        "provenance": provenance(seed),
    }
    if tr is None:
        record["setup_samples_s"] = setup_samples
        record["reference"] = {
            "ref_ms": REF_MS,
            "least_of_rounds_median_ms": float(np.median(ref_s)) * 1e3,
            "op_scale": op_scale,
        }
        raw = {
            "op_ms_p50": float(np.median(ms)),
            "op_ms_tail": float(np.percentile(ms, workload.tail_percentile)),
            "solved_per_s": (attempted - failed) / float(np.sum(op_s)),
        }
        record["unscaled"] = raw
        values = {
            "setup_s": statistics.median(setup_samples),
            "op_ms_p50": raw["op_ms_p50"] * op_scale,
            "op_ms_tail": raw["op_ms_tail"] * op_scale,
            "solved_per_s": raw["solved_per_s"] / op_scale,
            "fail_share": failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        record["trace_mismatches"] = mismatches
        spans = WORKDIR / f"spans-{name}-seed{seed}.jsonl"
        tr.write(spans)
        record["spans_file"] = str(spans)
        values = tr.layer_metrics(out_bytes, untraced)
        units = {metric: unit for metric, (unit, _) in tracer.LAYER_METRICS.items()}
    record["metrics"] = {metric: {"value": values[metric], "unit": units[metric]} for metric in units}
    # `correct` says every op was judged and, when traced, wrote the same bytes
    # as its untraced twin; what the checker rejected is counted in `failed`.
    record["correct"] = (sum(record["fail_reasons"].values()) == failed and mismatches == 0
                         and attempted > 0)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        package = load_program()
        record = measure(package, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    path = WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"{args.workload}: {record['attempted']} ops in {record['passes']} passes, "
          f"{record['failed']} failed {record['fail_reasons']}; record in {path}")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:30s} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"  (op_ms_tail is p{record['tail_percentile']:g})")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
