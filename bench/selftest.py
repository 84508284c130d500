#!/usr/bin/env python3
"""Fast self-test of the benchmark itself; about half a minute.

    python3 bench/selftest.py

Runs a tiny pass of every workload, traced and untraced, and checks that
every metric named in BENCHMARK.json appears with its unit, that traced and
untraced ops write identical bytes, that the layer self times add up to the
traced op time, that the tracer refuses a missing target, and that the
checker rejects deliberately corrupted outputs.
"""

import run  # first: pins the BLAS threads before numpy is imported

import json  # noqa: E402
import os  # noqa: E402

import numpy as np  # noqa: E402
from numpy.polynomial import chebyshev  # noqa: E402

import checker  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Op, random_coeffs  # noqa: E402


def check_metric_names(spec, tiny_records):
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for plain, traced in tiny_records:
        got = {name: entry["unit"] for name, entry in plain["metrics"].items()}
        assert got == end_to_end, (plain["workload"], got)
        got = {name: entry["unit"] for name, entry in traced["metrics"].items()}
        assert got == per_layer, (traced["workload"], got)
        assert plain["correct"] and traced["correct"], plain["workload"]
        assert traced["trace_mismatches"] == 0, "traced and untraced stdout differ"
        values = {name: entry["value"] for name, entry in traced["metrics"].items()}
        accounted = sum(values[name] for name in tracer.SELF_MS)
        assert abs(accounted - values["trace.op_ms"]) <= 1e-9 * values["trace.op_ms"], \
            (traced["workload"], accounted, values["trace.op_ms"])


def check_tracer_refuses_missing_target(package):
    saved = tracer.TIMED
    tracer.TIMED = saved + (("cli", "no_such_layer", "cli.missing"),)
    try:
        with tracer.Tracer(package).installed(0):
            raise AssertionError("a missing trace target was accepted")
    except RuntimeError as exc:
        assert "no longer exists" in str(exc)
    finally:
        tracer.TIMED = saved
    assert "evaluate" in vars(package.matpoly.MatrixPolynomial)
    assert not hasattr(package.cli.pencil_eigen, "__wrapped__"), "a wrapper was left installed"


def check_checker_rejects_corruption(package):
    op = Op("recover", "recover/anchor", ["recover", "--random", "4,3,5", "--basis", "chebyshev1"],
            {"kind": "chebyshev1"}, random_coeffs(4, 3, 5))
    outcome = run.call(package.cli.run, op.argv)
    assert checker.judge(op, outcome.rc, outcome.stdout, "", None) == (None, "")

    def judged(mutate):
        obj = json.loads(outcome.stdout)
        mutate(obj)
        return checker.judge(op, 0, json.dumps(obj), "", None)[0]

    def shift_eigenvalue(obj):
        obj["finite"][0]["re"] += 1e-6 * (1.0 + abs(obj["finite"][0]["re"]))

    def shift_vector(obj):
        obj["eigenvectors"]["right"][0][0][0] += 1e-3

    def drop_eigenvalue(obj):
        obj["finite"].pop()

    assert judged(shift_eigenvalue) == "backward_error"
    assert judged(shift_vector) == "recovery_error"
    assert judged(drop_eigenvalue) == "bad_output"
    assert checker.judge(op, 4, "", "error: singular", None)[0] == "singular_verdict"
    assert checker.judge(op, None, "", "", "RuntimeError: x")[0] == "exception"


def check_own_recurrence():
    """The checker's three-term recurrence agrees with numpy's Chebyshev T."""
    x = np.array([0.3 + 0.2j, -1.7, 2.5j])
    k = 8
    custom = {"kind": "custom", "alpha": [1.0] + [0.5] * (k - 1), "beta": [0.0] * k,
              "gamma": [0.0] + [0.5] * (k - 1)}
    assert np.allclose(checker.phis(custom, k, x), chebyshev.chebvander(x, k).T, rtol=1e-13)


def main():
    os.chdir(run.ROOT)
    package = run.load_program()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    records = []
    for name in WORKLOADS:
        records.append(tuple(run.measure(package, name, seed=7, seconds=0, trace=trace,
                                         tiny=True, max_passes=1) for trace in (False, True)))
    check_metric_names(spec, records)
    check_tracer_refuses_missing_target(package)
    check_checker_rejects_corruption(package)
    check_own_recurrence()
    print(f"bench self-test passed ({len(records)} workloads)")


if __name__ == "__main__":
    main()
