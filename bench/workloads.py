"""Workload definitions: the CLI invocations of one pass, made from a seed.

A run makes a number of passes that follows from --seconds and the workload's
nominal pass time.  Every pass holds the same mix of commands, bases and
sizes, so a run's medians and failure share do not depend on how many passes
it made, and a seed fixes every op of a run.  The ops a workload's ``setup``
makes once are repeated in every pass; those of ``make_pass`` get fresh
random matrices.
Problems given as ``--random n,k,seed`` are regenerated here by the CLI's
documented rule (k + 1 draws of uniform(-1, 1, (n, n)) from numpy's
default_rng(seed)); every other input is written to a file in the work
directory before the pass is timed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checker

RANDOM_KINDS = ("monomial", "chebyshev1", "chebyshev2", "legendre")
FILE_KINDS = ("newton", "custom", "degree_graded")
TINY = (3, 3)


@dataclass
class Op:
    """One CLI invocation plus what the checker needs to judge its output."""

    command: str
    label: str
    argv: list
    basis: dict
    coeffs: np.ndarray
    expect: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    @property
    def k(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def kn(self) -> int:
        return self.k * self.n

    @property
    def title(self) -> str:
        return f"{self.label} {self.basis['kind']} n={self.n} k={self.k}"


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: Callable  # (rng, workdir, program, tiny) -> list[Op]
    tail_percentile: float
    # Timed op seconds of one pass on the reference host; a run makes
    # ceil(--seconds / pass_seconds) passes.
    pass_seconds: float
    setup: Callable | None = None  # same signature; its ops join every pass


def random_coeffs(n: int, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([rng.uniform(-1.0, 1.0, (n, n)) for _ in range(k + 1)])


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _vector_arg(v) -> str:
    # "--v=" keeps argparse from reading a leading minus sign as an option
    return "--v=" + ",".join(repr(float(x)) for x in v)


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _random_problem(rng, kind, n, k):
    seed = _seed(rng)
    return ["--random", f"{n},{k},{seed}", "--basis", kind], {"kind": kind}, random_coeffs(n, k, seed)


def _file_problem(rng, kind, n, k, path: Path):
    """A newton, custom or degree-graded problem written as a problem file."""
    if kind == "newton":
        basis = {"kind": "newton", "nodes": rng.uniform(-1.0, 1.0, k).tolist()}
    elif kind == "custom":
        basis = {"kind": "custom", "alpha": rng.uniform(0.5, 1.5, k).tolist(),
                 "beta": rng.uniform(-0.3, 0.3, k).tolist(),
                 "gamma": rng.uniform(0.1, 0.5, k).tolist()}
    else:
        basis = {"kind": "degree_graded", "shift": rng.uniform(-0.5, 0.5, k).tolist(),
                 "lower": [rng.uniform(-0.3, 0.3, i - 1).tolist() for i in range(2, k + 1)]}
    coeffs = rng.uniform(-1.0, 1.0, (k + 1, n, n))
    _write_json(path, {"basis": basis, "n": n, "k": k, "coefficients": coeffs.tolist()})
    return ["-p", str(path)], basis, coeffs


def _blocksym_factor(program, problem_args, v, side, path: Path) -> str:
    """Factor of the block-symmetric pencil with vector v, made by the CLI itself."""
    factor = json.loads(program(["blocksym", *problem_args, _vector_arg(v)]))["factor"]
    factor["side"] = side
    return _write_json(path, factor)


# ------------------------------------------------------------ eig-large ----

# Fifteen sizes spread kn over 96-240 so that op times form a continuum: the
# median and the tail then sit between ops of nearby cost, and a change of
# machine speed during a run moves them smoothly instead of by whole steps.
# Costs step up between kn = 180 and kn = 192; (14, 8) and (9, 15) put the
# median below that step.
EIG_SHAPES = ((12, 8), (6, 18), (14, 8), (10, 12), (8, 16), (9, 15), (16, 9), (8, 19),
              (20, 8), (24, 7), (18, 10), (16, 12), (20, 10), (16, 15), (40, 6))


def eig_large_pass(rng, workdir, program, tiny=False):
    ops = []
    for n, k in ([TINY] if tiny else EIG_SHAPES):
        for kind in RANDOM_KINDS:
            args, basis, coeffs = _random_problem(rng, kind, n, k)
            ops.append(Op("eig", "eig/anchor", ["eig", *args], basis, coeffs))
    return ops


# ---------------------------------------------------------- recover-deep ----

# Distinct sizes for the same reason as EIG_SHAPES.
RECOVER_ANCHOR_SHAPES = ((6, 20), (8, 14), (10, 16), (7, 18))
RECOVER_FACTOR_SHAPES = ((8, 12), (6, 16), (12, 10), (10, 18), (7, 14), (9, 11), (11, 13), (6, 19))


def recover_deep_pass(rng, workdir, program, tiny=False):
    ops = []
    for n, k in ([TINY] if tiny else RECOVER_ANCHOR_SHAPES):
        for kind in RANDOM_KINDS:
            args, basis, coeffs = _random_problem(rng, kind, n, k)
            ops.append(Op("recover", "recover/anchor", ["recover", *args], basis, coeffs))
    return ops


def recover_deep_setup(rng, workdir, program, tiny=False):
    """Block-symmetric factor files, made once per run: building one costs about
    as much as the op that uses it."""
    ops = []
    factor_shapes = [TINY] * len(RANDOM_KINDS) if tiny else RECOVER_FACTOR_SHAPES
    for turn, side in enumerate(("M1", "M2")):
        for idx, (n, k) in enumerate(factor_shapes):
            kind = RANDOM_KINDS[(idx + turn) % len(RANDOM_KINDS)]
            args, basis, coeffs = _random_problem(rng, kind, n, k)
            path = _blocksym_factor(program, args, rng.uniform(-1.0, 1.0, k), side,
                                    workdir / f"recover-factor-{side}-{idx}.json")
            ops.append(Op("recover", f"recover/blocksym-{side}",
                          ["recover", *args, "--factor", path], basis, coeffs))
    return ops


# ----------------------------------------------------------- small-mixed ----

SMALL_SHAPES = ((2, 3), (3, 4), (4, 5), (5, 6), (6, 8), (3, 8), (6, 3))
SMALL_LABELS = ("anchor", "ansatz/M1", "ansatz/M2", "blocksym", "check", "membership",
                "eig/anchor", "eig/blocksym", "recover", "exclusion", "oracle")


def _random_factor(rng, n, k, side, deficient=False):
    v = rng.uniform(-1.0, 1.0, k)
    B = rng.uniform(-1.0, 1.0, (k * n, (k - 1) * n))
    if deficient:
        B[:, 1] = B[:, 0]
    return v, B, {"v": v.tolist(), "B": B.tolist(), "side": side}


def _small_op(rng, workdir, program, b, label, kind, n, k):
    stem = workdir / f"small-{b}-{label.replace('/', '-')}"
    if kind in RANDOM_KINDS:
        problem, basis, coeffs = _random_problem(rng, kind, n, k)
    else:
        problem, basis, coeffs = _file_problem(rng, kind, n, k, stem.with_suffix(".problem.json"))
    command = label.split("/")[0]
    argv = [command, *problem]
    expect = {}
    if command == "ansatz":
        side = label.split("/")[1]
        v, _, obj = _random_factor(rng, n, k, side)
        argv += ["-f", _write_json(stem.with_suffix(".factor.json"), obj)]
        expect = {"v": v, "side": side}
    elif command == "check":
        side = ("M1", "M2")[(b // 2) % 2]
        v, B, obj = _random_factor(rng, n, k, side, deficient=b % 2 == 1)
        argv += ["-f", _write_json(stem.with_suffix(".factor.json"), obj)]
        expect = {"rank": checker.rank_report(v, B, side)}
    elif command == "membership":
        member, side = b % 2 == 0, ("M1", "M2")[(b // 2) % 2]
        v, B, _ = _random_factor(rng, n, k, "M1")
        X, Y = checker.anchor(coeffs, basis)
        T = checker.side_multiplier(v, B, "M1")
        X, Y = T @ X, T @ Y
        if side == "M2":
            # the block transpose of an M1 member with vector v is an M2 member with v
            X, Y = checker.block_transpose(X, n), checker.block_transpose(Y, n)
        if not member:
            Y[0, -1] += 1e-3 * np.max(np.abs(Y))
        residual = checker.identity_residual(X, Y, coeffs, basis, v, side)
        if (residual <= checker.tolerance(k * n)) != member:
            raise RuntimeError(f"membership input broke its construction (residual {residual:.3e})")
        obj = {"n": n, "k": k, "X": X.tolist(), "Y": Y.tolist()}
        argv += ["--pencil", _write_json(stem.with_suffix(".pencil.json"), obj), "--side", side]
        expect = {"member": member, "v": v}
    elif command in ("blocksym", "exclusion"):
        v = rng.uniform(-1.0, 1.0, k)
        argv.append(_vector_arg(v))
        expect = {"v": v}
    elif label == "eig/blocksym":
        path = _blocksym_factor(program, problem, rng.uniform(-1.0, 1.0, k), "M1",
                                stem.with_suffix(".factor.json"))
        argv += ["--factor", path]
    return Op(command, label, argv, basis, coeffs, expect)


def small_mixed_pass(rng, workdir, program, tiny=False):
    ops = []
    for b, kind in enumerate(RANDOM_KINDS + FILE_KINDS):
        for c, label in enumerate(SMALL_LABELS):
            n, k = TINY if tiny else SMALL_SHAPES[(b + c) % len(SMALL_SHAPES)]
            ops.append(_small_op(rng, workdir, program, b, label, kind, n, k))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("eig-large", eig_large_pass, 75.0, 7.5),
        Workload("recover-deep", recover_deep_pass, 85.0, 2.5, setup=recover_deep_setup),
        Workload("small-mixed", small_mixed_pass, 98.0, 0.45),
    )
}
