"""Command-line front end: JSON in, JSON report out.

Exit codes: 0 success (verdict payloads carry pass/fail, not exit codes),
2 malformed input, 3 dimension mismatch, 4 singular pencil / singular
polynomial where regularity is required.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .ansatz import check_linearization, dimension_m, make_m1, make_m2, verify_membership
from .basis import builtin_basis
from .blocksym import build_dm_pencil
from .errors import (
    DimensionMismatchError,
    OrthopencilError,
    SingularMatrixPolynomialError,
    SingularPencilError,
)
from .matpoly import MatrixPolynomial
from .oracle import reference_spectrum
from .pencil import anchor_pencil
from .serialize import (
    dump_json,
    factor_from_obj,
    factor_to_obj,
    pencil_from_obj,
    pencil_to_obj,
    problem_from_obj,
    spectrum_report_obj,
)
from .spectral import eigenvalue_exclusion, pencil_eigen, recover_left, recover_right

RANDOM_BASIS_KINDS = ("monomial", "chebyshev1", "chebyshev2", "legendre")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _random_problem(spec: str, kind: str) -> MatrixPolynomial:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError("--random expects n,k,seed (seed is mandatory)")
    n, k, seed = (int(p) for p in parts)
    rng = np.random.default_rng(seed)
    basis = builtin_basis(kind)
    coeffs = [rng.uniform(-1.0, 1.0, (n, n)) for _ in range(k + 1)]
    return MatrixPolynomial(tuple(coeffs), basis)


def _load_problem(args) -> MatrixPolynomial:
    if getattr(args, "random", None):
        return _random_problem(args.random, args.basis)
    if not getattr(args, "problem", None):
        raise ValueError("a problem is required: pass -p problem.json or --random n,k,seed")
    return problem_from_obj(_load_json(args.problem))


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.split(",")], dtype=float)


def _emit(obj):
    sys.stdout.write(dump_json(obj) + "\n")


def _cmd_anchor(args) -> int:
    _emit(pencil_to_obj(anchor_pencil(_load_problem(args))))
    return 0


def _cmd_ansatz(args) -> int:
    P = _load_problem(args)
    f = factor_from_obj(_load_json(args.factor))
    if args.side:
        f = type(f)(f.v, f.B, args.side.upper())
    L = make_m1(P, f) if f.side == "M1" else make_m2(P, f)
    _emit(pencil_to_obj(L))
    return 0


def _cmd_blocksym(args) -> int:
    P = _load_problem(args)
    v = _parse_vector(args.v)
    factor, L = build_dm_pencil(P, v)
    _emit({"factor": factor_to_obj(factor), "pencil": pencil_to_obj(L)})
    return 0


def _cmd_check(args) -> int:
    P = _load_problem(args)
    f = factor_from_obj(_load_json(args.factor))
    if f.k != P.k or f.n != P.n:
        raise DimensionMismatchError(
            f"factor is for (k, n) = ({f.k}, {f.n}), problem has ({P.k}, {P.n})"
        )
    chk = check_linearization(f)
    _emit(
        {
            "rank": chk.rank,
            "deficiency": chk.deficiency,
            "is_strong_linearization": chk.is_strong_linearization,
            "sigma_min": chk.sigma_min,
            "space_dimension": dimension_m(P.k, P.n),
        }
    )
    return 0


def _cmd_membership(args) -> int:
    P = _load_problem(args)
    L = pencil_from_obj(_load_json(args.pencil))
    report = verify_membership(L, P, side=args.side.upper(), tol=args.tol)
    _emit({"member": report.member, "v": report.v.tolist(), "residual": report.residual})
    return 0


def _cmd_eig(args) -> int:
    P = _load_problem(args)
    side = "M1"
    if args.factor:
        f = factor_from_obj(_load_json(args.factor))
        side = f.side
        L = make_m1(P, f) if side == "M1" else make_m2(P, f)
        v = f.v
    else:
        L = anchor_pencil(P)
        v = np.zeros(P.k)
        v[0] = 1.0
    triples = pencil_eigen(L)
    rights = lefts = None
    if args.recover:
        # Kronecker structure sits in the right eigenvectors for side M1 and
        # in the left eigenvectors for side M2; the other side recovers by the
        # blockwise v-weighted sum.
        rights, lefts = [], []
        for t in triples:
            if side == "M1":
                rights.append(recover_right(P, t.eigenvalue, t.right, tol=args.tol))
                lefts.append(recover_left(v, t.left) if t.left is not None
                             else np.zeros(P.n))
            else:
                rights.append(recover_left(v, t.right))
                lefts.append(
                    recover_right(P, t.eigenvalue, t.left, tol=args.tol, nullside="left")
                    if t.left is not None else np.zeros(P.n)
                )
    _emit(spectrum_report_obj(triples, rights, lefts))
    return 0


def _cmd_exclusion(args) -> int:
    P = _load_problem(args)
    report = eigenvalue_exclusion(P, _parse_vector(args.v), tol=args.tol)
    _emit(
        {
            "excluded": report.excluded,
            "roots": [[z.real, z.imag] for z in report.roots],
            "min_distance": None if np.isinf(report.min_distance) else report.min_distance,
            "v1": report.v1,
            "infinite_count": report.infinite_count,
        }
    )
    return 0


def _cmd_oracle(args) -> int:
    P = _load_problem(args)
    spec = reference_spectrum(P)
    finite = sorted(spec.finite, key=lambda z: (z.real, z.imag))
    _emit(
        {
            "finite": [{"re": z.real, "im": z.imag} for z in finite],
            "infinite_count": spec.infinite_count,
        }
    )
    return 0


def _add_problem_args(sub):
    sub.add_argument("-p", "--problem", help="problem JSON file")
    sub.add_argument("--random", help="random problem as n,k,seed (seed mandatory)")
    sub.add_argument("--basis", default="chebyshev1", choices=RANDOM_BASIS_KINDS,
                     help="basis kind for --random problems")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthopencil",
        description="Construct, classify, and validate linearizations of matrix "
        "polynomials in orthogonal and degree-graded bases.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("anchor", help="emit the anchor pencil of a problem")
    _add_problem_args(s)
    s.set_defaults(func=_cmd_anchor)

    s = subs.add_parser("ansatz", help="emit the pencil of a (v, B) factor")
    _add_problem_args(s)
    s.add_argument("-f", "--factor", required=True)
    s.add_argument("--side", choices=["m1", "m2", "M1", "M2"])
    s.set_defaults(func=_cmd_ansatz)

    s = subs.add_parser("blocksym", help="build the block-symmetric pencil for v")
    _add_problem_args(s)
    s.add_argument("--v", required=True, help="comma-separated ansatz vector")
    s.set_defaults(func=_cmd_blocksym)

    s = subs.add_parser("check", help="rank test of a factor")
    _add_problem_args(s)
    s.add_argument("-f", "--factor", required=True)
    s.set_defaults(func=_cmd_check)

    s = subs.add_parser("membership", help="verify the ansatz identity for a pencil")
    _add_problem_args(s)
    s.add_argument("--pencil", required=True)
    s.add_argument("--side", default="m1", choices=["m1", "m2", "M1", "M2"])
    s.add_argument("--tol", type=float, default=1e-8)
    s.set_defaults(func=_cmd_membership)

    for name in ("eig", "recover"):
        s = subs.add_parser(
            name,
            help="pencil spectrum report" if name == "eig"
            else "pencil spectrum report with eigenvector recovery",
        )
        _add_problem_args(s)
        s.add_argument("--factor", help="factor JSON (default: anchor pencil)")
        s.add_argument("--recover", action="store_true", default=(name == "recover"))
        s.add_argument("--tol", type=float, default=1e-6)
        s.set_defaults(func=_cmd_eig)

    s = subs.add_parser("exclusion", help="eigenvalue exclusion verdict for v")
    _add_problem_args(s)
    s.add_argument("--v", required=True)
    s.add_argument("--tol", type=float, default=1e-8)
    s.set_defaults(func=_cmd_exclusion)

    s = subs.add_parser("oracle", help="brute-force reference spectrum")
    _add_problem_args(s)
    s.set_defaults(func=_cmd_oracle)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SingularPencilError, SingularMatrixPolynomialError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DimensionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OrthopencilError, ValueError, TypeError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
