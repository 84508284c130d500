"""Command-line front end: JSON in, JSON report out.

Each call builds only the parser of the subcommand that its first argument
names, so a small op does not pay for the other commands' options.  The
full parser is built when the first argument names no command (no
arguments, --help, an unknown name) or when arguments are left over; help,
errors and exit codes are the same either way.

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
    v = np.array([float(t) for t in text.split(",")], dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"--v must be finite, got {text}")
    return v


def _tolerance(tol: float) -> float:
    if not 0.0 < tol < np.inf:
        raise ValueError(f"--tol must be finite and positive, got {tol}")
    return tol


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
    tol = _tolerance(args.tol)
    P = _load_problem(args)
    L = pencil_from_obj(_load_json(args.pencil))
    report = verify_membership(L, P, side=args.side.upper(), tol=tol)
    _emit({"member": report.member, "v": report.v.tolist(), "residual": report.residual})
    return 0


def _cmd_eig(args) -> int:
    tol = _tolerance(args.tol)
    P = _load_problem(args)
    f = factor_from_obj(_load_json(args.factor)) if args.factor else None
    L = anchor_pencil(P) if f is None else (make_m1(P, f) if f.side == "M1" else make_m2(P, f))
    side = "M1" if f is None else f.side
    # without recovery no left eigenvector is used, so the solver skips them
    triples = pencil_eigen(L, left=args.recover, anchor=P, factor=f)
    rights = lefts = None
    if args.recover:
        # pencil_eigen read P's vectors on both sides off the anchor: L's
        # Kronecker-structured eigenvectors (right for side M1, left for M2)
        # are fitted, and the other side's block sums pass through a one-block
        # recover_left, which returns them as they are and checks them.  Both
        # face --tol.  Columns follow the sorted triples.
        lams = np.array([t.eigenvalue for t in triples])
        kron = np.stack([t.right if side == "M1" else t.left for t in triples], axis=1)
        sums = np.stack([t.weighted_sum for t in triples], axis=1)
        nullside, flipped = ("right", "left") if side == "M1" else ("left", "right")
        fitted = recover_right(P, lams, kron, tol=tol, nullside=nullside)
        summed = recover_left(np.ones(1), sums, P, lams, tol=tol, nullside=flipped)
        rights, lefts = (fitted, summed) if side == "M1" else (summed, fitted)
        rights, lefts = rights.T, lefts.T
    _emit(spectrum_report_obj(triples, rights, lefts))
    return 0


def _cmd_exclusion(args) -> int:
    tol = _tolerance(args.tol)
    P = _load_problem(args)
    report = eigenvalue_exclusion(P, _parse_vector(args.v), tol=tol)
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


def _no_args(sub):
    pass


def _factor_args(sub):
    sub.add_argument("-f", "--factor", required=True)


def _ansatz_args(sub):
    _factor_args(sub)
    sub.add_argument("--side", choices=["m1", "m2", "M1", "M2"])


def _blocksym_args(sub):
    sub.add_argument("--v", required=True, help="comma-separated ansatz vector")


def _membership_args(sub):
    sub.add_argument("--pencil", required=True)
    sub.add_argument("--side", default="m1", choices=["m1", "m2", "M1", "M2"])
    sub.add_argument("--tol", type=float, default=1e-8)


def _spectrum_args(recover: bool):
    def add(sub):
        sub.add_argument("--factor", help="factor JSON (default: anchor pencil)")
        sub.add_argument("--recover", action="store_true", default=recover)
        sub.add_argument("--tol", type=float, default=1e-6)
    return add


def _exclusion_args(sub):
    sub.add_argument("--v", required=True)
    sub.add_argument("--tol", type=float, default=1e-8)


# Every subcommand, once: name -> (help, adder of the arguments after the
# problem arguments, handler).  The order is the order of the help listing.
COMMANDS = {
    "anchor": ("emit the anchor pencil of a problem", _no_args, _cmd_anchor),
    "ansatz": ("emit the pencil of a (v, B) factor", _ansatz_args, _cmd_ansatz),
    "blocksym": ("build the block-symmetric pencil for v", _blocksym_args, _cmd_blocksym),
    "check": ("rank test of a factor", _factor_args, _cmd_check),
    "membership": ("verify the ansatz identity for a pencil", _membership_args,
                   _cmd_membership),
    "eig": ("pencil spectrum report", _spectrum_args(False), _cmd_eig),
    "recover": ("pencil spectrum report with eigenvector recovery", _spectrum_args(True),
                _cmd_eig),
    "exclusion": ("eigenvalue exclusion verdict for v", _exclusion_args, _cmd_exclusion),
    "oracle": ("brute-force reference spectrum", _no_args, _cmd_oracle),
}


def build_parser(only=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with ``only`` of that one alone.

    A subcommand parses and fails the same way in both: its own parser, and
    its prog "orthopencil <name>", do not depend on the others."""
    parser = argparse.ArgumentParser(
        prog="orthopencil",
        description="Construct, classify, and validate linearizations of matrix "
        "polynomials in orthogonal and degree-graded bases.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, handler) in COMMANDS.items():
        if only is None or name == only:
            s = subs.add_parser(name, help=help_text)
            _add_problem_args(s)
            add_args(s)
            s.set_defaults(func=handler)
    return parser


def _is_vector(token: str) -> bool:
    try:
        [float(t) for t in token.split(",")]
    except ValueError:
        return False
    return True


def _attach_vectors(argv):
    """argv with "--v" and a vector after it that starts with a minus sign
    joined as "--v=<vector>".  argparse reads such a token as an option
    unless it is a single number, so "--v -1,0.5,0" would lose its value."""
    out = []
    for token in argv:
        if out and out[-1] == "--v" and token.startswith("-") and _is_vector(token):
            out[-1] = f"--v={token}"
        else:
            out.append(token)
    return out


def _parse(argv):
    """argv parsed as the full parser parses it, building only the named
    subcommand's parser unless the first token names none (no argv, -h, an
    unknown command) or arguments are left over (the full parser's
    "unrecognized arguments" error then prints).  A --v vector may start
    with a minus sign (see _attach_vectors)."""
    argv = _attach_vectors(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in COMMANDS:
        args, extras = build_parser(argv[0]).parse_known_args(argv)
        if not extras:
            return args
    return build_parser().parse_args(argv)


def run(argv=None) -> int:
    args = _parse(argv)
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
