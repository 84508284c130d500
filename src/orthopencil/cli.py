"""Command-line front end: JSON in, JSON report out.

Every command and its options are declared once, in the COMMANDS table.  A
well-formed argv is read straight from that table (``_direct_parse``), which
gives the same Namespace argparse would.  The argparse parser is built only
for the argv that the table read declines: no arguments, help, an unknown
command or option, abbreviations and other unusual spellings, bad values.
It parses those the usual way or prints the usual usage, help and error
text, so what a user sees and the exit codes do not depend on the path.

Exit codes: 0 success (verdict payloads carry pass/fail, not exit codes),
2 malformed input, 3 dimension mismatch, 4 singular pencil / singular
polynomial where regularity is required.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .ansatz import (
    _check_factor_dims,
    check_linearization,
    dimension_m,
    make_m1,
    make_m2,
    verify_membership,
)
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
    load_json,
    pencil_from_obj,
    pencil_to_obj,
    problem_from_obj,
    spectrum_report_obj,
)
from .spectral import eigenvalue_exclusion, pencil_eigen, recover_left, recover_right

RANDOM_BASIS_KINDS = ("monomial", "chebyshev1", "chebyshev2", "legendre")


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
    return problem_from_obj(load_json(args.problem))


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
    sys.stdout.write(dump_json(obj))  # adding the newline would copy the text again
    sys.stdout.write("\n")


def _cmd_anchor(args) -> int:
    _emit(pencil_to_obj(anchor_pencil(_load_problem(args))))
    return 0


def _cmd_ansatz(args) -> int:
    P = _load_problem(args)
    f = factor_from_obj(load_json(args.factor))
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
    f = factor_from_obj(load_json(args.factor))
    _check_factor_dims(P, f)
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
    L = pencil_from_obj(load_json(args.pencil))
    report = verify_membership(L, P, side=args.side.upper(), tol=tol)
    _emit({"member": report.member, "v": report.v, "residual": report.residual})
    return 0


def _cmd_eig(args) -> int:
    """eig, and recover, which also checks and prints P's eigenvectors."""
    recover = args.command == "recover"
    tol = _tolerance(args.tol) if recover else None
    P = _load_problem(args)
    f = factor_from_obj(load_json(args.factor)) if args.factor else None
    # without recovery no left eigenvector is used, so the solver skips them
    spectrum = pencil_eigen(P, f, left=recover)
    rights = lefts = None
    if recover:
        rights, lefts = recover_right(spectrum, tol), recover_left(spectrum, tol)
    _emit(spectrum_report_obj(spectrum, rights, lefts))
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


# The options every command takes first: where its problem comes from.  An
# option is (flags, add_argument keywords).
_PROBLEM_OPTIONS = (
    (("-p", "--problem"), {"help": "problem JSON file"}),
    (("--random",), {"help": "random problem as n,k,seed (seed mandatory)"}),
    (("--basis",), {"default": "chebyshev1", "choices": RANDOM_BASIS_KINDS,
                    "help": "basis kind for --random problems"}),
)
_SIDES = ["m1", "m2", "M1", "M2"]
_FACTOR = (("-f", "--factor"), {"required": True})
_PENCIL_FACTOR = (("--factor",), {"help": "factor JSON (default: anchor pencil)"})


def _tol(default: float):
    return (("--tol",), {"type": float, "default": default})


# Every subcommand, once: name -> (help, options after the problem options,
# handler).  build_parser and _direct_parse both read it.  The order is the
# order of the help listing.
COMMANDS = {
    "anchor": ("emit the anchor pencil of a problem", (), _cmd_anchor),
    "ansatz": ("emit the pencil of a (v, B) factor",
               (_FACTOR,), _cmd_ansatz),
    "blocksym": ("build the block-symmetric pencil for v",
                 ((("--v",), {"required": True, "help": "comma-separated ansatz vector"}),),
                 _cmd_blocksym),
    "check": ("rank test of a factor", (_FACTOR,), _cmd_check),
    "membership": ("verify the ansatz identity for a pencil",
                   ((("--pencil",), {"required": True}),
                    (("--side",), {"default": "m1", "choices": _SIDES}), _tol(1e-8)),
                   _cmd_membership),
    "eig": ("pencil spectrum report", (_PENCIL_FACTOR,), _cmd_eig),
    "recover": ("pencil spectrum report with eigenvector recovery",
                (_PENCIL_FACTOR, _tol(1e-6)), _cmd_eig),
    "exclusion": ("eigenvalue exclusion verdict for v",
                  ((("--v",), {"required": True}), _tol(1e-8)), _cmd_exclusion),
    "oracle": ("brute-force reference spectrum", (), _cmd_oracle),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every subcommand, built from COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="orthopencil",
        description="Construct, classify, and validate linearizations of matrix "
        "polynomials in orthogonal and degree-graded bases.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, handler) in COMMANDS.items():
        s = subs.add_parser(name, help=help_text)
        for flags, keywords in _PROBLEM_OPTIONS + options:
            s.add_argument(*flags, **keywords)
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


def _dest(flags) -> str:
    """The attribute argparse stores an option under: its first long flag."""
    return next(f for f in flags if f.startswith("--"))[2:].replace("-", "_")


def _direct_parse(argv):
    """The Namespace that build_parser().parse_args(argv) returns, read
    straight from COMMANDS, or None when argv is not in the plain forms.

    The plain forms are a command name first, then options each spelled
    exactly as declared: a flag followed by a value that does not start with
    "-", or "--long=value".  Values get their type and are checked against
    their choices as argparse does, the last repeat wins, and every required
    option must be given.  Anything else (no argv, help, an unknown command
    or option, an abbreviation, "-pFILE", "--", a bad type or choice, a
    missing option, a leftover token) gives None, and the full parser then
    parses argv, or prints its usage, help or error."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, options, handler = COMMANDS[argv[0]]
    values, flagged, required = {"command": argv[0]}, {}, set()
    for flags, keywords in _PROBLEM_OPTIONS + options:
        dest = _dest(flags)
        values[dest] = keywords.get("default")
        if keywords.get("required"):
            required.add(dest)
        for flag in flags:
            flagged[flag] = (dest, keywords)
    i, end = 1, len(argv)
    while i < end:
        token = argv[i]
        i += 1
        if token in flagged:
            dest, keywords = flagged[token]
            if i == end or argv[i].startswith("-"):
                return None
            value = argv[i]
            i += 1
        else:
            flag, equals, value = token.partition("=")
            if not (equals and flag.startswith("--") and flag in flagged):
                return None
            dest, keywords = flagged[flag]
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except (TypeError, ValueError):
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
        required.discard(dest)
    if required:
        return None
    values["func"] = handler
    return argparse.Namespace(**values)


def _parse(argv):
    """argv parsed as build_parser() parses it: by _direct_parse, or when
    that declines by the full parser, which also prints help and errors.  A
    --v vector may start with a minus sign (see _attach_vectors)."""
    argv = _attach_vectors(sys.argv[1:] if argv is None else argv)
    args = _direct_parse(argv)
    return build_parser().parse_args(argv) if args is None else args


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
    # a JSON syntax error and invalid UTF-8 are ValueErrors
    except (OrthopencilError, ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
