"""JSON wire formats for bases, problems, pencils, factors, and spectra.

All matrices are row-major nested lists.  Problem coefficients are stored in
ascending degree order P_0 .. P_k.  Floats round-trip exactly through json
(shortest-repr serialization preserves every double).
"""

from __future__ import annotations

import json

import numpy as np

from .ansatz import AnsatzFactor
from .basis import BUILTIN_KINDS, DegreeGradedBasis, ThreeTermBasis
from .errors import DimensionMismatchError
from .matpoly import MatrixPolynomial
from .pencil import Pencil

__all__ = [
    "basis_to_obj",
    "basis_from_obj",
    "problem_to_obj",
    "problem_from_obj",
    "pencil_to_obj",
    "pencil_from_obj",
    "factor_to_obj",
    "factor_from_obj",
    "spectrum_report_obj",
    "dump_json",
]


def basis_to_obj(basis) -> dict:
    if isinstance(basis, DegreeGradedBasis):
        return {
            "kind": "degree_graded",
            "shift": list(basis.shift),
            "lower": [list(row) for row in basis.lower],
        }
    obj = {"kind": basis.kind}
    if basis.kind == "newton":
        obj["nodes"] = list(basis.nodes)
    if basis.kind == "custom":
        obj["alpha"] = list(basis.alpha)
        obj["beta"] = list(basis.beta)
        obj["gamma"] = list(basis.gamma)
    return obj


def basis_from_obj(obj: dict):
    kind = obj.get("kind")
    if kind == "degree_graded":
        return DegreeGradedBasis(
            shift=tuple(obj.get("shift", ())),
            lower=tuple(tuple(row) for row in obj.get("lower", ())),
        )
    if kind == "custom":
        return ThreeTermBasis(
            kind="custom",
            alpha=tuple(obj.get("alpha", ())),
            beta=tuple(obj.get("beta", ())),
            gamma=tuple(obj.get("gamma", ())),
        )
    if kind == "newton":
        return ThreeTermBasis(kind="newton", nodes=tuple(obj.get("nodes", ())))
    if kind in BUILTIN_KINDS:
        return ThreeTermBasis(kind=kind)
    raise ValueError(f"unknown basis kind {kind!r}")


def problem_to_obj(P: MatrixPolynomial) -> dict:
    return {
        "basis": basis_to_obj(P.basis),
        "n": P.n,
        "k": P.k,
        "coefficients": [m.tolist() for m in P.coeffs],
    }


def problem_from_obj(obj: dict) -> MatrixPolynomial:
    basis = basis_from_obj(obj["basis"])
    coeffs = [np.array(m, dtype=float) for m in obj["coefficients"]]
    P = MatrixPolynomial(tuple(coeffs), basis)
    n = int(obj.get("n", P.n))
    k = int(obj.get("k", P.k))
    if n != P.n or k != P.k:
        raise DimensionMismatchError(
            f"declared (n, k) = ({n}, {k}) but coefficients give ({P.n}, {P.k})"
        )
    return P


def pencil_to_obj(L: Pencil) -> dict:
    return {"n": L.n, "k": L.k, "X": L.X.tolist(), "Y": L.Y.tolist()}


def pencil_from_obj(obj: dict) -> Pencil:
    return Pencil(
        X=np.array(obj["X"], dtype=float),
        Y=np.array(obj["Y"], dtype=float),
        n=int(obj["n"]),
        k=int(obj["k"]),
    )


def factor_to_obj(f: AnsatzFactor) -> dict:
    return {"v": f.v.tolist(), "B": f.B.tolist(), "side": f.side}


def factor_from_obj(obj: dict) -> AnsatzFactor:
    return AnsatzFactor(
        v=np.array(obj["v"], dtype=float),
        B=np.array(obj["B"], dtype=float),
        side=obj.get("side", "M1"),
    )


def _complex_pairs(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec).reshape(-1)]


def spectrum_report_obj(triples, recovered_right=None, recovered_left=None) -> dict:
    """Report for a list of pencil eigentriples in the order given.

    The triples must already be sorted by (re, im) with infinite eigenvalues
    last, as pencil_eigen returns them.  Finite eigenvalues are emitted as
    {re, im, residual}; infinite ones only contribute to the count.
    Recovered eigenvectors of P, when supplied, are aligned with the triples
    and encoded as [re, im] pairs.
    """
    finite = []
    eigenvectors = {}
    rights, lefts = [], []
    for i, t in enumerate(triples):
        if t.is_infinite:
            continue
        finite.append(
            {
                "re": float(t.eigenvalue.real),
                "im": float(t.eigenvalue.imag),
                "residual": float(t.residual),
            }
        )
        if recovered_right is not None:
            rights.append(_complex_pairs(recovered_right[i]))
        if recovered_left is not None:
            lefts.append(_complex_pairs(recovered_left[i]))
    report = {
        "finite": finite,
        "infinite_count": int(sum(t.is_infinite for t in triples)),
    }
    if recovered_right is not None or recovered_left is not None:
        if recovered_right is not None:
            eigenvectors["right"] = rights
        if recovered_left is not None:
            eigenvectors["left"] = lefts
        report["eigenvectors"] = eigenvectors
    return report


def _coerce_scalars(value):
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_coerce_scalars)
