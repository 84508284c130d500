"""JSON wire formats for bases, problems, pencils, factors, and spectra.

All matrices are row-major nested lists.  Problem coefficients are stored in
ascending degree order P_0 .. P_k.  Floats round-trip exactly through json
(shortest-repr serialization preserves every double).

The ``*_to_obj`` functions and ``spectrum_report_obj`` build the plain
objects; ``dump_json`` writes any of them, or any other JSON value, as
json.dumps(indent=2, sort_keys=True) does, from the shape of the value
alone: it knows no report's keys.
"""

from __future__ import annotations

import json
from itertools import chain

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


def spectrum_report_obj(triples, recovered_right=None, recovered_left=None) -> dict:
    """Report for a list of pencil eigentriples in the order given.

    The triples must already be sorted by (re, im) with infinite eigenvalues
    last, as pencil_eigen returns them.  Finite eigenvalues are emitted as
    {re, im, residual}; infinite ones only contribute to the count.
    Recovered eigenvectors of P, when supplied, are one vector per triple (a
    sequence of vectors, or an array with one row per triple) and are
    encoded as [re, im] pairs.
    """
    finite = [i for i, t in enumerate(triples) if not t.is_infinite]
    report = {
        "finite": [
            {
                "re": float(triples[i].eigenvalue.real),
                "im": float(triples[i].eigenvalue.imag),
                "residual": float(triples[i].residual),
            }
            for i in finite
        ],
        "infinite_count": len(triples) - len(finite),
    }
    eigenvectors = {}
    for name, vectors in (("right", recovered_right), ("left", recovered_left)):
        if vectors is not None:
            V = np.asarray(vectors)[finite]
            eigenvectors[name] = np.stack([V.real, V.imag], -1).tolist()
    if eigenvectors:
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


def _texts(numbers):
    """The texts json writes for a flat list of numbers, in order, from one
    json.dumps in the C encoder; None if any of them is a string, a list or
    an object with keys."""
    text = json.dumps(numbers, default=_coerce_scalars)
    # a string or list in place of a number shows in the text; so does an
    # object with keys, and an empty one is "{}" in both encoders
    if '"' in text or "[" in text[1:]:
        return None
    return text[1:-1].split(", ") if numbers else []


def _block(items, indent: int, brackets: str = "[]") -> str:
    """The layout json.dumps(indent=2) gives a list (brackets "{}": an object)
    whose item texts are ``items`` and whose first line is indented by
    ``indent``."""
    if not items:
        return brackets
    inner = "\n" + " " * (indent + 2)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + " " * indent + brackets[1]


def _template(value: list, indent: int):
    """(template, leaves) of a list that one % can fill, or None.

    Two shapes qualify: a non-empty list of dicts with the same string keys
    (one template per record, keys in sort order), and a rectangular nested
    list (one template for the whole shape, joined level by level).  The
    leaves are the values the template's %s stand for, in order; _texts
    decides whether they are scalars."""
    first = value[0] if value else None
    if type(first) is dict:
        keys = first.keys()
        if not all(type(key) is str for key in keys) or any(
                type(record) is not dict or record.keys() != keys for record in value):
            return None
        keys = sorted(keys)
        record = _block([json.dumps(key).replace("%", "%%") + ": %s" for key in keys],
                        indent + 2, "{}")
        return _block([record] * len(value), indent), [r[key] for r in value for key in keys]
    shape, level = [], [value]
    while level and type(level[0]) is list:
        if set(map(type, level)) != {list} or len(set(map(len, level))) != 1:
            return None
        shape.append(len(level[0]))
        level = list(chain.from_iterable(level))
    template = "%s"
    for depth in reversed(range(len(shape))):
        template = _block([template] * shape[depth], indent + 2 * depth)
    return template, level


def _encode(value, indent: int) -> str:
    """The text of value as json.dumps(indent=2, sort_keys=True) writes it at
    an item whose first line is indented by ``indent``."""
    if type(value) is dict and all(type(key) is str for key in value):
        return _block([f"{json.dumps(key)}: {_encode(value[key], indent + 2)}"
                       for key in sorted(value)], indent, "{}")
    if type(value) is list:
        layout = _template(value, indent)
        texts = None if layout is None else _texts(layout[1])
        if texts is not None:
            return layout[0] % tuple(texts)
        return _block([_encode(item, indent + 2) for item in value], indent)
    text = json.dumps(value, indent=2, sort_keys=True, default=_coerce_scalars)
    return text.replace("\n", "\n" + " " * indent)


def dump_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), numpy scalars coerced.

    CPython's json falls back to its pure-Python encoder whenever indent is
    set, so the layout is built here from the shape of obj alone, and every
    number's text comes from the C encoder:
    - a rectangular nested list, or a list of records (dicts with the same
      string keys), whose leaves are scalars gets a % template of its
      shape, filled by one % with the texts of one json.dumps of its
      leaves without indent (both encoders write floats by float.__repr__,
      and NaN and the infinities by the same names);
    - a dict with string keys, and any other list, is laid out item by item;
    - anything else (a string, a lone scalar, a tuple, a dict with a
      non-string key) is json.dumps with indent, re-indented to its depth.
    The result is byte-identical to json.dumps(obj, indent=2, sort_keys=True).
    """
    return _encode(obj, 0)
