"""JSON wire formats for bases, problems, pencils, factors, and spectra.

All matrices are row-major nested lists.  Problem coefficients are stored in
ascending degree order P_0 .. P_k.  Floats round-trip exactly through json
(shortest-repr serialization preserves every double).
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


# Placeholder for a spliced list; json writes its NUL characters as \u0000,
# text that no report of this package contains.
_PLACEHOLDER = "\x00%s\x00"
# The keys of an entry of a report's "finite" list, in sort_keys order.
_FINITE_KEYS = ("im", "re", "residual")


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


def _number_texts(vectors):
    """The number texts of a list of vectors of [re, im] pairs, in order;
    None if the value has any other shape."""
    if type(vectors) is not list or set(map(type, vectors)) - {list}:
        return None
    pairs = list(chain.from_iterable(vectors))
    if set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}:
        return None
    return _texts(list(chain.from_iterable(pairs)))


def _finite_texts(entries):
    """The number texts of a list of {im, re, residual} dicts, key by key in
    that order; None if the value has any other shape."""
    if type(entries) is not list or any(
            type(e) is not dict or e.keys() != set(_FINITE_KEYS) for e in entries):
        return None
    return _texts([e[key] for e in entries for key in _FINITE_KEYS])


def _splice_vectors(vectors, numbers, indent: int) -> str:
    """Indented text of a list of vectors of [re, im] pairs whose key line is
    indented by ``indent``: the layout json.dumps(indent=2) gives it.  Each
    vector gets the template of its length, and one % fills the joined
    templates with the texts of the list's numbers, in order."""
    if not vectors:
        return "[]"
    outer, vec_ind, pair_ind, num_ind = (" " * (indent + d) for d in (0, 2, 4, 6))
    pair = f"[\n{num_ind}%s,\n{num_ind}%s\n{pair_ind}]"
    templates = {
        size: f"[\n{pair_ind}" + f",\n{pair_ind}".join([pair] * size) + f"\n{vec_ind}]"
        if size else "[]"
        for size in set(map(len, vectors))
    }
    body = f",\n{vec_ind}".join([templates[len(vec)] for vec in vectors])
    return (f"[\n{vec_ind}" + body + f"\n{outer}]") % tuple(numbers)


def _splice_finite(entries, numbers, indent: int) -> str:
    """Indented text of a "finite" list whose key line is indented by
    ``indent``: one template per entry, filled by one %."""
    if not entries:
        return "[]"
    outer, entry_ind, key_ind = (" " * (indent + d) for d in (0, 2, 4))
    entry = ("{\n" + ",\n".join(f'{key_ind}"{key}": %s' for key in _FINITE_KEYS)
             + f"\n{entry_ind}}}")
    return (f"[\n{entry_ind}" + f",\n{entry_ind}".join([entry] * len(entries))
            + f"\n{outer}]") % tuple(numbers)


def dump_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), numpy scalars coerced.

    CPython's json falls back to its pure-Python encoder whenever indent is
    set, and the lists of a spectrum report hold nearly all its numbers.  So
    obj["finite"], a list of {im, re, residual} dicts, and each list
    obj["eigenvectors"][side] of vectors of [re, im] pairs are spliced in:
    - one json.dumps of the list's numbers, without indent, runs in the C
      encoder and gives the text of every number (both encoders write floats
      by float.__repr__, and NaN and the infinities by the same names);
    - a % template per entry or vector lays out its numbers, and one % fills
      all the templates of a list;
    - the list's text replaces a placeholder string in the indented text of
      the rest of obj, which json.dumps encodes as before.
    Values of any other shape stay in the rest.  The result is
    byte-identical to json.dumps(obj, indent=2, sort_keys=True).
    """
    spliced = {}
    if type(obj) is dict:
        obj = dict(obj)
        numbers = _finite_texts(obj.get("finite"))
        if numbers is not None:
            spliced[_PLACEHOLDER % "finite"] = (_splice_finite, obj["finite"], numbers)
            obj["finite"] = _PLACEHOLDER % "finite"
        vectors = obj.get("eigenvectors")
        if type(vectors) is dict:
            vectors = obj["eigenvectors"] = dict(vectors)
            for side, value in vectors.items():
                numbers = _number_texts(value)
                if numbers is not None:
                    vectors[side] = _PLACEHOLDER % f"eigenvectors.{side}"
                    spliced[vectors[side]] = (_splice_vectors, value, numbers)
    text = json.dumps(obj, indent=2, sort_keys=True, default=_coerce_scalars)
    for placeholder, (splice, value, numbers) in spliced.items():
        head, tail = text.split(json.dumps(placeholder), 1)
        line = head[head.rfind("\n") + 1:]
        indent = len(line) - len(line.lstrip(" "))
        text = head + splice(value, numbers, indent) + tail
    return text
