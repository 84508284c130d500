"""JSON wire formats for bases, problems, pencils, factors, and spectra.

All matrices are row-major nested lists.  Problem coefficients are stored in
ascending degree order P_0 .. P_k.  Floats round-trip exactly through json
(shortest-repr serialization preserves every double).

The ``*_to_obj`` functions and ``spectrum_report_obj`` build the objects for
``dump_json``; their matrices and vectors are the ndarrays themselves, which
orjson writes straight from numpy.  The ``*_from_obj`` readers check the JSON
type of every field they read and name the field when it is wrong.

``load_json`` and ``dump_json`` are the CLI's JSON reader and writer.  Both
run through orjson and give exactly what the standard json module gives:
``load_json`` the value, or the error, of json.load on the file opened as
UTF-8 text, and ``dump_json`` the text of json.dumps(indent=2,
sort_keys=True).  Where orjson refuses a document or a value, or could read
or write it otherwise than json, they hand it to json.
"""

from __future__ import annotations

import io
import itertools
import json
import re

import numpy as np
import orjson

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
    "load_json",
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


def _json_kind(value) -> str:
    """The JSON name of the type of a value that json.load returned."""
    for types, name in ((type(None), "null"), (bool, "a boolean"), ((int, float), "a number"),
                        (str, "a string"), (list, "an array"), (dict, "an object")):
        if isinstance(value, types):  # bool before int: a bool is an int
            return name
    return type(value).__name__


def _required(obj: dict, what: str, *keys):
    """obj[key] for each key, or a ValueError that names the first missing
    one, or that obj (called ``what``) is not an object."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {_json_kind(obj)}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} is missing key {key!r}")
    return [obj[key] for key in keys]


def _wrong_type(what: str, expected: str, value) -> ValueError:
    """The error for a field ``what`` whose value is not ``expected``; an
    array is not described further, a scalar by its JSON type."""
    got = "" if type(value) is list else f", got {_json_kind(value)}"
    return ValueError(f"{what} must be {expected}{got}")


def _is_number(value) -> bool:
    return type(value) is int or type(value) is float  # a bool is not a number here


def _integer(value, what: str) -> int:
    """A JSON number with no fraction as an int.  A float qualifies: JSON
    does not tell 2 from 2.0, and load_json reads an integer beyond 64 bits
    as a float."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    got = repr(value) if type(value) is float else _json_kind(value)
    raise ValueError(f"{what} must be an integer, got {got}")


def _numbers(value, what: str) -> tuple:
    """A JSON array of numbers as a tuple."""
    if type(value) is not list or not all(map(_is_number, value)):
        raise _wrong_type(what, "an array of numbers", value)
    return tuple(value)


_ARRAYS = {1: "an array of numbers", 2: "a matrix of numbers (an array of equal-length rows)",
           3: "an array of matrices of numbers, all of one size"}


def _float_array(value, what: str, ndim: int) -> np.ndarray:
    """A rectangular JSON array of numbers nested ``ndim`` deep, as floats.

    numpy reads the nesting and the leaf types in one pass: a ragged array
    does not convert, and a string, null, array or object where a number
    belongs gives a text or object dtype.  An object dtype also holds the
    integers beyond 64 bits that json reads, so its leaves are checked one
    by one.  numpy reads a boolean among numbers as 0 or 1 (_holds_boolean)."""
    array = None
    if type(value) is list:
        try:
            array = np.array(value)
        except ValueError:  # ragged
            pass
    if array is not None and array.ndim == ndim and (
            array.dtype.kind in "iuf" and not _holds_boolean(value, array)
            or array.dtype.kind == "O" and all(map(_is_number, array.flat))):
        try:
            return np.asarray(array, dtype=float)
        except OverflowError:  # an integer beyond the largest float
            raise ValueError(f"{what} must be finite") from None
    raise _wrong_type(what, _ARRAYS[ndim], value)


def _holds_boolean(value, array) -> bool:
    """Whether a leaf of the nested list ``value``, read by numpy as the
    numeric ``array``, is a boolean.  One reads as 0 or 1, so the leaves of
    an array with neither are not visited."""
    if not ((array == 0) | (array == 1)).any():
        return False
    for _ in range(array.ndim - 1):
        value = itertools.chain.from_iterable(value)
    return bool in map(type, value)


def basis_from_obj(obj: dict):
    (kind,) = _required(obj, "problem JSON 'basis'", "kind")
    if type(kind) is not str:
        raise _wrong_type("problem JSON 'basis.kind'", "a string", kind)

    def numbers(key):
        return _numbers(obj.get(key, []), f"problem JSON 'basis.{key}'")

    if kind == "degree_graded":
        lower = obj.get("lower", [])
        if type(lower) is not list or not all(
                type(row) is list and all(map(_is_number, row)) for row in lower):
            raise _wrong_type("problem JSON 'basis.lower'", "an array of arrays of numbers", lower)
        return DegreeGradedBasis(shift=numbers("shift"), lower=tuple(map(tuple, lower)))
    if kind == "custom":
        return ThreeTermBasis(kind="custom", alpha=numbers("alpha"), beta=numbers("beta"),
                              gamma=numbers("gamma"))
    if kind == "newton":
        return ThreeTermBasis(kind="newton", nodes=numbers("nodes"))
    if kind in BUILTIN_KINDS:
        return ThreeTermBasis(kind=kind)
    raise ValueError(f"unknown basis kind {kind!r}")


def problem_to_obj(P: MatrixPolynomial) -> dict:
    return {
        "basis": basis_to_obj(P.basis),
        "n": P.n,
        "k": P.k,
        "coefficients": list(P.coeffs),
    }


def problem_from_obj(obj: dict) -> MatrixPolynomial:
    basis, coefficients = _required(obj, "problem JSON", "basis", "coefficients")
    basis = basis_from_obj(basis)
    coeffs = _float_array(coefficients, "problem JSON 'coefficients'", 3)
    n, k = (_integer(obj[key], f"problem JSON {key!r}") if key in obj else None
            for key in ("n", "k"))
    P = MatrixPolynomial(tuple(coeffs), basis)
    n = P.n if n is None else n
    k = P.k if k is None else k
    if n != P.n or k != P.k:
        raise DimensionMismatchError(
            f"declared (n, k) = ({n}, {k}) but coefficients give ({P.n}, {P.k})"
        )
    return P


def pencil_to_obj(L: Pencil) -> dict:
    return {"n": L.n, "k": L.k, "X": L.X, "Y": L.Y}


def pencil_from_obj(obj: dict) -> Pencil:
    X, Y, n, k = _required(obj, "pencil JSON", "X", "Y", "n", "k")
    return Pencil(X=_float_array(X, "pencil JSON 'X'", 2), Y=_float_array(Y, "pencil JSON 'Y'", 2),
                  n=_integer(n, "pencil JSON 'n'"), k=_integer(k, "pencil JSON 'k'"))


def factor_to_obj(f: AnsatzFactor) -> dict:
    return {"v": f.v, "B": f.B, "side": f.side}


def factor_from_obj(obj: dict) -> AnsatzFactor:
    v, B = _required(obj, "factor JSON", "v", "B")
    side = obj.get("side", "M1")
    if type(side) is not str:
        raise _wrong_type("factor JSON 'side'", "a string", side)
    return AnsatzFactor(v=_float_array(v, "factor JSON 'v'", 1),
                        B=_float_array(B, "factor JSON 'B'", 2), side=side)


def spectrum_report_obj(triples, recovered_right=None, recovered_left=None) -> dict:
    """Report for pencil eigentriples in the order given.

    ``triples`` is what pencil_eigen returns, an Eigentriples, whose
    eigenvalue and residual columns are read directly.  It must already be
    sorted by (re, im) with infinite eigenvalues last, as pencil_eigen sorts
    it.  Finite eigenvalues are emitted as {re, im, residual}; infinite ones
    only contribute to the count.  Recovered eigenvectors of P, when
    supplied, are the n x m columns that recover_right and recover_left
    return, column j for eigenvalue j, and are encoded as [re, im] pairs.
    """
    lams, residual = triples.eigenvalues, triples.residual
    finite = np.flatnonzero(~np.isinf(lams))
    values = lams[finite]
    report = {
        "finite": [
            {"re": x, "im": y, "residual": r}
            for x, y, r in zip(values.real, values.imag, residual[finite])
        ],
        "infinite_count": lams.size - finite.size,
    }
    eigenvectors = {}
    for name, vectors in (("right", recovered_right), ("left", recovered_left)):
        if vectors is not None:
            V = np.asarray(vectors)[:, finite].T
            eigenvectors[name] = np.stack([V.real, V.imag], -1)
    if eigenvectors:
        report["eigenvectors"] = eigenvectors
    return report


def load_json(path):
    """The JSON value in the file at ``path``, as json.load of the file
    opened as UTF-8 text returns it, or the error json raises.

    orjson reads the bytes.  A document it refuses (NaN or Infinity, a
    number beyond the float range, a byte-order mark, a lone surrogate,
    invalid UTF-8, a syntax error) goes to json, through the same text
    decoding as before, so its value, or the error and its message, is
    json's.  One value differs: an integer below -2**63 or at or above 2**64
    comes as the nearest float, where json gives the int."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def _coerce_scalars(value):
    """A numpy array that orjson or json hands over (orjson writes a
    C-contiguous one itself) as its tolist(), a scalar as a Python one."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


_DIGITS = frozenset("0123456789")


def _number_on_line(text: str, at: int):
    """(start, end) of the number that holds ``text[at]``, or None when
    ``at`` lies in a key or the value on its line is a string.

    ``text`` holds no backslash, so no string in it holds a quote: a line is
    indentation, an optional '"key": ', one value and an optional comma."""
    start = text.rfind("\n", 0, at) + 1
    end = text.find("\n", at)
    end = len(text) if end == -1 else end
    key = text.find('": ', start, end)
    start = key + 3 if key != -1 else start + len(text[start:end]) - len(text[start:end].lstrip())
    if at < start or text[start] == '"':
        return None
    return start, end - 1 if text[end - 1] == "," else end


# An "e" with a digit, or a minus sign and then no second digit, after it.
# The pattern starts with its literal, so the search steps from "e" to "e"
# in C instead of trying every position; str.find, which scans with memchr,
# is faster still, so the search starts at the first "e" (_repr_numbers).
_EXPONENT = re.compile(r"e(?:[0-9]|-(?!.[0-9]))", re.DOTALL)


def _repr_numbers(text: str) -> str:
    """orjson's ``text`` with each number that orjson writes otherwise than
    float.__repr__ written by repr.

    orjson leaves out the "+" and the leading zero of an exponent (1e16 and
    1.5e-7 where repr writes 1e+16 and 1.5e-07), and it writes numbers in
    [1e-5, 1e-4) without one (0.00001 for 1e-05).  It writes the same digits
    as repr, so repr(float(token)) is the number json writes.  The
    candidates are an "e" with a digit before it and a digit, or a minus
    sign and a single digit, after it (_EXPONENT), and a "0.0000" (found
    with str.find)."""
    edits = {}
    first = text.find("e")  # most pencils and factors hold none
    for match in () if first == -1 else _EXPONENT.finditer(text, first):
        at = match.start()
        if text[at - 1] in _DIGITS:
            span = _number_on_line(text, at)
            if span is not None:
                edits[span[0]] = span[1]
    at = text.find("0.0000")
    while at != -1:
        if text[at - 1:at] not in _DIGITS:
            span = _number_on_line(text, at)
            if span is not None:
                edits[span[0]] = span[1]
        at = text.find("0.0000", at + 1)
    pieces, done = [], 0
    for start in sorted(edits):
        end = edits[start]
        pieces += (text[done:start], repr(float(text[start:end])))
        done = end
    pieces.append(text[done:])
    return "".join(pieces) if edits else text


_ORJSON_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY


def _orjson_differs(obj) -> bool:
    """Whether obj's dicts, lists and tuples hold a numpy value that orjson writes
    otherwise than json: a float32, or an array whose byte order is not native."""
    plain = {float, int, str, bool, type(None), np.float64}  # none of these differs
    stack = [obj]
    while stack:
        value = stack.pop()
        if isinstance(value, (dict, list, tuple)):
            items = value.values() if isinstance(value, dict) else value
            if not plain.issuperset(map(type, items)):  # else no item needs a look
                stack.extend(items)
        elif isinstance(value, (np.ndarray, np.generic)) and (
                value.dtype == np.float32 or not value.dtype.isnative):
            return True
    return False


def dump_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True, default=_coerce_scalars).

    orjson writes the text: its OPT_INDENT_2 | OPT_SORT_KEYS layout is
    json's line for line, and it writes every float, in a float64 array
    too, with the shortest digits that round-trip, as float.__repr__ does.
    Where it writes a number in another form, _repr_numbers rewrites it by
    repr.  json.dumps writes the text instead when orjson could differ:
    - orjson raises: a key that is not a string, an integer beyond 64 bits,
      a value neither encoder knows, nesting deeper than orjson allows;
    - obj holds a numpy value that orjson writes otherwise (_orjson_differs);
    - the text holds null, which is also how orjson writes NaN and the
      infinities (json writes NaN, Infinity and -Infinity);
    - the text holds a backslash: json and orjson escape strings
      differently;
    - the text holds a character outside printable ASCII, which json
      writes as a \\u escape.
    So the result is byte-identical to that json.dumps for every value that
    json encodes.  (orjson also
    encodes some values that json refuses, such as dataclasses and enums.)
    """
    out = None
    if not _orjson_differs(obj):
        try:
            out = orjson.dumps(obj, default=_coerce_scalars, option=_ORJSON_OPTIONS)
        except orjson.JSONEncodeError:
            pass
    if out is None or b"null" in out or b"\\" in out or b"\x7f" in out or not out.isascii():
        return json.dumps(obj, indent=2, sort_keys=True, default=_coerce_scalars)
    out = out.decode("ascii")  # and orjson's bytes are freed
    return _repr_numbers(out)
