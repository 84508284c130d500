import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthopencil import (
    AnsatzFactor,
    DimensionMismatchError,
    Eigentriple,
    ThreeTermBasis,
    anchor_pencil,
    builtin_basis,
    pencil_eigen,
)
from orthopencil.serialize import (
    _coerce_scalars,
    basis_from_obj,
    basis_to_obj,
    dump_json,
    factor_from_obj,
    factor_to_obj,
    pencil_from_obj,
    pencil_to_obj,
    problem_from_obj,
    problem_to_obj,
    spectrum_report_obj,
)
from conftest import random_problem, stepped_dg_basis


def _through_json(obj):
    return json.loads(dump_json(obj))


def test_basis_round_trips():
    cases = [
        builtin_basis("monomial"),
        builtin_basis("chebyshev1"),
        builtin_basis("legendre"),
        builtin_basis("newton", nodes=(0.25, -1.5, 3.0)),
        ThreeTermBasis(kind="custom", alpha=(1.0, 0.5), beta=(0.1, 0.2), gamma=(0.0, 0.25)),
        stepped_dg_basis(4),
    ]
    for basis in cases:
        assert basis_from_obj(_through_json(basis_to_obj(basis))) == basis


def test_basis_unknown_kind():
    with pytest.raises(ValueError):
        basis_from_obj({"kind": "fourier"})


def test_problem_round_trip(rng):
    P = random_problem(rng, 3, 4, "chebyshev2")
    Q = problem_from_obj(_through_json(problem_to_obj(P)))
    assert Q.basis == P.basis and Q.n == P.n and Q.k == P.k
    for a, b in zip(P.coeffs, Q.coeffs):
        assert np.array_equal(a, b)  # bitwise: floats survive json


def test_problem_declared_dimensions_must_match(rng):
    P = random_problem(rng, 2, 3)
    obj = problem_to_obj(P)
    obj["n"] = 3
    with pytest.raises(DimensionMismatchError):
        problem_from_obj(obj)


def test_pencil_round_trip(rng):
    L = anchor_pencil(random_problem(rng, 2, 3, "legendre"))
    M = pencil_from_obj(_through_json(pencil_to_obj(L)))
    assert np.array_equal(L.X, M.X) and np.array_equal(L.Y, M.Y)
    assert (M.n, M.k) == (L.n, L.k)


def test_factor_round_trip(rng):
    f = AnsatzFactor(rng.standard_normal(3), rng.standard_normal((6, 4)), "M2")
    g = factor_from_obj(_through_json(factor_to_obj(f)))
    assert g.side == "M2"
    assert np.array_equal(f.v, g.v) and np.array_equal(f.B, g.B)


def test_spectrum_report_sorted_and_complete(rng):
    P = random_problem(rng, 2, 3)
    triples = pencil_eigen(anchor_pencil(P))
    report = _through_json(spectrum_report_obj(triples))
    finite = report["finite"]
    keys = [(e["re"], e["im"]) for e in finite]
    assert keys == sorted(keys)
    assert len(finite) + report["infinite_count"] == 6
    assert "eigenvectors" not in report


def test_spectrum_report_with_vectors(rng):
    P = random_problem(rng, 2, 2)
    triples = pencil_eigen(anchor_pencil(P))
    rights = [np.ones(2) for _ in triples]
    report = spectrum_report_obj(triples, recovered_right=rights)
    assert len(report["eigenvectors"]["right"]) == len(report["finite"])
    assert report["eigenvectors"]["right"][0][0] == [1.0, 0.0]


# Floats where the two json encoders could part: NaN, the infinities, signed
# zero, the extremes of the normal range and subnormals.
SPECIAL_FLOATS = (float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-300, -1e300,
                  5e-324, 2.2250738585072014e-308 / 3, 1.0, 0.1, 123456789.0, 1e16)
# numpy scalars (np.float64 is a float; the others json cannot encode by
# itself, so dump_json coerces them)
NUMPY_SCALARS = (np.float64, lambda x: np.float32(np.clip(x, -1e38, 1e38)),
                 lambda x: np.int64(np.clip(x, -1e18, 1e18)), lambda x: np.bool_(x > 0))


@st.composite
def _reports(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, 40))
    sides = draw(st.sampled_from(((), ("right",), ("left",), ("right", "left"))))
    pool = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=8))
    pool += list(SPECIAL_FLOATS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def number():
        x = pool[rng.integers(len(pool))] if rng.uniform() < 0.3 else float(rng.standard_normal())
        if rng.uniform() < 0.05:
            return NUMPY_SCALARS[rng.integers(len(NUMPY_SCALARS))](x if np.isfinite(x) else 1.5)
        return x

    report = {
        # residuals as the pool draws them: NaN, the infinities and -0.0 too
        "finite": [{"re": number(), "im": number(), "residual": number()} for _ in range(m)],
        "infinite_count": np.int64(rng.integers(0, 3)),
    }
    if sides:
        report["eigenvectors"] = {
            side: [[[number(), number()] for _ in range(n)] for _ in range(m)] for side in sides
        }
    return report


# Strings and keys with % in them: a template must not read them as format
# specifiers.
_STRINGS = st.one_of(st.text(max_size=6), st.sampled_from(("%", "%s", "%%", "a%d", "re", "")))
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL_FLOATS),
    st.integers(), st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
)
_SCALARS = st.one_of(_NUMBERS, _STRINGS)
# mostly numbers: a string among the leaves sends the list item by item
_LEAVES = st.one_of(_NUMBERS, _NUMBERS, _NUMBERS, _SCALARS)


@st.composite
def _grids(draw):
    """A rectangular nested list of depth 1 to 3."""
    shape = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))

    def fill(dims):
        return [fill(dims[1:]) for _ in range(dims[0])] if dims else draw(_LEAVES)

    return fill(shape)


@st.composite
def _records(draw):
    """A non-empty list of dicts with the same string keys."""
    keys = draw(st.lists(_STRINGS, max_size=4, unique=True))
    return [{key: draw(_LEAVES) for key in keys} for _ in range(draw(st.integers(1, 4)))]


# Any JSON value: scalars, grids and records at the leaves, and lists, dicts
# with string keys, tuples and dicts with integer keys around them.
_TREES = st.recursive(
    st.one_of(_SCALARS, _grids(), _records()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_STRINGS, children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=1000)
@given(obj=st.one_of(_reports(), _TREES))
@example(obj={"finite": [], "infinite_count": 0})
@example(obj={"finite": [{"im": -0.0, "re": float("nan"), "residual": -float("inf")}],
              "infinite_count": 2, "eigenvectors": {"right": [[[0.0, -0.0]]]}})
@example(obj={"a%s": [{"%": 1.0, "b": np.int64(2)}], "c": [[[]], [[]]], "d": [{}, {}]})
def test_dump_json_is_byte_identical_to_indented_json(obj):
    expected = json.dumps(obj, indent=2, sort_keys=True, default=_coerce_scalars)
    assert dump_json(obj) == expected


def test_dump_json_leaves_other_shapes_to_json():
    cases = [
        {"eigenvectors": {"right": [[["a", 1.0]]], "left": [[[1.0, [2.0]]]]}},
        {"eigenvectors": {"right": [[["x, y", 1.0]]], "left": [[[{"z": 1}, 2.0]]]}},
        {"eigenvectors": {"right": [[{1: 2.0, 3: 4.0}]], "left": [[[1.0, 2.0, 3.0]]]}},
        {"eigenvectors": {"right": [[(1.0, 2.0)]], "left": [(1.0, 2.0)]}},
        {"eigenvectors": {"right": [[[{}, 1.0], [[], 2.0]]]}},
        {"eigenvectors": {"right": [[]], "left": []}, "finite": []},
        {"finite": [{"im": 1.0, "re": 2.0}], "infinite_count": 0},
        {"finite": [{"im": 1.0, "re": 2.0, "residual": 0.0, "x": 1}]},
        {"finite": [{"im": "1", "re": 2.0, "residual": 0.0}]},
        {"finite": [{"im": [1.0], "re": 2.0, "residual": {}}, {"im": 1, "re": True,
                                                              "residual": None}]},
        {"finite": [{"im": 1, "re": True, "residual": None}, {"im": {}, "re": 0, "residual": 1}]},
        {"finite": [[1.0, 2.0, 3.0]]},
        {"finite": ({"im": 1.0, "re": 2.0, "residual": 0.0},)},
        {"eigenvectors": [[[1.0, 2.0]]]},
        {"outer": {"eigenvectors": {"right": [[[1.0, 2.0]]]}}},
        [[[1.0, 2.0]]],
    ]
    for obj in cases:
        assert dump_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_spectrum_report_drops_vectors_of_infinite_eigenvalues():
    u = np.array([1.0, 0.0])
    triples = [Eigentriple(0.5 + 0j, u, u, 1e-16), Eigentriple(-1j, u, u, 2e-16),
               Eigentriple(complex(np.inf), u, u, 0.0)]
    vectors = np.array([[1.0, 2.0], [3.0 + 1j, 4.0], [5.0, 6.0]])
    report = spectrum_report_obj(triples, recovered_right=vectors, recovered_left=list(vectors))
    assert report["infinite_count"] == 1
    expected = [[[1.0, 0.0], [2.0, 0.0]], [[3.0, 1.0], [4.0, 0.0]]]
    assert report["eigenvectors"] == {"right": expected, "left": expected}
