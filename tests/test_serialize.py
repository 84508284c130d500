import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthopencil import (
    AnsatzFactor,
    DimensionMismatchError,
    Eigentriples,
    MatrixPolynomial,
    ThreeTermBasis,
    anchor_pencil,
    builtin_basis,
    pencil_eigen,
    recover_left,
    recover_right,
)
from orthopencil import serialize
from orthopencil.serialize import (
    _coerce_scalars,
    basis_from_obj,
    basis_to_obj,
    dump_json,
    factor_from_obj,
    factor_to_obj,
    load_json,
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


@pytest.mark.parametrize("key", ["basis", "coefficients"])
def test_problem_names_a_missing_key(rng, key):
    obj = problem_to_obj(random_problem(rng, 2, 3))
    del obj[key]
    with pytest.raises(ValueError, match=f"^problem JSON is missing key '{key}'$"):
        problem_from_obj(obj)


@pytest.mark.parametrize("key", ["X", "Y", "n", "k"])
def test_pencil_names_a_missing_key(rng, key):
    obj = pencil_to_obj(anchor_pencil(random_problem(rng, 2, 3)))
    del obj[key]
    with pytest.raises(ValueError, match=f"^pencil JSON is missing key '{key}'$"):
        pencil_from_obj(obj)


@pytest.mark.parametrize("key", ["v", "B"])
def test_factor_names_a_missing_key(rng, key):
    obj = factor_to_obj(AnsatzFactor(rng.standard_normal(3), rng.standard_normal((6, 4))))
    del obj[key]
    with pytest.raises(ValueError, match=f"^factor JSON is missing key '{key}'$"):
        factor_from_obj(obj)


def test_spectrum_report_sorted_and_complete(rng):
    P = random_problem(rng, 2, 3)
    triples = pencil_eigen(P)
    report = _through_json(spectrum_report_obj(triples))
    finite = report["finite"]
    keys = [(e["re"], e["im"]) for e in finite]
    assert keys == sorted(keys)
    assert len(finite) + report["infinite_count"] == 6
    assert "eigenvectors" not in report


def test_spectrum_report_with_vectors(rng):
    P = random_problem(rng, 2, 2)
    triples = pencil_eigen(P)
    rights = np.ones((2, triples.eigenvalues.size))
    report = _through_json(spectrum_report_obj(triples, recovered_right=rights))
    assert len(report["eigenvectors"]["right"]) == len(report["finite"])
    assert report["eigenvectors"]["right"][0][0] == [1.0, 0.0]


# Floats where orjson and json could part: NaN, the infinities, signed zero,
# the extremes of the normal range, subnormals, and the numbers orjson writes
# in another form than repr: below 1e-4 (0.00001 for 1e-05, 1e-7 for 1e-07)
# and from 1e16 up (1e16 for 1e+16).
SPECIAL_FLOATS = (float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-300, -1e300,
                  5e-324, 2.2250738585072014e-308 / 3, 1.0, 0.1, 123456789.0, 1e16,
                  1e-05, -1.5e-05, 9.999999999999999e-05, 0.0001, 1e-07, 1.5e-07, -2e-09,
                  1e-10, 9999999999999998.0, -1e+16, 1.2345e+17, 1e+22, 1.7976931348623157e+308)
# |x| in (0, 1e-4) and from 1e16 up, of either sign
_REWRITTEN_FLOATS = st.one_of(
    st.floats(min_value=0.0, max_value=1e-4, exclude_min=True, exclude_max=True),
    st.floats(min_value=1e16, allow_infinity=False),
).flatmap(lambda x: st.sampled_from((x, -x)))
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
    if draw(st.booleans()):
        # finite only, as real reports are: orjson writes all of it
        pool = [x for x in pool if np.isfinite(x)]
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


# Strings and keys that look like what dump_json searches orjson's text for
# (an exponent, "0.0000", null) or that it must hand to json (a backslash, a
# quote, a control character, DEL, non-ASCII text), and format specifiers.
_STRINGS = st.one_of(st.text(max_size=6), st.sampled_from((
    "%", "%s", "%%", "a%d", "re", "", "1e5", "1e-7", "2e16", "x1e+5", "0.00001", "-0.0000",
    "null", "a\\b", "\\", '"', '": 1e5', "\x7f", "\x1f", "\u00e9", "caf\u00e9 1e-7", "\u2028",
    "\U0001f600")))
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL_FLOATS),
    _REWRITTEN_FLOATS,
    st.integers(), st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
)
_SCALARS = st.one_of(_NUMBERS, _STRINGS)
# mostly numbers, as in the reports
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


def test_dump_json_writes_finite_reports_with_orjson_alone(rng, monkeypatch):
    P = random_problem(rng, 3, 4, "chebyshev2")
    L = anchor_pencil(P)
    triples = pencil_eigen(P)
    reports = [
        pencil_to_obj(L),
        factor_to_obj(AnsatzFactor(rng.standard_normal(4), rng.standard_normal((12, 9)))),
        spectrum_report_obj(triples, recover_right(triples), recover_left(triples)),
        # the numbers orjson writes in another form than repr
        {"tiny": [1e-05, -9.5e-05, 1e-07, -2.5e-09], "huge": [1e+16, -1.5e+17, 1e+300]},
        {"tiny": np.array([1e-05, -9.5e-05, 1e-07]), "huge": np.array([[1e+16], [-1.5e+17]])},
    ]
    expected = [json.dumps(obj, indent=2, sort_keys=True, default=np.ndarray.tolist)
                for obj in reports]
    monkeypatch.setattr(serialize, "json", None)  # a fall back to json raises AttributeError
    assert [dump_json(obj) for obj in reports] == expected


@pytest.mark.parametrize("obj", [
    {"nan": float("nan")}, [float("inf")], {"none": None}, {"del": "\x7f"}, {"\u00e9": 1.0},
    ["a\\b"], ['say "1e5"'], {1: 2.0}, [2**64], [-2**63 - 1],
])
def test_dump_json_hands_json_what_orjson_writes_otherwise(obj):
    assert dump_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_dump_json_hands_json_nesting_beyond_orjson():
    obj = 1e-05
    for _ in range(300):  # orjson stops at 255 levels
        obj = [obj]
    assert dump_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


def _same_as_json(got, want) -> bool:
    """got is json's value want: the same types, floats bit for bit; an
    integer beyond 64 bits may come as the nearest float."""
    if type(want) is int and not -2**63 <= want < 2**64 and type(got) is float:
        return got == float(want)
    if type(got) is not type(want):
        return False
    if type(want) is float:
        return got.hex() == want.hex()
    if type(want) is list:
        return len(got) == len(want) and all(map(_same_as_json, got, want))
    if type(want) is dict:
        return list(got) == list(want) and all(map(_same_as_json, got.values(), want.values()))
    return got == want


@st.composite
def _long_decimals(draw):
    """17 to 30 significant digits, with or without an exponent."""
    size = draw(st.integers(17, 30))
    digits = draw(st.sampled_from("123456789")) + draw(
        st.text("0123456789", min_size=size - 1, max_size=size - 1))
    point = draw(st.integers(1, size))
    exponent = draw(st.one_of(st.just(""), st.integers(-345, 310).map("e{}".format),
                              st.integers(0, 30).map("E+{:03d}".format),
                              st.integers(0, 30).map("e-{:02d}".format)))
    return f"{draw(st.sampled_from(('', '-')))}{digits[:point]}.{digits[point:] or '0'}{exponent}"


_NUMBER_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    _long_decimals(),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308).map(repr),
    st.sampled_from(("4.9406564584124654e-324", "2.4703282292062327e-324",
                     "2.4703282292062328e-324", "2.2250738585072011e-308", "1e-400", "-1e-400",
                     "-0", "-0.0", "0e0", "1.7976931348623158e308", "1E400", "NaN", "-Infinity")),
    st.integers(-2**63, 2**64 - 1).map(str),
    st.sampled_from((2**63 - 1, 2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1, 10**30)).map(str),
    st.integers(-2**200, 2**200).map(str),
)
# a JSON text of nested arrays and objects over number tokens, with the
# whitespace json and orjson both skip
_DOCUMENTS = st.recursive(
    _NUMBER_TOKENS,
    lambda children: st.one_of(
        st.lists(children, max_size=5).map(lambda items: "[" + ",\r\n ".join(items) + "]"),
        st.lists(children, max_size=4).map(
            lambda items: "{" + ", ".join(f'"k{i}\u00e9": {t}' for i, t in enumerate(items)) + "}"),
    ),
    max_leaves=20,
)


@settings(max_examples=500)
@given(document=_DOCUMENTS)
def test_load_json_reads_what_json_reads(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("load") / "doc.json"
    path.write_bytes(document.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        want = json.load(fh)
    assert _same_as_json(load_json(path), want)


def test_spectrum_report_drops_vectors_of_infinite_eigenvalues():
    triples = Eigentriples(np.array([0.5, -1j, np.inf], dtype=complex),
                           np.array([1e-16, 2e-16, 0.0]))
    # one column per eigenvalue, as recover_right and recover_left return them
    vectors = np.array([[1.0, 3.0 + 1j, 5.0], [2.0, 4.0, 6.0]])
    report = _through_json(spectrum_report_obj(triples, recovered_right=vectors,
                                               recovered_left=vectors.tolist()))
    assert report["infinite_count"] == 1
    expected = [[[1.0, 0.0], [2.0, 0.0]], [[3.0, 1.0], [4.0, 0.0]]]
    assert report["eigenvectors"] == {"right": expected, "left": expected}


def _all_infinite_block():
    """The right eigenvectors that recover prints for P(x) = I + N x^2, N
    nilpotent, whose eigenvalues are all infinite: an empty (0, n, 2) array."""
    P = MatrixPolynomial((np.eye(2), np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]])),
                         builtin_basis("monomial"))
    triples = pencil_eigen(P)
    assert np.isinf(triples.eigenvalues).all()
    return spectrum_report_obj(triples, recover_right(triples))["eigenvectors"]["right"]


@pytest.mark.parametrize("array", [
    # the numbers orjson writes in another form than repr, and signed zero
    pytest.param(np.array([-0.0, 1e-05, 1.234e-05, 1.5e-07, 1e16]), id="repr-forms"),
    pytest.param(_all_infinite_block, id="empty-eigenvector-block"),
    pytest.param(np.arange(6).reshape(2, 3), id="int"),
    pytest.param(np.array([[True, False], [False, True]]), id="bool"),
    # not C-contiguous, which orjson hands to _coerce_scalars
    pytest.param(np.arange(6.0).reshape(2, 3).T, id="transposed"),
    # NaN, which orjson writes as null, so json writes the text
    pytest.param(np.array([[0.5, np.nan], [-np.inf, 1e-05]]), id="nan"),
    # a float32, which orjson would write with the float32's shortest digits,
    # and a byte order that is not native, which orjson would read as native
    pytest.param(np.array([0.1, 1e-05], dtype=np.float32), id="float32"),
    pytest.param(np.array([1.5, -0.0], dtype=">f8"), id="big-endian"),
    pytest.param(np.array([[1.5, 2.0]]).view(">f8").T, id="big-endian-transposed"),
])
def test_dump_json_writes_an_array_as_json_writes_its_lists(array):
    if callable(array):
        array = array()
        assert array.shape == (0, 2, 2)
    for obj in (array, {"a": array, "b": [array, 1.5]}):
        lists = {"a": array.tolist(), "b": [array.tolist(), 1.5]} if type(obj) is dict else (
            array.tolist())
        assert dump_json(obj) == json.dumps(lists, indent=2, sort_keys=True)
