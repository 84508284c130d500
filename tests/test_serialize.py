import json

import numpy as np
import pytest

from orthopencil import (
    AnsatzFactor,
    DimensionMismatchError,
    ThreeTermBasis,
    anchor_pencil,
    builtin_basis,
    pencil_eigen,
)
from orthopencil.serialize import (
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
