"""The companion-form branch of qz_solve for anchor pencils, and its fallback.

An anchor pencil with invertible P_k is solved by geev on -X^-1 Y, and the
result is kept only under the eta_P certificate; otherwise QZ runs.  The
reference here is sigma_min(P(lam)) / sum_i |phi_i(lam)| ||P_i||_F from an
SVD of the evaluated polynomial, which shares no code with the certificate.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthopencil import (
    MatrixPolynomial,
    anchor_pencil,
    builtin_basis,
    pencil_eigen,
    recover_right,
)
from orthopencil import cli, spectral
from orthopencil.matpoly import _rcond
from orthopencil.serialize import dump_json, problem_to_obj, spectrum_report_obj
from orthopencil.spectral import backward_errors
from conftest import ALL_KINDS, random_problem

EPS = np.finfo(float).eps
# (n, k): kn from 6 to 240
SHAPES = ((2, 3), (4, 5), (6, 8), (10, 12), (25, 8), (40, 6), (12, 20))


def _sigma_eta(P, lams):
    values = P.evaluate(lams)
    return np.linalg.svd(values, compute_uv=False)[:, -1] / P.evaluation_scale(lams)


def _certificate(P, triples):
    lams = np.array([t.eigenvalue for t in triples])
    W = np.stack([t.right for t in triples], axis=1)
    return lams, backward_errors(P, lams, recover_right(P, lams, W, tol=np.inf))


def _ill_conditioned_lead(cond, seed=0, n=3, k=4, kind="chebyshev1"):
    """A random P whose P_k has singular values logspaced from 1 to 1 / cond."""
    rng = np.random.default_rng(seed)
    coeffs = [rng.uniform(-1.0, 1.0, (n, n)) for _ in range(k + 1)]
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    coeffs[-1] = q1 @ np.diag(np.logspace(0.0, -np.log10(cond), n)) @ q2.T
    return MatrixPolynomial(tuple(coeffs), builtin_basis(kind))


def _report(triples):
    return dump_json(spectrum_report_obj(triples))


@settings(max_examples=12)
@given(kind=st.sampled_from(ALL_KINDS), shape=st.sampled_from(SHAPES),
       seed=st.integers(0, 2**32 - 1))
def test_anchor_eigenvalues_are_certified(kind, shape, seed):
    n, k = shape
    P = random_problem(np.random.default_rng(seed), n, k, kind)
    triples = pencil_eigen(anchor_pencil(P), left=False, anchor=P)
    assert len(triples) == k * n and not any(t.is_infinite for t in triples)
    lams, cert = _certificate(P, triples)
    sigma = _sigma_eta(P, lams)
    assert sigma.max() <= 100 * k * n * EPS
    # ||P(lam) u|| / ||u|| >= sigma_min(P(lam)), up to the rounding of both
    assert np.all(cert >= sigma - k * n * EPS)


def test_fast_path_matches_qz(rng):
    for kind in ("monomial", "chebyshev1", "legendre"):
        P = random_problem(rng, 10, 12, kind)
        L = anchor_pencil(P)
        assert spectral._companion_solve(L.X, L.Y, P, 1e-8) is not None
        fast = np.array([t.eigenvalue for t in pencil_eigen(L, left=False, anchor=P)])
        qz = np.array([t.eigenvalue for t in pencil_eigen(L, left=False)])
        # the same spectrum, matched nearest to nearest both ways
        dist = np.abs(fast[:, None] - qz[None, :])
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-9


@pytest.mark.parametrize("cond", (1e3, 1e4, 1e5))
def test_ill_conditioned_lead_falls_back_to_qz(cond):
    P = _ill_conditioned_lead(cond)
    L = anchor_pencil(P)
    # the geev solve was tried (P_k is invertible) and failed its certificate
    assert _rcond(L.X[:3, :3]) > 10 * 3 * EPS
    assert spectral._companion_solve(L.X, L.Y, P, 1e-8) is None
    triples = pencil_eigen(L, left=False, anchor=P)
    assert _report(triples) == _report(pencil_eigen(L, left=False))
    assert _sigma_eta(P, np.array([t.eigenvalue for t in triples])).max() <= 100 * 12 * EPS


def test_singular_lead_gives_infinite_eigenvalues_by_qz(monkeypatch, rng):
    coeffs = [rng.uniform(-1.0, 1.0, (4, 4)) for _ in range(4)]
    coeffs[-1][:, 1] = 0.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev2"))
    L = anchor_pencil(P)
    calls = []
    monkeypatch.setattr(spectral, "_companion_solve", lambda *a: calls.append(a))
    triples = pencil_eigen(L, left=False, anchor=P)
    assert calls == []
    assert sum(t.is_infinite for t in triples) >= 1
    assert _report(triples) == _report(pencil_eigen(L, left=False))


def _write_problem(tmp_path, P, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(problem_to_obj(P)))
    return str(path)


def test_zero_column_polynomial_still_exits_4(tmp_path, rng, capsys):
    coeffs = [rng.uniform(-1.0, 1.0, (5, 5)) for _ in range(4)]
    for c in coeffs:
        c[:, 2] = 0.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("legendre"))
    assert cli.run(["eig", "-p", _write_problem(tmp_path, P, "zero")]) == 4
    assert "singular" in capsys.readouterr().err


def _counting(monkeypatch, name, calls):
    inner = getattr(spectral, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(spectral, name, wrapper)


def test_one_qz_solve_per_eig_op(tmp_path, rng, monkeypatch, capsys):
    # bench/tracer.py times the dense solve as spectral.qz_solve and counts
    # regularity samples as spectral.eval_pencil calls
    singular_lead = [rng.uniform(-1.0, 1.0, (4, 4)) for _ in range(4)]
    singular_lead[-1][:, 0] = 0.0
    problems = {
        "fast": random_problem(rng, 8, 6, "chebyshev1"),
        "fallback": _ill_conditioned_lead(1e4),
        "singular_lead": MatrixPolynomial(tuple(singular_lead), builtin_basis("legendre")),
    }
    fast = anchor_pencil(problems["fast"])
    assert spectral._companion_solve(fast.X, fast.Y, problems["fast"], 1e-8) is not None
    for name, P in problems.items():
        calls = {"qz_solve": 0, "eval_pencil": 0}
        _counting(monkeypatch, "qz_solve", calls)
        _counting(monkeypatch, "eval_pencil", calls)
        assert cli.run(["eig", "-p", _write_problem(tmp_path, P, name)]) == 0
        monkeypatch.undo()
        capsys.readouterr()
        assert calls["qz_solve"] == 1, name
        if name != "singular_lead":
            assert calls["eval_pencil"] == 0, name
        else:
            assert calls["eval_pencil"] >= 1
