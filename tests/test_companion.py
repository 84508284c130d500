"""qz_solve's two solvers: the companion-form geev and QZ on the anchor.

pencil_eigen solves an anchor pencil, or an M1 or M2 pencil of P, through
P's anchor.  When P_k is well conditioned geev solves the anchor's companion
matrix, and its result is kept only under the eta_L and eta_P certificate;
otherwise QZ solves the anchor itself.  The references here are
sigma_min(P(lam)) / sum_i |phi_i(lam)| ||P_i||_F from an SVD of the
evaluated polynomial, residuals of recovered vectors from the evaluated
polynomial, and QZ on the pencil's own matrices (``spectra.qz_on_pencil``);
none shares a solver with the anchor route.
"""

import contextlib
import io
import json
import pathlib
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthopencil import (
    AnsatzFactor,
    MatrixPolynomial,
    anchor_pencil,
    build_dm_pencil,
    builtin_basis,
    check_linearization,
    make_m1,
    make_m2,
    pencil_eigen,
    recover_left,
    recover_right,
)
from orthopencil import basis, cli, matpoly, spectral
from orthopencil.ansatz import side_multiplier
from orthopencil.errors import SingularPencilError
from orthopencil.matpoly import RegularityVerdict, _rcond, _scaled_inverse
from orthopencil.serialize import dump_json, factor_to_obj, problem_to_obj, spectrum_report_obj
from orthopencil.spectral import backward_errors
from conftest import ALL_KINDS, random_problem
from spectra import qz_on_pencil

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


def _assert_same_spectrum(lams, ref):
    """lams and ref agree to 1e-8 relative, matched nearest to nearest both ways."""
    assert lams.size == ref.size
    if lams.size:
        dist = np.abs(lams[:, None] - ref[None, :]) / np.maximum(1.0, np.abs(ref[None, :]))
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-8


def _assert_matches_qz(L, side, lams, infinite_count, residuals):
    """The anchor route's finite eigenvalues, infinite count and residuals
    against QZ on L's own matrices: the same eigenvalues bit for bit and
    residuals within kn eps for an anchor pencil; for M1/M2 the spectrum
    within 1e-8 relative and residuals at most 10 kn eps."""
    kn = L.k * L.n
    qz = qz_on_pencil(L, left=False)
    ref = [t for t in qz if not t.is_infinite]
    assert infinite_count == len(qz) - len(ref)
    if side == "anchor":
        assert list(lams) == [t.eigenvalue for t in ref]
        assert np.all(np.abs(np.subtract(residuals, [t.residual for t in ref])) <= kn * EPS)
    else:
        _assert_same_spectrum(np.array(lams, dtype=complex), np.array([t.eigenvalue for t in ref]))
        assert max(residuals, default=0.0) <= 10 * kn * EPS


def _assert_triples_match_qz(L, side, triples):
    finite = [t for t in triples if not t.is_infinite]
    _assert_matches_qz(L, side, [t.eigenvalue for t in finite], len(triples) - len(finite),
                       [t.residual for t in finite])


def _spy_eig(monkeypatch):
    """Record the matrices of every geev and QZ call: (a, b), b None for geev;
    a QZ call records the pair (Y, -X) it solves."""
    calls, geev, qz = [], spectral._geev, spectral._qz

    def spy_geev(A, *args):
        calls.append((np.array(A), None))
        return geev(A, *args)

    def spy_qz(X, Y, *args):
        calls.append((np.array(Y), -np.array(X)))
        return qz(X, Y, *args)

    monkeypatch.setattr(spectral, "_geev", spy_geev)
    monkeypatch.setattr(spectral, "_qz", spy_qz)
    return calls


@settings(max_examples=12)
@given(kind=st.sampled_from(ALL_KINDS), shape=st.sampled_from(SHAPES),
       seed=st.integers(0, 2**32 - 1))
def test_anchor_eigenvalues_are_certified(kind, shape, seed):
    n, k = shape
    P = random_problem(np.random.default_rng(seed), n, k, kind)
    triples = pencil_eigen(anchor_pencil(P), P, left=False)
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
        assert spectral._companion_solve(L.X, L.Y, P) is not None
        fast = np.array([t.eigenvalue for t in pencil_eigen(L, P, left=False)])
        qz = np.array([t.eigenvalue for t in qz_on_pencil(L, left=False)])
        # the same spectrum, matched nearest to nearest both ways
        dist = np.abs(fast[:, None] - qz[None, :])
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-9


@pytest.mark.parametrize("cond", (1e3, 1e4, 1e5))
def test_ill_conditioned_lead_falls_back_to_qz(cond):
    P = _ill_conditioned_lead(cond)
    L = anchor_pencil(P)
    # the geev solve was tried (P_k is invertible) and failed its certificate
    assert _rcond(L.X[:3, :3]) > 10 * 3 * EPS
    assert spectral._companion_solve(L.X, L.Y, P) is None
    triples = pencil_eigen(L, P, left=False)
    _assert_triples_match_qz(L, "anchor", triples)
    assert _sigma_eta(P, np.array([t.eigenvalue for t in triples])).max() <= 100 * 12 * EPS


def test_singular_lead_gives_infinite_eigenvalues_by_qz(monkeypatch, rng):
    coeffs = [rng.uniform(-1.0, 1.0, (4, 4)) for _ in range(4)]
    coeffs[-1][:, 1] = 0.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev2"))
    L = anchor_pencil(P)
    calls = _spy_eig(monkeypatch)
    triples = pencil_eigen(L, P, left=False)
    # no geev: QZ alone, on the anchor
    assert len(calls) == 1 and calls[0][1] is not None
    assert sum(t.is_infinite for t in triples) >= 1
    monkeypatch.undo()
    _assert_triples_match_qz(L, "anchor", triples)


# Leads on which geev's result fails exactly one check of the certificate
# (measured at one BLAS thread, the failing check at 1.3 to 5.8 times its
# bound, the passing one at most 0.7 times its own): (kind, cond, seed,
# side) -> the check.
SINGLE_FAILURES = {
    ("chebyshev1", 300.0, 10, "M2"): "eta_P of the left eigenvectors of P^T",
    ("chebyshev1", 1000.0, 6, "anchor"): "eta_P of the right eigenvectors",
    ("monomial", 300.0, 47, "anchor"): "eta_L",
}


@pytest.mark.parametrize("case", sorted(SINGLE_FAILURES))
def test_each_certificate_check_rejects_on_its_own(case):
    kind, cond, seed, side = case
    P = _ill_conditioned_lead(cond, seed, kind=kind)
    f = None
    if side != "anchor":
        f, _ = build_dm_pencil(P, np.random.default_rng(seed).uniform(-1.0, 1.0, P.k))
        f = AnsatzFactor(f.v, f.B, side)
    L = anchor_pencil(P) if f is None else (make_m1(P, f) if side == "M1" else make_m2(P, f))
    assert spectral._companion_solve(L.X, L.Y, P, False, _gate(f)) is None
    _assert_triples_match_qz(L, side, pencil_eigen(L, P, f, left=False))


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
    assert spectral._companion_solve(fast.X, fast.Y, problems["fast"]) is not None
    for name, P in problems.items():
        path = _write_problem(tmp_path, P, name)
        factors = [_write_factor(tmp_path, f"{name}-{side}", _block_symmetric(P, side, rng))
                   for side in ("M1", "M2")]
        argvs = [["eig", "-p", path], ["recover", "-p", path]]
        argvs += [[cmd, "-p", path, "--factor", f] for cmd in ("eig", "recover") for f in factors]
        for argv in argvs:
            calls = {"qz_solve": 0, "eval_pencil": 0}
            _counting(monkeypatch, "qz_solve", calls)
            _counting(monkeypatch, "eval_pencil", calls)
            assert cli.run(argv) == 0, argv
            monkeypatch.undo()
            capsys.readouterr()
            assert calls["qz_solve"] == 1, argv
            if name != "singular_lead":
                assert calls["eval_pencil"] == 0, argv
            else:
                assert calls["eval_pencil"] >= 1, argv


@pytest.mark.parametrize("solve", ("certified", "qz"))
def test_recover_computes_each_backward_error_once(tmp_path, rng, monkeypatch, capsys, solve):
    # The certificate computes eta_P of the fitted vectors and of the block
    # sums from one basis sequence, and recover_right and recover_left check
    # those values; recover_right's Kronecker fit evaluates the basis once
    # more.  After the QZ fallback recover_right and recover_left compute
    # them, each once.
    P = random_problem(rng, 6, 5, "legendre")
    path = _write_problem(tmp_path, P, "p")
    argvs = [["recover", "-p", path]]
    argvs += [["recover", "-p", path, "--factor",
               _write_factor(tmp_path, side, _block_symmetric(P, side, rng))]
              for side in ("M1", "M2")]
    phi_sequence = basis._phi_sequence
    for argv in argvs:
        calls = {"_eta": 0, "_phi_sequence": 0}

        def counted(*args):
            calls["_phi_sequence"] += 1
            return phi_sequence(*args)

        if solve == "qz":
            monkeypatch.setattr(spectral, "_companion_solve", lambda *a: None)
        _counting(monkeypatch, "_eta", calls)
        for module in (basis, matpoly, spectral):
            monkeypatch.setattr(module, "_phi_sequence", counted)
        assert cli.run(argv) == 0, argv
        monkeypatch.undo()
        capsys.readouterr()
        assert calls == {"_eta": 2, "_phi_sequence": 2 if solve == "certified" else 3}, argv


def _block_symmetric(P, side, rng):
    f, _ = build_dm_pencil(P, rng.uniform(-1.0, 1.0, P.k))
    return AnsatzFactor(f.v, f.B, side)


def _write_factor(tmp_path, name, f):
    path = tmp_path / f"{name}.factor.json"
    path.write_text(json.dumps(factor_to_obj(f)))
    return str(path)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue()


def _vector_eta(P, lams, vectors, side):
    """||P(lam) x|| (or ||x^T P(lam)||) / (sum_i |phi_i| ||P_i||_F ||x||) per row of vectors."""
    values = P.evaluate(lams)
    if side == "left":
        values = values.transpose(0, 2, 1)
    res = np.linalg.norm(np.einsum("mrc,mc->mr", values, vectors), axis=1)
    return res / (P.evaluation_scale(lams) * np.linalg.norm(vectors, axis=1))


def _recover_argv(tmp_dir, P, side, rng):
    """(argv of the recover command, the pencil it solves) for an anchor or a
    block-symmetric M1/M2 factor of P."""
    argv = ["recover", "-p", _write_problem(tmp_dir, P, "p")]
    if side == "anchor":
        return argv, anchor_pencil(P)
    f = _block_symmetric(P, side, rng)
    argv += ["--factor", _write_factor(tmp_dir, "f", f)]
    return argv, make_m1(P, f) if side == "M1" else make_m2(P, f)


def _vectors(report, side):
    return np.array([[complex(re, im) for re, im in x] for x in report["eigenvectors"][side]])


def _assert_report_matches_qz(P, L, side, out):
    """A CLI report of the anchor route against QZ on L (see _assert_matches_qz);
    printed eigenvectors of P must have eta_P at most 100 kn eps."""
    report = json.loads(out)
    lams = [complex(e["re"], e["im"]) for e in report["finite"]]
    _assert_matches_qz(L, side, lams, report["infinite_count"],
                       [e["residual"] for e in report["finite"]])
    if "eigenvectors" in report and lams:
        for vec_side in ("right", "left"):
            eta = _vector_eta(P, np.array(lams), _vectors(report, vec_side), vec_side)
            assert eta.max() <= 100 * L.k * L.n * EPS, vec_side


@settings(max_examples=12)
@given(kind=st.sampled_from(ALL_KINDS), side=st.sampled_from(("anchor", "M1", "M2")),
       shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1))
@example(kind="degree_graded", side="M2", shape=(12, 20), seed=3)
@example(kind="newton", side="M1", shape=(40, 6), seed=4)
# geev's eta_P is 27 kn eps here, so QZ runs (its own is 34 kn eps)
@example(kind="custom", side="anchor", shape=(10, 12), seed=5)
def test_recover_is_certified_on_every_pencil(kind, side, shape, seed):
    n, k = shape
    bound = 10 * k * n * EPS
    rng = np.random.default_rng(seed)
    P = random_problem(rng, n, k, kind)
    kept = []
    inner = spectral._companion_solve

    def spy(*args):
        kept.append(inner(*args))
        return kept[-1]

    with tempfile.TemporaryDirectory() as tmp:
        argv, L = _recover_argv(pathlib.Path(tmp), P, side, rng)
        with mock.patch.object(spectral, "_companion_solve", spy):
            rc, out = _run(argv)
        assert rc == 0
        if not kept or kept[0] is None:
            # not certified: QZ solved the anchor
            _assert_report_matches_qz(P, L, side, out)
            return
    report = json.loads(out)
    assert report["infinite_count"] == 0
    lams = np.array([complex(e["re"], e["im"]) for e in report["finite"]])
    assert max(e["residual"] for e in report["finite"]) <= bound
    for vec_side in ("right", "left"):
        assert _vector_eta(P, lams, _vectors(report, vec_side), vec_side).max() <= bound, vec_side
    # the same spectrum as QZ's, matched nearest to nearest both ways
    _assert_same_spectrum(lams, np.array([t.eigenvalue for t in qz_on_pencil(L, left=False)]))


def test_block_sums_are_read_off_the_anchor(tmp_path):
    # The right vectors of P from this M2 pencil are block sums of its right
    # eigenvectors.  Summed from QZ's eigenvectors they cancel to an eta_P of
    # 190 kn eps, above the 100 kn eps a backward-stable solve should give.
    n, k = 5, 12
    rng = np.random.default_rng(20)
    P = random_problem(rng, n, k, "chebyshev2")
    f, _ = build_dm_pencil(P, rng.uniform(-1.0, 1.0, k))
    f = AnsatzFactor(f.v, f.B, "M2")
    triples = qz_on_pencil(make_m2(P, f))
    lams = np.array([t.eigenvalue for t in triples])
    summed = recover_left(f.v, np.stack([t.right for t in triples], axis=1))
    assert _vector_eta(P, lams, summed.T, "right").max() > 100 * k * n * EPS
    rc, out = _run(["recover", "-p", _write_problem(tmp_path, P, "p"),
                    "--factor", _write_factor(tmp_path, "f", f)])
    assert rc == 0
    report = json.loads(out)
    lams = np.array([complex(e["re"], e["im"]) for e in report["finite"]])
    for side in ("right", "left"):
        assert _vector_eta(P, lams, _vectors(report, side), side).max() <= 10 * k * n * EPS
    # the printed right vectors are the certified first blocks of the anchor's
    # eigenvectors, not sums formed from the pencil's own eigenvectors
    triples = pencil_eigen(make_m2(P, f), P, f)
    assert np.array_equal(_vectors(report, "right"),
                          np.stack([t.weighted_sum for t in triples]))


def test_block_sums_are_read_off_the_anchor_by_qz(tmp_path, monkeypatch):
    # the pencil of test_block_sums_are_read_off_the_anchor with geev's
    # result refused: QZ on the anchor gives the sums, with no cancellation
    n, k = 5, 12
    rng = np.random.default_rng(20)
    P = random_problem(rng, n, k, "chebyshev2")
    f, _ = build_dm_pencil(P, rng.uniform(-1.0, 1.0, k))
    f = AnsatzFactor(f.v, f.B, "M2")
    monkeypatch.setattr(spectral, "_companion_solve", lambda *a: None)
    rc, out = _run(["recover", "-p", _write_problem(tmp_path, P, "p"),
                    "--factor", _write_factor(tmp_path, "f", f)])
    assert rc == 0
    report = json.loads(out)
    lams = np.array([complex(e["re"], e["im"]) for e in report["finite"]])
    for side in ("right", "left"):
        assert _vector_eta(P, lams, _vectors(report, side), side).max() <= 100 * k * n * EPS


def _recover_cases(tmp_path, P, rng):
    """(side, recover argv, pencil) for the anchor and block-symmetric M1/M2 factors of P."""
    path = _write_problem(tmp_path, P, "p")
    cases = [("anchor", ["recover", "-p", path], anchor_pencil(P))]
    for side in ("M1", "M2"):
        f = _block_symmetric(P, side, rng)
        cases.append((side, ["recover", "-p", path, "--factor", _write_factor(tmp_path, side, f)],
                      make_m1(P, f) if side == "M1" else make_m2(P, f)))
    return cases


def test_ill_conditioned_lead_is_the_qz_report(tmp_path, monkeypatch, rng):
    P = _ill_conditioned_lead(1e4)
    results = []
    inner = spectral._companion_solve
    monkeypatch.setattr(spectral, "_companion_solve",
                        lambda *a: results.append(inner(*a)) or results[-1])
    cases = _recover_cases(tmp_path, P, rng)
    # eig asks for one side only: the right one for the anchor and M1, the
    # left one (of the anchor of P^T) for M2
    cases += [(side, ["eig", *argv[1:]], L) for side, argv, L in cases]
    outs = [_run(argv) for _, argv, _ in cases]
    # every solve was tried (P_k and the multipliers are invertible) and failed
    assert len(results) == 6 and all(r is None for r in results)
    monkeypatch.undo()
    for (side, _, L), (rc, out) in zip(cases, outs):
        assert rc == 0
        _assert_report_matches_qz(P, L, side, out)


def test_singular_lead_recover_gets_infinite_eigenvalues_by_qz(tmp_path, monkeypatch, rng):
    coeffs = [rng.uniform(-1.0, 1.0, (4, 4)) for _ in range(4)]
    coeffs[-1][:, 1] = 0.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    cases = _recover_cases(tmp_path, P, rng)
    calls = _spy_eig(monkeypatch)
    outs = [_run(argv) for _, argv, _ in cases]
    # no geev: one QZ per op, on the anchor
    assert len(calls) == 3 and all(b is not None for _, b in calls)
    monkeypatch.undo()
    for (side, _, L), (rc, out) in zip(cases, outs):
        assert rc == 0 and json.loads(out)["infinite_count"] >= 1
        _assert_report_matches_qz(P, L, side, out)


@pytest.mark.parametrize("side", ("anchor", "M1", "M2"))
def test_companion_vectors_are_eigenvectors_of_the_pencil(rng, side):
    P = random_problem(rng, 6, 8, "legendre")
    f = None if side == "anchor" else _block_symmetric(P, side, rng)
    L = anchor_pencil(P) if f is None else (make_m1(P, f) if side == "M1" else make_m2(P, f))
    assert spectral._companion_solve(L.X, L.Y, P, True, _gate(f)) is not None
    kn = L.k * L.n
    nx, ny = np.linalg.norm(L.X), np.linalg.norm(L.Y)
    for t in pencil_eigen(L, P, f):
        M = L.X * t.eigenvalue + L.Y
        scale = nx * abs(t.eigenvalue) + ny
        residual = np.linalg.norm(M @ t.right) / scale
        # the reported residual is the structured one, equal up to rounding
        assert abs(t.residual - residual) <= kn * EPS
        assert residual <= 10 * kn * EPS
        assert np.linalg.norm(t.left @ M) / scale <= 10 * kn * EPS


@pytest.mark.parametrize("kind", ("monomial", "newton", "degree_graded"))
@pytest.mark.parametrize("side", ("anchor", "M1", "M2"))
def test_structured_residuals_match_the_dense_pencil(rng, kind, side):
    # random vectors, not eigenvectors: the residuals are far above rounding
    P = random_problem(rng, 4, 6, kind)
    f = None if side == "anchor" else _block_symmetric(P, side, rng)
    L = anchor_pencil(P) if f is None else (make_m1(P, f) if side == "M1" else make_m2(P, f))
    F = anchor_pencil(P if side != "M2" else MatrixPolynomial(tuple(c.T for c in P.coeffs), P.basis))
    m = 7
    lams = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    lams[[1, 4]] = np.inf  # beta = 0: the residual is ||X u|| / (||X|| ||u||)
    U = rng.standard_normal((24, m)) + 1j * rng.standard_normal((24, m))
    got = spectral._structured_residuals(L.X, L.Y, F, lams, U, _gate(f))
    nx, ny = np.linalg.norm(L.X), np.linalg.norm(L.Y)
    for j in range(m):
        if np.isinf(lams[j]):
            dense = np.linalg.norm(L.X @ U[:, j]) / (nx * np.linalg.norm(U[:, j]))
        else:
            dense = np.linalg.norm((L.X * lams[j] + L.Y) @ U[:, j]) / (
                (nx * abs(lams[j]) + ny) * np.linalg.norm(U[:, j]))
        assert abs(got[j] - dense) <= 1e-12 * dense


def _gate(f):
    """The multiplier pencil_eigen hands to qz_solve for factor f, or None."""
    if f is None:
        return None
    T = side_multiplier(f)
    return spectral._Multiplier(f.side, T, _scaled_inverse(T)[1])


def _small_column(f, rng, noise):
    """f with a column of its side multiplier replaced by noise: column n of
    T for M1, and the last column of S for M2 (v_k and the last column of
    every block in B's last block row)."""
    n, v, B = f.n, f.v.copy(), f.B.copy()
    if f.side == "M1":
        B[:, 0] = noise * rng.standard_normal(B.shape[0])
    else:
        v[-1] = 0.0
        B[-n:, n - 1::n] = noise * rng.standard_normal((n, B.shape[1] // n))
    return AnsatzFactor(v, B, f.side)


def _deficient(f, rng, noise=0.0):
    """f with a zero column in its side multiplier, up to noise below the rank
    test's threshold (see _small_column)."""
    f = _small_column(f, rng, noise)
    assert not check_linearization(f).is_strong_linearization
    return f


@pytest.mark.parametrize("noise", (0.0, 1e-17))
@pytest.mark.parametrize("side", ("M1", "M2"))
def test_rank_deficient_multiplier_still_exits_4(tmp_path, rng, side, noise):
    P = random_problem(rng, 3, 4, "legendre")
    f = _write_factor(tmp_path, side, _deficient(_block_symmetric(P, side, rng), rng, noise))
    for cmd in ("eig", "recover"):
        assert _run([cmd, "-p", _write_problem(tmp_path, P, "p"), "--factor", f])[0] == 4


@pytest.mark.parametrize("solver", ("geev", "qz"))
@pytest.mark.parametrize("noise", (1e-9, 1e-6))
@pytest.mark.parametrize("side", ("M1", "M2"))
def test_ill_conditioned_multiplier_recovers_from_the_anchor(tmp_path, monkeypatch, side,
                                                             noise, solver):
    # QZ on L = T F itself loses digits to cond(T) in its eigenvalues and
    # vectors; through the anchor only F's conditioning counts, whether geev
    # or (with geev's result refused) QZ solves it
    n, k = 10, 12
    rng = np.random.default_rng(7)
    P = random_problem(rng, n, k, "chebyshev2")
    f = _small_column(_block_symmetric(P, side, rng), rng, noise)
    assert check_linearization(f).sigma_min <= 1e3 * noise
    if solver == "qz":
        monkeypatch.setattr(spectral, "_companion_solve", lambda *a: None)
    rc, out = _run(["recover", "-p", _write_problem(tmp_path, P, "p"),
                    "--factor", _write_factor(tmp_path, "f", f)])
    assert rc == 0
    report = json.loads(out)
    assert report["infinite_count"] == 0
    lams = np.array([complex(e["re"], e["im"]) for e in report["finite"]])
    assert lams.size == k * n
    assert _sigma_eta(P, lams).max() <= 100 * k * n * EPS
    for vec_side in ("right", "left"):
        eta = _vector_eta(P, lams, _vectors(report, vec_side), vec_side)
        assert eta.max() <= 100 * k * n * EPS, vec_side


@pytest.mark.parametrize("lead", ("ill_conditioned", "singular"))
def test_factor_pencils_never_reach_qz(tmp_path, monkeypatch, rng, lead):
    # geev is refused (kappa(P_k) = 1e4) or not tried (singular P_k): QZ
    # solves the anchor, never the M1/M2 pencil's own matrices
    P = _ill_conditioned_lead(1e4)
    if lead == "singular":
        coeffs = list(P.coeffs)
        coeffs[-1] = coeffs[-1].copy()
        coeffs[-1][:, 1] = 0.0
        P = MatrixPolynomial(tuple(coeffs), P.basis)
    path = _write_problem(tmp_path, P, "p")
    for side in ("M1", "M2"):
        f = _block_symmetric(P, side, rng)
        L = make_m1(P, f) if side == "M1" else make_m2(P, f)
        F = anchor_pencil(P if side == "M1" else MatrixPolynomial(
            tuple(c.T for c in P.coeffs), P.basis))
        for cmd in ("eig", "recover"):
            calls = _spy_eig(monkeypatch)
            rc, _ = _run([cmd, "-p", path, "--factor", _write_factor(tmp_path, side, f)])
            monkeypatch.undo()
            assert rc == 0
            pairs = [(a, b) for a, b in calls if b is not None]
            assert len(pairs) == 1 and len(calls) == (1 if lead == "singular" else 2)
            assert not any(np.array_equal(a, L.Y) or np.array_equal(b, -L.X) for a, b in pairs)
            assert np.array_equal(pairs[0][0], F.Y) and np.array_equal(pairs[0][1], -F.X)


def test_multiplier_with_a_zero_pivot_is_singular(rng, monkeypatch):
    # the map to L needs the multiplier's LU, so a multiplier with an exactly
    # zero pivot is a singular pencil even where sampling would pass it
    P = random_problem(rng, 3, 4, "legendre")
    monkeypatch.setattr(spectral, "sampled_regularity",
                        lambda *a: RegularityVerdict(True, 0j, 1.0, 1))
    for side in ("M1", "M2"):
        f = _deficient(_block_symmetric(P, side, rng), rng)
        assert _scaled_inverse(side_multiplier(f))[1] is None
        L = make_m1(P, f) if side == "M1" else make_m2(P, f)
        with pytest.raises(SingularPencilError):
            pencil_eigen(L, P, f)


@pytest.mark.parametrize("side", ("anchor", "M1", "M2"))
def test_qz_solve_gets_the_pencil_and_P(rng, monkeypatch, side):
    # bench/tracer.py times the dense solve as spectral.qz_solve: pencil_eigen
    # calls it once, with L's own matrices and P
    P = random_problem(rng, 3, 5, "chebyshev2")
    f = None if side == "anchor" else _block_symmetric(P, side, rng)
    L = anchor_pencil(P) if f is None else (make_m1(P, f) if side == "M1" else make_m2(P, f))
    expected = _report(pencil_eigen(L, P, f))
    seen, inner = [], spectral.qz_solve

    def spy(*args, **kwargs):
        seen.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(spectral, "qz_solve", spy)
    triples = pencil_eigen(L, P, f)
    assert len(seen) == 1
    (X, Y, left, anchor), kwargs = seen[0]
    assert X is L.X and Y is L.Y and left is True and anchor is P
    assert (kwargs["multiplier"] is None) == (f is None)
    assert _report(triples) == expected
    _assert_same_spectrum(np.array([t.eigenvalue for t in triples]),
                          np.array([t.eigenvalue for t in qz_on_pencil(L, left=False)]))
