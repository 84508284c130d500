"""qz_solve's two rungs: eigvals on the anchor's companion matrix with
eigenvectors from P, and QZ on the anchor.

pencil_eigen(P, factor) solves P's anchor pencil, or the M1 or M2 pencil of
P and the factor, through P's anchor, on one route built per call
(``spectral._route``).  When P_k is well conditioned the eigvals rung solves
the companion matrix, and its result is kept only under the eta_L and eta_P
certificate; when the rung is refused or not tried, QZ solves the anchor
itself.  ``_force_rung`` makes a test take one rung.  Tests that call a
solver directly pass it the route of (P, factor).  The references here are
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
    phi_vector,
    recover_left,
    recover_right,
)
from orthopencil import ansatz, basis, blocksym, cli, matpoly, pencil, spectral
from orthopencil.ansatz import side_multiplier
from orthopencil.errors import SingularPencilError
from orthopencil.matpoly import RegularityVerdict, _scaled_inverse
from orthopencil.serialize import dump_json, factor_to_obj, problem_to_obj, spectrum_report_obj
from orthopencil.spectral import backward_errors
from conftest import ALL_KINDS, random_problem
from spectra import block_sum, p_eta, qz_on_pencil

EPS = np.finfo(float).eps
# (n, k): kn from 6 to 240
SHAPES = ((2, 3), (4, 5), (6, 8), (10, 12), (25, 8), (40, 6), (12, 20))


def _sigma_eta(P, lams):
    values = P.evaluate(lams)
    return np.linalg.svd(values, compute_uv=False)[:, -1] / P.evaluation_scale(lams)


def _certificate(P, triples):
    lams = triples.eigenvalues
    return lams, backward_errors(P, lams, recover_right(triples, tol=np.inf))


def _within_certificate(triples):
    """Whether eta_L and the eta_P of each side of P in the record are at
    most 10 kn eps in every column."""
    etas = [triples.residual] + [p.eta for p in (triples.p_right, triples.p_left) if p is not None]
    return all(np.all(eta <= 10 * triples.right.shape[0] * EPS) for eta in etas)


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
    finite = ~np.isinf(qz.eigenvalues)
    assert infinite_count == np.count_nonzero(~finite)
    if side == "anchor":
        assert list(lams) == qz.eigenvalues[finite].tolist()
        assert np.all(np.abs(np.subtract(residuals, qz.residual[finite])) <= kn * EPS)
    else:
        _assert_same_spectrum(np.array(lams, dtype=complex), qz.eigenvalues[finite])
        assert max(residuals, default=0.0) <= 10 * kn * EPS


def _assert_triples_match_qz(L, side, triples):
    finite = ~np.isinf(triples.eigenvalues)
    _assert_matches_qz(L, side, triples.eigenvalues[finite].tolist(),
                       np.count_nonzero(~finite), triples.residual[finite].tolist())


def _spy_qz(monkeypatch):
    """Record every QZ call as the pair (Y, -X) it solves and what it returns."""
    calls, qz = [], spectral._qz

    def spy(X, Y, *args):
        out = qz(X, Y, *args)
        calls.append((np.array(Y), -np.array(X), out))
        return out

    monkeypatch.setattr(spectral, "_qz", spy)
    return calls


@settings(max_examples=12)
@given(kind=st.sampled_from(ALL_KINDS), shape=st.sampled_from(SHAPES),
       seed=st.integers(0, 2**32 - 1))
def test_anchor_eigenvalues_are_certified(kind, shape, seed):
    n, k = shape
    P = random_problem(np.random.default_rng(seed), n, k, kind)
    triples = pencil_eigen(P, left=False)
    assert triples.eigenvalues.size == k * n and not np.isinf(triples.eigenvalues).any()
    lams, cert = _certificate(P, triples)
    sigma = _sigma_eta(P, lams)
    assert sigma.max() <= 100 * k * n * EPS
    # ||P(lam) u|| / ||u|| >= sigma_min(P(lam)), up to the rounding of both
    assert np.all(cert >= sigma - k * n * EPS)


def test_fast_path_matches_qz(rng):
    for kind in ("monomial", "chebyshev1", "legendre"):
        P = random_problem(rng, 10, 12, kind)
        assert spectral._companion_solve(spectral._route(P)) is not None
        fast = pencil_eigen(P, left=False).eigenvalues
        qz = qz_on_pencil(anchor_pencil(P), left=False).eigenvalues
        # the same spectrum, matched nearest to nearest both ways
        dist = np.abs(fast[:, None] - qz[None, :])
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-9


@pytest.mark.parametrize("cond", (1e3, 1e4, 1e5))
def test_ill_conditioned_lead_falls_back_to_qz(cond):
    P = _ill_conditioned_lead(cond)
    L = anchor_pencil(P)
    # the eigvals rung was tried (P_k is invertible) and was refused
    assert _scaled_inverse(L.X[:3, :3])[0] > 10 * 3 * EPS
    assert spectral._companion_solve(spectral._route(P)) is None
    triples = pencil_eigen(P, left=False)
    _assert_triples_match_qz(L, "anchor", triples)
    assert _sigma_eta(P, triples.eigenvalues).max() <= 100 * 12 * EPS


def test_singular_lead_gives_infinite_eigenvalues_by_qz(monkeypatch, rng):
    coeffs = [rng.uniform(-1.0, 1.0, (4, 4)) for _ in range(4)]
    coeffs[-1][:, 1] = 0.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev2"))
    L = anchor_pencil(P)
    calls = _spy_qz(monkeypatch)
    triples = pencil_eigen(P, left=False)
    # one QZ, on the anchor
    assert len(calls) == 1 and np.array_equal(calls[0][1], -L.X)
    assert np.isinf(triples.eigenvalues).sum() >= 1
    monkeypatch.undo()
    _assert_triples_match_qz(L, "anchor", triples)


# Leads on which the eigvals rung's result fails exactly one check of the
# certificate, in _repair (measured at one BLAS thread, the failing check at
# 1.5 and 5.1 times its bound): (kind, cond, seed, side) -> the check.
SINGLE_FAILURES = {
    ("chebyshev1", 300.0, 10, "M2"): "eta_P of the left eigenvectors of P^T",
    ("chebyshev1", 1000.0, 6, "anchor"): "eta_P of the right eigenvectors",
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
    assert spectral._companion_solve(spectral._route(P, f), False) is None
    _assert_triples_match_qz(L, side, pencil_eigen(P, f, left=False))


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


def _counting(monkeypatch, name, calls, module=spectral):
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


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
    assert spectral._companion_solve(spectral._route(problems["fast"])) is not None
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


def _force_rung(monkeypatch, rung):
    """Make the solve take one rung: "eigvals" leaves the solve as it is, and
    "qz" refuses the eigvals rung."""
    if rung == "qz":
        monkeypatch.setattr(spectral, "_companion_solve", lambda *a: None)


@pytest.mark.parametrize("rung", ("eigvals", "qz"))
def test_recover_computes_each_backward_error_once(tmp_path, monkeypatch, capsys, rung):
    # The post-solve step computes eta_P of the fitted vectors and of the
    # block sums from one basis sequence after QZ; the eigvals rung computes
    # eta_P of the solved vectors of both sides from the sequence its solves
    # are built on, and the post-solve step reuses them.  recover_right and
    # recover_left check those values.  No P(lam_j) of this P (or P^T) is
    # exactly singular: the guard for one evaluates the basis once more, at
    # the moved shifts.
    rng = np.random.default_rng(1)
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

        _force_rung(monkeypatch, rung)
        _counting(monkeypatch, "_eta", calls)
        for module in (basis, matpoly):
            monkeypatch.setattr(module, "_phi_sequence", counted)
        assert cli.run(argv) == 0, argv
        monkeypatch.undo()
        capsys.readouterr()
        assert calls == {"_eta": 2, "_phi_sequence": 1}, argv


@pytest.mark.parametrize("rung", ("eigvals", "qz"))
def test_certified_recover_does_the_work_once(tmp_path, monkeypatch, capsys, rung):
    # a recover on the anchor, an M1 and an M2 pencil computes eta_P once
    # per side and evaluates the basis once, whichever rung finds the
    # eigenvalues: either way P's eigenvectors are solved from P.  No
    # P(lam_j) of this P (or P^T) is exactly singular (see above).
    rng = np.random.default_rng(1)
    P = random_problem(rng, 6, 5, "chebyshev1")
    path = _write_problem(tmp_path, P, "p")
    argvs = [["recover", "-p", path]]
    argvs += [["recover", "-p", path, "--factor",
               _write_factor(tmp_path, side, _block_symmetric(P, side, rng))]
              for side in ("M1", "M2")]
    for argv in argvs:
        calls = {"_eta": 0, "phi_vector": 0, "_companion_solve": 0}
        sides = []
        inner_eta, inner_solve = spectral._eta, spectral._companion_solve
        _counting(monkeypatch, "phi_vector", calls)

        def eta(P, phi, scale, U, nullside="right"):
            calls["_eta"] += 1
            sides.append(nullside)
            return inner_eta(P, phi, scale, U, nullside)

        def spy(*args):
            calls["_companion_solve"] += 1
            if rung == "qz":
                return None
            out = inner_solve(*args)
            assert out is not None, argv  # certified
            return out

        monkeypatch.setattr(spectral, "_eta", eta)
        monkeypatch.setattr(spectral, "_companion_solve", spy)
        assert cli.run(argv) == 0, argv
        monkeypatch.undo()
        assert "eigenvectors" in json.loads(capsys.readouterr().out)
        assert calls == {"_eta": 2, "phi_vector": 1, "_companion_solve": 1}, argv
        assert sorted(sides) == ["left", "right"], argv


def test_exactly_singular_p_stays_on_the_eigvals_rung(monkeypatch):
    # at a real eigenvalue of this P the LU of P(lam_j) has an exactly zero
    # pivot, so the batched solve raises; the rung solves that column at a
    # shift moved by a few ulps and still reports the eigenvalue eigvals
    # found, and QZ does not run
    P = cli._random_problem("6,8,13", "chebyshev1")
    for left in (False, True):
        calls = _spy_qz(monkeypatch)
        evaluated, found = [], []
        inner_evaluate, inner_eigvals = spectral._evaluate_at, np.linalg.eigvals
        monkeypatch.setattr(spectral, "_evaluate_at",
                            lambda P, phi: evaluated.append(phi.shape[1]) or inner_evaluate(P, phi))
        monkeypatch.setattr(np.linalg, "eigvals", lambda A: found.append(inner_eigvals(A)) or found[-1])
        triples = pencil_eigen(P, left=left)
        monkeypatch.undo()
        assert calls == [], left
        # P at every kept eigenvalue, then again at the moved shifts only
        assert len(evaluated) == 2 and 0 < evaluated[1] < evaluated[0], left
        (w,) = found
        lams = spectral._eigenvalues(w, 1.0)
        assert np.array_equal(triples.eigenvalues, lams[spectral._order(lams)]), left
        assert _within_certificate(triples), left


def test_a_column_missing_the_certificate_is_solved_again(monkeypatch):
    # one inverse-iteration step leaves eta_P of a few columns of this P
    # above 10 kn eps (measured at one BLAS thread: two right vectors and
    # one left one); those columns alone are solved again from P(lam)^-1,
    # and the rung keeps the solve
    P = cli._random_problem("10,12,2", "monomial")
    calls = _spy_qz(monkeypatch)
    sizes, inner = [], spectral._eta
    monkeypatch.setattr(spectral, "_eta",
                        lambda P, phi, scale, U, side: sizes.append(U.shape[1])
                        or inner(P, phi, scale, U, side))
    triples = pencil_eigen(P, left=True)
    monkeypatch.undo()
    assert calls == []
    # eta_P of each side at the kept eigenvalues, then again for the few redone
    assert len(sizes) > 2 and sizes[0] == sizes[1] and max(sizes[2:]) < sizes[0] // 10
    assert _within_certificate(triples)


@pytest.mark.parametrize("kind", ("monomial", "chebyshev1", "chebyshev2", "legendre"))
@pytest.mark.parametrize("k", (2, 3, 4))
def test_multiple_eigenvalues_take_qz(tmp_path, monkeypatch, capsys, kind, k):
    # x^k I_2 and phi_k(x) I_2: every eigenvalue is at least double, and the
    # rung's one right-hand side would give one x for both of a pair.  The
    # eigvals rung declines before any solve, QZ finds the eigenvalues, P
    # gives the vectors in one solve, against a right-hand side per place in
    # the sorted order, and eig and recover each print what they print with
    # the rung refused outright
    P = MatrixPolynomial((np.zeros((2, 2)),) * k + (np.eye(2),), builtin_basis(kind))
    path = _write_problem(tmp_path, P, "p")
    for cmd in ("eig", "recover"):
        outputs = []
        for rung in ("eigvals", "qz"):
            solved = []
            inner = spectral._null_vectors
            _force_rung(monkeypatch, rung)
            calls = _spy_qz(monkeypatch)
            monkeypatch.setattr(spectral, "_null_vectors", lambda *a: solved.append(a) or inner(*a))
            outputs.append((cli.run([cmd, "-p", path]), *capsys.readouterr()))
            monkeypatch.undo()
            assert len(solved) == 1 and len(calls) == 1, (cmd, rung)
        assert outputs[0] == outputs[1], cmd


@pytest.mark.parametrize("k", (2, 3, 4, 21, 22))
def test_a_multiple_eigenvalue_gets_independent_vectors(tmp_path, capsys, k):
    # x^k I_2: 0 is an eigenvalue of multiplicity 2k whose eigenvectors span
    # C^2 on either side, and recover prints vectors of P of rank 2 for it.
    # P(0) = 0, so P is solved at the moved point 4i eps, where it is
    # (4i eps)^k I: subnormal for k = 21, zero for 22, and moved along I
    P = MatrixPolynomial((np.zeros((2, 2)),) * k + (np.eye(2),), builtin_basis("monomial"))
    assert cli.run(["recover", "-p", _write_problem(tmp_path, P, "p")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["infinite_count"] == 0 and len(report["finite"]) == 2 * k
    for side in ("right", "left"):
        assert np.linalg.matrix_rank(_vectors(report, side)) == 2, side


# --random n,k,1 (chebyshev1) shapes from kn = 24 to 240 and k^2 / n from
# 0.18 to 21, small kn and n >> k included
_GATE_SHAPES = ((3, 8), (5, 6), (10, 4), (6, 8), (30, 4), (24, 7), (28, 6), (40, 6), (40, 4),
                (50, 3))


@pytest.mark.parametrize("left", (False, True))
@pytest.mark.parametrize("shape", _GATE_SHAPES)
def test_the_gate_sends_each_shape_to_its_rung(monkeypatch, shape, left):
    # P_k of each problem clears the rcond gate of _companion_solve, so the
    # eigvals rung solves it and is certified, with and without left
    # vectors, and QZ does not run
    n, k = shape
    P = cli._random_problem(f"{n},{k},1", "chebyshev1")
    served, inner = [], spectral._companion_solve
    monkeypatch.setattr(spectral, "_companion_solve",
                        lambda *a: served.append(inner(*a)) or served[-1])
    calls = _spy_qz(monkeypatch)
    pencil_eigen(P, left=left)
    monkeypatch.undo()
    assert len(served) == 1 and served[0] is not None and calls == []


@pytest.mark.parametrize("side", ("anchor", "M1", "M2"))
def test_eig_and_recover_print_the_same_spectrum_on_the_eigvals_rung(tmp_path, monkeypatch,
                                                                     side):
    # both commands take the eigvals rung, and the pencil's right vectors do
    # not depend on the left solve: the eigenvalues and the residuals are the
    # same to the last bit, at kn = 40 as at 112.  On the two --random
    # problems P's left vectors miss the bound, which the rung's certificate
    # does not read
    problems = []
    for seed, (n, k) in ((3, (8, 14)), (1, (5, 8))):
        rng = np.random.default_rng(seed)
        problems.append(_recover_argv(tmp_path, random_problem(rng, n, k, "chebyshev2"), side,
                                      rng)[0][1:])
    if side == "anchor":
        problems += [["--random", "3,4,12", "--basis", "legendre"],
                     ["--random", "4,5,56", "--basis", "chebyshev1"]]
    for problem in problems:
        reports = []
        calls = _spy_qz(monkeypatch)
        for cmd in ("eig", "recover"):
            rc, out = _run([cmd, *problem])
            assert rc == 0
            reports.append(json.loads(out)["finite"])
        monkeypatch.undo()
        assert calls == [], problem
        assert reports[0] == reports[1], problem


@pytest.mark.parametrize("rung", ("eigvals", "qz"))
def test_m2_residuals_are_as_small_as_the_anchors(monkeypatch, rung):
    # The M2 map takes S^-1 z by an LU solve on the row-scaled S.  With S's
    # explicit inverse the largest eta_L of this M2 factor is 480 times the
    # anchor route's on the same P when QZ solves both (4.3 against 0.0089
    # kn eps), an error that grows with cond(S)
    P = cli._random_problem("10,18,5", "chebyshev1")
    f, _ = build_dm_pencil(P, np.random.default_rng(5).uniform(-1.0, 1.0, P.k))
    _force_rung(monkeypatch, rung)
    anchor = pencil_eigen(P, left=False).residual.max()
    m2 = pencil_eigen(P, AnsatzFactor(f.v, f.B, "M2"), left=False).residual.max()
    assert m2 <= 4 * anchor


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
# the eigvals rung's largest eta_P is 0.97 times the certificate's bound here
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
    _assert_same_spectrum(lams, qz_on_pencil(L, left=False).eigenvalues)


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
    lams = triples.eigenvalues
    summed = block_sum(f.v, triples.right)
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
    triples = pencil_eigen(P, f)
    assert np.array_equal(_vectors(report, "right"), triples.p_right.vectors.T)


def test_block_sums_are_read_off_the_anchor_by_qz(tmp_path, monkeypatch):
    # the pencil of test_block_sums_are_read_off_the_anchor with the eigvals
    # rung refused: QZ on the anchor gives the sums, with no cancellation
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
    calls = _spy_qz(monkeypatch)
    outs = [_run(argv) for _, argv, _ in cases]
    # one QZ per op
    assert len(calls) == 3
    monkeypatch.undo()
    for (side, _, L), (rc, out) in zip(cases, outs):
        assert rc == 0 and json.loads(out)["infinite_count"] >= 1
        _assert_report_matches_qz(P, L, side, out)


# Problems the eigvals rung refuses: --random 16,9,2 and 10,16,3 in the
# CLI's four bases, and CI's singular P_k, which has infinite eigenvalues.
_QZ_PROBLEMS = [(spec, kind) for spec in ("16,9,2", "10,16,3")
                for kind in cli.RANDOM_BASIS_KINDS] + [("singular", "chebyshev1")]


def _qz_problem(spec, kind):
    if spec == "singular":
        coeffs = np.random.default_rng(1).uniform(-1.0, 1.0, (4, 3, 3))
        coeffs[-1][:, 0] = 0.0
        return MatrixPolynomial(tuple(coeffs), builtin_basis(kind))
    return cli._random_problem(spec, kind)


@pytest.mark.parametrize("side", ("anchor", "M1", "M2"))
@pytest.mark.parametrize("problem", _QZ_PROBLEMS, ids="-".join)
def test_qz_gives_eigenvalues_and_p_every_eigenvector(monkeypatch, problem, side):
    # QZ runs once, on the anchor's pair alone, and returns eigenvalues
    # only; the eigenvectors of L and of P, infinite ones included, come from
    # P at them and meet the 100 kn eps that a backward-stable solve gives,
    # and the infinite count is that of QZ with vectors on the same anchor.
    # The rung is refused outright: on P^T (M2) it certifies some of these.
    P = _qz_problem(*problem)
    f = None if side == "anchor" else _block_symmetric(P, side, np.random.default_rng(0))
    L = anchor_pencil(P) if f is None else (make_m1(P, f) if side == "M1" else make_m2(P, f))
    kn = L.k * L.n
    calls, inner = [], spectral._qz

    def spy(*args, **kwargs):
        calls.append((args, kwargs, inner(*args, **kwargs)))
        return calls[-1][2]

    _force_rung(monkeypatch, "qz")
    monkeypatch.setattr(spectral, "_qz", spy)
    triples = pencil_eigen(P, f)
    monkeypatch.undo()
    ((args, kwargs, out),) = calls
    assert len(args) == 2 and kwargs == {}
    assert isinstance(out, np.ndarray) and out.shape == (kn,)
    Q = P if side != "M2" else MatrixPolynomial(tuple(c.T for c in P.coeffs), P.basis)
    assert np.array_equal(args[0], anchor_pencil(Q).X)
    lams = triples.eigenvalues
    infinite = np.isinf(lams)
    reference = qz_on_pencil(anchor_pencil(Q), left=False).eigenvalues
    assert np.count_nonzero(infinite) == np.count_nonzero(np.isinf(reference))
    assert problem[0] != "singular" or infinite.any()
    bound = 100 * kn * EPS
    # eta_L as reported and from the dense pencil: ||(X*lam + Y) u|| /
    # (||X|| |lam| + ||Y||), ||X u|| / ||X|| at infinity
    assert triples.residual.max() <= bound
    alpha = np.where(infinite, 1.0, lams)
    R = np.stack([(L.X * a + L.Y * (not inf)) @ u
                  for a, inf, u in zip(alpha, infinite, triples.right.T)], axis=1)
    nx, ny = np.linalg.norm(L.X), np.linalg.norm(L.Y)
    assert (np.linalg.norm(R, axis=0) / (nx * np.abs(alpha) + ny * ~infinite)).max() <= bound
    for vec_side, vecs in (("right", recover_right(triples, tol=np.inf)),
                           ("left", recover_left(triples, tol=np.inf))):
        assert p_eta(P, lams, vecs, vec_side).max() <= bound, vec_side


@pytest.mark.parametrize("side", ("anchor", "M1", "M2"))
def test_companion_vectors_are_eigenvectors_of_the_pencil(rng, side):
    P = random_problem(rng, 6, 8, "legendre")
    f = None if side == "anchor" else _block_symmetric(P, side, rng)
    L = anchor_pencil(P) if f is None else (make_m1(P, f) if side == "M1" else make_m2(P, f))
    assert spectral._companion_solve(spectral._route(P, f), True) is not None
    kn = L.k * L.n
    nx, ny = np.linalg.norm(L.X), np.linalg.norm(L.Y)
    triples = pencil_eigen(P, f)
    for j, lam in enumerate(triples.eigenvalues):
        M = L.X * lam + L.Y
        scale = nx * abs(lam) + ny
        residual = np.linalg.norm(M @ triples.right[:, j]) / scale
        # the reported residual is the structured one, equal up to rounding
        assert abs(triples.residual[j] - residual) <= kn * EPS
        assert residual <= 10 * kn * EPS
        assert np.linalg.norm(triples.left[:, j] @ M) / scale <= 10 * kn * EPS


@pytest.mark.parametrize("kind", ("monomial", "newton", "degree_graded"))
@pytest.mark.parametrize("side", ("anchor", "M1", "M2"))
def test_structured_residuals_match_the_dense_pencil(rng, kind, side):
    # the residuals each route reports, at random points and vectors, not
    # eigenpairs, so that they are far above rounding, and at two infinite
    # eigenvalues, where the residual is ||X u|| / (||X|| ||u||): for the
    # anchor and M1 from P-sized data, Phi kron x with Phi = e_1 at an
    # infinite eigenvalue (_residuals_from_p), and for M2 from S^-1 z
    # (_structured_residuals)
    P = random_problem(rng, 4, 6, kind)
    f = None if side == "anchor" else _block_symmetric(P, side, rng)
    L = anchor_pencil(P) if f is None else (make_m1(P, f) if side == "M1" else make_m2(P, f))
    route = spectral._route(P, f)
    m = 7
    lams = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    infinite = np.zeros(m, dtype=bool)
    infinite[[1, 4]] = True
    lams[infinite] = np.inf
    if side == "M2":
        U = rng.standard_normal((24, m)) + 1j * rng.standard_normal((24, m))
        got = spectral._structured_residuals(route, lams, U, np.linalg.norm(U, axis=0))
    else:
        x = rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m))
        Phi = phi_vector(P.basis, 6, np.where(infinite, 0.0, lams))
        Phi[:, infinite] = np.eye(6, 1)
        # P(lam) x, and X's first block c*P_k times x at an infinite eigenvalue
        px = np.einsum("mrc,cm->rm", P.evaluate(np.where(infinite, 0.0, lams)), x)
        px[:, infinite] = route.F.X[:4, :4] @ x[:, infinite]
        scale = np.ones(m)  # eta_P times its scale is all that is read
        eta = np.linalg.norm(px, axis=0) / np.linalg.norm(x, axis=0)
        got = spectral._residuals_from_p(route, lams, Phi, x, px, eta, scale)
        U = (Phi[:, None, :] * x).reshape(24, m)
    nx, ny = np.linalg.norm(L.X), np.linalg.norm(L.Y)
    for j in range(m):
        if np.isinf(lams[j]):
            dense = np.linalg.norm(L.X @ U[:, j]) / (nx * np.linalg.norm(U[:, j]))
        else:
            dense = np.linalg.norm((L.X * lams[j] + L.Y) @ U[:, j]) / (
                (nx * abs(lams[j]) + ny) * np.linalg.norm(U[:, j]))
        assert abs(got[j] - dense) <= 1e-12 * dense


@pytest.mark.parametrize("kind", ("monomial", "newton", "degree_graded"))
@pytest.mark.parametrize("side", ("anchor", "M1"))
def test_residuals_from_p_match_the_dense_pencil(rng, kind, side):
    # the eigvals rung's eta_L of phi kron x from P-sized data, at random
    # points and vectors and with a Phi off the recurrence, so that both
    # P(lam) x and the recurrence residuals are far above rounding; phi_k is
    # the one the anchor's first block row implies from the rest of phi
    P = random_problem(rng, 4, 6, kind)
    f = None if side == "anchor" else _block_symmetric(P, side, rng)
    L = anchor_pencil(P) if f is None else make_m1(P, f)
    m = 7
    lams = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    x = rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m))
    phi = rng.standard_normal((7, m)) + 1j * rng.standard_normal((7, m))
    a, s, lower = P.basis.step(6)
    phi[0] = ((lams - s) * phi[1] + sum(c * phi[6 - d] for d, c in lower.items())) / a
    scale = P.evaluation_scale(lams, phi[::-1])
    eta, px = spectral._eta(P, phi, scale, x)
    got = spectral._residuals_from_p(spectral._route(P, f), lams, phi[1:], x, px, eta, scale)
    nx, ny = np.linalg.norm(L.X), np.linalg.norm(L.Y)
    for j in range(m):
        u = np.kron(phi[1:, j], x[:, j])
        dense = np.linalg.norm((L.X * lams[j] + L.Y) @ u) / (
            (nx * abs(lams[j]) + ny) * np.linalg.norm(u))
        assert abs(got[j] - dense) <= 1e-12 * dense


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


@pytest.mark.parametrize("solver", ("eigvals", "qz"))
@pytest.mark.parametrize("noise", (1e-9, 1e-6))
@pytest.mark.parametrize("side", ("M1", "M2"))
def test_ill_conditioned_multiplier_recovers_from_the_anchor(tmp_path, monkeypatch, side,
                                                             noise, solver):
    # QZ on L = T F itself loses digits to cond(T) in its eigenvalues and
    # vectors; through the anchor only F's conditioning counts, whether the
    # eigvals rung or (with the rung refused) QZ solves it
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
    # the eigvals rung is refused (kappa(P_k) = 1e4) or not tried (singular
    # P_k): QZ solves the anchor, never the M1/M2 pencil's own matrices
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
            calls = _spy_qz(monkeypatch)
            rc, _ = _run([cmd, "-p", path, "--factor", _write_factor(tmp_path, side, f)])
            monkeypatch.undo()
            assert rc == 0
            pairs = [(a, b) for a, b, _ in calls]
            assert len(pairs) == 1
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
        with pytest.raises(SingularPencilError):
            pencil_eigen(P, f)


@pytest.mark.parametrize("side", ("anchor", "M1", "M2"))
def test_qz_solve_gets_the_pencil_and_P(rng, monkeypatch, side):
    # bench/tracer.py times the dense solve as spectral.qz_solve: pencil_eigen
    # calls it once, with the route of (P, f), which holds P (P^T for M2), its
    # anchor and the pencil users build from (P, f)
    P = random_problem(rng, 3, 5, "chebyshev2")
    f = None if side == "anchor" else _block_symmetric(P, side, rng)
    L = anchor_pencil(P) if f is None else (make_m1(P, f) if side == "M1" else make_m2(P, f))
    expected = _report(pencil_eigen(P, f))
    seen, inner = [], spectral.qz_solve

    def spy(*args, **kwargs):
        seen.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(spectral, "qz_solve", spy)
    triples = pencil_eigen(P, f)
    assert len(seen) == 1
    (route, left), kwargs = seen[0]
    assert left is True and kwargs == {} and route.side == side
    assert np.array_equal(route.L.X, L.X) and np.array_equal(route.L.Y, L.Y)
    Q = P if side != "M2" else MatrixPolynomial(tuple(c.T for c in P.coeffs), P.basis)
    assert all(np.array_equal(a, b) for a, b in zip(route.P.coeffs, Q.coeffs))
    F = anchor_pencil(Q)
    assert np.array_equal(route.F.X, F.X) and np.array_equal(route.F.Y, F.Y)
    assert (route.multiplier is None) == (f is None)
    if f is not None:
        assert np.array_equal(route.multiplier, side_multiplier(f))
    assert _report(triples) == expected
    _assert_same_spectrum(triples.eigenvalues, qz_on_pencil(L, left=False).eigenvalues)


def test_one_anchor_and_one_multiplier_per_eig_op(tmp_path, rng, monkeypatch, capsys):
    # eig and recover build P's anchor (of P^T for M2) once and, with a
    # factor, its multiplier once: the pencil, the gates, the solve and the
    # map to the pencil share them
    P = random_problem(rng, 4, 5, "legendre")
    path = _write_problem(tmp_path, P, "p")
    argvs = [[cmd, "-p", path] for cmd in ("eig", "recover")]
    argvs += [[cmd, "-p", path, "--factor",
               _write_factor(tmp_path, side, _block_symmetric(P, side, rng))]
              for cmd in ("eig", "recover") for side in ("M1", "M2")]
    for argv in argvs:
        calls = {"anchor_pencil": 0, "multiplier_matrix": 0}
        # every module's name for either builder, wherever it is imported
        for module in (ansatz, blocksym, cli, pencil, spectral):
            for name in calls:
                if name in vars(module):
                    _counting(monkeypatch, name, calls, module)
        assert cli.run(argv) == 0, argv
        monkeypatch.undo()
        capsys.readouterr()
        assert calls == {"anchor_pencil": 1, "multiplier_matrix": int("--factor" in argv)}, argv
