"""qz_solve's one eigenvalue solver, the eigvals rung, at shift infinity and
at a finite real shift, with eigenvectors from P.

pencil_eigen(P, factor) solves P's anchor pencil, or the M1 or M2 pencil of
P and the factor, through P's anchor, on one route built per call
(``spectral._route``).  When P_k is well conditioned the rung solves the
companion matrix (shift infinity), and its result is kept only under the
eta_L and eta_P certificate; when it is refused or not tried, the rung
solves (s X + Y)^-1 X at a real shift s, uncertified.  ``_force_rung``
makes a test take one shift, and ``_spy_shifted`` records the solves at a
finite one.  Tests that call a solver directly pass it the route of (P,
factor).  Tests of the problems that the rung refuses at infinity keep the
names they had when another solver served them.  The references here are
sigma_min(P(lam)) / sum_i |phi_i(lam)| ||P_i||_F from an SVD of the
evaluated polynomial, residuals of recovered vectors from the evaluated
polynomial, a dense two-sided reference solve of a pencil's own matrices
(``spectra.qz_on_pencil``) with its eigenvalues' condition numbers, and
the pencil's eigenvectors as phi kron x of P's vectors in the record and as
SVD null vectors (``spectra.pencil_vectors``); none shares a solver with the
anchor route.
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
from orthopencil.matpoly import _scaled_inverse
from orthopencil.serialize import dump_json, factor_to_obj, problem_to_obj, spectrum_report_obj
from orthopencil.spectral import backward_errors
from conftest import ALL_KINDS, BASIS_KINDS, random_problem
from spectra import (block_sum, condition_numbers, kron_vectors, p_eta, pencil_vectors,
                     phase_misfit, qz_on_pencil)

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
    return all(np.all(eta <= 10 * triples.eigenvalues.size * EPS) for eta in etas)


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


def _solved_anchor(P, side):
    """The anchor the route of side ``side`` solves: P's, or P^T's for M2."""
    if side == "M2":
        P = MatrixPolynomial(tuple(c.T for c in P.coeffs), P.basis)
    return anchor_pencil(P)


def _assert_matches_qz(P, side, lams, infinite_count, residuals):
    """The route's finite eigenvalues, infinite count and residuals against
    QZ on the anchor it solves (_solved_anchor): the same infinite count,
    every eigenvalue within 100 kn eps times the condition number of the
    nearest QZ eigenvalue and every QZ eigenvalue as near one of them (two
    solves backward stable to 50 kn eps), and residuals at most 10 kn eps."""
    F = _solved_anchor(P, side)
    kn = F.X.shape[0]
    qz = qz_on_pencil(F)
    finite = ~np.isinf(qz.eigenvalues)
    assert infinite_count == np.count_nonzero(~finite)
    bound = 100 * kn * EPS * condition_numbers(F, qz)[finite]
    dist = np.abs(np.array(lams, dtype=complex)[:, None] - qz.eigenvalues[finite][None, :])
    assert np.all(dist.min(axis=1) <= bound[dist.argmin(axis=1)])
    assert np.all(dist.min(axis=0) <= bound)
    assert max(residuals, default=0.0) <= 10 * kn * EPS


def _assert_triples_match_qz(P, side, triples):
    finite = ~np.isinf(triples.eigenvalues)
    _assert_matches_qz(P, side, triples.eigenvalues[finite],
                       np.count_nonzero(~finite), triples.residual[finite])


def _spy_shifted(monkeypatch):
    """Record every solve of the eigvals rung at a finite shift as (route,
    shift, the eigenvalues it returns)."""
    calls, inner = [], spectral._rung

    def spy(route, shift):
        out = inner(route, shift)
        if np.isfinite(shift):
            calls.append((route, shift, out))
        return out

    monkeypatch.setattr(spectral, "_rung", spy)
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
    _assert_triples_match_qz(P, "anchor", triples)
    assert _sigma_eta(P, triples.eigenvalues).max() <= 100 * 12 * EPS


def test_singular_lead_gives_infinite_eigenvalues_by_qz(monkeypatch, rng):
    coeffs = [rng.uniform(-1.0, 1.0, (4, 4)) for _ in range(4)]
    coeffs[-1][:, 1] = 0.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev2"))
    L = anchor_pencil(P)
    calls = _spy_shifted(monkeypatch)
    triples = pencil_eigen(P, left=False)
    # one shifted solve, of the anchor
    assert len(calls) == 1 and np.array_equal(calls[0][0].F.X, L.X)
    assert np.isinf(triples.eigenvalues).sum() >= 1
    monkeypatch.undo()
    _assert_triples_match_qz(P, "anchor", triples)


# Leads on which the eigvals rung's result fails exactly one check of the
# certificate once _p_vectors has repaired it (measured at one BLAS thread,
# the failing check at 1.5 and 5.1 times its bound): (kind, cond, seed,
# side) -> the check.
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
    assert spectral._companion_solve(spectral._route(P, f), False) is None
    _assert_triples_match_qz(P, side, pencil_eigen(P, f, left=False))


def _write_problem(tmp_path, P, name):
    path = tmp_path / f"{name}.json"
    path.write_text(dump_json(problem_to_obj(P)))
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
    # spectral.eval_pencil calls: the rung at a finite shift forms s X + Y
    # once, and nothing else in pencil_eigen evaluates the pencil
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
            assert calls["eval_pencil"] == (name != "fast"), argv


def _force_rung(monkeypatch, rung):
    """Make the solve take one shift: "eigvals" leaves the solve as it is, and
    "qz" refuses the rung at shift infinity, so that it solves at a finite
    shift, as on the problems that reached QZ before."""
    if rung == "qz":
        monkeypatch.setattr(spectral, "_companion_solve", lambda *a: None)


@pytest.mark.parametrize("rung", ("eigvals", "qz"))
def test_recover_computes_each_backward_error_once(tmp_path, monkeypatch, capsys, rung):
    # The post-solve step computes eta_P of the solved vectors of both sides
    # from the one basis sequence its solves are built on, at either shift;
    # recover_right and recover_left check those values.  The finite shift
    # is chosen from one more sequence, at the candidate shifts.  No
    # P(lam_j) of this P (or P^T) is exactly singular.
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
        assert calls == {"_eta": 2, "_phi_sequence": 1 + (rung == "qz")}, argv


@pytest.mark.parametrize("rung", ("eigvals", "qz"))
def test_certified_recover_does_the_work_once(tmp_path, monkeypatch, capsys, rung):
    # a recover on the anchor, an M1 and an M2 pencil computes eta_P once
    # per side and evaluates the basis at the eigenvalues once, at either
    # shift: either way P's eigenvectors are solved from P.  The finite
    # shift is chosen from one more phi_vector.  No P(lam_j) of this P (or
    # P^T) is exactly singular (see above).
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
        assert calls == {"_eta": 2, "phi_vector": 1 + (rung == "qz"), "_companion_solve": 1}, argv
        assert sorted(sides) == ["left", "right"], argv


def test_exactly_singular_p_stays_on_the_eigvals_rung(monkeypatch):
    # at a real eigenvalue of this P the LU of P(lam_j) has an exactly zero
    # pivot, so the batched solve raises; the rung evaluates P once, moves
    # that matrix along I and solves it again, still reports the eigenvalue
    # eigvals found, and no finite shift is tried
    P = cli._random_problem("6,8,13", "chebyshev1")
    for left in (False, True):
        calls = _spy_shifted(monkeypatch)
        evaluated, found = [], []
        inner_evaluate, inner_eigvals = spectral._evaluate_at, np.linalg.eigvals
        monkeypatch.setattr(spectral, "_evaluate_at",
                            lambda P, phi: evaluated.append(phi.shape[1]) or inner_evaluate(P, phi))
        monkeypatch.setattr(np.linalg, "eigvals", lambda A: found.append(inner_eigvals(A)) or found[-1])
        triples = pencil_eigen(P, left=left)
        monkeypatch.undo()
        assert calls == [], left
        assert len(evaluated) == 1, left
        (w,) = found
        lams = spectral._eigenvalues(w, 1.0)
        assert np.array_equal(triples.eigenvalues, lams[spectral._order(lams)]), left
        assert _within_certificate(triples), left


def test_a_singular_matrix_is_moved_along_i_and_the_others_are_kept(monkeypatch):
    # the batch of this P has one exactly singular P(lam_j) at a real
    # eigenvalue: it comes back scaled to unit Frobenius norm and moved by
    # 4i eps I, and every other matrix of the batch is bit for bit as P
    # evaluated it
    P = cli._random_problem("6,8,13", "chebyshev1")
    seen, inner = [], spectral._p_vectors

    def spy(P, values, *args):
        seen.append((values.copy(), values))
        return inner(P, values, *args)

    monkeypatch.setattr(spectral, "_p_vectors", spy)
    pencil_eigen(P, left=False)
    monkeypatch.undo()
    ((before, after),) = seen
    moved = np.flatnonzero((before != after).any(axis=(1, 2)))
    assert moved.size == 1
    j = moved[0]
    M = before[j]
    assert np.linalg.slogdet(M)[0] == 0.0
    expected = M / np.linalg.norm(M[None], axis=(1, 2))[0] + 4j * np.finfo(float).eps * np.eye(P.n)
    assert np.array_equal(after[j], expected)
    kept = np.arange(before.shape[0]) != j
    assert np.array_equal(after[kept], before[kept])


def test_a_column_missing_the_certificate_is_solved_again(monkeypatch):
    # one inverse-iteration step leaves eta_P of a few columns of this P
    # above 10 kn eps (measured at one BLAS thread: two right vectors and
    # one left one); those columns alone are solved again from P(lam)^-1,
    # each side before the next is solved, and the rung keeps the solve
    P = cli._random_problem("10,12,2", "monomial")
    calls = _spy_shifted(monkeypatch)
    sizes, inner = [], spectral._eta
    monkeypatch.setattr(spectral, "_eta",
                        lambda P, phi, scale, U, side: sizes.append((side, U.shape[1]))
                        or inner(P, phi, scale, U, side))
    triples = pencil_eigen(P, left=True)
    monkeypatch.undo()
    assert calls == []
    # eta_P of each side at the kept eigenvalues, then again for its few redone
    (right, m), (right_redone, r), (left, m_left), (left_redone, l) = sizes
    assert (right, right_redone, left, left_redone) == ("right", "right", "left", "left")
    assert m == m_left and max(r, l) < m // 10
    assert _within_certificate(triples)


@pytest.mark.parametrize("kind", ("monomial", "chebyshev1", "chebyshev2", "legendre"))
@pytest.mark.parametrize("k", (2, 3, 4))
def test_multiple_eigenvalues_print_the_same_from_either_solver(tmp_path, monkeypatch, capsys,
                                                                kind, k):
    # x^k I_2 and phi_k(x) I_2: every eigenvalue is at least double.  The
    # rung at shift infinity keeps x^k I_2.  At a root of phi_k the weight of
    # eta_P, sum_i |phi_i| ||P_i||_F = |phi_k(lam)| sqrt(2), is rounding
    # noise, so eig's side misses the certificate in the rung's one solve
    # and the rung solves at a finite shift; one rule picks P's right-hand
    # sides after either shift, so eig and recover each print what they
    # print with the rung refused outright at infinity.  On x^k I_2 eig and
    # recover print the same finite list (recover exits 2 on phi_k(x) I_2:
    # test_cli's strict xfails)
    P = MatrixPolynomial((np.zeros((2, 2)),) * k + (np.eye(2),), builtin_basis(kind))
    path = _write_problem(tmp_path, P, "p")
    printed = []
    for cmd in ("eig", "recover"):
        sides = ["right"] if cmd == "eig" else ["right", "left"]
        outputs = []
        for rung in ("eigvals",) if kind == "monomial" else ("eigvals", "qz"):
            solved = []
            inner = spectral._p_vectors
            _force_rung(monkeypatch, rung)
            calls = _spy_shifted(monkeypatch)
            monkeypatch.setattr(spectral, "_p_vectors", lambda *a: solved.append(a[-1]) or inner(*a))
            outputs.append((cli.run([cmd, "-p", path]), *capsys.readouterr()))
            monkeypatch.undo()
            if rung == "qz":
                expected = (sides, 1)
            elif kind == "monomial":
                expected = (sides, 0)
            else:
                expected = (["right"] + sides, 1)
            assert (solved, len(calls)) == expected, (cmd, rung)
        assert outputs[0] == outputs[-1], cmd
        printed.append(outputs[0][1])
    if kind == "monomial":
        eig, recover = (json.loads(out)["finite"] for out in printed)
        assert eig == recover


@pytest.mark.parametrize("k", (2, 3, 4, 21, 22))
def test_a_multiple_eigenvalue_gets_independent_vectors(tmp_path, monkeypatch, capsys, k):
    # x^k I_2: 0 is an eigenvalue of multiplicity 2k whose eigenvectors span
    # C^2 on either side, and recover prints vectors of P of rank 2 for it.
    # P(0) = 0, the zero matrix, at rounding level against its scale (also
    # 0), so it is solved as I, for every k.  The eigvals rung serves eig and
    # recover at shift infinity, which print the same eigenvalues and
    # residuals
    P = MatrixPolynomial((np.zeros((2, 2)),) * k + (np.eye(2),), builtin_basis("monomial"))
    path = _write_problem(tmp_path, P, "p")
    calls = _spy_shifted(monkeypatch)
    reports = []
    for cmd in ("eig", "recover"):
        assert cli.run([cmd, "-p", path]) == 0, cmd
        reports.append(json.loads(capsys.readouterr().out))
    assert calls == []
    eig, report = reports
    assert eig["finite"] == report["finite"]
    assert report["infinite_count"] == 0 and len(report["finite"]) == 2 * k
    for side in ("right", "left"):
        assert np.linalg.matrix_rank(_vectors(report, side)) == 2, side


# the roots of p in p(x) I_n of _scalar_times_identity, each pattern sharing
# one real part: copies of one root, a few ulps apart, can sort on either
# side of those of another, as in the last, whose roots are close
_SHARED_REAL_PARTS = (
    (0.5 + 1j, 0.5 - 1j, 0.5 + 2j, 0.5 - 2j, 0.5),
    (1j, -1j, 2j, -2j),
    (-0.25 + 0.5j, -0.25 - 0.5j, -0.25),
    (0.3 + 0.1j, 0.3 - 0.1j, 0.3 + 0.2j, 0.3 - 0.2j, 0.3 + 0.3j, 0.3 - 0.3j),
)


def _from_roots(kind, roots):
    """The coefficients in basis ``kind`` of the monic polynomial with these roots."""
    C = basis.to_monomial(builtin_basis(kind), len(roots))
    return np.linalg.solve(C.T, np.poly(roots).real[::-1])


@st.composite
def _scalar_times_identity(draw):
    """(kind, n, p): the coefficients p of p(x) I_n in basis ``kind``, from the
    roots of one of _SHARED_REAL_PARTS at n = 2, 3, 4, or k + 1 random ones,
    k = 2 .. 6, at n = 2, 3."""
    kind = draw(st.sampled_from(BASIS_KINDS))
    if draw(st.booleans()):
        roots = draw(st.sampled_from(_SHARED_REAL_PARTS))
        return kind, draw(st.sampled_from((2, 3, 4))), _from_roots(kind, roots)
    k, seed = draw(st.integers(2, 6)), draw(st.integers(0, 2**32 - 1))
    return kind, draw(st.sampled_from((2, 3))), np.random.default_rng(seed).uniform(-1.0, 1.0, k + 1)


@settings(max_examples=30)
@given(problem=_scalar_times_identity())
@example(problem=("chebyshev1", 4, _from_roots("chebyshev1", _SHARED_REAL_PARTS[-1])))
@example(problem=("monomial", 2, _from_roots("monomial", _SHARED_REAL_PARTS[-1])))
def test_multiple_eigenvalues_stay_on_the_rung_with_independent_vectors(problem):
    # every eigenvalue of p(x) I_n has n independent eigenvectors on either
    # side; the eigvals rung serves it, and each cluster of its copies gets
    # vectors of P of rank n on both sides, wherever the copies sort
    kind, n, p = problem
    P = MatrixPolynomial(tuple(c * np.eye(n) for c in p), builtin_basis(kind))
    with mock.patch.object(spectral, "_shift", side_effect=AssertionError("rung refused")):
        triples = pencil_eigen(P)
    lams = triples.eigenvalues
    vectors = recover_right(triples), recover_left(triples)
    for lam in lams:
        cluster = np.abs(lams - lam) <= 1e-6 * np.abs(lam)
        for V in vectors:
            assert np.linalg.matrix_rank(V[:, cluster]) == min(np.count_nonzero(cluster), n), lam


@pytest.mark.parametrize("kind", BASIS_KINDS)
def test_a_matrix_times_a_scalar_polynomial_gives_independent_vectors(kind):
    # P = p(x) A, A a random n x n: every root of p is an eigenvalue of
    # multiplicity n, and P(lam) there is rounding noise against sum_i
    # |phi_i| ||P_i||_F, so every vector is an eigenvector.  Each copy keeps
    # its own right-hand side, on both sides, and each cluster of copies
    # gets vectors of P of rank n (one inverse-iteration step from a noise
    # matrix gave them one direction: 8 cluster sides of rank < n on this
    # family, e.g. monomial n = 2, k = 4, seed 8 at lam = 0.446)
    for n in (2, 3):
        for k in range(2, 7):
            for seed in range(10):
                rng = np.random.default_rng((seed, n, k))
                A, p = rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-1.0, 1.0, k + 1)
                triples = pencil_eigen(MatrixPolynomial(tuple(c * A for c in p),
                                                        builtin_basis(kind)))
                lams = triples.eigenvalues
                for lam in lams:
                    cluster = np.abs(lams - lam) <= 1e-6 * np.abs(lam)
                    for V in (recover_right(triples), recover_left(triples)):
                        assert np.linalg.matrix_rank(V[:, cluster]) == n, (n, k, seed, lam)


# --random n,k,1 (chebyshev1) shapes from kn = 24 to 240 and k^2 / n from
# 0.18 to 21, small kn and n >> k included
_GATE_SHAPES = ((3, 8), (5, 6), (10, 4), (6, 8), (30, 4), (24, 7), (28, 6), (40, 6), (40, 4),
                (50, 3))


@pytest.mark.parametrize("left", (False, True))
@pytest.mark.parametrize("shape", _GATE_SHAPES)
def test_the_gate_sends_each_shape_to_its_rung(monkeypatch, shape, left):
    # P_k of each problem clears the rcond gate of _companion_solve, so the
    # eigvals rung solves it at shift infinity and is certified, with and
    # without left vectors, and no finite shift is tried
    n, k = shape
    P = cli._random_problem(f"{n},{k},1", "chebyshev1")
    served, inner = [], spectral._companion_solve
    monkeypatch.setattr(spectral, "_companion_solve",
                        lambda *a: served.append(inner(*a)) or served[-1])
    calls = _spy_shifted(monkeypatch)
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
        calls = _spy_shifted(monkeypatch)
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
    # explicit inverse the largest eta_L of this M2 factor was 480 times the
    # anchor route's on the same P when QZ solved both (4.3 against 0.0089
    # kn eps), an error that grows with cond(S); so at either shift
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
    path.write_text(dump_json(factor_to_obj(f)))
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


def _assert_report_matches_qz(P, side, out):
    """A CLI report of the route against QZ on its anchor (see
    _assert_matches_qz); printed eigenvectors of P must have eta_P at most
    100 kn eps."""
    report = json.loads(out)
    lams = [complex(e["re"], e["im"]) for e in report["finite"]]
    _assert_matches_qz(P, side, lams, report["infinite_count"],
                       [e["residual"] for e in report["finite"]])
    if "eigenvectors" in report and lams:
        for vec_side in ("right", "left"):
            eta = _vector_eta(P, np.array(lams), _vectors(report, vec_side), vec_side)
            assert eta.max() <= 100 * P.k * P.n * EPS, vec_side


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
            # not certified: the rung solved the anchor at a finite shift
            _assert_report_matches_qz(P, side, out)
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
    # rung refused at shift infinity: the shifted rung on the anchor gives
    # the sums, with no cancellation
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
    for (side, _, _), (rc, out) in zip(cases, outs):
        assert rc == 0
        _assert_report_matches_qz(P, side, out)


def test_singular_lead_recover_gets_infinite_eigenvalues_by_qz(tmp_path, monkeypatch, rng):
    coeffs = [rng.uniform(-1.0, 1.0, (4, 4)) for _ in range(4)]
    coeffs[-1][:, 1] = 0.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    cases = _recover_cases(tmp_path, P, rng)
    calls = _spy_shifted(monkeypatch)
    outs = [_run(argv) for _, argv, _ in cases]
    # one shifted solve per op
    assert len(calls) == 3
    monkeypatch.undo()
    for (side, _, _), (rc, out) in zip(cases, outs):
        assert rc == 0 and json.loads(out)["infinite_count"] >= 1
        _assert_report_matches_qz(P, side, out)


# Problems the eigvals rung refuses at shift infinity, which reached QZ
# before the shifted rung replaced it: --random 16,9,2 and 10,16,3 in the
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
    # the rung runs once at a finite shift, on the anchor alone, and returns
    # eigenvalues only; they are QZ's on the same anchor to within their
    # condition numbers times a backward-stable solve's error, with the same
    # infinite count.  The eigenvectors of L and of P, infinite ones
    # included, come from P at them and meet the 100 kn eps that a
    # backward-stable solve gives.  The rung is refused outright at shift
    # infinity: on P^T (M2) it certifies some of these.
    P = _qz_problem(*problem)
    f = None if side == "anchor" else _block_symmetric(P, side, np.random.default_rng(0))
    L = anchor_pencil(P) if f is None else (make_m1(P, f) if side == "M1" else make_m2(P, f))
    kn = L.k * L.n
    _force_rung(monkeypatch, "qz")
    calls = _spy_shifted(monkeypatch)
    triples = pencil_eigen(P, f)
    monkeypatch.undo()
    ((route, shift, out),) = calls
    assert shift in spectral._SHIFTS
    assert isinstance(out, np.ndarray) and out.shape == (kn,)
    F = _solved_anchor(P, side)
    assert np.array_equal(route.F.X, F.X) and np.array_equal(route.F.Y, F.Y)
    _assert_triples_match_qz(P, side, triples)
    lams = triples.eigenvalues
    infinite = np.isinf(lams)
    assert problem[0] != "singular" or infinite.any()
    bound = 100 * kn * EPS
    # eta_L as reported, and from the dense pencil for L's eigenvectors on
    # the structured side, phi kron x of P's vectors in the record (right
    # ones for the anchor and M1, left ones for M2): ||(X*lam + Y) u|| /
    # (||X|| |lam| + ||Y||), ||X u|| / ||X|| at infinity
    assert triples.residual.max() <= bound
    alpha = np.where(infinite, 1.0, lams)
    m2 = side == "M2"
    X, Y = (L.X.T, L.Y.T) if m2 else (L.X, L.Y)
    U = kron_vectors(P, lams, (triples.p_left if m2 else triples.p_right).vectors)
    R = np.stack([(X * a + Y * (not inf)) @ u
                  for a, inf, u in zip(alpha, infinite, U.T)], axis=1)
    nx, ny = np.linalg.norm(L.X), np.linalg.norm(L.Y)
    assert (np.linalg.norm(R, axis=0) / (nx * np.abs(alpha) + ny * ~infinite)).max() <= bound
    for vec_side, vecs in (("right", recover_right(triples, tol=np.inf)),
                           ("left", recover_left(triples, tol=np.inf))):
        assert p_eta(P, lams, vecs, vec_side).max() <= bound, vec_side


@pytest.mark.parametrize("kind", BASIS_KINDS)
def test_a_polynomial_singular_at_every_fixed_shift_is_solved(kind):
    # P = diag(p(x), 1) with a root of p at each of _SHIFTS: P_k is singular,
    # so the rung is not tried at infinity, and P(s) is singular at every
    # fixed shift, though the row-scaled rcond of diag(p(s), 1) is 1.  The
    # rung takes one of kn + 1 further points instead, and finds p's roots
    # and the infinite eigenvalues as QZ does
    p = _from_roots(kind, spectral._SHIFTS)
    P = MatrixPolynomial(tuple(np.diag([c, float(i == 0)]) for i, c in enumerate(p)),
                         builtin_basis(kind))
    shift = spectral._shift(P)
    assert shift not in spectral._SHIFTS
    triples = pencil_eigen(P)
    _assert_triples_match_qz(P, "anchor", triples)
    assert np.allclose(np.sort(triples.eigenvalues[:5].real), np.sort(spectral._SHIFTS),
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("side", ("anchor", "M1", "M2"))
def test_companion_vectors_are_eigenvectors_of_the_pencil(rng, side):
    P = random_problem(rng, 6, 8, "legendre")
    f = None if side == "anchor" else _block_symmetric(P, side, rng)
    L = anchor_pencil(P) if f is None else (make_m1(P, f) if side == "M1" else make_m2(P, f))
    assert spectral._companion_solve(spectral._route(P, f), True) is not None
    kn = L.k * L.n
    nx, ny = np.linalg.norm(L.X), np.linalg.norm(L.Y)
    triples = pencil_eigen(P, f)
    right, left = pencil_vectors(P, triples, f)
    for j, lam in enumerate(triples.eigenvalues):
        M = L.X * lam + L.Y
        scale = nx * abs(lam) + ny
        residual = np.linalg.norm(M @ right[:, j]) / scale
        # the reported residual is the structured one, equal up to rounding
        assert abs(triples.residual[j] - residual) <= kn * EPS
        assert residual <= 10 * kn * EPS
        assert np.linalg.norm(left[:, j] @ M) / scale <= 10 * kn * EPS
    # P's vectors on the side that is not structured are the block sums of
    # the pencil's unit eigenvectors there, up to a unit factor
    v = np.eye(P.k)[0] if f is None else f.v
    summed, other = (right, recover_right) if side == "M2" else (left, recover_left)
    assert np.all(phase_misfit(other(triples), block_sum(v, summed)) <= 100 * kn * EPS)


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
    # eigvals rung solves it at shift infinity or (refused there) at a
    # finite shift
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
    # P_k) at shift infinity: at a finite shift it solves the anchor, never
    # the M1/M2 pencil's own matrices
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
        F = _solved_anchor(P, side)
        for cmd in ("eig", "recover"):
            calls = _spy_shifted(monkeypatch)
            rc, _ = _run([cmd, "-p", path, "--factor", _write_factor(tmp_path, side, f)])
            monkeypatch.undo()
            assert rc == 0
            ((route, _, _),) = calls
            assert not (np.array_equal(route.F.X, L.X) or np.array_equal(route.F.Y, L.Y))
            assert np.array_equal(route.F.X, F.X) and np.array_equal(route.F.Y, F.Y)


def test_multiplier_with_a_zero_pivot_is_singular(rng):
    # a multiplier with an exactly zero pivot has rcond 0, so its pencil is
    # singular whatever P is
    P = random_problem(rng, 3, 4, "legendre")
    for side in ("M1", "M2"):
        f = _deficient(_block_symmetric(P, side, rng), rng)
        assert _scaled_inverse(side_multiplier(f))[1] is None
        with pytest.raises(SingularPencilError) as exc:
            pencil_eigen(P, f)
        assert exc.value.rcond == 0.0


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
