import os
import subprocess
import sys

import numpy as np
import pytest

from orthopencil import (
    AnsatzFactor,
    MatrixPolynomial,
    ScalarPoly,
    Spectrum,
    SingularMatrixPolynomialError,
    anchor_pencil,
    build_dm_pencil,
    builtin_basis,
    det_poly,
    monomial_coefficients,
    poly_roots,
    reference_spectrum,
)
from orthopencil import oracle
from orthopencil.oracle import trim_poly
from orthopencil.serialize import dump_json, factor_to_obj, pencil_to_obj, problem_to_obj
from spectra import compare_spectra
from conftest import ALL_KINDS, random_problem


def test_det_of_constant_identity():
    P = MatrixPolynomial((np.eye(3),), builtin_basis("chebyshev1"))
    det = det_poly(P)
    assert det.degree == 0 and det.coeffs[0] == pytest.approx(1.0)


def test_det_scalar_chebyshev_t2():
    P = MatrixPolynomial(
        (np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1))), builtin_basis("chebyshev1")
    )
    det = det_poly(P)
    assert np.allclose(det.coeffs, [-1.0, 0.0, 2.0])


def test_det_diagonal_product():
    # diag(lam - 1, lam - 2) has determinant lam^2 - 3 lam + 2
    b = builtin_basis("monomial")
    P = MatrixPolynomial(
        (np.diag([-1.0, -2.0]), np.eye(2)), b
    )
    det = det_poly(P)
    assert np.allclose(det.coeffs, [2.0, -3.0, 1.0])


def test_poly_roots_cases():
    assert np.allclose(sorted(poly_roots(ScalarPoly([2.0, -3.0, 1.0])).real), [1.0, 2.0])
    r = sorted(poly_roots(ScalarPoly([-1.0, 0.0, 2.0])).real)
    assert np.allclose(r, [-1 / np.sqrt(2), 1 / np.sqrt(2)])
    ri = poly_roots(ScalarPoly([1.0, 0.0, 1.0]))
    assert np.allclose(sorted(ri.imag), [-1.0, 1.0])
    with pytest.raises(ValueError):
        poly_roots(ScalarPoly([3.0]))


def test_reference_spectrum_counts(rng):
    b = builtin_basis("monomial")
    A = rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2)
    B = rng.uniform(-1, 1, (2, 2))
    C = rng.uniform(-1, 1, (2, 2))
    P = MatrixPolynomial((C, B, A), b)
    spec = reference_spectrum(P)
    assert spec.finite.size == 4 and spec.infinite_count == 0

    A2 = np.diag([1.0, 0.0])
    P2 = MatrixPolynomial((C, B, A2), b)
    spec2 = reference_spectrum(P2)
    # det has degree 3 when the (2,2) entry of B is nonzero
    assert B[1, 1] != 0.0
    assert spec2.finite.size == 3 and spec2.infinite_count == 1


def test_reference_spectrum_scalar_t2():
    P = MatrixPolynomial(
        (np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1))), builtin_basis("chebyshev1")
    )
    spec = reference_spectrum(P)
    assert spec.infinite_count == 0
    assert np.allclose(sorted(spec.finite.real), [-1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_singular_polynomial_verdict(rng):
    coeffs = [rng.uniform(-1, 1, (2, 2)) for _ in range(3)]
    for c in coeffs:
        c[:, 0] = 0.0
    coeffs[-1][1, 1] = 1.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("monomial"))
    with pytest.raises(SingularMatrixPolynomialError):
        reference_spectrum(P)


def test_diagonal_self_consistency(rng):
    # diag of scalar polynomials: spectrum is the union of the entry roots
    b = builtin_basis("monomial")
    p = np.array([2.0, -3.0, 1.0])  # roots 1, 2
    q = np.array([-6.0, 1.0, 1.0])  # roots 2, -3
    coeffs = tuple(np.diag([p[i], q[i]]) for i in range(3))
    P = MatrixPolynomial(coeffs, b)
    spec = reference_spectrum(P)
    assert np.allclose(sorted(spec.finite.real), [-3.0, 1.0, 2.0, 2.0], atol=1e-8)


def test_degree_bound_and_leading_coefficient(rng):
    P = random_problem(rng, 3, 3, "chebyshev1")
    det = det_poly(P)
    assert det.degree <= 9
    # full-rank leading coefficient: degree equals kn
    assert det.degree == 9
    coeffs = [c.copy() for c in P.coeffs]
    coeffs[-1][2] = coeffs[-1][0]
    P2 = MatrixPolynomial(tuple(coeffs), P.basis)
    assert det_poly(P2).degree < 9


def test_size_guard():
    P = MatrixPolynomial((np.eye(7), np.eye(7)), builtin_basis("monomial"))
    with pytest.raises(ValueError):
        det_poly(P)


def test_trim_poly():
    p = trim_poly([1.0, 2.0, 1e-15])
    assert p.degree == 1
    z = trim_poly([0.0, 0.0])
    assert z.is_zero
    assert trim_poly([]).is_zero


def test_compare_spectra_cases(rng):
    a = Spectrum(np.array([1.0, 2.0, 3.0]), 1)
    same = compare_spectra(a, a)
    assert same.matched and same.max_distance == 0.0
    permuted = Spectrum(np.array([3.0, 1.0, 2.0]), 1)
    rep = compare_spectra(a, permuted)
    assert rep.matched and rep.max_distance == 0.0
    short = Spectrum(np.array([1.0, 2.0]), 1)
    rep2 = compare_spectra(a, short)
    assert not rep2.matched and rep2.size_mismatch
    inf_off = Spectrum(np.array([1.0, 2.0, 3.0]), 0)
    rep3 = compare_spectra(a, inf_off)
    assert not rep3.matched and not rep3.infinite_match
    rep4 = compare_spectra(a, Spectrum(np.array([1.0, 2.0, 3.0 + 2e-6]), 1), tol=1e-6)
    assert not rep4.matched and rep4.max_distance == pytest.approx(2e-6)


def _plain_det(M, rows, cols):
    """The unmemoized cofactor expansion along the first row, with the zero
    entry skip, column order and addition order that det_poly keeps."""
    if len(rows) == 1:
        return M[rows[0]][cols[0]]
    acc = np.zeros(1)
    for t, c in enumerate(cols):
        entry = M[rows[0]][c]
        if not np.any(entry):
            continue
        minor = _plain_det(M, rows[1:], cols[:t] + cols[t + 1 :])
        term = oracle._poly_mul(entry, minor)
        acc = oracle._poly_add(acc, term if t % 2 == 0 else -term)
    return acc


def _coefficients(rng, P, style):
    """P with dense, half-zero or small-integer coefficients."""
    if style == "integer":
        coeffs = [rng.integers(-3, 4, c.shape).astype(float) for c in P.coeffs]
    else:
        coeffs = [c.copy() for c in P.coeffs]
        if style == "half_zero":
            for c in coeffs:
                c[rng.random(c.shape) < 0.5] = 0.0
    if not coeffs[-1].any():
        coeffs[-1][0, 0] = 1.0  # P_k must be nonzero
    return MatrixPolynomial(tuple(coeffs), P.basis)


def test_det_poly_bit_identical_to_plain_expansion(rng):
    for kind in ALL_KINDS:
        for n in range(1, 7):
            for k in range(1, 9):
                for style in ("dense", "half_zero", "integer"):
                    P = _coefficients(rng, random_problem(rng, n, k, kind), style)
                    A = monomial_coefficients(P)
                    M = [[A[:, r, c].copy() for c in range(n)] for r in range(n)]
                    want = trim_poly(_plain_det(M, list(range(n)), list(range(n))))
                    got = det_poly(P).coeffs
                    # int64 views: a -0.0 where the plain expansion has 0.0 fails
                    assert got.shape == want.coeffs.shape, (kind, n, k, style)
                    assert np.array_equal(got.view(np.int64), want.coeffs.view(np.int64)), (
                        kind, n, k, style)


def test_det_poly_product_count(rng, monkeypatch):
    calls = []

    def counting_mul(a, b):
        calls.append(None)
        return np.convolve(a, b)

    monkeypatch.setattr(oracle, "_poly_mul", counting_mul)
    det_poly(random_problem(rng, 6, 3, "chebyshev1"))
    # one product per column of each minor on the last j rows: sum_j C(6, j) j
    assert len(calls) == 6 * (2 ** 5 - 1) == 186


def _child(script):
    """Run script in a child interpreter that imports orthopencil from where
    this one did: this one has loaded scipy for the test-only helpers."""
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def _run_all(argvs, then):
    """A child script that runs every argv through cli.run, each to exit 0
    and each followed by the assertion ``then``."""
    return (
        "import contextlib, io, sys\n"
        "import orthopencil.cli as cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.run(argv) == 0, argv\n"
        f"    assert {then}, argv\n"
    )


def test_cli_never_loads_scipy_optimize():
    argvs = [["eig", "--random", "3,3,1"], ["recover", "--random", "3,3,1"],
             ["oracle", "--random", "3,3,1"], ["exclusion", "--random", "3,3,1", "--v", "1,0,0"]]
    _child(_run_all(argvs, "'scipy.optimize' not in sys.modules"))


def _write(tmp_path, name, obj):
    path = tmp_path / f"{name}.json"
    path.write_text(dump_json(obj))
    return str(path)


def _block_symmetric_files(tmp_path, P):
    """Paths of P's problem JSON and of a block-symmetric M1 and M2 factor."""
    f, _ = build_dm_pencil(P, np.array([1.0, -0.5, 0.25]))
    return [_write(tmp_path, "p", problem_to_obj(P))] + [
        _write(tmp_path, side, factor_to_obj(AnsatzFactor(f.v, f.B, side)))
        for side in ("M1", "M2")]


def test_numpy_paths_never_load_scipy_linalg(tmp_path):
    # every inverse, eigvals and the eigvals rung's solves are numpy's, so a
    # certified eig or recover, with both sides' vectors and on M2, needs
    # no scipy
    P = random_problem(np.random.default_rng(3), 3, 3, "chebyshev1")
    path, m1, m2 = _block_symmetric_files(tmp_path, P)
    pencil = _write(tmp_path, "pencil", pencil_to_obj(anchor_pencil(P)))
    p = ["-p", path]
    argvs = [["anchor", *p], ["ansatz", *p, "-f", m1], ["blocksym", *p, "--v", "1,-0.5,0.25"],
             ["check", *p, "-f", m1], ["membership", *p, "--pencil", pencil], ["eig", *p],
             ["eig", *p, "--factor", m1], ["eig", *p, "--factor", m2], ["recover", *p],
             ["exclusion", *p, "--v", "1,0,0"], ["oracle", *p]]
    _child(_run_all(argvs, "'scipy.linalg' not in sys.modules"))


def test_scipy_paths_import_scipy_linalg_themselves(tmp_path):
    # QZ (a singular P_k) is scipy's, imported where it is solved: each op
    # runs in its own child, so that one op's import cannot pass another
    P = random_problem(np.random.default_rng(3), 3, 3, "chebyshev1")
    coeffs = [c.copy() for c in P.coeffs]
    coeffs[-1][:, 1] = 0.0
    singular = _write(tmp_path, "singular", problem_to_obj(MatrixPolynomial(tuple(coeffs),
                                                                            P.basis)))
    for cmd in ("eig", "recover"):
        _child(_run_all([[cmd, "-p", singular]], "'scipy.linalg' in sys.modules"))
