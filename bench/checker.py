"""Independent judge of orthopencil CLI outputs.

Nothing here imports orthopencil.  Basis values come from numpy.polynomial
(monomial, Chebyshev T, Legendre) or from this module's own recurrences
(Chebyshev U, Newton, custom three-term, degree-graded), evaluated on the
coefficients the benchmark generated.  Every test uses one tolerance,
``TOL_FACTOR * kn * eps``, fixed before any output was examined: a
backward-stable QZ on the kn x kn pencil delivers backward errors of a small
multiple of kn * eps, and the factor 100 absorbs the growth from the pencil to
the polynomial.

An op passes or fails with exactly one reason:

- ``singular_verdict``: exit code 4 (the workloads use regular problems only);
- ``recovery_error``: a recovery failure reported by the program, or a
  recovered eigenvector whose residual exceeds the tolerance;
- ``backward_error``: an eigenvalue whose backward error on P exceeds the
  tolerance;
- ``bad_output``: any other non-zero exit, unparsable output, wrong counts,
  a pencil that breaks its identity or block symmetry, a wrong verdict;
- ``exception``: an exception escaped ``cli.run``.
"""

from __future__ import annotations

import json
import re

import numpy as np
import scipy.linalg
from numpy.polynomial import chebyshev, legendre, polynomial

EPS = float(np.finfo(float).eps)
TOL_FACTOR = 100.0
REASONS = ("singular_verdict", "recovery_error", "backward_error", "bad_output", "exception")
# RecoveryError messages of the program all name the eigenvector or the
# recovered vector; the CLI maps every library error to exit 2, so the text is
# the only way to tell a recovery failure from another refusal.
_RECOVERY_TEXT = re.compile(r"eigenvector|recovered vector")


def tolerance(kn: int) -> float:
    return TOL_FACTOR * kn * EPS


# ---------------------------------------------------------------- bases ----

def _three_term(basis: dict, j: int) -> tuple[float, float, float]:
    """(alpha_j, beta_j, gamma_j) of alpha_j phi_{j+1} = (x - beta_j) phi_j - gamma_j phi_{j-1}."""
    kind = basis["kind"]
    if kind == "chebyshev2":
        return 0.5, 0.0, (0.5 if j else 0.0)
    if kind == "newton":
        return 1.0, float(basis["nodes"][j]), 0.0
    if kind == "custom":
        beta = basis["beta"][j] if j < len(basis["beta"]) else 0.0
        gamma = basis["gamma"][j] if 0 < j < len(basis["gamma"]) else 0.0
        return float(basis["alpha"][j]), float(beta), float(gamma)
    raise ValueError(f"no recurrence for basis kind {kind!r}")


def phis(basis: dict, k: int, lam) -> np.ndarray:
    """phi_0 .. phi_k at the points lam: array of shape (k + 1, len(lam))."""
    x = np.asarray(lam, dtype=complex).reshape(-1)
    kind = basis["kind"]
    vander = {"monomial": polynomial.polyvander, "chebyshev1": chebyshev.chebvander,
              "legendre": legendre.legvander}.get(kind)
    if vander is not None:
        return vander(x, k).T
    out = np.zeros((k + 1, x.size), dtype=complex)
    out[0] = 1.0
    if kind == "degree_graded":
        for i in range(1, k + 1):
            out[i] = (x - basis["shift"][i - 1]) * out[i - 1]
            if i >= 2:
                for j, c in enumerate(basis["lower"][i - 2]):
                    out[i] += c * out[j]
        return out
    prev = np.zeros(x.size, dtype=complex)
    for j in range(k):
        a, b, g = _three_term(basis, j)
        out[j + 1] = ((x - b) * out[j] - g * prev) / a
        prev = out[j]
    return out


def evaluate(coeffs: np.ndarray, basis: dict, lam) -> tuple[np.ndarray, np.ndarray]:
    """P(lam) for every point, shape (m, n, n), and the scale sum_i |phi_i| ||P_i||_F."""
    ph = phis(basis, coeffs.shape[0] - 1, lam)
    values = np.einsum("im,irc->mrc", ph, coeffs)
    norms = np.linalg.norm(coeffs, axis=(1, 2))
    return values, np.abs(ph).T @ norms


def eigenvalue_backward_errors(coeffs, basis, lam) -> np.ndarray:
    """eta_P(lam) = sigma_min(P(lam)) / sum_i |phi_i(lam)| ||P_i||_F (Tisseur, LAA 309, 2000)."""
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    if lam.size == 0:
        return np.zeros(0)
    values, scale = evaluate(coeffs, basis, lam)
    return np.linalg.svd(values, compute_uv=False)[:, -1] / scale


def vector_residuals(coeffs, basis, lam, vectors, side: str) -> np.ndarray:
    """||P(lam) x|| (side "right") or ||x^T P(lam)|| (side "left"), relative to the scale."""
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    if lam.size == 0:
        return np.zeros(0)
    values, scale = evaluate(coeffs, basis, lam)
    if side == "left":
        values = values.transpose(0, 2, 1)
    x = np.asarray(vectors, dtype=complex)
    res = np.linalg.norm(np.einsum("mrc,mc->mr", values, x), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return res / (scale * np.linalg.norm(x, axis=1))


# -------------------------------------------------------------- pencils ----

def block_transpose(A: np.ndarray, n: int) -> np.ndarray:
    r, c = A.shape[0] // n, A.shape[1] // n
    return A.reshape(r, n, c, n).transpose(2, 1, 0, 3).reshape(c * n, r * n)


def anchor(coeffs: np.ndarray, basis: dict) -> tuple[np.ndarray, np.ndarray]:
    """A pencil X lam + Y with (X lam + Y)(Phi(lam) kron I) = e_1 kron P(lam).

    Phi = [phi_{k-1}, ..., phi_0].  The first block row expands P_k phi_k by
    the last recurrence step; each further block row is one recurrence step.
    """
    k, n = coeffs.shape[0] - 1, coeffs.shape[1]
    Xs, Ys = np.zeros((k, k)), np.zeros((k, k))
    X = np.zeros((k * n, k * n))
    Y = np.zeros((k * n, k * n))
    P = coeffs
    if basis["kind"] == "degree_graded":
        shift, lower = basis["shift"], basis["lower"]
        X[:n, :n] = P[k]
        Y[:n, :n] = P[k - 1] - shift[k - 1] * P[k]
        for j in range(k - 1):
            Y[:n, (k - 1 - j) * n:(k - j) * n] = P[j] + lower[k - 2][j] * P[k]
        for i in range(k - 1):
            d = k - 1 - i
            Ys[i + 1, i] = 1.0
            Xs[i + 1, i + 1] = -1.0
            Ys[i + 1, i + 1] = shift[d - 1]
            if d >= 2:
                for j, c in enumerate(lower[d - 2]):
                    Ys[i + 1, k - 1 - j] -= c
    else:
        a, b, g = _basis_step(basis, k - 1)
        X[:n, :n] = P[k] / a
        Y[:n, :n] = P[k - 1] - b * P[k] / a
        Y[:n, n:2 * n] = P[k - 2] - g * P[k] / a
        for j in range(k - 2):
            Y[:n, (k - 1 - j) * n:(k - j) * n] = P[j]
        for i in range(k - 1):
            a, b, g = _basis_step(basis, k - 2 - i)
            Ys[i + 1, i] = a
            Xs[i + 1, i + 1] = -1.0
            Ys[i + 1, i + 1] = b
            if i + 2 < k:
                Ys[i + 1, i + 2] = g
    eye = np.eye(n)
    X[n:] = np.kron(Xs[1:], eye)
    Y[n:] = np.kron(Ys[1:], eye)
    return X, Y


def _basis_step(basis: dict, j: int) -> tuple[float, float, float]:
    kind = basis["kind"]
    if kind == "monomial":
        return 1.0, 0.0, 0.0
    if kind == "chebyshev1":
        return (1.0 if j == 0 else 0.5), 0.0, (0.0 if j == 0 else 0.5)
    if kind == "legendre":
        return (j + 1.0) / (2 * j + 1.0), 0.0, j / (2 * j + 1.0)
    return _three_term(basis, j)


def pencil_eigenvalues(coeffs, basis) -> np.ndarray:
    """Finite eigenvalues of P from QZ on this module's own anchor pencil."""
    X, Y = anchor(coeffs, basis)
    w = scipy.linalg.eigvals(Y, -X)
    return w[np.isfinite(w)]


def identity_residual(X, Y, coeffs, basis, v, side: str) -> float:
    """Largest relative residual of the ansatz identity at k + 1 points.

    Side M1: L(lam) (Phi kron I) = v kron P(lam); side M2:
    (Phi^T kron I) L(lam) = v^T kron P(lam).  Both sides have degree <= k, so
    k + 1 distinct points decide the identity.
    """
    k, n = coeffs.shape[0] - 1, coeffs.shape[1]
    v = np.asarray(v, dtype=float)
    lam = 0.9 * np.exp(2j * np.pi * (np.arange(k + 1) + 0.25) / (k + 1))
    ph = phis(basis, k - 1, lam)[::-1]          # rows phi_{k-1} .. phi_0
    values, pscale = evaluate(coeffs, basis, lam)
    eye = np.eye(n)
    nx, ny = np.linalg.norm(X), np.linalg.norm(Y)
    worst = 0.0
    for m in range(lam.size):
        L = X * lam[m] + Y
        if side == "M1":
            lhs = L @ np.kron(ph[:, m].reshape(-1, 1), eye)
            rhs = np.kron(v.reshape(-1, 1), values[m])
        else:
            lhs = np.kron(ph[:, m].reshape(1, -1), eye) @ L
            rhs = np.kron(v.reshape(1, -1), values[m])
        scale = (nx * abs(lam[m]) + ny) * np.linalg.norm(ph[:, m]) + np.linalg.norm(v) * pscale[m]
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
    return worst


def side_multiplier(v, B, side: str) -> np.ndarray:
    n = B.shape[0] // len(v)
    T = np.hstack([np.kron(np.asarray(v).reshape(-1, 1), np.eye(n)), B])
    return T if side == "M1" else block_transpose(T, n)


def rank_report(v, B, side: str) -> dict:
    """Expected `check` verdict: rank by the cutoff size * eps * sigma_max."""
    s = np.linalg.svd(side_multiplier(v, B, side), compute_uv=False)
    size = s.size
    rank = int(np.sum(s > size * EPS * s[0]))
    return {"rank": rank, "deficiency": size - rank, "is_strong_linearization": rank == size,
            "sigma_min": float(s[-1]), "sigma_max": float(s[0])}


# ------------------------------------------------------------- the judge ----

class Failure(Exception):
    def __init__(self, reason: str, detail: str):
        super().__init__(detail)
        self.reason = reason


def judge(op, rc, stdout: str, stderr: str, exc: str | None):
    """(reason, detail) for a failed op, or (None, "") for a solved one."""
    if exc is not None:
        return "exception", exc
    # the CLI's own message is its last line; warnings printed before it are dropped
    message = stderr.strip().splitlines()[-1][:200] if stderr.strip() else ""
    if rc == 4:
        return "singular_verdict", message
    if rc != 0:
        reason = ("recovery_error" if op.command == "recover" and _RECOVERY_TEXT.search(message)
                  else "bad_output")
        return reason, f"exit {rc}: {message}"
    try:
        out = json.loads(stdout)
        CHECKS[op.command](op, out)
    except Failure as f:
        return f.reason, str(f)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return "bad_output", f"malformed output: {type(e).__name__}: {e}"
    return None, ""


def _require(cond: bool, detail: str, reason: str = "bad_output"):
    if not cond:
        raise Failure(reason, detail)


def _finite_values(out: dict) -> np.ndarray:
    return np.array([complex(e["re"], e["im"]) for e in out["finite"]], dtype=complex)


def _check_spectrum(op, out: dict) -> np.ndarray:
    lam = _finite_values(out)
    kn = op.kn
    _require(lam.size + int(out["infinite_count"]) == kn,
             f"{lam.size} finite + {out['infinite_count']} infinite != kn = {kn}")
    _require(int(out["infinite_count"]) == 0,
             f"{out['infinite_count']} infinite eigenvalues for a nonsingular leading coefficient")
    eta = eigenvalue_backward_errors(op.coeffs, op.basis, lam)
    worst = float(eta.max()) if eta.size else 0.0
    _require(worst <= tolerance(kn), f"max eta_P {worst:.3e} > {tolerance(kn):.3e}",
             "backward_error")
    return lam


def _check_eig(op, out):
    lam = _check_spectrum(op, out)
    if op.command != "recover":
        return
    vecs = out["eigenvectors"]
    for side in ("right", "left"):
        x = np.array([[complex(re, im) for re, im in vec] for vec in vecs[side]], dtype=complex)
        _require(x.shape == (lam.size, op.n), f"{side} eigenvectors have shape {x.shape}")
        res = vector_residuals(op.coeffs, op.basis, lam, x, side)
        worst = float(np.max(res)) if res.size else 0.0
        _require(bool(np.all(res <= tolerance(op.kn))),
                 f"{side} recovered vector residual {worst:.3e} > {tolerance(op.kn):.3e}",
                 "recovery_error")


def _check_pencil(op, obj: dict, v, side: str):
    X, Y = np.array(obj["X"], dtype=float), np.array(obj["Y"], dtype=float)
    _require(X.shape == (op.kn, op.kn) and Y.shape == X.shape, f"pencil shape {X.shape}")
    res = identity_residual(X, Y, op.coeffs, op.basis, v, side)
    _require(res <= tolerance(op.kn), f"ansatz identity residual {res:.3e}")
    return X, Y


def _check_anchor(op, out):
    v = np.zeros(op.k)
    v[0] = 1.0
    _check_pencil(op, out, v, "M1")


def _check_ansatz(op, out):
    _check_pencil(op, out, op.expect["v"], op.expect["side"])


def _check_blocksym(op, out):
    v = op.expect["v"]
    got = np.array(out["factor"]["v"], dtype=float)
    _require(got.shape == v.shape and np.max(np.abs(got - v)) <= tolerance(op.kn) * np.max(np.abs(v)),
             "factor vector differs from the requested one")
    X, Y = _check_pencil(op, out["pencil"], v, "M1")
    asym = max(np.max(np.abs(X - block_transpose(X, op.n))), np.max(np.abs(Y - block_transpose(Y, op.n))))
    scale = max(np.max(np.abs(X)), np.max(np.abs(Y)))
    _require(asym <= tolerance(op.kn) * scale, f"block asymmetry {asym:.3e}")


def _check_check(op, out):
    want = op.expect["rank"]
    for key in ("rank", "deficiency", "is_strong_linearization"):
        _require(out[key] == want[key], f"{key} = {out[key]!r}, expected {want[key]!r}")
    _require(abs(out["sigma_min"] - want["sigma_min"]) <= tolerance(op.kn) * want["sigma_max"],
             f"sigma_min {out['sigma_min']:.6e}, expected {want['sigma_min']:.6e}")
    _require(out["space_dimension"] == op.k * (op.k - 1) * op.n ** 2 + op.k, "space dimension")


def _check_membership(op, out):
    _require(out["member"] is op.expect["member"],
             f"member = {out['member']!r}, expected {op.expect['member']!r}")
    if op.expect["member"]:
        v = op.expect["v"]
        got = np.array(out["v"], dtype=float)
        _require(np.max(np.abs(got - v)) <= tolerance(op.kn) * np.max(np.abs(v)),
                 "recovered ansatz vector differs from the constructed one")


def _check_exclusion(op, out):
    v = op.expect["v"]
    k = op.k
    roots = np.array([complex(re, im) for re, im in out["roots"]], dtype=complex)
    _require(roots.size == k - 1, f"{roots.size} roots for a v-polynomial of degree {k - 1}")
    ph = phis(op.basis, k - 1, roots)                   # phi_0 .. phi_{k-1}
    weights = v[::-1].reshape(-1, 1)                      # v_k .. v_1 against phi_0 .. phi_{k-1}
    value = np.abs(np.sum(weights * ph, axis=0))
    scale = np.sum(np.abs(weights) * np.abs(ph), axis=0)
    worst = float(np.max(value / scale))
    _require(worst <= tolerance(op.kn), f"v-polynomial root backward error {worst:.3e}")
    _require(out["v1"] == float(v[0]), "v1 differs from the first entry of v")
    _require(int(out["infinite_count"]) == 0, f"infinite_count {out['infinite_count']}")
    mu = pencil_eigenvalues(op.coeffs, op.basis)
    distance = float(np.min(np.abs(roots.reshape(-1, 1) - mu.reshape(1, -1))))
    # the verdict is only judged where the distance is far from the CLI's 1e-8 cut
    if distance > 1e-6 or distance < 1e-10:
        _require(out["excluded"] is (distance > 1e-8),
                 f"excluded = {out['excluded']!r} at root-eigenvalue distance {distance:.3e}")


CHECKS = {
    "eig": _check_eig,
    "recover": _check_eig,
    "oracle": _check_spectrum,
    "anchor": _check_anchor,
    "ansatz": _check_ansatz,
    "blocksym": _check_blocksym,
    "check": _check_check,
    "membership": _check_membership,
    "exclusion": _check_exclusion,
}
