import json
import os
import subprocess
import sys

import numpy as np
import pytest

from orthopencil import builtin_basis, identity_factor, MatrixPolynomial
from orthopencil.cli import run
from orthopencil.serialize import (
    dump_json,
    factor_to_obj,
    pencil_from_obj,
    problem_to_obj,
)
from conftest import stepped_dg_basis


@pytest.fixture
def cheb_problem_file(tmp_path, rng):
    coeffs = tuple(rng.integers(-4, 5, (2, 2)).astype(float) for _ in range(4))
    P = MatrixPolynomial(coeffs, builtin_basis("chebyshev1"))
    path = tmp_path / "problem.json"
    path.write_text(dump_json(problem_to_obj(P)))
    return path, P


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_anchor_command_golden(capsys, cheb_problem_file):
    path, P = cheb_problem_file
    code, obj = _run(capsys, ["anchor", "-p", str(path)])
    assert code == 0
    L = pencil_from_obj(obj)
    P0, P1, P2, P3 = P.coeffs
    assert np.array_equal(L.X[0:2, 0:2], 2 * P3)
    assert np.array_equal(L.Y[0:2, 2:4], P1 - P3)
    assert np.array_equal(L.Y[2:4, 0:2], -0.5 * np.eye(2))


def test_blocksym_command_golden(capsys, cheb_problem_file):
    path, P = cheb_problem_file
    code, obj = _run(capsys, ["blocksym", "-p", str(path), "--v", "1,0,0"])
    assert code == 0
    P0, P1, P2, P3 = P.coeffs
    B = np.array(obj["factor"]["B"])
    assert np.array_equal(B[2:4, 0:2], 2 * (P3 - P1))
    assert np.array_equal(B[2:4, 2:4], -2 * P0)
    L = pencil_from_obj(obj["pencil"])
    from orthopencil import is_block_symmetric

    assert is_block_symmetric(L).symmetric


def test_check_and_membership_commands(capsys, tmp_path, cheb_problem_file):
    path, P = cheb_problem_file
    fpath = tmp_path / "factor.json"
    fpath.write_text(dump_json(factor_to_obj(identity_factor(3, 2))))
    code, obj = _run(capsys, ["check", "-p", str(path), "-f", str(fpath)])
    assert code == 0
    assert obj["is_strong_linearization"] and obj["rank"] == 6
    assert obj["space_dimension"] == 27

    code, anchor_obj = _run(capsys, ["anchor", "-p", str(path)])
    ppath = tmp_path / "pencil.json"
    ppath.write_text(dump_json(anchor_obj))
    code, mem = _run(capsys, ["membership", "-p", str(path), "--pencil", str(ppath)])
    assert code == 0
    assert mem["member"] and np.allclose(mem["v"], [1, 0, 0])


def test_ansatz_command(capsys, tmp_path, cheb_problem_file, rng):
    path, P = cheb_problem_file
    from orthopencil import AnsatzFactor

    f = AnsatzFactor(rng.standard_normal(3), rng.standard_normal((6, 4)))
    fpath = tmp_path / "factor.json"
    fpath.write_text(dump_json(factor_to_obj(f)))
    code, obj = _run(capsys, ["ansatz", "-p", str(path), "-f", str(fpath)])
    assert code == 0
    L = pencil_from_obj(obj)
    assert L.X.shape == (6, 6)


def test_eig_oracle_agree(capsys):
    code, eig = _run(capsys, ["eig", "--random", "3,3,7", "--basis", "legendre"])
    assert code == 0
    code, ref = _run(capsys, ["oracle", "--random", "3,3,7", "--basis", "legendre"])
    assert code == 0
    a = np.array([[e["re"], e["im"]] for e in eig["finite"]])
    b = np.array([[e["re"], e["im"]] for e in ref["finite"]])
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= 1e-6
    assert eig["infinite_count"] == ref["infinite_count"]


def test_eig_at_kn_240(capsys):
    # refused as a singular pencil (exit code 4) by the scaled-determinant test
    code, obj = _run(capsys, ["eig", "--random", "40,6,1"])
    assert code == 0
    assert len(obj["finite"]) + obj["infinite_count"] == 240


def test_recover_alias(capsys):
    code, obj = _run(capsys, ["recover", "--random", "2,3,5"])
    assert code == 0
    assert "eigenvectors" in obj and len(obj["eigenvectors"]["right"]) == len(obj["finite"])


def test_exclusion_command(capsys):
    code, obj = _run(capsys, ["exclusion", "--random", "2,3,5", "--v", "0,1,0"])
    assert code == 0
    assert set(obj) >= {"excluded", "roots", "min_distance", "v1", "infinite_count"}


def test_degree_graded_flag(capsys, tmp_path, rng):
    P = MatrixPolynomial(
        tuple(rng.integers(-3, 4, (2, 2)).astype(float) for _ in range(5)), stepped_dg_basis(4)
    )
    path = tmp_path / "dg.json"
    path.write_text(dump_json(problem_to_obj(P)))
    code, obj = _run(capsys, ["anchor", "-p", str(path)])
    assert code == 0
    L = pencil_from_obj(obj)
    assert np.array_equal(L.Y[6:8, 6:8], np.eye(2))  # the shifted corner block


def test_exit_code_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["anchor", "-p", str(bad)]) == 2
    capsys.readouterr()
    missing = tmp_path / "missing.json"
    assert run(["anchor", "-p", str(missing)]) == 2
    capsys.readouterr()
    assert run(["eig", "--random", "2,3"]) == 2  # seed is mandatory
    capsys.readouterr()


def test_exit_code_dimension_mismatch(tmp_path, capsys, cheb_problem_file):
    path, P = cheb_problem_file
    fpath = tmp_path / "factor.json"
    fpath.write_text(dump_json(factor_to_obj(identity_factor(4, 2))))
    assert run(["check", "-p", str(path), "-f", str(fpath)]) == 3
    capsys.readouterr()


def test_exit_code_singular(tmp_path, capsys, rng):
    coeffs = [rng.uniform(-1, 1, (2, 2)) for _ in range(3)]
    for c in coeffs:
        c[:, 0] = 0.0
    coeffs[-1][1, 1] = 1.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("monomial"))
    path = tmp_path / "singular.json"
    path.write_text(dump_json(problem_to_obj(P)))
    assert run(["oracle", "-p", str(path)]) == 4
    capsys.readouterr()
    assert run(["eig", "-p", str(path)]) == 4
    capsys.readouterr()


def test_emitted_json_reparses_identically(capsys):
    code, obj = _run(capsys, ["anchor", "--random", "2,4,123"])
    assert code == 0
    L1 = pencil_from_obj(obj)
    # serialize again: values must survive a second trip bitwise
    obj2 = json.loads(dump_json({"n": L1.n, "k": L1.k, "X": L1.X.tolist(), "Y": L1.Y.tolist()}))
    L2 = pencil_from_obj(obj2)
    assert np.array_equal(L1.X, L2.X) and np.array_equal(L1.Y, L2.Y)


def test_module_entry_point():
    # the child interpreter finds the package where this one imported it from
    import orthopencil

    src = os.path.dirname(os.path.dirname(orthopencil.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "orthopencil", "oracle", "--random", "2,2,1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["infinite_count"] == 0
