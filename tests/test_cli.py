import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthopencil import AnsatzFactor, anchor_pencil, builtin_basis, identity_factor, MatrixPolynomial
from orthopencil import cli
from orthopencil.cli import (
    _PROBLEM_OPTIONS, COMMANDS, _direct_parse, build_parser, main, run,
)
from orthopencil.serialize import (
    dump_json,
    factor_to_obj,
    pencil_from_obj,
    pencil_to_obj,
    problem_to_obj,
)
from conftest import random_problem, stepped_dg_basis


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


def test_factor_size_mismatch_reads_the_same_in_every_command(tmp_path, capsys):
    # a (k, n) = (3, 4) factor against a (5, 3) problem: eig and check exit 3
    # with one message; check on a degree-1 problem keeps its exit code 3
    fpath = tmp_path / "factor.json"
    fpath.write_text(dump_json(factor_to_obj(identity_factor(3, 4))))
    errors = []
    for command in ("eig", "check"):
        assert run([command, "--random", "3,5,1", "-f" if command == "check" else "--factor",
                    str(fpath)]) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        "error: factor is for (k, n) = (3, 4), polynomial has (5, 3)\n")
    assert run(["check", "--random", "3,1,1", "-f", str(fpath)]) == 3
    assert capsys.readouterr().err == (
        "error: factor is for (k, n) = (3, 4), polynomial has (1, 3)\n")


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


_ETA_WEIGHTS_VANISH = pytest.mark.xfail(
    strict=True, reason="eta_P weighs phi_i(lam) by ||P_i||_F, which is 0 for i < k here, so "
    "eta_P(lam, u) = ||A u|| / (||A||_F ||u||) wherever phi_k(lam) is not exactly 0")


@pytest.mark.parametrize("kind", ["monomial"] + [
    pytest.param(kind, marks=_ETA_WEIGHTS_VANISH) for kind in ("chebyshev1", "chebyshev2", "legendre")])
def test_recover_on_a_multiple_of_one_basis_polynomial(tmp_path, capsys, rng, kind):
    # P = phi_4(x) A: its eigenvalues are the roots of phi_4, each with every
    # vector; eig solves it, and recover should print vectors for all of them
    A = rng.uniform(-1, 1, (3, 3))
    P = MatrixPolynomial((np.zeros((3, 3)),) * 4 + (A,), builtin_basis(kind))
    path = tmp_path / "power.json"
    path.write_text(dump_json(problem_to_obj(P)))
    assert _run(capsys, ["eig", "-p", str(path)])[0] == 0
    code, obj = _run(capsys, ["recover", "-p", str(path)])
    assert code == 0
    assert len(obj["eigenvectors"]["right"]) == len(obj["finite"]) == 12


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


def _command_files(tmp_path, rng):
    """A degree-graded problem, M1 and M2 factors and an anchor pencil for it,
    each written as JSON whose entries 0.125 can be replaced by other tokens."""
    P = random_problem(rng, 2, 3, "degree_graded")
    P = MatrixPolynomial((np.full((2, 2), 0.125),) + P.coeffs[1:], P.basis)
    objs = {"problem": problem_to_obj(P), "pencil": pencil_to_obj(anchor_pencil(P))}
    objs["pencil"]["X"][0][0] = 0.125
    for side in ("M1", "M2"):
        f = AnsatzFactor(rng.standard_normal(3), rng.standard_normal((6, 4)), side)
        objs[side] = factor_to_obj(f)
        objs[side]["v"][1] = objs[side]["B"][0][0] = 0.125
    paths = {}
    for name, obj in objs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(dump_json(obj))
    return paths


def _every_command(paths):
    """argv of each of the 9 commands on the files of _command_files."""
    p = ["-p", str(paths["problem"])]
    m1, m2 = str(paths["M1"]), str(paths["M2"])
    return [
        ["anchor", *p], ["ansatz", *p, "-f", m1], ["ansatz", *p, "-f", m2],
        ["blocksym", *p, "--v", "1,0.5,-2"], ["check", *p, "-f", m1], ["check", *p, "-f", m2],
        ["membership", *p, "--pencil", str(paths["pencil"])],
        ["eig", *p], ["eig", *p, "--factor", m1], ["eig", *p, "--factor", m2],
        ["recover", *p], ["recover", *p, "--factor", m1], ["recover", *p, "--factor", m2],
        ["exclusion", *p, "--v", "1,0.5,-2"], ["oracle", *p],
    ]


def test_every_report_is_indented_sorted_json(tmp_path, rng, capsys):
    argvs = _every_command(_command_files(tmp_path, rng))
    argvs += [["eig", "--random", "3,4,1", "--basis", "legendre"], ["recover", "--random", "4,5,2"],
              ["recover", "--random", "8,14,1"], ["blocksym", "--random", "6,8,3", "--v=-1,0,0,0,0,0,0,1"],
              ["exclusion", "--random", "6,8,1", "--v=1,1,1,1,1,1,1,1"]]
    for argv in argvs:
        assert run(argv) == 0, argv
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_input_is_malformed(tmp_path, rng, capsys, token):
    # json reads all four; 1e400 overflows to inf
    paths = _command_files(tmp_path, rng)
    good = _every_command(paths)
    for name in ("problem", "pencil", "M1", "M2"):
        bad = tmp_path / f"bad-{name}.json"
        text = paths[name].read_text()
        assert "0.125" in text
        bad.write_text(text.replace("0.125", token))
        for argv in good:
            if str(paths[name]) in argv:
                argv = [str(bad) if a == str(paths[name]) else a for a in argv]
                assert run(argv) == 2, argv
                captured = capsys.readouterr()
                assert captured.out == "" and "finite" in captured.err, argv


@pytest.mark.parametrize("basis", [
    {"kind": "newton", "nodes": [0.0, "NaN", 1.0, 2.0]},
    {"kind": "custom", "alpha": [1.0, "Infinity", 1.0], "beta": [0.0] * 3, "gamma": [0.0] * 3},
    {"kind": "degree_graded", "shift": [0.0, 0.5, 0.0], "lower": [[0.0], [0.0, "1e400"]]},
])
def test_non_finite_basis_is_malformed(tmp_path, capsys, basis):
    path = tmp_path / "problem.json"
    obj = {"basis": basis, "n": 1, "k": 3, "coefficients": [[[1.0]], [[2.0]], [[3.0]], [[4.0]]]}
    path.write_text(json.dumps(obj).replace('"NaN"', "NaN").replace('"Infinity"', "Infinity")
                    .replace('"1e400"', "1e400"))
    for command in ("anchor", "eig", "oracle"):
        assert run([command, "-p", str(path)]) == 2, command
        assert "must be finite" in capsys.readouterr().err


def test_empty_problem_is_malformed(capsys):
    for argv in _every_command(dict.fromkeys(("problem", "pencil", "M1", "M2"), "unused.json")):
        argv = [argv[0], "--random", "0,3,1", *argv[3:]]  # in place of -p problem.json
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "1 x 1" in captured.err, argv


def test_wrong_vector_length_is_a_dimension_mismatch(capsys):
    for command in ("blocksym", "exclusion"):
        assert run([command, "--random", "2,3,5", "--v", "1,2"]) == 3
        capsys.readouterr()
    assert run(["exclusion", "--random", "2,3,5", "--v", "0,0,0"]) == 2  # the zero vector
    capsys.readouterr()


@pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("command", ["blocksym", "exclusion"])
def test_non_finite_v_is_malformed(capsys, command, token):
    # 1e400 overflows to inf
    assert run([command, "--random", "2,3,1", "--v", f"{token},1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--v must be finite" in captured.err


@pytest.mark.parametrize("token", ["-1", "0", "nan", "inf"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, cheb_problem_file, token):
    path, P = cheb_problem_file
    pencil = tmp_path / "pencil.json"
    pencil.write_text(dump_json(pencil_to_obj(anchor_pencil(P))))
    p = ["-p", str(path)]
    argvs = [
        # a true member (residual at rounding level), reported as none at --tol -1
        ["membership", *p, "--pencil", str(pencil)],
        ["recover", *p],
        ["exclusion", *p, "--v", "1,0,0"],
    ]
    for argv in argvs:
        assert run(argv) == 0, argv
        capsys.readouterr()
        assert run([*argv, "--tol", token]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: --tol must be finite and positive"), argv


def test_missing_key_is_named(tmp_path, capsys, cheb_problem_file):
    path, P = cheb_problem_file
    pencil = tmp_path / "pencil.json"
    pencil.write_text(dump_json(pencil_to_obj(anchor_pencil(P))))
    # a pencil where a factor or a problem belongs
    for argv, message in [
        (["check", "-p", str(path), "-f", str(pencil)], "factor JSON is missing key 'v'"),
        (["anchor", "-p", str(pencil)], "problem JSON is missing key 'basis'"),
        (["membership", "-p", str(path), "--pencil", str(path)], "pencil JSON is missing key 'X'"),
    ]:
        assert run(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv


_MATRIX = "a matrix of numbers (an array of equal-length rows)"
_DG_BASIS = {"kind": "degree_graded", "shift": [0.0, 0.5, 0.0], "lower": [[0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("target, key, value, message", [
    ("problem", "coefficients", 3,
     "'coefficients' must be an array of matrices of numbers, all of one size, got a number"),
    ("problem", "coefficients", [[[1.0]], [[1.0, 2.0]]],
     "'coefficients' must be an array of matrices of numbers, all of one size"),
    ("problem", "coefficients", [[["1", "2"], ["3", "4"]]] * 4,
     "'coefficients' must be an array of matrices of numbers, all of one size"),
    # an integer beyond the float range: orjson refuses it, json reads it
    ("problem", "coefficients", [[[10**400, 0], [0, 1]]] * 4, "'coefficients' must be finite"),
    ("problem", "n", None, "'n' must be an integer, got null"),
    ("problem", "n", "2", "'n' must be an integer, got a string"),
    ("problem", "n", 2.5, "'n' must be an integer, got 2.5"),
    ("problem", "k", True, "'k' must be an integer, got a boolean"),
    ("problem", "basis", {**_DG_BASIS, "shift": 3},
     "'basis.shift' must be an array of numbers, got a number"),
    ("problem", "basis", {**_DG_BASIS, "lower": [[0.0], 1]},
     "'basis.lower' must be an array of arrays of numbers"),
    ("problem", "basis", {"kind": "newton", "nodes": None},
     "'basis.nodes' must be an array of numbers, got null"),
    ("problem", "basis", {"kind": "custom", "alpha": ["1", 1, 1], "beta": [0] * 3, "gamma": [0] * 3},
     "'basis.alpha' must be an array of numbers"),
    ("problem", "basis", {"kind": 3}, "'basis.kind' must be a string, got a number"),
    ("problem", "basis", {}, "'basis' is missing key 'kind'"),
    ("pencil", "X", "X", f"'X' must be {_MATRIX}, got a string"),
    ("pencil", "Y", [1.0, 2.0], f"'Y' must be {_MATRIX}"),
    ("pencil", "n", 2.5, "'n' must be an integer, got 2.5"),
    ("pencil", "k", "4", "'k' must be an integer, got a string"),
    ("factor", "v", {}, "'v' must be an array of numbers, got an object"),
    ("factor", "B", [[1.0, None]], f"'B' must be {_MATRIX}"),
    ("factor", "side", 1, "'side' must be a string, got a number"),
    # numpy reads a boolean among numbers as 0 or 1
    ("problem", "coefficients", [[[0.5, True], [0.25, 2.0]]] * 4,
     "'coefficients' must be an array of matrices of numbers, all of one size"),
    ("pencil", "X", [[0.5, False], [1, 2]], f"'X' must be {_MATRIX}"),
    ("factor", "B", [[0.5, 1.5, 2.0, -1.0]] * 3 + [[0.5, 1.5, True, -1.0]] * 3,
     f"'B' must be {_MATRIX}"),
    ("factor", "v", [0.5, 2.0, False], "'v' must be an array of numbers"),
])
def test_wrong_type_is_named(tmp_path, capsys, cheb_problem_file, target, key, value, message):
    path, P = cheb_problem_file
    objs = {"problem": problem_to_obj(P), "pencil": pencil_to_obj(anchor_pencil(P)),
            "factor": factor_to_obj(identity_factor(3, 2))}
    bad = tmp_path / "bad.json"
    bad.write_text(dump_json({**objs[target], key: value}))
    argv = {"problem": ["eig", "-p", str(bad)],
            "pencil": ["membership", "-p", str(path), "--pencil", str(bad)],
            "factor": ["check", "-p", str(path), "-f", str(bad)]}[target]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {target} JSON {message}\n"


def _json_load(path):
    """The reader the CLI had before load_json: json.load of the file as UTF-8
    text."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _edit(text: str, case: str) -> bytes:
    """An indented problem JSON text, spoilt or altered as ``case`` says."""
    data = text.encode()
    if case in ("NaN", "Infinity", "1e400"):
        # in place of the first coefficient entry
        start = text.index('"coefficients"')
        start = next(i for i in range(start, len(text)) if text[i] in "-0123456789")
        end = text.index(",", start)
        return (text[:start] + case + text[end:]).encode()
    if case == "bom":
        return b"\xef\xbb\xbf" + data
    if case == "bad utf-8":
        return data.replace(b'"basis"', b'"basis\xff"')
    if case == "trailing comma":
        return data[:data.rindex(b"}")].rstrip() + b",\n}"
    if case == "crlf syntax error":
        # universal newlines shift json's char offsets; so must the fallback
        return data.replace(b"\n", b"\r\n").replace(b'"n":', b'"n"')
    assert case == "lone surrogate"
    return data.replace(b'"k":', b'"\\ud800": 0, "k":')


@pytest.mark.parametrize("case, code", [
    ("NaN", 2), ("Infinity", 2), ("1e400", 2), ("bom", 2), ("bad utf-8", 2),
    ("trailing comma", 2), ("crlf syntax error", 2), ("lone surrogate", 0),
])
def test_json_orjson_refuses_reads_as_before(tmp_path, capsys, monkeypatch, cheb_problem_file,
                                             case, code):
    path, _ = cheb_problem_file
    bad = tmp_path / "bad.json"
    bad.write_bytes(_edit(path.read_text(), case))
    argv = ["eig", "-p", str(bad)]
    assert run(argv) == code
    captured = capsys.readouterr()
    with monkeypatch.context() as m:
        m.setattr(cli, "load_json", _json_load)
        assert run(argv) == code
        assert capsys.readouterr() == captured
    if case == "bom":
        assert captured.err == ("error: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                                "line 1 column 1 (char 0)\n")


def test_integers_beyond_64_bits_and_whole_floats_for_n(tmp_path, capsys, cheb_problem_file):
    path, P = cheb_problem_file
    bad = tmp_path / "bad.json"

    def eig_with(**fields):
        bad.write_text(dump_json({**problem_to_obj(P), **fields}))
        return run(["eig", "-p", str(bad)]), capsys.readouterr()

    mismatch = "error: declared (n, k) = ({}, 3) but coefficients give (2, 3)\n"
    # 2**64 is a float: the message is json's
    code, captured = eig_with(n=2**64)
    assert (code, captured.err) == (3, mismatch.format(2**64))
    # orjson reads integers beyond 64 bits as the nearest float, so the
    # declared n is printed as that float's integer; the exit code is json's
    code, captured = eig_with(n=2**64 + 1)
    assert (code, captured.err) == (3, mismatch.format(2**64))
    code, captured = eig_with(n=-2**63 - 1)
    assert (code, captured.err) == (3, mismatch.format(-2**63))
    assert eig_with(n=2.0, k=3.0)[0] == 0


@pytest.mark.parametrize("value, kind", [(None, "null"), ("chebyshev1", "a string"),
                                         (["chebyshev1"], "an array"), (3, "a number"),
                                         (True, "a boolean")])
def test_non_object_is_named(tmp_path, capsys, cheb_problem_file, value, kind):
    path, _ = cheb_problem_file
    problem = json.loads(path.read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**problem, "basis": value}))
    assert run(["eig", "-p", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: problem JSON 'basis' must be an object, got {kind}\n"
    # a problem, pencil or factor file whose top level is not an object
    bad.write_text(json.dumps(value))
    for argv, what in [(["anchor", "-p", str(bad)], "problem"),
                       (["membership", "-p", str(path), "--pencil", str(bad)], "pencil"),
                       (["check", "-p", str(path), "-f", str(bad)], "factor")]:
        assert run(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {what} JSON must be an object, got {kind}\n"


COMMAND_NAMES = ("anchor", "ansatz", "blocksym", "check", "membership", "eig", "recover",
                 "exclusion", "oracle")
# argvs that stop in the parser: help, no or an unknown command, a missing
# required option, a bad choice, a bad type, and arguments left over
PARSER_EXITS = [[name, "-h"] for name in COMMAND_NAMES] + [
    [], ["-h"], ["nope"], ["-x"],
    ["blocksym", "--random", "2,3,1"], ["anchor", "--basis", "fourier"],
    ["membership", "--pencil", "p.json", "--side", "m3"], ["eig", "--tol", "abc"],
    ["recover", "--tol", "abc"],
    ["eig", "--random", "2,3,1", "extra"], ["eig", "--random", "2,3,1", "--bogus", "1"],
    ["anchor", "--random"],
]


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
def test_run_parses_as_the_full_parser(capsys, monkeypatch, argv):
    # run builds one command's parser; what it prints must not show it
    monkeypatch.setenv("COLUMNS", "80")
    outcomes = []
    for parse in (build_parser().parse_args, run):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        outcomes.append((exc.value.code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (0 if "-h" in argv else 2)


def test_main_reads_sys_argv(capsys, monkeypatch):
    argv = ["eig", "--random", "3,4,1"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["orthopencil", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0 and capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ["blocksym", "exclusion"])
def test_v_may_start_with_a_minus_sign(capsys, command):
    # argparse alone reads "-1,0.5,0" as an option and exits 2
    spaced = _run(capsys, [command, "--random", "2,3,1", "--v", "-1,0.5,0"])
    joined = _run(capsys, [command, "--random", "2,3,1", "--v=-1,0.5,0"])
    assert spaced[0] == 0 and spaced == joined
    assert run([command, "--random", "2,3,1", "--v", "-inf,1,1"]) == 2
    assert "--v must be finite" in capsys.readouterr().err


# option values of every kind: paths and specs, floats good and bad, values
# that start with a minus sign, good and bad choices
_VALUES = ("p.json", "3,4,1", "1,0.5,-2", "", "0.5", "1e-9", "nan", "abc", "-1", "-1,0.5,0",
           "-x", "chebyshev2", "legendre", "fourier", "m2", "M1", "m3")
# tokens that no command declares
_ODD_TOKENS = (["--"], ["-h"], ["--help"], ["extra"], ["-pp.json"], ["-p=p.json"], ["-"])


def _value(keywords):
    """A value an option takes (a choice, a float, a path) or any of _VALUES."""
    good = keywords.get("choices") or (("0.5", "1e-9") if "type" in keywords else ("p.json",))
    return st.sampled_from(tuple(good)) | st.sampled_from(_VALUES)


@st.composite
def _argvs(draw):
    """A command and tokens drawn from its flags: exact, "=" forms, alone,
    prefixes, odd tokens, with or without every required option first."""
    name = draw(st.sampled_from(COMMAND_NAMES))
    options = _PROBLEM_OPTIONS + COMMANDS[name][1]
    pair = st.sampled_from(options).flatmap(
        lambda option: st.tuples(st.sampled_from(option[0]), _value(option[1])))
    # repeated branches weigh the plain forms, which the direct parse accepts
    token = st.one_of(
        pair.map(list), pair.map(list), pair.map(list), pair.map(lambda fv: ["=".join(fv)]),
        pair.map(lambda fv: ["=".join(fv)]), pair.map(lambda fv: [fv[0]]),
        st.tuples(pair, st.integers(1, 5)).map(lambda t: [t[0][0][:t[1]], t[0][1]]),
        st.sampled_from(_ODD_TOKENS),
    )
    argv = [name]
    if draw(st.booleans()):
        for flags, keywords in options:
            if keywords.get("required"):
                argv += [flags[-1], draw(_value(keywords))]
    for group in draw(st.lists(token, max_size=6)):
        argv += group
    return argv


def _fields(args):
    """vars(args) with every value by its repr, so that a NaN --tol equals itself."""
    return {name: repr(value) for name, value in vars(args).items()}


@settings(max_examples=400)
@given(argv=_argvs())
def test_direct_parse_agrees_with_argparse(argv):
    args = _direct_parse(argv)
    if args is not None:
        try:
            expected = build_parser().parse_args(argv)
        except SystemExit:  # argparse refuses what the direct parse accepted
            pytest.fail(f"argparse refuses {argv}")
        assert _fields(args) == _fields(expected)


def test_plain_argv_takes_the_direct_path(tmp_path, rng):
    argvs = _every_command(_command_files(tmp_path, rng)) + [
        ["recover", "--random", "3,4,1", "--basis", "legendre", "--tol=1e-9"],
        ["recover", "--random=4,5,2", "--factor", "f.json"],
        ["membership", "-p", "p.json", "--pencil", "l.json", "--side", "m2", "--side", "M1"],
        ["exclusion", "--random", "2,3,1", "--v=-1,0.5,0"],
        ["ansatz", "--problem", "p.json", "--factor=f.json"],
    ]
    for argv in argvs:
        args = _direct_parse(argv)
        assert args is not None, argv
        assert _fields(args) == _fields(build_parser().parse_args(argv)), argv


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nope"], ["eig", "-h"], ["eig", "--help"], ["eig", "--rand", "3,4,1"],
    ["eig", "-pp.json"], ["eig", "-p=p.json"], ["eig", "--recover=yes"], ["eig", "--", "x"],
    ["eig", "--tol", "-0.5"], ["eig", "--tol=abc"], ["eig", "--basis", "fourier"],
    ["eig", "--random"], ["eig", "--random", "3,4,1", "extra"], ["blocksym", "--random", "2,3,1"],
    ["eig", "--v", "1,2"], ["eig", "-p", "", "--factor"],
    ["recover", "--tol", "-0.5"], ["recover", "--tol=abc"],
])
def test_unusual_argv_goes_to_the_full_parser(argv):
    assert _direct_parse(argv) is None


@pytest.mark.parametrize("spelled", [
    ["--rand", "3,4,1"], ["--random", "3,4,1", "--bas", "chebyshev1"],
    ["--prob={problem}"], ["-p{problem}"], ["--problem", "{problem}", "--tol", "-0.5",
                                              "--tol", "1e-6"],
])
def test_declined_spellings_print_what_the_plain_one_prints(capsys, cheb_problem_file, spelled):
    # each parses by the full parser to the same Namespace as the plain argv
    path, _ = cheb_problem_file
    command = "recover" if "--tol" in spelled else "eig"
    spelled = [command] + [t.format(problem=path) for t in spelled]
    plain = [command] + (["--random", "3,4,1"] if "3,4,1" in spelled else ["-p", str(path)])
    assert _direct_parse(spelled) is None and _direct_parse(plain) is not None
    outputs = []
    for argv in (plain, spelled):
        assert run(argv) == 0, argv
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


class _CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)

    def flush(self):
        pass


def test_blocksym_holds_little_beyond_its_output(monkeypatch):
    # blocksym at (10, 18), the largest factor the benchmark writes, prints
    # 2.7 MB.  Its arrays reach orjson as they are, and the text is copied as
    # few times as it can be, so the traced peak stays within 4 times that
    argv = ["blocksym", "--random", "10,18,1",
            "--v=" + ",".join(map(repr, np.linspace(-1.0, 1.0, 18).tolist()))]
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert run(argv) == 0  # the first call loads what later calls reuse
    sink.written = 0
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.written > 2_000_000
    assert peak <= 4 * sink.written
