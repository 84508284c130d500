"""Every layer the benchmark tracer wraps by name exists in orthopencil.

bench/tracer.py installs its spans at module attributes named in its TIMED
and COUNTED tables and refuses to run when one is missing.  This test reads
those tables from the file, so a renamed layer fails here, before it breaks
a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import orthopencil
import orthopencil.cli  # noqa: F401  (the tracer wraps names in cli)
from orthopencil.matpoly import MatrixPolynomial

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TIMED + module.COUNTED


def test_every_trace_target_resolves():
    table = _tracer_tables()
    assert table
    missing = []
    for module, attr, _ in table:
        # a module of None means the attribute belongs to MatrixPolynomial
        owner = MatrixPolynomial if module is None else getattr(orthopencil, module, None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{module or 'MatrixPolynomial'}.{attr}")
    assert not missing, f"trace targets missing from orthopencil: {missing}"
