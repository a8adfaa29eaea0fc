"""The public surface, and the names the benchmark (perfbench/) looks up by
name: deleting one of those breaks the benchmark and no other test.  These
checks only read the benchmark's files."""
import ast
import importlib
import importlib.util
from pathlib import Path

import stochsem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC = """Basis1D make_basis Mesh2D build_mesh ModelSpec nonlinear_f test1_spec
    test2_spec StateVector evaluate_grid L2Projector NoiseIncrement QWienerSampler
    sample_increment spectrum SchemeOperators StepReport Trajectory
    build_scheme energy_norm run step EnsembleResult ErrorReport convergence_order
    error_report run_ensemble""".split()


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_all_is_the_agreed_list():
    assert stochsem.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(stochsem, name) is not None


def test_traced_names_exist():
    spans = load_spans()
    for _span, modname, attr in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    for _span, modname, cls, meth in spans.METHODS:
        assert meth in getattr(importlib.import_module(modname), cls).__dict__, (cls, meth)
    # the tracer swaps this module binding to see the factorizations
    assert "spla" in importlib.import_module("stochsem.timestepper").__dict__


def test_benchmark_reads_exist():
    # every attribute read from a module bound by `from stochsem import ...`
    for path in (PERFBENCH / "workloads.py", PERFBENCH / "tests" / "test_perfbench.py"):
        tree = ast.parse(path.read_text())
        mods = {a.asname or a.name: importlib.import_module(f"stochsem.{a.name}")
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "stochsem"
                for a in node.names}
        reads = [(n.value.id, n.attr) for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in mods]
        assert ("mc", "run_ensemble") in reads
        for alias, attr in reads:
            assert hasattr(mods[alias], attr), (path.name, alias, attr)


def test_tracer_uninstall_restores_every_binding():
    spans = load_spans()
    owners = ([importlib.import_module(m) for m in spans.MODULES]
              + [getattr(importlib.import_module(m), c) for _s, m, c, _m in spans.METHODS])
    before = [dict(vars(o)) for o in owners]
    tracer = spans.Tracer().install()
    try:
        assert any(vars(o)[k] is not v for o, b in zip(owners, before) for k, v in b.items())
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        assert vars(owner).keys() == saved.keys(), owner
        for name, value in saved.items():
            assert vars(owner)[name] is value, (owner, name)
