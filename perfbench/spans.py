"""Span tracing of stochsem's public functions, installed from outside the package.

`Tracer.install()` rebinds each traced function in every stochsem module that
imported it (and patches the traced class methods in place), so calls between
modules are recorded too.  Nothing under `src/` is edited.  Each call records
a span (name, start, end, parent); spans stay in memory and `write` dumps
them when the run ends.  `layer_metrics` folds one round's spans into the
per-layer metrics the benchmark reports.

`timestepper.factorize` is the `splu` call of `build_scheme`, reached through
a stand-in for timestepper's `spla` module; the factor it returns is wrapped
so that its `solve` calls show up as `timestepper.solve`.
`timestepper.lu_nnz` sums SuperLU's own count of the entries it stores for
L and U (`SuperLU.nnz`, read without copying the factors out).
"""
from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("stochsem", "stochsem.assembly", "stochsem.basis", "stochsem.mesh",
           "stochsem.model", "stochsem.stochastic", "stochsem.timestepper",
           "stochsem.montecarlo", "stochsem.cli")

# (span name, defining module, attribute): functions rebound wherever imported
FUNCTIONS = (
    ("timestepper.build_scheme", "stochsem.timestepper", "build_scheme"),
    ("timestepper.run", "stochsem.timestepper", "run"),
    ("timestepper.step", "stochsem.timestepper", "step"),
    ("timestepper.energy_norm", "stochsem.timestepper", "energy_norm"),
    ("assembly.assemble", "stochsem.assembly", "assemble"),
    ("assembly.load_vector", "stochsem.assembly", "load_vector"),
    ("assembly.values_at_quad", "stochsem.assembly", "values_at_quad"),
    ("assembly.load_from_values", "stochsem.assembly", "load_from_values"),
    ("assembly.evaluate_grid", "stochsem.assembly", "evaluate_grid"),
    ("model.nonlinear_f", "stochsem.model", "nonlinear_f"),
    ("mesh.element_basis_table", "stochsem.mesh", "element_basis_table"),
    ("stochastic.sample_increment", "stochsem.stochastic", "sample_increment"),
    ("stochastic.mode_normals", "stochsem.stochastic", "mode_normals"),
    ("montecarlo.run_ensemble", "stochsem.montecarlo", "run_ensemble"),
    ("montecarlo.error_report", "stochsem.montecarlo", "error_report"),
    ("montecarlo.error_hw", "stochsem.montecarlo", "error_hw"),
)

# (span name, defining module, class, method): patched on the class itself
METHODS = (
    ("assembly.Quadrature2D", "stochsem.assembly", "Quadrature2D", "__init__"),
    ("assembly.project", "stochsem.assembly", "L2Projector", "project"),
    ("stochastic.NoiseWorkspace", "stochsem.stochastic", "NoiseWorkspace", "__init__"),
)

FACTORIZE = "timestepper.factorize"
SOLVE = "timestepper.solve"
LU_NNZ = "timestepper.lu_nnz"
SELF_TIMED = ("timestepper.step", "montecarlo.run_ensemble")

SPAN_NAMES = tuple(sorted([f[0] for f in FUNCTIONS] + [m[0] for m in METHODS]
                          + [FACTORIZE, SOLVE]))


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for span in SPAN_NAMES:
        out.append((f"{span}.s", "s"))
        out.append((f"{span}.calls", "count"))
        if span in SELF_TIMED:
            out.append((f"{span}.self_s", "s"))
    out.append((LU_NNZ, "count"))
    return out


class _TracedFactor:
    """A SuperLU factor whose solves are recorded as spans."""

    def __init__(self, tracer: "Tracer", lu):
        self._lu = lu
        self.solve = tracer.wrap(SOLVE, lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TracedSpla:
    """Stand-in for timestepper's `scipy.sparse.linalg` with a traced splu."""

    def __init__(self, tracer: "Tracer", spla):
        self._spla = spla
        traced = tracer.wrap(FACTORIZE, spla.splu)

        def splu(*args, **kwargs):
            lu = traced(*args, **kwargs)
            if tracer.active:
                tracer.counts[LU_NNZ] += int(lu.nnz)
            return _TracedFactor(tracer, lu)

        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._spla, name)


class Tracer:
    """In-memory span recorder; records only while `active` is true."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.spans: list[list] = []     # [name id, start, end, parent index]
        self.counts = {LU_NNZ: 0}
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        sid = self._ids[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [sid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        mods = [importlib.import_module(m) for m in MODULES]
        for name, modname, attr in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr)
            traced = self.wrap(name, orig)
            for mod in mods:
                if mod.__dict__.get(attr) is orig:
                    self._set(mod, attr, traced)
        for name, modname, cls, meth in METHODS:
            klass = getattr(importlib.import_module(modname), cls)
            self._set(klass, meth, self.wrap(name, klass.__dict__[meth]))
        ts = importlib.import_module("stochsem.timestepper")
        self._set(ts, "spla", _TracedSpla(self, ts.spla))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def reset(self) -> None:
        """Drop the recorded spans and counts (between rounds)."""
        self.spans.clear()
        self.counts = {LU_NNZ: 0}

    def layer_metrics(self) -> dict[str, float]:
        """Inclusive time, call count and (for SELF_TIMED) self time per span
        name over the spans recorded since the last reset."""
        incl = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        child = [0.0] * len(self.spans)
        for sid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selft = [0.0] * len(self.names)
        for (sid, start, end, _), c in zip(self.spans, child):
            incl[sid] += end - start
            calls[sid] += 1
            selft[sid] += end - start - c
        out = {}
        for i, span in enumerate(self.names):
            out[f"{span}.s"] = incl[i]
            out[f"{span}.calls"] = calls[i]
            if span in SELF_TIMED:
                out[f"{span}.self_s"] = selft[i]
        out[LU_NNZ] = self.counts[LU_NNZ]
        return out

    def write(self, path, **meta) -> None:
        """Dump the recorded spans as JSON: names plus [name id, start, end,
        parent index] rows (parent -1 for a root span)."""
        with open(path, "w") as fh:
            json.dump({**meta, "names": self.names, "spans": self.spans}, fh)
