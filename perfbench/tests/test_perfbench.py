"""Tests of the benchmark itself: its checks reject wrong results, tracing
does not change what the program computes, and the command refuses to run
without the program's sources.

    python -m pytest perfbench/tests
"""
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads as wl
from spans import Tracer, per_layer_names
from stochsem import model, montecarlo as mc, stochastic, timestepper as ts
from stochsem.basis import make_basis
from stochsem.mesh import build_mesh

TAUS = [1 / 32, 1 / 64, 1 / 128, 1 / 256, 1 / 512]
MEASURED_LINF = [1.1267e-3, 2.7475e-4, 6.7415e-5, 1.6827e-5, 4.2072e-6]


def groups_of(fails):
    return {g for g, _ in fails}


def test_table1_check_accepts_measured_errors():
    assert wl.check_table1(TAUS, MEASURED_LINF) == []


def test_table1_check_rejects_first_order_sequence():
    first_order = [MEASURED_LINF[0] * tau / TAUS[0] for tau in TAUS]
    fails = wl.check_table1(TAUS, first_order)
    assert groups_of(fails) == {f"tau={tau}" for tau in TAUS}


def test_table1_check_rejects_value_outside_published_window():
    errs = [4 * e for e in MEASURED_LINF]
    assert "tau=0.03125" in groups_of(wl.check_table1(TAUS, errs))


def test_ensemble_check_accepts_halving_stderr():
    assert wl.check_ensemble(3.1, 1.0, 2.9, 1.1, 2.0) == []


def test_ensemble_check_rejects_shrink_ratio_one():
    assert groups_of(wl.check_ensemble(3.1, 1.0, 2.9, 1.1, 1.0)) == {"M", "4M"}


def test_ensemble_check_rejects_biased_mean():
    assert groups_of(wl.check_ensemble(3.1, 1.0, 8.0, 1.1, 2.0)) == {"4M"}
    assert groups_of(wl.check_ensemble(3.1, 4.0, 2.9, 1.1, 2.0)) == {"M"}


def test_stderr_shrink_and_zscores():
    se = np.full((3, 5), 0.2)
    assert wl.stderr_shrink(se, se / 2) == pytest.approx(2.0)
    det = np.zeros((3, 5))
    zmax, zrms = wl.zscores(det + 0.4, det, se)
    assert zmax == pytest.approx(2.0) and zrms == pytest.approx(2.0)


@pytest.fixture(scope="module")
def projected_increment():
    mesh, basis = build_mesh(wl.UNIT, 2, 2, 10), make_basis(10)
    sampler = stochastic.QWienerSampler(truncation=2, amplitude=0.1, seed=7)
    ws = stochastic.NoiseWorkspace(sampler, mesh, basis)
    c = stochastic.mode_coefficients(sampler, 0, 1, 0.01)
    return ws.project_modes(c), c, mesh, basis


def test_projection_check_accepts_projected_increment(projected_increment):
    err = wl.noise_projection_error(*projected_increment)
    assert wl.check_fine_paths(1e-4, err, [True] * 3) == []


def test_projection_check_rejects_perturbed_projection(projected_increment):
    coeffs, c, mesh, basis = projected_increment
    err = wl.noise_projection_error(coeffs * (1 + 1e-6), c, mesh, basis)
    assert groups_of(wl.check_fine_paths(1e-4, err, [True] * 3)) == {"path0", "path1"}


def test_fine_paths_check_rejects_nonfinite_and_inexact_paths():
    assert groups_of(wl.check_fine_paths(1e-4, 0.0, [True, False, True])) == {"path0"}
    assert groups_of(wl.check_fine_paths(1e-3, 0.0, [True] * 3)) == {"det"}


def _small_runs():
    """A noisy nonlinear path and a small ensemble on a coarse mesh."""
    spec = model.test1_spec()
    mesh, basis = build_mesh(wl.UNIT, 2, 2, 6), make_basis(6)
    sampler = stochastic.QWienerSampler(truncation=3, amplitude=0.1, seed=11)
    path = ts.run(spec, mesh, basis, 0.05, 0.15, sampler=sampler, sample_id=3)
    ens = mc.run_ensemble(spec, mesh, basis, 0.05, 0.15, sampler, M=3)
    return path.final.stacked(), ens.mean.stacked(), ens.m2


def test_traced_run_is_bit_identical_to_untraced():
    plain = _small_runs()
    originals = (ts.run, mc.run, ts.spla, stochastic.NoiseWorkspace.__init__)
    tracer = Tracer()
    with tracer:
        tracer.active = True
        traced = _small_runs()
        tracer.active = False
        metrics = tracer.layer_metrics()
    for a, b in zip(plain, traced):
        assert np.array_equal(a, b)
    assert (ts.run, mc.run, ts.spla, stochastic.NoiseWorkspace.__init__) == originals
    assert metrics["timestepper.run.calls"] == 4
    assert metrics["timestepper.step.calls"] == 12
    assert metrics["timestepper.solve.calls"] == 36
    assert metrics["timestepper.factorize.calls"] == 4
    assert metrics["timestepper.lu_nnz"] > 0
    assert metrics["stochastic.NoiseWorkspace.calls"] == 2
    assert set(metrics) == {name for name, _ in per_layer_names()}


def test_command_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(wl.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
