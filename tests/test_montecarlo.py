import dataclasses
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading

from hypothesis import given, settings, strategies as st
import numpy as np
from numpy.polynomial.legendre import leggauss
import pytest

from stochsem import montecarlo, stochastic, timestepper

from stochsem.assembly import Quadrature2D, StateVector, evaluate_grid
from stochsem.basis import make_basis
from stochsem.cli import make_problem
from stochsem.config import parse_config
from stochsem.mesh import build_mesh, element_basis_table
from stochsem.model import SingularNonlinearity, const_field
from stochsem.model import test1_spec as make_test1
from stochsem.model import test2_spec as make_test2
from stochsem.montecarlo import (EnsembleResult, convergence_order, error_hw,
                                 error_report, run_ensemble)
from stochsem.stochastic import QWienerSampler
from stochsem.timestepper import (DivergenceError, SolverFailure, advance, build_scheme,
                                  initial_data, run, time_grid)

from conftest import ref_dof_map
from test_assembly import ref_assemble

UNIT = (0.0, 1.0, 0.0, 1.0)


def disc(nex=2, ney=1, order=5):
    return build_mesh(UNIT, nex, ney, order), make_basis(order)


def noisy_setup(order=5, seed=13):
    mesh, basis = disc(order=order)
    spec = make_test2("smooth").with_wp(0.0)
    sampler = QWienerSampler(truncation=4, amplitude=0.2, seed=seed)
    return spec, mesh, basis, sampler


class TestRunEnsemble:
    def test_zero_noise_mean_equals_deterministic(self):
        spec, mesh, basis, _ = noisy_setup()
        quiet = QWienerSampler(truncation=4, amplitude=0.0, seed=13)
        res = run_ensemble(spec, mesh, basis, 0.05, 0.2, quiet, M=3)
        det = run(spec, mesh, basis, 0.05, 0.2).final
        for rf, df in zip(res.mean.fields, det.fields):
            assert np.array_equal(rf, df)
        assert np.all(res.stderr == 0.0)

    def test_single_sample_mean(self):
        spec, mesh, basis, sampler = noisy_setup()
        res = run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=1)
        traj = run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=0)
        for rf, tf in zip(res.mean.fields, traj.final.fields):
            assert np.max(np.abs(rf - tf)) <= 1e-15
        # one sample has no spread: its variance is 0, not a 0/0
        assert np.array_equal(res.variance, np.zeros((3, mesh.n_global)))

    def test_streaming_matches_two_pass(self):
        spec, mesh, basis, sampler = noisy_setup()
        M = 100
        res = run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=M, chunk_size=7)
        ops = build_scheme(mesh, basis, spec, 0.05)
        finals = np.stack([
            run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=i,
                ops=ops, record_reports=False).final.stacked()
            for i in range(M)])
        two_pass_mean = finals.mean(axis=0)
        two_pass_var = finals.var(axis=0, ddof=1)
        assert np.max(np.abs(res.mean.stacked() - two_pass_mean)) <= 1e-12
        rel = np.abs(res.variance - two_pass_var) / np.maximum(two_pass_var, 1e-300)
        assert np.max(rel[two_pass_var > 1e-30]) <= 1e-10

    def test_worker_count_invariance(self):
        spec, mesh, basis, sampler = noisy_setup()
        res1 = run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=40,
                            workers=1, chunk_size=8)
        res4 = run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=40,
                            workers=4, chunk_size=8)
        assert np.array_equal(res1.mean.stacked(), res4.mean.stacked())
        assert np.array_equal(res1.m2, res4.m2)

    @pytest.mark.parametrize("T,times,message", [
        (0.23, (), "T=0.23 is not an integral multiple of tau=0.05"),
        (0.2, (0.07, 0.1), "snapshot time 0.07 is not a multiple of tau=0.05 within [0, T]"),
        (0.2, (-0.1, 0.1), "snapshot time -0.1 is not a multiple of tau=0.05 within [0, T]")],
        ids=["T", "snapshot", "negative_snapshot"])
    def test_off_grid_time_rejected_before_any_work(self, monkeypatch, T, times, message):
        # the time grid is checked before any scheme, noise workspace or
        # chunk, and its error is the library's own: no sample failed
        spec, mesh, basis, sampler = noisy_setup()

        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the time grid was checked")

        for name in ("scheme_for", "NoiseWorkspace", "advance"):
            monkeypatch.setattr(montecarlo, name, forbidden)
        with pytest.raises(ValueError) as info:
            run_ensemble(spec, mesh, basis, 0.05, T, sampler, M=2, snapshot_times=times)
        assert str(info.value) == message

    def test_snapshot_means(self):
        # every time level goes through the one moments merge: the t = 0 mean
        # is the projected initial data every sample starts from and the t = T
        # mean is the final mean, bitwise, in one chunk or in several
        spec, mesh, basis, sampler = noisy_setup()
        init = initial_data(build_scheme(mesh, basis, spec, 0.05)).reshape(3, -1)
        for chunk_size in (montecarlo.DEFAULT_CHUNK, 2):
            res = run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=5,
                               chunk_size=chunk_size, snapshot_times=[0.0, 0.2])
            assert set(res.snapshot_means) == {0.0, 0.2}
            assert np.array_equal(res.snapshot_means[0.2], res.mean.stacked())
            assert np.array_equal(res.snapshot_means[0.0], init)

    def test_repeated_snapshot_time_counted_once(self):
        # a time named twice gets the mean of its samples, not twice that
        mesh, basis = disc(1, 1, 6)
        spec = make_test2("smooth").with_wp(0.0)
        sampler = QWienerSampler(truncation=4, amplitude=0.1, seed=3)
        once, twice = (run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=8, chunk_size=4,
                                    snapshot_times=times).snapshot_means
                       for times in ((0.1,), (0.1, 0.1)))
        assert set(twice) == {0.1}
        assert np.array_equal(twice[0.1], once[0.1])

    def test_validation(self):
        spec, mesh, basis, sampler = noisy_setup()
        with pytest.raises(ValueError):
            run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=0)
        with pytest.raises(ValueError):
            run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=2, chunk_size=0)


    def test_prebuilt_ops_must_match(self):
        # as in run: a prebuilt scheme built for another spec, mesh, basis or
        # tau is rejected, and the matching one gives bitwise the same moments
        spec, mesh, basis, sampler = noisy_setup()
        ops = build_scheme(mesh, basis, spec, 0.05)
        other_mesh, other_basis = disc()
        for what, args in (("tau=0.05, not tau=0.1", (spec, mesh, basis, 0.1)),
                           ("another spec", (make_test2("smooth"), mesh, basis, 0.05)),
                           ("another mesh", (spec, other_mesh, basis, 0.05)),
                           ("another basis", (spec, mesh, other_basis, 0.05))):
            with pytest.raises(ValueError, match=f"ops was built for {what}"):
                run_ensemble(*args, 0.2, sampler, M=3, ops=ops)
        with_ops = run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=3, ops=ops)
        without = run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=3)
        assert np.array_equal(with_ops.mean.stacked(), without.mean.stacked())
        assert np.array_equal(with_ops.m2, without.m2)


class TestBatchedChunks:
    """A chunk advances as one batch; each of its samples must be bitwise the
    one-sample run of the same id: its final state, snapshots, and rows of
    residuals and energies."""

    IDS = range(3, 10)

    def assert_chunk_equals_runs(self, spec, mesh, basis, sampler, tau=0.05, T=0.2,
                                 snapshot_times=()):
        ops = build_scheme(mesh, basis, spec, tau)
        final, snaps, residuals, energies = advance(
            ops, initial_data(ops), time_grid(T, tau, snapshot_times), self.IDS,
            sampler=sampler, record_reports=True)
        assert residuals.shape == (len(self.IDS), round(T / tau), 3)
        for b, sid in enumerate(self.IDS):
            traj = run(spec, mesh, basis, tau, T, sampler=sampler, sample_id=sid, ops=ops,
                       snapshot_times=snapshot_times, record_reports=True)
            assert np.array_equal(final[b].reshape(3, -1), traj.final.stacked())
            assert np.array_equal(residuals[b], traj.residuals)
            assert np.array_equal(energies[b], traj.energies)
            for t in snapshot_times:
                assert np.array_equal(snaps[t][b].reshape(3, -1), traj.snapshots[t])

    def test_linear_shared_noise(self):
        self.assert_chunk_equals_runs(*noisy_setup())

    def test_nonlinear_per_field_noise(self):
        spec, mesh, basis, _ = noisy_setup()
        sampler = QWienerSampler(truncation=4, amplitude=0.2, seed=13, shared=False)
        self.assert_chunk_equals_runs(spec.with_wp(0.6), mesh, basis, sampler)

    def test_noisy_forced_test1(self):
        mesh, basis = disc(2, 2, 6)
        sampler = QWienerSampler(truncation=4, amplitude=0.1, seed=5)
        self.assert_chunk_equals_runs(make_test1(), mesh, basis, sampler)

    def test_snapshots(self):
        self.assert_chunk_equals_runs(*noisy_setup(), snapshot_times=(0.0, 0.1, 0.2))

    @pytest.mark.parametrize("order,sweep", [(5, True), (17, False)], ids=["sweep", "schur"])
    def test_each_side_of_the_sweep_cut(self, order, sweep):
        spec, mesh, basis, sampler = noisy_setup(order=order)
        assert build_scheme(mesh, basis, spec, 0.05).factor.sweep is sweep
        self.assert_chunk_equals_runs(spec, mesh, basis, sampler)
        one, two = (run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=10, workers=w,
                                 chunk_size=4) for w in (1, 2))
        assert np.array_equal(one.mean.stacked(), two.mean.stacked())
        assert np.array_equal(one.m2, two.m2)

    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=3))
    def test_moments_bitwise_under_any_worker_count(self, worker_counts):
        spec, mesh, basis, sampler = noisy_setup()
        results = [run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=22,
                                workers=w, chunk_size=5) for w in worker_counts]
        for res in results[1:]:
            assert np.array_equal(res.mean.stacked(), results[0].mean.stacked())
            assert np.array_equal(res.m2, results[0].m2)

    def test_full_default_chunk_on_the_ensemble_discretization(self):
        # a whole default chunk (B = 32) of the Monte Carlo benchmark's
        # problem: linear Test 2 on 2x2/order 8 (the column sweep), tau = 0.01
        assert montecarlo.DEFAULT_CHUNK == 32
        self.IDS = range(32)
        mesh, basis = disc(2, 2, 8)
        sampler = QWienerSampler(truncation=8, decay_exponent=2.0, amplitude=0.1, seed=29)
        self.assert_chunk_equals_runs(make_test2("smooth").with_wp(0.0), mesh, basis, sampler,
                                      tau=0.01, T=0.1, snapshot_times=(0.05,))



# workers=2 in a fresh interpreter with one BLAS thread and warnings as
# errors: no warning (such as Python >= 3.12's about forking a threaded
# process) may appear, and the forkserver pool must have been used
POOL_SCRIPT = """
import warnings
warnings.simplefilter("error")
import numpy as np
from stochsem import montecarlo
from stochsem.basis import make_basis
from stochsem.mesh import build_mesh
from stochsem.model import test2_spec
from stochsem.stochastic import QWienerSampler

pools = []
real_pool = montecarlo.ProcessPoolExecutor
montecarlo.ProcessPoolExecutor = lambda *a, **k: pools.append(k) or real_pool(*a, **k)
mesh, basis = build_mesh((0.0, 1.0, 0.0, 1.0), 2, 1, 5), make_basis(5)
spec = test2_spec("smooth").with_wp(0.0)
sampler = QWienerSampler(truncation=4, amplitude=0.2, seed=13)
res = [montecarlo.run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=12,
                               workers=w, chunk_size=5) for w in (2, 1)]
assert len(pools) == 1 and pools[0]["max_workers"] == 2, pools
assert pools[0]["mp_context"].get_start_method() == "forkserver"
assert np.array_equal(res[0].mean.stacked(), res[1].mean.stacked())
assert np.array_equal(res[0].m2, res[1].m2)
"""


no_forkserver = pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="no forkserver start method")


class TestTwinFields:
    """The time loop steps Test 2's twins u and v (same operator, initial
    datum and nonlinear load; one shared noise path) once, in one slot, and
    expands them where a state leaves it: every output is bitwise the one of
    a slot per field (the rule monkeypatched to the identity)."""

    CASES = [("smooth", 0.0), ("smooth", 0.6), ("delta", 0.0), ("delta", 0.6)]
    MESHES = {"sweep": (2, 1, 5), "dtrsyl": (1, 1, 17)}
    TIMES = (0.0, 0.1, 0.2)

    @staticmethod
    def twin_and_identity(monkeypatch, compute):
        twin = compute()
        with monkeypatch.context() as m:
            m.setattr(timestepper, "field_map", lambda ops, sampler: (0, 1, 2))
            identity = compute()
        return twin, identity

    @pytest.mark.parametrize("noise", [0.0, 0.2], ids=["quiet", "noisy"])
    @pytest.mark.parametrize("mesh", MESHES)
    @pytest.mark.parametrize("kind,wp", CASES)
    def test_run(self, monkeypatch, kind, wp, mesh, noise):
        spec, (mesh, basis) = make_test2(kind).with_wp(wp), disc(*self.MESHES[mesh])
        sampler = QWienerSampler(truncation=4, amplitude=noise, seed=13)
        twin, identity = self.twin_and_identity(monkeypatch, lambda: run(
            spec, mesh, basis, 0.05, 0.2, sampler, sample_id=3, snapshot_times=self.TIMES,
            record_reports=True))
        assert np.array_equal(twin.final.stacked(), identity.final.stacked())
        assert np.array_equal(twin.final.u, twin.final.v)
        for t in self.TIMES:
            assert np.array_equal(twin.snapshots[t], identity.snapshots[t])
        assert twin.residuals.shape == (4, 3)
        assert np.array_equal(twin.residuals, identity.residuals)
        assert np.array_equal(twin.energies, identity.energies)

    @pytest.mark.parametrize("mesh", MESHES)
    @pytest.mark.parametrize("kind,wp", CASES)
    def test_run_ensemble(self, monkeypatch, kind, wp, mesh):
        spec, (mesh, basis) = make_test2(kind).with_wp(wp), disc(*self.MESHES[mesh])
        sampler = QWienerSampler(truncation=4, amplitude=0.2, seed=13)
        twin, identity = self.twin_and_identity(monkeypatch, lambda: run_ensemble(
            spec, mesh, basis, 0.05, 0.2, sampler, M=6, chunk_size=4,
            snapshot_times=self.TIMES))
        assert np.array_equal(twin.mean.stacked(), identity.mean.stacked())
        assert np.array_equal(twin.m2, identity.m2)
        assert np.array_equal(twin.stderr[0], twin.stderr[1])
        for t in self.TIMES:
            assert np.array_equal(twin.snapshot_means[t], identity.snapshot_means[t])


class TestWorkerPool:
    @no_forkserver
    def test_pool_forks_cleanly_with_one_blas_thread(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")})
        done = subprocess.run([sys.executable, "-W", "error", "-c", POOL_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    @no_forkserver
    def test_pool_while_other_threads_run(self, monkeypatch):
        spec, mesh, basis, sampler = noisy_setup()
        serial = run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=12, chunk_size=5)
        pools = []
        real_pool = montecarlo.ProcessPoolExecutor
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor",
                            lambda *a, **k: pools.append(k) or real_pool(*a, **k))
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            res = run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=12,
                               workers=2, chunk_size=5)
        finally:
            stop.set()
            other.join()
        assert [(k["max_workers"], k["mp_context"].get_start_method()) for k in pools] \
            == [(2, "forkserver")]
        assert np.array_equal(res.mean.stacked(), serial.mean.stacked())
        assert np.array_equal(res.m2, serial.m2)


def custom_spec(init):
    """The CLI's custom problem with the given [problem] init."""
    return make_problem(parse_config(f"[problem]\nkind = custom\ninit = {init}\n"))


class TestPickling:
    """A pool sends each chunk's scheme and spec to its worker pickled."""

    @pytest.mark.parametrize("make_spec", [
        make_test1, lambda: make_test2("smooth"), lambda: make_test2("delta"),
        lambda: custom_spec("smooth"), lambda: custom_spec("zero")],
        ids=["test1", "test2_smooth", "test2_delta", "custom_smooth", "custom_zero"])
    def test_spec_round_trip_gives_the_same_run(self, make_spec):
        spec = make_spec()
        copy = pickle.loads(pickle.dumps(spec))
        mesh, basis = disc()
        sampler = QWienerSampler(truncation=4, amplitude=0.2, seed=13)
        one, two = (run(s, mesh, basis, 0.05, 0.2, sampler, sample_id=3).final.stacked()
                    for s in (spec, copy))
        assert np.any(one != 0.0)
        assert np.array_equal(one, two)

    def test_scheme_round_trip_gives_the_same_run(self):
        mesh, basis = disc()
        ops = build_scheme(mesh, basis, make_test1(), 0.05)
        copy = pickle.loads(pickle.dumps(ops))
        sampler = QWienerSampler(truncation=4, amplitude=0.2, seed=13)
        one, two = (run(o.spec, o.mesh, o.basis, 0.05, 0.2, sampler, ops=o).final.stacked()
                    for o in (ops, copy))
        assert np.array_equal(one, two)


class TestFailureAttribution:
    def test_solver_failure_names_sample_step_and_field(self, monkeypatch):
        spec, mesh, basis, sampler = noisy_setup(order=17)
        ops = build_scheme(mesh, basis, spec, 0.05)
        assert not ops.factor.sweep
        # a slot per field (u and v are twins here): per step a chunk of 4
        # calls dtrsyl for (sample, u), (sample, v), (sample, w) in sample
        # order: 12 calls; fail sample 6 = chunk 1, position 2, field v at
        # its step 2, after chunk 0's 4 steps
        monkeypatch.setattr(timestepper, "field_map", lambda ops, sampler: (0, 1, 2))
        target = 4 * 12 + 12 + 2 * 3 + 1
        calls = []
        real = timestepper.dtrsyl

        def flaky(*args, **kwargs):
            calls.append(None)
            x, scale, info = real(*args, **kwargs)
            return x, (0.5 if len(calls) == target + 1 else scale), info

        monkeypatch.setattr(timestepper, "dtrsyl", flaky)
        with pytest.raises(SolverFailure, match="sample 6 failed: solve for field v at step 2: "
                                                "dtrsyl info 0, scale 0.5"):
            run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=8, chunk_size=4, ops=ops)

    def test_corrupted_sweep_solve_names_sample_step_and_field(self, monkeypatch):
        spec, mesh, basis, sampler = noisy_setup()
        ops = build_scheme(mesh, basis, spec, 0.05)
        assert ops.factor.sweep
        # a slot per field (u and v are twins here), one solve per
        # batch-step: chunk 0 takes 4, so chunk 1's step 2 is call 6; corrupt
        # its sample 6 (chunk position 2), field v, by a factor of 2, and so
        # the refinement of that sample alone, call 7, that the miss makes
        monkeypatch.setattr(timestepper, "field_map", lambda ops, sampler: (0, 1, 2))
        calls = []
        solve = timestepper.SchurFactor.solve

        def corrupted(self, R, rows):
            calls.append(None)
            X, scale, info = solve(self, R, rows)
            if len(calls) in (6, 7):
                assert len(R) == (4 if len(calls) == 6 else 1)
                X[2 if len(calls) == 6 else 0, 1] *= 2.0
            return X, scale, info

        monkeypatch.setattr(timestepper.SchurFactor, "solve", corrupted)
        with pytest.raises(SolverFailure, match=r"sample 6 failed: solve for field v at step 2: "
                                                r"relative residual \S+ exceeds 1.0e-10"):
            run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=8, chunk_size=4, ops=ops)

    @pytest.mark.parametrize("slot", [0, -1], ids=["u", "w"])
    def test_twin_stack_failure_is_the_identity_paths(self, monkeypatch, slot):
        # the same forced failure (chunk 1's step 2, sample 6, by a factor of
        # 2 on the solve and on its refinement) on the twin stack (u = v, w)
        # and on a slot per field names the same sample, step and field with
        # the same residuals: a twin slot is named by its first field
        spec, mesh, basis, sampler = noisy_setup()
        ops = build_scheme(mesh, basis, spec, 0.05)
        solve = timestepper.SchurFactor.solve

        def failure(rule):
            calls = []

            def corrupted(self, R, rows):
                calls.append(R.shape[1])
                X, scale, info = solve(self, R, rows)
                if len(calls) in (6, 7):
                    X[2 if len(calls) == 6 else 0, slot] *= 2.0
                return X, scale, info

            with monkeypatch.context() as m:
                m.setattr(timestepper, "field_map", rule)
                m.setattr(timestepper.SchurFactor, "solve", corrupted)
                with pytest.raises(SolverFailure) as exc:
                    run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=8, chunk_size=4,
                                 ops=ops)
            return set(calls), exc.value

        (twin_slots, twin), (slots, identity) = (
            failure(rule) for rule in (timestepper.field_map, lambda ops, sampler: (0, 1, 2)))
        assert (twin_slots, slots) == ({2}, {3})
        assert str(twin) == str(identity)
        assert str(twin).startswith(f"sample 6 failed: solve for field {'uvw'[slot]} at step 2: "
                                    f"relative residual ")
        assert twin.__cause__.sample_id == identity.__cause__.sample_id == 6

    def test_divergence_names_sample(self, monkeypatch):
        spec, mesh, basis, sampler = noisy_setup()
        real = stochastic.mode_normals

        def poisoned(s, sample_id, n, component=None):
            xi = real(s, sample_id, n, component)
            return np.full_like(xi, np.nan) if (sample_id, n) == (5, 3) else xi

        monkeypatch.setattr(stochastic, "mode_normals", poisoned)
        with pytest.raises(DivergenceError, match=r"sample 5 failed: non-finite state after "
                                                  r"step 3 \(field u\)"):
            run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=8, chunk_size=4)

    def test_pole_names_sample(self, monkeypatch):
        spec, mesh, basis, sampler = noisy_setup()
        zero = const_field(0.0)
        spec = dataclasses.replace(spec.with_wp(0.6), init=(zero, zero, zero))
        ops = build_scheme(mesh, basis, spec, 0.05, nonlinearity_time="lagged")
        # after one step u differs by sample: put a pole between the two
        # largest peaks of u, so that one sample reaches it at step 2
        one, *_ = advance(ops, initial_data(ops), time_grid(0.05, 0.05), range(4), sampler)
        peaks = ops.quad.values(one[:, 0]).max(axis=(1, 2))
        top, second = np.sort(peaks)[::-1][:2]
        real = timestepper.nonlinear_f

        def pole(spec, U, V):
            at = np.argwhere(U > (top + second) / 2)    # C order: the first is at[0]
            if len(at):
                exc = SingularNonlinearity("singular nonlinearity")
                exc.index = tuple(at[0])
                raise exc
            return real(spec, U, V)

        monkeypatch.setattr(timestepper, "nonlinear_f", pole)
        with pytest.raises(SingularNonlinearity, match=f"sample {np.argmax(peaks)} failed"):
            run_ensemble(spec, mesh, basis, 0.05, 0.1, sampler, M=4, ops=ops)


def sine_mode_loads(mesh, basis, J, n_quad=24):
    """Loads (n_global, J*J) of the noise modes e_jk = 2 sin(j pi x)
    sin(k pi y) on the unit square, mode (j, k) in column (j-1) J + k-1, by
    an n_quad-point Gauss rule per element axis and the ref_dof_map scatter."""
    x, w = leggauss(n_quad)
    V, _ = element_basis_table(basis, x)
    j = np.arange(1, J + 1)[:, None]
    out = np.zeros((mesh.n_global, J, J))
    dof_map = ref_dof_map(mesh)
    for e in range(mesh.n_elements):
        ey, ex = divmod(e, mesh.nex)
        # sqrt(2) sin(j pi x) times the rule's weights on the element, per axis
        sx, sy = (np.sqrt(2) * np.sin(np.pi * j * (a.edges[i] + (x + 1) / 2 * a.h)) * w * a.h / 2
                  for a, i in ((mesh.ax, ex), (mesh.ay, ey)))
        local = np.einsum("jq,kr,mq,nr->mnjk", sx, sy, V, V).reshape(-1, J, J)
        keep = dof_map[e] >= 0
        np.add.at(out, dof_map[e][keep], local[keep])
    return out.reshape(mesh.n_global, J * J)


def exact_variance(spec, mesh, basis, sampler, tau, n_steps):
    """Var of each field's coefficients (3, n_global) after n_steps of the
    linear (wp = 0) scheme, with 2D operators from the element oracle.

    Each field steps u^n = A u^{n-1} -+ L^-1 l_n with A = L^-1 R and the noise
    load l_n = sum_jk sigma sqrt(q_jk tau) xi_jk l^(jk), so
    Var u^n_i = sum_{k<=n} sum_jk sigma^2 q_jk tau ((A^{n-k} L^-1 l^(jk))_i)^2
    whichever the sign, and whether the fields share the path or not
    (Lord, Powell & Shardlow, An Introduction to Computational Stochastic
    PDEs, CUP 2014, ch. 10).
    """
    mass, diff, adv = (ref_assemble(mesh, basis, const_field(1.0), kind).toarray()
                       for kind in ("mass", "diffusion", "advection"))
    S = tau / 2 * (spec.zeta * diff + spec.xi * adv)
    j = np.arange(1, sampler.truncation + 1)
    q = (j[:, None]**2 + j[None, :]**2) ** -sampler.decay_exponent     # q_jk at [j-1, k-1]
    scale = sampler.amplitude * np.sqrt(q.ravel() * tau)
    loads = sine_mode_loads(mesh, basis, sampler.truncation) * scale
    out = []
    for rf in (0.0, 0.0, spec.r):       # fields u, v, w
        L = (1 + tau / 2 * rf) * mass + S
        A = np.linalg.solve(L, (1 - tau / 2 * rf) * mass - S)
        columns, var = np.linalg.solve(L, loads), np.zeros(mesh.n_global)
        for _ in range(n_steps):
            var += np.sum(columns**2, axis=1)
            columns = A @ columns
        out.append(var)
    return np.array(out)


class TestSecondMomentOracle:
    """The ensemble variance of the linear scheme against its exact value.

    Test 2 smooth with wp = 0, 1x1 order 6, J = 4, sigma = 0.1, tau = 0.01
    to T = 0.1, M = 4,000 samples.  One per-dof ratio of sample to exact
    variance has standard deviation sqrt(2 / (M - 1)) = 0.022.  Over seeds
    0-29 the per-dof ratios of the 75 dofs lay in 0.919-1.092 and their
    mean in 0.993-1.018, in either case below; scaling the noise by tau
    instead of sqrt(tau) would read 100x off.
    """

    @pytest.mark.parametrize("shared,convention", [(True, "paper"), (False, "increment")])
    def test_variance_matches_exact(self, shared, convention):
        mesh, basis = disc(1, 1, 6)
        spec = make_test2("smooth").with_wp(0.0)
        sampler = QWienerSampler(truncation=4, amplitude=0.1, seed=13, shared=shared)
        ops = build_scheme(mesh, basis, spec, 0.01, noise_convention=convention)
        res = run_ensemble(spec, mesh, basis, 0.01, 0.1, sampler, M=4000, ops=ops)
        ratio = res.variance / exact_variance(spec, mesh, basis, sampler, 0.01, 10)
        assert 0.88 <= ratio.min() and ratio.max() <= 1.12
        assert abs(ratio.mean() - 1.0) <= 0.03


class TestErrorReport:
    def test_zero_for_identical_state(self, rng):
        mesh, basis = disc()
        state = StateVector(*(rng.standard_normal(mesh.n_global) for _ in range(3)))
        rep = error_report(state, state, mesh, basis, ref_mesh=mesh, ref_basis=basis)
        assert rep.linf_sum <= 1e-14
        assert rep.l2_sum <= 1e-14

    def test_exact_reference(self):
        mesh, basis = disc(2, 2, 10)
        spec = make_test1()
        traj = run(spec, mesh, basis, 0.1, 0.0)    # projection only
        rep = error_report(traj.final, spec.exact, mesh, basis)
        assert rep.linf_sum <= 1e-8
        assert rep.l2_sum <= 1e-8

    def test_accepts_ensemble_result(self):
        spec, mesh, basis, sampler = noisy_setup()
        res = run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=2)
        rep = error_report(res, res.mean, mesh, basis, ref_mesh=mesh, ref_basis=basis)
        assert rep.linf_sum <= 1e-14

    def test_l2_bounded_by_linf(self):
        # ||e||_L2 <= sqrt(|Omega|) ||e||_inf for resolved smooth fields
        mesh, basis = disc(2, 2, 8)
        spec = make_test1()
        traj = run(spec, mesh, basis, 1 / 16, 0.25, record_reports=False)
        rep = error_report(traj.final, spec.exact, mesh, basis)
        x0, x1, y0, y1 = mesh.domain
        area = (x1 - x0) * (y1 - y0)
        for l2, linf in zip(rep.l2, rep.linf):
            assert l2 <= np.sqrt(area) * linf * (1 + 1e-9)

    def test_interior_perturbation_continuity(self, rng):
        mesh, basis = disc(2, 2, 5)
        state = StateVector(*(rng.standard_normal(mesh.n_global) for _ in range(3)))
        ref = StateVector(*state.fields)
        j = mesh.n_global // 2
        c = 0.37
        state.u = state.u.copy()
        state.u[j] += c
        rep = error_report(state, ref, mesh, basis, ref_mesh=mesh, ref_basis=basis)
        ej = np.zeros(mesh.n_global)
        ej[j] = 1.0
        xs = np.linspace(0, 1, rep.grid_n)
        basis_max = np.max(np.abs(evaluate_grid(mesh, basis, ej, xs, xs)))
        assert rep.linf[0] <= c * basis_max + 1e-12

    def test_mismatched_domain_rejected(self, rng):
        mesh, basis = disc()
        other = build_mesh((0, 2, 0, 1), 2, 1, 5)
        state = StateVector(*(rng.standard_normal(mesh.n_global) for _ in range(3)))
        ref = StateVector(*(rng.standard_normal(other.n_global) for _ in range(3)))
        with pytest.raises(ValueError, match="domain"):
            error_report(state, ref, mesh, basis, ref_mesh=other, ref_basis=basis)

    def test_state_reference_needs_discretization(self, rng):
        mesh, basis = disc()
        state = StateVector(*(rng.standard_normal(mesh.n_global) for _ in range(3)))
        with pytest.raises(ValueError, match="ref_mesh"):
            error_report(state, state, mesh, basis)


def per_field_errors(state, ref_grid, ref_quad, ref_grads, mesh, basis, spec, tau, grid_n):
    """The L2, Linf and energy errors field by field, every field and
    reference evaluated by its own evaluate_grid call: the oracle of
    error_report and error_hw, which build each table once per call."""
    quad = Quadrature2D(mesh, basis)
    xs = np.linspace(0.0, 1.0, grid_n)
    h1 = max(1.0, 1.0 + 0.5 * tau * spec.r)
    l2, linf, total = [], [], 0.0
    for idx, f in enumerate(state.fields):
        diff = evaluate_grid(mesh, basis, f, xs, xs) - ref_grid(idx, xs)
        linf.append(float(np.max(np.abs(diff))))
        sq = (evaluate_grid(mesh, basis, f, quad.x, quad.y) - ref_quad(idx, quad))**2
        l2.append(float(np.sqrt(np.sum(sq * quad.W))))
        rgx, rgy = ref_grads(idx, quad)
        h1sq = float(np.sum(((evaluate_grid(mesh, basis, f, quad.x, quad.y, dx=1) - rgx)**2
                             + (evaluate_grid(mesh, basis, f, quad.x, quad.y, dy=1) - rgy)**2)
                            * quad.W))
        total += h1 * float(np.sum(sq * quad.W)) + 0.5 * tau * spec.zeta * h1sq
    return tuple(l2), tuple(linf), float(np.sqrt(total))


class TestErrorTables:
    @pytest.mark.parametrize("reference", ["own", "other", "exact"])
    def test_errors_bitwise_per_field_evaluate_grid(self, reference, rng):
        mesh, basis = disc(2, 2, 6)
        spec, tau = make_test1(), 0.1
        state = StateVector(*(rng.standard_normal(mesh.n_global) for _ in range(3)), t=0.3)
        if reference == "exact":
            ref, kw = spec.exact, {}
            ref_grid = lambda i, xs: spec.exact[i](xs[:, None], xs[None, :], state.t)
            ref_quad = lambda i, q: spec.exact[i](*q.grid, state.t)
            ref_grads = lambda i, q: tuple(g(*q.grid, state.t) for g in spec.exact_grad[i])
        else:
            ref_mesh, ref_basis = (mesh, basis) if reference == "own" else disc(1, 2, 7)
            ref = StateVector(*(rng.standard_normal(ref_mesh.n_global) for _ in range(3)))
            kw = {"ref_mesh": ref_mesh, "ref_basis": ref_basis}

            def on(i, xs, ys, dx=0, dy=0):
                return evaluate_grid(ref_mesh, ref_basis, ref.fields[i], xs, ys, dx=dx, dy=dy)
            ref_grid = lambda i, xs: on(i, xs, xs)
            ref_quad = lambda i, q: on(i, q.x, q.y)
            ref_grads = lambda i, q: (on(i, q.x, q.y, dx=1), on(i, q.x, q.y, dy=1))
        l2, linf, hw = per_field_errors(state, ref_grid, ref_quad, ref_grads, mesh, basis,
                                        spec, tau, 33)
        rep = error_report(state, ref, mesh, basis, grid_n=33, **kw)
        assert (rep.l2, rep.linf) == (l2, linf)
        assert error_hw(state, ref, mesh, basis, spec, tau, **kw) == hw


class TestEnergyError:
    def test_zero_for_identical_state(self, rng):
        mesh, basis = disc()
        spec = make_test1()
        state = StateVector(*(rng.standard_normal(mesh.n_global) for _ in range(3)))
        val = error_hw(state, state, mesh, basis, spec, tau=0.1,
                       ref_mesh=mesh, ref_basis=basis)
        assert val <= 1e-12

    def test_against_exact(self):
        mesh, basis = disc(2, 2, 10)
        spec = make_test1()
        traj = run(spec, mesh, basis, 0.1, 0.0)
        val = error_hw(traj.final, spec.exact, mesh, basis, spec, tau=0.1)
        assert val <= 1e-6

    def test_needs_exact_gradient(self):
        mesh, basis = disc()
        spec = make_test2("smooth")     # no exact_grad
        state = StateVector(*(np.zeros(mesh.n_global) for _ in range(3)))
        with pytest.raises(ValueError, match="exact_grad"):
            error_hw(state, (lambda x, y, t: 0 * x,) * 3, mesh, basis, spec, 0.1)

    def test_mismatched_domain_rejected(self, rng):
        mesh, basis = disc()
        other = build_mesh((0, 2, 0, 1), 2, 1, 5)
        state = StateVector(*(rng.standard_normal(mesh.n_global) for _ in range(3)))
        ref = StateVector(*(rng.standard_normal(other.n_global) for _ in range(3)))
        with pytest.raises(ValueError, match="domain"):
            error_hw(state, ref, mesh, basis, make_test1(), 0.1,
                     ref_mesh=other, ref_basis=basis)

    def test_state_reference_needs_discretization(self, rng):
        mesh, basis = disc()
        state = StateVector(*(rng.standard_normal(mesh.n_global) for _ in range(3)))
        with pytest.raises(ValueError, match="ref_mesh"):
            error_hw(state, state, mesh, basis, make_test1(), 0.1)


class TestConvergenceOrder:
    def test_exact_power_of_two(self):
        assert convergence_order([4e-4, 1e-4])[0] == pytest.approx(2.0, abs=1e-12)

    def test_published_pair(self):
        got = convergence_order([1.2863e-3, 3.3204e-4])[0]
        assert got == pytest.approx(1.9537, abs=5e-4)

    def test_constant_sequence(self):
        assert np.allclose(convergence_order([1e-3, 1e-3, 1e-3]), 0.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            convergence_order([1e-3])
        with pytest.raises(ValueError):
            convergence_order([1e-3, 0.0])
        with pytest.raises(ValueError):
            convergence_order([1e-3, -1e-4])
