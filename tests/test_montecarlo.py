import dataclasses
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from stochsem import montecarlo, stochastic, timestepper

from stochsem.assembly import Quadrature2D, StateVector, evaluate_grid
from stochsem.basis import make_basis
from stochsem.cli import make_problem
from stochsem.config import parse_config
from stochsem.mesh import build_mesh
from stochsem.model import SingularNonlinearity, const_field
from stochsem.model import test1_spec as make_test1
from stochsem.model import test2_spec as make_test2
from stochsem.montecarlo import (EnsembleResult, convergence_order, error_hw,
                                 error_report, run_ensemble)
from stochsem.stochastic import QWienerSampler
from stochsem.timestepper import (DivergenceError, SolverFailure, advance, build_scheme,
                                  initial_data, run)

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

    def test_divergent_sample_reported(self):
        spec, mesh, basis, sampler = noisy_setup()
        # T not an integral multiple of tau triggers the failure path; the
        # failure keeps its own type and names the first sample
        with pytest.raises(ValueError, match="sample 0 failed"):
            run_ensemble(spec, mesh, basis, 0.05, 0.23, sampler, M=2)

    def test_snapshot_means(self):
        spec, mesh, basis, sampler = noisy_setup()
        res = run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=5,
                           snapshot_times=[0.0, 0.2])
        assert set(res.snapshot_means) == {0.0, 0.2}
        assert np.max(np.abs(res.snapshot_means[0.2] - res.mean.stacked())) <= 1e-12

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
    one-sample run of the same id."""

    IDS = range(3, 10)

    def assert_chunk_equals_runs(self, spec, mesh, basis, sampler, tau=0.05, T=0.2,
                                 snapshot_times=()):
        ops = build_scheme(mesh, basis, spec, tau)
        final, snaps, _ = advance(ops, initial_data(ops), T, self.IDS,
                                  sampler=sampler, snapshot_times=snapshot_times)
        for b, sid in enumerate(self.IDS):
            traj = run(spec, mesh, basis, tau, T, sampler=sampler, sample_id=sid, ops=ops,
                       snapshot_times=snapshot_times, record_reports=False)
            assert np.array_equal(final.state(b).stacked(), traj.final.stacked())
            for t in snapshot_times:
                assert np.array_equal(snaps[t].state(b).stacked(), traj.snapshots[t].stacked())

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
        # per step a chunk of 4 calls dtrsyl for (sample, u), (sample, v),
        # (sample, w) in sample order: 12 calls; fail sample 6 = chunk 1,
        # position 2, field v at its step 2, after chunk 0's 4 steps
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
        # one solve per batch-step: chunk 0 takes 4, so chunk 1's step 2 is
        # call 6; corrupt its sample 6 (chunk position 2), field v
        calls = []
        solve = timestepper.SchurFactor.solve

        def corrupted(self, R):
            calls.append(None)
            X, scale, info = solve(self, R)
            if len(calls) == 6:
                X[2, 1] *= 1.0 + 1e-6
            return X, scale, info

        monkeypatch.setattr(timestepper.SchurFactor, "solve", corrupted)
        with pytest.raises(SolverFailure, match=r"sample 6 failed: solve for field v at step 2: "
                                                r"relative residual \S+ exceeds 1.0e-10"):
            run_ensemble(spec, mesh, basis, 0.05, 0.2, sampler, M=8, chunk_size=4, ops=ops)

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
        one, _, _ = advance(ops, initial_data(ops), 0.05, range(4), sampler)
        peaks = ops.quad.values(one.coeffs[:, 0]).max(axis=(1, 2))
        top, second = np.sort(peaks)[::-1][:2]
        real = timestepper.nonlinear_f

        def pole(spec, U, V):
            if np.max(U) > (top + second) / 2:
                raise SingularNonlinearity("singular nonlinearity")
            return real(spec, U, V)

        monkeypatch.setattr(timestepper, "nonlinear_f", pole)
        with pytest.raises(SingularNonlinearity, match=f"sample {np.argmax(peaks)} failed"):
            run_ensemble(spec, mesh, basis, 0.05, 0.1, sampler, M=4, ops=ops)


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
        ref = state.copy()
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
