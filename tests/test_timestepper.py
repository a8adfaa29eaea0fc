import dataclasses

import numpy as np
import pytest

from stochsem.assembly import L2Projector, Quadrature2D, StateVector, evaluate_grid
from stochsem.basis import make_basis
from stochsem.mesh import build_mesh
from stochsem.model import ModelSpec, const_field
from stochsem.model import test1_spec as make_test1
from stochsem.model import test2_spec as make_test2
from stochsem.montecarlo import error_report
from stochsem.stochastic import NoiseWorkspace, QWienerSampler, sample_increment
from stochsem.timestepper import (KroneckerSum, SchemeError, SchurFactor, SolverFailure,
                                  StateBatch, SweepFactor, build_scheme, energy_norm, run,
                                  step)

UNIT = (0.0, 1.0, 0.0, 1.0)


def disc(nex=1, ney=1, order=8):
    return build_mesh(UNIT, nex, ney, order), make_basis(order)


def plain_spec(xi=0.0, zeta=0.0, r=0.0, wp=0.0, init=None):
    """Constant-coefficient linear configuration for operator checks."""
    zero = const_field(0.0)
    init = init or (zero, zero, zero)
    return ModelSpec(xi=xi, zeta=zeta, r=r,
                     wp=wp, e=(1.0, 1.0, 1.0), kappa=(1.0, 1.0),
                     nonlinearity="saturating_sum", init=init)


def sine_init(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def batch_shape(mesh, B=1):
    """Coefficient shape (B, 3, n1d_x, n1d_y) of a StateBatch on mesh."""
    return (B, 3, mesh.ax.n_dofs, mesh.ay.n_dofs)


def dense(op, f):
    """The 2D matrix kron(ox[f], my) + kron(mx, oy) of field f's operator."""
    return np.kron(op.ox[f], op.my) + np.kron(op.mx, op.oy)


class TestBuildScheme:
    def test_all_zero_coefficients_give_mass(self):
        mesh, basis = disc(2, 1, 4)
        ops = build_scheme(mesh, basis, plain_spec(), tau=0.1)
        M = ops.quad.operator(m=1.0).toarray()
        for f in range(3):
            assert np.max(np.abs(dense(ops.left, f) - M)) <= 1e-15
            assert np.max(np.abs(dense(ops.right, f) - M)) <= 1e-15

    def test_constant_reaction_scales_mass(self):
        # r = 2 with no advection/diffusion: L_w = (1 + tau) * Mass
        mesh, basis = disc(2, 1, 4)
        tau = 0.2
        ops = build_scheme(mesh, basis, plain_spec(r=2.0), tau=tau)
        M = ops.quad.operator(m=1.0).toarray()
        assert np.max(np.abs(dense(ops.left, 2) - (1 + tau) * M)) <= 1e-12
        assert np.max(np.abs(dense(ops.right, 2) - (1 - tau) * M)) <= 1e-12
        for f in (0, 1):
            assert np.max(np.abs(dense(ops.left, f) - M)) <= 1e-15

    def test_tau_linearity(self):
        mesh, basis = disc(1, 1, 6)
        spec = make_test1()
        tau = 0.1
        ops = build_scheme(mesh, basis, spec, tau)
        half = build_scheme(mesh, basis, spec, tau / 2)
        M = ops.quad.operator(m=1.0).toarray()
        for f in range(3):
            L1, L2 = dense(ops.left, f), dense(half.left, f)
            # the reaction term of w is linear in tau too
            assert np.max(np.abs((L1 - M) - 2 * (L2 - M))) <= 1e-12

    def test_validation(self):
        mesh, basis = disc()
        with pytest.raises(ValueError):
            build_scheme(mesh, basis, plain_spec(), tau=0.0)
        for tau in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"tau must be finite and positive, got {tau}"):
                build_scheme(mesh, basis, plain_spec(), tau=tau)
        with pytest.raises(ValueError, match="nonlinearity_time"):
            build_scheme(mesh, basis, plain_spec(), 0.1, nonlinearity_time="midpoint")
        with pytest.raises(ValueError, match="convention"):
            build_scheme(mesh, basis, plain_spec(), 0.1, noise_convention="both")


class TestStep:
    def test_zero_state_fixed_point(self):
        mesh, basis = disc(2, 2, 4)
        spec = plain_spec(xi=1.0, zeta=0.01, r=2.0)
        ops = build_scheme(mesh, basis, spec, tau=0.05)
        state = StateBatch(np.zeros(batch_shape(mesh)))
        new, residuals = step(ops, spec, state)
        assert np.all(new.coeffs == 0)
        assert residuals.max() <= 1e-10
        assert energy_norm(ops, spec, new.state(0)) == 0.0

    def test_pure_mass_scheme_identity(self, rng):
        mesh, basis = disc(2, 1, 5)
        spec = plain_spec()
        ops = build_scheme(mesh, basis, spec, tau=0.3)
        state = StateBatch(rng.standard_normal(batch_shape(mesh)))
        new, _ = step(ops, spec, state)
        for old_f, new_f in zip(state.coeffs[0], new.coeffs[0]):
            assert np.max(np.abs(new_f - old_f)) <= 1e-10

    def test_heat_mode_amplification(self):
        # one CN step of the pure heat scheme damps the sin-sin mode by
        # (1 - tau*D*pi^2) / (1 + tau*D*pi^2)  (eigenvalue 2 D pi^2, halved)
        D, tau = 1e-2, 0.1
        mesh, basis = disc(1, 1, 12)
        spec = plain_spec(zeta=D, init=(sine_init, sine_init, sine_init))
        ops = build_scheme(mesh, basis, spec, tau)
        traj = run(spec, mesh, basis, tau, tau, ops=ops)
        factor = (1 - tau * D * np.pi**2) / (1 + tau * D * np.pi**2)
        xs = np.linspace(0, 1, 31)
        got = evaluate_grid(mesh, basis, traj.final.u, xs, xs)
        want = factor * sine_init(xs[:, None], xs[None, :])
        assert np.max(np.abs(got - want)) <= 1e-6


class TestRun:
    def test_zero_horizon_returns_projection(self):
        mesh, basis = disc(2, 2, 8)
        spec = make_test1()
        traj = run(spec, mesh, basis, tau=0.1, T=0.0)
        assert traj.final.t == 0.0
        xs = np.linspace(0, 1, 21)
        got = evaluate_grid(mesh, basis, traj.final.u, xs, xs)
        assert np.max(np.abs(got - sine_init(xs[:, None], xs[None, :]))) <= 1e-6

    def test_non_integral_horizon_rejected(self):
        mesh, basis = disc()
        with pytest.raises(ValueError, match="integral multiple"):
            run(make_test1(), mesh, basis, tau=0.3, T=1.0)

    @pytest.mark.parametrize("T", [np.inf, np.nan, -0.1])
    def test_non_finite_or_negative_horizon_rejected(self, T):
        mesh, basis = disc(1, 1, 4)
        with pytest.raises(ValueError, match=f"final time must be finite and >= 0, got {T}"):
            run(make_test1(), mesh, basis, tau=0.1, T=T)

    def test_table1_single_point(self):
        # deterministic test problem 1 at tau=1/64 lands within a factor of
        # 3 of the published 3.3204e-4 (summed-over-fields max error)
        mesh, basis = disc(2, 2, 10)
        spec = make_test1()
        traj = run(spec, mesh, basis, tau=1 / 64, T=1.0, record_reports=False)
        rep = error_report(traj.final, spec.exact, mesh, basis)
        assert rep.linf_sum <= 3 * 3.3204e-4
        assert rep.linf_sum >= 3.3204e-4 / 3

    def test_noisy_runs_bit_reproducible(self):
        mesh, basis = disc(2, 1, 6)
        spec = make_test2("smooth")
        sampler = QWienerSampler(truncation=4, amplitude=0.2, seed=11)
        a = run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=5)
        b = run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=5)
        for fa, fb in zip(a.final.fields, b.final.fields):
            assert np.array_equal(fa, fb)

    def test_scheme_reuse_across_runs_and_samples(self):
        mesh, basis = disc(2, 1, 5)
        spec = make_test2("smooth")
        ops = build_scheme(mesh, basis, spec, 0.05)
        sampler = QWienerSampler(truncation=4, amplitude=0.2, seed=3)
        first = run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=0, ops=ops)
        again = run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=0, ops=ops)
        other = run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=1, ops=ops)
        assert np.array_equal(first.final.u, again.final.u)
        assert not np.array_equal(first.final.u, other.final.u)

    def test_snapshots(self):
        mesh, basis = disc(1, 1, 4)
        spec = make_test2("smooth").with_wp(0.0)
        traj = run(spec, mesh, basis, 0.05, 0.2, snapshot_times=[0.0, 0.1, 0.2])
        assert set(traj.snapshots) == {0.0, 0.1, 0.2}
        assert np.array_equal(traj.snapshots[0.2].u, traj.final.u)
        with pytest.raises(ValueError, match="snapshot"):
            run(spec, mesh, basis, 0.05, 0.2, snapshot_times=[0.07])
        for t in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"snapshot time {t} is not finite"):
                run(spec, mesh, basis, 0.05, 0.2, snapshot_times=[t])

    def test_superposition_in_noise(self):
        # linear scheme: full = deterministic + noise-driven-from-zero
        mesh, basis = disc(2, 1, 5)
        sampler = QWienerSampler(truncation=4, amplitude=0.3, seed=21)
        spec = make_test2("smooth").with_wp(0.0)
        zero = const_field(0.0)
        spec_zero_init = dataclasses.replace(spec, init=(zero, zero, zero))
        full = run(spec, mesh, basis, 0.05, 0.25, sampler=sampler, sample_id=2)
        det = run(spec, mesh, basis, 0.05, 0.25)
        noise_only = run(spec_zero_init, mesh, basis, 0.05, 0.25,
                         sampler=sampler, sample_id=2)
        for ff, fd, fn in zip(full.final.fields, det.final.fields,
                              noise_only.final.fields):
            assert np.max(np.abs(ff - (fd + fn))) <= 1e-10

    def test_noise_conventions_mirror(self):
        # paper convention subtracts the increment, the conventional flag
        # adds it: their average is the deterministic trajectory
        mesh, basis = disc(2, 1, 5)
        sampler = QWienerSampler(truncation=4, amplitude=0.3, seed=9)
        spec = make_test2("smooth").with_wp(0.0)
        a = run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=0,
                noise_convention="paper")
        b = run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=0,
                noise_convention="increment")
        det = run(spec, mesh, basis, 0.05, 0.2)
        for fa, fb, fd in zip(a.final.fields, b.final.fields, det.final.fields):
            assert np.max(np.abs(0.5 * (fa + fb) - fd)) <= 1e-10
            assert np.max(np.abs(fa - fb)) > 1e-8

    def test_energy_only_computed_for_recorded_reports(self, monkeypatch):
        from stochsem import timestepper
        calls = []

        def counting(*args):
            calls.append(args)
            return energy_norm(*args)

        monkeypatch.setattr(timestepper, "energy_norm", counting)
        mesh, basis = disc(1, 1, 5)
        spec = make_test1()
        quiet = run(spec, mesh, basis, 0.1, 0.5, record_reports=False)
        assert calls == [] and quiet.reports == []
        loud = run(spec, mesh, basis, 0.1, 0.5)
        assert len(calls) == 5
        for fq, fl in zip(quiet.final.fields, loud.final.fields):
            assert np.array_equal(fq, fl)

    def test_step_reports_recorded(self):
        mesh, basis = disc(1, 1, 5)
        spec = make_test1()
        traj = run(spec, mesh, basis, 0.1, 0.5)
        assert [r.step for r in traj.reports] == [1, 2, 3, 4, 5]
        assert all(max(r.residuals) <= 1e-10 for r in traj.reports)
        assert all(np.isfinite(r.energy) for r in traj.reports)


class TestPerAxisPath:
    def test_no_2d_operator_or_sparse_lu(self, monkeypatch):
        import scipy.sparse.linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("2D operator path used")

        monkeypatch.setattr(Quadrature2D, "operator", forbidden)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", forbidden)
        mesh, basis = disc(2, 2, 6)
        spec = make_test1()
        sampler = QWienerSampler(truncation=4, amplitude=0.1, seed=5)
        ops = build_scheme(mesh, basis, spec, 0.05)
        traj = run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=1, ops=ops,
                   record_reports=True)
        assert [r.step for r in traj.reports] == [1, 2, 3, 4]
        assert all(max(r.residuals) <= 1e-10 for r in traj.reports)
        assert all(np.isfinite(r.energy) for r in traj.reports)

    def test_singular_left_operator_raises(self):
        # 1 + (tau/2) r = 0 with no advection or diffusion: L_w is exactly 0
        mesh, basis = disc(1, 1, 4)
        with pytest.raises(SchemeError, match=r"tau=0.1, mesh 1x1 order 4"):
            build_scheme(mesh, basis, plain_spec(r=-20.0), tau=0.1)

    @pytest.mark.parametrize("order", [4, 17], ids=["sweep", "schur"])
    @pytest.mark.parametrize("r", [-2.0, -2.0 + 2.0**-52], ids=["exactly", "numerically"])
    def test_singular_left_operator_raises_on_both_paths(self, monkeypatch, order, r):
        # diagonal per-axis matrices, so that every Schur form is exact: with
        # tau = 1, L_w's smallest eigenvalue sum is 1 + r/2, 0 or 2^-53
        assert 1.0 + 0.5 * r in (0.0, 2.0**-53)
        mesh, basis = disc(1, 1, order)
        eye = np.eye(mesh.ax.n_dofs)
        stiff = np.diag(np.linspace(0.0, 1e3, mesh.ax.n_dofs))
        monkeypatch.setattr(Quadrature2D, "axis_matrices",
                            lambda self: ((eye, stiff, 0.0 * eye),) * 2)
        with pytest.raises(SchemeError, match=f"field w is singular for tau=1.0, mesh 1x1 "
                                              f"order {order}"):
            build_scheme(mesh, basis, plain_spec(zeta=1.0, r=r), tau=1.0)

    def test_dtrsyl_failure_in_step_is_typed(self, monkeypatch):
        from stochsem import timestepper
        mesh, basis = disc(1, 1, 17)
        spec = plain_spec(xi=1.0, zeta=0.01, r=2.0)
        ops = build_scheme(mesh, basis, spec, tau=0.1)
        assert isinstance(ops.factor, SchurFactor)
        monkeypatch.setattr(timestepper, "dtrsyl",
                            lambda a, b, c, **kw: (0.5 * c, 0.5, 0))
        state = StateBatch(np.ones(batch_shape(mesh)))
        with pytest.raises(SolverFailure, match="field u at step 3: dtrsyl info 0, scale 0.5"):
            step(ops, spec, state, step_index=3)

    def test_corrupted_sweep_solve_fails_the_gate(self, monkeypatch):
        mesh, basis = disc(1, 1, 4)
        spec = plain_spec(xi=1.0, zeta=0.01, r=2.0)
        ops = build_scheme(mesh, basis, spec, tau=0.1)
        assert isinstance(ops.factor, SweepFactor)
        solve = SweepFactor.solve

        def corrupted(self, R):
            X, scale, info = solve(self, R)
            X[0, 1] *= 1.0 + 1e-6
            return X, scale, info

        monkeypatch.setattr(SweepFactor, "solve", corrupted)
        state = StateBatch(np.ones(batch_shape(mesh)))
        with pytest.raises(SolverFailure, match=r"field v at step 3: relative residual \S+ "
                                                r"exceeds 1.0e-10"):
            step(ops, spec, state, step_index=3)

    def test_advection_only_sweep_meets_the_gate(self, rng):
        # zeta = 0: the y axis is pure advection, whose eigenvalues are
        # imaginary pairs (and one zero for odd n1d), so tb is made of 2x2 blocks
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        mesh, basis = disc(2, 2, 7)
        ops = build_scheme(mesh, basis, plain_spec(xi=1.5, r=1.0), tau=0.2)
        assert isinstance(ops.factor, SweepFactor)
        sizes = [k - j for j, k in ops.factor.blocks]
        assert sizes.count(2) == len(sizes) - 1
        R = rng.standard_normal((4, *batch_shape(mesh)[1:]))
        X, scale, info = ops.factor.solve(R)
        assert (scale == 1.0).all() and (info == 0).all()
        gap = np.linalg.norm(ops.left @ X - R, axis=(2, 3))
        assert np.max(gap / np.linalg.norm(R, axis=(2, 3))) <= 1e-10
        for f in range(3):
            L = sp.csc_matrix(dense(ops.left, f))
            for b in range(len(R)):
                want = spla.spsolve(L, R[b, f].ravel())
                assert np.linalg.norm(X[b, f].ravel() - want) <= 1e-10 * np.linalg.norm(want)


class TestFieldStackedScheme:
    def test_two_schur_forms_one_solve_two_applies(self, monkeypatch):
        # one y-axis Schur form and one x-axis form for all three fields
        self.assert_one_solve_two_applies(monkeypatch, disc(1, 1, 17), SchurFactor, 2)

    def test_one_schur_form_one_sweep_two_applies(self, monkeypatch):
        # the column sweep needs only the y-axis Schur form
        self.assert_one_solve_two_applies(monkeypatch, disc(2, 2, 6), SweepFactor, 1)

    @staticmethod
    def assert_one_solve_two_applies(monkeypatch, mesh_basis, factor, schurs):
        # a step of any batch size makes one solve and two operator applies
        # (right-hand side and residual gate)
        from stochsem import timestepper
        calls = {"schur": 0, "solve": 0, "apply": 0}

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(timestepper, "schur", counting("schur", timestepper.schur))
        mesh, basis = mesh_basis
        spec = make_test1()
        ops = build_scheme(mesh, basis, spec, 0.05)
        assert isinstance(ops.factor, factor) and calls["schur"] == schurs
        monkeypatch.setattr(factor, "solve", counting("solve", factor.solve))
        monkeypatch.setattr(KroneckerSum, "__matmul__",
                            counting("apply", KroneckerSum.__matmul__))
        rng = np.random.default_rng(7)
        for B in (1, 2, 7):
            shape = batch_shape(mesh, B)
            state = StateBatch(0.1 * rng.standard_normal(shape), 0.5, tuple(range(B)))
            prev = StateBatch(0.1 * rng.standard_normal(shape), 0.45)
            noise = 0.01 * rng.standard_normal(shape)
            calls.update(solve=0, apply=0)
            new, residuals = step(ops, spec, state, noise, prev_state=prev, step_index=4)
            assert (calls["solve"], calls["apply"]) == (1, 2)
            assert new.coeffs.shape == shape and residuals.shape == (B, 3)

    def test_forcing_staged_once_per_scheme(self, monkeypatch):
        from stochsem import timestepper
        staged, spatial = [], []
        real = timestepper.stage_forcing

        def counting(*args):
            staged.append(args)
            return real(*args)

        monkeypatch.setattr(timestepper, "stage_forcing", counting)
        spec = make_test1()
        stage = spec.forcing.stage
        monkeypatch.setattr(spec.forcing, "stage",
                            lambda x, y: spatial.append(None) or stage(x, y))
        mesh, basis = disc(1, 1, 6)
        ops = build_scheme(mesh, basis, spec, 0.05)
        first = run(spec, mesh, basis, 0.05, 1.0, ops=ops, record_reports=False)
        assert (len(staged), len(spatial)) == (1, 1)
        again = run(spec, mesh, basis, 0.05, 1.0, ops=ops, record_reports=False)
        assert (len(staged), len(spatial)) == (1, 1)
        assert np.array_equal(first.final.stacked(), again.final.stacked())
        run(spec, mesh, basis, 0.05, 1.0, record_reports=False)    # a new scheme
        assert (len(staged), len(spatial)) == (2, 2)


class TestNoiseLoad:
    """The noise enters a step as the load of its increment: on a pure-mass
    scheme one step from zero is -/+ the projected increment (the oracle)."""

    @pytest.mark.parametrize("convention,sign", [("paper", -1.0), ("increment", 1.0)])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_field"])
    def test_one_step_is_the_projected_increment(self, convention, sign, shared):
        mesh, basis = disc(2, 1, 6)
        spec = plain_spec()
        sampler = QWienerSampler(truncation=4, amplitude=0.3, seed=13, shared=shared)
        ops = build_scheme(mesh, basis, spec, 0.05, noise_convention=convention)
        traj = run(spec, mesh, basis, 0.05, 0.05, sampler=sampler, sample_id=3, ops=ops)
        for f, got in enumerate(traj.final.fields):
            want = sign * sample_increment(sampler, 3, 1, 0.05, mesh, basis,
                                           component=None if shared else f).coeffs
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_time_loop_projects_only_the_initial_data(self, monkeypatch):
        calls = []
        project_load = L2Projector.project_load

        def counting(self, load):
            calls.append(np.shape(load))
            return project_load(self, load)

        mesh, basis = disc(2, 1, 5)
        spec = make_test2("smooth")
        sampler = QWienerSampler(truncation=4, amplitude=0.2, seed=3)
        ops = build_scheme(mesh, basis, spec, 0.05)
        ws = NoiseWorkspace(sampler, mesh, basis, projector=ops.projector)
        monkeypatch.setattr(L2Projector, "project_load", counting)
        traj = run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=1, ops=ops,
                   noise_workspace=ws)
        assert len(traj.reports) == 4
        # u, v and w at t = 0, one load each; no increment is projected
        assert calls == [(mesh.ax.n_dofs, mesh.ay.n_dofs)] * 3


class TestEnergyNorm:
    def test_zero_state(self):
        mesh, basis = disc(1, 1, 4)
        spec = make_test1()
        ops = build_scheme(mesh, basis, spec, 0.1)
        state = StateVector(*(np.zeros(mesh.n_global) for _ in range(3)))
        assert energy_norm(ops, spec, state) == 0.0

    def test_quadratic_scaling(self, rng):
        mesh, basis = disc(2, 1, 5)
        spec = make_test1()
        ops = build_scheme(mesh, basis, spec, 0.1)
        state = StateVector(*(rng.standard_normal(mesh.n_global) for _ in range(3)))
        doubled = StateVector(2 * state.u, 2 * state.v, 2 * state.w)
        e1 = energy_norm(ops, spec, state)
        e2 = energy_norm(ops, spec, doubled)
        assert e2**2 == pytest.approx(4 * e1**2, rel=1e-12)

    @pytest.mark.parametrize("tau", [0.1, 0.01])
    def test_monotone_on_homogeneous_test1(self, tau):
        # no forcing, no noise, no nonlinearity; advection/diffusion/reaction
        # stay on
        spec = dataclasses.replace(make_test1(), forcing=None, wp=0.0)
        mesh, basis = disc(2, 2, 10)
        traj = run(spec, mesh, basis, tau, 50 * tau)
        energies = [r.energy for r in traj.reports]
        ops = build_scheme(mesh, basis, spec, tau)
        start = energy_norm(ops, spec,
                            StateVector(ops.projector.project(spec.init[0]),
                                        ops.projector.project(spec.init[1]),
                                        ops.projector.project(spec.init[2])))
        series = np.array([start] + energies)
        assert np.all(np.diff(series) <= 1e-14)
