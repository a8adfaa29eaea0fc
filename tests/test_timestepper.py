import dataclasses

import numpy as np
import pytest

from stochsem.assembly import StateVector, evaluate_grid
from stochsem.basis import make_basis
from stochsem.mesh import build_mesh
from stochsem.model import ModelSpec, const_field
from stochsem.model import test1_spec as make_test1
from stochsem.model import test2_spec as make_test2
from stochsem.montecarlo import error_report
from stochsem.stochastic import QWienerSampler
from stochsem.timestepper import (build_scheme, energy_norm, run, step)

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


class TestBuildScheme:
    def test_all_zero_coefficients_give_mass(self):
        mesh, basis = disc(2, 1, 4)
        ops = build_scheme(mesh, basis, plain_spec(), tau=0.1)
        M = ops.mass.toarray()
        for name in "uvw":
            assert np.max(np.abs(ops.left[name].toarray() - M)) <= 1e-15
            assert np.max(np.abs(ops.right[name].toarray() - M)) <= 1e-15

    def test_constant_reaction_scales_mass(self):
        # r = 2 with no advection/diffusion: L_w = (1 + tau) * Mass
        mesh, basis = disc(2, 1, 4)
        tau = 0.2
        ops = build_scheme(mesh, basis, plain_spec(r=2.0), tau=tau)
        M = ops.mass.toarray()
        assert np.max(np.abs(ops.left["w"].toarray() - (1 + tau) * M)) <= 1e-12
        assert np.max(np.abs(ops.right["w"].toarray() - (1 - tau) * M)) <= 1e-12
        assert np.max(np.abs(ops.left["u"].toarray() - M)) <= 1e-15

    def test_tau_linearity(self):
        mesh, basis = disc(1, 1, 6)
        spec = make_test1()
        tau = 0.1
        L1 = build_scheme(mesh, basis, spec, tau).left["u"].toarray()
        L2 = build_scheme(mesh, basis, spec, tau / 2).left["u"].toarray()
        M = build_scheme(mesh, basis, spec, tau).mass.toarray()
        assert np.max(np.abs((L1 - M) - 2 * (L2 - M))) <= 1e-12

    def test_validation(self):
        mesh, basis = disc()
        with pytest.raises(ValueError):
            build_scheme(mesh, basis, plain_spec(), tau=0.0)
        with pytest.raises(ValueError, match="nonlinearity_time"):
            build_scheme(mesh, basis, plain_spec(), 0.1, nonlinearity_time="midpoint")
        with pytest.raises(ValueError, match="convention"):
            build_scheme(mesh, basis, plain_spec(), 0.1, noise_convention="both")


class TestStep:
    def test_zero_state_fixed_point(self):
        mesh, basis = disc(2, 2, 4)
        spec = plain_spec(xi=1.0, zeta=0.01, r=2.0)
        ops = build_scheme(mesh, basis, spec, tau=0.05)
        state = StateVector(*(np.zeros(mesh.n_global) for _ in range(3)))
        new, report = step(ops, spec, state)
        assert np.all(new.u == 0) and np.all(new.v == 0) and np.all(new.w == 0)
        assert max(report.residuals) <= 1e-10
        assert report.energy == 0.0

    def test_pure_mass_scheme_identity(self, rng):
        mesh, basis = disc(2, 1, 5)
        spec = plain_spec()
        ops = build_scheme(mesh, basis, spec, tau=0.3)
        state = StateVector(*(rng.standard_normal(mesh.n_global) for _ in range(3)))
        new, _ = step(ops, spec, state)
        for old_f, new_f in zip(state.fields, new.fields):
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


class TestEnergyNorm:
    def test_zero_state(self):
        mesh, basis = disc(1, 1, 4)
        spec = make_test1()
        ops = build_scheme(mesh, basis, spec, 0.1)
        state = StateVector(*(np.zeros(mesh.n_global) for _ in range(3)))
        assert energy_norm(ops, spec, state, 0.1) == 0.0

    def test_quadratic_scaling(self, rng):
        mesh, basis = disc(2, 1, 5)
        spec = make_test1()
        ops = build_scheme(mesh, basis, spec, 0.1)
        state = StateVector(*(rng.standard_normal(mesh.n_global) for _ in range(3)))
        doubled = StateVector(2 * state.u, 2 * state.v, 2 * state.w)
        e1 = energy_norm(ops, spec, state, 0.1)
        e2 = energy_norm(ops, spec, doubled, 0.1)
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
                                        ops.projector.project(spec.init[2])), tau)
        series = np.array([start] + energies)
        assert np.all(np.diff(series) <= 1e-14)
