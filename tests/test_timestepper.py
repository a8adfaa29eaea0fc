import dataclasses
import functools
import gc
import pickle
import weakref

import numpy as np
import pytest

from stochsem import assembly, timestepper
from stochsem.assembly import L2Projector, Quadrature2D, assemble, evaluate_grid
from stochsem.basis import make_basis
from stochsem.cli import make_problem
from stochsem.config import parse_config
from stochsem.mesh import _Axis, build_mesh
from stochsem.model import ModelSpec, const_field, smooth_init
from stochsem.model import test1_spec as make_test1
from stochsem.model import test2_spec as make_test2
from stochsem.montecarlo import convergence_order, error_report, run_ensemble
from stochsem.stochastic import NoiseWorkspace, QWienerSampler, sample_increment
from stochsem.timestepper import (NONLINEARITY_TIMES, SOLVE_RTOL, KroneckerPair, SchemeError,
                                  SchurFactor, SolverFailure, StateBatch, _eigenvalues,
                                  _schur_form, _slot_fields, advance, build_scheme, energy_norm,
                                  field_map, initial_data, run, step, time_grid)

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


def dense(pair, f, side="left"):
    """The 2D matrix of field f's left operator c[f] M + A or right operator
    cr[f] M - A, M = kron(mx, my) and A = kron(dx, my) + kron(mx, dy)."""
    m = np.kron(pair.mx, pair.my)
    a = np.kron(pair.dx, pair.my) + np.kron(pair.mx, pair.dy)
    return pair.c[f] * m + a if side == "left" else pair.cr[f] * m - a


def with_zeta(spec, zeta):
    """spec with diffusion zeta if given: zeta = 1e-2 makes the eigenbases of
    Test 1's and Test 2's per-axis operators ill-conditioned (dtrsyl) on the
    meshes here."""
    return spec if zeta is None else dataclasses.replace(spec, zeta=zeta)


def forms_of(ops):
    """The per-axis forms that build_scheme factors ops's left operators on."""
    fx, fy = ops.projector.factors
    return ops.mesh.per_axis(_schur_form, (fx, ops.sides.dx), (fy, ops.sides.dy))


def kernel_factor(monkeypatch, ops, rtol):
    """A SchurFactor on ops's own forms and c, built as if the residual gate
    were rtol: 0 makes it take dtrsyl, inf the diagonalization."""
    with monkeypatch.context() as m:
        m.setattr(timestepper, "SOLVE_RTOL", rtol)
        return SchurFactor(forms_of(ops), ops.sides.c)


class TestBuildScheme:
    def test_all_zero_coefficients_give_mass(self):
        mesh, basis = disc(2, 1, 4)
        ops = build_scheme(mesh, basis, plain_spec(), tau=0.1)
        M = assemble(mesh, basis, 1.0, "mass").toarray()
        for f in range(3):
            assert np.max(np.abs(dense(ops.sides, f) - M)) <= 1e-15
            assert np.max(np.abs(dense(ops.sides, f, "right") - M)) <= 1e-15

    def test_constant_reaction_scales_mass(self):
        # r = 2 with no advection/diffusion: L_w = (1 + tau) * Mass
        mesh, basis = disc(2, 1, 4)
        tau = 0.2
        ops = build_scheme(mesh, basis, plain_spec(r=2.0), tau=tau)
        M = assemble(mesh, basis, 1.0, "mass").toarray()
        assert np.max(np.abs(dense(ops.sides, 2) - (1 + tau) * M)) <= 1e-12
        assert np.max(np.abs(dense(ops.sides, 2, "right") - (1 - tau) * M)) <= 1e-12
        for f in (0, 1):
            assert np.max(np.abs(dense(ops.sides, f) - M)) <= 1e-15

    def test_tau_linearity(self):
        mesh, basis = disc(1, 1, 6)
        spec = make_test1()
        tau = 0.1
        ops = build_scheme(mesh, basis, spec, tau)
        half = build_scheme(mesh, basis, spec, tau / 2)
        M = assemble(mesh, basis, 1.0, "mass").toarray()
        for f in range(3):
            L1, L2 = dense(ops.sides, f), dense(half.sides, f)
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
        new, residuals = step(ops, state, step_index=1)
        assert np.all(new.coeffs == 0)
        assert residuals.max() <= 1e-10
        assert energy_norm(ops, new.coeffs[0]) == 0.0

    def test_pure_mass_scheme_identity(self, rng):
        mesh, basis = disc(2, 1, 5)
        spec = plain_spec()
        ops = build_scheme(mesh, basis, spec, tau=0.3)
        state = StateBatch(rng.standard_normal(batch_shape(mesh)))
        new, _ = step(ops, state, step_index=1)
        for old_f, new_f in zip(state.coeffs[0], new.coeffs[0]):
            assert np.max(np.abs(new_f - old_f)) <= 1e-10

    @pytest.mark.parametrize("order,zeta,diag", [(6, None, True), (10, 1e-2, False)],
                             ids=["sweep", "schur"])
    def test_carried_right_hand_side_is_a_fresh_one(self, order, zeta, diag):
        # a state that step made carries R phi from its residual gate: a step
        # from it is bitwise the step from a fresh StateBatch of the same
        # coefficients, which applies R phi itself, on either kernel
        mesh, basis = disc(2, 2, order)
        ops = build_scheme(mesh, basis, with_zeta(make_test1(), zeta), 0.05)
        assert ops.factor.diag is diag
        rng = np.random.default_rng(3)
        shape = batch_shape(mesh, 3)
        state = StateBatch(0.1 * rng.standard_normal(shape), (4, 5, 6))
        noise = 0.01 * rng.standard_normal(shape)
        made, _ = step(ops, state, noise, step_index=1)
        fresh = StateBatch(made.coeffs.copy(), made.sample_ids)
        assert made.right is not None and fresh.right is None
        right = made.right.copy()
        (a, res_a), (b, res_b) = (step(ops, s, noise, prev_state=state, step_index=2)
                                  for s in (made, fresh))
        assert np.array_equal(a.coeffs, b.coeffs) and np.array_equal(res_a, res_b)
        assert np.array_equal(a.right, b.right)
        # step never writes into the array a state carries
        assert np.array_equal(made.right, right)

    def test_time_loop_first_apply_takes_one_sample(self, monkeypatch):
        # the time loop applies R once, to the one-sample stack of the
        # initial data, for every sample's first step; each step then makes
        # one apply of the whole batch
        mesh, basis = disc(2, 2, 6)
        ops = build_scheme(mesh, basis, make_test1(), 0.05)
        shapes, real = [], KroneckerPair.apply
        monkeypatch.setattr(KroneckerPair, "apply",
                            lambda self, X, rows: shapes.append(X.shape) or real(self, X, rows))
        advance(ops, initial_data(ops), time_grid(0.15, 0.05, (0.0,)), range(4))
        assert shapes == [batch_shape(mesh, 1)] + [batch_shape(mesh, 4)] * 3

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


class TestClock:
    """The step index is the only clock: step n samples the forcing at
    (n - 1/2) tau, and a run's final state is stamped with T."""

    @pytest.mark.parametrize("T", [0.3, 1.0])
    def test_final_time_is_T(self, T):
        # 0.1 added 3 or 10 times is not 0.3 or 1.0
        mesh, basis = disc(1, 1, 4)
        spec = make_test2("smooth")
        sampler = QWienerSampler(truncation=3, amplitude=0.1, seed=1)
        final = run(spec, mesh, basis, 0.1, T).final
        mean = run_ensemble(spec, mesh, basis, 0.1, T, sampler, M=2).mean
        assert final.t == mean.t == T

    def test_forcing_sampled_at_half_levels(self):
        seen = ([], [], [])

        def recorder(times):
            def f(x, y, t):
                times.append(t)
                return 0.0
            return f

        mesh, basis = disc(1, 1, 4)
        spec = dataclasses.replace(plain_spec(), forcing=tuple(map(recorder, seen)))
        run(spec, mesh, basis, 0.1, 1.0)
        want = [(k - 0.5) * 0.1 for k in range(1, 11)]
        assert all(times == want for times in seen)


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

    def test_time_grid(self):
        # every requested time sits on the step it names, also two on one step
        assert time_grid(0.2, 0.05, (0.1, 0.0, 0.1 + 1e-12)) == (
            4, {2: [0.1, 0.1 + 1e-12], 0: [0.0]})
        assert time_grid(0.0, 0.05, None) == (0, {})
        for t in (-0.1, -0.05, 0.25, 0.07):     # both ends of [0, T], and off the grid
            with pytest.raises(ValueError, match=rf"^snapshot time {t} is not a multiple "
                                                 rf"of tau=0.05 within \[0, T\]$"):
                time_grid(0.2, 0.05, (0.1, t))

    @pytest.mark.parametrize("tau,T,match", [
        (0.05, 0.23, "T=0.23 is not an integral multiple of tau=0.05"),
        (0.0, 1.0, "tau must be finite and positive, got 0.0"),
        (np.nan, 1.0, "tau must be finite and positive, got nan")],
        ids=["T", "zero_tau", "nan_tau"])
    def test_time_grid_checked_before_the_scheme(self, monkeypatch, tau, T, match):
        from stochsem import timestepper

        def forbidden(*args, **kwargs):
            raise AssertionError("scheme built before the time grid was checked")

        monkeypatch.setattr(timestepper, "build_scheme", forbidden)
        mesh, basis = disc(1, 1, 4)
        with pytest.raises(ValueError, match=match):
            run(make_test1(), mesh, basis, tau=tau, T=T)

    def test_table1_single_point(self):
        # deterministic test problem 1 at tau=1/64 lands within a factor of
        # 3 of the published 3.3204e-4 (summed-over-fields max error)
        mesh, basis = disc(2, 2, 10)
        spec = make_test1()
        traj = run(spec, mesh, basis, tau=1 / 64, T=1.0, record_reports=False)
        rep = error_report(traj.final, spec.exact, mesh, basis)
        assert rep.linf_sum <= 3 * 3.3204e-4
        assert rep.linf_sum >= 3.3204e-4 / 3

    def test_lagged_nonlinearity_degrades_toward_first_order(self):
        # noise-free Test 1 on 2x2/order 10, tau = 1/16..1/128 to T = 1: the
        # lagged nonlinearity's observed orders fall toward 1 (about 1.69,
        # 1.41, 1.25), the extrapolated one's hold 2 (about 2.14, 2.04, 2.03)
        mesh, basis = disc(2, 2, 10)
        spec = make_test1()
        taus = (1 / 16, 1 / 32, 1 / 64, 1 / 128)
        orders = {}
        for when in NONLINEARITY_TIMES:
            errs = [error_report(run(spec, mesh, basis, tau, 1.0, record_reports=False,
                                     ops=build_scheme(mesh, basis, spec, tau,
                                                      nonlinearity_time=when)).final,
                                 spec.exact, mesh, basis).linf_sum for tau in taus]
            orders[when] = convergence_order(errs)
        assert np.all(np.diff(orders["lagged"]) < 0) and orders["lagged"][-1] <= 1.4
        assert np.all(orders["extrapolated"] >= 1.9)

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

    def test_prebuilt_ops_must_match(self):
        # a scheme is bound to its spec, mesh, basis and tau: run rejects a
        # prebuilt one that was built for others, and the matching one gives
        # bitwise the run that builds its own
        mesh, basis = disc(2, 1, 5)
        spec = make_test1()
        ops = build_scheme(mesh, basis, spec, 0.05)
        other_mesh, other_basis = disc(2, 1, 5)
        for what, args in (("tau=0.05, not tau=0.1", (spec, mesh, basis, 0.1)),
                           ("another spec", (make_test1(), mesh, basis, 0.05)),
                           ("another mesh", (spec, other_mesh, basis, 0.05)),
                           ("another basis", (spec, mesh, other_basis, 0.05))):
            with pytest.raises(ValueError, match=f"ops was built for {what}"):
                run(*args, 0.2, ops=ops)
        sampler = QWienerSampler(truncation=4, amplitude=0.2, seed=3)
        with_ops = run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=2, ops=ops)
        without = run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=2)
        assert np.array_equal(with_ops.final.stacked(), without.final.stacked())

    def test_snapshots(self):
        mesh, basis = disc(1, 1, 4)
        spec = make_test2("smooth").with_wp(0.0)
        traj = run(spec, mesh, basis, 0.05, 0.2, snapshot_times=[0.0, 0.1, 0.2])
        assert set(traj.snapshots) == {0.0, 0.1, 0.2}
        # a snapshot is a (3, n) array, and the one at T is the final state
        assert np.array_equal(traj.snapshots[0.2], traj.final.stacked())
        # every requested time keeps its snapshot, also two on one step
        near = run(spec, mesh, basis, 0.05, 0.2, snapshot_times=[0.1, 0.1 + 1e-12])
        assert set(near.snapshots) == {0.1, 0.1 + 1e-12}
        assert np.array_equal(near.snapshots[0.1 + 1e-12], traj.snapshots[0.1])
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
        a, b = (run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=0,
                    ops=build_scheme(mesh, basis, spec, 0.05, noise_convention=c))
                for c in ("paper", "increment"))
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
        quiet = run(spec, mesh, basis, 0.1, 0.5)       # the default records none
        assert calls == [] and quiet.residuals.shape == (0, 3) and quiet.energies.shape == (0,)
        loud = run(spec, mesh, basis, 0.1, 0.5, record_reports=True)
        assert len(calls) == 5
        for fq, fl in zip(quiet.final.fields, loud.final.fields):
            assert np.array_equal(fq, fl)
        # a batch of B samples makes one call a step, on the whole batch
        ops = build_scheme(mesh, basis, spec, 0.1)
        calls.clear()
        advance(ops, initial_data(ops), time_grid(0.5, 0.1), range(4))
        assert calls == []
        _, _, residuals, energies = advance(ops, initial_data(ops), time_grid(0.5, 0.1),
                                            range(4), record_reports=True)
        assert [args[1].shape for args in calls] == [batch_shape(mesh, 4)] * 5
        assert residuals.shape == (4, 5, 3) and energies.shape == (4, 5)

    def test_step_reports_recorded(self):
        mesh, basis = disc(1, 1, 5)
        spec = make_test1()
        traj = run(spec, mesh, basis, 0.1, 0.5, record_reports=True)
        assert traj.residuals.shape == (5, 3) and traj.energies.shape == (5,)
        assert traj.residuals.max() <= 1e-10
        assert np.isfinite(traj.energies).all()


class TestPerAxisPath:
    def test_no_2d_operator_or_sparse_lu(self, monkeypatch):
        import scipy.sparse.linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("2D operator path used")

        monkeypatch.setattr(assembly, "assemble", forbidden)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", forbidden)
        mesh, basis = disc(2, 2, 6)
        spec = make_test1()
        sampler = QWienerSampler(truncation=4, amplitude=0.1, seed=5)
        ops = build_scheme(mesh, basis, spec, 0.05)
        traj = run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=1, ops=ops,
                   record_reports=True)
        assert traj.residuals.shape == (4, 3) and traj.energies.shape == (4,)
        assert traj.residuals.max() <= 1e-10
        assert np.isfinite(traj.energies).all()

    def test_singular_left_operator_raises(self):
        # 1 + (tau/2) r = 0 with no advection or diffusion: L_w is exactly 0
        mesh, basis = disc(1, 1, 4)
        with pytest.raises(SchemeError, match=r"tau=0.1, mesh 1x1 order 4"):
            build_scheme(mesh, basis, plain_spec(r=-20.0), tau=0.1)

    @pytest.mark.parametrize("order,rtol", [(4, SOLVE_RTOL), (17, 0.0)], ids=["sweep", "schur"])
    @pytest.mark.parametrize("r", [-2.0, -2.0 + 2.0**-52], ids=["exactly", "numerically"])
    def test_singular_left_operator_raises_on_both_paths(self, monkeypatch, order, rtol, r):
        # diagonal per-axis matrices, so that every Schur form is exact and
        # every eigenbasis the identity: with tau = 1, L_w's smallest
        # eigenvalue sum is 1 + r/2, 0 or 2^-53.  A gate of 0 at build time
        # makes the factor take dtrsyl
        assert 1.0 + 0.5 * r in (0.0, 2.0**-53)
        mesh, basis = disc(1, 1, order)
        eye = np.eye(mesh.ax.n_dofs)
        stiff = np.diag(np.linspace(0.0, 1e3, mesh.ax.n_dofs))
        monkeypatch.setattr(Quadrature2D, "axis_matrices",
                            lambda self: ((eye, stiff, 0.0 * eye),) * 2)
        monkeypatch.setattr(timestepper, "SOLVE_RTOL", rtol)
        with pytest.raises(SchemeError, match=f"field w is singular for tau=1.0, mesh 1x1 "
                                              f"order {order}"):
            build_scheme(mesh, basis, plain_spec(zeta=1.0, r=r), tau=1.0)

    @pytest.mark.parametrize("order", [4, 17], ids=["sweep", "schur"])
    def test_advection_only_singular_left_operator_raises(self, order):
        # zeta = 0 and 1 + (tau/2) r = 0: L_w is pure advection, whose
        # eigenvalues are imaginary pairs +-i w (and 0 for odd n1d), so its
        # Schur form is made of 2x2 blocks and the pairs sum to zero
        mesh, basis = disc(1, 1, order)
        ax = Quadrature2D(mesh, basis).axis_matrices()[0][2]
        t = _schur_form(L2Projector(mesh, basis).factors[0], ax)[0]
        assert np.count_nonzero(np.diag(t, -1)) == len(t) // 2
        with pytest.raises(SchemeError, match=f"field w is singular for tau=0.1, mesh 1x1 "
                                              f"order {order}"):
            build_scheme(mesh, basis, plain_spec(xi=1.5, r=-20.0), tau=0.1)

    @pytest.mark.parametrize("ulps", range(1, 7))
    def test_near_singular_sweep_raises_at_build(self, ulps):
        # advection-only L_w 1-6 ulps off c_w = 0 on a mesh of the
        # diagonalization: its smallest divisor c_w + lam_i + mu_j is within
        # kappa(Sx) kappa(Sy) eps of the largest (a solve would miss the gate
        # by many orders of magnitude), so the build refuses it
        r = -20.0
        for _ in range(ulps):
            r = np.nextafter(r, -np.inf)
        mesh, basis = disc(1, 1, 5)
        with pytest.raises(SchemeError, match=r"field w is singular for tau=0.1, mesh 1x1 "
                                              r"order 5 \(a divisor is \S+ against \S+, on "
                                              r"eigenbases of condition number"):
            build_scheme(mesh, basis, plain_spec(xi=1.5, r=r), tau=0.1)

    @pytest.mark.parametrize("order,tau,zeta,r", [(11, 1.0, 1e-6, -1.9),
                                                  (9, 0.1, 1e-4, -20.0)],
                             ids=["order11", "order9"])
    def test_ill_conditioned_sweep_passes_the_gate(self, order, tau, zeta, r):
        # ill-conditioned but not singular advection-dominated L_w on meshes
        # of the diagonalization: its divisors, c_w + lam_i + mu_j, solve
        # random right-hand sides within the gate
        mesh, basis = disc(1, 1, order)
        ops = build_scheme(mesh, basis, plain_spec(xi=1.5, zeta=zeta, r=r), tau)
        assert ops.factor.diag
        R = np.random.default_rng(11).standard_normal(batch_shape(mesh, 20))
        X = ops.factor.solve(R)[0]
        gap = ops.sides.apply(X)[0] - R
        residuals = np.linalg.norm(gap, axis=(2, 3)) / np.linalg.norm(R, axis=(2, 3))
        assert np.all(residuals <= SOLVE_RTOL)

    @pytest.mark.parametrize("nex,order,tau,xi,zeta,r,bound", [
        (1, 5, 0.1, 1.0, 0.01, 2.0, 1e-13), (2, 6, 0.1, 1.0, 0.01, 2.0, 1e-13),
        (2, 8, 0.1, 1.0, 1e-3, 2.0, 1e-13), (1, 11, 0.1, 1.0, 0.01, 2.0, 1e-13),
        # the ill-conditioned case above
        (1, 9, 0.1, 1.5, 1e-4, -20.0, 1e-11)],
        ids=["1x1-5", "2x2-6", "2x2-8", "1x1-11", "ill-1x1-9"])
    def test_sweep_agrees_with_dtrsyl(self, monkeypatch, nex, order, tau, xi, zeta, r, bound):
        # one mesh, both kernels: dtrsyl by a gate of 0 at build time; the
        # y axis has conjugate pairs, which the diagonalization keeps one of
        mesh, basis = disc(nex, nex, order)
        spec = plain_spec(xi=xi, zeta=zeta, r=r)
        diag = build_scheme(mesh, basis, spec, tau)
        schur = kernel_factor(monkeypatch, diag, 0.0)
        assert diag.factor.diag and not schur.diag
        assert np.count_nonzero(np.diag(schur.tb, -1)) > 0
        R = np.random.default_rng(order).standard_normal(batch_shape(mesh, 4))
        assert rel_gap(diag.factor.solve(R)[0], schur.solve(R)[0]) <= bound

    def test_singular_left_operator_builds_no_table(self, monkeypatch):
        # the singularity rule runs first: a singular field gets no divisors
        # and no eigenbasis
        def forbidden(form):
            raise AssertionError("eigenbasis built for a singular operator")

        monkeypatch.setattr(timestepper, "_eigenbasis", forbidden)
        mesh, basis = disc(1, 1, 4)
        with pytest.raises(SchemeError, match=r"field w is singular for tau=0.1"):
            build_scheme(mesh, basis, plain_spec(r=-20.0), tau=0.1)

    @pytest.mark.parametrize("case", ["advection", "diagonal"])
    def test_singularity_rule_is_dtrsyls(self, monkeypatch, case):
        # L_w near 1 + (tau/2) r = 0 on a factor that takes dtrsyl (a gate of 0
        # at build time): the rule finds it singular exactly when dtrsyl (the
        # oracle) perturbs on a zero right-hand side.  "advection" is the
        # operator above (2x2 blocks, every r here singular); "diagonal" has
        # exact 1x1 forms whose
        # threshold, eps * max|t| = 2^-51, falls inside the r range.  On 2x2
        # blocks dtrsyl tests the pivots of the blocks' systems, not their
        # eigenvalues, so on other data the two can part within a few ulps of
        # the threshold.
        from scipy.linalg import cho_factor
        from scipy.linalg.lapack import dtrsyl
        mesh, basis = disc(1, 1, 17)
        n = mesh.ax.n_dofs
        if case == "advection":
            tau, (mx, _, ax) = 0.1, Quadrature2D(mesh, basis).axis_matrices()[0]
            dx = 0.5 * tau * 1.5 * ax
        else:
            tau, mx, dx = 1.0, np.eye(n), 0.5 * np.diag(np.linspace(0.0, 4.0, n))
        fx = cho_factor(mx)
        form = _schur_form(fx, dx)
        t = form[0]
        verdicts = []
        monkeypatch.setattr(timestepper, "SOLVE_RTOL", 0.0)
        for k in range(-4, 5):
            r = -2.0 / tau
            for _ in range(abs(k)):
                r = np.nextafter(r, np.sign(k) * np.inf)
            cw = 1.0 + 0.5 * tau * r
            factor = SchurFactor((form, form), [1.0, 1.0, cw])
            assert not factor.diag and factor.singular[:2] == [None, None]
            info = dtrsyl(np.asfortranarray(cw * np.eye(n) + t), t, np.zeros((n, n)),
                          trana="N", tranb="T")[2]
            assert (factor.singular[2] is not None) == (info != 0), (k, cw, info)
            verdicts.append(info != 0)
        assert all(verdicts) if case == "advection" else len(set(verdicts)) == 2

    @pytest.mark.parametrize("order", [4, 5, 17])
    @pytest.mark.parametrize("zeta", [0.0, 1e-3])
    def test_eigenvalues_read_off_the_schur_form(self, order, zeta):
        # advection(-diffusion) forms, which have 2x2 blocks
        mesh, basis = disc(1, 1, order)
        (mx, kx, ax), _ = Quadrature2D(mesh, basis).axis_matrices()
        d = zeta * kx + ax
        t = _schur_form(L2Projector(mesh, basis).factors[0], d)[0]
        assert np.count_nonzero(np.diag(t, -1)) > 0
        got, want = np.sort_complex(_eigenvalues(t)), np.sort_complex(np.linalg.eigvals(t))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(t))

    def test_dtrsyl_failure_in_step_is_typed(self, monkeypatch):
        # zeta = 0.01 on 1x1/17: eigenbases of condition number 8.6e6
        mesh, basis = disc(1, 1, 17)
        spec = plain_spec(xi=1.0, zeta=0.01, r=2.0)
        ops = build_scheme(mesh, basis, spec, tau=0.1)
        assert not ops.factor.diag
        monkeypatch.setattr(timestepper, "dtrsyl",
                            lambda a, b, c, **kw: (0.5 * c, 0.5, 0))
        state = StateBatch(np.ones(batch_shape(mesh)))
        with pytest.raises(SolverFailure, match="field u at step 3: dtrsyl info 0, scale 0.5"):
            step(ops, state, step_index=3)

    def test_corrupted_sweep_solve_fails_the_gate(self, monkeypatch):
        mesh, basis = disc(1, 1, 4)
        spec = plain_spec(xi=1.0, zeta=0.01, r=2.0)
        ops = build_scheme(mesh, basis, spec, tau=0.1)
        assert ops.factor.diag
        solve = SchurFactor.solve

        def corrupted(self, R, rows):
            # a factor of 2 on every solve survives the one refinement
            X, scale, info = solve(self, R, rows)
            X[0, 1] *= 2.0
            return X, scale, info

        monkeypatch.setattr(SchurFactor, "solve", corrupted)
        state = StateBatch(np.ones(batch_shape(mesh)))
        with pytest.raises(SolverFailure, match=r"field v at step 3: relative residual \S+ "
                                                r"exceeds 1.0e-10"):
            step(ops, state, step_index=3)

    def test_advection_only_sweep_meets_the_gate(self, rng):
        # zeta = 0: the y axis is pure advection, whose eigenvalues are
        # imaginary pairs (and one zero for odd n1d), so tb is made of 2x2
        # blocks, and the diagonalization keeps one eigenvalue of each pair
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        mesh, basis = disc(2, 2, 7)
        ops = build_scheme(mesh, basis, plain_spec(xi=1.5, r=1.0), tau=0.2)
        assert ops.factor.diag
        tb = forms_of(ops)[1][0]
        assert np.count_nonzero(np.diag(tb, -1)) == len(tb) // 2
        R = rng.standard_normal((4, *batch_shape(mesh)[1:]))
        X, scale, info = ops.factor.solve(R)
        assert (scale == 1.0).all() and (info == 0).all()
        gap = np.linalg.norm(ops.sides.apply(X)[0] - R, axis=(2, 3))
        assert np.max(gap / np.linalg.norm(R, axis=(2, 3))) <= 1e-10
        for f in range(3):
            L = sp.csc_matrix(dense(ops.sides, f))
            for b in range(len(R)):
                want = spla.spsolve(L, R[b, f].ravel())
                assert np.linalg.norm(X[b, f].ravel() - want) <= 1e-10 * np.linalg.norm(want)


def relative_residuals(ops, X, R):
    """|L X - R| / |R| of each right-hand side of a stack."""
    return (np.linalg.norm(ops.sides.apply(X)[0] - R, axis=(-2, -1))
            / np.linalg.norm(R, axis=(-2, -1)))


class TestKernelRule:
    """The factor solves by fast diagonalization where the eigenbases are
    well conditioned, kappa(Sx) kappa(Sy) eps <= SOLVE_RTOL, and by dtrsyl
    elsewhere: the diagonalization's a-priori error grows with that product."""

    @pytest.mark.parametrize("spec,nex,order,tau", [
        (make_test2("smooth").with_wp(0.0), 2, 8, 0.01), (make_test1(), 2, 10, 1 / 32)],
        ids=["ensemble", "test1-2x2-10"])
    def test_well_conditioned_meshes_diagonalize(self, spec, nex, order, tau):
        mesh, basis = disc(nex, nex, order)
        assert build_scheme(mesh, basis, spec, tau).factor.diag

    # Test 1 on 8x8/order 10 (kappa product 2.8e14): a diagonalization reads
    # residuals of 3e-6 to 1e-5 on random right-hand sides; zeta = 1e-2 on
    # 2x2/order 10 (1.1e9): up to 4e-10 to 1.1e-9, against 1e-12 for dtrsyl
    @pytest.mark.parametrize("nex,zeta,floor", [(8, None, 1e3 * SOLVE_RTOL), (2, 1e-2, 0.0)],
                             ids=["8x8-10", "zeta-1e-2"])
    def test_ill_conditioned_meshes_take_dtrsyl(self, monkeypatch, nex, zeta, floor):
        mesh, basis = disc(nex, nex, 10)
        ops = build_scheme(mesh, basis, with_zeta(make_test1(), zeta), 1 / 32)
        forced = kernel_factor(monkeypatch, ops, np.inf)
        assert not ops.factor.diag and forced.diag
        R = np.random.default_rng(5).standard_normal(batch_shape(mesh, 4))
        assert relative_residuals(ops, ops.factor.solve(R)[0], R).max() <= 1e-11
        missed = relative_residuals(ops, forced.solve(R)[0], R)
        assert missed.max() > SOLVE_RTOL and missed.min() > floor

    @pytest.mark.parametrize("nex,order", [(1, 5), (1, 11), (2, 8), (2, 10), (4, 10)])
    def test_diagonalization_agrees_with_dtrsyl(self, monkeypatch, nex, order):
        # Test 1's operator (xi = 1, r = 2) over diffusions and steps: each
        # scheme takes the kernel of the rule, and on every diagonalized one
        # the two kernels agree on random right-hand sides and the
        # diagonalization meets the gate (at most 5.1e-12 measured)
        mesh, basis = disc(nex, nex, order)
        eps, diagonalized = np.finfo(float).eps, 0
        for zeta in (1e-2, 1e-3, 1e-4, 1e-6):
            for tau in (1e-3, 1e-2, 0.1, 1.0):
                ops = build_scheme(mesh, basis, plain_spec(xi=1.0, zeta=zeta, r=2.0), tau)
                kappa = np.prod([form[-1][-1] for form in forms_of(ops)])
                assert ops.factor.diag is bool(kappa * eps <= SOLVE_RTOL)
                if not ops.factor.diag:
                    continue
                diagonalized += 1
                R = np.random.default_rng(order).standard_normal(batch_shape(mesh, 4))
                X = ops.factor.solve(R)[0]
                assert rel_gap(X, kernel_factor(monkeypatch, ops, 0.0).solve(R)[0]) <= 1e-13
                assert relative_residuals(ops, X, R).max() <= SOLVE_RTOL
        assert diagonalized >= 8


class TestRefinement:
    """A sample that misses the residual gate has its solve refined once,
    x <- x - L^-1 (L x - rhs), before the gate fails it."""

    # ill-conditioned advection-dominated L_w (order, tau, r; xi = 1.5,
    # zeta = 1e-6), stepped from its smooth initial data with a rough noise
    # load: the first solve of w misses the gate (2.1e-10, 2.5e-10), one
    # refinement meets it.  The smooth data alone meet it at once.
    @pytest.mark.parametrize("order,tau,r,seed", [(11, 1.0, -2.0, 1), (7, 0.1, -20.0, 0)],
                             ids=["order11", "order7"])
    def test_ill_conditioned_step_is_refined(self, monkeypatch, order, tau, r, seed):
        mesh, basis = disc(1, 1, order)
        spec = plain_spec(xi=1.5, zeta=1e-6, r=r, init=(smooth_init,) * 3)
        ops = build_scheme(mesh, basis, spec, tau)
        assert ops.factor.diag
        n = mesh.ax.n_dofs
        twins = StateBatch(initial_data(ops)[None, ::2], field_map=(0, 0, 1))
        noise = np.random.default_rng(seed).standard_normal((1, 2, n, n))
        shapes, solve = [], SchurFactor.solve
        monkeypatch.setattr(SchurFactor, "solve",
                            lambda self, R, rows: shapes.append(R.shape) or solve(self, R, rows))
        _, residuals = step(ops, twins, noise, step_index=1)
        # the step's solve and its refinement's, of the twin stack (u = v, w)
        assert shapes == [(1, 2, n, n)] * 2
        assert residuals.max() <= SOLVE_RTOL

    def test_refined_sample_is_its_one_sample_step(self, monkeypatch):
        # of three samples only the middle one, whose w takes a rough noise
        # load, misses the gate (w = 0 and no noise make w's right-hand side
        # and solve exactly 0); it is refined alone, in w only, and every
        # sample is bitwise its own one-sample step
        mesh, basis = disc(1, 1, 11)
        ops = build_scheme(mesh, basis, plain_spec(xi=1.5, zeta=1e-6, r=-2.0), 1.0)
        n = mesh.ax.n_dofs
        x = ops.projector.project(smooth_init).reshape(n, n)
        quiet = np.stack([x, x, 0.0 * x])
        coeffs = np.stack([0.5 * quiet, np.stack([x, x, x]), quiet])
        noise = np.zeros_like(coeffs)
        noise[1, 2] = np.random.default_rng(1).standard_normal((n, n))
        shapes, solve = [], SchurFactor.solve
        monkeypatch.setattr(SchurFactor, "solve",
                            lambda self, R, rows: shapes.append(R.shape) or solve(self, R, rows))
        batch, residuals = step(ops, StateBatch(coeffs, (4, 5, 6)), noise, step_index=1)
        assert shapes == [(3, 3, n, n), (1, 3, n, n)]
        assert residuals.max() <= SOLVE_RTOL
        # u and v met the gate: the refinement leaves them as they were
        assert np.array_equal(batch.coeffs[1, :2], batch.coeffs[2, :2])
        for b in range(3):
            one, res = step(ops, StateBatch(coeffs[b:b + 1], (4 + b,)), noise[b:b + 1],
                            step_index=1)
            assert np.array_equal(batch.coeffs[b], one.coeffs[0])
            assert np.array_equal(batch.right[b], one.right[0])
            assert np.array_equal(residuals[b], res[0])


class TestFieldMap:
    """The time loop steps twin fields once (timestepper.field_map)."""

    @staticmethod
    def sampler(amplitude=0.1, shared=True):
        return QWienerSampler(truncation=4, amplitude=amplitude, seed=5, shared=shared)

    def test_rule(self):
        mesh, basis = disc(1, 1, 5)

        def rule(spec, sampler=None):
            return field_map(build_scheme(mesh, basis, spec, 0.05), sampler)

        test2 = make_test2()
        assert rule(test2) == rule(test2, self.sampler()) == (0, 0, 1)
        assert rule(make_test2("delta").with_wp(0.0), self.sampler()) == (0, 0, 1)
        assert rule(test2, self.sampler(0.0, shared=False)) == (0, 0, 1)
        assert rule(test2, self.sampler(shared=False)) == (0, 1, 2)
        assert rule(make_test1()) == (0, 1, 2)
        custom = make_problem(parse_config("[problem]\nkind = custom\nr = 0\n"))
        assert rule(custom) == rule(custom, self.sampler()) == (0, 0, 0)
        assert rule(dataclasses.replace(test2, r=0.0)) == (0, 0, 0)
        # each condition, broken alone, parts the twins
        other = (smooth_init, functools.partial(smooth_init), smooth_init)   # v: another object
        assert rule(dataclasses.replace(test2, init=other)) == (0, 1, 2)
        assert rule(dataclasses.replace(test2, e=(1.0, 0.5, 1.0))) == (0, 1, 2)
        assert rule(dataclasses.replace(test2, forcing=make_test1().forcing)) == (0, 1, 2)

    def test_a_dropped_scheme_is_freed_at_once(self):
        # stepping twin fields leaves no reference cycle: a scheme that
        # stepped them goes with its last reference, not at the cycle collector
        mesh, basis = disc(2, 2, 6)
        spec = make_test2()
        ops = build_scheme(mesh, basis, spec, 0.05)
        assert ops.factor.diag
        run(spec, mesh, basis, 0.05, 0.1, ops=ops)
        refs = [weakref.ref(x) for x in (ops, ops.factor, ops.sides)]
        gc.disable()
        try:
            del ops
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_slots_take_one_slice_of_the_fields(self):
        # slot 0 holds u, so the slots' first fields are one slice of (u, v, w)
        for fmap, fields in (((0, 1, 2), (0, 1, 2)), ((0, 0, 1), (0, 2)), ((0, 1, 0), (0, 1)),
                             ((0, 1, 1), (0, 1)), ((0, 0, 0), (0,))):
            assert tuple(range(3)[_slot_fields(fmap)]) == fields
        mesh, basis = disc(1, 1, 4)
        ops = build_scheme(mesh, basis, make_test2(), 0.05)
        state = StateBatch(np.zeros(batch_shape(mesh))[:, :2], field_map=(1, 0, 0))
        with pytest.raises(ValueError, match=r"field map \(1, 0, 0\): slot 0 must hold u"):
            step(ops, state, step_index=1)

    @pytest.mark.parametrize("order,zeta,diag", [(6, None, True), (8, 1e-2, False)],
                             ids=["sweep", "dtrsyl"])
    def test_stepping_leaves_the_scheme_unchanged(self, order, zeta, diag):
        # the twin stack (u = v, w) reads the scheme's per-field arrays
        # through a slice: a run adds nothing to the scheme, which a pooled
        # run_ensemble pickles for every chunk
        mesh, basis = disc(2, 2, order)
        spec = with_zeta(make_test2(), zeta)
        ops = build_scheme(mesh, basis, spec, 0.05)
        assert ops.factor.diag is diag
        before = pickle.dumps(ops)
        traj = run(spec, mesh, basis, 0.05, 0.1, self.sampler(), ops=ops)
        assert np.array_equal(traj.final.u, traj.final.v)
        assert pickle.dumps(ops) == before

    @pytest.mark.parametrize("shared,k", [(True, 2), (False, 3)], ids=["shared", "per-field"])
    def test_solve_sees_the_distinct_fields(self, monkeypatch, shared, k):
        mesh, basis = disc(2, 1, 5)
        spec = make_test2()
        slots, solve = [], SchurFactor.solve
        monkeypatch.setattr(SchurFactor, "solve",
                            lambda self, R, rows: slots.append(R.shape[1]) or solve(self, R, rows))
        traj = run(spec, mesh, basis, 0.05, 0.2, self.sampler(shared=shared), sample_id=2)
        assert slots == [k] * 4
        assert np.array_equal(traj.final.u, traj.final.v) is shared


class TestFieldStackedScheme:
    def test_two_schur_forms_one_solve_one_apply(self, monkeypatch):
        # a 1x2 mesh has two axes: one y-axis Schur form and one x-axis form
        # for all three fields (zeta = 1e-2: dtrsyl)
        self.assert_one_solve_one_apply(monkeypatch, disc(1, 2, 17), 1e-2, False, 2)

    def test_square_mesh_one_schur_form_one_solve_one_apply(self, monkeypatch):
        # a square mesh shares its axis: the y-axis Schur form serves x too
        self.assert_one_solve_one_apply(monkeypatch, disc(1, 1, 17), 1e-2, False, 1)

    def test_one_schur_form_one_sweep_one_apply(self, monkeypatch):
        # a square mesh's one Schur form serves the diagonalization too
        self.assert_one_solve_one_apply(monkeypatch, disc(2, 2, 6), None, True, 1)

    @staticmethod
    def assert_one_solve_one_apply(monkeypatch, mesh_basis, zeta, diag, schurs):
        # a step of any batch size makes one solve and one fused apply of
        # both sides (residual gate and the next step's right-hand side) from
        # a state that step made; a state it did not make adds one apply for
        # its own right-hand side
        calls = {"dgees": 0, "solve": 0, "apply": 0}

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(timestepper, "dgees", counting("dgees", timestepper.dgees))
        mesh, basis = mesh_basis
        ops = build_scheme(mesh, basis, with_zeta(make_test1(), zeta), 0.05)
        assert ops.factor.diag is diag and calls["dgees"] == schurs
        monkeypatch.setattr(SchurFactor, "solve", counting("solve", SchurFactor.solve))
        # every product of either side runs in KroneckerPair.terms
        monkeypatch.setattr(KroneckerPair, "terms", counting("apply", KroneckerPair.terms))
        rng = np.random.default_rng(7)
        for B in (1, 2, 7):
            shape = batch_shape(mesh, B)
            state = StateBatch(0.1 * rng.standard_normal(shape), tuple(range(B)))
            prev = StateBatch(0.1 * rng.standard_normal(shape))
            noise = 0.01 * rng.standard_normal(shape)
            calls.update(solve=0, apply=0)
            new, residuals = step(ops, state, noise, prev_state=prev, step_index=4)
            assert (calls["solve"], calls["apply"]) == (1, 2)
            assert new.coeffs.shape == shape and residuals.shape == (B, 3)
            calls.update(solve=0, apply=0)
            newer, residuals = step(ops, new, noise, prev_state=state, step_index=5)
            assert (calls["solve"], calls["apply"]) == (1, 1)
            assert newer.coeffs.shape == shape and residuals.shape == (B, 3)

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


def separate_axes(mesh):
    """mesh, given a y-axis object of its own, as a mesh whose axes differ
    has: everything per axis is then built twice."""
    x0, x1, y0, y1 = mesh.domain
    mesh.ay = _Axis(y0, y1, mesh.ney, mesh.order)
    return mesh


def rel_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestSharedAxis:
    # a square mesh builds its scheme on one axis; the same scheme with a
    # separately built y-axis is the oracle
    @pytest.mark.parametrize("domain,ney,forms", [(UNIT, 1, 1), (UNIT, 2, 2),
                                                  ((0.0, 1.0, 0.0, 2.0), 1, 2)])
    def test_build_scheme_factors_each_axis_once(self, monkeypatch, domain, ney, forms):
        calls = {"dgees": 0, "cho_factor": 0, "_eigenbasis": 0}

        def counting(name, module):
            real = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapped)

        counting("dgees", timestepper)
        counting("cho_factor", assembly)
        counting("_eigenbasis", timestepper)
        ops = build_scheme(build_mesh(domain, 1, ney, 17), make_basis(17), make_test1(), 0.05)
        assert ops.factor.diag
        assert calls == {"dgees": forms, "cho_factor": forms, "_eigenbasis": forms}

    @pytest.mark.parametrize("nex,order,tau,gate", [
        (1, 6, 0.05, True), (2, 8, 0.01, True), (2, 10, 1 / 32, True), (1, 17, 0.05, True),
        (2, 20, 1e-2, True),
        # random right-hand sides at 2x2/order 20, tau = 1e-3 read 1.1e-10 to
        # 1.6e-10 on either path: the residual gate's known thin margin there
        # (real right-hand sides: test_real_right_hand_sides_agree)
        (2, 20, 1e-3, False)])
    @pytest.mark.parametrize("problem", ["test1", "test2"])
    def test_random_stacks_agree(self, nex, order, tau, gate, problem):
        spec = make_test1() if problem == "test1" else make_test2("smooth")
        basis = make_basis(order)
        shared = build_scheme(build_mesh(UNIT, nex, nex, order), basis, spec, tau)
        split = build_scheme(separate_axes(build_mesh(UNIT, nex, nex, order)), basis, spec, tau)
        assert shared.mesh.ay is shared.mesh.ax and split.mesh.ay is not split.mesh.ax
        assert shared.factor.diag is split.factor.diag
        R = np.random.default_rng(order).standard_normal(batch_shape(shared.mesh, 4))
        sols = []
        for ops in (shared, split):
            sol, scale, info = ops.factor.solve(R)
            assert np.all(scale == 1.0) and np.all(info == 0)
            residual = (np.linalg.norm(ops.sides.apply(sol)[0] - R, axis=(2, 3))
                        / np.linalg.norm(R, axis=(2, 3)))
            assert not gate or residual.max() <= SOLVE_RTOL
            sols.append(sol)
        assert rel_gap(*sols) <= 1e-12

    @pytest.mark.parametrize("nex,order,tau", [(2, 20, 1e-3), (2, 10, 1 / 32), (2, 8, 0.01)])
    def test_real_right_hand_sides_agree(self, nex, order, tau):
        # noisy nonlinear Test 1 and Test 2 paths of 10 steps meet the gate
        # (step raises above it) and agree on both paths
        basis = make_basis(order)
        sampler = QWienerSampler(truncation=6, amplitude=0.1, seed=11)
        for spec in (make_test1(), make_test2("smooth")):
            finals = []
            for mesh in (build_mesh(UNIT, nex, nex, order),
                         separate_axes(build_mesh(UNIT, nex, nex, order))):
                traj = run(spec, mesh, basis, tau, 10 * tau, sampler=sampler, sample_id=3,
                           record_reports=True)
                assert traj.residuals.max() <= SOLVE_RTOL
                finals.append(traj.final.stacked())
            assert rel_gap(*finals) <= 1e-12


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
                   noise_workspace=ws, record_reports=True)
        assert traj.residuals.shape == (4, 3) and traj.energies.shape == (4,)
        # u, v and w at t = 0, one load each; no increment is projected
        assert calls == [(mesh.ax.n_dofs, mesh.ay.n_dofs)] * 3


class TestWorkspaceCheck:
    """A noise workspace must serve the run's very mesh and basis and the
    sampler's truncation; another raises a ValueError naming what differs,
    before any step."""

    @staticmethod
    def setup():
        mesh, basis = disc(2, 2, 6)
        return (make_test2("smooth").with_wp(0.0), mesh, basis,
                QWienerSampler(truncation=4, amplitude=0.1, seed=0))

    @staticmethod
    def other(what, mesh, basis, sampler):
        if what == "mesh":      # the same dofs on another domain
            return NoiseWorkspace(sampler, build_mesh((0.0, 2.0, 0.0, 2.0), 2, 2, 6), basis)
        if what == "basis":
            return NoiseWorkspace(sampler, mesh, make_basis(basis.order))
        return NoiseWorkspace(dataclasses.replace(sampler, truncation=3), mesh, basis)

    @pytest.mark.parametrize("what", ["mesh", "basis", "truncation"])
    def test_another_is_rejected_before_any_step(self, monkeypatch, what):
        from stochsem import timestepper
        spec, mesh, basis, sampler = self.setup()
        ws = self.other(what, mesh, basis, sampler)

        def forbidden(*args, **kwargs):
            raise AssertionError("stepped with a mismatched workspace")

        monkeypatch.setattr(timestepper, "step", forbidden)
        with pytest.raises(ValueError, match=f"^noise workspace was built for another {what}$"):
            run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=1, noise_workspace=ws)

    def test_another_seed_and_amplitude_are_accepted(self):
        # the mode loads depend on the truncation alone
        spec, mesh, basis, sampler = self.setup()
        ws = NoiseWorkspace(dataclasses.replace(sampler, seed=9, amplitude=0.5), mesh, basis)
        got = run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=1, noise_workspace=ws)
        want = run(spec, mesh, basis, 0.05, 0.2, sampler=sampler, sample_id=1)
        assert np.array_equal(got.final.stacked(), want.final.stacked())


class TestEnergyNorm:
    def test_zero_state(self):
        mesh, basis = disc(1, 1, 4)
        spec = make_test1()
        ops = build_scheme(mesh, basis, spec, 0.1)
        assert energy_norm(ops, np.zeros(batch_shape(mesh)[1:])) == 0.0

    def test_quadratic_scaling(self, rng):
        mesh, basis = disc(2, 1, 5)
        spec = make_test1()
        ops = build_scheme(mesh, basis, spec, 0.1)
        state = rng.standard_normal(batch_shape(mesh)[1:])
        e1 = energy_norm(ops, state)
        e2 = energy_norm(ops, 2 * state)
        assert e2**2 == pytest.approx(4 * e1**2, rel=1e-12)

    @pytest.mark.parametrize("tau", [0.1, 0.01])
    def test_monotone_on_homogeneous_test1(self, tau):
        # no forcing, no noise, no nonlinearity; advection/diffusion/reaction
        # stay on
        spec = dataclasses.replace(make_test1(), forcing=None, wp=0.0)
        mesh, basis = disc(2, 2, 10)
        traj = run(spec, mesh, basis, tau, 50 * tau, record_reports=True)
        ops = build_scheme(mesh, basis, spec, tau)
        series = np.concatenate([[energy_norm(ops, initial_data(ops))], traj.energies])
        assert np.all(np.diff(series) <= 1e-14)
