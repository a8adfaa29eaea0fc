import copy

import numpy as np
import pytest
import sympy as sp

from stochsem.assembly import Quadrature2D
from stochsem.basis import make_basis
from stochsem.mesh import build_mesh
from stochsem.model import (POLE, ModelSpec, SingularNonlinearity, const_field, nonlinear_f,
                            stage_forcing, TEST1_DIFFUSIVITY)
from stochsem.model import test1_spec as make_test1
from stochsem.model import test2_spec as make_test2
from stochsem.basis import gauss_rule


def saturating_spec(k1=1.0, k2=1.0):
    zero = const_field(0.0)
    return ModelSpec(xi=0.0, zeta=1.0, r=0.0, wp=1.0,
                     e=(1.0, 1.0, 1.0), kappa=(k1, k2),
                     nonlinearity="saturating_sum", init=(zero, zero, zero))


class TestNonlinearity:
    def test_saturating_sum_examples(self):
        spec = saturating_spec()
        assert nonlinear_f(spec, 0.0, 0.0) == 0.0
        assert nonlinear_f(spec, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_product_example(self):
        spec = make_test1()
        assert nonlinear_f(spec, 1.0, 2.0) == pytest.approx(0.25, abs=1e-15)

    def test_pole_raises(self):
        spec = saturating_spec()
        with pytest.raises(ValueError, match="singular"):
            nonlinear_f(spec, -1.0, 0.0)
        with pytest.raises(ValueError, match="singular"):
            nonlinear_f(make_test1(), -1.0, 1.0)

    @pytest.mark.parametrize("spec", [saturating_spec(), make_test1()],
                             ids=["saturating_sum", "test1_product"])
    def test_pole_located_in_its_sample(self, spec):
        # a stack of 3 samples with a pole only in sample 2: the error names
        # the first pole point in C order, whose first index is the sample
        u, v = np.zeros((3, 2, 2)), np.zeros((3, 2, 2))
        u[2, 1, 0] = u[2, 1, 1] = -1.0
        with pytest.raises(SingularNonlinearity) as info:
            nonlinear_f(spec, u, v)
        assert str(info.value) == POLE.format("")
        assert info.value.index[0] == 2 and tuple(info.value.index) == (2, 1, 0)

    def test_saturating_monotone(self):
        # nondecreasing in each argument separately for nonnegative values
        spec = saturating_spec(0.7, 1.3)
        grid = np.linspace(0.0, 5.0, 30)
        for v in (0.0, 0.5, 2.0):
            vals = nonlinear_f(spec, grid, np.full_like(grid, v))
            assert np.all(np.diff(vals) >= 0)
        for u in (0.0, 0.5, 2.0):
            vals = nonlinear_f(spec, np.full_like(grid, u), grid)
            assert np.all(np.diff(vals) >= 0)

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValueError, match="nonlinearity"):
            saturating_spec().__class__(**{**saturating_spec().__dict__,
                                           "nonlinearity": "cubic"})

    def test_nonpositive_kappa_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            saturating_spec(k1=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_kappa_rejected(self, bad):
        for kappa in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="kappa constants must be finite"):
                saturating_spec(*kappa)


def _sympy_forcings(prefactor=1.0):
    """Independent symbolic derivation of the manufactured forcings:
    substitute the exact triple into the left-hand sides of the equations."""
    x, y, t = sp.symbols("x y t")
    rho = sp.sin(sp.pi * x) * sp.sin(sp.pi * y)
    u = sp.exp(-5 * t) * rho
    v = sp.exp(-2 * t) * rho
    w = sp.exp(-3 * t) * rho
    D = sp.Rational(1, 1000)
    wp = sp.Rational(6, 10) * prefactor
    nl = wp * u * v / ((1 + u) * (v + 2))

    def lhs(phi, reaction=0):
        return (sp.diff(phi, t) + sp.diff(phi, x) + sp.diff(phi, y)
                - D * (sp.diff(phi, x, 2) + sp.diff(phi, y, 2))
                + nl + reaction)

    exprs = (lhs(u), lhs(v), lhs(w, reaction=2 * w))
    return [sp.lambdify((x, y, t), e, "numpy") for e in exprs]


class TestTestProblem1:
    def test_exact_center(self):
        spec = make_test1()
        assert spec.exact[0](0.5, 0.5, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_exact_ratio(self, rng):
        spec = make_test1()
        x, y = rng.uniform(0.1, 0.9, (2, 20))
        t = rng.uniform(0.0, 1.0, 20)
        u = spec.exact[0](x, y, t)
        v = spec.exact[1](x, y, t)
        assert np.allclose(v / u, np.exp(3 * t), rtol=1e-12)

    def test_forcing_matches_symbolic_oracle(self, rng):
        # the transcription gate: implemented forcings equal the closed forms
        # obtained by substituting the exact triple into the equations
        spec = make_test1()
        oracles = _sympy_forcings()
        x, y = rng.uniform(0.02, 0.98, (2, 100))
        t = rng.uniform(0.0, 1.0, 100)
        for impl, oracle in zip(spec.forcing, oracles):
            assert np.max(np.abs(impl(x, y, t) - oracle(x, y, t))) <= 1e-8

    def test_forcing_center_value(self):
        spec = make_test1()
        f0 = _sympy_forcings()[0](0.5, 0.5, 0.0)
        assert spec.forcing[0](0.5, 0.5, 0.0) == pytest.approx(f0, abs=1e-12)

    def test_forcing_bounded(self, rng):
        spec = make_test1()
        x, y = rng.uniform(0, 1, (2, 500))
        t = rng.uniform(0, 1, 500)
        for f in spec.forcing:
            assert np.max(np.abs(f(x, y, t))) < 10.0

    def test_exact_gradient_consistent(self, rng):
        spec = make_test1()
        x, y = rng.uniform(0.05, 0.95, (2, 12))
        t = rng.uniform(0, 1, 12)
        eps = 1e-6
        for idx in range(3):
            gx, gy = spec.exact_grad[idx]
            fd_x = (spec.exact[idx](x + eps, y, t) - spec.exact[idx](x - eps, y, t)) / (2 * eps)
            fd_y = (spec.exact[idx](x, y + eps, t) - spec.exact[idx](x, y - eps, t)) / (2 * eps)
            assert np.allclose(gx(x, y, t), fd_x, atol=1e-8)
            assert np.allclose(gy(x, y, t), fd_y, atol=1e-8)

    def test_coefficients(self, rng):
        spec = make_test1()
        assert spec.xi == 1.0
        assert spec.zeta == TEST1_DIFFUSIVITY
        assert spec.r == 2.0
        assert spec.wp == pytest.approx(0.6)
        assert spec.zeta > 0   # ellipticity

    def test_prefactor_scales_wp(self):
        assert make_test1(prefactor=2.0).wp == pytest.approx(1.2)

    def test_with_wp_disables(self):
        assert make_test1().with_wp(0.0).wp == 0.0


def _field_forcing(prefactor, decay, reaction=0.0):
    """One Test 1 forcing as its own function of (x, y, t), recomputing the
    spatial factors at every call: the reference for the staged forcing,
    with the same operations in the same order."""
    D = TEST1_DIFFUSIVITY
    wp = 0.6 * prefactor
    pi = np.pi

    def f(x, y, t):
        sx, sy = np.sin(pi * x), np.sin(pi * y)
        rho = sx * sy
        cxy = pi * (np.cos(pi * x) * sy + sx * np.cos(pi * y))
        u, v = np.exp(-5.0 * t) * rho, np.exp(-2.0 * t) * rho
        nl = wp * u * v / ((1.0 + u) * (v + 2.0))
        return np.exp(-decay * t) * ((2.0 * D * pi**2 - decay + reaction) * rho + cxy) + nl

    return f


class TestStagedForcing:
    @pytest.mark.parametrize("prefactor", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("shape", [(2, 2, 10), (3, 1, 5)], ids=["2x2o10", "3x1o5"])
    def test_staged_equals_pointwise_samples(self, prefactor, shape):
        spec = make_test1(prefactor)
        quad = Quadrature2D(build_mesh((0.0, 1.0, 0.0, 1.0), *shape), make_basis(shape[2]))
        staged = stage_forcing(spec.forcing, *quad.grid)
        refs = [_field_forcing(prefactor, *rate) for rate in ((5.0,), (2.0,), (3.0, 2.0))]
        for t in (0.0, 1 / 64, 0.37 + 1 / 1024, 1.0):
            F = staged(t)
            assert F.shape == (3, len(quad.x), len(quad.y))
            for i in range(3):
                assert np.array_equal(F[i], quad.sample(spec.forcing[i], t))
                assert np.array_equal(F[i], quad.sample(refs[i], t))

    def test_copies_sample_alike(self):
        spec = make_test1()
        x, y = np.array([0.3, 0.7]), np.array([0.4, 0.1])
        for copy_ in (copy.copy, copy.deepcopy):
            twin = copy_(spec.forcing)
            for f, g in zip(spec.forcing, twin):
                assert np.array_equal(f(x, y, 0.25), g(x, y, 0.25))

    def test_plain_triple_sampled_field_by_field(self):
        spec = make_test1()
        quad = Quadrature2D(build_mesh((0.0, 1.0, 0.0, 1.0), 2, 1, 6), make_basis(6))
        plain = (spec.forcing[0], lambda x, y, t: 2.0 + t, spec.forcing[2])
        F = stage_forcing(plain, *quad.grid)(0.25)
        for i in range(3):
            assert np.array_equal(F[i], quad.sample(plain[i], 0.25))


class TestTestProblem2:
    def test_smooth_init_values(self):
        spec = make_test2("smooth")
        assert spec.init[0](0.5, 0.5) == pytest.approx(0.0625, abs=1e-15)
        for x, y in [(0.0, 0.3), (1.0, 0.7), (0.2, 0.0), (0.9, 1.0)]:
            assert spec.init[0](x, y) == 0.0

    def test_coefficients(self, rng):
        spec = make_test2("smooth")
        assert spec.xi == 1.0
        assert spec.zeta == 1e-4
        assert spec.r == 2.0
        assert spec.forcing is None

    def test_delta_unit_mass(self):
        # 2D quadrature oracle for the Gaussian surrogate
        spec = make_test2("delta", delta_center=(0.5, 0.5), delta_width=0.05)
        nodes, weights = gauss_rule(60)
        xs = (nodes + 1) / 2
        ws = weights / 2
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        mass = np.einsum("q,r,qr->", ws, ws, spec.init[0](X, Y))
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_delta_center_outside_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            make_test2("delta", delta_center=(1.5, 0.5))

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError, match="width"):
            make_test2("delta", delta_width=0.0)
        with pytest.raises(ValueError, match="delta_width must be finite"):
            make_test2("delta", delta_width=float("inf"))

    def test_unknown_init_kind(self):
        with pytest.raises(ValueError, match="init_kind"):
            make_test2("ramp")

    def test_delta_relocation_logged(self, caplog):
        import logging
        with caplog.at_level(logging.INFO, logger="stochsem.model"):
            make_test2("delta")
        assert any("Gaussian bump" in r.message for r in caplog.records)
