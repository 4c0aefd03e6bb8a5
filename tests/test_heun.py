import numpy as np
import pytest

from heun_racah import (build_heun_params, build_W_bilinear, build_W_parametric,
                        canonicalize, h_coeffs)
from heun_racah.core import commutator, identity, residual_norm
from heun_racah.dynamical import RelationId, draw_rho, verify_relation
from heun_racah.errors import (CanonicalizationError, ParameterDomainError,
                               RelationViolation)
from heun_racah.heun import BilinearParams, h1_scalar, integer_p_bar, wa_chunk, wa_terms
from heun_racah.racah import DynContext, build_params, build_representation, op_A
from heun_racah.sampling import draw_complex, draw_racah_params, draw_until

from conftest import keeping


class TestHeunParams:
    def test_m_bar(self, hp0):
        assert hp0.m_bar == pytest.approx((3 - 2 + 1) / 4)

    def test_p_bar_arithmetic(self):
        # s1 = 0 makes the discriminant 1, so p_bar+ = 1/rho - (gamma+delta+2)/2
        rp = build_params(1, 5, 1, 2)
        hp = build_heun_params(2 / 7, 0, 3, rp)
        assert hp.p_bar_plus == pytest.approx(1)
        assert hp.p_bar_minus == pytest.approx(-2.5)
        assert integer_p_bar(hp) == 1
        hp = build_heun_params(2 / 5, 0, 3, rp)
        assert hp.p_bar_plus == pytest.approx(0)
        assert integer_p_bar(hp) == 0

    def test_no_integer_p_bar(self, hp0, p0):
        assert integer_p_bar(hp0) is None

    def test_s2_equals_rho_rejected(self, p0):
        with pytest.raises(ParameterDomainError):
            build_heun_params(2, 1, 2, p0)


class TestBuildW:
    def test_parametric_pin(self, hp0, ctx0):
        # -4 XY + X + 2Y + [X,Y] on the reference representation
        expected = np.array([[-89.8, 52.2], [60.8, -171.2]])
        np.testing.assert_allclose(build_W_parametric(hp0, ctx0), expected, atol=1e-12)

    def test_unit_s2_drops_Y(self, p0, rep0):
        for s2 in (1, -1):
            hp = build_heun_params(2, 0, s2, p0)
            ctx = DynContext(rep=rep0, rho=2)
            X, Y = rep0.X, rep0.Y
            expected = -4 * (X @ Y) + commutator(X, Y)
            np.testing.assert_allclose(build_W_parametric(hp, ctx), expected, atol=1e-12)

    def test_bilinear_identity(self, rep0):
        W = build_W_bilinear(BilinearParams(1, 0, 0, 0, 0), rep0)
        np.testing.assert_array_equal(W, identity(2))

    def test_bilinear_commutator(self, rep0):
        W = build_W_bilinear(BilinearParams(0, 0, 0, 1, -1), rep0)
        np.testing.assert_allclose(W, rep0.Z, atol=1e-13)

    def test_bilinear_matches_parametric(self, p0, rep0, hp0, ctx0):
        bp = BilinearParams(0, 1, 2, -3, -1)
        assert residual_norm(build_W_bilinear(bp, rep0),
                             build_W_parametric(hp0, ctx0)) <= 1e-13

    def test_trace_linearity(self, hp0, ctx0):
        W = build_W_parametric(hp0, ctx0)
        X, Y = ctx0.rep.X, ctx0.rep.Y
        rho, s1, s2 = hp0.rho, hp0.s1, hp0.s2
        expected = (-2 * rho / (rho - 1) * np.trace(X @ Y) + s1 * np.trace(X)
                    + (s2 ** 2 - 1) / (2 * rho * (rho - 1)) * np.trace(Y))
        assert np.trace(W) == pytest.approx(expected)

    def test_tridiagonal_in_Y_basis(self):
        rng = np.random.default_rng(31)
        for N in (3, 6):
            rp = draw_racah_params(rng, N)
            rep = build_representation(rp)
            rho = draw_rho(rng)
            s1 = draw_complex(rng)
            hp = draw_until(rng, draw_complex, lambda s2: build_heun_params(rho, s1, s2, rp))
            W = build_W_parametric(hp, DynContext(rep=rep, rho=rho))
            assert np.all(np.triu(W, 2) + np.tril(W, -2) == 0)


class TestCanonicalize:
    def test_rho_from_ratio(self, p0):
        hp, _, _ = canonicalize(BilinearParams(0, 0.3, 0.1, -3 * 0.7, 0.7), p0)
        assert hp.rho == pytest.approx(0.5)

    def test_branch_convention_on_unit_s2(self, p0):
        hp, scale, shift = canonicalize(BilinearParams(0, 0, 0, -3, -1), p0)
        assert hp.s1 == 0 and hp.s2 == 1 and shift == 0

    def test_roundtrip(self, p0, rep0):
        rng = np.random.default_rng(33)
        done = 0
        while done < 100:
            bp = BilinearParams(*(draw_complex(rng) for _ in range(5)))
            try:
                hp, scale, shift = canonicalize(bp, p0)
            except (CanonicalizationError, ParameterDomainError):
                continue
            ctx = DynContext(rep=rep0, rho=hp.rho)
            rebuilt = scale * build_W_parametric(hp, ctx) + shift * identity(2)
            assert residual_norm(build_W_bilinear(bp, rep0), rebuilt) <= 1e-12
            done += 1

    def test_degenerate_inputs(self, p0):
        with pytest.raises(CanonicalizationError):
            canonicalize(BilinearParams(0, 1, 1, 2, 0), p0)
        with pytest.raises(CanonicalizationError):
            canonicalize(BilinearParams(0, 1, 1, 2, 2), p0)

    def test_s2_landing_on_rho(self, p0):
        # rho = 2 from q = 3; r2 = (rho+1)/(2 rho) * scale forces s2 = rho
        with pytest.raises(ParameterDomainError):
            canonicalize(BilinearParams(0, 1, 0.75, -3, -1), p0)


class TestHCoeffs:
    def test_reference_values(self, hp0, ctx0):
        h1p, h1m, h2 = h_coeffs(3, hp0)
        assert h1p == pytest.approx(-11 / 6)
        assert h1m == pytest.approx(5 / 6)
        assert h2 == pytest.approx(9.0)

    def test_h1_numerator_root(self, p0):
        # (rho u - rho + s2)^2 = 1 with s1 = 0 kills h1
        rho, s2 = 2, 4
        hp = build_heun_params(rho, 0, s2, p0)
        u = (rho - s2 + 1) / rho
        assert abs(h1_scalar(u, hp)) <= 1e-14

    def test_poles(self, hp0, ctx0):
        for u in (0, 1, -1):
            with pytest.raises(ParameterDomainError):
                h_coeffs(u, hp0)


class TestVerifyWA:
    def test_reference(self, hp0, ctx0):
        assert max(wa_chunk([wa_terms(3, 5 + 1j, hp0, ctx0)], ctx0)[0]) <= 1e-10

    def test_same_u_gives_exact_zero(self, hp0, ctx0):
        assert wa_chunk([wa_terms(3, 3, hp0, ctx0)], ctx0)[0][1] == 0.0

    def test_h2_perturbation_breaks_it(self, hp0, ctx0):
        u = 3
        h1p, h1m, h2 = h_coeffs(u, hp0)
        R = (h1p * op_A(u, hp0.m_bar, ctx0) + h1m * op_A(-u, hp0.m_bar, ctx0)
             + (h2 + 1e-3) * identity(2))
        assert residual_norm(R, build_W_parametric(hp0, ctx0)) > 1e-10

    def test_violation_raised(self, hp0, ctx0, rep0):
        import dataclasses
        bad = dataclasses.replace(hp0, m_bar=hp0.m_bar + 1e-3)
        assert wa_chunk([wa_terms(3, 5 + 1j, bad, ctx0)], ctx0)[0][0] > 1e-10
        # W is built from XY and Z, the A expansion from {X, Y} and Z; they
        # agree only when Z = [X, Y], so the catalog sweep raises
        broken = dataclasses.replace(rep0, Z=rep0.Z + 1e-3 * identity(2))
        with pytest.raises(RelationViolation):
            verify_relation(RelationId.WA_IDENTITY, DynContext(broken, ctx0.rho),
                            samples=3, seed=0)

    def test_u_independence_sweep(self):
        rng = np.random.default_rng(35)
        for N in (2, 5, 8):
            rp = draw_racah_params(rng, N)
            rep = build_representation(rp)
            rho = draw_rho(rng)
            ctx = DynContext(rep=rep, rho=rho)
            s1 = draw_complex(rng)
            hp = draw_until(rng, draw_complex, lambda s2: build_heun_params(rho, s1, s2, rp))
            admissible = keeping(1e-2, lambda u: h_coeffs(u, hp))
            u1 = draw_until(rng, draw_complex, admissible)
            u2 = draw_until(rng, draw_complex, admissible)
            assert max(wa_chunk([wa_terms(u1, u2, hp, ctx)], ctx)[0]) <= 1e-10
