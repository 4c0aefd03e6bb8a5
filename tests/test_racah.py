import dataclasses

import numpy as np
import pytest

from heun_racah import build_params, build_representation
from heun_racah.core import anticommutator
from heun_racah.errors import ParameterDomainError
from heun_racah.racah import Representation, defining_residual, weight_B, weight_D
from heun_racah.sampling import draw_racah_params

from conftest import X0, Y0, Z0


class TestBuildParams:
    def test_reference_set(self, p0):
        assert p0.alpha == -2
        assert p0.b == 43
        assert p0.d1 == pytest.approx(-231 / 8)
        assert p0.d2 == pytest.approx(-231 / 8)

    def test_second_set(self):
        p = build_params(2, 4, 1, 2)
        assert p.alpha == -3
        assert p.b == 41
        assert p.d1 == pytest.approx(-243 / 8)
        assert p.d2 == pytest.approx(77 / 8)

    def test_vanishing_denominator_is_named(self):
        # gamma + delta = -1 kills 2x+gamma+delta+1 at x=0
        with pytest.raises(ParameterDomainError, match="x=0"):
            build_params(1, 3.7, 1, -2)

    @pytest.mark.parametrize("key", ["beta", "gamma", "delta"])
    @pytest.mark.parametrize("value", [1e300, 1e160, 1e110])
    def test_overflowing_constants_are_a_domain_error(self, key, value):
        # 1e300 ** 2 raises OverflowError; at 1e160 and 1e110 a product or
        # a cube reaches inf without raising
        args = {"beta": 5, "gamma": 1, "delta": 2, key: value}
        with pytest.raises(ParameterDomainError, match="not finite"):
            build_params(1, **args)

    def test_beta_bound(self):
        # |beta| up to BETA_MAX builds, on either axis; beyond it, and before
        # anything overflows, the bound is named
        for beta in (1e3, -1e3, 1e3j, 600 + 800j):
            build_params(2, beta, 1.3, 0.8)
        for beta in (1000.001, 1e3 + 1j, 1e4, 1e50):
            with pytest.raises(ParameterDomainError, match=r"exceeds 1000: .*R2"):
                build_params(2, beta, 1.3, 0.8)

    def test_size_cap(self):
        with pytest.raises(ParameterDomainError):
            build_params(64, 5, 1, 2)
        build_params(63, 5, 1, 2)  # largest supported size


class TestBuildRepresentation:
    def test_reference_matrices(self, rep0):
        np.testing.assert_allclose(rep0.X, X0, atol=1e-12)
        np.testing.assert_allclose(rep0.Y, Y0, atol=1e-12)
        np.testing.assert_allclose(rep0.Z, Z0, atol=1e-12)

    def test_truncation_weights(self):
        # x + alpha + 1 = x - N vanishes identically at x = N, and D carries
        # the explicit factor x, so both are exact zeros
        rng = np.random.default_rng(11)
        for N in (1, 2, 5):
            p = draw_racah_params(rng, N)
            assert weight_B(N, p) == 0
            assert weight_D(0, p) == 0

    def test_exactly_tridiagonal(self):
        rng = np.random.default_rng(12)
        for N in range(2, 9):
            rep = build_representation(draw_racah_params(rng, N))
            off = np.triu(rep.X, 2) + np.tril(rep.X, -2)
            assert np.all(off == 0)

    def test_y_is_diagonal(self, rep0):
        assert np.all(rep0.Y == np.diag(np.diag(rep0.Y)))


class TestDerivedConstants:
    def test_bit_identical_to_fresh_computation(self, rep0):
        Y = rep0.Y.copy()
        Y[0, 0] += 1e-3
        perturbed = Representation(params=rep0.params, X=rep0.X, Y=Y, Z=rep0.Z)
        wide = build_representation(draw_racah_params(np.random.default_rng(14), 12))
        for rep in (rep0, perturbed, wide):
            assert rep.XY.tobytes() == anticommutator(rep.X, rep.Y).tobytes()
            assert rep.I.tobytes() == np.eye(rep.dim, dtype=complex).tobytes()
        assert not np.array_equal(perturbed.XY, rep0.XY)

    def test_read_only(self, rep0):
        with pytest.raises(ValueError):
            rep0.XY[0, 0] = 1.0
        with pytest.raises(ValueError):
            rep0.I[0, 0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep0.XY = rep0.X


RELATIONS = ("R1", "R2", "R3")


class TestDefiningRelations:
    def test_reference_set(self, rep0):
        assert max(defining_residual(rep0, r) for r in RELATIONS) <= 1e-12

    def test_perturbation_is_caught(self, rep0):
        Y = rep0.Y.copy()
        Y[0, 0] += 1e-3
        broken = Representation(params=rep0.params, X=rep0.X, Y=Y,
                                Z=rep0.Z)
        assert defining_residual(broken, "R1") > 1e-10

    def test_random_sweep(self):
        # smaller cousin of the acceptance sweep
        rng = np.random.default_rng(13)
        for N in (1, 3, 6, 8):
            for _ in range(5):
                rep = build_representation(draw_racah_params(rng, N))
                assert max(defining_residual(rep, r) for r in RELATIONS) <= 1e-10

    def test_perturbed_constant_is_caught(self, rep0):
        bad = dataclasses.replace(rep0.params, b=rep0.params.b + 1e-3)
        broken = Representation(params=bad, X=rep0.X, Y=rep0.Y, Z=rep0.Z)
        assert defining_residual(broken, "R2") > 1e-10
        assert defining_residual(broken, "R3") > 1e-10
