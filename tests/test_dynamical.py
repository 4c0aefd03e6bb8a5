import dataclasses

import numpy as np
import pytest

from heun_racah import (coeff_f0, coeff_f1, coeff_g0, coeff_g1, coeff_k1,
                        coeff_k2, op_A, op_B, op_C, verify_relation)
from heun_racah.core import pole_margin, residual_norm, vector_residual
from heun_racah.dynamical import RelationId, draw_rho
from heun_racah.errors import ParameterDomainError, RelationViolation
from heun_racah.racah import DynContext, Representation, build_params, build_representation
from heun_racah.sampling import REJECT_MARGIN, draw_complex, draw_racah_params, draw_until
from heun_racah.serialize import dump_json

import reference_catalog
from conftest import keeping


class TestCoefficients:
    def test_f0_half_integer_m(self, p0):
        # 4m^2 - 1 = 0 leaves only -d2
        assert coeff_f0(2.31 + 0.7j, 0.5, p0) == pytest.approx(231 / 8)

    def test_f0_values(self, p0):
        assert coeff_f0(1, 1, p0) == pytest.approx(-27 / 8)
        assert coeff_f0(0, 0, p0) == pytest.approx(39.75)

    def test_f1(self):
        assert coeff_f1(2 * 0.73, 0.73) == 0
        assert coeff_f1(1, 1) == pytest.approx(1.5)
        assert coeff_f1(-1, 1) == coeff_f1(1, 1)

    def test_g0_pole(self, ctx0):
        with pytest.raises(ParameterDomainError):
            coeff_g0(1, 0.3, ctx0.rep.params, ctx0.rho)

    def test_g0_equal_d_constants(self, p0, ctx0):
        # d1 = d2 for the reference set, so only the polynomial part remains
        u, m = 2.2 - 0.4j, 0.9 + 0.1j
        rho = ctx0.rho
        expected = rho * coeff_f0(u, m, p0) + (2 * m * rho - 1) \
            * (4 * m - u + 1) * (2 * p0.b + 1 - u * u) / 8
        assert coeff_g0(u, m, ctx0.rep.params, ctx0.rho) == pytest.approx(expected)

    def test_g1_roots(self):
        m, rho = 0.8, 1.7
        assert coeff_g1(2 * m, m, rho) == 0
        assert abs(coeff_g1(2 * m - 2 / rho, m, rho)) <= 1e-15

    def test_k1(self):
        assert coeff_k1(5, 1) == pytest.approx(1 / 3)
        assert coeff_k1(1.5 + 2, 1.5) == 0  # numerator root at u = v + 2
        with pytest.raises(ParameterDomainError):
            coeff_k1(2.0, -2.0)

    def test_k1_large_u_limit(self):
        assert abs(coeff_k1(1e6, 1.7) - 1) <= 1e-5

    def test_k2(self):
        assert coeff_k2(3.3, 1, 0.4, 1.9) == 0
        for bad in ((2, 0, 0.4), (2, 2, 0.4), (2, 1.5, 1 / (2 * 1.9))):
            with pytest.raises(ParameterDomainError):
                coeff_k2(bad[0], bad[1], bad[2], 1.9)


class TestOperators:
    def test_B_even_in_u_exactly(self, ctx0):
        u, m = 1.37 - 0.62j, 0.85 + 0.3j
        np.testing.assert_array_equal(op_B(u, m, ctx0), op_B(-u, m, ctx0))

    def test_A_not_even_in_u(self, ctx0):
        assert residual_norm(op_A(3, 1, ctx0), op_A(-3, 1, ctx0)) > 1e-3

    def test_A_reference_pin(self, ctx0):
        # direct evaluation: g0(3,1)=57.75, g1(3,1)=-2, g1(-1,1)=-6, den=3
        expected = np.array([[125.6, -50.4], [-57.6, 188.4]]) / 3
        np.testing.assert_allclose(op_A(3, 1, ctx0), expected, atol=1e-12)

    def test_B_reference_pin(self, ctx0):
        expected = np.array([[64.8, -43.2], [-12.8, 115.2]])
        np.testing.assert_allclose(op_B(1, 1, ctx0), expected, atol=1e-12)

    def test_A_pole(self, ctx0):
        with pytest.raises(ParameterDomainError):
            op_A(2.0, 1 / (2 * ctx0.rho), ctx0)

    def test_C_fixed_point(self, ctx0):
        m = 1 / (2 * ctx0.rho)
        np.testing.assert_array_equal(op_C(1.3, m, ctx0), op_B(1.3, m, ctx0))

    def test_C_is_reflected_B(self, ctx0):
        np.testing.assert_array_equal(op_C(1, 1, ctx0),
                                      op_B(1, -1 + 1 / ctx0.rho, ctx0))

    def test_vacuum_triangularity(self, p0, ctx0):
        from heun_racah import vacuum, vacuum_coeffs
        e0 = vacuum(p0.N)
        u, m = 4.0, 1.0
        vc = vacuum_coeffs(u, m, p0, ctx0.rho)
        lhs = op_A(u, m, ctx0) @ e0
        rhs = vc.xi * e0 + vc.zeta * (op_B(u, m, ctx0) @ e0)
        assert vector_residual(lhs, rhs) <= 1e-11


class TestStacks:
    """A list of (u_k, m_k) pairs builds a stack whose slices are the scalar calls, bit for bit."""

    @pytest.mark.parametrize("N", [0, 1, 4, 12])
    def test_slices_equal_scalar_calls(self, N):
        rng = np.random.default_rng(200 + N)
        ctx = DynContext(rep=build_representation(draw_racah_params(rng, N)),
                         rho=draw_rho(rng))
        for op in (op_A, op_B, op_C):
            for k in (0, 1, 2, 3, 7, 13):
                us, ms = draw_until(
                    rng, lambda r: ([draw_complex(r) for _ in range(k)],
                                    [draw_complex(r) for _ in range(k)]),
                    keeping(REJECT_MARGIN, lambda t: [op(u, m, ctx) for u, m in zip(*t)]))
                stack = op(us, ms, ctx)
                assert stack.shape == (k, N + 1, N + 1)
                for i in range(k):
                    assert np.array_equal(stack[i], op(us[i], ms[i], ctx))

    def test_pole_in_a_stack_raises_the_scalar_error(self, ctx0):
        # the second m sits 1e-4 from 2 m rho = 1: inside the sampling margin
        us, ms = [1.3, 2.1 + 0.4j, 0.7j], [0.9, 1 / (2 * ctx0.rho) + 1e-4, 1.4]
        with pole_margin(REJECT_MARGIN):
            with pytest.raises(ParameterDomainError, match="op_A pole") as scalar:
                op_A(us[1], ms[1], ctx0)
            with pytest.raises(ParameterDomainError, match="op_A pole") as stacked:
                op_A(us, ms, ctx0)
        assert str(stacked.value) == str(scalar.value)
        assert op_A(us, ms, ctx0).shape == (3, 2, 2)

    def test_unequal_lengths_are_rejected(self, ctx0):
        with pytest.raises(ValueError):
            op_B([1.0, 2.0], [0.5], ctx0)


class TestVerifyRelation:
    def test_bb_exchange(self, ctx0):
        report = verify_relation(RelationId.BB_EXCHANGE, ctx0, samples=50, seed=1)
        assert report.max_residual <= 1e-11

    def test_ab_exchange(self, ctx0):
        report = verify_relation(RelationId.AB_EXCHANGE, ctx0, samples=50, seed=2)
        assert report.max_residual <= 1e-10

    def test_ca_exchange(self, ctx0):
        report = verify_relation(RelationId.CA_EXCHANGE, ctx0, samples=50, seed=3)
        assert report.max_residual <= 1e-11

    def test_abv_reports_the_bethe_vector_convention(self, ctx0):
        from heun_racah.bethe import abv_chunk, abv_terms
        report = verify_relation(RelationId.ABV_ACTION, ctx0, samples=20, seed=4)
        assert report.max_residual <= 1e-9
        w = report.worst_tuple
        assert report.max_residual == abv_chunk([abv_terms(w["u"], w["m"], w["roots"], ctx0)],
                                                ctx0)[0]
        assert "notes" not in report.to_json_dict()

    def test_r2_perturbed_constant(self, rep0):
        bad = dataclasses.replace(rep0.params, b=rep0.params.b + 1e-3)
        broken = Representation(params=bad, X=rep0.X, Y=rep0.Y, Z=rep0.Z)
        ctx = DynContext(rep=broken, rho=2)
        with pytest.raises(RelationViolation):
            verify_relation(RelationId.R2, ctx, samples=1, seed=0)

    def test_nan_tol_is_rejected(self, rep0):
        # R1 on a Z perturbed by 1e-3 has a residual of 1.1e-4, which no
        # comparison with a NaN tol would flag
        broken = Representation(params=rep0.params, X=rep0.X, Y=rep0.Y, Z=rep0.Z + 1e-3)
        ctx = DynContext(rep=broken, rho=2)
        with pytest.raises(RelationViolation):
            verify_relation(RelationId.R1, ctx)
        for tol in (float("nan"), float("inf"), -1e-12):
            with pytest.raises(ValueError, match="tol"):
                verify_relation(RelationId.R1, ctx, tol=tol)

    @pytest.mark.parametrize("relation", [RelationId.R1, RelationId.BB_EXCHANGE])
    def test_sample_count_below_one_is_rejected(self, ctx0, relation):
        for samples in (0, -3):
            with pytest.raises(ValueError, match="samples"):
                verify_relation(relation, ctx0, samples=samples)

    def test_defining_implies_exchange(self):
        # forward direction of the equivalence: whenever the defining
        # relations hold, the exchange relations hold too
        rng = np.random.default_rng(21)
        for N in (1, 2, 4, 8):
            rep = build_representation(draw_racah_params(rng, N))
            ctx = DynContext(rep=rep, rho=draw_rho(rng))
            from heun_racah.racah import defining_residual
            assert max(defining_residual(rep, r) for r in ("R1", "R2", "R3")) <= 1e-10
            for rel in (RelationId.BB_EXCHANGE, RelationId.AB_EXCHANGE):
                report = verify_relation(rel, ctx, samples=10, seed=N)
                assert report.max_residual <= 1e-10

    def test_seeded_determinism(self, ctx0):
        a = verify_relation(RelationId.AB_EXCHANGE, ctx0, samples=5, seed=7)
        b = verify_relation(RelationId.AB_EXCHANGE, ctx0, samples=5, seed=7)
        assert dump_json(a.to_json_dict()) == dump_json(b.to_json_dict())
        assert a.max_residual == b.max_residual

    def test_report_shape(self, ctx0):
        report = verify_relation(RelationId.BB_EXCHANGE, ctx0, samples=3, seed=9)
        out = report.to_json_dict()
        assert out["relation"] == "BB_EXCHANGE"
        assert out["samples"] == 3 and out["seed"] == 9
        assert set(out["worst_tuple"]) == {"u", "v", "m"}
        assert report.nonfinite == 0 and not report.undecided

    def test_non_finite_samples_are_counted(self, ctx0, monkeypatch):
        from heun_racah import dynamical
        nan = float("nan")

        def sweep(residuals):
            draws = iter(residuals)
            # a one-stage sampler: each drawn row is its residual
            monkeypatch.setitem(dynamical.SAMPLERS, RelationId.BB_EXCHANGE,
                                dynamical.Sampler(lambda rng, ctx: (next(draws), {"u": 1.0})))
            return verify_relation(RelationId.BB_EXCHANGE, ctx0, samples=len(residuals))

        # a NaN residual is never the worst, but it is counted
        report = sweep([1e-14, nan, 2e-14, nan])
        assert report.max_residual == 2e-14 and report.nonfinite == 2
        assert report.to_json_dict()["nonfinite"] == 2 and not report.undecided
        report = sweep([nan, nan, nan])
        assert report.max_residual == 0.0 and report.worst_tuple is None
        assert report.nonfinite == 3 and report.undecided
        with pytest.raises(RelationViolation):  # inf is the worst residual
            sweep([1e-14, float("inf")])

    def test_non_finite_defining_residual_is_undecided(self, ctx0, monkeypatch):
        from heun_racah import dynamical
        real = dynamical.defining_residual
        monkeypatch.setattr(dynamical, "defining_residual",
                            lambda rep, rel: float("nan") if rel == "R2" else real(rep, rel))
        # R1-R3 make one evaluation, whatever the sample count
        r1, r2 = (verify_relation(rel, ctx0, samples=50) for rel in (RelationId.R1, RelationId.R2))
        assert r2.nonfinite == 1 and r2.evaluations == 1 and r2.undecided
        assert r2.to_json_dict()["nonfinite"] == 1
        assert not r1.undecided and "nonfinite" not in r1.to_json_dict()


class TestSampling:
    @pytest.mark.parametrize("annulus", [(), (1.5, 3.5)])
    def test_draws_repeat_the_uniform_formula(self, annulus):
        # draw_complex takes rng.uniform's arithmetic on rng.random(), so
        # every seeded draw of earlier versions is unchanged
        def uniform_formula(rng, rmin=0.5, rmax=5.0):
            r = rng.uniform(rmin, rmax)
            theta = rng.uniform(0.0, 2.0 * np.pi)
            return complex(r * np.cos(theta), r * np.sin(theta))

        new, old = np.random.default_rng(5), np.random.default_rng(5)
        assert all(draw_complex(new, *annulus) == uniform_formula(old, *annulus)
                   for _ in range(100_000))

    def test_exhausted_rejection_is_a_domain_error(self, monkeypatch):
        from heun_racah import sampling
        from heun_racah.errors import HeunRacahError
        from heun_racah.core import guard
        from heun_racah.sampling import draw_complex, draw_until
        rng = np.random.default_rng(0)
        monkeypatch.setattr(sampling, "MAX_TRIES", 5)
        with pytest.raises(ParameterDomainError, match="5 tries") as exc:
            draw_until(rng, draw_complex, lambda value: guard(0.0, "always a pole"))
        assert isinstance(exc.value, HeunRacahError)


class TestSweepEvaluations:
    def test_psi_sweep_rejects_a_root_beside_plus_or_minus_one(self, monkeypatch):
        # psi_summed evaluates the vacuum weight at every root, which has
        # its pole at x = 1; the sweep's evaluation must reject x = +-(1 + 5e-4)
        from heun_racah import dynamical, sampling
        from heun_racah.heun import build_heun_params
        rp = build_params(3, 2.2 + 0.4j, 1.3, 0.8)
        ctx = DynContext(rep=build_representation(rp), rho=1.7)
        calls = []

        def recording(rng, draw, evaluate):
            calls.append(evaluate)
            return sampling.draw_until(rng, draw, evaluate)

        monkeypatch.setattr(dynamical, "draw_until", recording)
        for seed in range(20):
            calls.clear()
            _, tup = dynamical._sample_psi(np.random.default_rng(seed), ctx)
            if tup["roots"]:
                break
        evaluate = calls[0]  # the sweep's own; the Heun draw's comes after
        hp = build_heun_params(ctx.rho, tup["s1"], tup["s2"], rp)
        u, roots = tup["u"], tup["roots"]
        monkeypatch.setattr(sampling, "MAX_TRIES", 1)
        assert sampling.draw_until(None, lambda r: (hp, (u, roots)), evaluate)[1] == tup
        for x in (1 + 5e-4, -1 - 5e-4):
            with pytest.raises(ParameterDomainError, match="1 tries"):
                sampling.draw_until(None, lambda r: (hp, (u, [x] + roots[1:])), evaluate)


def sweep_outcome(verify, relation, ctx, samples, seed):
    """The JSON report of a sweep, or the RelationViolation it raised."""
    try:
        return dump_json(verify(relation, ctx, samples=samples, seed=seed).to_json_dict())
    except RelationViolation as exc:
        return f"RelationViolation: {exc}"


class TestChunkedSweep:
    """verify_relation's two stages, chunked on banded operator stacks, give
    the reports of the per-sample sweep on dense builds byte for byte, for
    every relation, however the samples fall into chunks."""

    @pytest.mark.parametrize("N", [0, 1, 2, 5, 12])
    def test_reports_equal_the_per_sample_sweep(self, N, monkeypatch):
        from heun_racah import dynamical
        rng = np.random.default_rng(300 + N)
        criterion_8 = DynContext(rep=build_representation(build_params(N, 2.2 + 0.4j, 1.3, 0.8)),
                                 rho=1.7)
        drawn = DynContext(rep=build_representation(draw_racah_params(rng, N)), rho=draw_rho(rng))
        dim = N + 1
        # the default bound, one sample per chunk, and chunks of about 3 AB_EXCHANGE samples
        for chunk_bytes in (dynamical.CHUNK_BYTES, 1, 16 * dim * dim * 30):
            monkeypatch.setattr(dynamical, "CHUNK_BYTES", chunk_bytes)
            for ctx in (criterion_8, drawn):
                for relation in RelationId:
                    for seed, samples in ((0, 50), (1, 7), (2, 1)):
                        assert sweep_outcome(verify_relation, relation, ctx, samples, seed) \
                            == sweep_outcome(reference_catalog.verify_relation, relation, ctx,
                                             samples, seed)


class TestSweep:
    """dynamical.sweep also runs check-maba's draws: maba_sampler at a fixed hp."""

    @pytest.mark.parametrize("N", [5, 12, 26])
    def test_maba_sampler_repeats_the_per_draw_loop(self, N):
        # one draw_until and one maba_chunk of one maba_terms row per draw, as
        # check-maba made them; at N = 12 the 20 draws fall into 3 chunks
        from heun_racah import bethe, dynamical
        from heun_racah.heun import build_heun_params
        rp = build_params(N, 2.2 + 0.4j, 1.3, 0.8)
        ctx = DynContext(rep=build_representation(rp), rho=1.7)
        hp = build_heun_params(1.7, 0.9, 2.6, rp)
        rng = np.random.default_rng(2)
        expected = [draw_until(rng, lambda r: dynamical.draw_u_and_roots(r, N),
                               lambda t: bethe.maba_chunk([bethe.maba_terms(*t, hp, ctx)],
                                                          ctx)[0])
                    for _ in range(20)]
        swept = [pair for pair, tup in dynamical.sweep(dynamical.maba_sampler(hp), ctx, 20, 2)]
        assert np.array_equal(swept, expected, equal_nan=True)

    def test_an_overflowed_backward_residual_is_nan(self):
        # criterion-8 at N = 26 (seed 0): 24 of 50 norms overflow; the triangle
        # inequality bounds a backward residual by 2, so each reads NaN, not inf
        from heun_racah import dynamical
        ctx = DynContext(rep=build_representation(build_params(26, 2.2 + 0.4j, 1.3, 0.8)),
                         rho=1.7)
        residuals = [res for res, _ in dynamical.sweep(
            dynamical.SAMPLERS[RelationId.MABA_REDUCTION], ctx, 50, 0)]
        assert sum(np.isnan(residuals)) == 24 and not np.isinf(residuals).any()
        assert np.nanmax(residuals) <= 1e-14
