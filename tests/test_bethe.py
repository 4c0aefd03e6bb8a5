import re

import numpy as np
import pytest

from heun_racah import bethe
from heun_racah.bethe import (bethe_vector, canonical_roots, eigenvalue_w, f1_W,
                              inhomogeneous_residuals, maba_reduce, psi_factored, psi_summed,
                              unwanted_U, vacuum, vacuum_coeffs)
from heun_racah.core import guard, pole_margin, vector_residual
from heun_racah.dynamical import draw_rho
from heun_racah.errors import ModeError, ParameterDomainError
from heun_racah.heun import build_heun_params, build_W_parametric, h1_scalar, h2_scalar
from heun_racah.racah import (DynContext, build_params, build_representation, coeff_k1, coeff_k2,
                              op_A, op_B)
from heun_racah.sampling import REJECT_MARGIN, draw_complex, draw_racah_params, draw_until

from conftest import at_margin, keeping


def draw_heun(rng, rho, rp):
    s1 = draw_complex(rng)
    return draw_until(rng, draw_complex, lambda s2: build_heun_params(rho, s1, s2, rp))


def psi_forms(u, p, roots, hp):
    """The (factored, summed) forms of the extension-term coefficient psi(u, p)."""
    return psi_factored(u, p, roots, hp), psi_summed(u, p, roots, hp)[0]


def random_setup(seed, N):
    rng = np.random.default_rng(seed)
    rp = draw_racah_params(rng, N)
    rep = build_representation(rp)
    rho = draw_rho(rng)
    ctx = DynContext(rep=rep, rho=rho)
    hp = draw_heun(rng, rho, rp)
    return rng, rp, ctx, hp


class TestVacuum:
    def test_shapes(self):
        np.testing.assert_array_equal(vacuum(1), [1, 0])
        np.testing.assert_array_equal(vacuum(3), [1, 0, 0, 0])

    def test_unit_norm(self):
        assert np.linalg.norm(vacuum(5)) == 1.0


class TestVacuumCoeffs:
    def test_reference_pin(self, p0):
        # hand evaluation at u=4, m=1 (u=3 sits on the shared pole)
        vc = vacuum_coeffs(4, 1, p0, 2)
        assert vc.xi == pytest.approx(385 / 8)
        assert vc.zeta == pytest.approx(-4 / 3)

    def test_contract(self, p0, ctx0):
        e0 = vacuum(p0.N)
        rng = np.random.default_rng(41)
        def residual(t):
            u, m = t
            vc = vacuum_coeffs(u, m, p0, ctx0.rho)
            lhs = op_A(u, m, ctx0) @ e0
            rhs = vc.xi * e0 + vc.zeta * (op_B(u, m, ctx0) @ e0)
            return vector_residual(lhs, rhs)

        for _ in range(10):
            assert draw_until(rng, lambda r: (draw_complex(r), draw_complex(r)),
                              at_margin(1e-2, residual)) <= 1e-11

    def test_xi_zero_from_first_factor(self, p0):
        # (u+N)^2 = (beta-gamma+delta)^2 at u = -N + 6 = 5
        assert vacuum_coeffs(5, 0.3, p0, 2).xi == 0

    def test_xi_zero_from_m_factor(self, p0):
        # delta+gamma-2m+u = 0 at m=1, u=-1
        assert vacuum_coeffs(-1, 1, p0, 2).xi == 0

    def test_poles(self, p0):
        with pytest.raises(ParameterDomainError):
            vacuum_coeffs(1, 0.4, p0, 2)
        with pytest.raises(ParameterDomainError):
            vacuum_coeffs(3, 1, p0, 2)  # delta+gamma-2m+2-u = 0


class TestBetheVector:
    def test_empty_is_vacuum(self, ctx0):
        np.testing.assert_array_equal(bethe_vector([], 0.7, ctx0), vacuum(1))

    def test_permutation_invariance(self):
        _, rp, ctx, hp = random_setup(42, 3)
        x1, x2 = 1.3 + 0.4j, 0.8 - 1.2j
        a = bethe_vector([x1, x2], hp.m_bar, ctx)
        b = bethe_vector([x2, x1], hp.m_bar, ctx)
        assert vector_residual(a, b) <= 1e-12

    def test_sign_invariance_exact(self):
        _, rp, ctx, hp = random_setup(43, 2)
        x1, x2 = 1.1 - 0.3j, 2.4 + 0.2j
        a = bethe_vector([x1, x2], hp.m_bar, ctx)
        b = bethe_vector([-x1, x2], hp.m_bar, ctx)
        np.testing.assert_array_equal(a, b)


def reference_maba_residuals(roots, u, hp, rp, ctx):
    """maba_chunk of one maba_terms row, with one bethe_vector per swapped root list."""
    tau_u, tau_list = maba_reduce(u, roots, hp)
    lhs = bethe_vector(list(roots) + [u], hp.m_bar, ctx)
    c = rp.gamma + rp.delta - 2 * hp.m_bar + 2 * rp.N + 2
    base = bethe_vector(roots, hp.m_bar, ctx)
    rhs = tau_u * base
    mag = abs(tau_u) * float(np.linalg.norm(base))
    for j, x in enumerate(roots):
        swapped = list(roots)
        swapped[j] = u
        coef = (c * c - u * u) / (x * x - u * u) * tau_list[j]
        v = bethe_vector(swapped, hp.m_bar, ctx)
        rhs = rhs + coef * v
        mag += abs(coef) * float(np.linalg.norm(v))
    err = float(np.linalg.norm(lhs - rhs))
    lnorm = float(np.linalg.norm(lhs))
    return err / max(1.0, lnorm), err / max(1.0, lnorm, mag)


def reference_abv_rhs(u, m, roots, ctx, middle_step=1):
    """The right side of abv_chunk's expansion with every B factor rebuilt
    inside each chain; the swapped slot-r factor is B(u, m - r +
    middle_step).  abv_chunk's is middle_step=1,
    the Bethe vector's own index; -1 is the other indexing, kept here so
    that tests can show it fails the identity."""
    p = len(roots)
    e0 = vacuum(ctx.rep.params.N)

    def chain(slot_arg, slot_index, tail_vec):
        v = tail_vec
        for i in range(p, 0, -1):
            if i == slot_index:
                v = op_B(slot_arg, m - i + middle_step, ctx) @ v
            else:
                v = op_B(roots[i - 1], m - i + 1, ctx) @ v
        return v

    prod_k1 = np.prod([coeff_k1(u, x) for x in roots]) if p else 1.0
    out = prod_k1 * chain(None, 0, op_A(u, m - p, ctx) @ e0)
    for eps in (1, -1):
        for r in range(1, p + 1):
            xr = eps * roots[r - 1]
            coef = coeff_k2(u, xr, m, ctx.rho)
            coef *= np.prod([coeff_k1(xr, roots[l - 1])
                             for l in range(1, p + 1) if l != r]) if p > 1 else 1.0
            out = out + coef * chain(u, r, op_A(xr, m - p, ctx) @ e0)
    return out


def swapped_family(roots, u, m_top, ctx):
    """bethe._swapped_families of the one sample (roots, u, m_top)."""
    base, swapped, extended = bethe._swapped_families([roots], [u], [m_top], ctx)
    return base[0], swapped[0], extended[0]


def plain_chain(pairs, ctx):
    """B(x_1, m_1) @ .. @ B(x_p, m_p) @ |0> from [(x_1, m_1), ..], one scalar
    op_B call and one single product per factor."""
    v = vacuum(ctx.rep.params.N)
    for x, m in reversed(pairs):
        v = op_B(x, m, ctx) @ v
    return v


class TestSharedFactors:
    """Sharing B factors across a family of Bethe vectors changes no bit."""

    @pytest.mark.parametrize("N", [0, 1, 4, 12])
    def test_swapped_family_equals_plain_chains(self, N):
        # slot i carries the index m_top - i + 1, as that expression rounds,
        # whatever root it holds
        rng, rp, ctx, hp = random_setup(120 + N, N)
        m_top = hp.m_bar
        for p in range(5):
            u = draw_complex(rng)
            roots = [draw_complex(rng) for _ in range(p)]
            pairs = [(x, m_top - i + 1) for i, x in enumerate(roots, start=1)]
            base, swapped, extended = swapped_family(roots, u, m_top, ctx)
            assert np.array_equal(base, plain_chain(pairs, ctx))
            assert np.array_equal(bethe_vector(roots, m_top, ctx), base)
            assert swapped.shape == (p, N + 1)
            for j in range(1, p + 1):
                slot = pairs[:j - 1] + [(u, m_top - j + 1)] + pairs[j:]
                assert np.array_equal(swapped[j - 1], plain_chain(slot, ctx))
            # slot p + 1: m_top - (p + 1) + 1 rounds differently from m_top - p
            assert np.array_equal(extended, plain_chain(pairs + [(u, m_top - (p + 1) + 1)], ctx))

    def test_swapped_family_equals_bethe_vector(self):
        for N in range(1, 7):
            rng, rp, ctx, hp = random_setup(80 + N, N)
            assert hp.m_bar.imag != 0
            for p in range(N + 1):
                u = draw_complex(rng)
                roots = [draw_complex(rng) for _ in range(p)]
                base, swapped, extended = swapped_family(roots, u, hp.m_bar, ctx)
                assert np.array_equal(base, bethe_vector(roots, hp.m_bar, ctx))
                assert len(swapped) == p
                for j, v in enumerate(swapped):
                    expect = bethe_vector(roots[:j] + [u] + roots[j + 1:], hp.m_bar, ctx)
                    assert np.array_equal(v, expect)
                assert np.array_equal(extended, bethe_vector(roots + [u], hp.m_bar, ctx))

    def test_maba_residuals_match_reference_exactly(self):
        for N in range(1, 7):
            rng, rp, ctx, hp = random_setup(90 + N, N)
            for _ in range(3):
                u, roots = draw_until(
                    rng, lambda r: (draw_complex(r), [draw_complex(r) for _ in range(N)]),
                    keeping(1e-2, lambda t: maba_reduce(*t, hp)))
                assert bethe.maba_chunk([bethe.maba_terms(u, roots, hp, ctx)], ctx)[0] \
                    == reference_maba_residuals(roots, u, hp, rp, ctx)

    def test_maba_residuals_build_the_tau_constants_once(self, monkeypatch):
        rng, rp, ctx, hp = random_setup(93, 3)
        u, roots = draw_until(
            rng, lambda r: (draw_complex(r), [draw_complex(r) for _ in range(3)]),
            keeping(1e-2, lambda t: maba_reduce(*t, hp)))
        expected = reference_maba_residuals(roots, u, hp, rp, ctx)
        calls = []
        shared = bethe._tau_shared

        def counting(hp):
            calls.append(hp)
            return shared(hp)
        monkeypatch.setattr(bethe, "_tau_shared", counting)
        assert bethe.maba_chunk([bethe.maba_terms(u, roots, hp, ctx)], ctx)[0] == expected
        assert calls == [hp]
        with pytest.raises(ParameterDomainError, match="exactly N=3 roots"):
            bethe.maba_terms(u, roots[:2], hp, ctx)

    def test_abv_rhs_matches_reference_exactly(self):
        for N in (0, 1, 4, 12):
            rng, rp, ctx, hp = random_setup(100 + N, N)
            for p in range(4):
                u, m = draw_complex(rng), draw_complex(rng)
                roots = [draw_complex(rng) for _ in range(p)]
                got = bethe._abv_sides([bethe.abv_terms(u, m, roots, ctx)], ctx)[1][0]
                assert np.array_equal(got, reference_abv_rhs(u, m, roots, ctx))

    def test_abv_residual_builds_each_root_factor_once(self, monkeypatch):
        builds = []

        def counted_op_B(u, m, ctx):  # counts each (u, m) pair of a stack
            builds.extend(zip(u, m) if isinstance(u, list) else [(u, m)])
            return op_B(u, m, ctx)

        for N in (1, 4, 12):
            rng, rp, ctx, hp = random_setup(110 + N, N)
            for p in range(4):
                u, m = draw_complex(rng), draw_complex(rng)
                roots = [draw_complex(rng) for _ in range(p)]
                lhs = op_A(u, m, ctx) @ bethe_vector(roots, m, ctx)
                want = vector_residual(lhs, reference_abv_rhs(u, m, roots, ctx))
                builds.clear()
                with monkeypatch.context() as mp:
                    mp.setattr(bethe, "op_B", counted_op_B)
                    assert bethe.abv_chunk([bethe.abv_terms(u, m, roots, ctx)], ctx)[0] == want
                # p root factors, then p middle-slot factors
                assert len(builds) == 2 * p
                assert sum(1 for x, _ in builds if x != u) == p


class TestF1W:
    def test_zero_at_one(self, hp0):
        assert f1_W(1, hp0) == 0

    def test_first_factor_roots(self, p0):
        rho, s2 = 2, 4
        hp = build_heun_params(rho, 0, s2, p0)
        for sign in (1, -1):
            v = (rho - s2 + sign) / rho
            assert abs(f1_W(v, hp)) <= 1e-14

    def test_pole_at_zero(self, hp0):
        with pytest.raises(ParameterDomainError):
            f1_W(0, hp0)

    def test_combination_identity(self):
        rng, rp, ctx, hp = random_setup(44, 2)
        rho = ctx.rho
        def sides(t):
            u, v = t
            lhs = (h1_scalar(u, hp) * coeff_k2(u, v, hp.m_bar, rho)
                   + h1_scalar(-u, hp) * coeff_k2(-u, v, hp.m_bar, rho))
            rhs = f1_W(v, hp) / (rho * (rho - 1) * guard(u * u - v * v, "u^2 = v^2"))
            return lhs, rhs

        for _ in range(30):
            lhs, rhs = draw_until(rng, lambda r: (draw_complex(r), draw_complex(r)),
                                  at_margin(1e-2, sides))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestEigenvalueW:
    def test_p0_matches_matrix_corner(self):
        # root count 0 arranged: the vacuum is then an exact eigenvector and
        # the scalar must be u-independent and equal W[0,0]
        rp = build_params(1, 5, 1, 2)
        ctx = DynContext(rep=build_representation(rp), rho=2 / 5)
        hp = build_heun_params(2 / 5, 0, 3, rp)
        W = build_W_parametric(hp, ctx)
        w_a = eigenvalue_w(2.37 + 0.91j, [], hp)
        w_b = eigenvalue_w(-1.4 + 2.2j, [], hp)
        assert abs(w_a - w_b) <= 1e-8 * max(1.0, abs(w_a))
        assert abs(w_a - W[0, 0]) <= 1e-8 * max(1.0, abs(W[0, 0]))

    def test_large_u_drops_k1_products(self):
        _, rp, ctx, hp = random_setup(45, 2)
        roots = [1.4 + 0.2j, 0.9 - 0.8j]
        u = 1e6 + 0.3j
        full = eigenvalue_w(u, roots, hp)
        bare = eigenvalue_w(u, [], hp)
        scale = max(abs(h1_scalar(u, hp) * vacuum_coeffs(u, hp.m_bar - 2, rp, hp.rho).xi),
                    abs(h1_scalar(-u, hp) * vacuum_coeffs(-u, hp.m_bar - 2, rp, hp.rho).xi))
        # the xi index differs (m_bar-2 vs m_bar), but both scalars are
        # dominated by the same u^4 growth; k1 -> 1 means the root products
        # contribute only at relative order 1/u
        prod = np.prod([coeff_k1(u, x) for x in roots])
        assert abs(prod - 1) <= 1e-5


class TestUnwantedU:
    def test_single_root_empty_product(self, p0, hp0):
        x = 2.6 + 0.4j
        expected = (f1_W(x, hp0) * vacuum_coeffs(x, hp0.m_bar - 1, p0, 2).xi
                    + f1_W(-x, hp0) * vacuum_coeffs(-x, hp0.m_bar - 1, p0, 2).xi)
        assert unwanted_U(1, [x], hp0) == pytest.approx(expected)

    def test_root_on_f1W_zero_drops_term(self, p0, hp0):
        # x_r = 1: f1_W(1) = 0 cancels the xi pole, and for these parameters
        # the cancelled limit vanishes too (beta^2 = (1 - N - 2 - gamma - delta)^2)
        roots = [1.0, 2.3 + 0.5j]
        expected = (f1_W(-1, hp0) * vacuum_coeffs(-1, hp0.m_bar - 2, p0, 2).xi
                    * coeff_k1(-1, roots[1]))
        assert unwanted_U(1, roots, hp0) == pytest.approx(expected)

    def test_bad_index(self, p0, hp0):
        with pytest.raises(ParameterDomainError):
            unwanted_U(3, [1.5], hp0)

    @pytest.mark.parametrize("x_r", [1.0, -1.0])
    def test_continuous_at_unit_root(self, x_r):
        # f1_W(x_r) = 0 there, but f1_W xi has a finite nonzero limit
        rp = build_params(3, 2.2 + 0.4j, 1.3, 0.8)
        hp = build_heun_params(1.7, 0.9, 2.6, rp)
        rest = [2.3 + 0.5j, 0.7 - 1.1j]
        at = unwanted_U(1, [x_r] + rest, hp)
        assert abs(at) > 1.0
        for h in (1e-9, 1e-9j, -1e-9):
            near = unwanted_U(1, [x_r + h] + rest, hp)
            assert abs(near - at) <= 1e-6 * abs(at)


class TestSwapWeight:
    # criterion-8 at N = 3, weighed at m_bar - 1 as U_r is with one root fewer
    rp = build_params(3, 2.2 + 0.4j, 1.3, 0.8)
    hp = build_heun_params(1.7, 0.9, 2.6, rp)
    weight = bethe.SwapWeight(hp, hp.m_bar - 1)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("what", ["v = 0", "delta+gamma-2m+2 = v"])
    def test_each_denominator_is_a_pole_at_plus_and_minus_v(self, what, sign):
        # U_r weighs g at +x_r and -x_r: a root on either pole is masked
        w = self.weight
        pole = 0j if what == "v = 0" else w.c3 + 2
        x, generic = sign * pole, 1.3 + 0.7j
        assert w.poles(np.array([[generic, x], [generic, 2.1 - 0.4j]])).tolist() == [True, False]
        with pytest.raises(ParameterDomainError, match=re.escape(what)):
            w(pole)
        assert np.isfinite(w(generic)).all()

    def test_zeros_are_the_vacuum_weight_zeros(self):
        m = self.hp.m_bar - 1
        for z in self.weight.zeros:
            assert abs(vacuum_coeffs(z, m, self.rp, self.hp.rho).xi) <= 1e-12
            assert abs(self.weight.values(z)[0]) <= 1e-10


class TestPsi:
    def test_dual_forms_agree(self):
        for seed, N in ((46, 1), (47, 3), (48, 5)):
            rng, rp, ctx, hp = random_setup(seed, N)
            for p in (0, 1, 2, 3):
                factored, summed = draw_until(
                    rng, lambda r: (draw_complex(r), [draw_complex(r) for _ in range(p)]),
                    at_margin(1e-2, lambda t: psi_forms(t[0], p, t[1], hp)))
                assert abs(factored - summed) <= 1e-10 * max(1.0, abs(factored))

    def test_vanishes_at_integer_p_bar(self):
        rp = build_params(2, 4.2, 1, 2)
        hp = build_heun_params(2 / 7, 0, 3, rp)  # p_bar = 1
        factored, summed = psi_forms(1.9 + 0.3j, 1, [2.6 - 0.7j], hp)
        assert abs(factored) <= 1e-10
        assert abs(summed) <= 1e-10

    def test_summed_with_no_roots(self, p0, ctx0, hp0):
        u = 2.2 + 0.9j
        rho = ctx0.rho
        expected = sum(h1_scalar(nu * u, hp0)
                       * vacuum_coeffs(nu * u, hp0.m_bar, p0, rho).zeta
                       for nu in (1, -1))
        summed, _ = psi_summed(u, 0, [], hp0)
        assert summed == pytest.approx(expected)

    def test_root_count_mismatch(self, p0, hp0):
        with pytest.raises(ParameterDomainError):
            bethe.psi_residual(2.0, 2, [1.5], hp0)

    # The PSI_FACTORED sample that failed the forward residual: verify-catalog
    # op 643 at workload seed 12 (sweep seed 3298771751) on criterion-8, N = 12.
    # u lies 0.01 from the root x_1, and the summed form's summands dwarf psi.
    NEAR_ROOT = {"u": -0.1469503435603123 - 0.6716782572633025j,
                 "roots": [-0.15583517772578137 - 0.6771286017043532j,
                           0.9291048336893457 + 0.8684573532030238j,
                           0.16280087733984294 + 0.6971503791919277j],
                 "s1": 4.044090922908691 + 1.5387259935219342j,
                 "s2": -2.5510864222146585 - 2.7816798678829424j}

    def test_backward_residual_at_a_near_root_sample(self):
        rp = build_params(12, 2.2 + 0.4j, 1.3, 0.8)
        s = self.NEAR_ROOT
        hp = build_heun_params(1.7, s["s1"], s["s2"], rp)
        u, roots = s["u"], s["roots"]
        factored, summed = psi_forms(u, 3, roots, hp)
        _, magnitude = bethe.psi_summed(u, 3, roots, hp)
        assert magnitude > 1e5 * abs(factored)
        # the forward residual fails the catalog tolerance; the backward one holds
        assert abs(factored - summed) / max(1.0, abs(factored)) > 1e-10
        assert bethe.psi_residual(u, 3, roots, hp) \
            == abs(factored - summed) / max(1.0, abs(factored), magnitude) < 1e-14

    def test_backward_scale_is_the_summand_magnitudes(self):
        rng, rp, ctx, hp = random_setup(49, 4)
        for p in (0, 1, 3):
            u, roots = draw_until(
                rng, lambda r: (draw_complex(r), [draw_complex(r) for _ in range(p)]),
                keeping(1e-2, lambda t: psi_forms(t[0], p, t[1], hp)))
            _, magnitude = bethe.psi_summed(u, p, roots, hp)
            # |h1(+-u)| times each term of the inner sums, the zeta term first
            terms = []
            for su in (u, -u):
                h1 = abs(h1_scalar(su, hp))
                zeta = vacuum_coeffs(su, hp.m_bar - p, rp, ctx.rho).zeta
                terms.append(h1 * abs(zeta * np.prod([coeff_k1(su, x) for x in roots])))
                for xt in [eps * x for eps in (1, -1) for x in roots]:
                    others = [x for x in roots if x not in (xt, -xt)]
                    term = vacuum_coeffs(xt, hp.m_bar - p, rp, ctx.rho).zeta \
                        * coeff_k2(su, xt, hp.m_bar, ctx.rho) \
                        * np.prod([coeff_k1(xt, x) for x in others])
                    terms.append(h1 * abs(term))
            assert magnitude == pytest.approx(sum(terms), rel=1e-12)


def homogeneous_residuals(roots, hp, ctx):
    """The cleared homogeneous Bethe equations U_r, r = 1..p_bar."""
    return bethe.BetheSystem(hp, ctx, bethe.HOMOGENEOUS).reference(roots)[0]


class TestHomogeneousResiduals:
    def test_mode_error_without_integer_p_bar(self, ctx0, hp0):
        with pytest.raises(ModeError):
            homogeneous_residuals([1.5], hp0, ctx0)

    def test_p_bar_zero_vacuum_is_eigenvector(self):
        rp = build_params(1, 5, 1, 2)
        ctx = DynContext(rep=build_representation(rp), rho=2 / 5)
        hp = build_heun_params(2 / 5, 0, 3, rp)
        assert homogeneous_residuals([], hp, ctx) == []
        W = build_W_parametric(hp, ctx)
        e0 = vacuum(rp.N)
        lam = eigenvalue_w(2.37 + 0.91j, [], hp)
        assert np.linalg.norm(W @ e0 - lam * e0) <= 1e-10 * np.linalg.norm(W)

    def test_ratio_form_agrees_on_shell(self):
        # cleared and ratio forms have the same zero set: at a solved root
        # the ratio equation holds too
        from heun_racah.solver import SolverConfig, solve_homogeneous
        rp = build_params(1, 5, 1, 2)
        ctx = DynContext(rep=build_representation(rp), rho=2 / 7)
        hp = build_heun_params(2 / 7, 0, 3, rp)
        report = solve_homogeneous(hp, rp, ctx, SolverConfig(starts=16, seed=3))
        for state in report.states:
            (x,) = state.roots
            lhs = (f1_W(x, hp) * vacuum_coeffs(x, hp.m_bar - 1, rp, hp.rho).xi) \
                / (f1_W(-x, hp) * vacuum_coeffs(-x, hp.m_bar - 1, rp, hp.rho).xi)
            assert lhs == pytest.approx(-1.0, abs=1e-6)  # empty product on the rhs


class TestMabaReduce:
    def check_identity(self, roots, u, hp, rp, ctx):
        tau_u, tau_list = maba_reduce(u, roots, hp)
        lhs = bethe_vector(list(roots) + [u], hp.m_bar, ctx)
        c = rp.gamma + rp.delta - 2 * hp.m_bar + 2 * rp.N + 2
        rhs = tau_u * bethe_vector(roots, hp.m_bar, ctx)
        for j, x in enumerate(roots):
            swapped = list(roots)
            swapped[j] = u
            rhs = rhs + (c * c - u * u) / (x * x - u * u) * tau_list[j] \
                * bethe_vector(swapped, hp.m_bar, ctx)
        return vector_residual(lhs, rhs)

    def test_direct_2x2(self):
        rng, rp, ctx, hp = random_setup(50, 1)
        u, roots = draw_until(
            rng, lambda r: (draw_complex(r), [draw_complex(r)]),
            keeping(1e-2, lambda t: maba_reduce(*t, hp)))
        assert self.check_identity(roots, u, hp, rp, ctx) <= 1e-12

    def test_proven_range_sweep(self):
        for N in (2, 3, 4):
            rng, rp, ctx, hp = random_setup(51 + N, N)
            worst = 0.0
            for _ in range(5):
                u, roots = draw_until(
                    rng, lambda r: (draw_complex(r), [draw_complex(r) for _ in range(N)]),
                    keeping(1e-2, lambda t: maba_reduce(*t, hp)))
                worst = max(worst, self.check_identity(roots, u, hp, rp, ctx))
            assert worst <= 1e-8

    def test_prefactor_root_collapses_sum(self):
        # u at the swap prefactor root leaves only the direct term
        rng, rp, ctx, hp = random_setup(55, 2)
        u = rp.gamma + rp.delta - 2 * hp.m_bar + 2 * rp.N + 2
        roots = draw_until(
            rng, lambda r: [draw_complex(r) for _ in range(rp.N)],
            keeping(1e-2, lambda xs: maba_reduce(u, xs, hp)))
        tau_u, _ = maba_reduce(u, roots, hp)
        lhs = bethe_vector(list(roots) + [u], hp.m_bar, ctx)
        assert vector_residual(lhs, tau_u * bethe_vector(roots, hp.m_bar, ctx)) <= 1e-10


class TestInhomogeneous:
    def test_degenerates_when_N_equals_p_bar(self):
        # N = p_bar = 1 makes the extension vanish: both corrections are zero
        rp = build_params(1, 5, 1, 2)
        ctx = DynContext(rep=build_representation(rp), rho=2 / 7)
        hp = build_heun_params(2 / 7, 0, 3, rp)
        roots, u = [2.6 + 0.4j], 1.8 - 1.1j
        w_i, u_i = inhomogeneous_terms(u, roots, hp)
        tau_u, tau_list = maba_reduce(u, roots, hp)
        assert abs(w_i) <= 1e-10 * (1 + abs(tau_u))
        assert abs(u_i[0]) <= 1e-10 * (1 + abs(tau_list[0]))
        hom = unwanted_U(1, roots, hp)
        inhom = inhomogeneous_residuals(roots, hp, ctx)
        assert inhom[0] == pytest.approx(hom, rel=1e-9)

    def test_tau_zero_kills_correction(self, p0, hp0):
        # x_1 on a zero of the tau numerator product: beta-gamma+delta-N = 5
        roots = [5.0]
        _, u_i = inhomogeneous_terms(1.7 - 0.6j, roots, hp0)
        assert u_i[0] == 0

    def test_sign_and_permutation_invariance(self):
        rng, rp, ctx, hp = random_setup(57, 2)
        u = 2.37 + 0.91j
        roots = draw_until(
            rng, lambda r: [draw_complex(r) for _ in range(2)],
            keeping(1e-2, lambda xs: (maba_reduce(u, xs, hp), psi_forms(u, 2, xs, hp))))
        base = inhomogeneous_residuals(list(canonical_roots(roots)), hp, ctx)
        flipped = inhomogeneous_residuals(list(canonical_roots([-roots[0], roots[1]])),
                                          hp, ctx)
        np.testing.assert_allclose(flipped, base)
        swapped = inhomogeneous_residuals(list(canonical_roots(roots[::-1])),
                                          hp, ctx)
        np.testing.assert_allclose(swapped, base)

    def test_mode_error(self, ctx0, hp0):
        with pytest.raises(ModeError):
            inhomogeneous_residuals([1.5, 2.5], hp0, ctx0)


def inhomogeneous_terms(u, roots, hp):
    """(w^(i), [U_1^(i)..U_N^(i)]): the corrections from reducing the
    extension term back onto N-root Bethe vectors."""
    N = hp.rp.N
    tau_u, tau_list = maba_reduce(u, roots, hp)
    w_i = tau_u * bethe.psi_factored(u, N, roots, hp)
    return w_i, bethe._tau_corrections(tau_list, roots, bethe._psi_brackets(N, hp)[0], hp.rho)


def wv_action_residual(u, roots, hp, ctx, mode=bethe.HOMOGENEOUS):
    """Residual of the full W-action expansion on an (off-shell) Bethe vector.

    In homogeneous form the expansion keeps the explicit extension term;
    in inhomogeneous form (p = N) the extension is absorbed into the
    tau-corrected coefficients.  The vectors are _swapped_family's: the
    Bethe vector, the (p, dim) stack of its swapped vectors, and the
    vector with u appended.
    """
    p = len(roots)
    rho = hp.rho
    W = build_W_parametric(hp, ctx)
    V, swapped, extended = swapped_family(roots, u, hp.m_bar, ctx)
    inhomogeneous = mode == bethe.INHOMOGENEOUS
    w_i, u_i = inhomogeneous_terms(u, roots, hp) if inhomogeneous else (0, [0] * p)
    rhs = (eigenvalue_w(u, roots, hp) + w_i) * V
    for r in range(1, p + 1):
        coef = (unwanted_U(r, roots, hp) + u_i[r - 1]) \
            / (rho * (rho - 1) * guard(u * u - roots[r - 1] ** 2, "W action pole: u^2 = x_r^2"))
        rhs = rhs + coef * swapped[r - 1]
    if not inhomogeneous:
        rhs = rhs + bethe.psi_factored(u, p, roots, hp) * extended
    return vector_residual(W @ V, rhs)


class TestWVAction:
    def test_full_identity_off_shell(self):
        for seed, N in ((60, 1), (61, 3), (62, 5)):
            rng, rp, ctx, hp = random_setup(seed, N)
            for p in (0, 1, 2, 3):
                res = draw_until(
                    rng, lambda r: (draw_complex(r), [draw_complex(r) for _ in range(p)]),
                    at_margin(1e-2, lambda t: wv_action_residual(*t, hp, ctx)))
                assert res <= 1e-9

    def test_inhomogeneous_identity_off_shell(self):
        for seed, N in ((63, 1), (64, 2), (65, 3)):
            rng, rp, ctx, hp = random_setup(seed, N)
            res = draw_until(
                rng, lambda r: (draw_complex(r), [draw_complex(r) for _ in range(N)]),
                at_margin(1e-2, lambda t: wv_action_residual(
                    *t, hp, ctx, mode=bethe.INHOMOGENEOUS)))
            assert res <= 1e-9

    def test_homogeneous_span_projection(self):
        # with an integer root count the unwanted vector is gone: W V - w V
        # must lie in the span of the swapped vectors
        rng = np.random.default_rng(66)
        rp = build_params(2, 4.2, 1, 2)
        ctx = DynContext(rep=build_representation(rp), rho=2 / 7)
        hp = build_heun_params(2 / 7, 0, 3, rp)  # p_bar = 1
        W = build_W_parametric(hp, ctx)
        for _ in range(5):
            u, roots = draw_until(
                rng, lambda r: (draw_complex(r), [draw_complex(r)]),
                keeping(1e-2, lambda t: eigenvalue_w(t[0], t[1], hp)))
            V = bethe_vector(roots, hp.m_bar, ctx)
            b = W @ V - eigenvalue_w(u, roots, hp) * V
            swapped = bethe_vector([u], hp.m_bar, ctx)
            A = swapped.reshape(-1, 1)
            coef, *_ = np.linalg.lstsq(A, b, rcond=None)
            assert np.linalg.norm(A @ coef - b) <= 1e-9 * max(1.0, np.linalg.norm(b))


class TestUAux:
    def test_default_when_admissible(self, hp0, ctx0):
        system = bethe.BetheSystem(hp0, ctx0, bethe.INHOMOGENEOUS)
        u, value = bethe.pick_u_aux(system, [1.5 + 0.5j])
        assert u == bethe.U_AUX_DEFAULT
        assert value == system.eigenvalue(u, [1.5 + 0.5j])

    def test_redraw_near_pole(self, hp0, ctx0):
        # place a root right at the default point so it must move
        system = bethe.BetheSystem(hp0, ctx0, bethe.INHOMOGENEOUS)
        roots = [bethe.U_AUX_DEFAULT]
        u, value = bethe.pick_u_aux(system, roots, seed=1)
        assert abs(u - bethe.U_AUX_DEFAULT) > 1e-3
        with pole_margin(REJECT_MARGIN):
            assert system.eigenvalue(u, roots) == value

    def test_default_kept_beside_the_unshifted_vacuum_pole(self):
        # delta+gamma-2m_bar+2 = U_AUX_DEFAULT + 5e-4: the vacuum weight at
        # m_bar has its pole there, but with p >= 1 roots the eigenvalue
        # evaluates it at m_bar - p only, so the default point stays
        rp = build_params(3, 2.2 + 0.4j, 1.3, 0.8)
        rho = 1.7
        m_bar = (rp.delta + rp.gamma + 2 - bethe.U_AUX_DEFAULT - 5e-4) / 2
        hp = build_heun_params(rho, 0.9, 2 * rho * m_bar + rho - 1, rp)
        assert abs(rp.delta + rp.gamma - 2 * hp.m_bar + 2 - bethe.U_AUX_DEFAULT) < REJECT_MARGIN
        ctx = DynContext(rep=build_representation(rp), rho=rho)
        system = bethe.BetheSystem(hp, ctx, bethe.INHOMOGENEOUS)
        roots = [0.7 + 1.1j, 1.9 - 0.4j, 2.8 + 0.6j]
        u, value = bethe.pick_u_aux(system, roots)
        assert u == bethe.U_AUX_DEFAULT
        assert value == system.eigenvalue(u, roots)
