"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import time

import numpy as np
import pytest

from heun_racah import bethe
from heun_racah.cli import main
from heun_racah.core import dense_spectrum
from heun_racah.dynamical import DynContext, RelationId, draw_rho, verify_relation
from heun_racah.heun import build_heun_params, build_W_parametric, verify_WA
from heun_racah.racah import build_params, build_representation, verify_defining_relations
from heun_racah.heun import h_coeffs
from heun_racah.sampling import draw_complex, draw_racah_params, draw_until
from heun_racah.solver import SolverConfig, solve_homogeneous, solve_inhomogeneous

from conftest import at_margin, keeping


def report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def draw_heun(rng, rho, rp):
    s1 = draw_complex(rng)
    return draw_until(rng, draw_complex, lambda s2: build_heun_params(rho, s1, s2, rp))


def test_criterion_1_defining_relations():
    t0 = time.time()
    worst = 0.0
    for N in range(1, 9):
        rng = np.random.default_rng(1000 + N)
        for _ in range(20):
            rep = build_representation(draw_racah_params(rng, N))
            residuals = verify_defining_relations(rep, tol=1e-10)
            worst = max(worst, max(residuals.values()))
    dt = time.time() - t0
    assert worst <= 1e-10
    assert dt < 5.0
    report(1, f"defining relations, N=1..8 x 20 draws: worst {worst:.3e} in {dt:.2f}s")


def test_criterion_2_exchange_relations():
    t0 = time.time()
    worst = 0.0
    for N in range(1, 9):
        rng = np.random.default_rng(2000 + N)
        rep = build_representation(draw_racah_params(rng, N))
        ctx = DynContext(rep=rep, rho=draw_rho(rng))
        for rel in (RelationId.BB_EXCHANGE, RelationId.AB_EXCHANGE,
                    RelationId.CA_EXCHANGE):
            out = verify_relation(rel, ctx, samples=50, tol=1e-10, seed=20 + N)
            worst = max(worst, out.max_residual)
    dt = time.time() - t0
    assert worst <= 1e-10
    assert dt < 30.0
    report(2, f"BB/AB/CA exchange, 50 draws x N=1..8: worst {worst:.3e} in {dt:.2f}s")


def test_criterion_3_wa_identity():
    worst = 0.0
    for k in range(20):
        N = k % 8 + 1
        rng = np.random.default_rng(3000 + k)
        rp = draw_racah_params(rng, N)
        rep = build_representation(rp)
        rho = draw_rho(rng)
        ctx = DynContext(rep=rep, rho=rho)
        hp = draw_heun(rng, rho, rp)
        admissible = keeping(1e-2, lambda u: h_coeffs(u, hp))
        u1 = draw_until(rng, draw_complex, admissible)
        u2 = draw_until(rng, draw_complex, admissible)
        out = verify_WA(u1, u2, hp, ctx, tol=1e-10)
        worst = max(worst, max(out.values()))
    assert worst <= 1e-10
    report(3, f"W expansion + u-independence, 20 draws, N<=8: worst {worst:.3e}")


def test_criterion_4_vacuum_and_abv_actions():
    worst_vac = worst_abv = 0.0
    adopted = set()
    for N in range(1, 6):
        rng = np.random.default_rng(4000 + N)
        rep = build_representation(draw_racah_params(rng, N))
        ctx = DynContext(rep=rep, rho=draw_rho(rng))
        vac = verify_relation(RelationId.VACUUM_ACTION, ctx, samples=20,
                              tol=1e-9, seed=40 + N)
        abv = verify_relation(RelationId.ABV_ACTION, ctx, samples=20,
                              tol=1e-9, seed=60 + N)
        worst_vac = max(worst_vac, vac.max_residual)
        worst_abv = max(worst_abv, abv.max_residual)
        adopted.add(abv.notes["middle_slot_adopted"])
        # the alternative indexing must be visibly wrong, not merely noisier
        assert abv.notes["max_residual_m_r_minus_1"] > 1e-3
    assert worst_vac <= 1e-9 and worst_abv <= 1e-9
    assert adopted == {"m-r+1"}
    report(4, f"vacuum action worst {worst_vac:.3e}; swapped-slot action worst "
              f"{worst_abv:.3e}; middle index resolved to m-r+1 (p<=3, N<=5)")


def test_criterion_5_psi_dual_form_and_zero():
    worst = 0.0
    for N in (1, 2, 4):
        rng = np.random.default_rng(5000 + N)
        rep = build_representation(draw_racah_params(rng, N))
        ctx = DynContext(rep=rep, rho=draw_rho(rng))
        out = verify_relation(RelationId.PSI_FACTORED, ctx, samples=50,
                              tol=1e-10, seed=80 + N)
        worst = max(worst, out.max_residual)
    assert worst <= 1e-10

    # arranged integer root counts: rho = 2/(2k+5) with s1=0, gamma=1, delta=2
    worst_zero = 0.0
    for k, N in ((0, 1), (1, 2), (2, 3)):
        rho = 2 / (2 * k + 5)
        rp = build_params(N, 4.4, 1, 2)
        hp = build_heun_params(rho, 0, 3, rp)
        assert hp.p_bar_plus == pytest.approx(k)
        rng = np.random.default_rng(90 + k)
        for _ in range(10):
            factored, summed = draw_until(
                rng, lambda r: (draw_complex(r), [draw_complex(r) for _ in range(k)]),
                at_margin(1e-2, lambda t: bethe.psi(t[0], k, t[1], hp)))
            worst_zero = max(worst_zero, abs(factored))
    assert worst_zero <= 1e-10
    report(5, f"psi factored vs summed worst {worst:.3e}; psi(u, p_bar) worst "
              f"|{worst_zero:.3e}| at arranged integer root counts")


def test_criterion_6_reduction_identity():
    t0 = time.time()
    worst_by_N, backward_by_N = {}, {}
    for N in (1, 2, 3, 4, 5, 6):
        draws = 50 if N <= 4 else 20
        rng = np.random.default_rng(6000 + N)
        worst = backward = 0.0
        for _ in range(draws):
            rp = draw_racah_params(rng, N)
            rep = build_representation(rp)
            rho = draw_rho(rng)
            ctx = DynContext(rep=rep, rho=rho)
            plain, bwd = draw_until(
                rng, lambda r: (draw_heun(r, rho, rp), draw_complex(r),
                                [draw_complex(r) for _ in range(N)]),
                at_margin(1e-2, lambda t: bethe.maba_identity_residuals(
                    t[1], t[2], t[0], ctx)))
            worst = max(worst, plain)
            backward = max(backward, bwd)
        worst_by_N[N] = worst
        backward_by_N[N] = backward
    dt = time.time() - t0
    for N in (1, 2, 3, 4):
        assert worst_by_N[N] <= 1e-8
    assert dt < 60.0
    proven = ", ".join(f"N={N}: {worst_by_N[N]:.2e}" for N in (1, 2, 3, 4))
    conj = ", ".join(f"N={N}: plain {worst_by_N[N]:.2e} / backward "
                     f"{backward_by_N[N]:.2e}" for N in (5, 6))
    verdict = "SUPPORTED" if max(backward_by_N[5], backward_by_N[6]) <= 1e-8 \
        else "VIOLATED"
    report(6, f"reduction identity proven range [{proven}] in {dt:.1f}s; "
              f"conjecture range [{conj}] -> {verdict}")


def test_criterion_7_homogeneous_diagonalization():
    lines = []
    for N in (1, 2):
        rp = build_params(N, 5, 1, 2)
        ctx = DynContext(rep=build_representation(rp), rho=2 / 7)
        hp = build_heun_params(2 / 7, 0, 3, rp)
        out = solve_homogeneous(hp, rp, ctx, SolverConfig(starts=32, seed=7))
        assert out.p_bar == 1
        assert out.distinct >= 1
        W = build_W_parametric(hp, ctx)
        oracle = dense_spectrum(W).eigenvalues
        for s in out.states:
            assert len(s.roots) == 1
            assert s.eigen_residual <= 1e-8  # ||Wv - lv|| / (||W||_F ||v||)
            assert min(abs(oracle - s.eigenvalue)) \
                <= 1e-6 * max(1.0, min(abs(oracle)))
        lines.append(f"N={N}: {out.distinct} state(s), worst eigen residual "
                     f"{max(s.eigen_residual for s in out.states):.2e}")
    report(7, "homogeneous one-root diagonalization (rho=2/7, p_bar=1): "
              + "; ".join(lines))


def test_criterion_8_inhomogeneous_diagonalization():
    t0 = time.time()
    lines = []
    for N in (1, 2, 3):
        rp = build_params(N, 2.2 + 0.4j, 1.3, 0.8)
        ctx = DynContext(rep=build_representation(rp), rho=1.7)
        hp = build_heun_params(1.7, 0.9, 2.6, rp)
        cfg = SolverConfig(starts=64 if N <= 2 else 128, seed=2)
        out = solve_inhomogeneous(hp, rp, ctx, cfg)
        oracle = dense_spectrum(build_W_parametric(hp, ctx)).eigenvalues
        for s in out.states:
            gap = min(abs(oracle - s.eigenvalue))
            assert gap <= 1e-6 * max(1.0, abs(s.eigenvalue))
            assert s.eigen_residual <= 1e-8
        # stated target (not requirement): full coverage for N <= 2; these
        # seeded runs achieve it, so regression-pin it there
        if N <= 2:
            assert out.coverage_fraction() == 1.0
        # on-shell independence of the auxiliary spectral point
        out2 = solve_inhomogeneous(hp, rp, ctx, cfg, u_aux=1.9 - 1.3j)
        ev1 = sorted((s.eigenvalue.real, s.eigenvalue.imag) for s in out.states)
        ev2 = sorted((s.eigenvalue.real, s.eigenvalue.imag) for s in out2.states)
        assert len(ev1) == len(ev2)
        for a, b in zip(ev1, ev2):
            assert abs(complex(*a) - complex(*b)) <= 1e-7 * max(1.0, abs(complex(*a)))
        lines.append(f"N={N}: coverage {out.coverage_fraction():.2f}")
    dt = time.time() - t0
    assert dt < 120.0
    report(8, f"inhomogeneous diagonalization, oracle-matched and u_aux-stable "
              f"({'; '.join(lines)}) in {dt:.1f}s")


def test_criterion_9_determinism(tmp_path):
    params = {"N": 1, "beta": [5, 0], "gamma": [1, 0], "delta": [2, 0],
              "rho": [2 / 7, 0], "s1": [0, 0], "s2": [3, 0]}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["solve", "--mode", "homogeneous", "--params", str(path),
                     "--starts", "16", "--seed", "3", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    verify_outs = []
    for name in ("va.json", "vb.json"):
        out = tmp_path / name
        assert main(["verify", "--relations", "all", "--params", str(path),
                     "--samples", "5", "--seed", "5", "--out", str(out)]) == 0
        verify_outs.append(out.read_bytes())
    assert verify_outs[0] == verify_outs[1]
    report(9, "byte-identical solve and verify JSON reports under repeated seeds")
