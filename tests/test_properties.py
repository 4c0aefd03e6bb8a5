"""Property tests over the admissible domain.

Scalars come from the sampling annulus, and a draw is admissible when the
formula keeps the package's pole margin, as in every seeded sweep.  The
stacked closed form is held to its scalar reference on every drawn lane and
on lanes planted on each kind of pole; values are compared where the pass
is well conditioned, the pole mask on every lane.  The lane kernel's window
of trial steps is held bit for bit to the plain one-step search.  The
catalog identities BB_EXCHANGE, AB_EXCHANGE, CA_EXCHANGE, VACUUM_ACTION,
WA_IDENTITY, ABV_ACTION, PSI_FACTORED, COMBINATION_IDENTITY and
MABA_REDUCTION hold within their catalog tolerances at every admissible
draw; the last five also fail a mutation of 1e-9 in one of their inputs
(1e-7 relative in MABA_REDUCTION's tau_u), at a fixed well-conditioned
draw, so the tolerance is tight enough to see one.  The runs are
derandomized and keep no example database, so every run of the suite
checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heun_racah import bethe, dynamical
from heun_racah.bethe import (HOMOGENEOUS, INHOMOGENEOUS, BetheSystem, abv_terms, bethe_vector,
                              f1_W, maba_reduce, psi_factored, vacuum, vacuum_coeffs)
from heun_racah.core import guard, identity, pole_margin, residual_norm, vector_residual
from heun_racah.dynamical import DEFAULT_TOLS, RelationId
from heun_racah.errors import CanonicalizationError, ParameterDomainError
from heun_racah.heun import (BilinearParams, build_heun_params, build_W_bilinear,
                             build_W_parametric, canonicalize, h1_scalar, h_coeffs)
from heun_racah.racah import (DynContext, build_params, build_representation, coeff_k1, coeff_k2,
                              op_A, op_B, op_C)
from heun_racah.sampling import ANNULUS_MAX, ANNULUS_MIN, REJECT_MARGIN
from heun_racah.solver import MAX_HALVINGS, newton_lanes

import reference_kernel
from test_kernel import a1_lane, planted_poles, reference_closed_form

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

annulus = st.complex_numbers(min_magnitude=ANNULUS_MIN, max_magnitude=ANNULUS_MAX,
                             allow_nan=False, allow_infinity=False)

# criterion-8 representations; N = 0 is the 1x1 case
REPS = {N: build_representation(build_params(N, 2.2 + 0.4j, 1.3, 0.8)) for N in (0, 1, 4, 12)}


def admissible(build):
    """build() under the pole margin; the example is discarded when it raises."""
    try:
        with pole_margin(REJECT_MARGIN):
            return build()
    except (CanonicalizationError, ParameterDomainError):
        assume(False)


@PROPERTY
@given(N=st.sampled_from(sorted(REPS)), rho=annulus, op=st.sampled_from([op_A, op_B, op_C]),
       pairs=st.lists(st.tuples(annulus, annulus), max_size=8))
def test_stacked_builds_are_the_scalar_builds(N, rho, op, pairs):
    ctx = admissible(lambda: DynContext(rep=REPS[N], rho=rho))
    us, ms = [u for u, _ in pairs], [m for _, m in pairs]
    with pole_margin(REJECT_MARGIN):
        try:
            singles = [op(u, m, ctx) for u, m in pairs]
        except ParameterDomainError:
            # a pair on a pole rejects the whole stack
            with pytest.raises(ParameterDomainError):
                op(us, ms, ctx)
            return
        stack = op(us, ms, ctx)
    assert stack.shape == (len(pairs), N + 1, N + 1)
    assert all(np.array_equal(s, single) for s, single in zip(stack, singles))


@PROPERTY
@given(N=st.sampled_from([1, 4, 12]), r=st.tuples(*[annulus] * 5))
def test_canonicalize_then_rebuild_round_trips(N, r):
    # rho = (q + 1) / (q - 1) with q = r3 / r4: q must keep the margin off 1
    assume(abs(r[3] / r[4] - 1) >= REJECT_MARGIN)
    rep, bp = REPS[N], BilinearParams(*r)
    hp, scale, shift = admissible(lambda: canonicalize(bp, rep.params))
    ctx = DynContext(rep=rep, rho=hp.rho)
    rebuilt = scale * build_W_parametric(hp, ctx) + shift * identity(rep.dim)
    assert residual_norm(build_W_bilinear(bp, rep), rebuilt) <= 1e-10


# the criterion-8 problem (rho = 1.7) at N = 0..6
CRITERION_8 = {N: DynContext(rep=build_representation(build_params(N, 2.2 + 0.4j, 1.3, 0.8)),
                             rho=1.7) for N in range(7)}


@PROPERTY
@given(N=st.sampled_from(sorted(CRITERION_8)), u=annulus, v=annulus, m=annulus)
def test_bb_exchange_holds(N, u, v, m):
    # B(u, m+1) B(v, m) = B(v, m+1) B(u, m) wherever the four builds keep the margin
    ctx = CRITERION_8[N]
    B_u1, B_v, B_v1, B_u = admissible(lambda: op_B([u, v, v, u], [m + 1, m, m + 1, m], ctx))
    assert residual_norm(B_u1 @ B_v, B_v1 @ B_u) <= DEFAULT_TOLS[RelationId.BB_EXCHANGE]


@PROPERTY
@given(N=st.sampled_from(sorted(CRITERION_8)), u=annulus, v=annulus, m=annulus)
def test_ab_exchange_holds(N, u, v, m):
    # A(u, m) B(v, m) = k1(u, v) B(v, m) A(u, m-1)
    #   + B(u, m) [k2(u, v, m) A(v, m-1) + k2(u, -v, m) A(-v, m-1)]
    ctx = CRITERION_8[N]
    A_um, A_u, A_v, A_mv, B_v, B_u, k1, k2, k2_mv = admissible(lambda: (
        *op_A([u, u, v, -v], [m, m - 1, m - 1, m - 1], ctx), *op_B([v, u], [m, m], ctx),
        coeff_k1(u, v), coeff_k2(u, v, m, ctx.rho), coeff_k2(u, -v, m, ctx.rho)))
    rhs = k1 * (B_v @ A_u) + B_u @ (k2 * A_v + k2_mv * A_mv)
    assert residual_norm(A_um @ B_v, rhs) <= DEFAULT_TOLS[RelationId.AB_EXCHANGE]


@PROPERTY
@given(N=st.sampled_from(sorted(CRITERION_8)), u=annulus, v=annulus, m=annulus)
def test_ca_exchange_holds(N, u, v, m):
    # C(v, m) A(u, m) = k1(u, v) A(u, m-1) C(v, m)
    #   + [k2(u, v, m) A(v, m-1) + k2(u, -v, m) A(-v, m-1)] C(u, m)
    ctx = CRITERION_8[N]
    A_um, A_u, A_v, A_mv, C_v, C_u, k1, k2, k2_mv = admissible(lambda: (
        *op_A([u, u, v, -v], [m, m - 1, m - 1, m - 1], ctx), *op_C([v, u], [m, m], ctx),
        coeff_k1(u, v), coeff_k2(u, v, m, ctx.rho), coeff_k2(u, -v, m, ctx.rho)))
    rhs = k1 * (A_u @ C_v) + (k2 * A_v + k2_mv * A_mv) @ C_u
    assert residual_norm(C_v @ A_um, rhs) <= DEFAULT_TOLS[RelationId.CA_EXCHANGE]


@PROPERTY
@given(N=st.sampled_from(sorted(CRITERION_8)), u=annulus, m=annulus)
def test_vacuum_action_holds(N, u, m):
    # A(u, m)|0> = xi |0> + zeta B(u, m)|0> wherever both sides keep the margin
    ctx = CRITERION_8[N]
    e0 = vacuum(N)
    vc, A, B = admissible(lambda: (vacuum_coeffs(u, m, ctx.rep.params, ctx.rho),
                                   op_A(u, m, ctx), op_B(u, m, ctx)))
    residual = vector_residual(A @ e0, vc.xi * e0 + vc.zeta * (B @ e0))
    assert residual <= DEFAULT_TOLS[RelationId.VACUUM_ACTION]


def wa_gap(u1, u2, hp, ctx, mutation=0.0):
    """The larger residual of h1(u) A(u, m_bar) + h1(-u) A(-u, m_bar) + h2(u)
    at u1 against W and against itself at u2, with the A's taken at
    m_bar + mutation."""
    W = build_W_parametric(hp, ctx)
    m = hp.m_bar + mutation
    R1, R2 = (h1p * A_u + h1m * A_mu + h2 * ctx.rep.I
              for (A_u, A_mu), (h1p, h1m, h2) in
              ((op_A([u, -u], [m, m], ctx), h_coeffs(u, hp)) for u in (u1, u2)))
    return max(residual_norm(R1, W), residual_norm(R1, R2))


@PROPERTY
@given(N=st.sampled_from(sorted(CRITERION_8)), s1=annulus, s2=annulus, u1=annulus, u2=annulus)
def test_wa_identity_holds(N, s1, s2, u1, u2):
    # W = h1(u) A(u, m_bar) + h1(-u) A(-u, m_bar) + h2(u), the same at every u
    ctx = CRITERION_8[N]
    hp = admissible(lambda: build_heun_params(ctx.rho, s1, s2, ctx.rep.params))
    assert admissible(lambda: wa_gap(u1, u2, hp, ctx)) <= DEFAULT_TOLS[RelationId.WA_IDENTITY]


def test_wa_identity_fails_a_mutation_of_m_bar():
    ctx = CRITERION_8[3]
    hp = build_heun_params(ctx.rho, 0.9, 2.6, ctx.rep.params)
    u1, u2 = 2.1 + 0.7j, -1.3 + 2.4j
    tol = DEFAULT_TOLS[RelationId.WA_IDENTITY]
    assert wa_gap(u1, u2, hp, ctx) <= tol < wa_gap(u1, u2, hp, ctx, mutation=1e-9)


def abv_gap(u, m, roots, ctx, mutation=0.0):
    """vector_residual of A(u (1 + mutation), m) on the Bethe vector against
    the expansion at u."""
    lhs = op_A(u * (1 + mutation), m, ctx) @ bethe_vector(roots, m, ctx)
    return vector_residual(lhs, bethe._abv_sides([abv_terms(u, m, roots, ctx)], ctx)[1][0])


@PROPERTY
@given(N=st.sampled_from(sorted(CRITERION_8)), u=annulus, m=annulus,
       roots=st.lists(annulus, max_size=3))
def test_abv_action_holds(N, u, m, roots):
    # A(u, m) on the Bethe vector = its expansion over the wanted and swapped terms
    ctx = CRITERION_8[N]
    assert admissible(lambda: abv_gap(u, m, roots, ctx)) <= DEFAULT_TOLS[RelationId.ABV_ACTION]


def test_abv_action_fails_a_mutation_of_u():
    ctx = CRITERION_8[2]
    u, m, roots = 2.1 + 0.7j, 0.4 - 1.3j, [1.7 + 0.2j, -0.6 + 2.2j]
    tol = DEFAULT_TOLS[RelationId.ABV_ACTION]
    assert abv_gap(u, m, roots, ctx) <= tol < abv_gap(u, m, roots, ctx, mutation=1e-9)


def psi_gap(u, roots, hp, mutation=0.0):
    """The backward residual of psi's dual forms, the factored one scaled by
    1 + mutation: |factored - summed| / max(1, |factored|, summand magnitudes)."""
    p = len(roots)
    factored = psi_factored(u, p, roots, hp) * (1 + mutation)
    summed, magnitude = bethe.psi_summed(u, p, roots, hp)
    return abs(factored - summed) / max(1.0, abs(factored), magnitude)


@PROPERTY
@given(N=st.sampled_from(sorted(CRITERION_8)), s1=annulus, s2=annulus, u=annulus,
       roots=st.lists(annulus, max_size=3))
def test_psi_factored_holds(N, s1, s2, u, roots):
    # the factored and summed forms of the extension coefficient agree
    ctx = CRITERION_8[N]
    hp = admissible(lambda: build_heun_params(ctx.rho, s1, s2, ctx.rep.params))
    residual = admissible(lambda: psi_gap(u, roots, hp))
    assert residual == bethe.psi_residual(u, len(roots), roots, hp)
    assert residual <= DEFAULT_TOLS[RelationId.PSI_FACTORED]


def test_psi_factored_fails_a_mutation_of_the_factored_form():
    # at a well-conditioned draw, where the summands are within a few times
    # psi: near a root they can exceed it by orders, and hide the mutation
    ctx = CRITERION_8[4]
    hp = build_heun_params(ctx.rho, 0.9, 2.6, ctx.rep.params)
    u, roots = 2.1 + 0.7j, [1.7 + 0.2j, -0.6 + 2.2j]
    summed, magnitude = bethe.psi_summed(u, 2, roots, hp)
    assert magnitude <= 4 * abs(summed)
    tol = DEFAULT_TOLS[RelationId.PSI_FACTORED]
    assert psi_gap(u, roots, hp) <= tol < psi_gap(u, roots, hp, mutation=1e-9)


def combination_gap(u, v, hp, rho, mutation=0.0):
    """The residual of h1(u) k2(u, v, m_bar) + h1(-u) k2(-u, v, m_bar) against
    f1_W(v) (1 + mutation) / (rho (rho - 1) (u^2 - v^2)), relative to the left side."""
    lhs = (h1_scalar(u, hp) * coeff_k2(u, v, hp.m_bar, rho)
           + h1_scalar(-u, hp) * coeff_k2(-u, v, hp.m_bar, rho))
    rhs = f1_W(v, hp) * (1 + mutation) / (rho * (rho - 1) * guard(u * u - v * v, "u^2 = v^2"))
    return abs(lhs - rhs) / max(1.0, abs(lhs))


@PROPERTY
@given(N=st.sampled_from(sorted(CRITERION_8)), s1=annulus, s2=annulus, u=annulus, v=annulus)
def test_combination_identity_holds(N, s1, s2, u, v):
    # the h1-weighted k2 pair collapses to the f1_W term
    ctx = CRITERION_8[N]
    hp = admissible(lambda: build_heun_params(ctx.rho, s1, s2, ctx.rep.params))
    residual = admissible(lambda: combination_gap(u, v, hp, ctx.rho))
    assert residual == dynamical._combination_residual((hp, u, v), ctx)[0]
    assert residual <= DEFAULT_TOLS[RelationId.COMBINATION_IDENTITY]


def test_combination_identity_fails_a_mutation_of_f1w():
    ctx = CRITERION_8[3]
    hp = build_heun_params(ctx.rho, 0.9, 2.6, ctx.rep.params)
    u, v = 2.1 + 0.7j, -1.3 + 2.4j
    tol = DEFAULT_TOLS[RelationId.COMBINATION_IDENTITY]
    assert combination_gap(u, v, hp, ctx.rho) <= tol \
        < combination_gap(u, v, hp, ctx.rho, mutation=1e-9)


def maba_gap(u, roots, hp, ctx, mutation=0.0):
    """The backward residual of the (N+1)-root reduction on one bethe_vector
    per root list, with tau_u scaled by 1 + mutation: |lhs - rhs| / max(1, |lhs|,
    sum of |coefficient| |vector| over the summands of rhs)."""
    tau_u, taus = maba_reduce(u, roots, hp)
    rp, m = hp.rp, hp.m_bar
    c = rp.gamma + rp.delta - 2 * m + 2 * rp.N + 2
    coefs = [tau_u * (1 + mutation)] + [(c * c - u * u) / guard(x * x - u * u, "x^2 = u^2") * t
                                        for x, t in zip(roots, taus)]
    vectors = [bethe_vector(roots, m, ctx)] + [bethe_vector(roots[:j] + [u] + roots[j + 1:], m, ctx)
                                               for j in range(len(roots))]
    rhs, magnitude = coefs[0] * vectors[0], abs(coefs[0]) * np.linalg.norm(vectors[0])
    for coef, vector in zip(coefs[1:], vectors[1:]):
        rhs, magnitude = rhs + coef * vector, magnitude + abs(coef) * np.linalg.norm(vector)
    lhs = bethe_vector(roots + [u], m, ctx)
    return np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs), magnitude)


@PROPERTY
@given(N=st.integers(1, 6), s1=annulus, s2=annulus, u=annulus,
       roots=st.lists(annulus, min_size=6, max_size=6))
def test_maba_reduction_holds(N, s1, s2, u, roots):
    # the (N+1)-root Bethe vector is the tau-weighted sum of N-root ones
    ctx, roots = CRITERION_8[N], roots[:N]
    hp = admissible(lambda: build_heun_params(ctx.rho, s1, s2, ctx.rep.params))
    residual = admissible(lambda: maba_gap(u, roots, hp, ctx))
    assert residual == bethe.maba_chunk([bethe.maba_terms(u, roots, hp, ctx)], ctx)[0][1]
    assert residual <= DEFAULT_TOLS[RelationId.MABA_REDUCTION]


def test_maba_reduction_fails_a_mutation_of_tau_u():
    ctx = CRITERION_8[2]
    hp = build_heun_params(ctx.rho, 0.9, 2.6, ctx.rep.params)
    u, roots = 2.1 + 0.7j, [1.7 + 0.2j, -0.6 + 2.2j]
    tol = DEFAULT_TOLS[RelationId.MABA_REDUCTION]
    assert maba_gap(u, roots, hp, ctx) <= tol < maba_gap(u, roots, hp, ctx, mutation=1e-7)


def bethe_system(mode, p):
    """A system with p roots: criterion-8 at N = p (inhomogeneous), or N = 4
    with rho = 2 / (2p + 5), where gamma = 1, delta = 2 and s1 = 0 give
    p_bar = 1/rho - 5/2 = p (homogeneous)."""
    if mode == INHOMOGENEOUS:
        rp, rho, s1, s2 = build_params(p, 2.2 + 0.4j, 1.3, 0.8), 1.7, 0.9, 2.6
    else:
        rp, rho, s1, s2 = build_params(4, 5, 1, 2), 2 / (2 * p + 5), 0, 3
    ctx = DynContext(rep=build_representation(rp), rho=rho)
    return BetheSystem(build_heun_params(rho, s1, s2, rp), ctx, mode)


SYSTEMS = {(mode, p): bethe_system(mode, p)
           for mode in (HOMOGENEOUS, INHOMOGENEOUS) for p in range(1, 5)}


def smallest_gap(system, roots) -> float:
    """The smallest |A - B| / (|A| + |B|) over the differences of two terms
    that the pass divides by: x_r^2 - x_l^2, d_rl - 4 (y - 1) of each k1
    factor, c3 + 2 -+ x of the swap weight and, in inhomogeneous mode,
    a1^2, a3^2, c^2 and each z^2 against rho^2 x^2 or x^2.  The two passes
    round x^2 differently in the last digit, and a difference amplifies that
    by the inverse of its gap."""
    x = [complex(v) for v in roots]
    pairs = [(system.weight.c3 + 2, y) for v in x for y in (v, -v)]
    pairs += [(u * u, v * v) for i, u in enumerate(x) for v in x[:i]]
    pairs += [(u * u - v * v, 4 * (y - 1)) for i, u in enumerate(x)
              for j, v in enumerate(x) if i != j for y in (u, -u)]
    if system.mode == INHOMOGENEOUS:
        rho, (_, a1, a3), (_, c, zeros) = system.hp.rho, system.brackets, system.tau
        pairs += [(a * a, rho * rho * v * v) for a in (a1, a3) for v in x]
        pairs += [(w * w, v * v) for w in (c, *zeros) for v in x]
    return min((abs(a - b) / (abs(a) + abs(b)) for a, b in pairs), default=1.0)


@PROPERTY
@given(key=st.sampled_from(sorted(SYSTEMS)), data=st.data())
def test_stacked_closed_form_is_the_scalar_pass(key, data):
    system = SYSTEMS[key]
    drawn = data.draw(st.lists(st.lists(annulus, min_size=system.p, max_size=system.p),
                               min_size=1, max_size=6))
    drawn += a1_lane(system, drawn[0])
    stack = drawn + planted_poles(system, drawn[0])
    F, J, pole, _ = system.closed_form(stack)
    assert F.shape == (len(stack), system.p) and J.shape == (len(stack), system.p, system.p)
    raised = []
    for roots, F_lane, J_lane in zip(stack, F, J):
        try:
            F_ref, J_ref = map(np.array, reference_closed_form(system, roots))
        except (ParameterDomainError, ZeroDivisionError):
            raised.append(True)
            continue
        raised.append(False)
        if smallest_gap(system, roots) < 1e-3:
            continue  # the values are compared where the pass is well conditioned
        assert np.max(np.abs(F_lane - F_ref)) <= 1e-12 * np.max(np.abs(F_ref))
        assert np.max(np.abs(J_lane - J_ref)) <= 1e-8 * np.max(np.abs(J_ref))
    assert pole.tolist() == raised
    assert all(raised[len(drawn):])  # every planted lane is a pole


LANES = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def assert_window_is_the_one_step_search(fj, starts):
    """newton_lanes, with its window of WINDOW trial steps per pass, yields
    for every lane bit for bit the (index, x, converged, iterations) of the
    plain kernel's one-step search (tests/reference_kernel.py, trials=1),
    compared by index: a lane is handed over at the end of the round it
    finishes in, so the order follows the rounds.  Every call hands fj one
    lane index per row, in lane order."""
    def checked(X, lanes):
        assert len(lanes) == len(X) and np.all(np.diff(lanes) >= 0)
        return fj(X, lanes)
    one_step, window = (sorted(run, key=lambda lane: lane[0]) for run in
                        (reference_kernel.newton_lanes(checked, starts, trials=1),
                         newton_lanes(checked, starts)))
    assert [i for i, *_ in window] == [i for i, *_ in one_step] == list(range(len(starts)))
    for (_, x, ok, its), (_, x1, ok1, its1) in zip(window, one_step):
        assert np.array_equal(x, x1) and (ok, its) == (ok1, its1)


@LANES
@given(key=st.sampled_from(sorted(SYSTEMS)), data=st.data())
def test_window_on_closed_form_stacks(key, data):
    system = SYSTEMS[key]
    starts = data.draw(st.lists(st.lists(annulus, min_size=system.p, max_size=system.p),
                                min_size=1, max_size=6))
    assert_window_is_the_one_step_search(lambda X, lanes: system.closed_form(X)[:3], starts)


@LANES
@given(starts=st.lists(st.lists(annulus, min_size=2, max_size=2), min_size=1, max_size=6),
       every=st.integers(2, 5))
def test_window_past_rows_masked_as_poles(starts, every):
    # Newton on tanh overshoots from a far start, so the search halves; a
    # hash of the row's point masks about one row in `every` as a pole,
    # inside windows as well as on their first rows
    roots = np.array([[1.5 - 0.5j, -0.7 + 1.1j], [0.3 + 0.2j, 2.0 - 1.0j]])

    def fj(X, lanes):
        T = np.tanh(X - roots[lanes % 2])
        pole = np.floor(np.abs(X[:, 0]) * 997) % every == 0
        return T, (1 - T * T)[:, :, None] * np.eye(2), pole
    assert_window_is_the_one_step_search(fj, starts)


@LANES
@given(lanes=st.lists(st.tuples(st.integers(24, MAX_HALVINGS + 1), st.booleans()),
                      min_size=1, max_size=6))
def test_window_cut_off_by_the_last_halving(lanes):
    # F = x with J = 0.75 * 2^-e: the first trial step that lowers |F| is
    # 2^-e, which takes x to about -x/3.  With `grows`, e is one larger on
    # every odd iteration, told by |x| = |x0| 3^-i, so a window also starts
    # one step past the last (k0 + 1 = e - 1 on e + 1): windows start at
    # k = 22..29 and are cut by MAX_HALVINGS, and a lane with e >= 30
    # finds no step and is spent there
    x0 = np.array([[1.0 + 0.5j * i] for i in range(len(lanes))])
    base = np.array([e for e, _ in lanes])
    grows = np.array([g for _, g in lanes])

    def fj(X, idx):
        i = np.rint(np.log(np.abs(x0[idx, 0]) / np.abs(X[:, 0])) / np.log(3)).astype(int)
        e = base[idx] + (grows[idx] & (i % 2 == 1))
        J = np.ldexp(0.75, -e).astype(np.complex128)[:, None, None]
        return X.copy(), J, np.zeros(len(X), dtype=bool)
    assert_window_is_the_one_step_search(fj, list(x0))
