"""The plain lane kernel: a bit-for-bit reference for solver.newton_lanes,
solver.seed_starts and BetheSystem.closed_form.

The package's kernel cuts the fixed cost of a round: fewer array passes
for the pole mask, shared temporaries, a table of 2^-k, a fast path for
whole windows and fewer scatters, a condition-number bound that spares
most lanes the SVD, and one stacked margin pass over the starts.  This is the same kernel
written plainly, with one array operation per step and masks for every
lane state, the SVD for every lane, and a scalar reference pass per draw.
tests/test_kernel.py holds the package's kernel to it bit for bit: every
F, J, pole mask and scale, every Newton step, every kept draw, and every
lane's (index, x, converged, iterations) in hand-over order.
"""

import numpy as np

from heun_racah import sampling
from heun_racah.bethe import canonical_roots
from heun_racah.core import on_pole
from heun_racah.racah import y_eigenvalue
from heun_racah.solver import COND_LIMIT, MAX_HALVINGS, MAX_ITER, NEWTON_TOL, RESUME


def swap_weight_values(weight, v):
    """(g(v), g'(v)) of bethe.SwapWeight, for an array of points."""
    den = weight.c3 + 2 - v
    core = weight.rho * v + weight.core0
    vn, vs = v + weight.N, v - weight.c2
    f1, f2, f3, f4 = (weight.p0 - (core + 1) * (core - 1), vn * vn - weight.c1sq,
                      weight.btsq - vs * vs, weight.c3 + v)
    f12, f34 = f1 * f2, f3 * f4
    num = f12 * f34
    dnum = (-2 * weight.rho * core * f2 + 2 * vn * f1) * f34 \
        + f12 * (f3 - 2 * vs * f4)
    scale = 1 / (8 * v * den)
    return num * scale, (dnum - num / v + num / den) * scale


def swap_weight_poles(weight, v):
    return on_pole(v) | on_pole(weight.c3 + 2 - v) | on_pole(weight.c3 + 2 + v)


def closed_form(system, roots):
    """F (S, p), J (S, p, p), the pole mask (S,) and the scales (S, p) of
    system.closed_form."""
    x = np.asarray(roots, dtype=np.complex128)
    off = ~np.eye(system.p, dtype=bool)
    diag = np.arange(system.p)
    with np.errstate(all="ignore"):
        sq = x * x
        d = sq[:, :, None] - sq[:, None, :]  # d[s, r, l] = x_r^2 - x_l^2
        inv = np.where(off, 1 / d, 0)
        y = np.stack([x, -x])  # y[e, s, r] = eps x_r for eps = +1, -1
        g, dg = swap_weight_values(system.weight, y)
        q = (4 * (y - 1))[..., None] * inv  # 1 - k1(y, x_l), zero at l = r
        k = 1 - q
        w = inv / k
        prod = k.prod(-1)
        t = g * prod
        dlog_y = (w * (2 * y[..., None] * q - 4)).sum(-1)
        dlog = -2 * x[:, None, :] * q * w
        F = t[0] + t[1]
        J = t[0][..., None] * dlog[0] + t[1][..., None] * dlog[1]
        own = dg * prod + t * dlog_y
        J[:, diag, diag] += own[0] - own[1]
        pole = (swap_weight_poles(system.weight, x) | (on_pole(d) & off).any(-1)
                | (k == 0).any(-1).any(0)).any(-1)
        scales = 1.0 + (np.abs(t[0]) + np.abs(t[1]))
        if system.squares is not None:
            F, J, corrections_pole, val = _add_corrections(system, x, sq, inv, F, J)
            pole |= corrections_pole
            scales = scales + np.abs(val)
    return F, J, pole, scales


def _add_corrections(system, x, sq, inv, F, J):
    off = ~np.eye(system.p, dtype=bool)
    diag = np.arange(system.p)
    coef, csq, rho2, a1sq, a3sq, z = system.squares
    num = a1sq - rho2 * sq
    den = a3sq - rho2 * sq
    cs = csq - sq
    zd = (x[..., None] - z) * (x[..., None] + z)
    psi = (num / den).prod(-1)
    dlog_phi = 2 * rho2 * x * (1 / den - 1 / num)
    dlog_c = -2 * x / cs
    val = coef * psi[:, None] * zd.prod(-1) \
        * np.where(off, cs[:, None, :] * inv, 1).prod(-1)
    dlog_r = dlog_phi + (2 * x[..., None] / zd).sum(-1) - (2 * x[..., None] * inv).sum(-1)
    dJ = val[..., None] * (dlog_c[:, None, :] + 2 * x[:, None, :] * inv
                           + dlog_phi[:, None, :])
    dJ[:, diag, diag] = val * dlog_r
    pole = (on_pole(den) | (num == 0) | (cs == 0) | (zd == 0).any(-1)).any(-1)
    return F + val, J + dJ, pole, val


def newton_lanes(fj, starts, trials=1, budget=MAX_ITER):
    """solver.newton_lanes with a window of `trials` trial steps per pass:
    the same protocol, rules, iteration budget and hand-over order at the
    package's solver.WINDOW, and the same lanes at any window (trials=1 is
    the one-step search the property tests compare with)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not len(starts):
        return
    x = np.array(starts, dtype=np.complex128)
    F, J, norm = _evaluate(fj, x, np.arange(len(x)))
    tol = NEWTON_TOL * (1.0 + norm)
    at_point = np.isfinite(norm)
    running = np.ones_like(at_point)
    searching = np.zeros_like(at_point)
    converged = np.zeros_like(at_point)
    its, k0, k = (np.zeros(len(x), dtype=int) for _ in range(3))
    delta = np.zeros_like(x)
    while running.any():
        for i in np.flatnonzero(running & ~searching & ~at_point):
            running[i] = False
            yield int(i), x[i].copy(), bool(converged[i]), int(its[i])
        at = np.flatnonzero(at_point)
        at_point[at] = False
        converged[at] = norm[at] <= tol[at]
        go = at[~converged[at] & (its[at] < budget)]
        go = go[np.isfinite(J[go]).all(axis=(1, 2))]
        if go.size:
            delta[go], ok = _newton_steps(J[go], F[go])
            go = go[ok]
        searching[go] = True
        k[go] = k0[go]
        lanes = np.flatnonzero(searching)
        if not lanes.size:
            continue
        sent = np.minimum(k[lanes] + trials, MAX_HALVINGS) - k[lanes]
        first = np.cumsum(sent) - sent
        rows = np.repeat(lanes, sent)
        steps = np.repeat(k[lanes] - first, sent) + np.arange(len(rows))
        xt = x[rows] + np.ldexp(1.0, -steps)[:, None] * delta[rows]
        Ft, Jt, nt = _evaluate(fj, xt, rows)
        better = np.flatnonzero(nt < norm[rows])
        take = better[np.diff(rows[better], prepend=-1) != 0]
        acc = rows[take]
        x[acc], F[acc], J[acc], norm[acc] = xt[take], Ft[take], Jt[take], nt[take]
        k0[acc] = np.maximum(steps[take] - RESUME, 0)
        its[acc] += 1
        searching[acc] = False
        at_point[acc] = True
        k[lanes] += sent
        searching[lanes[k[lanes] >= MAX_HALVINGS]] = False


def _evaluate(fj, X, lanes):
    F, J, pole = fj(X, lanes)
    with np.errstate(all="ignore"):
        norm = np.abs(F).max(axis=1, initial=0.0)
    norm[pole | ~np.isfinite(norm)] = np.inf
    return F, J, norm


def _newton_steps(J, F):
    try:
        with np.errstate(all="ignore"):
            s = np.linalg.svd(J, compute_uv=False)
            ok = s[:, 0] / s[:, -1] <= COND_LIMIT
        delta = np.zeros_like(F)
        delta[ok] = np.linalg.solve(J[ok], -F[ok][..., None])[..., 0]
        return delta, ok
    except np.linalg.LinAlgError:
        if len(J) == 1:
            return np.zeros_like(F), np.zeros(1, dtype=bool)
        steps = [_newton_steps(J[i:i + 1], F[i:i + 1]) for i in range(len(J))]
        return np.concatenate([d for d, _ in steps]), np.concatenate([ok for _, ok in steps])


def lanes(system, x, scales, trials, budget=MAX_ITER):
    """solver._lanes' lanes on the plain kernel: the kept starts x, each
    lane's rows scaled by its start's scales, and a first pass of its own
    at the starts."""
    norms = 1.0 / scales

    def fj(X, lanes):
        F, J, pole, _ = closed_form(system, X)
        n = norms[lanes]
        return F * n, J * n[:, :, None], pole
    return newton_lanes(fj, x, trials=trials, budget=budget)


def seed_starts(system, cfg):
    """solver.seed_starts as a draw-by-draw filter: each draw is kept when
    the scalar reference pass keeps the pole margin there.  Returns
    (roots, (residuals, scales)) per draw, or (roots, None) for a draw that
    misses the margin."""
    rp = system.hp.rp
    rng = np.random.default_rng(cfg.seed)
    lam_max = max(abs(y_eigenvalue(x, rp)) for x in range(rp.N + 1))
    rmax = max(1.0, 2.0 * np.sqrt(lam_max))
    guesses = [z for z in system.weight.zeros if abs(z) > sampling.REJECT_MARGIN]

    starts = []
    for _ in range(cfg.starts if system.p else 1):
        roots = []
        for _k in range(system.p):
            if guesses and rng.random() < 0.5:
                z = guesses[int(rng.integers(len(guesses)))]
                z = z * (1 + 0.05 * (rng.standard_normal() + 1j * rng.standard_normal()))
            else:
                r = 0.5 + (rmax - 0.5) * rng.random()
                th = 2 * np.pi * rng.random()
                z = complex(r * np.cos(th), r * np.sin(th))
            roots.append(z)
        roots = list(canonical_roots(roots))
        starts.append((roots, sampling.within_margin(system.reference, roots)))
    return starts
