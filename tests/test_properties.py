"""Property tests over the admissible domain.

Scalars come from the sampling annulus, and a draw is admissible when the
formula keeps the package's pole margin, as in every seeded sweep.  The
runs are derandomized and keep no example database, so every run of the
suite checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heun_racah.core import identity, pole_margin, residual_norm
from heun_racah.dynamical import DynContext, op_A, op_B, op_C
from heun_racah.errors import CanonicalizationError, ParameterDomainError
from heun_racah.heun import BilinearParams, build_W_bilinear, build_W_parametric, canonicalize
from heun_racah.racah import build_params, build_representation
from heun_racah.sampling import ANNULUS_MAX, ANNULUS_MIN, REJECT_MARGIN

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
