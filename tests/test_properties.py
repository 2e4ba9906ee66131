"""Physical properties of the response, over drawn parameter sets.

Two symmetries of the four-level medium that neither engine is written
to respect by construction:

* the sublevel mirror: relabelling |1> <-> |2> swaps the two lower
  rates, the two upper rates and the two control components, and
  reverses the field (``Omega -> -Omega``); it must map s+ onto s-;
* passivity: the medium only absorbs, so Im s+ and Im s- are
  nonnegative and ``t_x + t_y <= 1``.

They are checked on ``probe_response_perturbative`` with unequal rates
and on the rows ``run_sweep`` writes, for both engines.  A third
property ties the two density-matrix engines together: the finite-probe
response converges on the weak-probe one as the square of the probe
amplitude.  Near the closed form's denominator guard, a cross-validated
sweep either agrees or names the point where it stops.  Away from it, the
sweeps keep the accuracy headroom that ``test_headroom.py`` bounds.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import WORST_ERROR, WORST_RESIDUAL_RATIO, random_params, rel_err, spy_headroom
from morsim import (
    DeltaGrid,
    NumericError,
    SweepConfig,
    SystemParams,
    Variant,
    probe_response_finite,
    probe_response_perturbative,
    run_sweep,
    transmission_x,
    transmission_y,
)
from morsim.sweep import CROSS_VALIDATION_TOL

# Worst mirror mismatch measured over 3,000 draws: 4.8e-15 relative.
MIRROR_TOL = 1e-12
# Doubling the probe multiplies a g^2 error by 4; over 300 draws the
# ratio lay within 1e-4 of 4.
CONVERGENCE_RATIO = (3.5, 4.5)

_PARAM_KEYS = ("gamma1", "gamma2", "Gamma1", "Gamma2", "Omega", "Delta", "G1", "G2")

seeds = st.integers(min_value=0, max_value=2**32 - 1)
examples = settings(max_examples=200, derandomize=True, deadline=None)


def _mirror(p):
    return replace(p, gamma1=p.gamma2, gamma2=p.gamma1, Gamma1=p.Gamma2, Gamma2=p.Gamma1,
                   G1=p.G2, G2=p.G1, Omega=-p.Omega)


@examples
@given(seeds)
def test_sublevel_mirror_swaps_the_responses(seed):
    p = random_params(np.random.default_rng(seed), equal_gammas=False)
    pair, mirrored = probe_response_perturbative(p), probe_response_perturbative(_mirror(p))
    assert rel_err(pair.s_plus, mirrored.s_minus) <= MIRROR_TOL
    assert rel_err(pair.s_minus, mirrored.s_plus) <= MIRROR_TOL


@examples
@given(seeds)
def test_medium_is_passive(seed):
    p = random_params(np.random.default_rng(seed), equal_gammas=False)
    pair = probe_response_perturbative(p)
    assert pair.s_plus.imag >= 0 and pair.s_minus.imag >= 0
    assert transmission_x(pair, p.alpha_l) + transmission_y(pair, p.alpha_l) <= 1


@settings(max_examples=50, derandomize=True, deadline=None)
@given(seeds, st.booleans())
def test_sweep_rows_are_mirrored_and_passive(seed, equal_gammas):
    p = random_params(np.random.default_rng(seed), equal_gammas=equal_gammas)
    variants = tuple(Variant(name, {key: getattr(q, key) for key in _PARAM_KEYS})
                     for name, q in (("p", p), ("mirror", _mirror(p))))
    cfg = SweepConfig(delta_grid=DeltaGrid(-150.0, 150.0, 31), variants=variants, engine="both")
    # Hypothesis refuses function-scoped fixtures, so each draw sets its own spies.
    with pytest.MonkeyPatch.context() as monkeypatch:
        headroom = spy_headroom(monkeypatch)
        rows = run_sweep(cfg)
    assert headroom["error"] <= WORST_ERROR
    assert headroom["ratio"] <= WORST_RESIDUAL_RATIO
    for row in rows:
        assert row.im_s_plus >= 0 and row.im_s_minus >= 0
        assert row.t_x + row.t_y <= 1
    half = len(rows) // 2
    for row, mirrored in zip(rows[:half], rows[half:]):
        assert (row.delta, row.engine) == (mirrored.delta, mirrored.engine)
        assert rel_err(complex(row.re_s_plus, row.im_s_plus),
                       complex(mirrored.re_s_minus, mirrored.im_s_minus)) <= MIRROR_TOL
        assert rel_err(complex(row.re_s_minus, row.im_s_minus),
                       complex(mirrored.re_s_plus, mirrored.im_s_plus)) <= MIRROR_TOL


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seeds)
def test_finite_probe_error_scales_as_probe_squared(seed):
    p = random_params(np.random.default_rng(seed), equal_gammas=False)
    weak = probe_response_perturbative(p)

    def error(g):
        finite = probe_response_finite(p, g)
        return max(abs(finite.s_plus - weak.s_plus), abs(finite.s_minus - weak.s_minus))

    low, high = CONVERGENCE_RATIO
    assert low <= error(2e-3) / error(1e-3) <= high


@settings(max_examples=100, derandomize=True, deadline=None)
@given(seeds)
def test_cross_validation_near_the_denominator_guard(seed):
    # Every rate, detuning and control scaled by s ~ 1e-4.8 .. 1e-4.1, so
    # the closed form's |den+-| ~ s^3 spans about 1e-13 to 1e-10, around
    # DENOMINATOR_GUARD = 1e-12: over 300 draws, 132 sweeps hit the guard.
    rng = np.random.default_rng(seed)
    s = 10.0 ** rng.uniform(-4.8, -4.1)
    gamma = s * rng.uniform(0.2, 3.0)
    base = SystemParams(
        gamma1=gamma, gamma2=gamma,
        Gamma1=s * rng.uniform(0.0, 3.0), Gamma2=s * rng.uniform(0.01, 3.0),
        Omega=s * rng.uniform(-3.0, 3.0), Delta=s * rng.uniform(-3.0, 3.0),
        G1=s * complex(*rng.uniform(-2.0, 2.0, 2)), G2=s * complex(*rng.uniform(-2.0, 2.0, 2)),
    )
    cfg = SweepConfig(base=base, delta_grid=DeltaGrid(-3.0 * s, 3.0 * s, 7),
                      variants=(Variant("near"),), engine="both")
    try:
        rows = run_sweep(cfg)
    except NumericError as exc:
        assert re.search(r"variant 'near', delta=-?\d", str(exc)), exc
        return
    for a, n in zip(rows[::2], rows[1::2]):
        assert (a.engine, n.engine) == ("analytic", "numeric")
        assert all(map(math.isfinite, a[1:-1] + n[1:-1]))
        assert rel_err(complex(a.re_s_plus, a.im_s_plus),
                       complex(n.re_s_plus, n.im_s_plus)) <= CROSS_VALIDATION_TOL
        assert rel_err(complex(a.re_s_minus, a.im_s_minus),
                       complex(n.re_s_minus, n.im_s_minus)) <= CROSS_VALIDATION_TOL
