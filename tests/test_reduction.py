"""The aggregate kernel against the per-firm reference integration.

The library integrates (q0, mean private output) and rebuilds each
private output as the mean plus its closed-form deviation.  These tests
hold it to the literal per-firm map of ``perfirm``: diagram rows, orbits
from asymmetric starts, escape steps, the tangent step and the spectrum
of the aggregate linearization.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cournotlab import (
    DelayConfig,
    HistoryState,
    MarketParams,
    SweepSpec,
    bifurcation_diagram,
    default_initial_history,
    embedded_jacobian,
    epsilon_triple,
    largest_lyapunov,
    poly_roots,
    positive_equilibrium,
    reduced_char_poly,
    simulate,
)
from cournotlab import model
from cournotlab.dynamics import diagram_cell, fresh_rows
from cournotlab.errors import NumericalError

import perfirm
from conftest import (
    draw_delay_independent_delays,
    draw_market,
    draw_stable_market,
    pair_nonzero_roots,
    sec4_at,
)

SAMPLE_RTOL = 1e-12
LLE_TOL = 0.02
NON_CHAOTIC = ("FixedPoint", "Period")


def _escape_step(p, d, spec, alpha, init):
    steps = max(spec.transient + spec.samples, spec.lyap_iters)
    traj = simulate(dataclasses.replace(p, alpha=alpha), d, init, steps, blowup=spec.blowup)
    return traj.diverged_at


def _assert_matches_oracle(p, d, spec, alphas, rows):
    """Labels, escape steps, non-chaotic samples and exponents of ``rows``
    against one per-firm integration per cell."""
    init = default_initial_history(p, d, spec.perturbation)
    assert len(rows) == len(alphas)
    refs = []
    for alpha, row in zip(alphas, rows):
        ref = perfirm.cell(p, d, spec, float(alpha), init)
        refs.append(ref)
        assert row.alpha == alpha
        assert row.attractor.label == ref.label
        assert row.diverged is ref.diverged
        assert _escape_step(p, d, spec, float(alpha), init) == ref.diverged_at
        assert row.samples.size == ref.samples.size
        if ref.label.startswith(NON_CHAOTIC):
            np.testing.assert_allclose(row.samples, ref.samples, rtol=SAMPLE_RTOL, atol=0.0)
        assert np.isnan(row.lle) == np.isnan(ref.lle)
        if not np.isnan(ref.lle):
            assert abs(row.lle - ref.lle) <= LLE_TOL
    return refs


class TestDiagramAgainstPerFirm:
    """Diagram rows of the aggregate kernel against the per-firm map."""

    D = DelayConfig(5, 3, 3)
    # bounded at 1.0-1.62, escaping after the samples (with lyap_iters
    # 3000) at 1.64 and within them at 1.66
    ALPHAS = np.array([1.0, 1.5, 1.62, 1.64, 1.66])

    def _spec(self, **kwargs):
        base = dict(alpha_min=1.0, alpha_max=2.0, num_alpha=2, transient=400, samples=100,
                    lyap_transient=100, lyap_iters=3000)
        return SweepSpec(**{**base, **kwargs})

    @pytest.mark.parametrize("n", [2, 4, 7, 8, 9, 12])
    @pytest.mark.parametrize("b", [0.7, 1.0, 1.3])
    def test_markets(self, n, b):
        p = MarketParams(b=b, delta=min(0.4, 1.8 / (n - 1)), alpha=1.0, n=n, a0=2.0, a1=2.5)
        d = DelayConfig(2, 2, 4)
        spec = SweepSpec(alpha_min=0.8, alpha_max=2.2, num_alpha=8, transient=200, samples=40,
                         lyap_transient=100, lyap_iters=500)
        refs = _assert_matches_oracle(p, d, spec, spec.alphas, bifurcation_diagram(p, d, spec))
        assert any(r.diverged for r in refs) and not all(r.diverged for r in refs)

    @pytest.mark.parametrize("lyap_iters", [300, 500, 3000])
    def test_lyap_iters_below_at_and_above_the_orbit(self, sec4, lyap_iters):
        # transient + samples = 500
        spec = self._spec(lyap_iters=lyap_iters)
        refs = _assert_matches_oracle(sec4, self.D, spec, self.ALPHAS,
                                      fresh_rows(sec4, self.D, spec, self.ALPHAS))
        assert refs[-1].diverged and np.isnan(refs[-1].lle)

    def test_escapes_within_and_after_the_samples(self, sec4):
        spec = self._spec()
        refs = _assert_matches_oracle(sec4, self.D, spec, self.ALPHAS,
                                      fresh_rows(sec4, self.D, spec, self.ALPHAS))
        late, inside = refs[3], refs[4]
        assert not late.diverged and np.isnan(late.lle) and late.samples.size == 100
        assert late.diverged_at > 500
        assert inside.diverged and 0 < inside.samples.size <= 100

    def test_every_cell_escaping(self, sec4):
        d = DelayConfig(2, 2, 10)
        spec = SweepSpec(alpha_min=1.5, alpha_max=1.55, num_alpha=3, transient=2000, samples=50,
                         lyap_transient=300, lyap_iters=2000)
        refs = _assert_matches_oracle(sec4, d, spec, spec.alphas,
                                      bifurcation_diagram(sec4, d, spec))
        assert all(r.diverged for r in refs)

    def test_forced_tangent_collapse(self, sec4, monkeypatch):
        monkeypatch.setattr(model, "_initial_tangent", lambda depth: ([0.0] * depth, [0.0] * depth))
        spec = self._spec(lyap_iters=500)
        init = default_initial_history(sec4, self.D)
        zero = np.zeros((self.D.tau_max + 1, sec4.dimension))
        for alpha in self.ALPHAS[:-1]:
            assert perfirm.cell(sec4, self.D, spec, float(alpha), init, tangent=zero).collapsed
            with pytest.raises(NumericalError, match="collapsed"):
                diagram_cell(sec4, self.D, spec, float(alpha), init)
        with pytest.raises(NumericalError, match="collapsed"):
            fresh_rows(sec4, self.D, spec, self.ALPHAS)
        # a collapsed cell that escapes within its samples is a Divergent row
        escaping = self.ALPHAS[-1:]
        ref = perfirm.cell(sec4, self.D, spec, float(escaping[0]), init, tangent=zero)
        [row] = fresh_rows(sec4, self.D, spec, escaping)
        assert row.diverged and ref.diverged and row.samples.size == ref.samples.size


class TestTangentCollapseAtTransient:
    """A tangent that is zero at the measurement baseline raises instead of
    giving a nan exponent."""

    D = DelayConfig(5, 3, 3)

    @pytest.fixture(autouse=True)
    def zero_tangent(self, monkeypatch):
        monkeypatch.setattr(model, "_initial_tangent", lambda depth: ([0.0] * depth, [0.0] * depth))

    @pytest.mark.parametrize("transient", [10, 100])
    def test_largest_lyapunov_raises(self, sec4, transient):
        init = default_initial_history(sec4, self.D)
        with pytest.raises(NumericalError, match="collapsed"):
            largest_lyapunov(sec4, self.D, init, iters=500, transient=transient)

    @pytest.mark.parametrize("transient", [10, 100])
    def test_diagram_cell_raises(self, sec4, transient):
        spec = SweepSpec(alpha_min=1.0, alpha_max=2.0, num_alpha=2, transient=400, samples=100,
                         lyap_transient=transient, lyap_iters=500)
        with pytest.raises(NumericalError, match="collapsed"):
            diagram_cell(sec4, self.D, spec, 1.0, default_initial_history(sec4, self.D))


@st.composite
def stable_cases(draw):
    """A market inside its delay-free stability region, delays for which
    stability does not depend on them, and an asymmetric start near the
    positive equilibrium (at most 2 % off in each coordinate)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw_stable_market(rng, n_max=9)
    d = draw_delay_independent_delays(rng, max_delay=5)
    size = p.dimension * (d.tau_max + 1)
    bumps = draw(st.lists(st.floats(-0.02, 0.02), min_size=size, max_size=size))
    window = positive_equilibrium(p).point * (1.0 + np.reshape(bumps, (d.tau_max + 1, -1)))
    return p, d, window


@st.composite
def escaping_cases(draw):
    """Any admissible market, delays up to 4 and an asymmetric start far
    enough out, or a bound tight enough, for some coordinate to escape."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw_market(rng, n_max=9)
    d = DelayConfig(*(draw(st.integers(0, 4)) for _ in range(3)))
    depth = d.tau_max + 1
    scale = draw(st.sampled_from([0.5, 3.0, 50.0]))
    window = positive_equilibrium(p).point + rng.uniform(-scale, scale, (depth, p.dimension))
    blowup = draw(st.sampled_from([1.5, 4.0, 1.0e3, 1.0e6]))
    return p, d, window, blowup


class TestReductionProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(stable_cases())
    def test_rebuilt_orbit_matches_the_per_firm_map(self, case):
        p, d, window = case
        steps = 300
        traj = simulate(p, d, HistoryState(window), steps)
        ref = perfirm.iterate(window, p, d, steps, 1.0e6)
        assume(ref.diverged_at is None)  # the start can lie outside a small basin
        depth = d.tau_max + 1
        assert not traj.diverged
        scale = 1.0 + np.abs(ref.states).max()
        assert np.abs(traj.outputs - ref.states[depth - 1 :]).max() <= SAMPLE_RTOL * scale
        assert np.array_equal(traj.final_window, traj.outputs[-depth:])

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(escaping_cases())
    def test_escape_step_matches_the_per_firm_map(self, case):
        p, d, window, blowup = case
        # short enough that rounding differences, however amplified on the
        # way out, stay far below the distance of any state to the bound
        steps = 15
        traj = simulate(p, d, HistoryState(window), steps, blowup=blowup)
        ref = perfirm.iterate(window, p, d, steps, blowup)
        assert traj.diverged_at == ref.diverged_at
        assert len(traj) == ref.states.shape[0] - d.tau_max

    def test_symmetric_start_keeps_equal_private_outputs(self, sec4):
        d = DelayConfig(2, 1, 3)
        traj = simulate(sec4, d, default_initial_history(sec4, d), 400)
        assert np.all(traj.outputs[:, 1:] == traj.outputs[:, 1:2])


def _symmetric_embedding(n: int, depth: int) -> np.ndarray:
    """Isometry from stacked (v, y) pairs, newest lag first, onto the
    symmetric per-firm windows: v is the public tangent and each private
    one is y / sqrt(n)."""
    pair = np.zeros((n + 1, 2))
    pair[0, 0] = 1.0
    pair[1:, 1] = 1.0 / math.sqrt(n)
    return np.kron(np.eye(depth), pair)


def aggregate_jacobian(point: HistoryState, p: MarketParams, d: DelayConfig) -> np.ndarray:
    """The 2(tau_max + 1) embedded Jacobian of the aggregate map: the
    per-firm embedded Jacobian restricted to its invariant symmetric
    subspace."""
    P = _symmetric_embedding(p.n, d.tau_max + 1)
    return P.T @ embedded_jacobian(point, p, d) @ P


STRATA = [(t0, t1, t2) for t0 in (0, 1, 4) for t1 in (0, 2, 5) for t2 in (0, 1, 3, 6)]


class TestAggregateLinearization:
    @pytest.mark.parametrize("delays", STRATA)
    def test_nonzero_eigenvalues_are_the_reduced_roots(self, delays):
        d = DelayConfig(*delays)
        for alpha in (0.6, 1.3):
            p = sec4_at(alpha)
            point = HistoryState.constant(positive_equilibrium(p).point, d.tau_max + 1)
            J = aggregate_jacobian(point, p, d)
            assert J.shape == (2 * (d.tau_max + 1),) * 2
            roots = poly_roots(reduced_char_poly(epsilon_triple(p), d)).roots
            dist, leftovers = pair_nonzero_roots(roots, np.linalg.eigvals(J))
            assert dist < 1e-8
            assert leftovers.size == 0 or leftovers.max() < 1e-3

    @pytest.mark.parametrize("delays", [(0, 0, 0), (5, 3, 3), (2, 4, 1), (0, 3, 6)])
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_one_tangent_step_is_the_jacobian(self, monkeypatch, delays, n):
        d = DelayConfig(*delays)
        depth = d.tau_max + 1
        p = MarketParams(b=1.1, delta=0.2, alpha=0.9, n=n, a0=2.0, a1=2.5)
        orbit = simulate(p, d, default_initial_history(p, d, 0.05), 60)
        assert not orbit.diverged
        rng = np.random.default_rng(sum(delays) + n)
        for k in (0, 7, 60 - depth + 1):
            point = HistoryState(orbit.outputs[k : k + depth])
            w = rng.normal(size=(depth, 2))  # rows oldest first, as the kernel keeps them
            monkeypatch.setattr(model, "_initial_tangent",
                                lambda depth, w=w: (w[:, 0].tolist(), w[:, 1].tolist()))
            run = model._iterate(point, p, d, 1, math.inf, tangent_iters=1)
            want = aggregate_jacobian(point, p, d) @ w[::-1].ravel()
            # the step logs the stretch of the window norm, and keeps the
            # window itself unscaled while its norm lies in [1e-6, 1e6]
            assert run.measured == 1
            assert run.log_stretch == pytest.approx(math.log(np.linalg.norm(want)), abs=1e-13)
            v, y = run.tangent
            np.testing.assert_allclose(np.column_stack([v, y])[::-1].ravel(), want,
                                       rtol=1e-12, atol=1e-13)
