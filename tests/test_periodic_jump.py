"""The exact-periodicity jump against step-by-step integration.

Once the aggregate window repeats bit for bit, ``model._iterate`` keeps
the rest of the orbit as the cycle repeated and carries the tangent over
whole periods as one matrix power.  The oracle is the same kernel with
the detector ``model._period`` disabled, so that every run steps its
orbit and tangent one step at a time.  Orbits, samples and continuation
windows must match it bit for bit; exponents, which the jump sums in
another order, within EXP_RTOL relative plus EXP_ATOL.  Every test of a
run checks that its record repeated, through ``_Run.onset`` and
``_Run.period``.
"""

import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cournotlab import (
    DEFAULT_BLOWUP,
    DelayConfig,
    HistoryState,
    InitPolicy,
    MarketParams,
    SweepSpec,
    bifurcation_diagram,
    default_initial_history,
    largest_lyapunov,
    phase_portrait,
    positive_equilibrium,
    simulate,
)
from cournotlab import dynamics, model
from cournotlab.dynamics import diagram_cell

import perfirm
from conftest import draw_delay_independent_delays, draw_stable_market, sec4_at

EXP_RTOL = 1e-12
EXP_ATOL = 1e-15
SAMPLE_RTOL = 1e-12


@contextlib.contextmanager
def per_step():
    """Run the body with the detector disabled: the oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_period", lambda q, mean, depth: 0)
        yield


@contextlib.contextmanager
def recorded_runs():
    """Collect every ``_Run`` the body makes, in order."""
    runs = []
    real = model._iterate

    def spy(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_iterate", spy)
        mp.setattr(dynamics, "_iterate", spy)
        yield runs


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def close_exponents(a: float, b: float) -> bool:
    return abs(a - b) <= EXP_RTOL * abs(b) + EXP_ATOL


def rate(run) -> float:
    return run.log_stretch / run.measured


@st.composite
def stable_orbits(draw):
    """A market inside its delay-free stability region and delays for which
    stability does not depend on them: orbits that settle on the fixed
    point, where rounding leaves a short exact cycle."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return draw_stable_market(rng, n_max=9), draw_delay_independent_delays(rng, max_delay=5)


class TestOrbits:
    STEPS = 4000

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(stable_orbits())
    def test_simulate_and_phase_portrait_are_bit_identical(self, case):
        p, d = case
        init = default_initial_history(p, d)
        with recorded_runs() as runs:
            traj = simulate(p, d, init, self.STEPS)
            portrait = phase_portrait(p, d, transient=self.STEPS // 2, samples=self.STEPS // 2)
        # the equilibrium's own residual check runs one step as well
        orbit, portrait_orbit = [r for r in runs if r.size > self.STEPS]
        assume(orbit.period)
        assert portrait_orbit.period and orbit.onset < orbit.size
        with per_step(), recorded_runs() as oracle_runs:
            want = simulate(p, d, init, self.STEPS)
            want_portrait = phase_portrait(p, d, transient=self.STEPS // 2, samples=self.STEPS // 2)
        assert not any(r.period for r in oracle_runs)
        assert same_bits(traj.outputs, want.outputs)
        assert same_bits(traj.final_window, want.final_window)
        assert traj.diverged is want.diverged is False
        assert same_bits(portrait.points, want_portrait.points)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(stable_orbits())
    def test_diagram_samples_and_continuation_windows_are_bit_identical(self, case):
        p, d = case
        spec = SweepSpec(alpha_min=0.5, alpha_max=1.0, num_alpha=2, transient=1500, samples=100,
                         lyap_transient=200, lyap_iters=1600)

        def chain():
            # a cell from the bumped equilibrium, then one continued from it
            rows, state = [], default_initial_history(p, d)
            for alpha in (p.alpha, 0.9 * p.alpha):
                row, state = diagram_cell(p, d, spec, alpha, state)
                rows.append((row, state))
            return rows

        with recorded_runs() as runs:
            got = chain()
        first, second = [r for r in runs if r.size > spec.lyap_iters]
        assume(first.period)
        assert second.period
        with per_step():
            want = chain()
        for (row, state), (ref, ref_state) in zip(got, want):
            assert same_bits(row.samples, ref.samples)
            assert same_bits(state.window, ref_state.window) and state.time == ref_state.time
            assert np.isnan(row.lle) == np.isnan(ref.lle)
            assert np.isnan(ref.lle) or close_exponents(row.lle, ref.lle)

    def test_record_is_kept_up_to_one_cycle(self, sec4):
        d = DelayConfig(5, 3, 3)
        run = model._iterate(default_initial_history(sec4, d), sec4, d, 100_000, DEFAULT_BLOWUP)
        assert run.period and len(run.q0) == len(run.mean) == run.onset + run.period
        assert run.size == 100_000 + d.tau_max + 1 and len(run.q0) < 10_000
        with per_step():
            want = model._iterate(default_initial_history(sec4, d), sec4, d, 100_000,
                                  DEFAULT_BLOWUP)
        for lo, hi in [(0, run.size), (run.onset - 3, run.onset + 5), (run.size - 7, run.size),
                       (len(run.q0) + 11, len(run.q0) + 12)]:
            assert same_bits(run.states(lo, hi), want.states(lo, hi))

    def test_column_repeats_the_cycle_past_the_record(self):
        seq, onset = [float(k) for k in range(10)], 6  # the last 4 entries repeat
        for lo, hi in [(0, 10), (2, 7), (9, 11), (0, 23), (6, 30), (11, 12), (13, 29), (5, 6)]:
            want = [seq[k if k < onset else onset + (k - onset) % 4] for k in range(lo, hi)]
            for record in (seq, np.array(seq)):
                assert list(model._column(record, lo, hi, onset)) == want

    def test_start_on_the_fixed_point_repeats_at_once(self, sec4):
        d = DelayConfig(2, 1, 3)
        point = HistoryState.constant(positive_equilibrium(sec4).point, d.tau_max + 1)
        run = model._iterate(point, sec4, d, 5000, DEFAULT_BLOWUP)
        assert run.period and run.onset < 200
        with per_step():
            want = simulate(sec4, d, point, 5000)
        assert same_bits(simulate(sec4, d, point, 5000).outputs, want.outputs)


class TestExponents:
    ITERS = 6000

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(stable_orbits(), st.sampled_from([1, 7]), st.sampled_from(["before", "after"]))
    def test_largest_lyapunov_within_tolerance(self, case, renorm_interval, transient_at):
        p, d = case
        init = default_initial_history(p, d)
        orbit = model._iterate(init, p, d, self.ITERS, DEFAULT_BLOWUP)
        assume(orbit.period)
        # the steps after ``start`` read repeated entries only
        start = orbit.onset - (d.tau_max + 1)
        if transient_at == "before":
            transient = start // 2
        else:
            transient = start + 5 * orbit.period + 3
            assume(transient < self.ITERS - 2 * orbit.period)
        kwargs = dict(tangent_iters=self.ITERS, transient=transient,
                      renorm_interval=renorm_interval)
        run = model._iterate(init, p, d, self.ITERS, DEFAULT_BLOWUP, **kwargs)
        with per_step():
            want = model._iterate(init, p, d, self.ITERS, DEFAULT_BLOWUP, **kwargs)
            want_lle = largest_lyapunov(p, d, init, self.ITERS, transient, renorm_interval).lle
        assert run.period and not want.period
        assert run.measured == want.measured == self.ITERS - transient
        assert close_exponents(rate(run), rate(want))
        lle = largest_lyapunov(p, d, init, self.ITERS, transient, renorm_interval).lle
        assert close_exponents(lle, want_lle)

    # orbits on sec4 that settle on an exact cycle longer than one step,
    # so that the period map depends on the phase it starts at
    CYCLES = [((0, 1, 0), 1.4, 5), ((0, 0, 0), 1.9, 12), ((1, 1, 1), 1.0, 20),
              ((0, 0, 2), 1.8, 24), ((0, 2, 2), 1.5, 28)]

    @pytest.mark.parametrize("renorm_interval", [1, 7])
    @pytest.mark.parametrize("delays, alpha, period", CYCLES)
    def test_longer_cycles(self, delays, alpha, period, renorm_interval):
        p, d = sec4_at(alpha), DelayConfig(*delays)
        init = default_initial_history(p, d)
        orbit = model._iterate(init, p, d, self.ITERS, DEFAULT_BLOWUP)
        assert orbit.period == period
        start = orbit.onset - (d.tau_max + 1)
        for transient in (start // 2, start + 3 * period + 1):
            kwargs = dict(tangent_iters=self.ITERS, transient=transient,
                          renorm_interval=renorm_interval)
            run = model._iterate(init, p, d, self.ITERS, DEFAULT_BLOWUP, **kwargs)
            with per_step():
                want = model._iterate(init, p, d, self.ITERS, DEFAULT_BLOWUP, **kwargs)
            assert run.period == period and not want.period
            assert run.measured == want.measured
            assert close_exponents(rate(run), rate(want))
            assert same_bits(run.states(), want.states())

    @pytest.mark.parametrize("policy", list(InitPolicy))
    @pytest.mark.parametrize("delays", [(5, 3, 3), (1, 2, 0), (2, 2, 4)])
    def test_diagram_rows(self, sec4, policy, delays):
        d = DelayConfig(*delays)
        spec = SweepSpec(alpha_min=0.6, alpha_max=1.5, num_alpha=6, transient=800, samples=100,
                         policy=policy, lyap_transient=300, lyap_iters=3000)
        with recorded_runs() as runs:
            rows = bifurcation_diagram(sec4, d, spec)
        assert sum(1 for r in runs if r.period) >= 3
        with per_step():
            want = bifurcation_diagram(sec4, d, spec)
        for row, ref in zip(rows, want, strict=True):
            assert same_bits(row.samples, ref.samples)
            assert row.attractor.label == ref.attractor.label and row.diverged is ref.diverged
            assert np.isnan(row.lle) == np.isnan(ref.lle)
            if not np.isnan(ref.lle):
                assert close_exponents(row.lle, ref.lle)

    @pytest.mark.parametrize("lyap_transient", [10, 1500])
    def test_continuation_window_and_exponent_of_one_cell(self, sec4, lyap_transient):
        d = DelayConfig(5, 3, 3)
        spec = SweepSpec(alpha_min=1.0, alpha_max=1.5, num_alpha=2, transient=900, samples=100,
                         lyap_transient=lyap_transient, lyap_iters=4000)
        point = HistoryState.constant(positive_equilibrium(sec4).point, d.tau_max + 1, time=7)
        with recorded_runs() as runs:
            row, carried = diagram_cell(sec4, d, spec, 1.2, point)
        [run] = runs
        # the window repeats from the start: the steps after ``start`` read
        # repeated entries only, and the transients lie on either side of it
        start = run.onset - (d.tau_max + 1)
        assert run.period and 10 < start < 1500
        with per_step():
            ref_row, ref_carried = diagram_cell(sec4, d, spec, 1.2, point)
        assert same_bits(carried.window, ref_carried.window) and carried.time == ref_carried.time
        assert same_bits(row.samples, ref_row.samples)
        pa = dataclasses.replace(sec4, alpha=1.2)
        with per_step():
            oracle = model._iterate(point, pa, d, 4000, spec.blowup, tangent_iters=4000,
                                    transient=lyap_transient)
        assert close_exponents(rate(run), rate(oracle))

    def test_zero_tangent_collapses_in_the_jump(self, sec4, monkeypatch):
        monkeypatch.setattr(model, "_initial_tangent", lambda depth: ([0.0] * depth, [0.0] * depth))
        d = DelayConfig(1, 1, 1)
        point = HistoryState.constant(positive_equilibrium(sec4).point, d.tau_max + 1)
        # the first renormalization, at step 64, comes after the jump
        run = model._iterate(point, sec4, d, 3000, DEFAULT_BLOWUP, tangent_iters=3000,
                             transient=2000)
        assert run.period and run.onset - (d.tau_max + 1) < 64
        assert run.collapsed_at is not None

    def test_collapse_stops_the_tangent_where_the_jump_lands(self, sec4, monkeypatch):
        """The unlogged jump lands on the transient with a zero window: the
        tangent stops there, and neither the logged jump nor the steps
        after it run."""
        monkeypatch.setattr(model, "_initial_tangent", lambda depth: ([0.0] * depth, [0.0] * depth))
        d = DelayConfig(1, 1, 1)
        point = HistoryState.constant(positive_equilibrium(sec4).point, d.tau_max + 1)
        run = model._iterate(point, sec4, d, 3001, DEFAULT_BLOWUP, tangent_iters=3001,
                             transient=2000)
        assert run.period == 1 and run.onset - (d.tau_max + 1) < 64
        assert run.collapsed_at == 2000
        assert run.measured == 0 and run.log_stretch == 0.0

    @pytest.mark.parametrize("after_start", [False, True])
    def test_fewer_steps_than_one_period_after_alignment(self, after_start):
        """Once the steps are aligned on the period, less than one period
        remains: no jump is taken, and every step is the per-step one."""
        p, d = sec4_at(1.0), DelayConfig(1, 1, 1)
        init = default_initial_history(p, d)
        orbit = model._iterate(init, p, d, self.ITERS, DEFAULT_BLOWUP)
        period = orbit.period
        assert period == 20
        start = orbit.onset - (d.tau_max + 1)
        # aligned on ``start`` itself, or on the transient 3 steps past it
        transient = start + 3 if after_start else start // 2
        last = (start + 3 if after_start else start) + period - 1
        kwargs = dict(tangent_iters=last, transient=transient)
        run = model._iterate(init, p, d, self.ITERS, DEFAULT_BLOWUP, **kwargs)
        with per_step():
            want = model._iterate(init, p, d, self.ITERS, DEFAULT_BLOWUP, **kwargs)
        assert run.period == period and not want.period
        assert run.measured == want.measured == last - transient
        assert run.log_stretch == want.log_stretch
        assert run.tangent == want.tangent


class TestAsymmetricStarts:
    def test_bit_identical_and_against_the_per_firm_map(self):
        rng = np.random.default_rng(11)
        p = MarketParams(b=1.2, delta=0.3, alpha=0.9, n=5, a0=2.0, a1=2.5)
        d = DelayConfig(1, 2, 3)
        depth = d.tau_max + 1
        window = positive_equilibrium(p).point * (1.0 + rng.uniform(-0.02, 0.02, (depth, 6)))
        run = model._iterate(HistoryState(window), p, d, 3000, DEFAULT_BLOWUP)
        assert run.period and run.spread is not None
        traj = simulate(p, d, HistoryState(window), 3000)
        with per_step():
            want = simulate(p, d, HistoryState(window), 3000)
        assert same_bits(traj.outputs, want.outputs)
        ref = perfirm.iterate(window, p, d, 3000, DEFAULT_BLOWUP)
        assert ref.diverged_at is None and not traj.diverged
        scale = 1.0 + np.abs(ref.states).max()
        assert np.abs(traj.outputs - ref.states[depth - 1 :]).max() <= SAMPLE_RTOL * scale

    def test_bound_check_reaches_into_the_repeated_rest(self):
        """A private output leaves the bound only after the aggregate has
        become periodic: the first state to carry the deviation of the
        newest window row is step tau2 + 1 = 65, after the look at step 64."""
        p = MarketParams(b=1.0, delta=0.5, alpha=1.0, n=2, a0=1.0, a1=2.4)
        d = DelayConfig(32, 32, 64)
        depth = d.tau_max + 1
        settled = simulate(p, d, default_initial_history(p, d), 20000)
        window = settled.final_window.copy()
        m = window[-1, 1]
        window[-1, 1:] = [m + 0.125, m - 0.125]
        run = model._iterate(HistoryState(window), p, d, 200, DEFAULT_BLOWUP)
        assert run.period and run.onset == depth + 64 - run.period
        assert run.mean[depth - 1] == m  # the aggregate start is unchanged
        # above every state of steps 1-64, below the private output at 65
        blowup = 0.5 * (np.abs(run.states(depth, depth + 64)).max()
                        + np.abs(run.states(depth + 64, depth + 65)).max())
        run = model._iterate(HistoryState(window), p, d, 200, blowup)
        assert run.period and run.diverged_at == 65
        traj = simulate(p, d, HistoryState(window), 200, blowup=blowup)
        with per_step():
            want = simulate(p, d, HistoryState(window), 200, blowup=blowup)
        assert traj.diverged_at == want.diverged_at == 65
        assert same_bits(traj.outputs, want.outputs)
        assert perfirm.iterate(window, p, d, 200, blowup).diverged_at == 65


class TestDetector:
    DEPTH = 3

    def _record(self, cycle_q, cycle_mean, reps=4):
        return list(cycle_q) * reps, list(cycle_mean) * reps

    def test_a_repeated_window_is_found_with_its_smallest_period(self):
        q, mean = self._record([0.5, 0.25, 0.125], [1.0, 2.0, 3.0])
        assert model._period(q, mean, self.DEPTH) == 3
        q, mean = self._record([0.5], [1.0], reps=10)
        assert model._period(q, mean, self.DEPTH) == 1

    def test_signed_zeros_differ(self):
        for seq in ("q", "mean"):
            q, mean = self._record([0.5, 0.0, 0.125], [1.0, 0.0, 3.0])
            assert model._period(q, mean, self.DEPTH) == 3
            (q if seq == "q" else mean)[-2] = -0.0
            assert model._period(q, mean, self.DEPTH) == 0

    def test_one_bit_differs(self):
        for seq in ("q", "mean"):
            for k in (1, 2, 3):
                q, mean = self._record([0.5, 0.25, 0.125], [1.0, 2.0, 3.0])
                target = q if seq == "q" else mean
                target[-k] = math.nextafter(target[-k], math.inf)
                assert model._period(q, mean, self.DEPTH) == 0

    def test_nan_repeats_nothing(self):
        q, mean = self._record([0.5, 0.25, 0.125], [1.0, 2.0, 3.0])
        nan = float("nan")
        mean[-2] = mean[-5] = nan
        assert model._period(q, mean, self.DEPTH) == 0

    def test_a_window_older_than_the_longest_period_is_not_looked_at(self):
        cycle = [float(k) for k in range(model._PERIOD_MAX + 1)]
        q, mean = cycle * 3, cycle * 3
        assert model._period(q, mean, self.DEPTH) == 0
        assert model._period(cycle[1:] * 3, cycle[1:] * 3, self.DEPTH) == model._PERIOD_MAX
