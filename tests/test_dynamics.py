import dataclasses
import math

import numpy as np
import pytest

from cournotlab import (
    DEFAULT_BLOWUP,
    AttractorType,
    DelayConfig,
    DivergenceError,
    HistoryState,
    InitPolicy,
    SweepSpec,
    ValidationError,
    bifurcation_diagram,
    classify_attractor,
    default_initial_history,
    epsilon_triple,
    largest_lyapunov,
    phase_portrait,
    poly_roots,
    positive_equilibrium,
    reduced_char_poly,
    simulate,
)
from cournotlab import dynamics, model
from cournotlab.dynamics import PERIOD_KMAX, PERIOD_TOL, diagram_cell

from conftest import draw_delay_independent_delays, draw_stable_market, sec4_at


class TestClassifyAttractor:
    def test_constant_samples(self):
        out = classify_attractor(np.full(50, 0.9375))
        assert out.kind is AttractorType.FIXED_POINT

    def test_alternating_samples(self):
        out = classify_attractor(np.array([0.2, 0.8] * 30))
        assert out.kind is AttractorType.PERIODIC
        assert out.period == 2
        assert out.label == "Period2"

    def test_minimal_lag_wins(self):
        out = classify_attractor(np.array([0.1, 0.5, 0.1, 0.5] * 20))
        assert out.period == 2  # lag 4 also recurs, lag 2 is minimal

    def test_slow_drift_is_not_periodic(self):
        # recurs at lag 1 but spans more than the tolerance: unfinished
        # transient, neither a fixed point nor a cycle
        samples = 1.0 + 2e-8 * np.arange(200)
        out = classify_attractor(samples)
        assert out.kind is AttractorType.APERIODIC

    def test_chaotic_regime_has_no_short_recurrence(self):
        p = sec4_at(1.62)
        d = DelayConfig(5, 3, 3)
        traj = simulate(p, d, default_initial_history(p, d), 4200)
        out = classify_attractor(traj.q0[-200:])
        assert out.kind is AttractorType.APERIODIC

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            classify_attractor(np.array([1.0]))


def _loop_label(samples, tolerance=PERIOD_TOL, k_max=PERIOD_KMAX):
    """Reference label: the recurrence lags tested one at a time."""
    samples = np.asarray(samples, dtype=float)
    if samples.max() - samples.min() <= tolerance:
        return "FixedPoint"
    for k in range(1, min(k_max, samples.size - 1) + 1):
        if np.abs(samples[k:] - samples[:-k]).max() <= tolerance:
            return "AperiodicOrQuasiperiodic" if k == 1 else f"Period{k}"
    return "AperiodicOrQuasiperiodic"


def _cycle(period, size, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    base = np.tile(rng.uniform(0.2, 0.9, period), size // period + 1)[:size]
    return base + noise * rng.uniform(-1.0, 1.0, size)


RECURRENCE_CASES = {
    "fixed": 0.9375 + 1e-7 * np.random.default_rng(1).uniform(size=200),
    "period2": _cycle(2, 200),
    "period7": _cycle(7, 200),
    "period64": _cycle(64, 200),
    "period7_noisy": _cycle(7, 200, noise=4e-7),
    "period5_noise_under_tolerance": _cycle(5, 200, noise=5e-7, seed=3),
    "period5_noise_over_tolerance": _cycle(5, 200, noise=6e-7, seed=3),
    "drift": 1.0 + 2e-8 * np.arange(200),
    "aperiodic": np.random.default_rng(2).uniform(size=200),
    "period65_beyond_k_max": _cycle(65, 200),
    "two_samples": np.array([0.1, 0.7]),
    "short_aperiodic": np.random.default_rng(4).uniform(size=12),
    "short_period3": _cycle(3, 10),
    "short_period7": _cycle(7, 20),
    "nan_inside": np.where(np.arange(40) == 20, np.nan, _cycle(4, 40)),
}


class TestClassifyAttractorAgainstLoop:
    @pytest.mark.parametrize("name", RECURRENCE_CASES)
    @pytest.mark.parametrize("k_max", [PERIOD_KMAX, 5, 1, 0, -3])
    def test_labels_match_the_lag_loop(self, monkeypatch, name, k_max):
        samples = RECURRENCE_CASES[name]
        monkeypatch.setattr(dynamics, "PERIOD_KMAX", k_max)
        out = classify_attractor(samples)
        assert out.label == _loop_label(samples, k_max=k_max)

    @pytest.mark.parametrize("name, label", [
        ("fixed", "FixedPoint"), ("period2", "Period2"), ("period7", "Period7"),
        ("period64", "Period64"), ("drift", "AperiodicOrQuasiperiodic"),
        ("aperiodic", "AperiodicOrQuasiperiodic"), ("short_period3", "Period3"),
        ("short_period7", "Period7"), ("period5_noise_under_tolerance", "Period5"),
        # lag 5 misses the tolerance, and lag 45 is the first to meet it
        ("period5_noise_over_tolerance", "Period45"),
        ("nan_inside", "Period24"),  # lag 24 never meets the NaN at index 20
    ])
    def test_reference_labels(self, name, label):
        # pins the loop itself, so that the comparison above is not vacuous
        assert _loop_label(RECURRENCE_CASES[name]) == label


class PerStepTangent(model._Tangent):
    """The tangent renormalized at every step past the transient (and
    every 64 steps before it): the reference that the 64-step blocks of
    ``model._Tangent.advance`` telescope to."""

    def advance(self, lo, hi):
        p, l0, l1, l2 = self.p, self.l0, self.l1, self.l2
        n, alpha, b, bd, half = p.n, p.alpha, p.b, p.b * p.delta, 0.5 * p.delta
        own0, cross, half_root, others = (1.0 + alpha * p.a0, alpha * bd * math.sqrt(n),
                                          half * math.sqrt(n), n - 1)
        for i, q_now, mean1 in zip(range(lo, hi + 1), *self._orbit(lo, hi)):
            v, y = self.v, self.y
            v.append((own0 - alpha * (2.0 * b * q_now + bd * (n * mean1))) * v[-1]
                     - cross * q_now * y[-l1])
            y.append(-half_root * v[-1 - l0] - half * (others * y[-l2]))
            del v[0], y[0]
            if i > self.transient:
                self.since_renorm += 1
            elif i < self.transient and i % 64:
                continue
            norm = math.hypot(*v, *y)
            if norm / self.scale < 1.0e-300:
                self.collapsed_at = i
                return
            if i > self.transient:
                self.acc += math.log(norm / self.scale)
                self.measured += self.since_renorm
                self.since_renorm = 0
            self.scale = norm
            if not 1.0e-6 < norm < 1.0e6:
                self.v, self.y = [u / norm for u in v], [u / norm for u in y]
                self.scale = 1.0


class TestLargestLyapunov:
    def test_sink_rate_matches_dominant_root(self):
        p = sec4_at(1.0)
        d = DelayConfig(5, 3, 3)
        est = largest_lyapunov(p, d, default_initial_history(p, d))
        roots = poly_roots(reduced_char_poly(epsilon_triple(p), d)).roots
        dominant = np.abs(roots).max()
        assert est.lle < 0.0
        assert est.lle == pytest.approx(np.log(dominant), abs=0.01)

    def test_invariant_curve_has_null_exponent(self):
        p = sec4_at(1.35)
        d = DelayConfig(3, 5, 5)
        est = largest_lyapunov(p, d, default_initial_history(p, d))
        assert abs(est.lle) < 0.01

    # (delays, alpha) on sec4: a chaotic orbit, an invariant circle, a sink
    # whose record repeats at 1413, and one that jumps on a 5-cycle from 445
    TELESCOPE_CASES = {
        "chaotic": ((1, 1, 1), 1.48),
        "invariant_circle": ((3, 5, 5), 1.35),
        "stable": ((3, 5, 5), 1.0),
        "jumping": ((0, 1, 0), 1.4),
    }
    # transients on and around the block edges, iterations past one block
    BLOCK_EDGES = [(transient, iters) for iters in (65, 2000, 6001)
                   for transient in (0, 1, 63, 64, 65, 1000) if transient < iters]

    @pytest.mark.parametrize("transient, iters", BLOCK_EDGES)
    @pytest.mark.parametrize("case", TELESCOPE_CASES)
    def test_blocks_telescope_to_per_step_renormalization(self, monkeypatch, case, transient,
                                                          iters):
        delays, alpha = self.TELESCOPE_CASES[case]
        p, d = sec4_at(alpha), DelayConfig(*delays)
        init = default_initial_history(p, d)
        kwargs = dict(tangent_iters=iters, transient=transient)
        run = model._iterate(init, p, d, iters, DEFAULT_BLOWUP, **kwargs)
        lle = largest_lyapunov(p, d, init, iters, transient).lle
        monkeypatch.setattr(model, "_Tangent", PerStepTangent)
        want = model._iterate(init, p, d, iters, DEFAULT_BLOWUP, **kwargs)
        want_lle = largest_lyapunov(p, d, init, iters, transient).lle
        if case == "jumping" and iters > 1000:
            assert run.period == want.period == 5
        assert run.measured == want.measured == iters - transient
        assert abs(run.log_stretch / run.measured - want.log_stretch / want.measured) <= 1e-13
        assert abs(lle - want_lle) <= 1e-13

    def test_divergent_orbit_raises(self):
        p = sec4_at(1.65)
        d = DelayConfig(5, 3, 3)
        with pytest.raises(DivergenceError):
            largest_lyapunov(p, d, default_initial_history(p, d))

    @pytest.mark.parametrize("blowup", [0.0, -5.0, float("nan")])
    def test_blowup_must_be_positive(self, sec4, blowup):
        d = DelayConfig(0, 0, 0)
        with pytest.raises(ValidationError, match="blowup"):
            largest_lyapunov(sec4, d, default_initial_history(sec4, d), blowup=blowup)

    def test_iters_must_exceed_transient(self, sec4):
        d = DelayConfig(0, 0, 0)
        with pytest.raises(ValidationError):
            largest_lyapunov(sec4, d, default_initial_history(sec4, d),
                             iters=100, transient=100)

    def test_linear_rate_over_stable_draws(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            p = draw_stable_market(rng, n_max=6)
            d = draw_delay_independent_delays(rng, max_delay=6)
            dominant = poly_roots(
                reduced_char_poly(epsilon_triple(p), d)
            ).max_modulus
            if dominant < 0.05:
                continue
            est = largest_lyapunov(p, d, default_initial_history(p, d))
            assert est.lle == pytest.approx(np.log(dominant), abs=0.02)


class TestBifurcationDiagram:
    def test_stable_rows_collapse_to_the_equilibrium(self, sec4):
        d = DelayConfig(2, 2, 10)
        spec = SweepSpec(alpha_min=1.0, alpha_max=1.12, num_alpha=7,
                         transient=3000, samples=50,
                         lyap_transient=300, lyap_iters=2000)
        rows = bifurcation_diagram(sec4, d, spec)
        q0_star = positive_equilibrium(sec4).point[0]
        assert [r.alpha for r in rows] == pytest.approx(list(spec.alphas))
        for row in rows:
            assert row.attractor.kind is AttractorType.FIXED_POINT
            assert np.abs(row.samples - q0_star).max() < 1e-6
            assert row.lle < 0.0

    def test_unstable_equilibrium_rows_are_not_fixed_points(self, sec4):
        d = DelayConfig(2, 2, 10)
        spec = SweepSpec(alpha_min=1.21, alpha_max=1.26, num_alpha=4,
                         transient=4000, samples=100,
                         lyap_transient=300, lyap_iters=2000)
        for row in bifurcation_diagram(sec4, d, spec):
            eps = epsilon_triple(sec4_at(row.alpha))
            max_mod = poly_roots(reduced_char_poly(eps, d)).max_modulus
            assert max_mod > 1.0 + 1e-3
            assert row.attractor.kind is not AttractorType.FIXED_POINT

    def test_period_two_window_after_the_flip(self, sec4):
        d = DelayConfig(2, 2, 10)
        spec = SweepSpec(alpha_min=1.22, alpha_max=1.25, num_alpha=2,
                         transient=6000, samples=120,
                         lyap_transient=300, lyap_iters=2000)
        for row in bifurcation_diagram(sec4, d, spec):
            assert row.attractor.kind is AttractorType.PERIODIC
            assert row.attractor.period == 2

    def test_policies_agree_on_fixed_point_rows(self, sec4):
        d = DelayConfig(5, 3, 3)
        kwargs = dict(alpha_min=0.9, alpha_max=1.1, num_alpha=5,
                      transient=3000, samples=40,
                      lyap_transient=300, lyap_iters=2000)
        fresh = bifurcation_diagram(sec4, d, SweepSpec(policy=InitPolicy.FRESH_PERTURBED, **kwargs))
        cont = bifurcation_diagram(sec4, d, SweepSpec(policy=InitPolicy.CONTINUED, **kwargs))
        for a, b in zip(fresh, cont):
            assert a.attractor.kind is AttractorType.FIXED_POINT
            assert b.attractor.kind is AttractorType.FIXED_POINT
            assert np.abs(a.samples.mean() - b.samples.mean()) < 1e-6

    def test_divergent_cells_are_flagged_not_fatal(self, sec4):
        d = DelayConfig(2, 2, 10)
        spec = SweepSpec(alpha_min=1.5, alpha_max=1.55, num_alpha=3,
                         transient=2000, samples=50,
                         lyap_transient=300, lyap_iters=2000)
        rows = bifurcation_diagram(sec4, d, spec)
        assert all(row.diverged for row in rows)
        assert all(row.attractor.kind is AttractorType.DIVERGENT for row in rows)
        assert all(np.isnan(row.lle) for row in rows)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SweepSpec(alpha_min=1.0, alpha_max=1.5, num_alpha=1)
        with pytest.raises(ValidationError):
            SweepSpec(alpha_min=1.5, alpha_max=1.0, num_alpha=5)

    @pytest.mark.parametrize("bad, key", [
        (dict(lyap_transient=-1), "lyap_transient"),
        (dict(lyap_iters=1000, lyap_transient=1000), "lyap_iters"),
        (dict(lyap_iters=500), "lyap_iters"),
        (dict(perturbation=float("nan")), "perturbation"),
        (dict(perturbation=float("inf")), "perturbation"),
        (dict(samples=1), "samples"),
        (dict(transient=0), "transient"),
        (dict(blowup=0.0), "blowup"),
        (dict(blowup=-1.0), "blowup"),
        (dict(blowup=float("nan")), "blowup"),
    ])
    def test_spec_rejects_bad_orbit_settings(self, bad, key):
        with pytest.raises(ValidationError, match=key):
            SweepSpec(alpha_min=1.0, alpha_max=1.5, num_alpha=3, **bad)

    def test_spec_accepts_unbounded_blowup_and_zero_lyap_transient(self):
        spec = SweepSpec(alpha_min=1.0, alpha_max=1.5, num_alpha=3,
                         blowup=float("inf"), lyap_transient=0)
        assert spec.blowup == float("inf") and spec.lyap_transient == 0


def _two_pass_cell(p, d, spec, alpha, init):
    """Reference cell: the orbit from ``simulate``, then the exponent from a
    second integration by ``largest_lyapunov`` from the same start."""
    pa = dataclasses.replace(p, alpha=alpha)
    traj = simulate(pa, d, init, spec.transient + spec.samples, blowup=spec.blowup)
    if traj.diverged:
        return traj.q0[1:][-spec.samples:], float("nan"), "Divergent", True, None
    samples = traj.q0[-spec.samples:]
    try:
        lle = largest_lyapunov(pa, d, init, iters=spec.lyap_iters,
                               transient=spec.lyap_transient, blowup=spec.blowup).lle
    except DivergenceError:
        lle = float("nan")
    carry = HistoryState(traj.final_window, time=traj.start_time + len(traj) - 1)
    return samples, lle, classify_attractor(samples).label, False, carry


class TestFusedDiagramCell:
    """``diagram_cell`` integrates orbit and tangent in one pass; every
    field of its row and its carry must equal the two-pass result bit for
    bit."""

    D = DelayConfig(5, 3, 3)

    def _assert_same(self, alpha, lyap_iters, transient=400, samples=100,
                     policy=InitPolicy.FRESH_PERTURBED):
        p = sec4_at(1.0)
        spec = SweepSpec(alpha_min=1.0, alpha_max=2.0, num_alpha=2,
                         transient=transient, samples=samples, policy=policy,
                         lyap_transient=100, lyap_iters=lyap_iters)
        init = default_initial_history(p, self.D)
        row, carry = diagram_cell(p, self.D, spec, alpha, init)
        ref_samples, ref_lle, ref_label, ref_diverged, ref_carry = _two_pass_cell(
            p, self.D, spec, alpha, init)
        assert np.array_equal(row.samples, ref_samples)
        assert row.lle == ref_lle or (np.isnan(row.lle) and np.isnan(ref_lle))
        assert row.attractor.label == ref_label
        assert row.diverged is ref_diverged
        if ref_carry is None:
            assert carry is None
        else:
            assert np.array_equal(carry.window, ref_carry.window)
            assert carry.time == ref_carry.time
        return row, carry

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 1.62])
    @pytest.mark.parametrize("lyap_iters", [500, 3000, 300])
    def test_bounded_cells(self, alpha, lyap_iters):
        # lyap_iters equal to, above and below transient + samples = 500
        row, _ = self._assert_same(alpha, lyap_iters)
        assert not row.diverged and np.isfinite(row.lle)

    def test_late_escape_keeps_the_row_without_exponent(self):
        row, carry = self._assert_same(1.64, 3000)
        assert not row.diverged and np.isnan(row.lle)
        assert carry is not None

    @pytest.mark.parametrize("lyap_iters", [300, 3000])
    def test_escape_within_the_samples_is_divergent(self, lyap_iters):
        row, carry = self._assert_same(1.66, lyap_iters)
        assert row.diverged and np.isnan(row.lle) and carry is None

    def test_continued_carry_seeds_the_next_cell(self):
        _, carry = self._assert_same(1.5, 3000, policy=InitPolicy.CONTINUED)
        assert carry.time == 500
        p = sec4_at(1.0)
        spec = SweepSpec(alpha_min=1.5, alpha_max=1.51, num_alpha=2,
                         transient=400, samples=100, policy=InitPolicy.CONTINUED,
                         lyap_transient=100, lyap_iters=3000)
        rows = bifurcation_diagram(p, self.D, spec)
        second, _ = diagram_cell(p, self.D, spec, 1.51, carry)
        assert np.array_equal(rows[1].samples, second.samples)
        assert rows[1].lle == second.lle


class TestDefaultInitialHistory:
    @pytest.mark.parametrize("perturbation", [float("nan"), float("inf"), -float("inf")])
    def test_perturbation_must_be_finite(self, sec4, perturbation):
        with pytest.raises(ValidationError, match="perturbation"):
            default_initial_history(sec4, DelayConfig(1, 0, 2), perturbation)


class TestPhasePortrait:
    ORBIT = dict(transient=3000, samples=400)

    def test_one_sample_is_enough(self, sec4):
        portrait = phase_portrait(sec4_at(1.0), DelayConfig(2, 2, 10), transient=100, samples=1)
        assert portrait.points.shape == (1, 2)

    def test_stable_alpha_gives_a_single_point(self, sec4):
        portrait = phase_portrait(sec4_at(1.0), DelayConfig(2, 2, 10), **self.ORBIT)
        eq = positive_equilibrium(sec4).point
        assert not portrait.diverged
        assert np.abs(portrait.points - eq[:2]).max() < 1e-6

    def test_period_two_gives_two_accumulation_points(self, sec4):
        portrait = phase_portrait(sec4_at(1.24), DelayConfig(2, 2, 10), **self.ORBIT)
        centers = []
        for pt in portrait.points:
            if not any(np.linalg.norm(pt - c) < 1e-4 for c in centers):
                centers.append(pt)
        assert len(centers) == 2

    def test_invariant_curve_fills_a_closed_loop(self, sec4):
        portrait = phase_portrait(sec4_at(1.35), DelayConfig(3, 5, 5), **self.ORBIT)
        pts = portrait.points
        # many distinct points whose nearest neighbours are much closer
        # than the curve diameter: a one-dimensional closed object
        distinct = len(np.unique(np.round(pts[:, 0], 3)))
        assert distinct > 50
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        diameter = dist.max()
        np.fill_diagonal(dist, np.inf)
        nearest = dist.min(axis=1)
        assert nearest.max() < 0.05 * diameter

    def test_divergence_is_flagged(self, sec4):
        portrait = phase_portrait(sec4_at(1.55), DelayConfig(2, 2, 10), **self.ORBIT)
        assert portrait.diverged
