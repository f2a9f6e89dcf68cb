import dataclasses

import numpy as np
import pytest

from cournotlab import (
    DelayConfig,
    DimensionError,
    HistoryState,
    MarketParams,
    ValidationError,
    boundary_equilibrium,
    embedded_jacobian,
    positive_equilibrium,
    simulate,
    step,
)
from cournotlab import model
from cournotlab.model import jacobian_blocks

from conftest import SEC4, draw_market, sec4_at


def constant_history(point, d):
    return HistoryState.constant(point, d.tau_max + 1)


def advanced(hist, q_next):
    """The history after appending ``q_next`` and dropping the oldest row."""
    return HistoryState(np.vstack([hist.window[1:], q_next]), time=hist.time + 1)


class TestStep:
    def test_positive_equilibrium_is_exact_fixed_point(self, sec4):
        d = DelayConfig(2, 2, 10)
        point = positive_equilibrium(sec4).point
        out = step(constant_history(point, d), sec4, d)
        assert np.array_equal(out, point)

    def test_boundary_equilibrium_is_exact_fixed_point(self, sec4):
        d = DelayConfig(1, 3, 2)
        point = boundary_equilibrium(sec4).point
        out = step(constant_history(point, d), sec4, d)
        assert np.array_equal(out, point)

    def test_zero_adjustment_speed_freezes_public_output(self):
        p = MarketParams(**{**SEC4, "alpha": 0.0})
        d = DelayConfig(0, 0, 0)
        hist = constant_history(np.array([0.7, 0.1, 0.9, 0.2, 0.4]), d)
        out = step(hist, p, d)
        assert out[0] == 0.7

    def test_hand_evaluated_undelayed_step(self, sec4):
        # q0' = 1 + 1*1*(2 - 1 - 0.4*2) = 1.2
        # qj' = 1.25 - 0.2*1 - 0.2*(3*0.5) = 0.75
        d = DelayConfig(0, 0, 0)
        hist = constant_history(np.array([1.0, 0.5, 0.5, 0.5, 0.5]), d)
        out = step(hist, sec4, d)
        assert out[0] == pytest.approx(1.2, abs=1e-12)
        assert out[1:] == pytest.approx(np.full(4, 0.75), abs=1e-12)

    def test_window_length_mismatch_raises(self, sec4):
        d = DelayConfig(2, 2, 10)
        hist = HistoryState.constant(positive_equilibrium(sec4).point, 4)
        with pytest.raises(DimensionError):
            step(hist, sec4, d)

    def test_width_mismatch_raises(self, sec4):
        d = DelayConfig(0, 0, 0)
        hist = HistoryState.constant(np.array([1.0, 0.5, 0.5]), 1)
        with pytest.raises(DimensionError):
            step(hist, sec4, d)

    def test_fixed_points_over_random_draws(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            p = draw_market(rng, n_max=6)
            d = DelayConfig(*(int(x) for x in rng.integers(0, 4, size=3)))
            scale = 1.0 + max(abs(p.a0), abs(p.a1)) / p.b
            for point in (boundary_equilibrium(p).point, positive_equilibrium(p).point):
                out = step(constant_history(point, d), p, d)
                assert np.abs(out - point).max() <= 1e-12 * scale


class TestSimulate:
    def test_constant_at_equilibrium(self, sec4):
        d = DelayConfig(1, 2, 3)
        point = positive_equilibrium(sec4).point
        traj = simulate(sec4, d, constant_history(point, d), 50)
        assert not traj.diverged
        assert np.abs(traj.outputs - point).max() == 0.0

    def test_bit_identical_reruns(self, sec4):
        d = DelayConfig(2, 1, 4)
        point = positive_equilibrium(sec4).point.copy()
        point[0] += 1e-2
        init = constant_history(point, d)
        a = simulate(sec4, d, init, 500)
        b = simulate(sec4, d, init, 500)
        assert np.array_equal(a.outputs, b.outputs)

    def test_stable_orbit_converges_below_threshold(self, sec4):
        # delay pattern with tau0 + tau1 even and tau2 even keeps the
        # delay-free threshold, so alpha = 1.0 < 1.185 must converge
        d = DelayConfig(2, 2, 10)
        eq = positive_equilibrium(sec4).point
        start = eq.copy()
        start[0] += 1e-2
        traj = simulate(sec4, d, constant_history(start, d), 4000)
        assert not traj.diverged
        assert np.abs(traj.outputs[-100:] - eq).max() < 1e-6

    def test_divergence_flag_and_early_abort(self, sec4):
        d = DelayConfig(0, 0, 0)
        hist = constant_history(np.array([2000.0, 0.5, 0.5, 0.5, 0.5]), d)
        traj = simulate(sec4, d, hist, 100)
        assert traj.diverged
        assert traj.diverged_at is not None
        assert len(traj) < 101
        assert np.abs(traj.outputs[-1]).max() > 1e6

    def test_negative_steps_rejected(self, sec4):
        d = DelayConfig(0, 0, 0)
        hist = constant_history(positive_equilibrium(sec4).point, d)
        with pytest.raises(ValidationError):
            simulate(sec4, d, hist, -1)

    def test_final_window_continues_the_orbit(self, sec4):
        d = DelayConfig(2, 0, 3)
        start = positive_equilibrium(sec4).point.copy()
        start[0] += 1e-2
        whole = simulate(sec4, d, constant_history(start, d), 40)
        first = simulate(sec4, d, constant_history(start, d), 25)
        rest = simulate(sec4, d, HistoryState(first.final_window, time=25), 15)
        assert np.array_equal(whole.outputs[-10:], rest.outputs[-10:])

    def test_manual_stepping_matches_simulate(self, sec4):
        d = DelayConfig(1, 2, 0)
        start = positive_equilibrium(sec4).point.copy()
        start[0] += 1e-2
        hist = constant_history(start, d)
        traj = simulate(sec4, d, hist, 5)
        for _ in range(5):
            hist = advanced(hist, step(hist, sec4, d))
        assert np.array_equal(hist.current, traj.outputs[-1])
        assert hist.time == 5

    @pytest.mark.parametrize("rows", [
        [[0.5, 0.7, 0.7, 0.7, 0.7], [0.6, 0.7, 0.7, 0.7, 0.7]],
        [[0.5, 0.7, 0.7, 0.7, 0.7], [0.6, 0.7, 0.7, 0.8, 0.7]],
        [[0.5, 0.0, -0.0, 0.0, -0.0], [0.6, 0.7, 0.7, 0.7, 0.7]],
        [[0.5, 0.7, 0.7, 0.7, 0.7], [0.6, np.nan, np.nan, np.nan, np.nan]],
        [[0.5, 0.7, 0.7, 0.7, 0.7], [0.6, 0.7, np.nan, 0.7, 0.7]],
        [[0.5, np.inf, np.inf, np.inf, np.inf]],
        [[0.5, 0.7], [0.6, np.nan]],
        [[0.5, 0.7], [0.6, 0.8]],
    ])
    def test_agreeing_private_outputs_are_told_as_numpy_tells_them(self, rows):
        # the flat window the kernel starts from without spread: every row's
        # private outputs equal under ==, so signed zeros agree and nan never does
        window = np.array(rows)
        priv = window[:, 1:]
        assert model._agree(window.tolist()) == bool((priv == priv[:, :1]).all())

    def test_lookback_outside_window_raises(self, sec4):
        d = DelayConfig(1, 1, 1)
        hist = constant_history(positive_equilibrium(sec4).point, d)
        with pytest.raises(DimensionError):
            hist.lookback(5)


class TestJacobian:
    def test_public_entry_at_equilibrium(self):
        p = sec4_at(1.0)
        d = DelayConfig(0, 0, 0)
        hist = constant_history(positive_equilibrium(p).point, d)
        A, B0, B1, B2 = jacobian_blocks(hist, p, d)
        assert A[0, 0] == pytest.approx(0.0625, abs=1e-12)

    def test_cross_block_vanishes_at_boundary_point(self, sec4):
        d = DelayConfig(1, 1, 1)
        hist = constant_history(boundary_equilibrium(sec4).point, d)
        _, _, B1, _ = jacobian_blocks(hist, sec4, d)
        assert np.all(B1 == 0.0)

    def test_block_structure(self, sec4):
        d = DelayConfig(1, 2, 3)
        hist = constant_history(positive_equilibrium(sec4).point, d)
        A, B0, B1, B2 = jacobian_blocks(hist, sec4, d)
        assert np.all(B0[0, :] == 0.0)
        assert np.all(B0[1:, 0] == 0.5 * sec4.delta)
        assert np.all(B0[1:, 1:] == 0.0)
        assert np.all(B1[1:, :] == 0.0)
        assert np.all(np.diag(B2) == 0.0)
        assert np.all(B2[1:, 1:][~np.eye(4, dtype=bool)] == 0.5 * sec4.delta)
        assert np.all(A[1:, :] == 0.0) and np.all(A[0, 1:] == 0.0)

    def test_embedding_collapses_without_delays(self, sec4):
        d = DelayConfig(0, 0, 0)
        hist = constant_history(positive_equilibrium(sec4).point, d)
        A, B0, B1, B2 = jacobian_blocks(hist, sec4, d)
        J = embedded_jacobian(hist, sec4, d)
        assert np.array_equal(J, A - B0 - B1 - B2)

    def test_embedded_dimension(self, sec4):
        d = DelayConfig(2, 4, 8)
        hist = constant_history(positive_equilibrium(sec4).point, d)
        assert embedded_jacobian(hist, sec4, d).shape == (45, 45)

    def test_directional_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(20):
            p = draw_market(rng, n_max=5)
            d = DelayConfig(*(int(x) for x in rng.integers(0, 4, size=3)))
            depth = d.tau_max + 1
            window = rng.uniform(0.1, 1.5, size=(depth, p.dimension))
            direction = rng.normal(size=(depth, p.dimension))
            direction /= np.linalg.norm(direction)

            plus = step(HistoryState(window + h * direction), p, d)
            minus = step(HistoryState(window - h * direction), p, d)
            fd = (plus - minus) / (2.0 * h)

            hist = HistoryState(window)
            A, B0, B1, B2 = jacobian_blocks(hist, p, d)
            u = lambda k: direction[-1 - k]
            lin = A @ u(0) - B0 @ u(d.tau0) - B1 @ u(d.tau1) - B2 @ u(d.tau2)
            assert np.abs(fd - lin).max() < 1e-6


class TestParamValidation:
    def test_gap_consistency_check(self):
        with pytest.raises(ValidationError):
            MarketParams(b=1.0, delta=0.4, alpha=1.0, n=4,
                         a=3.0, c0=1.0, c=0.5, a0=2.0, a1=2.0)
        p = MarketParams(b=1.0, delta=0.4, alpha=1.0, n=4,
                         a=3.0, c0=1.0, c=0.5, a0=2.0, a1=2.5)
        assert p.a0 == 2.0 and p.a1 == 2.5

    def test_bad_domains_rejected(self):
        with pytest.raises(ValidationError):
            MarketParams(b=0.0, delta=0.4, alpha=1.0, n=4, a0=2.0, a1=2.5)
        with pytest.raises(ValidationError):
            MarketParams(b=1.0, delta=1.2, alpha=1.0, n=4, a0=2.0, a1=2.5)
        with pytest.raises(ValidationError):
            MarketParams(b=1.0, delta=0.4, alpha=1.0, n=0, a0=2.0, a1=2.5)
        with pytest.raises(ValidationError):
            MarketParams(b=1.0, delta=0.4, alpha=1.0, n=4, a=1.0, c0=2.0, c=0.5)
        with pytest.raises(ValidationError):
            DelayConfig(-1, 0, 0)

    @pytest.mark.parametrize("field", ["alpha", "b", "a0", "a1"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_inputs_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            MarketParams(**{**SEC4, field: value})

    @pytest.mark.parametrize("field, value", [
        ("b", None), ("delta", None), ("alpha", None), ("a0", "2"), ("a1", "2.5"),
        ("delta", "0.4"), ("b", [1.0]), ("alpha", 1.0 + 0j),
    ])
    def test_value_that_is_not_a_real_number_rejected(self, field, value):
        # float() alone would raise TypeError on None, or take a string
        with pytest.raises(ValidationError, match=f"{field} must be a real number"):
            MarketParams(**{**SEC4, field: value})

    @pytest.mark.parametrize("field", ["a", "c0", "c"])
    def test_primitive_that_is_not_a_real_number_rejected(self, field):
        primitives = dict(a=3.0, c0=1.0, c=0.5)
        with pytest.raises(ValidationError, match=f"{field} must be a real number"):
            MarketParams(b=1.0, delta=0.4, alpha=1.0, n=4, **{**primitives, field: "1"})

    def test_real_numbers_of_other_types_accepted(self):
        p = MarketParams(b=np.float64(1.0), delta=0.4, alpha=np.float32(1.0),
                         n=np.int64(4), a0=2, a1=np.float64(2.5))
        assert p.n == 4 and p.a0 == 2 and p.a1 == 2.5

    @pytest.mark.parametrize("field, value, message", [
        ("delta", float("nan"), "delta must lie in"), ("b", -1.0, "b must be positive"),
        ("alpha", -0.5, "alpha must be nonnegative"), ("a0", float("nan"), "a0 must be finite"),
    ])
    def test_messages_of_other_bad_values_stay(self, field, value, message):
        with pytest.raises(ValidationError, match=message):
            MarketParams(**{**SEC4, field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), None])
    def test_bad_firm_count_rejected(self, value):
        # int() alone would raise ValueError, OverflowError or TypeError
        with pytest.raises(ValidationError, match="n must be"):
            MarketParams(**{**SEC4, "n": value})

    @pytest.mark.parametrize("field, value", [("tau0", float("nan")), ("tau1", float("inf")),
                                              ("tau2", None)])
    def test_bad_delay_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            DelayConfig(**{field: value})

    @pytest.mark.parametrize("field", ["a", "c0", "c"])
    def test_non_finite_primitives_rejected(self, field):
        primitives = dict(a=3.0, c0=1.0, c=0.5)
        with pytest.raises(ValidationError, match=field):
            MarketParams(b=1.0, delta=0.4, alpha=1.0, n=4,
                         **{**primitives, field: float("inf")})

    def test_dataclass_replace_revalidates(self, sec4):
        q = dataclasses.replace(sec4, alpha=1.3)
        assert q.alpha == 1.3 and q.a0 == sec4.a0
