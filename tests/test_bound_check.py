"""The blow-up check of ``model._iterate`` against a per-step reference.

The kernel bounds (q0, mean) at every step and the private outputs,
mean plus each deviation, in one pass after the loop: the deviations
never enter the aggregate.  The reference, ``per_step_bound``, is the
kernel with the per-firm check inside the loop, where it cuts the orbit
at the first private output out of the bound, and a second check over
the repeated rest of a periodic record.  Every field of the run, the
record and the per-firm states must match it bit for bit.
"""

import numpy as np
import pytest

from cournotlab import (
    DEFAULT_BLOWUP,
    DelayConfig,
    HistoryState,
    MarketParams,
    default_initial_history,
    positive_equilibrium,
    simulate,
)
from cournotlab import model

from conftest import draw_market

SEC4_CHAOS = MarketParams(b=1.0, delta=0.4, alpha=1.48, n=4, a0=2.0, a1=2.5)


def per_step_bound(init, p, d, steps, blowup, tangent_iters=0, transient=0):
    """``model._iterate`` with every private output bounded inside the step
    loop, and the repeated rest of a periodic record checked after it."""
    depth = d.tau_max + 1
    n, a0, b, alpha = p.n, p.a0, p.b, p.alpha
    bd = b * p.delta
    half = 0.5 * p.delta
    base = p.a1 / (2.0 * b)
    others = n - 1
    l0, l1, l2 = 1 + d.tau0, 1 + d.tau1, 1 + d.tau2
    bound = min(blowup, np.finfo(float).max)

    q, mean, spread = model._split(init.window, d, steps, half)
    if spread is not None:
        dev, factor, rows = spread
        tops = factor * dev.max(axis=1)[rows]
        bottoms = factor * dev.min(axis=1)[rows]
        top_list, bottom_list = tops.tolist(), bottoms.tolist()

    diverged_at = None
    period = 0
    for start in range(0, steps, model._CHECK_EVERY):
        for i in range(start + 1, min(start + model._CHECK_EVERY, steps) + 1):
            q_now = q[-1]
            total1 = n * mean[-l1]
            q_new = q_now + alpha * q_now * (a0 - b * q_now - bd * total1)
            mean_new = base - half * q[-l0] - half * (others * mean[-l2])
            q.append(q_new)
            mean.append(mean_new)
            if spread is None:
                bounded = abs(q_new) <= bound and abs(mean_new) <= bound
            else:
                bounded = (abs(q_new) <= bound and abs(mean_new + top_list[i - 1]) <= bound
                           and abs(mean_new + bottom_list[i - 1]) <= bound)
            if not bounded:
                diverged_at = i
                break
        if diverged_at is not None:
            break
        if not i % model._CHECK_EVERY:
            period = model._period(q, mean, depth)
            if period:
                break
    onset = len(q) - period if period else None
    if period and spread is not None:
        rest = np.arange(i + 1, steps + 1)
        later = model._column(mean, depth + i, depth + steps, onset)
        inside = (np.abs(later + tops[rest - 1]) <= bound) & (np.abs(later + bottoms[rest - 1]) <= bound)
        if not inside.all():
            diverged_at = int(rest[inside.argmin()])
    done = steps if diverged_at is None else diverged_at

    log_stretch, measured, collapsed_at, tangent = 0.0, 0, None, ([], [])
    if tangent_iters:
        carried = model._Tangent(p, d, q, mean, onset, tangent_iters, transient)
        carried.carry(min(tangent_iters, done if diverged_at is None else done - 1), period)
        log_stretch, measured = carried.acc, carried.measured
        collapsed_at, tangent = carried.collapsed_at, (carried.v, carried.y)
    return model._Run(init.window, q, mean, spread, diverged_at, log_stretch, measured,
                      collapsed_at, tangent, depth + done, onset, period)


FIELDS = ("diverged_at", "size", "onset", "period", "log_stretch", "measured",
          "collapsed_at", "tangent")


def assert_same_run(run, want):
    for name in FIELDS:
        assert getattr(run, name) == getattr(want, name), name
    for name in ("q0", "mean"):
        assert np.asarray(getattr(run, name)).tobytes() == np.asarray(getattr(want, name)).tobytes()
    assert run.states().tobytes() == want.states().tobytes()


def both(window, p, d, steps, blowup, **kwargs):
    init = HistoryState(window)
    return (model._iterate(init, p, d, steps, blowup, **kwargs),
            per_step_bound(init, p, d, steps, blowup, **kwargs))


def spread_out(rng, row, scale):
    """``row`` with its private outputs spread by up to ``scale`` around
    ``row[1]`` and their mean, as the kernel takes it, equal to ``row[1]``
    bit for bit (tried 20 times, else ``row`` as it is): from a row of
    equal private outputs the aggregate start stays the same."""
    for _ in range(20):
        moved = row.copy()
        moved[1:] += rng.uniform(-scale, scale, row.size - 1)
        moved[1:] -= moved[1:].mean() - row[1]
        if moved[1:].mean() == row[1]:
            return moved
    return row


def settled_window(p, d):
    """A window on the fixed point as the orbit reaches it: its aggregate
    repeats bit for bit, so the kernel finds a cycle at step 64."""
    return simulate(p, d, default_initial_history(p, d), 20000).final_window.copy()


class TestAgainstPerStepBound:
    def test_random_asymmetric_windows(self):
        """Starts near the equilibrium, every other one with its aggregate
        on it exactly (where rounding soon leaves an exact cycle), a third
        with tau2 past the look at step 64 and deviations in the newest
        rows only (which arrive in the repeated rest), and bounds from
        below the largest state of the orbit to 1e6: each way a run can
        end occurs."""
        rng = np.random.default_rng(24)
        kinds = {"bounded": 0, "cut_in_rest": 0, "cut_before_cycle": 0, "cut_no_cycle": 0}
        for k in range(600):
            p = draw_market(rng, n_max=6, alpha_range=(0.3, 1.8))
            if p.n < 2:
                continue
            tau2 = int(rng.integers(0, 5)) if k % 3 else int(rng.integers(64, 100))
            d = DelayConfig(*rng.integers(0, 5, size=2).tolist(), tau2)
            depth = d.tau_max + 1
            window = np.tile(positive_equilibrium(p).point, (depth, 1))
            if k % 2:
                window *= 1.0 + rng.uniform(-0.05, 0.05, window.shape)
            scale = 5.0 ** rng.uniform(-3.0, 1.0)
            for row in window[depth - int(rng.integers(1, 4)) if tau2 >= 64 else 0 :]:
                row[:] = spread_out(rng, row, scale)
            steps = int(rng.integers(1, 400))
            iters = int(rng.integers(0, steps + 1))
            transient = int(rng.integers(0, iters)) if iters else 0
            free = model._iterate(HistoryState(window), p, d, steps, DEFAULT_BLOWUP)
            states = np.abs(free.states(depth))
            mean = np.abs(model._column(free.mean, depth, free.size, free.onset))
            low, top = max(states[:, 0].max(), mean.max()), states.max()
            if k % 4 != 3 and np.isfinite(top):
                # between the largest aggregate and the largest private output
                blowup = top - rng.uniform(0.0, 1.0) * abs(top - low)
            else:
                blowup = 10.0 ** rng.uniform(np.log10(1.5), 6.0)
            run, want = both(window, p, d, steps, blowup, tangent_iters=iters, transient=transient)
            assert_same_run(run, want)
            if run.diverged_at is None:
                kinds["bounded"] += 1
            elif run.period:
                kinds["cut_in_rest"] += 1
            elif free.period:
                kinds["cut_before_cycle"] += 1
            else:
                kinds["cut_no_cycle"] += 1
        assert min(kinds.values()) >= 5, kinds

    def test_private_cut_before_any_aggregate_violation(self):
        """A chaotic aggregate that stays inside the bound for 3000 steps,
        and a start deviation that carries a private output out of it at
        step tau2 + 1 = 2, where the first newest-row deviation arrives."""
        p, d = SEC4_CHAOS, DelayConfig(1, 1, 1)
        window = default_initial_history(p, d).window.copy()
        window[-1, 1:] += [5.0, -5.0, 2.5, -2.5]
        depth, blowup = d.tau_max + 1, 1.5
        free = model._iterate(HistoryState(window), p, d, 3000, DEFAULT_BLOWUP)
        assert free.diverged_at is None and not free.period
        assert max(np.abs(free.q0).max(), np.abs(free.mean).max()) <= blowup
        assert np.abs(free.states(depth, depth + 2)).max() > blowup
        run, want = both(window, p, d, 3000, blowup, tangent_iters=3000, transient=100)
        assert run.diverged_at == 2 and run.size == depth + 2
        assert_same_run(run, want)

    @pytest.mark.parametrize("tau2", [70, 100])
    def test_cut_in_the_repeated_rest(self, tau2):
        """The aggregate repeats from the start, and the deviation of the
        newest window row first shows at step tau2 + 1, past the look at
        step 64: the cut lies in the repeated rest, and the cycle stays."""
        p, d = MarketParams(b=1.0, delta=0.5, alpha=1.0, n=2, a0=1.0, a1=2.4), DelayConfig(0, 3, tau2)
        window = settled_window(p, d)
        window[-1, 1:] += [0.5, -0.5]
        depth = d.tau_max + 1
        free = model._iterate(HistoryState(window), p, d, 300, DEFAULT_BLOWUP)
        blowup = 0.5 * (np.abs(free.states(depth, depth + tau2)).max()
                        + np.abs(free.states(depth + tau2, depth + tau2 + 1)).max())
        run, want = both(window, p, d, 300, blowup, tangent_iters=300, transient=10)
        assert run.diverged_at == tau2 + 1 and run.period and run.onset <= depth + 64
        assert_same_run(run, want)

    @pytest.mark.parametrize("tau2", [2, 63])
    def test_cut_before_the_cycle_drops_it(self, tau2):
        """The loop finds the cycle at step 64, but a private output leaves
        the bound at step tau2 + 1, before or at that step: the run keeps
        no cycle."""
        p, d = MarketParams(b=1.0, delta=0.5, alpha=1.0, n=2, a0=1.0, a1=2.4), DelayConfig(1, 0, tau2)
        window = settled_window(p, d)
        window[-1, 1:] += [0.5, -0.5]
        depth = d.tau_max + 1
        free = model._iterate(HistoryState(window), p, d, 300, DEFAULT_BLOWUP)
        assert free.period and free.onset + free.period == depth + 64
        blowup = 0.5 * (np.abs(free.states(depth, depth + tau2)).max()
                        + np.abs(free.states(depth + tau2, depth + tau2 + 1)).max())
        run, want = both(window, p, d, 300, blowup, tangent_iters=300, transient=10)
        assert run.diverged_at == tau2 + 1 and run.onset is None and run.period == 0
        assert len(run.q0) == len(run.mean) == run.size == depth + tau2 + 1
        assert_same_run(run, want)
