"""The map's two scalar loops against the loops as first written.

``model._iterate`` reads its delayed entries by precomputed negative
index, and ``model._Tangent`` takes the tangent step's coefficients,
gain(t) and pull(t), in one vector pass over the record.  Both keep every
float expression in its operation order, so a run must equal, bit for
bit, one made by ``reference_iterate``: the loops with each coefficient
evaluated inside the step in Python floats, as they were first written.
"""

import dataclasses
import math

import numpy as np
import pytest

from cournotlab import (DEFAULT_BLOWUP, DelayConfig, NumericalError, default_initial_history,
                        flip_boundary)
from cournotlab import model
from cournotlab.bifurcation import ns_boundary

from conftest import draw_stable_market, sec4_at


class ReferenceTangent(model._Tangent):
    """``model._Tangent`` with the coefficients of each step evaluated in
    the step loop itself."""

    def __init__(self, p, d, q, mean, onset, iters, transient):
        super().__init__(p, d, q, mean, onset, iters, transient)
        n, b, alpha = p.n, p.b, p.alpha
        bd = b * p.delta
        half = 0.5 * p.delta
        self.coef = (n, alpha, b, bd, 1.0 + alpha * p.a0, alpha * bd * math.sqrt(n),
                     half, half * math.sqrt(n), n - 1, 1 + d.tau0, 1 + d.tau1, 1 + d.tau2)

    def _orbit(self, lo, hi):
        depth, l1 = self.depth, self.coef[-2]
        return (model._column(self.q, depth + lo - 2, depth + hi - 1, self.onset),
                model._column(self.mean, depth + lo - 1 - l1, depth + hi - l1, self.onset))

    def advance(self, lo, hi):
        n, alpha, b, bd, own0, cross, half, half_root, others, l0, l1, l2 = self.coef
        v, y, scale, acc = self.v, self.y, self.scale, self.acc
        depth, iters, transient = self.depth, self.iters, self.transient
        steps = zip(*self._orbit(lo, hi))
        at = lo - 1
        while at < hi:
            end = min(hi, at - at % 64 + 64, transient if transient > at else hi)
            for _ in range(end - at):
                q_now, mean1 = next(steps)
                total1 = n * mean1
                v.append((own0 - alpha * (2.0 * b * q_now + bd * total1)) * v[-1]
                         - cross * q_now * y[-l1])
                y.append(-half_root * v[-1 - l0] - half * (others * y[-l2]))
            del v[:-depth], y[:-depth]
            if at >= transient:
                self.since_renorm += end - at
            at = end
            if end % 64 and end != transient and end != iters:
                continue
            norm = math.hypot(*v, *y)
            stretch = norm / scale
            if stretch < 1.0e-300:
                self.collapsed_at = end
                break
            if end > transient:
                acc += math.log(stretch)
                self.measured += self.since_renorm
                self.since_renorm = 0
            scale = norm
            if not 1.0e-6 < norm < 1.0e6:
                v = [u / norm for u in v]
                y = [u / norm for u in y]
                scale = 1.0
        self.v, self.y, self.scale, self.acc = v, y, scale, acc

    def period_map(self, at, period):
        n, alpha, b, bd, own0, cross, half, half_root, others, l0, l1, l2 = self.coef
        depth = self.depth
        v = np.zeros((depth + period, 2 * depth))
        y = np.zeros((depth + period, 2 * depth))
        v[:depth, :depth] = y[:depth, depth:] = np.eye(depth)
        for t, q_now, mean1 in zip(range(depth, depth + period), *self._orbit(at + 1, at + period)):
            total1 = n * mean1
            v[t] = (own0 - alpha * (2.0 * b * q_now + bd * total1)) * v[t - 1] - cross * q_now * y[t - l1]
            y[t] = -half_root * v[t - l0] - half * (others * y[t - l2])
        return np.vstack([v[period:], y[period:]])


def reference_iterate(init, p, d, steps, blowup, tangent_iters=0, transient=0):
    """``model._iterate`` with the orbit step written as it was first:
    every delayed read negates its lag, the counts enter as ints and the
    bound is taken through ``abs``; the tangent is ``ReferenceTangent``."""
    depth = d.tau_max + 1
    n, a0, b, alpha = p.n, p.a0, p.b, p.alpha
    bd = b * p.delta
    half = 0.5 * p.delta
    base = p.a1 / (2.0 * b)
    others = n - 1
    l0, l1, l2 = 1 + d.tau0, 1 + d.tau1, 1 + d.tau2
    bound = min(blowup, np.finfo(float).max)

    q, mean, spread = model._split(init.window, d, steps, half)
    diverged_at = None
    period = 0
    for start in range(0, steps, 64):
        for i in range(start + 1, min(start + 64, steps) + 1):
            q_now = q[-1]
            total1 = n * mean[-l1]
            q_new = q_now + alpha * q_now * (a0 - b * q_now - bd * total1)
            mean_new = base - half * q[-l0] - half * (others * mean[-l2])
            q.append(q_new)
            mean.append(mean_new)
            if not (abs(q_new) <= bound and abs(mean_new) <= bound):
                diverged_at = i
                break
        if diverged_at is not None:
            break
        if not i % 64:
            period = model._period(q, mean, depth)
            if period:
                break
    onset = len(q) - period if period else None
    done = steps if diverged_at is None else diverged_at
    assert spread is None  # the starts here are symmetric

    log_stretch, measured, collapsed_at, tangent = 0.0, 0, None, ([], [])
    if tangent_iters:
        carried = ReferenceTangent(p, d, q, mean, onset, tangent_iters, transient)
        carried.carry(min(tangent_iters, done if diverged_at is None else done - 1), period)
        log_stretch, measured = carried.acc, carried.measured
        collapsed_at, tangent = carried.collapsed_at, (carried.v, carried.y)
    return model._Run(init.window, q, mean, spread, diverged_at, log_stretch, measured,
                      collapsed_at, tangent, depth + done, onset, period)


def bits(value):
    """``value`` with every float as its hex form and every array as its
    dtype, shape and bytes: equal exactly when equal bit for bit."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(bits(x) for x in value)
    if isinstance(value, float):
        return value.hex()
    return value


def assert_same_run(run, want):
    for name in model._Run._fields:
        assert bits(getattr(run, name)) == bits(getattr(want, name)), name


def first_crossings(p, d):
    """The flip alpha and the smallest Neimark-Sacker alpha, each None
    where there is none at a positive alpha."""
    ns = [pt.alpha_crit for pt in ns_boundary(p, d)]
    try:
        flip = flip_boundary(p, d).alpha_crit
    except NumericalError:
        flip = None
    return flip, min(ns) if ns else None


def block_edge_schedule(rng):
    """``lyap_iters`` off the 64-step grid, and a transient one step
    before, on or after a renormalization step inside it."""
    iters = 64 * int(rng.integers(2, 40)) + int(rng.integers(1, 64))
    edge = 64 * int(rng.integers(1, iters // 64))
    return iters, edge + int(rng.integers(-1, 2))


class TestAgainstReference:
    def test_seeded_draws(self):
        """Markets with n from 1 to 9 and delays from 0 to 30, at alpha
        inside the stable range, on the flip, on the first Neimark-Sacker
        crossing and past the first crossing: each way a run can end, and a
        periodic jump, occurs."""
        rng = np.random.default_rng(29)
        kinds = {"bounded": 0, "escaped_inside_a_block": 0, "jumped": 0}
        places = ("stable", "flip", "ns", "escaping")
        for k in range(160):
            p = draw_stable_market(rng, n_max=9)
            d = DelayConfig(*rng.integers(0, 31, size=3).tolist())
            flip, ns = first_crossings(p, d)
            # alpha 4 stands in for the first crossing where there is none
            first = min(a for a in (flip, ns, 4.0) if a is not None)
            alpha = {"stable": first * rng.uniform(0.3, 0.97), "flip": flip or first,
                     "ns": ns or first, "escaping": first * rng.uniform(1.2, 3.0)}[places[k % 4]]
            p = dataclasses.replace(p, alpha=alpha)
            iters, transient = block_edge_schedule(rng)
            steps = iters + int(rng.integers(0, 200))
            init = default_initial_history(p, d)
            kwargs = dict(tangent_iters=iters, transient=transient)
            run = model._iterate(init, p, d, steps, DEFAULT_BLOWUP, **kwargs)
            assert_same_run(run, reference_iterate(init, p, d, steps, DEFAULT_BLOWUP, **kwargs))
            if run.diverged_at is None:
                kinds["bounded"] += 1
            elif run.diverged_at % 64:
                kinds["escaped_inside_a_block"] += 1
            if run.period and run.onset - (d.tau_max + 1) < iters - run.period:
                kinds["jumped"] += 1
        assert min(kinds.values()) >= 10, kinds

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_firm_count(self, n):
        """sec4's b, a0 and a1 with delta 0.15, so that (n - 1)*delta/2 < 1
        up to n = 9; delays (2, 1, 3), just past the first crossing, a
        transient on a renormalization step."""
        p = model.MarketParams(b=1.0, delta=0.15, alpha=1.0, n=n, a0=2.0, a1=2.5)
        d = DelayConfig(2, 1, 3)
        flip, ns = first_crossings(p, d)
        p = dataclasses.replace(p, alpha=1.02 * min(flip, ns or flip))
        init = default_initial_history(p, d)
        kwargs = dict(tangent_iters=3001, transient=1024)
        assert_same_run(model._iterate(init, p, d, 3100, DEFAULT_BLOWUP, **kwargs),
                        reference_iterate(init, p, d, 3100, DEFAULT_BLOWUP, **kwargs))

    @pytest.mark.parametrize("transient", [63, 64, 65])
    def test_periodic_jump(self, transient):
        """sec4 at (0, 1, 0), alpha 1.4: the record repeats early, and the
        tangent crosses whole periods by powers of the period map."""
        p, d = sec4_at(1.4), DelayConfig(0, 1, 0)
        init = default_initial_history(p, d)
        kwargs = dict(tangent_iters=6001, transient=transient)
        run = model._iterate(init, p, d, 6001, DEFAULT_BLOWUP, **kwargs)
        assert run.period and run.onset < 1000
        assert_same_run(run, reference_iterate(init, p, d, 6001, DEFAULT_BLOWUP, **kwargs))

    def test_period_maps_agree(self):
        """The period map itself, over every stretch of one period that the
        repeated record offers."""
        p, d = sec4_at(1.4), DelayConfig(0, 1, 0)
        run = model._iterate(default_initial_history(p, d), p, d, 6001, DEFAULT_BLOWUP)
        start = run.onset - (d.tau_max + 1)
        for at in range(start, start + run.period):
            tangents = [cls(p, d, run.q0, run.mean, run.onset, 6001, 0)
                        for cls in (model._Tangent, ReferenceTangent)]
            got, want = (t.period_map(at, run.period) for t in tangents)
            assert got.tobytes() == want.tobytes()

    def test_zero_tangent_collapses(self, monkeypatch):
        """A zero start direction collapses at the first renormalization,
        on both sides, while the orbit runs on."""
        monkeypatch.setattr(model, "_initial_tangent", lambda depth: ([0.0] * depth, [0.0] * depth))
        p, d = sec4_at(1.48), DelayConfig(1, 1, 1)
        init = default_initial_history(p, d)
        kwargs = dict(tangent_iters=1000, transient=10)
        run = model._iterate(init, p, d, 1000, DEFAULT_BLOWUP, **kwargs)
        assert run.collapsed_at == 10 and run.diverged_at is None
        assert_same_run(run, reference_iterate(init, p, d, 1000, DEFAULT_BLOWUP, **kwargs))
