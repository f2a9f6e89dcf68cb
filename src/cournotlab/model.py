"""Delayed Cournot market with one public firm and n private firms.

The public firm adjusts its output along its marginal social surplus with
speed ``alpha``, reacting to private outputs observed ``tau1`` steps ago.
Each private firm best-responds to the public output observed ``tau0``
steps ago and to the other private outputs observed ``tau2`` steps ago.
The state of the delayed map is a rolling window of the last
``tau_max + 1`` output vectors.

The public firm sees the private firms only through their total, so the
map is integrated exactly on the aggregate window of (q0, mean private
output) in plain floats, with its tangent on the same two rows.  The
private deviations from the mean obey d_j(t+1) = (delta/2) d_j(t - tau2)
and are rebuilt in closed form; from a start whose private outputs agree
they are exactly 0.

A run integrates its orbit first and its tangent after, reading the
tangent's coefficients from the recorded orbit.  Once the aggregate
window repeats bit for bit (a bitwise periodic onset, most often rounding
jitter around the fixed point), the rest of the orbit is that cycle
repeated, which is exact: the map is deterministic in its window.  The
record is kept up to one cycle, and one reader, ``_column``, gives any
stretch of it, the repeated tail included, to the per-firm states, the
diagram samples, the tangent and the bound check.  The tangent crosses
whole periods as one matrix power, which sums the same log stretch in
another order, so a Lyapunov exponent moves in its last digits; orbits,
samples and windows stay bit for bit the same.

All operations here are pure: they never mutate their inputs and contain
no randomness, so identical inputs produce bit-identical results.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionError, ValidationError

DEFAULT_BLOWUP = 1.0e6

# tolerance for cross-checking (a, c0, c) against explicitly given (a0, a1)
_GAP_CONSISTENCY_TOL = 1.0e-12

# every _CHECK_EVERY steps the orbit looks for a window that repeats one
# at most _PERIOD_MAX steps earlier
_CHECK_EVERY = 64
_PERIOD_MAX = 64


@dataclass(frozen=True)
class MarketParams:
    """Economic parameters of the market.

    Outputs are indexed 0..n with index 0 the public firm.  The demand
    intercept gaps ``a0 = a - c0`` and ``a1 = a - c`` are all the map
    itself needs; the primitives (a, c0, c) are optional and only
    required for prices, profits and social surplus.
    """

    b: float
    delta: float
    alpha: float
    n: int
    a0: Optional[float] = None
    a1: Optional[float] = None
    a: Optional[float] = None
    c0: Optional[float] = None
    c: Optional[float] = None

    def __post_init__(self):
        for name in ("b", "alpha", "a0", "a1", "a", "c0", "c"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if not float(self.b) > 0.0:
            raise ValidationError(f"b must be positive, got {self.b}")
        if not 0.0 < float(self.delta) < 1.0:
            raise ValidationError(f"delta must lie in (0, 1), got {self.delta}")
        if float(self.alpha) < 0.0:
            raise ValidationError(f"alpha must be nonnegative, got {self.alpha}")
        if int(self.n) != self.n or int(self.n) < 1:
            raise ValidationError(f"n must be an integer >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

        primitives = (self.a, self.c0, self.c)
        given = [v is not None for v in primitives]
        if any(given) and not all(given):
            raise ValidationError("give all of (a, c0, c) or none of them")
        if all(given):
            if not (self.a > self.c0 >= self.c >= 0.0):
                raise ValidationError(
                    f"costs must satisfy a > c0 >= c >= 0, got a={self.a}, c0={self.c0}, c={self.c}"
                )
            a0 = self.a - self.c0
            a1 = self.a - self.c
            if self.a0 is not None and abs(self.a0 - a0) > _GAP_CONSISTENCY_TOL:
                raise ValidationError(
                    f"a0={self.a0} inconsistent with a - c0 = {a0}"
                )
            if self.a1 is not None and abs(self.a1 - a1) > _GAP_CONSISTENCY_TOL:
                raise ValidationError(
                    f"a1={self.a1} inconsistent with a - c = {a1}"
                )
            object.__setattr__(self, "a0", a0)
            object.__setattr__(self, "a1", a1)
        else:
            # gap-only form: accept any positive gaps so boundary cases of
            # the positivity assumptions stay constructible
            if self.a0 is None or self.a1 is None:
                raise ValidationError("market needs either (a, c0, c) or (a0, a1)")
            if not (self.a0 > 0.0 and self.a1 > 0.0):
                raise ValidationError(
                    f"intercept gaps must be positive, got a0={self.a0}, a1={self.a1}"
                )

    @property
    def dimension(self) -> int:
        """Number of coordinates of one output vector (n private + 1 public)."""
        return self.n + 1

    @property
    def has_primitives(self) -> bool:
        return self.a is not None

    @property
    def gamma(self) -> float:
        """The recurring denominator 2 + (n-1)*delta of the best responses."""
        return 2.0 + (self.n - 1) * self.delta


@dataclass(frozen=True)
class DelayConfig:
    """The three nonnegative integer information delays."""

    tau0: int = 0
    tau1: int = 0
    tau2: int = 0

    def __post_init__(self):
        for name in ("tau0", "tau1", "tau2"):
            v = getattr(self, name)
            if int(v) != v or v < 0:
                raise ValidationError(f"{name} must be a nonnegative integer, got {v}")
            object.__setattr__(self, name, int(v))

    @property
    def tau_max(self) -> int:
        return max(self.tau0, self.tau1, self.tau2)

    @property
    def tau_sum(self) -> int:
        """Combined public/private reaction delay tau0 + tau1."""
        return self.tau0 + self.tau1


@dataclass(frozen=True)
class HistoryState:
    """Rolling window of the last tau_max + 1 output vectors, newest last."""

    window: np.ndarray
    time: int = 0

    def __post_init__(self):
        w = np.array(self.window, dtype=float)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 2:
            raise DimensionError(
                f"history window must be 2-d with at least one row and two columns, got shape {w.shape}"
            )
        object.__setattr__(self, "window", w)

    @classmethod
    def constant(cls, q, depth: int, time: int = 0) -> "HistoryState":
        """History holding ``depth`` copies of one output vector."""
        q = np.asarray(q, dtype=float)
        return cls(np.tile(q, (depth, 1)), time=time)

    @property
    def depth(self) -> int:
        return self.window.shape[0]

    @property
    def current(self) -> np.ndarray:
        return self.window[-1]

    def lookback(self, k: int) -> np.ndarray:
        """Output vector k steps in the past (k = 0 is the current one)."""
        if not 0 <= k < self.depth:
            raise DimensionError(f"lookback {k} outside window of depth {self.depth}")
        return self.window[-1 - k]


@dataclass(frozen=True)
class Trajectory:
    """Recorded orbit of the map, starting from the initial current state.

    ``outputs[0]`` is the state at ``start_time``; row k is the state at
    ``start_time + k``.  ``diverged`` is set (and iteration stops) as soon
    as a recorded coordinate leaves the blow-up bound or stops being
    finite.  ``final_window`` holds the last tau_max + 1 states, ready to
    seed a continuation run.
    """

    outputs: np.ndarray
    start_time: int
    diverged: bool
    diverged_at: Optional[int]
    final_window: np.ndarray

    @property
    def q0(self) -> np.ndarray:
        return self.outputs[:, 0]

    def __len__(self) -> int:
        return self.outputs.shape[0]


def _check_window(history: HistoryState, p: MarketParams, d: DelayConfig) -> None:
    depth, width = history.window.shape
    if depth != d.tau_max + 1:
        raise DimensionError(
            f"history depth {depth} does not match tau_max + 1 = {d.tau_max + 1}"
        )
    if width != p.dimension:
        raise DimensionError(
            f"history width {width} does not match n + 1 = {p.dimension}"
        )


class _Run(NamedTuple):
    """What ``_iterate`` saw, on the aggregate state.

    The record is the public output and the mean private output of the
    window rows followed by every new state, ``size`` entries of each.
    ``q0`` and ``mean`` hold it as lists or arrays: all of it, or, when the
    orbit became periodic, its first ``onset + period`` entries, after
    which it repeats ``q0[onset:]`` and ``mean[onset:]`` (without a period
    ``onset`` is None and ``period`` 0); ``_column(q0, lo, hi, onset)``
    reads entries ``lo:hi`` either way.  ``spread`` is None when the
    private outputs of the start agree; otherwise it holds the deviations
    from the mean of the last tau2 + 1 window rows, and per new step the
    factor and the row they are carried over from.  ``tangent`` is the
    last tangent window (v, y), oldest first, as carried: divided by its
    norm when that left [1e-6, 1e6] or after a jump over whole periods.
    """

    window: np.ndarray
    q0: list | np.ndarray
    mean: list | np.ndarray
    spread: Optional[tuple]
    diverged_at: Optional[int]
    log_stretch: float
    measured: int
    collapsed_at: Optional[int]
    tangent: tuple
    size: int
    onset: Optional[int]
    period: int

    def states(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Per-firm rows ``lo:hi`` of the run (row tau_max is the start):
        the window rows as given, then each private output as the mean
        plus its deviation."""
        depth, m = self.window.shape
        hi = self.size if hi is None else hi
        out = np.empty((hi - lo, m))
        out[:, 0] = _column(self.q0, lo, hi, self.onset)
        out[:, 1:] = np.asarray(_column(self.mean, lo, hi, self.onset))[:, None]
        first = max(lo, depth)
        if self.spread is not None and hi > first:
            dev, factor, rows = self.spread
            new = slice(first - depth, hi - depth)
            out[first - lo :, 1:] += factor[new, None] * dev[rows[new]]
        if lo < depth:
            out[: depth - lo] = self.window[lo:hi]
        return out


def _agree(rows: list) -> bool:
    """Whether the private outputs (entries 1:) of each row are equal, with
    nan equal to nothing, as ``==`` on the array says."""
    for row in rows:
        first = row[1]
        if first != first:
            return False
        for x in row[2:]:
            if x != first:
                return False
    return True


def _split(window: np.ndarray, d: DelayConfig, steps: int, half_delta: float):
    """The public outputs and private means of the window rows, and the
    ``spread`` of ``_Run`` for ``steps`` new states.

    A deviation d_j = q_j - mean follows d_j(t+1) = (delta/2) d_j(t - tau2),
    so the one at step t is (delta/2)^k times the one at step t - k(tau2 + 1)
    inside the window.  A row whose private outputs agree has mean equal to
    them and deviations exactly 0.
    """
    # the common start, a window whose private outputs agree, is told on
    # Python floats: numpy's fixed cost per call would exceed the work
    rows = window.tolist()
    if _agree(rows):
        return [row[0] for row in rows], [row[1] for row in rows], None
    priv = window[:, 1:]
    flat = (priv == priv[:, :1]).all(axis=1)
    mean = np.where(flat, priv[:, 0], priv.mean(axis=1))
    lag = d.tau2 + 1
    dev = priv[-lag:] - mean[-lag:, None]
    dev[flat[-lag:]] = 0.0
    spread = None
    if dev.any():
        t = np.arange(1, steps + 1)
        periods = -(-t // lag)
        spread = (dev, half_delta**periods, t - periods * lag + lag - 1)
    return window[:, 0].tolist(), mean.tolist(), spread


def _period(q: list, mean: list, depth: int) -> int:
    """The smallest P <= _PERIOD_MAX for which the last ``depth`` entries of
    ``q`` and ``mean`` equal, bit for bit, the ``depth`` entries P places
    earlier, or 0.  The map is deterministic in its window, so from there
    on the record repeats with period P."""
    last = q[-1]
    if last not in q[-1 - _PERIOD_MAX : -1]:
        return 0
    for period in range(1, min(_PERIOD_MAX, len(q) - depth) + 1):
        if q[-1 - period] == last and _same(q, depth, period) and _same(mean, depth, period):
            return period
    return 0


def _same(seq: list, depth: int, period: int) -> bool:
    """Whether the last ``depth`` entries of ``seq`` equal those ``period``
    places earlier bit for bit: by ``==``, which holds for no nan, and by
    the sign of a zero, which ``==`` ignores."""
    for x, y in zip(seq[-depth:], seq[-depth - period : -period]):
        if x != y or (x == 0.0 and math.copysign(1.0, x) != math.copysign(1.0, y)):
            return False
    return True


def _column(seq, lo: int, hi: int, onset: Optional[int]):
    """Entries ``lo:hi`` of the record ``seq`` (``q0`` or ``mean`` of a
    ``_Run``): a slice of it, or a new array where they reach past its end.
    There the record repeats ``seq[onset:]``: entry k is
    ``seq[onset + (k - onset) % period]``, with period ``len(seq) - onset``."""
    if hi <= len(seq):
        return seq[lo:hi]
    first = max(lo, onset)
    period = len(seq) - onset
    at = onset + (first - onset) % period  # the entry that ``first`` repeats
    cycle = np.concatenate((seq[at:], seq[onset:at]))
    whole, part = divmod(hi - first, period)
    out = np.empty(hi - lo)
    out[: first - lo] = seq[lo:first]
    out[first - lo : hi - lo - part].reshape(whole, period)[:] = cycle
    out[hi - lo - part :] = cycle[:part]
    return out


def _initial_tangent(depth: int) -> tuple[list, list]:
    # deterministic direction with unequal components so that every
    # eigendirection of the aggregate embedding is excited
    flat = 1.0 + 0.5 * np.sin(np.arange(2 * depth) + 1.0)
    flat /= np.linalg.norm(flat)
    return flat[0::2].tolist(), flat[1::2].tolist()


class _Tangent:
    """One tangent window (v, y) = (dq0, sqrt(n) dmean) of the aggregate
    map, oldest first, carried along the record ``q``, ``mean`` of a run
    (repeating from ``onset`` past its end) with the renormalization
    schedule of ``_iterate``."""

    def __init__(self, p: MarketParams, d: DelayConfig, q: list, mean: list,
                 onset: Optional[int], iters: int, transient: int, renorm_interval: int):
        self.depth = d.tau_max + 1
        self.q, self.mean, self.onset = q, mean, onset
        self.v, self.y = _initial_tangent(self.depth)
        self.scale = 1.0  # the norm at the last renormalization
        self.acc = 0.0
        self.measured = self.since_renorm = 0
        self.collapsed_at = None
        self.iters, self.transient, self.renorm_interval = iters, transient, renorm_interval
        n, b, alpha = p.n, p.b, p.alpha
        bd = b * p.delta
        half = 0.5 * p.delta
        self.coef = (n, alpha, b, bd, 1.0 + alpha * p.a0, alpha * bd * math.sqrt(n),
                     half, half * math.sqrt(n), n - 1, 1 + d.tau0, 1 + d.tau1, 1 + d.tau2)

    def carry(self, last: int, period: int) -> None:
        """Steps 1..``last``.  After step ``onset - depth`` every step reads
        repeated entries of the record only.  Up to a period past it the
        steps are taken one at a time, landing on the transient by whole
        periods when that lies beyond; then whole periods at once, first
        up to the transient, then to the end; then the rest one at a time."""
        at = last
        if period:
            start = self.onset - self.depth
            transient = self.transient
            at = min(last, start + (transient - start) % period if transient > start else start)
        self.advance(1, at)
        if at == last or self.collapsed_at is not None:
            return
        m, powers = self.period_map(at, period), []
        at = self.jump(m, powers, at, min(self.transient, last), period)
        at = self.jump(m, powers, at, last, period)
        if self.collapsed_at is None:
            self.advance(at + 1, last)

    def _orbit(self, lo: int, hi: int) -> tuple:
        # q0(t) and mean(t - tau1) as steps lo..hi read them
        depth, l1 = self.depth, self.coef[-2]  # the lags l0, l1, l2 end the tuple
        return (_column(self.q, depth + lo - 2, depth + hi - 1, self.onset),
                _column(self.mean, depth + lo - 1 - l1, depth + hi - l1, self.onset))

    def advance(self, lo: int, hi: int) -> None:
        """Steps ``lo..hi``, one at a time."""
        n, alpha, b, bd, own0, cross, half, half_root, others, l0, l1, l2 = self.coef
        v, y, scale, acc = self.v, self.y, self.scale, self.acc
        measured, since_renorm = self.measured, self.since_renorm
        iters, transient, renorm_interval = self.iters, self.transient, self.renorm_interval
        for i, q_now, mean1 in zip(range(lo, hi + 1), *self._orbit(lo, hi)):
            total1 = n * mean1
            v.append((own0 - alpha * (2.0 * b * q_now + bd * total1)) * v[-1] - cross * q_now * y[-l1])
            y.append(-half_root * v[-1 - l0] - half * (others * y[-l2]))
            del v[0], y[0]
            if i > transient:
                since_renorm += 1
                if since_renorm < renorm_interval and i < iters:
                    continue
            elif i < transient and i % 64:
                continue
            norm = math.hypot(*v, *y)
            stretch = norm / scale
            if stretch < 1.0e-300:
                self.collapsed_at = i
                break
            if i > transient:
                acc += math.log(stretch)
                measured += since_renorm
                since_renorm = 0
            scale = norm
            if not 1.0e-6 < norm < 1.0e6:
                v = [u / norm for u in v]
                y = [u / norm for u in y]
                scale = 1.0
        self.v, self.y, self.scale, self.acc = v, y, scale, acc
        self.measured, self.since_renorm = measured, since_renorm

    def period_map(self, at: int, period: int) -> np.ndarray:
        """The matrix M that carries the flat window (v, y) over steps
        ``at + 1 .. at + period``: the identity columns pushed through the
        step of ``advance``."""
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

    def jump(self, m: np.ndarray, powers: list, at: int, end: int, period: int) -> int:
        """Whole periods from step ``at`` towards ``end`` at once, with ``m``
        the period map M there: the window becomes M^k times itself, divided
        by its norm.  M^k is taken by repeated squaring, each power divided
        by its largest entry with the log of it kept; ``powers`` holds these
        (power, log) pairs for the next jump from the same M.  A zero power
        or a zero product is a collapse.  A jump from the transient or later
        adds the log of the stretch since the last renormalization, as one
        at its end would.  Returns the step it lands on."""
        k = (end - at) // period
        if k < 1 or self.collapsed_at is not None:
            return at
        x = np.array(self.v + self.y)
        growth = 0.0
        for j in range(k.bit_length()):
            if j == len(powers):
                if j:
                    square, log_scale = powers[-1]
                    square, log_scale = square @ square, 2.0 * log_scale
                else:
                    square, log_scale = m, 0.0
                top = float(np.abs(square).max())
                if not top > 0.0:
                    break
                powers.append((square / top, log_scale + math.log(top)))
            square, log_scale = powers[j]
            if k >> j & 1:
                x = square @ x
                norm = float(np.linalg.norm(x))
                if not norm > 0.0:
                    break
                x /= norm
                growth += log_scale + math.log(norm)
        else:
            if at >= self.transient:
                self.acc += growth - math.log(self.scale)
                self.measured += self.since_renorm + k * period
                self.since_renorm = 0
            self.scale = 1.0
            depth = len(self.v)
            self.v, self.y = x[:depth].tolist(), x[depth:].tolist()
            return at + k * period
        # the loop broke on a zero power of M or a zero product
        self.collapsed_at = at + k * period
        return self.collapsed_at


def _iterate(
    init: HistoryState, p: MarketParams, d: DelayConfig, steps: int, blowup: float,
    tangent_iters: int = 0, transient: int = 0, renorm_interval: int = 1,
    arrays: bool = False,
) -> _Run:
    """The delayed map on the aggregate state (q0, mean private output).

    The public firm sees the private firms only through their total n*mean,
    so the pair follows
    ``q0' = q0 + alpha*q0*(a0 - b*q0 - b*delta*n*mean(t - tau1))`` and
    ``mean' = a1/(2b) - (delta/2)*q0(t - tau0) - (delta/2)*(n-1)*mean(t - tau2)``,
    in plain floats.  Iterates ``steps`` times from ``init`` and stops at
    the first step (``diverged_at``) whose per-firm state (q0 and every
    mean + deviation) is not finite or exceeds ``blowup`` in absolute
    value; that state is kept.

    The orbit is integrated first.  Every 64 steps it looks for a bitwise
    periodic onset: a window of the last tau_max + 1 entries of q0 and
    mean equal, bit for bit (signed zeros by sign), to the one P <= 64
    steps earlier.  The map is deterministic in its window, so the rest
    of the record is that cycle repeated, and ``_Run`` keeps it implicit
    (``onset``, ``period``).  From a start whose private outputs disagree,
    every state of the repeated rest is still checked against the bound.
    The record is thus exactly the one step-by-step iteration gives.

    Then, over the first ``tangent_iters`` steps, the exact linearization
    carries one tangent window (v, y) = (dq0, sqrt(n) dmean), whose norm is
    the per-firm norm of a symmetric tangent, with coefficients read from
    the record in the same float expressions.  It is renormalized without
    logging every 64 steps before step ``transient`` and once at it, then
    every ``renorm_interval`` steps and at the last one, summing the logged
    stretches over ``measured`` steps.  A renormalization takes the stretch
    of the norm since the previous one; the entries are divided by the norm
    only when it leaves [1e-6, 1e6].  A stretch under 1e-300 stops the
    tangent (``collapsed_at``) but not the orbit.  Past the periodic onset
    whole periods are carried at once, as powers of the period map M (the
    identity pushed through P steps) by repeated squaring with log scales:
    up to the transient without logging, then with the log of the growth
    added to the sum, which telescopes to the same quantity in exact
    arithmetic; a zero M^k times the window is a collapse.  Such a jump
    moves ``log_stretch`` in its last digits; runs without a periodic
    onset step the tangent one step at a time, as they always have.

    The record of q0 and mean is grown as lists of Python floats; with
    ``arrays`` it is returned as float arrays, a quarter of the memory,
    and the lists are freed before the caller builds anything from it.
    """
    _check_window(init, p, d)
    depth = d.tau_max + 1
    n, a0, b, alpha = p.n, p.a0, p.b, p.alpha
    bd = b * p.delta
    half = 0.5 * p.delta
    base = p.a1 / (2.0 * b)
    others = n - 1
    l0, l1, l2 = 1 + d.tau0, 1 + d.tau1, 1 + d.tau2
    # a finite bound, so that one comparison also rejects inf and nan
    bound = min(blowup, sys.float_info.max)

    q, mean, spread = _split(init.window, d, steps, half)
    if spread is not None:
        dev, factor, rows = spread
        tops = factor * dev.max(axis=1)[rows]
        bottoms = factor * dev.min(axis=1)[rows]
        top_list, bottom_list = tops.tolist(), bottoms.tolist()

    diverged_at = None
    period = 0
    for start in range(0, steps, _CHECK_EVERY):
        for i in range(start + 1, min(start + _CHECK_EVERY, steps) + 1):
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
        if not i % _CHECK_EVERY:
            period = _period(q, mean, depth)
            if period:
                break
    onset = len(q) - period if period else None
    if period and spread is not None:
        # the aggregate repeats, but the deviations still decay: bound
        # every per-firm state of the repeated rest as the step would
        rest = np.arange(i + 1, steps + 1)
        later = _column(mean, depth + i, depth + steps, onset)
        inside = (np.abs(later + tops[rest - 1]) <= bound) & (np.abs(later + bottoms[rest - 1]) <= bound)
        if not inside.all():
            diverged_at = int(rest[inside.argmin()])
    done = steps if diverged_at is None else diverged_at

    log_stretch, measured, collapsed_at, tangent = 0.0, 0, None, ([], [])
    if tangent_iters:
        carried = _Tangent(p, d, q, mean, onset, tangent_iters, transient, renorm_interval)
        carried.carry(min(tangent_iters, done if diverged_at is None else done - 1), period)
        log_stretch, measured = carried.acc, carried.measured
        collapsed_at, tangent = carried.collapsed_at, (carried.v, carried.y)

    if arrays:
        q = np.fromiter(q, float, len(q))
        mean = np.fromiter(mean, float, len(mean))
    return _Run(init.window, q, mean, spread, diverged_at, log_stretch, measured, collapsed_at,
                tangent, depth + done, onset, period)


def step(history: HistoryState, p: MarketParams, d: DelayConfig) -> np.ndarray:
    """One iteration of the delayed map, returning the next output vector.

    The public output follows
    ``q0' = q0 + alpha*q0*(a0 - b*q0 - b*delta*sum_i q_i(t - tau1))``
    and each private output follows
    ``q_j' = a1/(2b) - (delta/2)*q0(t - tau0) - (delta/2)*sum_{i != j} q_i(t - tau2)``.
    Negative outputs are propagated as-is; the map does not clamp.
    """
    depth = d.tau_max + 1
    return _iterate(history, p, d, 1, math.inf).states(depth)[0]


def simulate(
    p: MarketParams,
    d: DelayConfig,
    init: HistoryState,
    steps: int,
    blowup: float = DEFAULT_BLOWUP,
) -> Trajectory:
    """Iterate the map ``steps`` times from ``init``.

    Stops early with the divergence flag once any coordinate of a newly
    produced state exceeds ``blowup`` in absolute value or is not finite;
    the offending state is still recorded.  ``blowup`` must be positive.
    """
    if steps < 0:
        raise ValidationError(f"steps must be >= 0, got {steps}")
    if not blowup > 0.0:
        raise ValidationError(f"blowup must be positive, got {blowup}")
    run = _iterate(init, p, d, steps, blowup, arrays=True)
    depth = d.tau_max + 1
    states = run.states()
    diverged = run.diverged_at is not None
    return Trajectory(
        outputs=states[depth - 1 :],
        start_time=init.time,
        diverged=diverged,
        diverged_at=init.time + run.diverged_at if diverged else None,
        final_window=states[-depth:].copy(),
    )


def jacobian_blocks(
    point: HistoryState, p: MarketParams, d: DelayConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient matrices (A, B0, B1, B2) of the linearized map at ``point``.

    The linearization reads
    ``y(t+1) = A y(t) - B0 y(t-tau0) - B1 y(t-tau1) - B2 y(t-tau2)``.
    Only A and B1 depend on the point: A through the public firm's own
    marginal term, B1 through the cross term scaled by the current public
    output.  B0 and B2 are constant structure matrices.
    """
    _check_window(point, p, d)
    m = p.dimension
    q0 = point.current[0]
    s1 = point.lookback(d.tau1)[1:].sum()

    A = np.zeros((m, m))
    A[0, 0] = 1.0 + p.alpha * (p.a0 - 2.0 * p.b * q0 - p.b * p.delta * s1)

    B0 = np.zeros((m, m))
    B0[1:, 0] = 0.5 * p.delta

    B1 = np.zeros((m, m))
    B1[0, 1:] = p.alpha * p.b * p.delta * q0

    B2 = np.zeros((m, m))
    B2[1:, 1:] = 0.5 * p.delta * (np.ones((m - 1, m - 1)) - np.eye(m - 1))

    return A, B0, B1, B2


def embedded_jacobian(point: HistoryState, p: MarketParams, d: DelayConfig) -> np.ndarray:
    """Block-companion Jacobian acting on the stacked window.

    The stacked vector is ``(y(t), y(t-1), ..., y(t-tau_max))``.  The top
    block row carries A at lag 0 and minus each B-matrix at its delay
    (coinciding delays accumulate); identity blocks sit on the
    subdiagonal.  Eigenvalue zero appears with the padding multiplicity
    of the embedding.
    """
    A, B0, B1, B2 = jacobian_blocks(point, p, d)
    m = p.dimension
    depth = d.tau_max + 1
    J = np.zeros((m * depth, m * depth))

    top = np.zeros((depth, m, m))
    top[0] += A
    top[d.tau0] -= B0
    top[d.tau1] -= B1
    top[d.tau2] -= B2
    J[:m] = top.transpose(1, 0, 2).reshape(m, depth * m)
    J[m:, :-m] = np.eye(m * (depth - 1))  # identity blocks on the subdiagonal
    return J


@dataclass(frozen=True)
class EconomicReport:
    """Prices, profits and social surplus for one output vector."""

    prices: np.ndarray
    profits: np.ndarray
    social_surplus: float


def economic_report(q, p: MarketParams) -> EconomicReport:
    """Prices, per-firm profits and social surplus at output vector ``q``.

    Requires the primitive parameters (a, c0, c); the intercept gaps alone
    do not determine price levels.  The surplus is evaluated literally as
    gross utility minus consumer expenditure plus total profits, which
    collapses to utility minus production costs.
    """
    if not p.has_primitives:
        raise ValidationError(
            "economic_report needs primitive parameters (a, c0, c), not only intercept gaps"
        )
    q = np.asarray(q, dtype=float)
    if q.shape != (p.dimension,):
        raise DimensionError(f"expected output vector of shape ({p.dimension},), got {q.shape}")

    total = q.sum()
    prices = p.a - p.b * q - p.b * p.delta * (total - q)
    costs = np.full(p.dimension, p.c)
    costs[0] = p.c0
    profits = (prices - costs) * q

    sum_sq = float(q @ q)
    cross = total * total - sum_sq  # ordered pairs i != j
    utility = p.a * total - 0.5 * p.b * (sum_sq + p.delta * cross)
    social_surplus = utility - float(prices @ q) + float(profits.sum())
    return EconomicReport(prices=prices, profits=profits, social_surplus=social_surplus)
