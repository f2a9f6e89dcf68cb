"""Delayed Cournot market with one public firm and n private firms.

The public firm adjusts its output along its marginal social surplus with
speed ``alpha``, reacting to private outputs observed ``tau1`` steps ago.
Each private firm best-responds to the public output observed ``tau0``
steps ago and to the other private outputs observed ``tau2`` steps ago.
The state of the delayed map is a rolling window of the last
``tau_max + 1`` output vectors.

All operations here are pure: they never mutate their inputs and contain
no randomness, so identical inputs produce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, ValidationError

DEFAULT_BLOWUP = 1.0e6

# tolerance for cross-checking (a, c0, c) against explicitly given (a0, a1)
_GAP_CONSISTENCY_TOL = 1.0e-12


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

    def advanced(self, q_next) -> "HistoryState":
        """New history after appending ``q_next`` and dropping the oldest row."""
        q_next = np.asarray(q_next, dtype=float)
        return HistoryState(np.vstack([self.window[1:], q_next]), time=self.time + 1)


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


def _public_slopes(q0, s1, p: MarketParams, alpha) -> tuple[float, float]:
    """The state-dependent Jacobian entries: A[0,0] = dq0'/dq0(t) and the
    B1[0,1:] entry -dq0'/dq_i(t - tau1), with ``s1`` = sum_i q_i(t - tau1),
    at adjustment speed ``alpha`` (a float, or an array of lanes)."""
    own = 1.0 + alpha * (p.a0 - 2.0 * p.b * q0 - p.b * p.delta * s1)
    cross = alpha * p.b * p.delta * q0
    return own, cross


@dataclass(frozen=True)
class _Run:
    """What ``_iterate`` saw: the window rows followed by every new state."""

    states: np.ndarray
    diverged_at: Optional[int]
    log_stretch: float
    measured: int
    collapsed_at: Optional[int]


def _initial_tangent(depth: int, m: int) -> np.ndarray:
    # deterministic direction with unequal components so that every
    # eigendirection of the embedded Jacobian is excited
    flat = 1.0 + 0.5 * np.sin(np.arange(depth * m) + 1.0)
    flat /= np.linalg.norm(flat)
    return flat.reshape(depth, m)


def _iterate(
    init: HistoryState, p: MarketParams, d: DelayConfig, steps: int, blowup: float,
    tangent_iters: int = 0, transient: int = 0, renorm_interval: int = 1,
) -> _Run:
    """The delayed map for one lane (``_iterate_lanes`` is its batched twin).

    Iterates ``steps`` times from ``init`` and stops at the first step
    (``diverged_at``) whose new state is not finite or exceeds ``blowup``
    in absolute value; that state is kept.  Over the first
    ``tangent_iters`` steps the exact linearization also carries one
    tangent window.  It is rescaled without logging every 64 steps before
    step ``transient`` and once at it, then every ``renorm_interval``
    steps and at the last one, summing the logged norms over ``measured``
    steps.  A checked norm under 1e-300 stops the tangent
    (``collapsed_at``) but not the orbit.
    """
    _check_window(init, p, d)
    depth = d.tau_max + 1
    m = p.dimension
    buf = np.empty((depth + steps, m))
    buf[:depth] = init.window
    vbuf = np.empty((depth + tangent_iters, m))
    if tangent_iters:
        vbuf[:depth] = _initial_tangent(depth, m)

    a0, a1, b, delta, alpha = p.a0, p.a1, p.b, p.delta, p.alpha
    half_delta = 0.5 * delta
    base = a1 / (2.0 * b)
    l0, l1, l2 = 1 + d.tau0, 1 + d.tau1, 1 + d.tau2

    diverged_at = collapsed_at = None
    acc = 0.0
    measured = since_renorm = 0
    for i in range(1, steps + 1):
        t = depth + i - 1
        q0 = buf[t - 1, 0]
        s1 = buf[t - l1, 1:].sum()
        buf[t, 0] = q0 + alpha * q0 * (a0 - b * q0 - b * delta * s1)
        priv2 = buf[t - l2, 1:]
        buf[t, 1:] = base - half_delta * buf[t - l0, 0] - half_delta * (priv2.sum() - priv2)
        top = np.abs(buf[t]).max()
        if top > blowup or not math.isfinite(top):
            diverged_at = i
            break
        if i > tangent_iters:
            continue

        own, cross = _public_slopes(q0, s1, p, alpha)
        vbuf[t, 0] = own * vbuf[t - 1, 0] - cross * vbuf[t - l1, 1:].sum()
        upriv2 = vbuf[t - l2, 1:]
        vbuf[t, 1:] = -half_delta * vbuf[t - l0, 0] - half_delta * (upriv2.sum() - upriv2)
        window = vbuf[t - depth + 1 : t + 1]
        if i == transient:
            # measurement baseline: rescale once without logging
            window /= np.linalg.norm(window)
            continue
        if i > transient:
            since_renorm += 1
            if since_renorm < renorm_interval and i < tangent_iters:
                continue
        elif i % 64:
            continue
        norm = np.linalg.norm(window)
        if norm < 1.0e-300:
            collapsed_at, tangent_iters = i, 0
            continue
        if i > transient:
            acc += math.log(norm)
            measured += since_renorm
            since_renorm = 0
        window /= norm

    return _Run(buf[: depth + (diverged_at or steps)], diverged_at, acc, measured, collapsed_at)


# bytes one ``_iterate_lanes`` call may hold in its q0 record and its
# rolling buffer; a longer grid of lanes runs in chunks
LANE_BUDGET = 1 << 26
# steps the rolling buffer of ``_iterate_lanes`` holds past the delay window
_LANE_ROWS = 256


@dataclass(frozen=True)
class _LaneRun:
    """What ``_iterate_lanes`` saw, one entry (or row of ``q0``) per lane.

    ``q0`` holds the public output after steps 1..record, NaN past an
    escape; ``diverged_at`` and ``collapsed_at`` are 0 where nothing
    happened.  ``measured`` counts the logged steps of every lane whose
    orbit stayed bounded and whose tangent did not collapse.
    """

    q0: np.ndarray
    diverged_at: np.ndarray
    log_stretch: np.ndarray
    measured: int
    collapsed_at: np.ndarray


def _lanes_per_call(d: DelayConfig, m: int, record: int) -> int:
    """Lanes one ``_iterate_lanes`` call takes within ``LANE_BUDGET``."""
    lane_bytes = 8 * (record + 2 * m * (d.tau_max + 1 + _LANE_ROWS))
    return max(1, LANE_BUDGET // lane_bytes)


def _lane_sums(rows: np.ndarray) -> np.ndarray:
    # per-lane sums of an (n, lanes) block over a lane-major copy: numpy's
    # pairwise summation then adds each lane's n contiguous values as it
    # does in ``_iterate`` (a lanes-last reduction differs for n >= 8)
    return np.add.reduce(rows.T.copy(), axis=1)


def _rolled(buf: np.ndarray, t: int, depth: int, cols) -> np.ndarray:
    # a fresh rolling buffer starting with rows t - depth + 1 .. t of buf,
    # at the columns ``cols``
    window = buf[t - depth + 1 : t + 1, :, cols]
    fresh = np.empty((depth + _LANE_ROWS,) + window.shape[1:])
    fresh[:depth] = window
    return fresh


def _iterate_lanes(
    init: HistoryState, p: MarketParams, d: DelayConfig, alphas, steps: int, blowup: float,
    tangent_iters: int, transient: int, record: int,
) -> _LaneRun:
    """``_iterate`` for a vector of adjustment speeds (lanes), all from
    ``init``, with ``renorm_interval`` 1, recording q0 over the first
    ``record`` steps.

    The buffer holds a rolling stretch of steps by n + 1 coordinates by
    lanes, lanes last: the W working orbits, then, over the first
    ``tangent_iters`` steps, their W tangents, so that the private rows
    and the lag sums run once for both.  Each lane keeps ``_iterate``'s
    arithmetic bit for bit: the sums run over lane-major copies, a tangent
    private row starts from -0.0 where an orbit row starts from
    a1/(2b) (-0.0 - x equals -x, signed zeros included), a norm is the
    square root of the BLAS dot of the lane's contiguous window, as in
    ``np.linalg.norm``, and its log is ``math.log``.  A lane leaves the
    working set at the step its orbit escapes; a tangent whose checked
    norm falls under 1e-300 stays zero and is no longer logged.
    """
    _check_window(init, p, d)
    depth = d.tau_max + 1
    m = p.dimension
    a0, a1, b, delta = p.a0, p.a1, p.b, p.delta
    half_delta = 0.5 * delta
    base = a1 / (2.0 * b)
    l0, l1, l2 = 1 + d.tau0, 1 + d.tau1, 1 + d.tau2

    alpha = np.array(alphas, dtype=float)
    width = alpha.size
    q0 = np.full((width, record), np.nan)
    diverged_at = np.zeros(width, dtype=int)
    collapsed_at = np.zeros(width, dtype=int)
    log_stretch = np.zeros(width)
    lanes = np.arange(width)  # the original index of each working lane
    acc = np.zeros(width)

    tangent = tangent_iters > 0
    buf = np.empty((depth + _LANE_ROWS, m, 2 * width if tangent else width))
    buf[:depth, :, :width] = init.window[:, :, None]
    if tangent:
        buf[:depth, :, width:] = _initial_tangent(depth, m)[:, :, None]
    t = depth - 1
    measured = 0
    collapsed = False
    start = np.empty(0)
    for i in range(1, steps + 1):
        if tangent and i > tangent_iters:
            tangent = False
            buf, t = _rolled(buf, t, depth, slice(0, width)), depth - 1
        if t + 1 == buf.shape[0]:
            buf, t = _rolled(buf, t, depth, slice(None)), depth - 1
        if start.size != buf.shape[2]:
            # a private row starts from a1/(2b) on an orbit, -0.0 on a tangent
            start = np.full(buf.shape[2], base)
            start[width:] = -0.0
        t += 1
        row = buf[t]
        sums1 = _lane_sums(buf[t - l1, 1:])
        sums2 = sums1 if l2 == l1 else _lane_sums(buf[t - l2, 1:])
        prev = buf[t - 1, 0]
        q, s1 = prev[:width], sums1[:width]
        row[0, :width] = q + alpha * q * (a0 - b * q - b * delta * s1)
        if tangent:
            own, cross = _public_slopes(q, s1, p, alpha)
            row[0, width:] = own * prev[width:] - cross * sums1[width:]
        np.subtract(
            start - half_delta * buf[t - l0, 0],
            half_delta * (sums2 - buf[t - l2, 1:]),
            out=row[1:],
        )

        if i <= record:
            q0[lanes, i - 1] = row[0, :width]
        top = np.maximum.reduce(np.abs(row[:, :width]), axis=None)
        if top > blowup or not math.isfinite(top):
            tops = np.abs(row[:, :width]).max(axis=0)
            escaped = (tops > blowup) | ~np.isfinite(tops)
            diverged_at[lanes[escaped]] = i
            keep = np.flatnonzero(~escaped)
            cols = np.concatenate([keep, width + keep]) if tangent else keep
            buf, t = _rolled(buf, t, depth, cols), depth - 1
            lanes, alpha, acc, width = lanes[keep], alpha[keep], acc[keep], keep.size
            if not width:
                break
        if not tangent or (i < transient and i % 64):
            continue

        window = buf[t - depth + 1 : t + 1, :, width:]
        # np.vecdot runs numpy's BLAS dot on each lane's contiguous window,
        # the dot np.linalg.norm takes of the raveled window in ``_iterate``
        flat = window.transpose(2, 0, 1).copy().reshape(width, -1)
        norm = np.sqrt(np.vecdot(flat, flat))
        norms = norm.tolist()
        if i != transient and min(norms) < 1.0e-300:
            collapsed = True
            collapsed_at[lanes[(norm < 1.0e-300) & (collapsed_at[lanes] == 0)]] = i
        if collapsed:
            dead = collapsed_at[lanes] > 0
            window[:, :, dead] = 0.0
            norm[dead] = 1.0
            norms = norm.tolist()
        if i > transient:
            acc += [math.log(x) for x in norms]
            measured += 1
        window /= norm

    log_stretch[lanes] = acc
    return _LaneRun(q0, diverged_at, log_stretch, measured, collapsed_at)


def step(history: HistoryState, p: MarketParams, d: DelayConfig) -> np.ndarray:
    """One iteration of the delayed map, returning the next output vector.

    The public output follows
    ``q0' = q0 + alpha*q0*(a0 - b*q0 - b*delta*sum_i q_i(t - tau1))``
    and each private output follows
    ``q_j' = a1/(2b) - (delta/2)*q0(t - tau0) - (delta/2)*sum_{i != j} q_i(t - tau2)``.
    Negative outputs are propagated as-is; the map does not clamp.
    """
    return _iterate(history, p, d, 1, math.inf).states[-1].copy()


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
    run = _iterate(init, p, d, steps, blowup)
    depth = d.tau_max + 1
    diverged = run.diverged_at is not None
    return Trajectory(
        outputs=run.states[depth - 1 :].copy(),
        start_time=init.time,
        diverged=diverged,
        diverged_at=init.time + run.diverged_at if diverged else None,
        final_window=run.states[-depth:].copy(),
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
    own, cross = _public_slopes(
        point.current[0], point.lookback(d.tau1)[1:].sum(), p, p.alpha
    )

    A = np.zeros((m, m))
    A[0, 0] = own

    B0 = np.zeros((m, m))
    B0[1:, 0] = 0.5 * p.delta

    B1 = np.zeros((m, m))
    B1[0, 1:] = cross

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
