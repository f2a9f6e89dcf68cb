"""Per-firm reference integration of the delayed map, for the tests.

The library integrates the exact aggregate reduction (public output and
mean private output, with the private deviations in closed form).  This
module steps all n + 1 firms literally, as the map is written, and
carries a per-firm tangent window; the tests compare the library against
it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from cournotlab import DelayConfig, HistoryState, MarketParams, classify_attractor


@dataclass(frozen=True)
class Run:
    """What ``iterate`` saw: the window rows followed by every new state."""

    states: np.ndarray
    diverged_at: Optional[int]
    log_stretch: float
    measured: int
    collapsed_at: Optional[int]


def initial_tangent(depth: int, m: int) -> np.ndarray:
    flat = 1.0 + 0.5 * np.sin(np.arange(depth * m) + 1.0)
    flat /= np.linalg.norm(flat)
    return flat.reshape(depth, m)


def iterate(
    window, p: MarketParams, d: DelayConfig, steps: int, blowup: float,
    tangent_iters: int = 0, transient: int = 0, tangent=None,
) -> Run:
    """Iterate ``steps`` times from the per-firm ``window``, stopping at the
    first state that is not finite or exceeds ``blowup`` in absolute value.

    Over the first ``tangent_iters`` steps a per-firm tangent window (by
    default ``initial_tangent``) follows the exact linearization.  It is
    renormalized every 64 steps before step ``transient`` and at it, then
    at every step, logging the norms after ``transient``.
    """
    depth = d.tau_max + 1
    m = p.dimension
    buf = np.empty((depth + steps, m))
    buf[:depth] = window
    vbuf = np.empty((depth + tangent_iters, m))
    if tangent_iters:
        vbuf[:depth] = initial_tangent(depth, m) if tangent is None else tangent

    a0, a1, b, delta, alpha = p.a0, p.a1, p.b, p.delta, p.alpha
    half_delta = 0.5 * delta
    base = a1 / (2.0 * b)
    l0, l1, l2 = 1 + d.tau0, 1 + d.tau1, 1 + d.tau2

    diverged_at = collapsed_at = None
    acc = 0.0
    measured = 0
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

        own = 1.0 + alpha * (a0 - 2.0 * b * q0 - b * delta * s1)
        cross = alpha * b * delta * q0
        vbuf[t, 0] = own * vbuf[t - 1, 0] - cross * vbuf[t - l1, 1:].sum()
        upriv2 = vbuf[t - l2, 1:]
        vbuf[t, 1:] = -half_delta * vbuf[t - l0, 0] - half_delta * (upriv2.sum() - upriv2)
        window_now = vbuf[t - depth + 1 : t + 1]
        if i < transient and i % 64:
            continue
        norm = np.linalg.norm(window_now)
        if norm < 1.0e-300:
            collapsed_at, tangent_iters = i, 0
            continue
        if i > transient:
            acc += math.log(norm)
            measured += 1
        window_now /= norm

    return Run(buf[: depth + (diverged_at or steps)], diverged_at, acc, measured, collapsed_at)


@dataclass(frozen=True)
class Cell:
    """A reference diagram row: samples, exponent, label, escape flag and
    the step the orbit escaped at (None if it stayed bounded)."""

    samples: np.ndarray
    lle: float
    label: str
    diverged: bool
    diverged_at: Optional[int]
    collapsed: bool


def cell(p, d, spec, alpha: float, init: HistoryState, tangent=None) -> Cell:
    """The diagram row of ``diagram_cell`` from one per-firm integration."""
    pa = dataclasses.replace(p, alpha=alpha)
    depth = d.tau_max + 1
    steps = spec.transient + spec.samples
    run = iterate(init.window, pa, d, max(steps, spec.lyap_iters), spec.blowup,
                  spec.lyap_iters, spec.lyap_transient, tangent=tangent)
    samples = run.states[depth : depth + steps, 0][-spec.samples :].copy()
    collapsed = run.collapsed_at is not None
    if run.diverged_at is not None and run.diverged_at <= steps:
        return Cell(samples, float("nan"), "Divergent", True, run.diverged_at, collapsed)
    lle = float("nan") if run.diverged_at is not None or collapsed else (
        run.log_stretch / run.measured)
    return Cell(samples, lle, classify_attractor(samples).label, False, run.diverged_at,
                collapsed)
