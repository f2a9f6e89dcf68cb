"""Closed-form equilibria of the delayed Cournot map and their positivity checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, ValidationError
from .model import DelayConfig, HistoryState, MarketParams, step


@dataclass(frozen=True)
class Equilibrium:
    point: np.ndarray
    residual: float


@dataclass(frozen=True)
class AssumptionReport:
    """Signed margins of the two positivity assumptions.

    A.1: [2 + (n-1)delta] * a0 > n * delta * a1  (positive public output)
    A.2: a1 > delta * a0                          (positive private output)
    Margins are left minus right; a flag holds only for a strictly
    positive margin.
    """

    a1_holds: bool
    a2_holds: bool
    a1_margin: float
    a2_margin: float


def check_assumptions(p: MarketParams) -> AssumptionReport:
    a1_margin = p.gamma * p.a0 - p.n * p.delta * p.a1
    a2_margin = p.a1 - p.delta * p.a0
    return AssumptionReport(
        a1_holds=a1_margin > 0.0,
        a2_holds=a2_margin > 0.0,
        a1_margin=a1_margin,
        a2_margin=a2_margin,
    )


def require_assumptions(p: MarketParams, which=("A.1", "A.2")) -> AssumptionReport:
    """Raise AssumptionError naming each requested assumption that fails."""
    report = check_assumptions(p)
    failed = []
    if "A.1" in which and not report.a1_holds:
        failed.append("A.1")
    if "A.2" in which and not report.a2_holds:
        failed.append("A.2")
    if failed:
        raise AssumptionError(
            f"assumption(s) {', '.join(failed)} fail: "
            f"A.1 margin = {report.a1_margin}, A.2 margin = {report.a2_margin}",
            failed=failed,
        )
    return report


def _fixed_point_residual(point: np.ndarray, p: MarketParams) -> float:
    # fixed points do not depend on the delays, so probe with the
    # undelayed map
    d0 = DelayConfig(0, 0, 0)
    history = HistoryState.constant(point, 1)
    return float(np.abs(step(history, p, d0) - point).max())


def boundary_equilibrium(p: MarketParams) -> Equilibrium:
    """Steady state with the public firm shut down.

    Private outputs settle at ``q* = a1 / (b * (2 + (n-1)*delta))``; a
    zero public output is absorbing, so no assumptions are needed.
    """
    q_star = p.a1 / (p.b * p.gamma)
    point = np.full(p.dimension, q_star)
    point[0] = 0.0
    return Equilibrium(point=point, residual=_fixed_point_residual(point, p))


def positive_equilibrium(p: MarketParams) -> Equilibrium:
    """Interior steady state; requires both positivity assumptions."""
    report = require_assumptions(p)
    denom = p.b * (p.gamma - p.n * p.delta**2)
    q0_star = report.a1_margin / denom
    q1_star = report.a2_margin / denom
    point = np.full(p.dimension, q1_star)
    point[0] = q0_star
    return Equilibrium(point=point, residual=_fixed_point_residual(point, p))


def reduced_fixed_point(p: MarketParams) -> Equilibrium:
    """Unique fixed point of the market without the public firm.

    With the public firm removed, each private best response is affine in
    the other private outputs and the coefficient matrix
    ``I + (delta/2)(J - I)`` is nonsingular for delta in (0, 1), so the
    fixed point is unique and symmetric: every coordinate equals
    ``a1 / (b * (2 + (n-1)*delta))``.
    """
    if p.n < 2:
        raise ValidationError(f"reduced system needs n >= 2 private firms, got n={p.n}")
    q = p.a1 / (p.b * p.gamma)
    point = np.full(p.n, q)
    total = point.sum()
    image = p.a1 / (2.0 * p.b) - 0.5 * p.delta * (total - point)
    residual = float(np.abs(image - point).max())
    return Equilibrium(point=point, residual=residual)
