"""Nonlinear exploration: sweeps over the adjustment speed, largest
Lyapunov exponents via exact tangent propagation, attractor typing and
phase portraits.

Everything is deterministic by construction.  The default initial
condition is a constant history at the interior equilibrium with a
+1e-2 bump on the public output only; no random number generator is
used anywhere.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .equilibria import positive_equilibrium
from .errors import DivergenceError, NumericalError, ValidationError
from .model import (
    DEFAULT_BLOWUP, DelayConfig, HistoryState, MarketParams, _column, _iterate, simulate,
)

DEFAULT_PERTURBATION = 1.0e-2
PERIOD_TOL = 1.0e-6
PERIOD_KMAX = 64


class InitPolicy(enum.Enum):
    FRESH_PERTURBED = "FreshPerturbed"
    CONTINUED = "Continued"


@dataclass(frozen=True)
class SweepSpec:
    """Grid and sampling plan for a sweep over the adjustment speed."""

    alpha_min: float
    alpha_max: float
    num_alpha: int
    transient: int = 2000
    samples: int = 200
    policy: InitPolicy = InitPolicy.FRESH_PERTURBED
    perturbation: float = DEFAULT_PERTURBATION
    blowup: float = DEFAULT_BLOWUP
    lyap_transient: int = 1000
    lyap_iters: int = 20000

    def __post_init__(self):
        if self.num_alpha < 2:
            raise ValidationError(f"need at least 2 grid points, got {self.num_alpha}")
        if not self.alpha_min < self.alpha_max:
            raise ValidationError(f"empty alpha range [{self.alpha_min}, {self.alpha_max}]")
        if not 0 <= self.lyap_transient < self.lyap_iters:
            raise ValidationError(
                f"need 0 <= lyap_transient < lyap_iters, got lyap_transient={self.lyap_transient}"
                f" and lyap_iters={self.lyap_iters}"
            )
        # a bounded cell is typed by classify_attractor, which needs two
        # samples: checked here, so a sweep whose cells all escape fails too
        if self.transient < 1 or self.samples < 2:
            raise ValidationError(
                f"need transient >= 1 and samples >= 2, got transient={self.transient}"
                f" and samples={self.samples}"
            )
        _check_perturbation(self.perturbation)
        if not self.blowup > 0.0:
            raise ValidationError(f"blowup must be positive, got {self.blowup}")

    @property
    def alphas(self) -> np.ndarray:
        return np.linspace(self.alpha_min, self.alpha_max, self.num_alpha)


def _check_perturbation(perturbation: float) -> None:
    if not math.isfinite(perturbation):
        raise ValidationError(f"perturbation must be finite, got {perturbation}")


@dataclass(frozen=True)
class LyapunovEstimate:
    lle: float
    iters: int
    transient: int


class AttractorType(enum.Enum):
    FIXED_POINT = "FixedPoint"
    PERIODIC = "PeriodK"
    APERIODIC = "AperiodicOrQuasiperiodic"
    DIVERGENT = "Divergent"


@dataclass(frozen=True)
class AttractorSummary:
    kind: AttractorType
    period: Optional[int]

    @property
    def label(self) -> str:
        if self.kind is AttractorType.PERIODIC:
            return f"Period{self.period}"
        return self.kind.value


def default_initial_history(
    p: MarketParams, d: DelayConfig, perturbation: float = DEFAULT_PERTURBATION
) -> HistoryState:
    """Constant history at the interior equilibrium, public output bumped
    by the finite ``perturbation``."""
    _check_perturbation(perturbation)
    point = positive_equilibrium(p).point.copy()
    point[0] += perturbation
    return HistoryState.constant(point, d.tau_max + 1)


def classify_attractor(samples) -> AttractorSummary:
    """Type a sampled scalar orbit by minimal-lag recurrence.

    A period k <= PERIOD_KMAX is accepted only if the samples recur
    within PERIOD_TOL at lag k and at no smaller lag; a lag-1 recurrence
    that is not an outright fixed point indicates unfinished transient
    drift and is reported as aperiodic.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValidationError("need at least 2 samples to classify")
    if samples.max() - samples.min() <= PERIOD_TOL:
        return AttractorSummary(AttractorType.FIXED_POINT, None)
    size = samples.size
    lags = np.arange(1, min(PERIOD_KMAX, size - 1) + 1)
    # row k - 1 compares s[j + k] with s[j]; the indices past the end of
    # the orbit (j + k >= size) are clipped, then masked out of the maximum
    later = lags[:, None] + np.arange(size)
    gaps = np.abs(np.take(samples, later, mode="clip") - samples)
    worst = np.max(gaps, axis=1, where=later < size, initial=0.0)
    hits = lags[worst <= PERIOD_TOL]
    if hits.size and hits[0] > 1:  # a first hit at lag 1 is drift, not yet settled
        return AttractorSummary(AttractorType.PERIODIC, int(hits[0]))
    return AttractorSummary(AttractorType.APERIODIC, None)


def largest_lyapunov(
    p: MarketParams,
    d: DelayConfig,
    init: HistoryState,
    iters: int = SweepSpec.lyap_iters,
    transient: int = SweepSpec.lyap_transient,
    *,
    blowup: float = DEFAULT_BLOWUP,
) -> LyapunovEstimate:
    """Largest Lyapunov exponent in nats per iteration.

    Propagates one tangent window of the aggregate state through the exact
    linearization along the orbit (only the public-firm row depends on the
    state), renormalizing it every 64 steps and averaging the logged
    stretch factors over the ``iters - transient`` measured steps;
    ``transient`` must lie in ``[0, iters)``.  With n >= 2 the
    private deviations from their mean add the rate ln(delta/2)/(tau2 + 1),
    and the larger of the two is returned.

    Raises DivergenceError if the orbit leaves the blow-up bound, which
    must be positive.
    """
    if not 0 <= transient < iters:
        raise ValidationError(
            f"need 0 <= transient < iters, got transient={transient}, iters={iters}"
        )
    run = _iterate(init, p, d, iters, blowup, tangent_iters=iters, transient=transient)
    if run.collapsed_at is not None:
        raise NumericalError("tangent vector collapsed to zero")
    if run.diverged_at is not None:
        raise DivergenceError(
            f"orbit left the blow-up bound at step {run.diverged_at} (|q| > {blowup})"
        )
    return LyapunovEstimate(lle=_exponent(run, p, d), iters=iters, transient=transient)


def _exponent(run, p: MarketParams, d: DelayConfig) -> float:
    # the aggregate rate, or the closed-form rate of the private deviations
    # (d_j(t+1) = (delta/2) d_j(t - tau2)) where that is larger
    lle = run.log_stretch / run.measured
    if p.n > 1:
        lle = max(lle, math.log(0.5 * p.delta) / (d.tau2 + 1))
    return lle


@dataclass(frozen=True)
class DiagramRow:
    """One adjustment-speed cell of a bifurcation diagram."""

    alpha: float
    samples: np.ndarray
    lle: float
    attractor: AttractorSummary
    diverged: bool


def diagram_cell(
    p: MarketParams, d: DelayConfig, spec: SweepSpec, alpha: float, init: HistoryState
) -> tuple[DiagramRow, Optional[HistoryState]]:
    """Compute one diagram row; returns the row and the continuation state.

    One pass integrates the orbit for the samples and carries the tangent
    for the exponent; an orbit that escapes after its samples but within
    ``lyap_iters`` steps keeps its row and gets ``lle = nan``.
    """
    pa = dataclasses.replace(p, alpha=alpha)
    depth = d.tau_max + 1
    steps = spec.transient + spec.samples
    run = _iterate(
        init, pa, d, max(steps, spec.lyap_iters), spec.blowup,
        tangent_iters=spec.lyap_iters, transient=spec.lyap_transient,
    )
    end = min(run.size, depth + steps)
    samples = np.array(_column(run.q0, max(depth, end - spec.samples), end, run.onset))
    if run.diverged_at is not None and run.diverged_at <= steps:
        divergent = AttractorSummary(AttractorType.DIVERGENT, None)
        return DiagramRow(alpha, samples, float("nan"), divergent, diverged=True), None
    if run.collapsed_at is not None:
        raise NumericalError("tangent vector collapsed to zero")

    lle = float("nan") if run.diverged_at is not None else _exponent(run, pa, d)
    row = DiagramRow(alpha, samples, lle, classify_attractor(samples), diverged=False)
    return row, HistoryState(run.states(steps, steps + depth), time=init.time + steps)


def fresh_rows(p: MarketParams, d: DelayConfig, spec: SweepSpec, alphas) -> list[DiagramRow]:
    """The rows of the fresh-perturbed policy at ``alphas``, in order:
    one ``diagram_cell`` per alpha, each from the same bumped equilibrium."""
    init = default_initial_history(p, d, spec.perturbation)
    return [diagram_cell(p, d, spec, float(alpha), init)[0] for alpha in alphas]


def bifurcation_diagram(p: MarketParams, d: DelayConfig, spec: SweepSpec) -> list[DiagramRow]:
    """Sweep the adjustment speed and record post-transient public outputs.

    Under the fresh-perturbed policy every cell restarts from the bumped
    equilibrium (``fresh_rows``); under the continued policy each cell
    starts from the previous cell's final window (restarting fresh after a
    divergent cell).  Rows are always ordered by grid index.
    """
    if spec.policy is InitPolicy.FRESH_PERTURBED:
        return fresh_rows(p, d, spec, spec.alphas)
    rows = []
    carried: Optional[HistoryState] = None
    for alpha in spec.alphas:
        init = carried if carried is not None else default_initial_history(p, d, spec.perturbation)
        row, carried = diagram_cell(p, d, spec, float(alpha), init)
        rows.append(row)
    return rows


@dataclass(frozen=True)
class PhasePortrait:
    """Post-transient (q0, q1) orbit projection."""

    points: np.ndarray
    diverged: bool


def phase_portrait(
    p: MarketParams,
    d: DelayConfig,
    transient: int = SweepSpec.transient,
    samples: int = SweepSpec.samples,
    perturbation: float = DEFAULT_PERTURBATION,
    blowup: float = DEFAULT_BLOWUP,
) -> PhasePortrait:
    """The ``samples`` (q0(t), q1(t)) pairs after ``transient`` steps at the
    adjustment speed ``p.alpha``."""
    if transient < 1 or samples < 1:
        raise ValidationError("transient and samples must both be >= 1")
    init = default_initial_history(p, d, perturbation)
    traj = simulate(p, d, init, transient + samples, blowup=blowup)
    # skip row 0, the start; a bounded orbit's samples never reach it
    pts = traj.outputs[1:, :2][-samples:]
    return PhasePortrait(points=pts.copy(), diverged=traj.diverged)
