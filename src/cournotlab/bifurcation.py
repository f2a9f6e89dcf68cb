"""Stability-loss boundaries of the interior equilibrium.

Closed forms locate every crossing: the flip condition with its four
delay-parity cases and the unit-circle crossing curve for
Neimark-Sacker points.  The first loss of stability over an alpha
bracket is the smallest of these candidates above the bracket start,
certified by the reduced polynomial's root moduli on either side.
"""

from __future__ import annotations

import cmath
import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from .equilibria import check_assumptions, require_assumptions
from .errors import (
    DegenerateBoundaryError,
    NoCrossingError,
    NotStableAtStartError,
    NumericalError,
    ValidationError,
)
from .model import DelayConfig, MarketParams
from .spectral import EpsilonTriple, coupling_epsilons, k_factor, reduced_char_poly

THETA_MIN = 1.0e-3
NS_RESIDUAL_TOL = 1.0e-8
CERTIFICATE_STEP = 1.0e-4
# the largest crossing-angle grid ns_boundary evaluates; each point costs
# about 38 bytes at once
THETA_POINTS_MAX = 1 << 20


class BifurcationKind(enum.Enum):
    FLIP = "Flip"
    NEIMARK_SACKER = "NeimarkSacker"


@dataclass(frozen=True)
class ParityCase:
    """Parities of tau0 + tau1 and tau2, which set the flip-condition signs."""

    sum_parity: int
    tau2_parity: int

    @classmethod
    def from_delays(cls, d: DelayConfig) -> "ParityCase":
        return cls(sum_parity=d.tau_sum % 2, tau2_parity=d.tau2 % 2)

    @property
    def sign_sum(self) -> int:
        return -1 if self.sum_parity else 1

    @property
    def sign_tau2(self) -> int:
        return -1 if self.tau2_parity else 1


@dataclass(frozen=True)
class BifurcationPoint:
    alpha_crit: float
    kind: BifurcationKind
    theta: float
    eps1: float
    residual: float


def _residual_on_circle(eps: EpsilonTriple, d: DelayConfig, lam: complex) -> float:
    return float(abs(reduced_char_poly(eps, d)(lam)))


def flip_boundary(p: MarketParams, d: DelayConfig) -> BifurcationPoint:
    """Adjustment speed at which a root of the reduced polynomial sits at -1.

    The critical eps1 is
    ``(1 - eps2*s2 - eps0*s) / (1 - eps2*s2 + eps0*s)`` with
    ``s = (-1)^(tau0+tau1)`` and ``s2 = (-1)^tau2``, converted to alpha
    through the k factor.
    """
    require_assumptions(p, which=("A.1",))
    parity = ParityCase.from_delays(d)
    eps0, eps2 = coupling_epsilons(p)
    s = parity.sign_sum
    s2 = parity.sign_tau2

    denom = 1.0 - eps2 * s2 + eps0 * s
    if abs(denom) < 1.0e-12:
        raise DegenerateBoundaryError(
            f"flip condition degenerate: 1 - eps2*{s2} + eps0*{s} = {denom}"
        )
    eps1 = (1.0 - eps2 * s2 - eps0 * s) / denom
    alpha = (eps1 + 1.0) / k_factor(p)
    if alpha <= 0.0:
        raise NumericalError(
            f"flip condition gives nonpositive adjustment speed alpha = {alpha}"
        )
    residual = _residual_on_circle(EpsilonTriple(eps0, eps1, eps2), d, -1.0 + 0.0j)
    return BifurcationPoint(
        alpha_crit=alpha,
        kind=BifurcationKind.FLIP,
        theta=math.pi,
        eps1=eps1,
        residual=residual,
    )


def _crossing_gain(theta: float, eps0: float, eps2: float, tau: int, tau2: int) -> complex:
    """eps1 that puts e^{i*theta} on the reduced polynomial's root set.

    Derived by solving the reduced characteristic equation for eps1 at
    lambda = e^{i*theta}; the result is real exactly on the crossing
    curve.
    """
    lam = cmath.exp(1j * theta)
    h = cmath.exp(1j * (tau + 1) * theta) + eps2 * cmath.exp(1j * (tau - tau2) * theta)
    denom = eps0 - h
    if abs(denom) < 1.0e-14:
        return complex(np.inf, np.inf)
    return (lam * h - eps0) / denom


def _crossing_angle_equation(theta, eps0: float, eps2: float, tau: int, tau2: int):
    """Real equation whose interior roots are unit-circle crossing angles.

    This is the imaginary part of the eps1 ratio cleared of its positive
    denominator and divided by 2*sin(theta/2), which removes the forced
    zero at theta = 0.  The identity at theta = pi remains (the equation
    is real there), so flips are excluded by the scan window instead.
    ``theta`` is a float or an array of angles.
    """
    return (
        eps0 * np.cos((tau + 1.5) * theta)
        + eps0 * eps2 * np.cos((tau - tau2 + 0.5) * theta)
        - np.cos(0.5 * theta)
        * (1.0 + eps2**2 + 2.0 * eps2 * np.cos((tau2 + 1) * theta))
    )


def ns_boundary(
    p: MarketParams,
    d: DelayConfig,
    scan_points: int = 4096,
) -> list[BifurcationPoint]:
    """All interior unit-circle crossings of the reduced polynomial.

    Evaluates the crossing-angle equation on ``scan_points`` angles over
    (THETA_MIN, pi - THETA_MIN) in one array call, bisects only the grid
    intervals whose end values change sign to 1e-10 in theta, recovers
    the real eps1 from the crossing gain, converts it to alpha and keeps
    only points with positive alpha whose crossing root verifies against
    the reduced polynomial to 1e-8.  An empty list means no interior
    crossing exists.  Raises ValidationError unless
    ``2 <= scan_points <= THETA_POINTS_MAX``.
    """
    if not 2 <= scan_points <= THETA_POINTS_MAX:
        raise ValidationError(
            f"theta_points must lie in [2, {THETA_POINTS_MAX}], got {scan_points}"
        )
    require_assumptions(p, which=("A.1",))
    eps0, eps2 = coupling_epsilons(p)
    tau = d.tau_sum
    tau2 = d.tau2
    kfac = k_factor(p)

    grid = np.linspace(THETA_MIN, math.pi - THETA_MIN, scan_points)
    values = _crossing_angle_equation(grid, eps0, eps2, tau, tau2)
    head, tail = values[:-1], values[1:]
    brackets = np.flatnonzero((head == 0.0) | (head * tail < 0.0))

    angles = []
    for i in brackets.tolist():
        lo, hi = grid[i], grid[i + 1]
        flo = values[i]
        if flo == 0.0:
            angles.append(lo)
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo < 1.0e-10:
                break
            fmid = _crossing_angle_equation(mid, eps0, eps2, tau, tau2)
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        angles.append(0.5 * (lo + hi))
    if values[-1] == 0.0:
        angles.append(grid[-1])

    points = []
    for theta in angles:
        ratio = _crossing_gain(theta, eps0, eps2, tau, tau2)
        if not np.isfinite(ratio.real) or abs(ratio.imag) > NS_RESIDUAL_TOL:
            continue
        eps1 = ratio.real
        alpha = (eps1 + 1.0) / kfac
        if alpha <= 0.0:
            continue
        lam = cmath.exp(1j * theta)
        residual = _residual_on_circle(EpsilonTriple(eps0, eps1, eps2), d, lam)
        if residual > NS_RESIDUAL_TOL:
            continue
        points.append(
            BifurcationPoint(
                alpha_crit=alpha,
                kind=BifurcationKind.NEIMARK_SACKER,
                theta=theta,
                eps1=eps1,
                residual=residual,
            )
        )
    points.sort(key=lambda pt: pt.theta)
    return points


def _max_modulus(eps0: float, eps2: float, eps1: float, d: DelayConfig) -> float:
    cp = reduced_char_poly(EpsilonTriple(eps0, eps1, eps2), d)
    return float(np.abs(np.roots(cp.coeffs[::-1])).max())


def critical_alpha(
    p: MarketParams, d: DelayConfig, alpha_range: tuple[float, float]
) -> BifurcationPoint:
    """First loss of stability of the interior equilibrium over an alpha bracket.

    Roots of the reduced polynomial reach the unit circle only at the
    flip point, at a Neimark-Sacker point or at lambda = 1, and
    P(1) = (eps1 + 1)(eps0 - 1 - eps2) vanishes only at alpha = 0.  So
    when the equilibrium is stable at the bracket start, the first loss
    is the smallest closed-form candidate of ``flip_boundary`` and
    ``ns_boundary`` in ``(alpha_lo, alpha_hi]``, returned as it is.  The
    maximal root modulus certifies the result: below one at the bracket
    start and ``CERTIFICATE_STEP`` before the crossing, above one
    ``CERTIFICATE_STEP`` after it.  Raises NotStableAtStartError,
    NoCrossingError when no candidate lies in the bracket, and
    NumericalError when the certificate fails.
    """
    require_assumptions(p, which=("A.1",))
    alpha_lo, alpha_hi = alpha_range
    if not alpha_lo < alpha_hi:
        raise ValidationError(f"empty alpha bracket {alpha_range}")
    eps0, eps2 = coupling_epsilons(p)
    kfac = k_factor(p)

    def modulus_at(alpha: float) -> float:
        return _max_modulus(eps0, eps2, alpha * kfac - 1.0, d)

    m0 = modulus_at(alpha_lo)
    if m0 >= 1.0:
        raise NotStableAtStartError(
            f"max root modulus {m0:.6f} >= 1 at the bracket start alpha = {alpha_lo}"
        )
    candidates = ns_boundary(p, d)
    try:
        candidates.append(flip_boundary(p, d))
    except NumericalError:
        pass  # degenerate or nonpositive flip condition: no flip candidate
    inside = [pt for pt in candidates if alpha_lo < pt.alpha_crit <= alpha_hi]
    if not inside:
        raise NoCrossingError(
            f"no modulus-1 crossing of the reduced polynomial in alpha bracket {alpha_range}"
        )
    first = min(inside, key=lambda pt: pt.alpha_crit)
    c = first.alpha_crit
    below = modulus_at(max(alpha_lo, c - CERTIFICATE_STEP))
    above = modulus_at(c + CERTIFICATE_STEP)
    if not below < 1.0 < above:
        raise NumericalError(
            f"crossing at alpha = {c} fails its certificate: max root modulus "
            f"{below} before it and {above} after it"
        )
    return first


@dataclass(frozen=True)
class StabilityRegionRow:
    """One product-differentiation sample of the delay-independent region."""

    delta: float
    alpha_max: float
    feasible: bool
    a1_holds: bool
    a2_holds: bool


def stability_region(p: MarketParams, delta_grid, n: int | None = None) -> list[StabilityRegionRow]:
    """Upper stability boundary alpha_max(delta) of the zero-delay region.

    For each delta the boundary is ``(1 + eps1_bound) / k_factor`` where
    eps1_bound is the zero-delay stability limit; rows where eps2 >= 1 or
    a positivity assumption fails carry alpha_max = nan and a false
    feasibility flag.
    """
    n = p.n if n is None else n
    rows = []
    for delta in np.asarray(delta_grid, dtype=float):
        if not 0.0 < delta < 1.0:
            raise ValidationError(f"delta grid value {delta} outside (0, 1)")
        q = dataclasses.replace(p, delta=float(delta), n=n)
        report = check_assumptions(q)
        eps0, eps2 = coupling_epsilons(q)
        feasible = report.a1_holds and report.a2_holds and eps2 < 1.0
        if feasible:
            bound = (1.0 - eps2 - eps0) / (1.0 - eps2 + eps0)
            alpha_max = (1.0 + bound) / k_factor(q)
        else:
            alpha_max = float("nan")
        rows.append(
            StabilityRegionRow(
                delta=float(delta),
                alpha_max=alpha_max,
                feasible=feasible,
                a1_holds=report.a1_holds,
                a2_holds=report.a2_holds,
            )
        )
    return rows
