"""Stability-loss boundaries of the interior equilibrium.

Closed forms locate every crossing: the flip condition with its four
delay-parity cases, and the Neimark-Sacker angles as the real roots of
one polynomial in cos(theta), found without a grid.  Both read the
reduced polynomial from ``spectral`` (``flip_gain`` and the five terms of
``reduced_terms``) and write out none of their own.  Each crossing moves
roots of the reduced polynomial across the unit circle in a direction
its derivatives give, so the number of roots outside the circle at any
alpha is a signed sum over the crossings below it (D-decomposition with
stability switches, Cooke & Grossman 1982), with no root extraction.
The first loss of stability over an alpha bracket is the smallest
candidate above the bracket start, certified by that count.  Each
candidate carries its residual |P| from the same terms: at lambda = -1
in real arithmetic for the flip, and from the P0 and P1 the search
already holds for a Neimark-Sacker point, which is kept only when that
residual is at most NS_RESIDUAL_TOL.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from .equilibria import check_assumptions, require_assumptions
from .errors import (
    NoCrossingError,
    NotStableAtStartError,
    NumericalError,
    ValidationError,
)
from .model import DelayConfig, MarketParams
# reduced_char_poly is not called here; it stays reachable as
# bifurcation.reduced_char_poly, where perfbench/spans.py counts the
# polynomials built inside critical_alpha
from .spectral import coupling_epsilons, flip_gain, k_factor, reduced_char_poly, reduced_terms

NS_RESIDUAL_TOL = 1.0e-8
# an eigenvalue of the colleague matrix whose imaginary part is at most
# this is a real root of the crossing polynomial, to be polished on H
REAL_ROOT_TOL = 1.0e-6
# a root this close to cos(theta) = -1 is the flip's lambda = -1 itself:
# H has a forced zero there, and the crossing polynomial has one only
# where -1 is a double root of the reduced polynomial (a 1:2 resonance)
FLIP_ROOT_TOL = 1.0e-12
# |P'(-1)| relative to the sum of |n * c_n| at or below which the flip's
# lambda = -1 is a double root of the reduced polynomial
DOUBLE_ROOT_TOL = 1.0e-10
# the most Newton steps on H that polish the crossing angles
POLISH_STEPS = 8


class BifurcationKind(enum.Enum):
    FLIP = "Flip"
    NEIMARK_SACKER = "NeimarkSacker"


@dataclass(frozen=True)
class BifurcationPoint:
    alpha_crit: float
    kind: BifurcationKind
    theta: float
    eps1: float
    residual: float


def _derivative(coeffs, powers, lam, order: int = 0):
    """The ``order``-th lambda-derivative of sum(coeffs * lam**powers) at
    the scalar ``lam``."""
    return sum(
        c * math.perm(n, order) * lam ** (n - order)
        for c, n in zip(coeffs.tolist(), powers.tolist())
        if n >= order
    )


def flip_boundary(p: MarketParams, d: DelayConfig) -> BifurcationPoint:
    """Adjustment speed at which a root of the reduced polynomial sits at -1.

    The critical eps1 is ``spectral.flip_gain`` with the signs
    ``s = (-1)^(tau0+tau1)`` and ``s2 = (-1)^tau2``, converted to alpha
    through the k factor.  The residual is |P(-1)| at that eps1, summed
    from the terms of ``reduced_terms`` in real arithmetic.
    """
    require_assumptions(p, which=("A.1",))
    eps0, eps2 = coupling_epsilons(p)
    eps1 = flip_gain(eps0, eps2, s=-1 if d.tau_sum % 2 else 1, s2=-1 if d.tau2 % 2 else 1)
    alpha = (eps1 + 1.0) / k_factor(p)
    if alpha <= 0.0:
        raise NumericalError(
            f"flip condition gives nonpositive adjustment speed alpha = {alpha}"
        )
    base, slope, powers = reduced_terms(eps0, eps2, d)
    return BifurcationPoint(
        alpha_crit=alpha,
        kind=BifurcationKind.FLIP,
        theta=math.pi,
        eps1=eps1,
        residual=abs(_derivative(base + eps1 * slope, powers, -1.0)),
    )


def _sine_terms(base, slope, powers):
    """H(theta) = Im(-P0 * conj(P1)) on the unit circle, for P0 and P1 the
    ``base`` and ``slope`` terms, as sum(weights * sin(freqs * theta)).

    Each product base_i * slope_j adds a sine of the lag p_i - p_j, folded
    to the frequency |p_i - p_j| with the lag's sign; frequency 0 drops out.
    """
    lags = np.subtract.outer(powers, powers).ravel()
    folded = np.bincount(np.abs(lags), weights=-np.sign(lags) * np.outer(base, slope).ravel())
    freqs = np.flatnonzero(folded)
    return folded[freqs], freqs


def _crossing_polynomial(weights, freqs) -> np.ndarray:
    """Chebyshev coefficients of G(x) = H(theta) / sin(theta), x = cos(theta),
    for H(theta) = sum(weights * sin(freqs * theta)).

    sin(k theta) / sin(theta) is the Chebyshev polynomial of the second
    kind U_(k-1)(cos theta) = 2 * (T_(k-1) + T_(k-3) + ...), a sum that
    ends at T_1 for even k and at T_0, counted once, for odd k.  So G is
    exact, with no sampling.
    """
    coeffs = np.zeros(freqs.max())
    for w, k in zip(weights.tolist(), freqs.tolist()):
        coeffs[k - 1 :: -2] += 2.0 * w
        if k % 2:
            coeffs[0] -= w
    return np.trim_zeros(coeffs, "b")


def ns_boundary(p: MarketParams, d: DelayConfig) -> list[BifurcationPoint]:
    """All interior unit-circle crossings of the reduced polynomial.

    Split the terms of ``reduced_terms`` as P = P0 + eps1 * P1 (``base``
    and ``slope``): eps1 = -P0/P1 is real on the unit circle exactly where
    H(theta) = Im(-P0 * conj(P1)) vanishes.  H is a sum of sines
    (``_sine_terms``), so G = H / sin(theta) is a polynomial of degree
    D = max(tau0+tau1, tau2) + 1 in x = cos(theta) with exact Chebyshev
    coefficients.  Its real roots in [-1, 1] (``chebroots``, the
    eigenvalues of the colleague matrix) are every candidate angle, with
    no grid and no window.  A root within FLIP_ROOT_TOL of x = -1
    (theta = pi) is the flip and is left out.  Each angle is polished by
    Newton steps on H, and P0 and P1 are evaluated there once: eps1 is
    the real part of -P0/P1, converted to alpha, and the residual is
    |P0 + eps1 * P1|, which equals |Im(-P0/P1)| * |P1| in exact
    arithmetic.  One gate keeps a point: a residual of at most
    NS_RESIDUAL_TOL, with positive alpha and 0 < theta < pi.  The points
    are sorted by angle.  An empty list means no interior crossing exists.
    """
    require_assumptions(p, which=("A.1",))
    eps0, eps2 = coupling_epsilons(p)
    base, slope, powers = reduced_terms(eps0, eps2, d)
    weights, freqs = _sine_terms(base, slope, powers)

    # imported here: numpy.polynomial costs every CLI start about 2 ms and
    # 1 MB, and only the crossing subcommands need it
    from numpy.polynomial import chebyshev

    x = chebyshev.chebroots(_crossing_polynomial(weights, freqs))
    x = x[(np.abs(x.imag) <= REAL_ROOT_TOL) & (np.abs(x.real) <= 1.0)].real
    theta = np.arccos(x[x > -1.0 + FLIP_ROOT_TOL])
    for _ in range(POLISH_STEPS):
        phase = np.multiply.outer(theta, freqs)
        value = (np.sin(phase) * weights).sum(axis=1)
        rate = (np.cos(phase) * (weights * freqs)).sum(axis=1)
        step = np.divide(value, rate, out=np.zeros_like(value), where=rate != 0.0)
        theta = theta - step
        if not np.any(np.abs(step) > 1.0e-15):
            break

    circle = np.exp(1j * np.multiply.outer(theta, powers))
    p0, p1 = (circle * base).sum(axis=1), (circle * slope).sum(axis=1)
    # where P1 vanishes there is no gain: the mask drops the point and
    # keeps the division clear of it
    has_gain = np.abs(p1) >= 1.0e-14
    eps1 = (-p0 / np.where(has_gain, p1, 1.0)).real
    alpha = (eps1 + 1.0) / k_factor(p)
    residual = np.abs(p0 + eps1 * p1)
    keep = (
        has_gain
        & (residual <= NS_RESIDUAL_TOL)
        & (alpha > 0.0)
        & (0.0 < theta)
        & (theta < math.pi)
    )
    order = np.argsort(theta[keep])
    return [
        BifurcationPoint(
            alpha_crit=a, kind=BifurcationKind.NEIMARK_SACKER, theta=t, eps1=e, residual=r
        )
        for t, e, a, r in zip(
            *(column[keep][order].tolist() for column in (theta, eps1, alpha, residual))
        )
    ]


def _switch(eps0: float, eps2: float, d: DelayConfig, pt: BifurcationPoint) -> int:
    """Change in the number of roots outside the unit circle as alpha rises
    through the crossing ``pt``.

    A simple root lambda on the circle moves with
    dlambda/dalpha = -P_alpha / P_lambda, outward when Re(conj(lambda) *
    dlambda/dalpha) > 0; a Neimark-Sacker pair counts twice, the flip's -1
    once.  Where -1 is a double root (P_lambda = 0), the two roots split as
    u = lambda + 1 = +-sqrt(-2 P_alpha Dalpha / P_lambdalambda): real, one
    on each side of the circle, on one side of the crossing, and a complex
    pair on the other, outside when the drift of |lambda|^2 along it,
    Dalpha * (P_alphalambda/b - P_alpha*e/b^2 + P_alpha/b) with
    b = P_lambdalambda/2 and e = P_lambdalambdalambda/6, is positive.
    Derivatives in eps1 stand for those in alpha, which differ by the
    positive k factor.  0 means the direction could not be decided.
    """
    base, slope, powers = reduced_terms(eps0, eps2, d)
    coeffs = base + pt.eps1 * slope
    if pt.kind is BifurcationKind.NEIMARK_SACKER:
        lam = complex(math.cos(pt.theta), math.sin(pt.theta))
        p_lam = _derivative(coeffs, powers, lam, 1)
        if p_lam == 0.0:
            return 0
        speed = -_derivative(slope, powers, lam) / p_lam
        return 2 * int(np.sign((lam.conjugate() * speed).real))

    p_lam = _derivative(coeffs, powers, -1.0, 1)
    p_eps = _derivative(slope, powers, -1.0)
    if abs(p_lam) > DOUBLE_ROOT_TOL * float(np.abs(coeffs * powers).sum()):
        return int(np.sign(p_eps / p_lam))
    b = 0.5 * _derivative(coeffs, powers, -1.0, 2)
    e = _derivative(coeffs, powers, -1.0, 3) / 6.0
    if b == 0.0:
        return 0
    drift = _derivative(slope, powers, -1.0, 1) / b - p_eps * e / b**2 + p_eps / b
    if -p_eps / b > 0.0:  # real split above the crossing, the pair below it
        return 1 - (2 if drift < 0.0 else 0)
    return (2 if drift > 0.0 else 0) - 1


def _candidates(p: MarketParams, d: DelayConfig) -> list[BifurcationPoint]:
    """Every crossing: the Neimark-Sacker points, then the flip if it has a
    positive alpha."""
    candidates = ns_boundary(p, d)
    try:
        candidates.append(flip_boundary(p, d))
    except NumericalError:
        pass  # degenerate or nonpositive flip condition: no flip candidate
    return candidates


def _count(eps0: float, eps2: float, d: DelayConfig, candidates: list, alpha: float) -> int:
    """N(alpha): the roots outside the unit circle, counted from the
    crossings with alpha_c <= alpha (see ``unstable_count``)."""
    if eps2 == 1.0:
        raise NumericalError("eps2 = 1 puts roots on the unit circle at alpha = 0: no count")
    unstable = d.tau2 + 1 if eps2 > 1.0 else 0
    for pt in sorted(
        (pt for pt in candidates if pt.alpha_crit <= alpha), key=lambda pt: pt.alpha_crit
    ):
        unstable += _switch(eps0, eps2, d, pt)
        if unstable < 0:
            raise NumericalError(
                f"the count of roots outside the unit circle is {unstable} past the "
                f"crossing at alpha = {pt.alpha_crit}: the crossing set is incomplete"
            )
    return unstable


def unstable_count(p: MarketParams, d: DelayConfig, alpha: float) -> int:
    """Number of roots of the reduced polynomial outside the unit circle at
    ``alpha``, with no root extraction.

    Roots reach the unit circle only at the flip point, at a
    Neimark-Sacker point or at lambda = 1, and P(1) =
    (eps1 + 1)(eps0 - 1 - eps2) vanishes only at alpha = 0.  As
    alpha -> 0+, P -> -(lambda - 1)(lambda^(tau2+1) + eps2) lambda^(tau0+tau1)
    and the root at 1 moves inside (dlambda/dalpha =
    k (eps0 - 1 - eps2) / (1 + eps2) < 0, as eps0 < 1 + eps2 for delta < 1).
    So N(alpha) = N0 + the sum of ``_switch`` over the candidates of
    ``flip_boundary`` and ``ns_boundary`` with 0 < alpha_c <= alpha, with
    N0 = 0 for eps2 < 1 and tau2 + 1 for eps2 > 1.  Raises NumericalError
    when the count goes negative (an incomplete crossing set) or when
    eps2 = 1 puts roots on the circle at alpha = 0.
    """
    require_assumptions(p, which=("A.1",))
    eps0, eps2 = coupling_epsilons(p)
    return _count(eps0, eps2, d, _candidates(p, d), alpha)


def critical_alpha(
    p: MarketParams, d: DelayConfig, alpha_range: tuple[float, float]
) -> BifurcationPoint:
    """First loss of stability of the interior equilibrium over an alpha bracket.

    The equilibrium is stable at the bracket start when the signed
    crossing count of ``unstable_count`` reads N(alpha_lo) = 0.  The first
    loss is then the smallest candidate of ``flip_boundary`` and
    ``ns_boundary`` in ``(alpha_lo, alpha_hi]``, returned as it is, once
    the residual that either function stored in it is at most
    NS_RESIDUAL_TOL and it moves roots out of the unit circle.  No
    root is extracted.  Raises NotStableAtStartError, NoCrossingError when
    no candidate lies in the bracket, and NumericalError when the
    certificate or the count fails.
    """
    require_assumptions(p, which=("A.1",))
    alpha_lo, alpha_hi = alpha_range
    if not alpha_lo < alpha_hi:
        raise ValidationError(f"empty alpha bracket {alpha_range}")
    eps0, eps2 = coupling_epsilons(p)
    candidates = _candidates(p, d)
    unstable = _count(eps0, eps2, d, candidates, alpha_lo)
    if unstable:
        raise NotStableAtStartError(
            f"{unstable} roots of the reduced polynomial lie outside the unit circle "
            f"at the bracket start alpha = {alpha_lo}"
        )
    inside = [pt for pt in candidates if alpha_lo < pt.alpha_crit <= alpha_hi]
    if not inside:
        raise NoCrossingError(
            f"no modulus-1 crossing of the reduced polynomial in alpha bracket {alpha_range}"
        )
    first = min(inside, key=lambda pt: pt.alpha_crit)
    switch = _switch(eps0, eps2, d, first)
    if not (first.residual <= NS_RESIDUAL_TOL and switch > 0):
        raise NumericalError(
            f"crossing at alpha = {first.alpha_crit} fails its certificate: residual "
            f"{first.residual} and {switch:+d} roots leaving the unit circle"
        )
    return first


@dataclass(frozen=True)
class StabilityRegionRow:
    """One product-differentiation sample of the delay-independent region."""

    delta: float
    alpha_max: float
    feasible: bool


def stability_region(p: MarketParams, delta_grid) -> list[StabilityRegionRow]:
    """Upper stability boundary alpha_max(delta) of the zero-delay region.

    For each delta the boundary is ``(1 + flip_gain(eps0, eps2)) /
    k_factor``, the zero-delay stability limit of eps1 converted to alpha;
    rows where eps2 >= 1 or a positivity assumption fails carry
    alpha_max = nan and a false feasibility flag.  A delta outside (0, 1)
    raises the ValidationError of ``MarketParams``.
    """
    rows = []
    for delta in np.asarray(delta_grid, dtype=float).tolist():
        q = dataclasses.replace(p, delta=delta)
        report = check_assumptions(q)
        eps0, eps2 = coupling_epsilons(q)
        feasible = report.a1_holds and report.a2_holds and eps2 < 1.0
        alpha_max = (1.0 + flip_gain(eps0, eps2)) / k_factor(q) if feasible else math.nan
        rows.append(StabilityRegionRow(delta=delta, alpha_max=alpha_max, feasible=feasible))
    return rows
