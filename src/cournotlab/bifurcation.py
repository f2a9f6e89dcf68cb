"""Stability-loss boundaries of the interior equilibrium.

Closed forms locate every crossing: the flip condition with its four
delay-parity cases, and the Neimark-Sacker angles as the real roots of
one polynomial in cos(theta), found without a grid.  Each crossing moves
roots of the reduced polynomial across the unit circle in a direction
its derivatives give, so the number of roots outside the circle at any
alpha is a signed sum over the crossings below it (D-decomposition with
stability switches, Cooke & Grossman 1982), with no root extraction.
The first loss of stability over an alpha bracket is the smallest
candidate above the bracket start, certified by that count.
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
# this is a real root of the crossing polynomial, to be polished on F
REAL_ROOT_TOL = 1.0e-6
# a root this close to cos(theta) = -1 is the flip's lambda = -1 itself:
# the equation has a forced zero there, and a second one only where -1 is
# a double root of the reduced polynomial (a 1:2 resonance)
FLIP_ROOT_TOL = 1.0e-12
# |P'(-1)| relative to the sum of |n * c_n| at or below which the flip's
# lambda = -1 is a double root of the reduced polynomial
DOUBLE_ROOT_TOL = 1.0e-10
# the most Newton steps on F that polish the crossing angles
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


def _residual(eps0: float, eps2: float, d: DelayConfig, theta, eps1):
    """|P(e^{i theta})| at eps1, for floats or arrays of one length."""
    base, slope, powers = reduced_terms(eps0, eps2, d)
    terms = np.multiply.outer(eps1, slope) + base
    return np.abs(np.sum(terms * np.exp(1j * np.multiply.outer(theta, powers)), axis=-1))


def flip_boundary(p: MarketParams, d: DelayConfig) -> BifurcationPoint:
    """Adjustment speed at which a root of the reduced polynomial sits at -1.

    The critical eps1 is ``spectral.flip_gain`` with the signs
    ``s = (-1)^(tau0+tau1)`` and ``s2 = (-1)^tau2``, converted to alpha
    through the k factor.
    """
    require_assumptions(p, which=("A.1",))
    eps0, eps2 = coupling_epsilons(p)
    eps1 = flip_gain(eps0, eps2, s=-1 if d.tau_sum % 2 else 1, s2=-1 if d.tau2 % 2 else 1)
    alpha = (eps1 + 1.0) / k_factor(p)
    if alpha <= 0.0:
        raise NumericalError(
            f"flip condition gives nonpositive adjustment speed alpha = {alpha}"
        )
    return BifurcationPoint(
        alpha_crit=alpha,
        kind=BifurcationKind.FLIP,
        theta=math.pi,
        eps1=eps1,
        residual=float(_residual(eps0, eps2, d, math.pi, eps1)),
    )


def _crossing_gain(theta, eps0: float, eps2: float, tau: int, tau2: int):
    """eps1 that puts e^{i*theta} on the reduced polynomial's root set.

    Derived by solving the reduced characteristic equation for eps1 at
    lambda = e^{i*theta}; the result is real exactly on the crossing
    curve.  ``theta`` is a float or an array of angles; where the
    denominator vanishes the gain is inf + inf*i.
    """
    theta = np.asarray(theta)
    lam = np.exp(1j * theta)
    h = np.exp(1j * (tau + 1) * theta) + eps2 * np.exp(1j * (tau - tau2) * theta)
    denom = eps0 - h
    small = np.abs(denom) < 1.0e-14
    return np.where(small, complex(np.inf, np.inf), (lam * h - eps0) / np.where(small, 1.0, denom))


def _crossing_terms(eps0: float, eps2: float, tau: int, tau2: int):
    """The crossing-angle equation F(theta) = sum(weights * cos(freqs * theta)).

    F is the imaginary part of the eps1 ratio cleared of its positive
    denominator and divided by 2*sin(theta/2), which removes the forced
    zero at theta = 0.  Every frequency is half an odd integer, so F has
    a forced zero at theta = pi, where the ratio is real for any delays.
    """
    weights = np.array([eps0, eps0 * eps2, -(1.0 + eps2**2), -eps2, -eps2])
    freqs = np.array([tau + 1.5, tau - tau2 + 0.5, 0.5, tau2 + 1.5, tau2 + 0.5])
    return weights, freqs


def _crossing_polynomial(weights, freqs) -> np.ndarray:
    """Chebyshev coefficients of G(x) = F(theta) / cos(theta/2), x = cos(theta).

    cos((n + 1/2) theta) / cos(theta/2) is the Chebyshev polynomial of the
    third kind V_n(cos theta) = 2 * sum_{j=1..n} (-1)^(n-j) T_j + (-1)^n T_0,
    so G is exact, of degree max(tau0+tau1, tau2) + 1, with no sampling.
    """
    orders = (np.abs(freqs) - 0.5).astype(int)
    coeffs = np.zeros(orders.max() + 1)
    for w, n in zip(weights.tolist(), orders.tolist()):
        signs = np.where((n - np.arange(n + 1)) % 2, -2.0, 2.0)
        signs[0] = 0.5 * signs[0]
        coeffs[: n + 1] += w * signs
    return np.trim_zeros(coeffs, "b")


def ns_boundary(p: MarketParams, d: DelayConfig) -> list[BifurcationPoint]:
    """All interior unit-circle crossings of the reduced polynomial.

    The crossing angles are the roots of the crossing-angle equation F in
    (0, pi).  F(theta) / cos(theta/2) is a polynomial G of degree
    D = max(tau0+tau1, tau2) + 1 in y = cos^2(theta/2), written in the
    Chebyshev basis of x = 2y - 1 = cos(theta) with exact coefficients;
    its real roots in [-1, 1] (``chebroots``, the eigenvalues of the
    colleague matrix) are every candidate angle, with no grid and no
    window.  A root within FLIP_ROOT_TOL of x = -1 (y = 0, theta = pi) is
    the flip and is left out.  Each angle is polished by Newton steps on
    F, the real eps1 is recovered from the crossing gain and converted to
    alpha, and only points with positive alpha whose crossing root
    verifies against the five-term closed form of the reduced polynomial
    to NS_RESIDUAL_TOL are kept, sorted by angle.  An empty list means no
    interior crossing exists.
    """
    require_assumptions(p, which=("A.1",))
    eps0, eps2 = coupling_epsilons(p)
    tau = d.tau_sum
    tau2 = d.tau2
    weights, freqs = _crossing_terms(eps0, eps2, tau, tau2)

    # imported here: numpy.polynomial costs every CLI start about 2 ms and
    # 1 MB, and only the crossing subcommands need it
    from numpy.polynomial import chebyshev

    x = chebyshev.chebroots(_crossing_polynomial(weights, freqs))
    x = x[(np.abs(x.imag) <= REAL_ROOT_TOL) & (np.abs(x.real) <= 1.0)].real
    theta = np.arccos(x[x > -1.0 + FLIP_ROOT_TOL])
    for _ in range(POLISH_STEPS):
        phase = np.multiply.outer(theta, freqs)
        value = (np.cos(phase) * weights).sum(axis=1)
        slope = -(np.sin(phase) * (weights * freqs)).sum(axis=1)
        step = np.divide(value, slope, out=np.zeros_like(value), where=slope != 0.0)
        theta = theta - step
        if not np.any(np.abs(step) > 1.0e-15):
            break

    ratio = _crossing_gain(theta, eps0, eps2, tau, tau2)
    eps1 = ratio.real
    alpha = (eps1 + 1.0) / k_factor(p)
    keep = (
        np.isfinite(eps1)
        & (np.abs(ratio.imag) <= NS_RESIDUAL_TOL)
        & (alpha > 0.0)
        & (0.0 < theta)
        & (theta < math.pi)
    )
    theta, eps1, alpha = theta[keep], eps1[keep], alpha[keep]
    residual = _residual(eps0, eps2, d, theta, eps1)
    keep = residual <= NS_RESIDUAL_TOL
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
    its residual on the five-term closed form of the reduced polynomial is
    at most NS_RESIDUAL_TOL and it moves roots out of the unit circle.  No
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
    residual = float(_residual(eps0, eps2, d, first.theta, first.eps1))
    switch = _switch(eps0, eps2, d, first)
    if not (residual <= NS_RESIDUAL_TOL and switch > 0):
        raise NumericalError(
            f"crossing at alpha = {first.alpha_crit} fails its certificate: residual "
            f"{residual} and {switch:+d} roots leaving the unit circle"
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
    alpha_max = nan and a false feasibility flag.
    """
    rows = []
    for delta in np.asarray(delta_grid, dtype=float).tolist():
        if not 0.0 < delta < 1.0:
            raise ValidationError(f"delta grid value {delta} outside (0, 1)")
        q = dataclasses.replace(p, delta=delta)
        report = check_assumptions(q)
        eps0, eps2 = coupling_epsilons(q)
        feasible = report.a1_holds and report.a2_holds and eps2 < 1.0
        alpha_max = (1.0 + flip_gain(eps0, eps2)) / k_factor(q) if feasible else math.nan
        rows.append(StabilityRegionRow(delta=delta, alpha_max=alpha_max, feasible=feasible))
    return rows
