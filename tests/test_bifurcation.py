import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from cournotlab import (
    BifurcationKind,
    BifurcationPoint,
    DelayConfig,
    MarketParams,
    NoCrossingError,
    NotStableAtStartError,
    NumericalError,
    ParityCase,
    ValidationError,
    critical_alpha,
    epsilon_triple,
    flip_boundary,
    k_factor,
    ns_boundary,
    reduced_char_poly,
    stability_region,
)
from cournotlab import bifurcation
from cournotlab.spectral import EpsilonTriple, coupling_epsilons



# the four delay-parity cases at the running example's parameters have
# rational critical values: eps1 and alpha = (eps1 + 1) / 0.9375
FLIP_CASES = [
    (DelayConfig(2, 2, 10), 1.0 / 9.0, 32.0 / 27.0),   # even sum, even tau2
    (DelayConfig(2, 1, 3), 1.5, 8.0 / 3.0),            # odd sum, odd tau2
    (DelayConfig(9, 7, 5), 2.0 / 3.0, 16.0 / 9.0),     # even sum, odd tau2
    (DelayConfig(3, 2, 4), 9.0, 32.0 / 3.0),           # odd sum, even tau2
]


class TestFlipBoundary:
    @pytest.mark.parametrize("delays,eps1,alpha", FLIP_CASES)
    def test_parity_cases(self, sec4, delays, eps1, alpha):
        bp = flip_boundary(sec4, delays)
        assert bp.eps1 == pytest.approx(eps1, abs=1e-9)
        assert bp.alpha_crit == pytest.approx(alpha, abs=1e-9)
        assert bp.kind is BifurcationKind.FLIP
        assert bp.theta == math.pi

    @pytest.mark.parametrize("delays,eps1,alpha", FLIP_CASES)
    def test_minus_one_is_a_root_at_the_critical_gain(self, sec4, delays, eps1, alpha):
        eps = EpsilonTriple(0.32, eps1, 0.6)
        cp = reduced_char_poly(eps, delays)
        assert abs(cp(-1.0 + 0.0j)) < 1e-10
        assert flip_boundary(sec4, delays).residual < 1e-10

    def test_parity_case_derivation(self):
        parity = ParityCase.from_delays(DelayConfig(9, 7, 5))
        assert parity.sum_parity == 0 and parity.tau2_parity == 1
        assert parity.sign_sum == 1 and parity.sign_tau2 == -1

    def test_nonpositive_alpha_rejected(self):
        # odd sum with even tau2 and eps0 + eps2 > 1 drives eps1 below -1
        p = MarketParams(b=1.0, delta=0.5, alpha=1.0, n=4, a0=2.0, a1=2.5)
        with pytest.raises(NumericalError):
            flip_boundary(p, DelayConfig(1, 0, 2))


class TestNsBoundary:
    def test_onset_for_long_public_reaction(self, sec4):
        pts = ns_boundary(sec4, DelayConfig(5, 3, 3))
        assert pts
        assert 1.41 <= min(pt.alpha_crit for pt in pts) <= 1.45

    def test_onset_for_long_private_reaction(self, sec4):
        pts = ns_boundary(sec4, DelayConfig(3, 5, 5))
        assert pts
        assert 1.26 <= min(pt.alpha_crit for pt in pts) <= 1.30

    def test_certificates(self, sec4):
        for delays in (DelayConfig(5, 3, 3), DelayConfig(3, 5, 5), DelayConfig(9, 7, 5)):
            for pt in ns_boundary(sec4, delays):
                assert pt.residual < 1e-8
                assert 1e-3 < pt.theta < math.pi - 1e-3
                assert pt.kind is BifurcationKind.NEIMARK_SACKER
                lam = cmath.exp(1j * pt.theta)
                cp = reduced_char_poly(EpsilonTriple(0.32, pt.eps1, 0.6), delays)
                assert abs(cp(lam)) < 1e-8

    def test_gain_matches_trigonometric_form(self, sec4):
        # closed trigonometric form of the crossing gain; the constant
        # term in the numerator is -eps0^2
        eps0, eps2 = 0.32, 0.6
        for delays in (DelayConfig(5, 3, 3), DelayConfig(3, 3, 0), DelayConfig(4, 4, 8)):
            tau, tau2 = delays.tau_sum, delays.tau2
            for pt in ns_boundary(sec4, delays):
                th = pt.theta
                ring = 1 + eps2**2 + 2 * eps2 * math.cos((tau2 + 1) * th)
                num = (2 * math.cos(th / 2)
                       * (eps0 * math.cos((tau + 1.5) * th)
                          + eps0 * eps2 * math.cos((tau - tau2 + 0.5) * th))
                       - math.cos(th) * ring - eps0**2)
                den = (eps0**2 + ring
                       - 2 * eps0 * math.cos((tau + 1) * th)
                       - 2 * eps0 * eps2 * math.cos((tau - tau2) * th))
                assert pt.eps1 == pytest.approx(num / den, abs=1e-9)

    def test_no_interior_crossing_without_delays(self, sec4):
        assert ns_boundary(sec4, DelayConfig(0, 0, 0)) == []


class TestCriticalAlpha:
    def test_flip_detected_at_the_delay_free_threshold(self, sec4):
        bp = critical_alpha(sec4, DelayConfig(2, 2, 10), (0.5, 1.4))
        assert bp.kind is BifurcationKind.FLIP
        assert bp.alpha_crit == pytest.approx(1.1852, abs=1e-4)
        assert abs(bp.theta - math.pi) < 1e-3
        closed_form = flip_boundary(sec4, DelayConfig(2, 2, 10)).alpha_crit
        assert bp.alpha_crit == pytest.approx(closed_form, abs=1e-3)

    def test_neimark_sacker_detected(self, sec4):
        bp = critical_alpha(sec4, DelayConfig(5, 3, 3), (1.0, 1.6))
        assert bp.kind is BifurcationKind.NEIMARK_SACKER
        assert 1.41 <= bp.alpha_crit <= 1.45
        assert 1e-3 < bp.theta < math.pi - 1e-3
        curve_min = min(pt.alpha_crit for pt in ns_boundary(sec4, DelayConfig(5, 3, 3)))
        assert bp.alpha_crit == pytest.approx(curve_min, abs=1e-3)

    def test_mixed_parity_first_crossing(self, sec4):
        # the closed-form flip candidate (16/9) is not the first
        # instability: an interior crossing precedes it
        bp = critical_alpha(sec4, DelayConfig(9, 7, 5), (1.0, 1.7))
        assert bp.alpha_crit == pytest.approx(1.5470, abs=2e-3)
        assert bp.kind is BifurcationKind.NEIMARK_SACKER
        assert bp.alpha_crit < flip_boundary(sec4, DelayConfig(9, 7, 5)).alpha_crit

    def test_not_stable_at_start(self, sec4):
        with pytest.raises(NotStableAtStartError):
            critical_alpha(sec4, DelayConfig(2, 2, 10), (1.3, 1.6))

    def test_no_crossing_in_bracket(self, sec4):
        with pytest.raises(NoCrossingError):
            critical_alpha(sec4, DelayConfig(2, 2, 10), (0.5, 0.9))

    def test_residual_certificate(self, sec4):
        bp = critical_alpha(sec4, DelayConfig(3, 5, 5), (1.0, 1.5))
        assert bp.residual < 1e-8


def _scan_modulus(p, d):
    eps = epsilon_triple(p)
    kfac = k_factor(p)

    def modulus_at(alpha):
        cp = reduced_char_poly(dataclasses.replace(eps, eps1=alpha * kfac - 1.0), d)
        roots = np.roots(cp.coeffs[::-1])
        idx = int(np.argmax(np.abs(roots)))
        return float(abs(roots[idx])), complex(roots[idx])

    return modulus_at


def _scan_first_crossing(p, d, alpha_range, points=200, tol=1e-4):
    """Reference first crossing by a second route: a root-modulus grid scan,
    then bisection of the first crossing down to ``tol``.  The kind is read
    off the crossing root's angle."""
    modulus_at = _scan_modulus(p, d)
    grid = np.linspace(*alpha_range, points)
    first = next(i for i, a in enumerate(grid) if modulus_at(a)[0] >= 1.0)
    assert first > 0, "the scan bracket must start stable"
    lo, hi = float(grid[first - 1]), float(grid[first])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if modulus_at(mid)[0] >= 1.0:
            hi = mid
        else:
            lo = mid
    alpha = 0.5 * (lo + hi)
    theta = abs(cmath.phase(modulus_at(alpha)[1]))
    kind = BifurcationKind.FLIP if abs(theta - math.pi) < 1e-3 else BifurcationKind.NEIMARK_SACKER
    return alpha, kind


# (tau0 + tau1, tau2) strata where the equilibrium loses stability, regains
# it and loses it again inside (0.5, 3.0)
REGAINING_STRATA = [(0, 9), (3, 8), (3, 13), (6, 9), (10, 13), (14, 17), (18, 21)]
GRID_STRATA = [(tau, tau2) for tau in range(0, 31, 3) for tau2 in range(0, 31, 3)]


class TestCriticalAlphaAgainstScan:
    @pytest.mark.parametrize("tau, tau2", sorted(set(GRID_STRATA) | set(REGAINING_STRATA)))
    def test_matches_modulus_scan(self, sec4, tau, tau2):
        d = DelayConfig(0, tau, tau2)
        bp = critical_alpha(sec4, d, (0.5, 3.0))
        alpha, kind = _scan_first_crossing(sec4, d, (0.5, 3.0))
        assert bp.kind is kind
        assert abs(bp.alpha_crit - alpha) <= 1e-4

    @pytest.mark.parametrize("tau, tau2", REGAINING_STRATA)
    def test_regaining_strata_regain_stability(self, sec4, tau, tau2):
        modulus_at = _scan_modulus(sec4, DelayConfig(0, tau, tau2))
        unstable = [modulus_at(a)[0] >= 1.0 for a in np.linspace(0.5, 3.0, 200)]
        first = unstable.index(True)
        assert not all(unstable[first:])

    def test_first_loss_not_the_regained_window(self, sec4):
        bp = critical_alpha(sec4, DelayConfig(0, 0, 9), (0.5, 3.0))
        assert bp.kind is BifurcationKind.NEIMARK_SACKER
        assert bp.alpha_crit == pytest.approx(1.4552, abs=1e-4)

    def test_bracket_starting_in_the_regained_window(self, sec4):
        # (0,0,9) is stable again on (1.7245, 16/9); candidates below the
        # bracket start do not count
        d = DelayConfig(0, 0, 9)
        bp = critical_alpha(sec4, d, (1.75, 3.0))
        assert bp.kind is BifurcationKind.FLIP
        assert bp.alpha_crit == pytest.approx(16.0 / 9.0, abs=1e-12)
        alpha, kind = _scan_first_crossing(sec4, d, (1.75, 3.0))
        assert kind is bp.kind and abs(bp.alpha_crit - alpha) <= 1e-4

    def test_candidate_failing_its_certificate_raises(self, sec4, monkeypatch):
        # a candidate where no root reaches the circle: stable on both sides
        fake = BifurcationPoint(1.2, BifurcationKind.NEIMARK_SACKER, 1.0, 0.125, 0.0)
        monkeypatch.setattr(bifurcation, "ns_boundary", lambda p, d: [fake])
        with pytest.raises(NumericalError, match="1.2"):
            critical_alpha(sec4, DelayConfig(5, 3, 3), (1.0, 1.6))

    def test_no_root_extraction_per_call(self, sec4, monkeypatch):
        calls = []
        real_roots = np.roots

        def counting_roots(coeffs):
            calls.append(coeffs)
            return real_roots(coeffs)

        monkeypatch.setattr(np, "roots", counting_roots)
        critical_alpha(sec4, DelayConfig(9, 7, 5), (1.0, 1.7))
        assert len(calls) == 0


# the scan window of the reference below: it cannot see crossings within
# this of 0 or pi
THETA_MIN = 1.0e-3


def _scalar_ns_scan(p, d, scan_points=4096, theta_min=THETA_MIN):
    """Reference crossing set by a grid scan: the crossing-angle equation
    evaluated point by point with math.cos, then a walk over every grid
    interval that bisects each sign change until the midpoint no longer
    moves, then the gain, residual and alpha filters.  It finds only the
    crossings that change sign between two grid points inside the window,
    so ns_boundary must hold every point it finds."""
    eps0, eps2 = coupling_epsilons(p)
    tau, tau2 = d.tau_sum, d.tau2
    kfac = k_factor(p)

    def f(theta):
        return (
            eps0 * math.cos((tau + 1.5) * theta)
            + eps0 * eps2 * math.cos((tau - tau2 + 0.5) * theta)
            - math.cos(0.5 * theta)
            * (1.0 + eps2**2 + 2.0 * eps2 * math.cos((tau2 + 1) * theta))
        )

    grid = np.linspace(theta_min, math.pi - theta_min, scan_points)
    values = np.array([f(t) for t in grid])
    angles = []
    for i in range(scan_points - 1):
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo, fhi = values[i], values[i + 1]
        if flo == 0.0:
            angles.append(lo)
            continue
        if flo * fhi >= 0.0:
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            fmid = f(mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0.0:
                hi, fhi = mid, fmid
            else:
                lo, flo = mid, fmid
        angles.append(0.5 * (lo + hi))
    if values[-1] == 0.0:
        angles.append(float(grid[-1]))

    points = []
    for theta in angles:
        lam = cmath.exp(1j * theta)
        h = cmath.exp(1j * (tau + 1) * theta) + eps2 * cmath.exp(1j * (tau - tau2) * theta)
        if abs(eps0 - h) < 1.0e-14:
            continue
        ratio = (lam * h - eps0) / (eps0 - h)
        if abs(ratio.imag) > bifurcation.NS_RESIDUAL_TOL:
            continue
        eps1 = ratio.real
        alpha = (eps1 + 1.0) / kfac
        if alpha <= 0.0:
            continue
        cp = reduced_char_poly(EpsilonTriple(eps0, eps1, eps2), d)
        if abs(cp(lam)) > bifurcation.NS_RESIDUAL_TOL:
            continue
        points.append((theta, alpha))
    return points


def _assert_contains(found, reference):
    """Every (theta, alpha) of ``reference`` lies within 1e-9 of a point found."""
    thetas = np.array([pt.theta for pt in found])
    alphas = np.array([pt.alpha_crit for pt in found])
    for theta, alpha in reference:
        near = (np.abs(thetas - theta) <= 1e-9) & (np.abs(alphas - alpha) <= 1e-9)
        assert near.any(), (theta, alpha)


class TestNsBoundaryAgainstScalarScan:
    @pytest.mark.parametrize("tau, tau2", GRID_STRATA)
    def test_contains_scalar_scan(self, sec4, tau, tau2):
        d = DelayConfig(0, tau, tau2)
        _assert_contains(ns_boundary(sec4, d), _scalar_ns_scan(sec4, d))

    @pytest.mark.parametrize("scan_points", [2, 3, 8, 8192])
    @pytest.mark.parametrize("delays", [
        DelayConfig(5, 3, 3), DelayConfig(3, 5, 5), DelayConfig(9, 7, 5), DelayConfig(0, 0, 9),
        DelayConfig(15, 15, 30),
    ])
    def test_contains_scalar_scan_at_other_grid_sizes(self, sec4, delays, scan_points):
        found = ns_boundary(sec4, delays)
        _assert_contains(found, _scalar_ns_scan(sec4, delays, scan_points=scan_points))

    def test_oracle_finds_crossings(self, sec4):
        # the comparisons above are not between two empty lists
        found = [len(_scalar_ns_scan(sec4, DelayConfig(0, tau, tau2))) for tau, tau2 in GRID_STRATA]
        assert sum(n > 0 for n in found) > 100 and sum(found) > 500

    def test_crossing_the_scan_dropped_at_1_15(self, sec4):
        # a grid scan that bisects theta only to 1e-10 leaves the gain an
        # imaginary part of 1.5e-8 here, above NS_RESIDUAL_TOL, and drops
        # the point; at the polished angle it is real to 1e-11
        d = DelayConfig(0, 1, 15)
        pt = next(pt for pt in ns_boundary(sec4, d) if abs(pt.theta - 2.960192) < 1e-6)
        assert pt.alpha_crit == pytest.approx(7.7163, abs=1e-4)
        assert pt.residual <= 1e-12
        eps = dataclasses.replace(epsilon_triple(sec4), eps1=pt.eps1)
        roots = np.roots(reduced_char_poly(eps, d).coeffs[::-1])
        on_circle = roots[np.argmin(np.abs(np.abs(roots) - 1.0))]
        assert abs(abs(on_circle) - 1.0) <= 1e-9
        assert abs(abs(cmath.phase(on_circle)) - pt.theta) <= 1e-6


def _outside_count(coeffs):
    """Exact number of roots outside the unit circle of the real polynomial
    with ascending ``coeffs``, by the Bistritz table over Fractions
    (Bistritz, Proc. IEEE 72, 1984).  Roots at the origin are split off
    first.  With the symmetric polynomials T_n = D + D*, T_(n-1) =
    (D - D*)/(z - 1) and T_(k-1) = (delta_k (1 + z) T_k - T_(k+1)) / z,
    delta_k = T_(k+1)(0) / T_k(0), the count is the number of sign changes
    in T_n(1), ..., T_0(1).  A zero T_k(0) or T_k(1) is a singular table,
    which this reference does not resolve."""
    d = [Fraction(c) for c in coeffs]
    while d[-1] == 0:
        d.pop()
    while d[0] == 0:
        d.pop(0)
    n = len(d) - 1
    upper = [a + b for a, b in zip(d, reversed(d))]
    diff = [a - b for a, b in zip(d, reversed(d))]
    lower, acc = [Fraction(0)] * n, Fraction(0)
    for k in range(n, 0, -1):  # (D - D*) / (z - 1), from the top
        acc += diff[k]
        lower[k - 1] = acc
    values = [sum(upper), sum(lower)]
    for k in range(n - 1, 0, -1):
        assert lower[0] != 0, "singular Bistritz table"
        delta = upper[0] / lower[0]
        shifted = [Fraction(0)] + lower
        step = [delta * (a + b) - c for a, b, c in zip(lower + [Fraction(0)], shifted, upper)]
        assert step[0] == 0 and step[-1] == 0
        upper, lower = lower, step[1:-1]
        values.append(sum(lower))
    assert all(values), "singular Bistritz table"
    return sum((a > 0) != (b > 0) for a, b in zip(values, values[1:]))


# the running example's eps0, eps2 and k factor as exact fractions; the
# library's floats differ from them in the last bit
SEC4_EXACT = (Fraction(8, 25), Fraction(3, 5), Fraction(15, 16))
# rational alphas in (0, 12), at least 1e-4 from every rational with a
# denominator below 10 (where the flip points of the running example lie)
EXACT_ALPHAS = [Fraction(1, 997) + Fraction(j, 2) for j in range(24)]


def _exact_reduced(d, alpha):
    """The running example's reduced polynomial at the rational ``alpha``,
    in exact arithmetic."""
    eps0, eps2, kfac = SEC4_EXACT
    eps1 = Fraction(alpha) * kfac - 1
    tau, tau2 = d.tau_sum, d.tau2
    c = [Fraction(0)] * (tau + tau2 + 3)
    c[tau2] += eps0 * (eps1 + 1)
    c[tau + tau2 + 2] -= 1
    c[tau + tau2 + 1] -= eps1
    c[tau + 1] -= eps2
    c[tau] -= eps1 * eps2
    return c


def _numeric_count(p, d, alpha):
    eps = dataclasses.replace(epsilon_triple(p), eps1=alpha * k_factor(p) - 1.0)
    return int(np.sum(np.abs(np.roots(reduced_char_poly(eps, d).coeffs[::-1])) > 1.0))


# strata of reduced degree at most 40: a grid, the regaining strata, the
# two 1:2 resonances and (1,15)
EXACT_STRATA = sorted(
    {(tau, tau2) for tau in range(0, 31, 6) for tau2 in range(0, 31, 6) if tau + tau2 <= 38}
    | {(tau, tau2) for tau, tau2 in REGAINING_STRATA if tau + tau2 <= 38}
    | {(2, 15), (7, 15), (1, 15)}
)
# the resonant strata, where -1 is a double root at the flip: alpha and
# the exact P''(-1) at eps0 = 8/25, eps2 = 3/5
RESONANCES = [((2, 15), Fraction(16, 9), Fraction(144, 5)),
              ((7, 15), Fraction(8, 3), Fraction(216, 5))]


class TestCrossingCount:
    def test_exact_parameters_are_the_running_example(self, sec4):
        eps0, eps2, kfac = SEC4_EXACT
        assert coupling_epsilons(sec4) == pytest.approx((float(eps0), float(eps2)), abs=1e-15)
        assert k_factor(sec4) == pytest.approx(float(kfac), abs=1e-15)

    def test_bistritz_reference_agrees_with_root_moduli(self, sec4):
        for tau, tau2 in [(0, 0), (3, 5), (9, 14), (2, 15)]:
            d = DelayConfig(0, tau, tau2)
            for alpha in EXACT_ALPHAS[1::5]:
                assert _outside_count(_exact_reduced(d, alpha)) == _numeric_count(
                    sec4, d, float(alpha))

    @pytest.mark.parametrize("tau, tau2", EXACT_STRATA)
    def test_count_matches_the_exact_table(self, sec4, tau, tau2):
        d = DelayConfig(0, tau, tau2)
        for alpha in EXACT_ALPHAS:
            expected = _outside_count(_exact_reduced(d, alpha))
            assert bifurcation.unstable_count(sec4, d, float(alpha)) == expected, alpha

    @pytest.mark.parametrize("tau, tau2", [(0, 0), (0, 9), (5, 3), (30, 0), (0, 30)])
    def test_root_at_one_moves_inside(self, sec4, tau, tau2):
        # at alpha = 0, P = -(lambda - 1)(lambda^(tau2+1) + eps2) lambda^tau;
        # the root at 1 moves with dlambda/dalpha = k (eps0 - 1 - eps2) / (1 + eps2)
        eps0, eps2 = coupling_epsilons(sec4)
        speed = k_factor(sec4) * (eps0 - 1.0 - eps2) / (1.0 + eps2)
        assert speed < 0.0
        d = DelayConfig(0, tau, tau2)
        alpha = 1e-6
        eps = dataclasses.replace(epsilon_triple(sec4), eps1=alpha * k_factor(sec4) - 1.0)
        roots = np.roots(reduced_char_poly(eps, d).coeffs[::-1])
        moved = roots[np.argmin(np.abs(roots - 1.0))]
        assert abs(moved) < 1.0
        assert (moved - 1.0) / alpha == pytest.approx(speed, rel=1e-3)
        assert bifurcation.unstable_count(sec4, d, alpha) == 0 == _numeric_count(sec4, d, alpha)

    @pytest.mark.parametrize("tau", [0, 3, 7])
    def test_count_where_the_top_crossing_terms_cancel(self, tau):
        # n = 2, delta = 1/2 gives eps0 = eps2 = 1/4, and at tau0 + tau1 =
        # tau2 the leading Chebyshev coefficient of the crossing
        # polynomial, 2 (eps0 - eps2), is an exact zero
        p = MarketParams(b=1.0, delta=0.5, alpha=1.0, n=2, a0=2.0, a1=2.5)
        d = DelayConfig(0, tau, tau)
        for alpha in (0.5, 1.0, 1.5, 1.9, 2.1, 4.0, 8.0):  # the flip is at alpha = 2
            assert bifurcation.unstable_count(p, d, alpha) == _numeric_count(p, d, alpha)

    @pytest.mark.parametrize("n, delta", [(6, 0.5), (8, 0.45)])
    def test_count_starts_from_the_private_roots_when_eps2_exceeds_one(self, n, delta):
        # eps2 = (n-1) delta / 2 > 1: the tau2 + 1 roots of
        # lambda^(tau2+1) = -eps2 start outside the circle
        p = MarketParams(b=1.0, delta=delta, alpha=1.0, n=n, a0=2.0, a1=2.5)
        assert coupling_epsilons(p)[1] > 1.0
        for tau, tau2 in [(0, 0), (3, 5), (9, 2)]:
            d = DelayConfig(0, tau, tau2)
            assert bifurcation.unstable_count(p, d, 1e-3) == tau2 + 1
            for alpha in (0.3, 1.1, 2.7, 6.1):
                assert bifurcation.unstable_count(p, d, alpha) == _numeric_count(p, d, alpha)

    def test_no_count_when_eps2_is_one(self):
        p = MarketParams(b=1.0, delta=0.5, alpha=1.0, n=5, a0=2.0, a1=2.5)
        assert coupling_epsilons(p)[1] == 1.0
        with pytest.raises(NumericalError, match="eps2 = 1"):
            bifurcation.unstable_count(p, DelayConfig(0, 1, 1), 1.0)

    @pytest.mark.parametrize("stratum, alpha_c, second", RESONANCES)
    def test_one_to_two_resonance(self, sec4, stratum, alpha_c, second):
        tau, tau2 = stratum
        d = DelayConfig(0, tau, tau2)
        c = _exact_reduced(d, alpha_c)
        derivatives = [sum(a * (-1) ** (k - j) * math.perm(k, j) for k, a in enumerate(c) if k >= j)
                       for j in range(3)]
        assert derivatives == [0, 0, second]
        flip = flip_boundary(sec4, d)
        assert flip.alpha_crit == pytest.approx(float(alpha_c), abs=1e-12)
        # the double root at -1 is the flip, not a Neimark-Sacker row
        assert all(pt.theta < math.pi - 1e-3 for pt in ns_boundary(sec4, d))
        for step in (Fraction(-1, 100), Fraction(-1, 10**4), Fraction(1, 10**4), Fraction(1, 100)):
            alpha = alpha_c + step
            expected = _outside_count(_exact_reduced(d, alpha))
            assert bifurcation.unstable_count(sec4, d, float(alpha)) == expected == _numeric_count(
                sec4, d, float(alpha))

    @pytest.mark.parametrize("tau, tau2", REGAINING_STRATA)
    def test_count_follows_the_regained_window(self, sec4, tau, tau2):
        d = DelayConfig(0, tau, tau2)
        counts = [bifurcation.unstable_count(sec4, d, a) for a in np.linspace(0.5, 3.0, 200)]
        assert counts == [_numeric_count(sec4, d, a) for a in np.linspace(0.5, 3.0, 200)]
        first = next(i for i, n in enumerate(counts) if n)
        assert 0 in counts[first:]


class TestStabilityRegion:
    def test_running_example_boundary(self, sec4):
        rows = stability_region(sec4, [0.4])
        assert rows[0].feasible
        assert rows[0].alpha_max == pytest.approx(32.0 / 27.0, abs=1e-9)

    def test_strong_coupling_with_many_firms_is_infeasible(self, sec4):
        rows = stability_region(sec4, [0.25], n=11)
        assert not rows[0].feasible
        assert math.isnan(rows[0].alpha_max)

    def test_feasible_band_shrinks_with_firm_count(self, sec4):
        grid = np.linspace(0.02, 0.98, 49)
        def top(n):
            rows = stability_region(sec4, grid, n=n)
            feasible = [r.delta for r in rows if r.feasible]
            return max(feasible) if feasible else 0.0
        assert top(32) < top(8) < top(2)

    def test_grid_outside_unit_interval_rejected(self, sec4):
        with pytest.raises(Exception):
            stability_region(sec4, [1.2])
