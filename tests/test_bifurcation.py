import cmath
import dataclasses
import math

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

    def test_scan_refinement_is_stable(self, sec4):
        for delays in (DelayConfig(5, 3, 3), DelayConfig(3, 5, 5), DelayConfig(9, 7, 5)):
            coarse = ns_boundary(sec4, delays, scan_points=4096)
            fine = ns_boundary(sec4, delays, scan_points=8192)
            assert len(coarse) == len(fine)
            for a, b in zip(coarse, fine):
                assert a.theta == pytest.approx(b.theta, abs=1e-8)

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

    def test_three_root_extractions_per_call(self, sec4, monkeypatch):
        calls = []
        real_roots = np.roots

        def counting_roots(coeffs):
            calls.append(coeffs)
            return real_roots(coeffs)

        monkeypatch.setattr(np, "roots", counting_roots)
        critical_alpha(sec4, DelayConfig(9, 7, 5), (1.0, 1.7))
        assert len(calls) == 3


def _scalar_ns_scan(p, d, scan_points=4096, theta_min=bifurcation.THETA_MIN):
    """Reference ns_boundary: the crossing-angle equation evaluated point by
    point with math.cos, then a walk over every grid interval that bisects
    each sign change, then the same gain, residual and alpha filters."""
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
        lo, hi = grid[i], grid[i + 1]
        flo, fhi = values[i], values[i + 1]
        if flo == 0.0:
            angles.append(lo)
            continue
        if flo * fhi >= 0.0:
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo < 1.0e-10:
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
        angles.append(grid[-1])

    points = []
    for theta in angles:
        ratio = bifurcation._crossing_gain(theta, eps0, eps2, tau, tau2)
        if not np.isfinite(ratio.real) or abs(ratio.imag) > bifurcation.NS_RESIDUAL_TOL:
            continue
        eps1 = ratio.real
        alpha = (eps1 + 1.0) / kfac
        if alpha <= 0.0:
            continue
        residual = bifurcation._residual_on_circle(
            EpsilonTriple(eps0, eps1, eps2), d, cmath.exp(1j * theta)
        )
        if residual > bifurcation.NS_RESIDUAL_TOL:
            continue
        points.append(BifurcationPoint(alpha, BifurcationKind.NEIMARK_SACKER, theta, eps1, residual))
    points.sort(key=lambda pt: pt.theta)
    return points


class TestNsBoundaryAgainstScalarScan:
    @pytest.mark.parametrize("tau, tau2", GRID_STRATA)
    def test_matches_scalar_scan(self, sec4, tau, tau2):
        d = DelayConfig(0, tau, tau2)
        assert ns_boundary(sec4, d) == _scalar_ns_scan(sec4, d)

    @pytest.mark.parametrize("scan_points", [2, 3, 8, 8192])
    @pytest.mark.parametrize("delays", [
        DelayConfig(5, 3, 3), DelayConfig(3, 5, 5), DelayConfig(9, 7, 5), DelayConfig(0, 0, 9),
        DelayConfig(15, 15, 30),
    ])
    def test_matches_scalar_scan_at_other_grid_sizes(self, sec4, delays, scan_points):
        new = ns_boundary(sec4, delays, scan_points=scan_points)
        assert new == _scalar_ns_scan(sec4, delays, scan_points=scan_points)

    def test_oracle_finds_crossings(self, sec4):
        # the comparisons above are not between two empty lists
        found = [len(_scalar_ns_scan(sec4, DelayConfig(0, tau, tau2))) for tau, tau2 in GRID_STRATA]
        assert sum(n > 0 for n in found) > 100 and sum(found) > 500

    @pytest.mark.parametrize("scan_points", [1, 0, -5])
    def test_grid_too_small_to_scan_rejected(self, sec4, scan_points):
        with pytest.raises(ValidationError, match="theta_points"):
            ns_boundary(sec4, DelayConfig(5, 3, 3), scan_points=scan_points)

    @pytest.mark.parametrize("scan_points", [bifurcation.THETA_POINTS_MAX + 1, 2_000_000])
    def test_grid_above_the_cap_rejected(self, sec4, scan_points):
        with pytest.raises(ValidationError, match="theta_points"):
            ns_boundary(sec4, DelayConfig(5, 3, 3), scan_points=scan_points)


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
