import dataclasses
import math

import numpy as np
import pytest

from cournotlab import (
    AssumptionError,
    CharPoly,
    DelayConfig,
    DelayIndependentVerdict,
    HistoryState,
    MarketParams,
    StabilityClass,
    ValidationError,
    boundary_equilibrium,
    delay_free_stable,
    delay_independent_verdict,
    embedded_jacobian,
    epsilon_triple,
    full_char_poly,
    k_factor,
    no_public_firm_spectrum,
    poly_roots,
    positive_equilibrium,
    reduced_char_poly,
)

from conftest import (
    draw_delay_independent_delays,
    draw_market,
    draw_stable_market,
    pair_nonzero_roots,
    sec4_at,
)
from cournotlab.equilibria import require_assumptions
from cournotlab.errors import DegenerateBoundaryError
from cournotlab.spectral import flip_gain


class TestEpsilonTriple:
    def test_running_example(self, sec4):
        eps = epsilon_triple(sec4)
        assert eps.eps0 == pytest.approx(0.32, abs=1e-12)
        assert eps.eps1 == pytest.approx(-0.0625, abs=1e-12)
        assert eps.eps2 == pytest.approx(0.6, abs=1e-12)
        assert k_factor(sec4) == pytest.approx(0.9375, abs=1e-12)

    def test_single_private_firm_has_no_cross_coupling(self):
        p = MarketParams(b=1.0, delta=0.5, alpha=0.8, n=1, a0=1.0, a1=1.2)
        assert epsilon_triple(p).eps2 == 0.0

    def test_unit_gain_adjustment_speed(self, sec4):
        p = dataclasses.replace(sec4, alpha=1.0 / k_factor(sec4))
        assert abs(epsilon_triple(p).eps1) < 1e-12

    def test_requires_positive_public_output(self):
        p = MarketParams(b=1.0, delta=0.4, alpha=1.0, n=4, a0=1.0, a1=2.5)
        with pytest.raises(AssumptionError):
            epsilon_triple(p)

    def test_sign_invariants_over_draws(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            p = draw_market(rng)
            eps = epsilon_triple(p)
            assert eps.eps0 > 0.0
            assert eps.eps2 >= 0.0
            assert (eps.eps2 == 0.0) == (p.n == 1)
            assert eps.eps1 + 1.0 > 0.0


class TestReducedCharPoly:
    def test_undelayed_quadratic_coefficients(self, sec4):
        eps = epsilon_triple(sec4)
        cp = reduced_char_poly(eps, DelayConfig(0, 0, 0))
        expected = np.array(
            [eps.eps0 * (eps.eps1 + 1.0) - eps.eps1 * eps.eps2,
             -(eps.eps1 + eps.eps2),
             -1.0]
        )
        assert cp.coeffs == pytest.approx(expected, abs=1e-15)

    def test_undelayed_roots_against_quadratic_formula(self, sec4):
        eps = epsilon_triple(sec4)
        cp = reduced_char_poly(eps, DelayConfig(0, 0, 0))
        roots = sorted(poly_roots(cp).roots.real)
        b = eps.eps1 + eps.eps2
        c = eps.eps1 * eps.eps2 - eps.eps0 * (eps.eps1 + 1.0)
        disc = math.sqrt(b * b - 4.0 * c)
        assert roots[0] == pytest.approx((-b - disc) / 2.0, abs=1e-12)
        assert roots[1] == pytest.approx((-b + disc) / 2.0, abs=1e-12)
        assert roots[0] == pytest.approx(-0.9089, abs=1e-4)
        assert roots[1] == pytest.approx(0.3713, abs=1e-4)
        assert poly_roots(cp).max_modulus < 1.0

    def test_degree_formula(self, sec4):
        cp = reduced_char_poly(epsilon_triple(sec4), DelayConfig(2, 4, 8))
        assert cp.degree == 16
        assert cp.coeffs[-1] == -1.0

    def test_padding_zero_roots_are_reported(self, sec4):
        d = DelayConfig(1, 2, 6)
        report = poly_roots(reduced_char_poly(epsilon_triple(sec4), d))
        zeros = np.count_nonzero(report.roots == 0)
        assert zeros == min(d.tau_sum, d.tau2)
        assert len(report.roots) == d.tau_sum + d.tau2 + 2


class TestFullCharPoly:
    def test_single_private_firm_collapses_to_reduced(self):
        p = MarketParams(b=1.0, delta=0.5, alpha=0.8, n=1, a0=1.0, a1=1.2)
        d = DelayConfig(2, 1, 3)
        full = full_char_poly(p, d, "positive")
        red = reduced_char_poly(epsilon_triple(p), d)
        assert full.coeffs == pytest.approx(red.coeffs, abs=1e-15)

    def test_difference_mode_roots(self, sec4):
        d = DelayConfig(0, 0, 0)
        report = poly_roots(full_char_poly(sec4, d, "positive"))
        near = np.count_nonzero(np.abs(report.roots - 0.2) < 1e-9)
        assert near == 3

    def test_boundary_factors_completely(self):
        p = sec4_at(1.0)
        report = poly_roots(full_char_poly(p, DelayConfig(0, 0, 0), "boundary"))
        roots = sorted(report.roots.real)
        assert roots[0] == pytest.approx(-0.6, abs=1e-12)
        assert roots[1:4] == pytest.approx([0.2, 0.2, 0.2], abs=1e-9)
        assert roots[4] == pytest.approx(1.75, abs=1e-12)
        assert report.classification is StabilityClass.SADDLE

    def test_expanded_coefficients_match_factor_product(self, sec4):
        d = DelayConfig(1, 2, 3)
        cp = full_char_poly(sec4, d, "positive")
        product = np.array([1.0])
        for coeffs, mult in cp.factors:
            for _ in range(mult):
                product = np.convolve(product, coeffs)
        assert cp.coeffs == pytest.approx(product, abs=1e-12)

    def test_unknown_selector_rejected(self, sec4):
        with pytest.raises(ValidationError, match="unknown spectrum selector 'interior'"):
            full_char_poly(sec4, DelayConfig(0, 0, 0), "interior")


class TestPolyRoots:
    def test_plus_minus_one(self):
        coeffs = np.array([-1.0, 0.0, 1.0])
        cp = CharPoly(coeffs=coeffs, factors=((coeffs, 1),))
        report = poly_roots(cp)
        assert sorted(report.roots.real) == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert report.classification is StabilityClass.NON_HYPERBOLIC
        assert report.on_circle_count == 2

    def test_root_residuals(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            p = draw_market(rng, n_max=6)
            d = DelayConfig(*(int(x) for x in rng.integers(0, 7, size=3)))
            cp = full_char_poly(p, d, "positive")
            report = poly_roots(cp)
            for z in report.roots:
                bound = 1e-8 * (1.0 + abs(z)) ** cp.degree
                assert abs(cp(z)) < bound

    def test_saddle_requires_roots_on_both_sides(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            p = draw_market(rng, n_max=6)
            d = DelayConfig(*(int(x) for x in rng.integers(0, 5, size=3)))
            report = poly_roots(full_char_poly(p, d, "positive"))
            moduli = np.abs(report.roots)
            if report.classification is StabilityClass.SADDLE:
                assert moduli.max() > 1.0 + 1e-7
                assert moduli.min() < 1.0 - 1e-7


class TestOracleEquivalence:
    def test_full_poly_matches_embedded_spectrum(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            p = draw_market(rng, n_max=6)
            d = DelayConfig(*(int(x) for x in rng.integers(0, 9, size=3)))
            point = positive_equilibrium(p).point
            hist = HistoryState.constant(point, d.tau_max + 1)
            eigenvalues = np.linalg.eigvals(embedded_jacobian(hist, p, d))
            roots = poly_roots(full_char_poly(p, d, "positive")).roots
            worst, leftovers = pair_nonzero_roots(roots, eigenvalues)
            assert worst < 1e-8
            # the remaining eigenvalues approximate the embedding's
            # padding zeros (defective, so they smear noticeably)
            if leftovers.size:
                assert leftovers.max() < 0.2

    def test_boundary_poly_matches_embedded_spectrum(self):
        # also pins down the adjustment-speed factor in the unstable root
        rng = np.random.default_rng(59)
        for _ in range(30):
            p = draw_market(rng, n_max=5)
            d = DelayConfig(*(int(x) for x in rng.integers(0, 6, size=3)))
            point = boundary_equilibrium(p).point
            hist = HistoryState.constant(point, d.tau_max + 1)
            eigenvalues = np.linalg.eigvals(embedded_jacobian(hist, p, d))
            roots = poly_roots(full_char_poly(p, d, "boundary")).roots
            worst, leftovers = pair_nonzero_roots(roots, eigenvalues)
            assert worst < 1e-8
            if leftovers.size:
                assert leftovers.max() < 0.2

    def test_boundary_is_saddle_under_positive_margin(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            p = draw_market(rng, n_max=6)
            d = DelayConfig(*(int(x) for x in rng.integers(0, 5, size=3)))
            report = poly_roots(full_char_poly(p, d, "boundary"))
            assert report.classification is StabilityClass.SADDLE


class TestFlipGain:
    def test_vanishing_denominator_is_degenerate(self):
        # 1 - eps2*s2 + eps0*s = 1 - 0.5 - 0.5
        with pytest.raises(DegenerateBoundaryError):
            flip_gain(0.5, 0.5, s=-1, s2=1)


class TestDelayFreeStability:
    def test_running_example_is_stable(self, sec4):
        rep = delay_free_stable(epsilon_triple(sec4))
        assert rep.stable
        assert rep.eps2_margin == pytest.approx(0.4, abs=1e-12)
        assert rep.eps1_margin == pytest.approx(0.08 / 0.72 + 0.0625, abs=1e-12)

    def test_fast_adjustment_is_unstable(self):
        p = sec4_at(1.3)
        eps = epsilon_triple(p)
        assert eps.eps1 == pytest.approx(0.21875, abs=1e-12)
        assert not delay_free_stable(eps).stable

    def test_threshold_alpha_by_bisection(self, sec4):
        lo, hi = 1.0, 1.4
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if delay_free_stable(epsilon_triple(sec4_at(mid))).stable:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(32.0 / 27.0, abs=1e-9)

    def test_agrees_with_root_moduli_without_delays(self):
        rng = np.random.default_rng(67)
        d0 = DelayConfig(0, 0, 0)
        checked = 0
        while checked < 200:
            p = draw_market(rng, n_max=8)
            eps = epsilon_triple(p)
            rep = delay_free_stable(eps)
            if abs(rep.eps1_margin) < 1e-6 or abs(rep.eps2_margin) < 1e-6:
                continue
            max_mod = poly_roots(reduced_char_poly(eps, d0)).max_modulus
            if abs(max_mod - 1.0) < 1e-6:
                continue
            assert rep.stable == (max_mod < 1.0)
            checked += 1

    def test_inequality_implied_by_the_stability_region(self):
        rng = np.random.default_rng(71)
        checked = 0
        while checked < 300:
            p = draw_market(rng, n_max=8)
            eps = epsilon_triple(p)
            rep = delay_free_stable(eps)
            if not rep.stable or rep.eps1_margin <= 1e-9:
                continue
            assert (1.0 - eps.eps1) * (1.0 - eps.eps2) > eps.eps0 * (eps.eps1 + 1.0)
            checked += 1


class TestDelayIndependentVerdict:
    def test_matched_delays_are_applicable(self, sec4):
        eps = epsilon_triple(sec4)
        verdict = delay_independent_verdict(eps, DelayConfig(3, 5, 8))
        assert verdict is DelayIndependentVerdict.APPLICABLE_STABLE

    def test_zero_cross_delay_is_applicable(self, sec4):
        eps = epsilon_triple(sec4)
        verdict = delay_independent_verdict(eps, DelayConfig(7, 2, 0))
        assert verdict is DelayIndependentVerdict.APPLICABLE_STABLE

    def test_other_patterns_are_not_applicable(self, sec4):
        eps = epsilon_triple(sec4)
        assert (delay_independent_verdict(eps, DelayConfig(5, 3, 3))
                is DelayIndependentVerdict.NOT_APPLICABLE)

    def test_unstable_region_gives_unknown(self):
        eps = epsilon_triple(sec4_at(1.3))
        assert (delay_independent_verdict(eps, DelayConfig(1, 1, 0))
                is DelayIndependentVerdict.APPLICABLE_UNKNOWN)

    def test_sufficiency_over_random_draws(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            p = draw_stable_market(rng)
            d = draw_delay_independent_delays(rng)
            eps = epsilon_triple(p)
            assert (delay_independent_verdict(eps, d)
                    is DelayIndependentVerdict.APPLICABLE_STABLE)
            report = poly_roots(reduced_char_poly(eps, d))
            nonzero = report.roots[report.roots != 0]
            assert np.abs(nonzero).max() < 1.0


class TestNoPublicFirm:
    def test_running_example_is_stable(self, sec4):
        report = no_public_firm_spectrum(sec4, 0)
        roots = sorted(report.roots.real)
        assert roots[0] == pytest.approx(-0.6, abs=1e-12)
        assert roots[1:] == pytest.approx([0.2, 0.2, 0.2], abs=1e-9)
        assert report.classification is StabilityClass.ASYMPTOTICALLY_STABLE

    def test_crowded_market_is_unstable(self):
        p = MarketParams(b=1.0, delta=0.5, alpha=1.0, n=6, a0=1.0, a1=1.0)
        report = no_public_firm_spectrum(p, 0)
        assert report.max_modulus == pytest.approx(1.25, abs=1e-9)
        assert report.classification is not StabilityClass.ASYMPTOTICALLY_STABLE

    def test_delayed_moduli_are_fractional_powers(self, sec4):
        report = no_public_firm_spectrum(sec4, 1)
        moduli = np.abs(report.roots)
        expected = {math.sqrt(0.2), math.sqrt(0.6)}
        for m in moduli:
            assert min(abs(m - e) for e in expected) < 1e-12

    def test_requires_two_firms(self):
        p = MarketParams(b=1.0, delta=0.5, alpha=1.0, n=1, a0=1.0, a1=1.0)
        with pytest.raises(ValidationError):
            no_public_firm_spectrum(p, 0)


# ---------------------------------------------------------------------------
# the selectors of full_char_poly against the builders they replaced


def old_reduced_char_poly(eps, d):
    """The dense expansion of the reduced polynomial that the five-term
    scatter of ``reduced_char_poly`` replaced."""
    tau, tau2 = d.tau_sum, d.tau2
    c = np.zeros(tau + tau2 + 3)
    c[tau2] += eps.eps0 * (eps.eps1 + 1.0)
    c[tau + tau2 + 2] -= 1.0
    c[tau + tau2 + 1] -= eps.eps1
    c[tau + 1] -= eps.eps2
    c[tau] -= eps.eps1 * eps.eps2
    return CharPoly(coeffs=c, factors=((c, 1),))


def shifted_monomial(tau2, constant):
    c = np.zeros(tau2 + 2)
    c[0], c[-1] = constant, 1.0
    return c


def old_factors(factors):
    factors = tuple((f, m) for f, m in factors if m > 0)
    product = np.array([1.0])
    for coeffs, mult in factors:
        for _ in range(mult):
            product = np.convolve(product, coeffs)
    return CharPoly(coeffs=product, factors=factors)


def old_no_public_firm_char_poly(p, tau2):
    if p.n < 2:
        raise ValidationError(f"no-public-firm analysis needs n >= 2, got n={p.n}")
    return old_factors((
        (shifted_monomial(tau2, -0.5 * p.delta), p.n - 1),
        (shifted_monomial(tau2, 0.5 * (p.n - 1) * p.delta), 1),
    ))


def old_spectrum_poly(p, d, which):
    """The CLI's four-way switch of the spectrum subcommand on the old
    builders: the polynomial each selector named, after its checks."""
    diff = (shifted_monomial(d.tau2, -0.5 * p.delta), p.n - 1)
    if which in ("positive", "reduced"):
        require_assumptions(p)
        reduced = old_reduced_char_poly(epsilon_triple(p), d)
        if which == "reduced":
            return reduced
        return old_factors((diff, (reduced.coeffs, 1)))
    if which == "boundary":
        require_assumptions(p, which=("A.1",))
        m_gain = (p.gamma * p.a0 - p.n * p.delta * p.a1) / p.gamma
        linear = np.array([-(1.0 + p.alpha * m_gain), 1.0])
        sym = shifted_monomial(d.tau2, 0.5 * (p.n - 1) * p.delta)
        return old_factors((diff, (linear, 1), (sym, 1)))
    if which == "no-public-firm":
        return old_no_public_firm_char_poly(p, d.tau2)
    raise ValidationError(f"unknown spectrum selector '{which}'")


SELECTORS = ("reduced", "positive", "boundary", "no-public-firm")


def assert_reduced_factor(new, old, p, d):
    """Equal bit for bit but at lambda^tau2, where eps0*(eps1 + 1) becomes
    eps0 + eps1*eps0.  Each form rounds twice, so each lies within about
    2**-52 * eps0 * (1 + |eps1|) of the exact product; the bound allows
    twice their sum.  A relative bound would fail near eps1 = -1."""
    eps = epsilon_triple(p)
    tau2 = d.tau2
    others = np.arange(new.size) != tau2
    assert new.size == old.size
    assert np.array_equal(new[others], old[others])
    assert abs(new[tau2] - old[tau2]) <= 4 * 2.0**-52 * eps.eps0 * (1.0 + abs(eps.eps1))


class TestSelectorsAgainstOldBuilders:
    def test_factors_equal_the_old_ones(self):
        rng = np.random.default_rng(83)
        for _ in range(300):
            p = draw_market(rng, n_max=6, alpha_range=(0.01, 2.5))
            d = DelayConfig(*(int(x) for x in rng.integers(0, 13, size=3)))
            for which in SELECTORS:
                if which == "no-public-firm" and p.n < 2:
                    continue
                new, old = full_char_poly(p, d, which), old_spectrum_poly(p, d, which)
                assert [m for _, m in new.factors] == [m for _, m in old.factors]
                pairs = [(fn, fo) for (fn, _), (fo, _) in zip(new.factors, old.factors)]
                if which in ("reduced", "positive"):
                    # the reduced polynomial is the last factor
                    assert_reduced_factor(*pairs.pop(), p, d)
                for fn, fo in pairs:
                    assert np.array_equal(fn, fo)
                if which in ("boundary", "no-public-firm"):
                    assert np.array_equal(new.coeffs, old.coeffs)

    def test_reduced_near_eps1_minus_one(self):
        # eps1 + 1 = alpha * k_factor is small: the two forms round most apart
        d = DelayConfig(2, 3, 4)
        for alpha in (1e-9, 1e-6, 1e-3, 0.01):
            p = sec4_at(alpha)
            new, old = full_char_poly(p, d, "reduced"), old_spectrum_poly(p, d, "reduced")
            assert_reduced_factor(new.coeffs, old.coeffs, p, d)

    def test_reduced_matches_the_dense_expansion_at_coincident_powers(self, sec4):
        # tau2 = tau0 + tau1 and tau2 = tau0 + tau1 + 1 put two terms on one
        # power; tau2 = 0 puts lambda^(tau+1) on lambda^(tau+tau2+1)
        for d in (DelayConfig(0, 0, 0), DelayConfig(1, 1, 2), DelayConfig(1, 1, 3),
                  DelayConfig(2, 1, 0)):
            eps = epsilon_triple(sec4)
            assert_reduced_factor(reduced_char_poly(eps, d).coeffs,
                                  old_reduced_char_poly(eps, d).coeffs, sec4, d)


# A.1 fails: 3.2 * 1 < 4 * 0.4 * 2.5; A.2 fails (A.1 holds): 0.5 < 0.5 * 2
A1_FAILS = MarketParams(b=1.0, delta=0.4, alpha=1.0, n=4, a0=1.0, a1=2.5)
A2_FAILS = MarketParams(b=1.0, delta=0.5, alpha=1.0, n=2, a0=2.0, a1=0.5)


class TestSelectorChecks:
    def test_boundary_needs_the_first_assumption(self):
        with pytest.raises(AssumptionError) as info:
            full_char_poly(A1_FAILS, DelayConfig(1, 0, 2), "boundary")
        assert info.value.failed == ("A.1",)

    @pytest.mark.parametrize("which", ["positive", "reduced"])
    def test_positive_and_reduced_need_the_second_assumption(self, which):
        with pytest.raises(AssumptionError) as info:
            full_char_poly(A2_FAILS, DelayConfig(1, 0, 2), which)
        assert info.value.failed == ("A.2",)

    def test_boundary_does_not_need_the_second_assumption(self):
        cp = full_char_poly(A2_FAILS, DelayConfig(1, 0, 2), "boundary")
        # (lambda^3 - 1/4), the linear factor and (lambda^3 + 1/4)
        assert cp.degree == 7

    def test_no_public_firm_needs_two_firms(self):
        p = MarketParams(b=1.0, delta=0.5, alpha=1.0, n=1, a0=1.0, a1=1.0)
        with pytest.raises(ValidationError, match="n >= 2"):
            full_char_poly(p, DelayConfig(0, 0, 3), "no-public-firm")
