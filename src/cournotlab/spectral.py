"""Characteristic polynomials of the linearized map and closed-form stability tests.

This module alone writes out and selects the characteristic polynomials.
The reduced polynomial of the positive equilibrium is written once, as
the five terms of ``reduced_terms``, linear in eps1; ``reduced_char_poly``
adds them at their powers, and the crossing search reads the same terms.
``full_char_poly`` resolves each selector ("reduced", "positive",
"boundary", "no-public-firm") to its factors after its one assumption
check.

Clearing the negative powers of the characteristic equation multiplies it
by a power of lambda, so every polynomial here may carry exact zero
low-order coefficients.  The corresponding roots at lambda = 0 are kept:
they are genuine eigenvalues of the delay-embedded system, and keeping
them preserves the multiset equivalence with the embedded Jacobian
spectrum.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .equilibria import require_assumptions
from .errors import DegenerateBoundaryError, ValidationError
from .model import DelayConfig, MarketParams

ON_CIRCLE_TOL = 1.0e-7


def k_factor(p: MarketParams) -> float:
    """Gain linking the adjustment speed to the reduced polynomial.

    Equals ``b * q0_star``; the coefficient ``eps1`` of the reduced
    polynomial is ``alpha * k_factor - 1``.
    """
    return (p.gamma * p.a0 - p.n * p.delta * p.a1) / (p.gamma - p.n * p.delta**2)


@dataclass(frozen=True)
class EpsilonTriple:
    """Coefficients (eps0, eps1, eps2) of the reduced stability polynomial.

    eps0 = n*delta^2/2 couples the public firm to the symmetric private
    mode, eps2 = (n-1)*delta/2 couples the private firms to each other,
    and eps1 + 1 = alpha * k_factor carries the adjustment speed.
    """

    eps0: float
    eps1: float
    eps2: float


def coupling_epsilons(p: MarketParams) -> tuple[float, float]:
    """The coefficients (eps0, eps2) that do not depend on alpha."""
    return 0.5 * p.n * p.delta**2, 0.5 * (p.n - 1) * p.delta


def flip_gain(eps0: float, eps2: float, s: int = 1, s2: int = 1) -> float:
    """eps1 at which lambda = -1 is a root of the reduced polynomial.

    It is ``(1 - eps2*s2 - eps0*s) / (1 - eps2*s2 + eps0*s)`` with
    ``s = (-1)^(tau0+tau1)`` and ``s2 = (-1)^tau2``; with no delays
    (s = s2 = 1) it is the zero-delay stability limit of eps1.  Raises
    DegenerateBoundaryError where the denominator vanishes.
    """
    denom = 1.0 - eps2 * s2 + eps0 * s
    if abs(denom) < 1.0e-12:
        raise DegenerateBoundaryError(
            f"flip condition degenerate: 1 - eps2*{s2} + eps0*{s} = {denom}"
        )
    return (1.0 - eps2 * s2 - eps0 * s) / denom


def epsilon_triple(p: MarketParams) -> EpsilonTriple:
    """Reduced-polynomial coefficients for the interior equilibrium.

    Requires A.1 so that eps1 + 1 = alpha * k_factor stays positive.
    """
    require_assumptions(p, which=("A.1",))
    eps0, eps2 = coupling_epsilons(p)
    return EpsilonTriple(eps0=eps0, eps1=p.alpha * k_factor(p) - 1.0, eps2=eps2)


@dataclass(frozen=True)
class CharPoly:
    """Real polynomial with ascending coefficients and its factored form.

    ``factors`` lists (ascending coefficients, multiplicity) pairs whose
    product equals ``coeffs``.  Roots are extracted factor by factor:
    repeated factors would otherwise turn into high-multiplicity roots of
    the expanded polynomial, which companion-matrix solvers can only
    locate to a fractional power of machine precision.
    """

    coeffs: np.ndarray
    factors: tuple

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 1 or c[-1] == 0.0:
            raise ValidationError("coefficients must be 1-d with a nonzero leading entry")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, lam):
        """Evaluate by Horner's rule; accepts scalars or arrays, real or complex."""
        lam = np.asarray(lam)
        acc = np.zeros_like(lam, dtype=complex)
        for c in self.coeffs[::-1]:
            acc = acc * lam + c
        return acc


def _expand(factors) -> np.ndarray:
    out = np.array([1.0])
    for coeffs, mult in factors:
        for _ in range(mult):
            out = np.convolve(out, coeffs)
    return out


def _shifted_monomial_factor(tau2: int, constant: float) -> np.ndarray:
    # ascending coefficients of lambda^(tau2+1) + constant
    c = np.zeros(tau2 + 2)
    c[0] = constant
    c[-1] = 1.0
    return c


def reduced_terms(eps0: float, eps2: float, d: DelayConfig):
    """The reduced polynomial as five terms, linear in eps1:
    P = sum((base + eps1 * slope) * lambda**powers)."""
    tau, tau2 = d.tau_sum, d.tau2
    base = np.array([eps0, -1.0, 0.0, -eps2, 0.0])
    slope = np.array([eps0, 0.0, -1.0, 0.0, -eps2])
    powers = np.array([tau2, tau + tau2 + 2, tau + tau2 + 1, tau + 1, tau])
    return base, slope, powers


def reduced_char_poly(eps: EpsilonTriple, d: DelayConfig) -> CharPoly:
    """Polynomial governing the interior equilibrium after removing the
    always-stable private difference modes.

    Clearing negative powers of the reduced characteristic equation gives

        eps0*(eps1+1)*lambda^tau2
            - (lambda + eps1) * (lambda^(tau2+1) + eps2) * lambda^(tau0+tau1)

    of degree tau0 + tau1 + tau2 + 2 with leading coefficient -1: the
    terms of ``reduced_terms`` added at their powers, in their order.
    """
    base, slope, powers = reduced_terms(eps.eps0, eps.eps2, d)
    c = np.bincount(powers, weights=base + eps.eps1 * slope)
    return CharPoly(coeffs=c, factors=((c, 1),))


def full_char_poly(p: MarketParams, d: DelayConfig, which: str) -> CharPoly:
    """The characteristic polynomial that the selector ``which`` names.

    - "reduced": the reduced polynomial of the positive equilibrium;
      needs A.1 and A.2.
    - "positive": the reduced polynomial times the private difference-mode
      factor ``(lambda^(tau2+1) - delta/2)^(n-1)``; needs A.1 and A.2.
    - "boundary": the equilibrium with the public firm shut down, which
      factors completely; its unstable linear factor keeps the
      adjustment-speed term.  Needs A.1: the saddle classification is
      only meaningful when the public firm has room to grow back.
    - "no-public-firm": the market without the public firm, the
      difference-mode factor times the symmetric factor
      ``lambda^(tau2+1) + (n-1)*delta/2``; needs n >= 2.

    A failing assumption raises AssumptionError, any other bad input
    ValidationError.
    """
    diff_factor = (_shifted_monomial_factor(d.tau2, -0.5 * p.delta), p.n - 1)
    sym_factor = (_shifted_monomial_factor(d.tau2, 0.5 * (p.n - 1) * p.delta), 1)
    if which in ("reduced", "positive"):
        require_assumptions(p)
        reduced = reduced_char_poly(epsilon_triple(p), d)
        if which == "reduced":
            return reduced
        factors = (diff_factor, (reduced.coeffs, 1))
    elif which == "boundary":
        require_assumptions(p, which=("A.1",))
        m_gain = (p.gamma * p.a0 - p.n * p.delta * p.a1) / p.gamma
        linear = np.array([-(1.0 + p.alpha * m_gain), 1.0])
        factors = (diff_factor, (linear, 1), sym_factor)
    elif which == "no-public-firm":
        if p.n < 2:
            raise ValidationError(f"no-public-firm analysis needs n >= 2, got n={p.n}")
        factors = (diff_factor, sym_factor)
    else:
        raise ValidationError(
            f"unknown spectrum selector '{which}' "
            "(expected reduced, positive, boundary or no-public-firm)"
        )

    factors = tuple((f, m) for f, m in factors if m > 0)
    return CharPoly(coeffs=_expand(factors), factors=factors)


class StabilityClass(enum.Enum):
    ASYMPTOTICALLY_STABLE = "AsymptoticallyStable"
    NON_HYPERBOLIC = "NonHyperbolic"
    UNSTABLE = "Unstable"
    SADDLE = "Saddle"


@dataclass(frozen=True)
class SpectrumReport:
    roots: np.ndarray
    max_modulus: float
    on_circle_count: int
    classification: StabilityClass


def poly_roots(cp: CharPoly) -> SpectrumReport:
    """All roots of a characteristic polynomial with a stability verdict.

    Each distinct factor goes once through numpy's balanced companion
    matrix, which reports the exact zero low-order coefficients as roots
    at the origin; its roots are then repeated by its multiplicity.  A
    root counts as on the unit circle when its modulus is within
    ON_CIRCLE_TOL of 1."""
    if cp.degree < 1:
        raise ValidationError("need degree >= 1 to compute a spectrum")
    roots = np.concatenate([np.tile(np.roots(coeffs[::-1]), mult) for coeffs, mult in cp.factors])
    moduli = np.abs(roots)
    max_modulus = float(moduli.max())
    on_circle = int(np.count_nonzero(np.abs(moduli - 1.0) < ON_CIRCLE_TOL))
    if max_modulus < 1.0 - ON_CIRCLE_TOL:
        cls = StabilityClass.ASYMPTOTICALLY_STABLE
    elif on_circle > 0:
        cls = StabilityClass.NON_HYPERBOLIC
    elif np.any(moduli < 1.0 - ON_CIRCLE_TOL):
        cls = StabilityClass.SADDLE
    else:
        cls = StabilityClass.UNSTABLE
    return SpectrumReport(
        roots=np.asarray(roots, dtype=complex),
        max_modulus=max_modulus,
        on_circle_count=on_circle,
        classification=cls,
    )


def no_public_firm_spectrum(p: MarketParams, tau2: int) -> SpectrumReport:
    """Spectrum of the reduced market; stable iff (n-1)*delta/2 < 1."""
    return poly_roots(full_char_poly(p, DelayConfig(tau2=tau2), "no-public-firm"))


@dataclass(frozen=True)
class DelayFreeReport:
    """Outcome of the zero-delay stability test with signed margins.

    Stability holds iff eps2 < 1 and eps1 < ``flip_gain(eps0, eps2)``
    = (1 - eps2 - eps0) / (1 - eps2 + eps0); both margins are positive
    exactly when their inequality holds.
    """

    stable: bool
    eps2_margin: float
    eps1_margin: float


def delay_free_stable(eps: EpsilonTriple) -> DelayFreeReport:
    eps2_margin = 1.0 - eps.eps2
    if eps2_margin > 0.0:
        eps1_margin = flip_gain(eps.eps0, eps.eps2) - eps.eps1
    else:
        eps1_margin = -np.inf
    return DelayFreeReport(
        stable=eps2_margin > 0.0 and eps1_margin > 0.0,
        eps2_margin=eps2_margin,
        eps1_margin=eps1_margin,
    )


class DelayIndependentVerdict(enum.Enum):
    APPLICABLE_STABLE = "Applicable+Stable"
    APPLICABLE_UNKNOWN = "Applicable+Unknown"
    NOT_APPLICABLE = "NotApplicable"


def delay_independent_verdict(eps: EpsilonTriple, d: DelayConfig) -> DelayIndependentVerdict:
    """Sufficient delay-independent stability test.

    Applies only when tau2 = 0 or tau0 + tau1 = tau2; in those delay
    patterns the zero-delay region is delay-independent.  The test is
    sufficient only, so a failing margin yields Unknown rather than
    Unstable.
    """
    if not (d.tau2 == 0 or d.tau_sum == d.tau2):
        return DelayIndependentVerdict.NOT_APPLICABLE
    if delay_free_stable(eps).stable:
        return DelayIndependentVerdict.APPLICABLE_STABLE
    return DelayIndependentVerdict.APPLICABLE_UNKNOWN
