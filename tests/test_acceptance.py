"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every tolerance is pinned here exactly as specified.  Three reference
values quoted from the source material cannot be reached by the map as
defined in ``model.step``: the first stability crossing for delays
(9,7,5) (criterion 4), a positive exponent for (5,3,3) at alpha = 1.65
(criterion 9) and a period-4 window for (2,2,10) (criterion 10).  Those
clauses keep the property they were written to check but assert the
value the documented map gives, and each confirms that value inside the
test through a second, independent route (see the notes at each clause).
"""

import dataclasses
import math

import numpy as np

from cournotlab import (
    DelayConfig,
    DivergenceError,
    HistoryState,
    InitPolicy,
    MarketParams,
    AttractorType,
    BifurcationKind,
    StabilityClass,
    SweepSpec,
    bifurcation_diagram,
    boundary_equilibrium,
    critical_alpha,
    default_initial_history,
    delay_free_stable,
    embedded_jacobian,
    epsilon_triple,
    flip_boundary,
    full_char_poly,
    largest_lyapunov,
    no_public_firm_spectrum,
    ns_boundary,
    poly_roots,
    positive_equilibrium,
    reduced_char_poly,
    reduced_fixed_point,
    simulate,
)
from cournotlab.cli import main

from conftest import (
    draw_delay_independent_delays,
    draw_market,
    draw_stable_market,
    pair_nonzero_roots,
    sec4_at,
)


def _criterion(num, title, clauses):
    ok = all(flag for _, flag in clauses)
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {title}")
    for desc, flag in clauses:
        print(f"    {'ok  ' if flag else 'FAIL'} {desc}")
    assert ok, f"criterion {num}: " + "; ".join(d for d, f in clauses if not f)


def test_criterion_01_equilibrium_exactness(sec4):
    ep = positive_equilibrium(sec4).point
    e0 = boundary_equilibrium(sec4).point
    clauses = [
        ("q0* = 0.9375 to 1e-12", abs(ep[0] - 0.9375) < 1e-12),
        ("q1* = 0.6640625 to 1e-12", np.abs(ep[1:] - 0.6640625).max() < 1e-12),
        ("boundary q* = 0.78125 to 1e-12", np.abs(e0[1:] - 0.78125).max() < 1e-12),
        ("boundary public output exactly 0", e0[0] == 0.0),
    ]
    _criterion(1, "equilibrium exactness", clauses)


def test_criterion_02_delay_free_flip_threshold(sec4):
    flip = flip_boundary(sec4, DelayConfig(2, 2, 10)).alpha_crit  # even/even
    lo, hi = 1.0, 1.4
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if delay_free_stable(epsilon_triple(sec4_at(mid))).stable:
            lo = mid
        else:
            hi = mid
    margin_zero = 0.5 * (lo + hi)
    clauses = [
        ("flip (even/even) alpha = 1.1852 +/- 1e-3", abs(flip - 1.1852) <= 1e-3),
        ("margin-zero alpha = 1.1852 +/- 1e-3", abs(margin_zero - 1.1852) <= 1e-3),
        ("both routes agree to 1e-6", abs(flip - margin_zero) < 1e-6),
    ]
    _criterion(2, "delay-free / flip threshold", clauses)


def test_criterion_03_neimark_sacker_onsets(sec4):
    a = critical_alpha(sec4, DelayConfig(5, 3, 3), (1.0, 1.6))
    b = critical_alpha(sec4, DelayConfig(3, 5, 5), (1.0, 1.5))
    def interior(theta):
        return theta > 1e-3 and theta < math.pi - 1e-3
    clauses = [
        ("(5,3,3): NeimarkSacker", a.kind is BifurcationKind.NEIMARK_SACKER),
        ("(5,3,3): alpha in [1.41, 1.45]", 1.41 <= a.alpha_crit <= 1.45),
        ("(5,3,3): crossing angle interior", interior(a.theta)),
        ("(3,5,5): NeimarkSacker", b.kind is BifurcationKind.NEIMARK_SACKER),
        ("(3,5,5): alpha in [1.26, 1.30]", 1.26 <= b.alpha_crit <= 1.30),
        ("(3,5,5): crossing angle interior", interior(b.theta)),
    ]
    _criterion(3, "Neimark-Sacker onsets", clauses)


def _spectral_radius(alpha, d):
    p = sec4_at(alpha)
    point = HistoryState.constant(positive_equilibrium(p).point, d.tau_max + 1)
    return float(np.abs(np.linalg.eigvals(embedded_jacobian(point, p, d))).max())


def test_criterion_04_stability_loss_mixed_parity(sec4):
    d = DelayConfig(9, 7, 5)
    crossing = critical_alpha(sec4, d, (1.0, 1.6))
    candidate = flip_boundary(sec4, d)
    a = crossing.alpha_crit
    first_ns = min((pt.alpha_crit for pt in ns_boundary(sec4, d) if pt.alpha_crit > 1.0),
                   default=math.inf)
    clauses = [
        # The source quotes the first crossing in [1.45, 1.53].  The
        # reduced polynomial has no unit-circle root below alpha = 1.54696
        # for these delays (the closed-form crossings are 1.54696 and
        # 1.56786, and no permutation of the delay roles reaches the
        # window: 1.547, 1.357, 1.191), so the crossing is asserted at
        # 1.5470 and confirmed by the closed form and by the eigenvalues
        # of the delay-embedded Jacobian on both sides.
        ("first crossing alpha = 1.5470 +/- 1e-3", abs(a - 1.5470) <= 1e-3),
        ("within 1e-4 of the smallest ns_boundary candidate",
         abs(a - first_ns) <= 1e-4),
        ("embedded Jacobian spectral radius < 1 at crossing - 1e-3, > 1 at + 1e-3",
         _spectral_radius(a - 1e-3, d) < 1.0 < _spectral_radius(a + 1e-3, d)),
        ("closed-form candidate = 1.778 +/- 1e-3",
         abs(candidate.alpha_crit - 16.0 / 9.0) <= 1e-3),
        ("candidate flagged as non-first crossing",
         crossing.alpha_crit < candidate.alpha_crit),
    ]
    _criterion(4, "stability loss for delays (9,7,5)", clauses)


def test_criterion_05_flip_certificates(sec4):
    cases = {
        "even/even": DelayConfig(2, 2, 10),
        "odd/odd": DelayConfig(2, 1, 3),
        "even/odd": DelayConfig(9, 7, 5),
        "odd/even": DelayConfig(3, 2, 4),
    }
    clauses = []
    for label, d in cases.items():
        bp = flip_boundary(sec4, d)
        eps = dataclasses.replace(epsilon_triple(sec4), eps1=bp.eps1)
        residual = abs(reduced_char_poly(eps, d)(-1.0 + 0.0j))
        clauses.append((f"{label}: residual at -1 below 1e-10", residual < 1e-10))
    _criterion(5, "flip certificates at all four parities", clauses)


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(607)
    worst = 0.0
    for _ in range(200):
        p = draw_market(rng, n_max=6)
        d = DelayConfig(*(int(x) for x in rng.integers(0, 9, size=3)))
        hist = HistoryState.constant(positive_equilibrium(p).point, d.tau_max + 1)
        eigenvalues = np.linalg.eigvals(embedded_jacobian(hist, p, d))
        roots = poly_roots(full_char_poly(p, d, "positive")).roots
        dist, _ = pair_nonzero_roots(roots, eigenvalues)
        worst = max(worst, dist)
    _criterion(6, "oracle equivalence over 200 draws",
               [("pairing tolerance 1e-8 (200 draws, delays <= 8, n <= 6)", worst < 1e-8)])


def test_criterion_07_delay_independent_theorems():
    rng = np.random.default_rng(701)
    worst = 0.0
    for _ in range(500):
        p = draw_stable_market(rng, n_max=8)
        d = draw_delay_independent_delays(rng, max_delay=12)
        report = poly_roots(reduced_char_poly(epsilon_triple(p), d))
        nonzero = report.roots[report.roots != 0]
        worst = max(worst, float(np.abs(nonzero).max()))
    _criterion(7, "delay-independent stability theorems",
               [("max nonzero root modulus < 1 in all 500 draws", worst < 1.0)])


def test_criterion_08_boundary_saddle():
    rng = np.random.default_rng(809)
    all_saddle = True
    detail = ""
    for _ in range(200):
        p = draw_market(rng, n_max=6)
        d = DelayConfig(*(int(x) for x in rng.integers(0, 6, size=3)))
        report = poly_roots(full_char_poly(p, d, "boundary"))
        if report.classification is not StabilityClass.SADDLE:
            all_saddle = False
            detail = f" (got {report.classification.value})"
            break
    _criterion(8, "boundary equilibrium saddle",
               [("Saddle in all 200 draws with the public-output margin" + detail, all_saddle)])


def _two_orbit_lle(p, d, init, iters=20000, transient=1000, separation=1e-8):
    """Largest Lyapunov exponent from two nearby orbits of the map itself.

    The finite-difference route of Benettin et al. (Meccanica 15, 1980):
    after the transient a companion window is kept ``separation`` away
    from the reference window; each step logs the stretch of the gap and
    pulls the companion back along it.  No Jacobian is involved, so this
    checks the tangent propagation of ``largest_lyapunov`` independently.
    """
    ref = simulate(p, d, init, transient).final_window
    other = ref + separation / math.sqrt(ref.size)
    acc = 0.0
    for _ in range(iters - transient):
        ref = simulate(p, d, HistoryState(ref), 1).final_window
        other = simulate(p, d, HistoryState(other), 1).final_window
        gap = other - ref
        dist = float(np.linalg.norm(gap))
        acc += math.log(dist / separation)
        other = ref + gap * (separation / dist)
    return acc / (iters - transient)


def test_criterion_09_lyapunov_signs(sec4):
    clauses = []

    d533 = DelayConfig(5, 3, 3)
    sink = largest_lyapunov(sec4_at(1.0), d533, default_initial_history(sec4_at(1.0), d533))
    clauses.append(("(5,3,3) alpha=1.0: lle < 0", sink.lle < 0.0))

    # The source quotes lle > 0 for (5,3,3) at alpha = 1.65.  There is no
    # bounded attractor there: the invariant circle born at the
    # Neimark-Sacker point 1.4267 stays quasi-periodic (|lle| < 2e-4 over
    # [1.58, 1.6325]) and is destroyed near 1.635.  From the default start
    # q0 turns negative at step 593 and, since the map does not clamp,
    # the public-firm update then runs off to -inf.  That escape is what
    # is asserted at 1.65.
    p = sec4_at(1.65)
    init = default_initial_history(p, d533)
    try:
        largest_lyapunov(p, d533, init)
        raised = False
    except DivergenceError:
        raised = True
    clauses.append(("(5,3,3) alpha=1.65: largest_lyapunov raises DivergenceError", raised))
    escape = simulate(p, d533, init, 20000)
    negative = np.flatnonzero(escape.q0 < 0.0)
    clauses.append(("(5,3,3) alpha=1.65: q0 changes sign before diverged_at",
                    escape.diverged and negative.size > 0
                    and negative[0] < escape.diverged_at))

    # The positive sign is checked at a bounded chaotic point instead:
    # (1,1,1) at alpha = 1.48 lies 0.04 below that attractor's escape
    # (1.52) and q0 stays above 0.13.  The tangent estimate is confirmed
    # by the two-orbit estimate, which never uses the Jacobian.
    d111 = DelayConfig(1, 1, 1)
    p = sec4_at(1.48)
    init = default_initial_history(p, d111)
    tangent = largest_lyapunov(p, d111, init).lle
    two_orbit = _two_orbit_lle(p, d111, init)
    clauses.append(("(1,1,1) alpha=1.48: lle > 0 (tangent and two-orbit)",
                    tangent > 0.0 and two_orbit > 0.0))
    clauses.append(("(1,1,1) alpha=1.48: tangent and two-orbit estimates agree +/- 0.02",
                    abs(tangent - two_orbit) <= 0.02))

    d355 = DelayConfig(3, 5, 5)
    cycle = largest_lyapunov(sec4_at(1.35), d355, default_initial_history(sec4_at(1.35), d355))
    clauses.append(("(3,5,5) alpha=1.35: |lle| < 0.01", abs(cycle.lle) < 0.01))

    rng = np.random.default_rng(911)
    worst = 0.0
    done = 0
    while done < 50:
        p = draw_stable_market(rng, n_max=6)
        d = draw_delay_independent_delays(rng, max_delay=6)
        report = poly_roots(full_char_poly(p, d, "positive"))
        nonzero = report.roots[report.roots != 0]
        dominant = float(np.abs(nonzero).max())
        if dominant < 0.05:
            continue
        est = largest_lyapunov(p, d, default_initial_history(p, d))
        worst = max(worst, abs(est.lle - math.log(dominant)))
        done += 1
    clauses.append(("linear rate: lle = log(dominant modulus) +/- 0.02 over 50 draws",
                    worst <= 0.02))
    _criterion(9, "Lyapunov exponent signs and linear rate", clauses)


def _first_period_alpha(rows, period):
    for row in rows:
        if row.attractor.kind is AttractorType.PERIODIC and row.attractor.period == period:
            return row.alpha
    return None


def _escape_alpha(rows):
    """Alpha of the first divergent row, or None unless every later row diverges."""
    flags = [row.diverged for row in rows]
    if True not in flags:
        return None
    first = flags.index(True)
    return rows[first].alpha if all(flags[first:]) else None


def test_criterion_10_diagram_shape(sec4):
    spec = SweepSpec(alpha_min=1.0, alpha_max=1.7, num_alpha=71,
                     transient=2000, samples=200,
                     lyap_transient=500, lyap_iters=2000)
    d = DelayConfig(2, 2, 10)
    rows_a = bifurcation_diagram(sec4, d, spec)
    has_fp = any(r.attractor.kind is AttractorType.FIXED_POINT for r in rows_a)
    p2 = _first_period_alpha(rows_a, 2)
    p4 = _first_period_alpha(rows_a, 4)
    # The source quotes a period-4 onset in [1.50, 1.60].  For these
    # delays every orbit escapes from alpha = 1.46 on (q0 turns negative
    # first, e.g. at step 519 for alpha = 1.47), and the bounded rows
    # 1.28-1.45 stay aperiodic even after 60000-step transients, so no
    # period-4 window exists.  The escape point is asserted instead and
    # confirmed under the continued policy, which starts each cell on the
    # previous cell's attractor.
    spec_c = dataclasses.replace(spec, alpha_min=1.4, alpha_max=1.7, num_alpha=31,
                                 policy=InitPolicy.CONTINUED)
    escape = _escape_alpha(rows_a)
    escape_c = _escape_alpha(bifurcation_diagram(sec4, d, spec_c))
    clauses = [
        ("(2,2,10): fixed-point rows present", has_fp),
        ("(2,2,10): period-2 rows present", p2 is not None),
        ("(2,2,10): no Period4 row", p4 is None),
        ("(2,2,10): every row from alpha = 1.46 on Divergent, none before",
         escape is not None and abs(escape - 1.46) < 1e-9),
        ("(2,2,10): Continued policy escapes at the same alpha",
         escape is not None and escape_c is not None and abs(escape_c - escape) < 1e-9),
    ]

    spec_b = dataclasses.replace(spec, alpha_min=1.0, alpha_max=1.55, num_alpha=56)
    rows_b = bifurcation_diagram(sec4, DelayConfig(2, 4, 8), spec_b)
    p2b = _first_period_alpha(rows_b, 2)
    p4b = _first_period_alpha(rows_b, 4)
    clauses.extend([
        ("(2,4,8): period-2 rows present", p2b is not None),
        ("(2,4,8): period-4 onset in [1.33, 1.43]",
         p4b is not None and 1.33 <= p4b <= 1.43),
    ])
    _criterion(10, "qualitative diagram shape", clauses)


def test_criterion_11_no_public_firm_reduction():
    rng = np.random.default_rng(1103)
    ok_roots = True
    ok_sim = True
    for side in ("stable", "unstable"):
        for _ in range(50):
            if side == "stable":
                n = int(rng.integers(2, 7))
                coupling = float(rng.uniform(0.2, min(0.9, 0.99 * (n - 1) / 2.0)))
            else:
                n = int(rng.integers(4, 7))
                coupling = float(rng.uniform(1.1, min(1.45, 0.99 * (n - 1) / 2.0)))
            delta = 2.0 * coupling / (n - 1)
            p = MarketParams(b=1.0, delta=delta, alpha=1.0, n=n,
                             a0=1.0, a1=float(rng.uniform(1.0, 1.5)))
            tau2 = int(rng.integers(0, 5))
            report = no_public_firm_spectrum(p, tau2)
            stable_by_roots = report.max_modulus < 1.0
            if stable_by_roots != (coupling < 1.0):
                ok_roots = False

            fixed = reduced_fixed_point(p).point
            point = np.concatenate([[0.0], fixed])
            start = point.copy()
            start[1:] += 1e-2
            d = DelayConfig(0, 0, tau2)
            traj = simulate(p, d, HistoryState.constant(start, tau2 + 1), 3000)
            final_dist = np.abs(traj.outputs[-1] - point).max()
            if side == "stable":
                if traj.diverged or final_dist > 1e-6:
                    ok_sim = False
            else:
                if not traj.diverged and final_dist < 1e-1:
                    ok_sim = False
    _criterion(11, "no-public-firm reduction", [
        ("root criterion matches (n-1)*delta/2 < 1 on both sides", ok_roots),
        ("direct simulation agrees on both sides (50 draws each)", ok_sim),
    ])


def test_criterion_12_cli_determinism(tmp_path):
    flags = [
        "bifurcation-diagram", "--n", "4", "--delta", "0.4", "--a0", "2",
        "--a1", "2.5", "--b", "1", "--tau0", "2", "--tau1", "2", "--tau2", "10",
        "--alpha-min", "1.0", "--alpha-max", "1.3", "--alpha-steps", "7",
        "--transient", "500", "--samples", "30",
        "--lyap-iters", "1000", "--lyap-transient", "200",
    ]
    paths = [tmp_path / name for name in ("r1.csv", "r2.csv", "w2.csv", "w3.csv")]
    assert main([*flags, "--out", str(paths[0])]) == 0
    assert main([*flags, "--out", str(paths[1])]) == 0
    assert main([*flags, "--workers", "2", "--out", str(paths[2])]) == 0
    assert main([*flags, "--workers", "3", "--out", str(paths[3])]) == 0
    blobs = [path.read_bytes() for path in paths]
    _criterion(12, "CLI determinism", [
        ("repeat runs byte-identical", blobs[0] == blobs[1]),
        ("independent of worker count", blobs[0] == blobs[2] == blobs[3]),
    ])
