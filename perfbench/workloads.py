"""Inputs of the three workloads, generated from the seed.

A workload is one round of CLI items, repeated for the whole run.  Each
item is the argument list of one ``cournotlab.cli.main`` call (without
``--out``) and a check that reads the item's output file, together with
the outputs of the other items of its round, and returns its problems.
All markets keep both positivity assumptions and (n-1)*delta/2 < 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import oracles as O

# the item count a run completes at least, and the percentile reported
# as item_tail_ms: the highest one with ten items beyond it at that count
MIN_ITEMS = {"sweep": 40, "spectra": 200, "orbits": 40}
TAIL_PERCENTILE = {"sweep": 75, "spectra": 95, "orbits": 75}

# sweep: calls per round, cells per call, and the orbit/tangent lengths of
# each cell.  Whether a cell above the crossing escapes early (and costs a
# fraction of a bounded cell) depends on the delays, so a round holds
# many distinct calls for its cost to vary little from seed to seed.
SWEEP_CALLS = 36
SWEEP_CELLS = 6
SWEEP_TRANSIENT, SWEEP_SAMPLES = 1800, 200
SWEEP_LYAP_ITERS, SWEEP_LYAP_TRANSIENT = 2000, 1000
# stable cells sit where the spectral radius is at most this, so that the
# 0.01 bump has decayed below the fixed-point tolerance after the transient
STABLE_RADIUS = 0.99

# spectra: one triple per stratum (tau0 + tau1, tau2); the seed splits
# tau0 + tau1 and draws the spectrum's alpha.  The reduced polynomial
# depends on the delays only through these two sums: its degree is their
# total + 2 (2 to 100 here), its companion matrix (roots at zero split
# off) has size max(tau0 + tau1, tau2) + 2, and its parities move the
# first crossing by up to 50 %.  Both set the cost of an item, which
# spans 100x, so the strata are fixed and the work is the same for every
# seed.
SPECTRA_STRATA = (
    (0, 0), (1, 0), (0, 1), (2, 1), (3, 2), (5, 3), (4, 6), (8, 5), (12, 8), (9, 14),
    (18, 12), (14, 22), (26, 16), (20, 32), (36, 24), (30, 45), (50, 30), (60, 20),
    (20, 60), (94, 2), (3, 94),
)
CRITICAL_BRACKET = (0.5, 3.0)

# orbits: one market per item, n per item slot.  Nine items with spread
# costs, so that the median and p75 of a run fall inside the repeats of
# one item rather than between two items of different cost.
ORBIT_STEPS = 12000
PHASE_TRANSIENT, PHASE_SAMPLES = 4000, 8000
ORBIT_DIAGRAM_CELLS = 6
ORBIT_N = {"simulate": (2, 5, 8), "phase-portrait": (3, 6), "lyapunov": (4, 7), "diagram": (5, 2)}


@dataclass(frozen=True)
class Item:
    """One cli.main call: arguments without --out, the output suffix, and
    a check(paths, index) of its output among the round's outputs."""

    args: list
    suffix: str
    check: Callable[[list, int], list]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# sweep


def _sweep_diagram(rng: random.Random) -> tuple[O.Diagram, float]:
    """A fresh-policy grid of SWEEP_CELLS cells: two converged stable
    cells below the crossing, the rest spread from just above it into
    the escaping range.  Returns the diagram and the own crossing."""
    m = O.SEC4
    while True:
        delays = tuple(rng.randint(0, 6) for _ in range(3))
        crossing = O.first_crossing(m, delays)
        a_stable = O.alpha_at_radius(m, delays, STABLE_RADIUS, 0.5, crossing)
        top_stable = a_stable - rng.uniform(0.0, 0.01)
        top = crossing + rng.uniform(0.35, 0.5)
        h = (top - top_stable) / (SWEEP_CELLS - 2)
        # the first cell above the stable pair must clear the crossing
        if top_stable + h > crossing + 0.005:
            break
    spec = O.Diagram(
        market=m, delays=delays, alpha_min=top_stable - h, alpha_max=top,
        steps=SWEEP_CELLS, transient=SWEEP_TRANSIENT, samples=SWEEP_SAMPLES,
        lyap_iters=SWEEP_LYAP_ITERS, lyap_transient=SWEEP_LYAP_TRANSIENT, continued=False,
    )
    return spec, crossing


def _diagram_item(spec: O.Diagram, crossing: float) -> Item:
    return Item(
        args=spec.argv(),
        suffix=".csv",
        check=lambda paths, i: O.check_diagram(spec, paths[i], crossing),
    )


def sweep(seed: int) -> list[Item]:
    rng = _rng("sweep", seed)
    return [_diagram_item(*_sweep_diagram(rng)) for _ in range(SWEEP_CALLS)]


# ---------------------------------------------------------------------------
# spectra


def _spectra_group(rng: random.Random, stratum: tuple) -> list[Item]:
    """critical-alpha, ns-curve, flip-boundary and spectrum for one triple;
    the first item's check reads the next two outputs as its candidates."""
    m = O.SEC4
    tau, tau2 = stratum
    tau0 = rng.randint(0, tau)
    delays = (tau0, tau - tau0, tau2)
    alpha = rng.uniform(0.6, 2.0)
    base = m.flags + O.delay_flags(delays)
    lo, hi = CRITICAL_BRACKET

    def critical(paths, i):
        ns_problems, candidates = O.check_ns_curve(m, delays, paths[i + 1])
        flip_problems, flip_alpha = O.check_flip(m, delays, paths[i + 2])
        if ns_problems or flip_problems:
            return ["critical-alpha: its closed-form candidates failed their checks"]
        return O.check_critical(m, delays, lo, paths[i], candidates + [flip_alpha])

    def spectrum(paths, i):
        crossing = O.read_json(paths[i - 3])["alpha"]
        return O.check_spectrum(m, alpha, delays, paths[i], crossing)

    return [
        Item(["critical-alpha"] + base + ["--alpha-min", repr(lo), "--alpha-max", repr(hi)],
             ".json", critical),
        Item(["ns-curve"] + base, ".csv", lambda paths, i: O.check_ns_curve(m, delays, paths[i])[0]),
        Item(["flip-boundary"] + base, ".json", lambda paths, i: O.check_flip(m, delays, paths[i])[0]),
        Item(["spectrum", "--which", "positive", "--alpha", repr(alpha)] + base, ".json", spectrum),
    ]


def spectra(seed: int) -> list[Item]:
    rng = _rng("spectra", seed)
    return [item for stratum in SPECTRA_STRATA for item in _spectra_group(rng, stratum)]


# ---------------------------------------------------------------------------
# orbits


def _orbit_market(rng: random.Random, n: int) -> tuple[O.Market, tuple, float]:
    """A market with n private firms, small delays, and its own crossing."""
    limit = min(2.0 / (n - 1), 4.0 / (0.5 * n + 2.0), 1.0)  # eps2 < 1 and A.1 with a0=2, a1=2.5
    m = O.Market(b=1.0, delta=round(rng.uniform(0.2, 0.8 * limit), 6), n=n, a0=2.0, a1=2.5)
    delays = tuple(rng.randint(0, 4) for _ in range(3))
    return m, delays, O.first_crossing(m, delays, lo=0.05)


def _bounded_alpha(rng: random.Random, crossing: float) -> float:
    """Below the crossing or just past it, where the attractor is a fixed
    point, a period-2 orbit or a small invariant circle."""
    return crossing + rng.uniform(-0.15, 0.02)


def orbits(seed: int) -> list[Item]:
    rng = _rng("orbits", seed)
    items = []
    for n in ORBIT_N["simulate"]:
        m, delays, crossing = _orbit_market(rng, n)
        alpha = _bounded_alpha(rng, crossing)
        items.append(Item(
            ["simulate"] + m.flags + O.delay_flags(delays)
            + ["--alpha", repr(alpha), "--steps", str(ORBIT_STEPS)],
            ".csv",
            lambda paths, i, m=m, d=delays, a=alpha: O.check_simulate(m, a, d, ORBIT_STEPS, paths[i]),
        ))
    for n in ORBIT_N["phase-portrait"]:
        m, delays, crossing = _orbit_market(rng, n)
        alpha = _bounded_alpha(rng, crossing)
        items.append(Item(
            ["phase-portrait"] + m.flags + O.delay_flags(delays)
            + ["--alpha", repr(alpha), "--transient", str(PHASE_TRANSIENT),
               "--samples", str(PHASE_SAMPLES)],
            ".csv",
            lambda paths, i, m=m, d=delays, a=alpha: O.check_phase(
                m, a, d, PHASE_TRANSIENT, PHASE_SAMPLES, paths[i]),
        ))
    for n in ORBIT_N["lyapunov"]:
        m, delays, crossing = _orbit_market(rng, n)
        alpha = crossing * rng.uniform(0.6, 0.97)
        items.append(Item(
            ["lyapunov"] + m.flags + O.delay_flags(delays) + ["--alpha", repr(alpha)],
            ".json",
            lambda paths, i, m=m, d=delays, a=alpha: O.check_lyapunov(m, a, d, paths[i]),
        ))
    for n in ORBIT_N["diagram"]:
        m, delays, crossing = _orbit_market(rng, n)
        spec = O.Diagram(
            market=m, delays=delays, alpha_min=crossing * rng.uniform(0.75, 0.85),
            alpha_max=crossing + rng.uniform(0.005, 0.02), steps=ORBIT_DIAGRAM_CELLS,
            transient=SWEEP_TRANSIENT, samples=SWEEP_SAMPLES, lyap_iters=SWEEP_LYAP_ITERS,
            lyap_transient=SWEEP_LYAP_TRANSIENT, continued=True,
        )
        items.append(_diagram_item(spec, crossing))
    return items


GENERATORS = {"sweep": sweep, "spectra": spectra, "orbits": orbits}


def warmup_item(workload: str) -> list:
    """A fixed, seed-independent call of the workload's kind, run once
    untimed at set-up so that lazy imports and first-call costs are paid."""
    base = O.SEC4.flags + O.delay_flags((5, 3, 3))
    if workload == "sweep":
        return ["bifurcation-diagram"] + base + [
            "--alpha-min", "1.3", "--alpha-max", "1.5", "--alpha-steps", "2",
            "--transient", "200", "--samples", "50", "--lyap-iters", "300", "--lyap-transient", "100"]
    if workload == "spectra":
        return ["critical-alpha"] + base + ["--alpha-min", "0.5", "--alpha-max", "3.0"]
    return ["simulate"] + base + ["--alpha", "1.3", "--steps", "500"]
