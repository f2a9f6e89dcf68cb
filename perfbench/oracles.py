"""The benchmark's own model of the delayed Cournot map, and the checks
that compare the program's CLI outputs with it.

Nothing here imports cournotlab.  Every reference value is derived from
the model's definitions:

* the map (public firm: gradient step on marginal social surplus with
  speed alpha, reading private outputs tau1 steps back; private firms:
  best responses to the public output tau0 steps back and to the other
  private outputs tau2 steps back), iterated in plain Python floats;
* the interior equilibrium, as the solution of the two first-order
  conditions of the symmetric fixed point;
* the linearisation at that equilibrium, split into the symmetric
  public/private block (the reduced polynomial) and the n - 1 private
  difference modes (lambda^(tau2+1) = delta/2).

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

PERTURBATION = 1.0e-2
BLOWUP = 1.0e6

# tolerances, each with the reason it has the size it has
ALPHA_TOL = 1.0e-4  # critical_alpha bisects its bracket down to 1e-4
BRACKET_STEP = 2.0e-4  # "just under / just over" the reported crossing
LLE_TOL = 2.0e-3  # finite-length tangent averages at stable points; rejects 0.01
FIXED_TOL = 1.0e-7  # a FixedPoint row sits on q0* once the transient has decayed
ORBIT_TOL = 1.0e-9  # plain-float recurrence against the program on non-chaotic orbits
ROOT_RESIDUAL_TOL = 1.0e-9  # backward error of a reported root, relative to |coeffs|
BOUNDARY_RESIDUAL_TOL = 1.0e-7  # |P(e^{i theta})| relative to |coeffs| at a crossing
CHAOS_LLE = 5.0e-3  # above this a cell is chaotic: e^(5e-3 * 2000) * 1e-16 is still << ORBIT_TOL


@dataclass(frozen=True)
class Market:
    """Parameters of one market: b, delta, n and the intercept gaps a0, a1."""

    b: float
    delta: float
    n: int
    a0: float
    a1: float

    @property
    def flags(self) -> list[str]:
        return [
            "--n", str(self.n), "--delta", repr(self.delta), "--b", repr(self.b),
            "--a0", repr(self.a0), "--a1", repr(self.a1),
        ]


SEC4 = Market(b=1.0, delta=0.4, n=4, a0=2.0, a1=2.5)


def delay_flags(delays) -> list[str]:
    t0, t1, t2 = delays
    return ["--tau0", str(t0), "--tau1", str(t1), "--tau2", str(t2)]


# ---------------------------------------------------------------------------
# equilibrium and recurrence


def equilibrium(m: Market) -> tuple[float, float]:
    """(q0*, q1*) from the two first-order conditions, by Cramer's rule.

    Public firm (marginal social surplus zero): b*q0 + b*delta*n*q1 = a0.
    Private firm (best response, symmetric):   delta*q0 + (2 + (n-1)*delta)*q1 = a1/b.
    """
    a11, a12, r1 = m.b, m.b * m.delta * m.n, m.a0
    a21, a22, r2 = m.delta, 2.0 + (m.n - 1) * m.delta, m.a1 / m.b
    det = a11 * a22 - a12 * a21
    return (r1 * a22 - a12 * r2) / det, (a11 * r2 - a21 * r1) / det


def initial_window(m: Market, delays) -> list[list[float]]:
    """The documented default history: tau_max + 1 copies of the
    equilibrium with +0.01 on the public output, oldest row first."""
    q0, q1 = equilibrium(m)
    row = [q0 + PERTURBATION] + [q1] * m.n
    return [list(row) for _ in range(max(delays) + 1)]


def _sum(xs) -> float:
    s = 0.0
    for x in xs:
        s += x
    return s


def orbit(m: Market, alpha: float, delays, window, steps: int, blowup: float = BLOWUP):
    """Iterate the map from ``window`` (oldest row first).

    Returns (rows, diverged) where rows[0] is the current state of the
    window and rows[k] the state k steps later; iteration stops after
    the first row with a coordinate that is not finite or exceeds
    ``blowup`` in absolute value, as the program documents.
    """
    t0, t1, t2 = delays
    b, delta, a0 = m.b, m.delta, m.a0
    base = m.a1 / (2.0 * b)
    hd = 0.5 * delta
    buf = [list(r) for r in window]
    depth = len(buf)
    diverged = False
    for _ in range(steps):
        q0 = buf[-1][0]
        s1 = _sum(buf[-1 - t1][1:])
        new0 = q0 + alpha * q0 * (a0 - b * q0 - b * delta * s1)
        priv2 = buf[-1 - t2][1:]
        s2 = _sum(priv2)
        lag0 = buf[-1 - t0][0]
        row = [new0] + [base - hd * lag0 - hd * (s2 - x) for x in priv2]
        buf.append(row)
        if not all(math.isfinite(x) for x in row) or max(abs(x) for x in row) > blowup:
            diverged = True
            break
    return buf[depth - 1 :], diverged


# ---------------------------------------------------------------------------
# spectrum of the linearisation at the interior equilibrium


def gain(m: Market) -> float:
    """b * q0*: the factor by which alpha enters the public row."""
    return m.b * equilibrium(m)[0]


def reduced_poly(m: Market, alpha: float, delays) -> np.ndarray:
    """Ascending coefficients of the symmetric-mode characteristic polynomial.

    Linearising at the equilibrium and summing the private rows gives, for
    the public deviation u and the private sum s,
        lambda*u = (1 - k*alpha)*u - k*alpha*delta*lambda^-tau1*s
        lambda*s = -(n*delta/2)*lambda^-tau0*u - ((n-1)*delta/2)*lambda^-tau2*s
    with k = b*q0*.  Eliminating s and clearing negative powers:
        (lambda + e1)(lambda^(tau2+1) + e2) lambda^(tau0+tau1) = e0 (e1 + 1) lambda^tau2
    with e0 = n*delta^2/2, e1 = k*alpha - 1, e2 = (n-1)*delta/2.
    The returned polynomial is the right side minus the left side.
    """
    t0, t1, t2 = delays
    e0 = 0.5 * m.n * m.delta**2
    e1 = gain(m) * alpha - 1.0
    e2 = 0.5 * (m.n - 1) * m.delta
    lin = np.array([e1, 1.0])
    shift = np.zeros(t2 + 2)
    shift[0], shift[-1] = e2, 1.0
    lhs = P.polymul(P.polymul(lin, shift), np.eye(1, t0 + t1 + 1, t0 + t1)[0])
    rhs = np.zeros(t2 + 1)
    rhs[t2] = e0 * (e1 + 1.0)
    return P.polysub(rhs, lhs)


def difference_factor(m: Market, delays) -> np.ndarray:
    """Ascending coefficients of lambda^(tau2+1) - delta/2, the factor of
    each of the n - 1 private difference modes."""
    c = np.zeros(delays[2] + 2)
    c[0], c[-1] = -0.5 * m.delta, 1.0
    return c


def _roots(coeffs: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(coeffs)
    trimmed = coeffs[nz[0] : nz[-1] + 1]
    zeros = np.zeros(nz[0], dtype=complex)
    if trimmed.size < 2:
        return zeros
    return np.concatenate([P.polyroots(trimmed).astype(complex), zeros])


def reduced_radius(m: Market, alpha: float, delays) -> float:
    return float(np.abs(_roots(reduced_poly(m, alpha, delays))).max())


def spectral_radius(m: Market, alpha: float, delays) -> float:
    """Largest root modulus of the full linearisation: the reduced roots
    and, when there are at least two private firms, the difference modes."""
    rho = reduced_radius(m, alpha, delays)
    if m.n >= 2:
        rho = max(rho, (0.5 * m.delta) ** (1.0 / (delays[2] + 1)))
    return rho


def first_crossing(m: Market, delays, lo: float = 0.5, hi: float = 3.0, step: float = 0.02) -> float:
    """Smallest alpha in (lo, hi) where the reduced radius reaches 1, by a
    scan of the benchmark's own roots and bisection to 1e-9.  The scan step
    is far below the width of any stable window seen between crossings."""
    if reduced_radius(m, lo, delays) >= 1.0:
        raise ValueError(f"not stable at alpha={lo} for delays {delays}")
    a = lo
    while True:
        b = min(a + step, hi)
        if reduced_radius(m, b, delays) >= 1.0:
            break
        if b >= hi:
            raise ValueError(f"no crossing below alpha={hi} for delays {delays}")
        a = b
    while b - a > 1.0e-9:
        mid = 0.5 * (a + b)
        if reduced_radius(m, mid, delays) >= 1.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def alpha_at_radius(m: Market, delays, target: float, lo: float, hi: float) -> float:
    """Alpha in [lo, hi] where the full spectral radius equals ``target``,
    by bisection to 1e-6; the radius must be below target at lo and above
    at hi.  Returns the lower end, where the radius is below target."""
    while hi - lo > 1.0e-6:
        mid = 0.5 * (lo + hi)
        if spectral_radius(m, mid, delays) >= target:
            hi = mid
        else:
            lo = mid
    return lo


def relative_residual(coeffs: np.ndarray, z: complex) -> float:
    """|p(z)| / sum_k |c_k| |z|^k: the backward error of z as a root of p."""
    scale = float(P.polyval(abs(z), np.abs(coeffs)))
    return abs(complex(P.polyval(z, coeffs))) / scale if scale > 0 else 0.0


# ---------------------------------------------------------------------------
# output parsing


def read_csv(path):
    """(comment lines, header, rows as lists of strings) of a CLI CSV file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] != "":
        raise ValueError("file does not end with a newline")
    lines = lines[:-1]
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return comments, body[0].split(","), [ln.split(",") for ln in body[1:]]


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(y))


def _compare_orbit(label, got_rows, ref_rows, tol=ORBIT_TOL) -> list[str]:
    """Compare two equally long lists of equally long float rows."""
    if len(got_rows) != len(ref_rows):
        return [f"{label}: {len(got_rows)} rows, the recurrence gives {len(ref_rows)}"]
    for k, (g, r) in enumerate(zip(got_rows, ref_rows)):
        for j, (x, y) in enumerate(zip(g, r)):
            if not _close(x, y, tol):
                return [f"{label}: row {k} column {j} is {x!r}, the recurrence gives {y!r}"]
    return []


# ---------------------------------------------------------------------------
# checks of each kind of CLI output


@dataclass(frozen=True)
class Diagram:
    """The inputs of one bifurcation-diagram call."""

    market: Market
    delays: tuple
    alpha_min: float
    alpha_max: float
    steps: int
    transient: int
    samples: int
    lyap_iters: int
    lyap_transient: int
    continued: bool

    @property
    def grid(self) -> list[float]:
        h = (self.alpha_max - self.alpha_min) / (self.steps - 1)
        return [self.alpha_min + k * h for k in range(self.steps)]

    def argv(self) -> list[str]:
        return (
            ["bifurcation-diagram"] + self.market.flags + delay_flags(self.delays)
            + ["--alpha-min", repr(self.alpha_min), "--alpha-max", repr(self.alpha_max),
               "--alpha-steps", str(self.steps), "--transient", str(self.transient),
               "--samples", str(self.samples), "--lyap-iters", str(self.lyap_iters),
               "--lyap-transient", str(self.lyap_transient),
               "--policy", "Continued" if self.continued else "FreshPerturbed",
               "--workers", "1"]
        )


def check_diagram(spec: Diagram, path, crossing: float) -> list[str]:
    """Shape, stable cells and recurrence of a bifurcation diagram.

    ``crossing`` is the benchmark's own first crossing for the market and
    delays.  Below it every cell's exponent is ln(rho), and a cell must be
    a fixed point if it is fresh (the grids are laid out so that the bump
    has decayed) or if the recurrence has settled on q0*; every FixedPoint
    row must sit at q0*.
    The recurrence is started as the policy says: fresh cells from the
    bumped equilibrium, continued cells from the previous cell's last
    tau_max + 1 states (fresh again after an escape).  A cell is Divergent
    exactly when the recurrence escapes, and non-chaotic cells match its
    samples.
    """
    _, header, rows = read_csv(path)
    if header != ["alpha", "sample_index", "q0", "lle", "attractor_type"]:
        return [f"diagram header {header}"]
    cells: dict[str, list] = {}
    for r in rows:
        cells.setdefault(r[0], []).append(r)
    grid = spec.grid
    if len(cells) != len(grid):
        return [f"diagram has {len(cells)} cells, the grid has {len(grid)}"]
    q_star = equilibrium(spec.market)[0]
    depth = max(spec.delays) + 1
    steps = spec.transient + spec.samples
    fresh = initial_window(spec.market, spec.delays)
    window = fresh
    problems = []
    for (key, cell), alpha in zip(cells.items(), grid):
        where = f"cell alpha={alpha!r}"
        if not _close(float(key), alpha, 1e-12):
            return problems + [f"{where}: alpha column reads {key}"]
        if [int(r[1]) for r in cell] != list(range(len(cell))):
            problems.append(f"{where}: sample_index is not 0..{len(cell) - 1}")
        label, lle = cell[0][4], float(cell[0][3])
        if any(r[3:] != cell[0][3:] for r in cell):
            problems.append(f"{where}: label or lle differs between samples")
        q0s = [[float(r[2])] for r in cell]
        ref, diverged = orbit(spec.market, alpha, spec.delays, window, steps)
        if diverged:
            if label != "Divergent" or not math.isnan(lle):
                problems.append(f"{where}: the recurrence escapes, the program says {label}")
            window = fresh
            continue
        if label == "Divergent" or len(cell) != spec.samples:
            problems.append(f"{where}: {label} with {len(cell)} samples, the recurrence stays bounded")
            continue
        if alpha < crossing:
            rho = spectral_radius(spec.market, alpha, spec.delays)
            if not abs(lle - math.log(rho)) <= LLE_TOL:
                problems.append(f"{where}: lle={lle!r}, ln(rho)={math.log(rho)!r}")
            settled = all(abs(r[0] - q_star) <= FIXED_TOL for r in ref[-spec.samples:])
            if (settled or not spec.continued) and label != "FixedPoint":
                problems.append(f"{where}: below the crossing {crossing!r} but labelled {label}")
        if label == "FixedPoint" and any(abs(q[0] - q_star) > FIXED_TOL for q in q0s):
            problems.append(f"{where}: FixedPoint samples leave q0*={q_star!r}")
        if not lle > CHAOS_LLE:
            problems += _compare_orbit(where, q0s, [r[:1] for r in ref[-spec.samples:]])
        window = (window + ref[1:])[-depth:] if spec.continued else fresh
    return problems


def check_simulate(m: Market, alpha: float, delays, steps: int, path) -> list[str]:
    """Every row of a non-chaotic `simulate` run matches the recurrence."""
    comments, header, rows = read_csv(path)
    if header != ["t"] + [f"q{i}" for i in range(m.n + 1)]:
        return [f"simulate header {header}"]
    ref, diverged = orbit(m, alpha, delays, initial_window(m, delays), steps)
    if f"# diverged={str(diverged).lower()}" not in comments:
        return [f"simulate: diverged flag differs from the recurrence ({diverged})"]
    if [r[0] for r in rows] != [str(k) for k in range(len(rows))]:
        return ["simulate: t column is not 0, 1, 2, ..."]
    return _compare_orbit("simulate", [[float(x) for x in r[1:]] for r in rows], ref)


def check_phase(m: Market, alpha: float, delays, transient: int, samples: int, path) -> list[str]:
    """(t, q0, q1) rows of a `phase-portrait` run match the recurrence."""
    _, header, rows = read_csv(path)
    if header != ["t", "q0", "q1"]:
        return [f"phase-portrait header {header}"]
    ref, _ = orbit(m, alpha, delays, initial_window(m, delays), transient + samples)
    want_t = [str(transient + 1 + k) for k in range(samples)]
    if [r[0] for r in rows] != want_t:
        return ["phase-portrait: t column is not transient+1 .. transient+samples"]
    got = [[float(r[1]), float(r[2])] for r in rows]
    return _compare_orbit("phase-portrait", got, [r[:2] for r in ref[-samples:]])


def check_lyapunov(m: Market, alpha: float, delays, path) -> list[str]:
    """At a stable point the exponent is ln of the spectral radius."""
    lle = read_json(path)["lle"]
    want = math.log(spectral_radius(m, alpha, delays))
    if not abs(lle - want) <= LLE_TOL:
        return [f"lyapunov: lle={lle!r}, ln(rho)={want!r}"]
    return []


def check_critical(m: Market, delays, alpha_min: float, path, candidates: list[float]) -> list[str]:
    """The reported crossing is bracketed by the benchmark's own radius
    and equals the smallest closed-form candidate above the bracket start."""
    alpha = read_json(path)["alpha"]
    problems = []
    below = reduced_radius(m, alpha - BRACKET_STEP, delays)
    above = reduced_radius(m, alpha + BRACKET_STEP, delays)
    if not (below < 1.0 < above):
        problems.append(
            f"critical-alpha {alpha!r}: radius {below!r} just under and {above!r} just over"
        )
    first = min((c for c in candidates if c > alpha_min), default=None)
    if first is None or abs(alpha - first) > ALPHA_TOL:
        problems.append(f"critical-alpha {alpha!r}: smallest closed-form candidate is {first!r}")
    return problems


def check_ns_curve(m: Market, delays, path) -> tuple[list[str], list[float]]:
    """Each row's (theta, alpha) puts e^{i theta} on the own reduced
    polynomial's root set; returns the problems and the rows' alphas."""
    _, header, rows = read_csv(path)
    if header != ["theta", "eps1", "alpha", "residual"]:
        return [f"ns-curve header {header}"], []
    problems, alphas = [], []
    for r in rows:
        theta, alpha = float(r[0]), float(r[2])
        res = relative_residual(reduced_poly(m, alpha, delays), cmath.exp(1j * theta))
        if not res <= BOUNDARY_RESIDUAL_TOL:
            problems.append(f"ns-curve row theta={theta!r}: relative residual {res!r}")
        alphas.append(alpha)
    return problems, alphas


def check_flip(m: Market, delays, path) -> tuple[list[str], float]:
    """The flip alpha puts -1 on the own reduced polynomial's root set."""
    doc = read_json(path)
    alpha = doc["alpha"]
    res = relative_residual(reduced_poly(m, alpha, delays), -1.0)
    if doc["kind"] != "Flip" or not res <= BOUNDARY_RESIDUAL_TOL:
        return [f"flip-boundary alpha={alpha!r}: relative residual {res!r}"], alpha
    return [], alpha


def check_spectrum(m: Market, alpha: float, delays, path, crossing: float) -> list[str]:
    """Root count, root membership in the own factors, and classification."""
    doc = read_json(path)
    roots = [complex(r["re"], r["im"]) for r in doc["roots"]]
    reduced = reduced_poly(m, alpha, delays)
    diff = difference_factor(m, delays)
    n_diff = (m.n - 1) * (delays[2] + 1)
    degree = n_diff + sum(delays) + 2
    if len(roots) != degree:
        return [f"spectrum: {len(roots)} roots, degree is {degree}"]
    on_diff = 0
    for z in roots:
        if m.n >= 2 and relative_residual(diff, z) <= ROOT_RESIDUAL_TOL:
            on_diff += 1
        elif relative_residual(reduced, z) > ROOT_RESIDUAL_TOL:
            return [f"spectrum: {z!r} is a root of neither factor"]
    if on_diff != n_diff:
        return [f"spectrum: {on_diff} difference-mode roots, expected {n_diff}"]
    rho = spectral_radius(m, alpha, delays)
    problems = []
    if not _close(doc["max_modulus"], rho, 1e-9):
        problems.append(f"spectrum: max_modulus {doc['max_modulus']!r}, own radius {rho!r}")
    stable = doc["classification"] == "AsymptoticallyStable"
    if alpha < crossing - ALPHA_TOL and not stable:
        problems.append(f"spectrum: alpha={alpha!r} below the crossing but {doc['classification']}")
    if stable != (rho < 1.0):
        problems.append(f"spectrum: {doc['classification']} with own radius {rho!r}")
    return problems
