"""Tests of the benchmark's own oracles and of its output checks.

    python3 -m pytest perfbench/test_oracles.py -q

The oracle tests use no program code.  The check tests produce a real
output with ``cournotlab.cli.main`` (imported from ``src/``), show that
the check accepts it, then spoil one value and show that it is rejected.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles as O  # noqa: E402

DELAYS = [(0, 0, 0), (2, 4, 8), (5, 3, 3), (9, 7, 5), (1, 0, 3), (0, 1, 0)]
MARKETS = [O.SEC4, O.Market(b=1.5, delta=0.3, n=6, a0=1.8, a1=2.2), O.Market(1.0, 0.6, 2, 2.0, 2.5)]


def flip_alpha(m: O.Market, delays) -> float:
    """Closed-form alpha putting lambda = -1 on the reduced polynomial:
    with s = (-1)^(tau0+tau1) and s2 = (-1)^tau2, P(-1) = 0 reads
    e0 (e1 + 1) s2 = (e1 - 1)(e2 - s2) s, which is linear in e1."""
    e0 = 0.5 * m.n * m.delta**2
    e2 = 0.5 * (m.n - 1) * m.delta
    s = (-1) ** (delays[0] + delays[1])
    s2 = (-1) ** delays[2]
    # e0*s2*e1 + e0*s2 = s*(e2 - s2)*e1 - s*(e2 - s2)
    e1 = -(e0 * s2 + s * (e2 - s2)) / (e0 * s2 - s * (e2 - s2))
    return (e1 + 1.0) / O.gain(m)


@pytest.mark.parametrize("m", MARKETS)
@pytest.mark.parametrize("delays", DELAYS)
def test_equilibrium_is_a_fixed_point_of_the_recurrence(m, delays):
    q0, q1 = O.equilibrium(m)
    assert q0 > 0 and q1 > 0
    window = [[q0] + [q1] * m.n] * (max(delays) + 1)
    rows, diverged = O.orbit(m, 1.3, delays, window, 1)
    assert not diverged
    assert max(abs(x - y) for x, y in zip(rows[1], rows[0])) < 1e-14
    # off the equilibrium the map moves
    window[-1] = [q0 + 0.01] + [q1] * m.n
    rows, _ = O.orbit(m, 1.3, delays, window, 1)
    assert abs(rows[1][0] - rows[0][0]) > 1e-4


@pytest.mark.parametrize("m", MARKETS)
@pytest.mark.parametrize("delays", DELAYS)
def test_reduced_polynomial_vanishes_at_minus_one_at_the_flip_alpha(m, delays):
    alpha = flip_alpha(m, delays)
    coeffs = O.reduced_poly(m, alpha, delays)
    assert coeffs.size == sum(delays) + 3
    assert O.relative_residual(coeffs, -1.0) < 1e-14
    assert O.relative_residual(O.reduced_poly(m, alpha * 1.01, delays), -1.0) > 1e-6


def test_flip_is_the_first_crossing_without_delays():
    assert O.first_crossing(O.SEC4, (0, 0, 0)) == pytest.approx(flip_alpha(O.SEC4, (0, 0, 0)), abs=1e-9)


@pytest.mark.parametrize("delays", [(0, 0, 0), (1, 0, 2), (2, 1, 0), (0, 2, 1)])
@pytest.mark.parametrize("alpha", [0.8, 1.3])
def test_spectral_radius_matches_a_finite_difference_jacobian(delays, alpha):
    """The factored spectrum agrees with the eigenvalues of the one-step
    map of the recurrence, linearised numerically on the stacked window."""
    m = O.Market(1.0, 0.4, 3, 2.0, 2.5)
    q0, q1 = O.equilibrium(m)
    depth, width = max(delays) + 1, m.n + 1
    base = [[q0] + [q1] * m.n for _ in range(depth)]

    def step(flat):
        window = [list(flat[k * width:(k + 1) * width]) for k in range(depth)]
        rows, _ = O.orbit(m, alpha, delays, window, 1)
        return np.array([x for r in (window + rows[1:])[-depth:] for x in r])

    x0 = np.array([x for r in base for x in r])
    h = 1e-6
    jac = np.column_stack([
        (step(x0 + h * e) - step(x0 - h * e)) / (2 * h) for e in np.eye(x0.size)
    ])
    rho = float(np.abs(np.linalg.eigvals(jac)).max())
    assert rho == pytest.approx(O.spectral_radius(m, alpha, delays), abs=1e-6)


def test_first_crossing_is_bracketed_by_the_radius():
    for delays in DELAYS:
        c = O.first_crossing(O.SEC4, delays)
        assert O.reduced_radius(O.SEC4, c - 1e-6, delays) < 1.0 < O.reduced_radius(O.SEC4, c + 1e-6, delays)


# ---------------------------------------------------------------------------
# checks against real outputs, then against spoiled ones


@pytest.fixture(scope="module")
def cli():
    from cournotlab import cli

    return cli


def _run(cli, tmp_path, name, args):
    path = tmp_path / name
    assert cli.main(args + ["--out", str(path)]) == 0
    return path


def _edit_json(path, key, shift):
    doc = json.loads(path.read_text())
    doc[key] += shift
    path.write_text(json.dumps(doc))


def _edit_csv_value(path, row, col, shift):
    lines = path.read_text().split("\n")
    body = [k for k, ln in enumerate(lines) if ln and not ln.startswith("#")]
    k = body[1 + row]
    cells = lines[k].split(",")
    cells[col] = repr(float(cells[col]) + shift)
    lines[k] = ",".join(cells)
    path.write_text("\n".join(lines))


M, D = O.SEC4, (5, 3, 3)
BASE = M.flags + O.delay_flags(D)


def test_lyapunov_check_rejects_an_exponent_off_by_0_01(cli, tmp_path):
    path = _run(cli, tmp_path, "l.json", ["lyapunov"] + BASE + ["--alpha", "1.2"])
    assert O.check_lyapunov(M, 1.2, D, path) == []
    _edit_json(path, "lle", 0.01)
    assert O.check_lyapunov(M, 1.2, D, path)


def test_critical_check_rejects_a_crossing_shifted_by_1e_3(cli, tmp_path):
    crit = _run(cli, tmp_path, "c.json", ["critical-alpha"] + BASE + ["--alpha-min", "0.5", "--alpha-max", "3.0"])
    ns = _run(cli, tmp_path, "n.csv", ["ns-curve"] + BASE)
    flip = _run(cli, tmp_path, "f.json", ["flip-boundary"] + BASE)
    problems, candidates = O.check_ns_curve(M, D, ns)
    flip_problems, flip_at = O.check_flip(M, D, flip)
    assert problems == [] and flip_problems == []
    assert O.check_critical(M, D, 0.5, crit, candidates + [flip_at]) == []
    for shift in (1e-3, -1e-3):
        _edit_json(crit, "alpha", shift)
        assert O.check_critical(M, D, 0.5, crit, candidates + [flip_at])
        _edit_json(crit, "alpha", -shift)
    _edit_csv_value(ns, 0, 0, 1e-4)  # theta of the first crossing
    assert O.check_ns_curve(M, D, ns)[0]
    _edit_json(flip, "alpha", 1e-4)
    assert O.check_flip(M, D, flip)[0]


def test_spectrum_check_rejects_a_moved_or_missing_root(cli, tmp_path):
    path = _run(cli, tmp_path, "s.json", ["spectrum", "--which", "positive", "--alpha", "1.3"] + BASE)
    assert O.check_spectrum(M, 1.3, D, path, crossing=1.4267) == []
    doc = json.loads(path.read_text())
    doc["roots"][3]["re"] += 1e-5
    path.write_text(json.dumps(doc))
    assert O.check_spectrum(M, 1.3, D, path, crossing=1.4267)
    doc["roots"][3]["re"] -= 1e-5
    doc["roots"].pop()
    path.write_text(json.dumps(doc))
    assert O.check_spectrum(M, 1.3, D, path, crossing=1.4267)
    doc = json.loads(_run(cli, tmp_path, "s2.json", ["spectrum", "--which", "positive", "--alpha", "1.3"] + BASE).read_text())
    doc["classification"] = "Saddle"
    path.write_text(json.dumps(doc))
    assert O.check_spectrum(M, 1.3, D, path, crossing=1.4267)


@pytest.mark.parametrize("kind", ["simulate", "phase-portrait"])
def test_orbit_checks_reject_a_perturbed_csv_sample(cli, tmp_path, kind):
    if kind == "simulate":
        path = _run(cli, tmp_path, "o.csv", ["simulate"] + BASE + ["--alpha", "1.44", "--steps", "3000"])
        check = lambda: O.check_simulate(M, 1.44, D, 3000, path)  # noqa: E731
    else:
        args = ["phase-portrait"] + BASE + ["--alpha", "1.44", "--transient", "1000", "--samples", "500"]
        path = _run(cli, tmp_path, "o.csv", args)
        check = lambda: O.check_phase(M, 1.44, D, 1000, 500, path)  # noqa: E731
    assert check() == []
    _edit_csv_value(path, 250, 1, 1e-7)
    assert check()


@pytest.mark.parametrize("continued", [False, True])
def test_diagram_check_rejects_a_perturbed_sample_and_a_wrong_label(cli, tmp_path, continued):
    crossing = O.first_crossing(M, D)
    spec = O.Diagram(M, D, 1.0, 1.66, 4, 900, 100, 1000, 300, continued)
    path = _run(cli, tmp_path, "d.csv", spec.argv())
    assert O.check_diagram(spec, path, crossing) == []
    text = path.read_text()
    _edit_csv_value(path, 250, 2, 1e-7)  # a sample of the third cell
    assert O.check_diagram(spec, path, crossing)
    path.write_text(text)
    _edit_csv_value(path, 10, 3, 0.01)  # the lle of the first (stable) cell
    assert O.check_diagram(spec, path, crossing)
    path.write_text(text.replace("FixedPoint", "Period2"))
    assert O.check_diagram(spec, path, crossing)
    lines = text.split("\n")
    path.write_text("\n".join(lines[:-160] + lines[-110:]))  # a bounded cell cut short
    assert O.check_diagram(spec, path, crossing)


def test_the_oracles_do_not_import_the_program():
    source = (HERE / "oracles.py").read_text().splitlines()
    imports = [ln for ln in source if ln.startswith(("import ", "from "))]
    assert imports and not any("cournotlab" in ln for ln in imports)
