"""Command-line surface: subcommands, deterministic CSV/JSON emission and
the parallel sweep harness.

Exit codes: 0 success, 2 validation/configuration error, 3 numerical
failure (no crossing in a bracket, fatal divergence).  Output files are
byte-stable: fixed column order, 17-significant-digit floats, LF line
endings, and a config echo that excludes execution-only keys so results
do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import bifurcation, dynamics, equilibria, spectral
from .config import KEY_TYPES, NON_EXPERIMENT_KEYS, RunConfig, parse_config
from .errors import ConfigError, CournotError, NumericalError, ValidationError
from .model import DelayConfig, MarketParams, simulate

# ---------------------------------------------------------------------------
# formatting


def fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.16e}"
    return str(x)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(cfg: RunConfig, columns: list[str], rows, extra_comments=()) -> str:
    lines = list(cfg.header_lines())
    lines.extend(extra_comments)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _write(cfg: RunConfig, text: str) -> None:
    out = cfg.get("out")
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# parameter assembly


def market_from_config(cfg: RunConfig) -> MarketParams:
    n = cfg.require("n")
    delta = cfg.require("delta")
    b = cfg.require("b")
    alpha = cfg.require("alpha")
    kwargs = dict(b=b, delta=delta, alpha=alpha, n=n)
    for key in ("a0", "a1", "a", "c0", "c"):
        if cfg.get(key) is not None:
            kwargs[key] = cfg.get(key)
    if "a0" not in kwargs and "a" not in kwargs:
        raise ConfigError("market needs either (a0, a1) or (a, c0, c)")
    return MarketParams(**kwargs)


def delays_from_config(cfg: RunConfig) -> DelayConfig:
    return DelayConfig(cfg.get("tau0", 0), cfg.get("tau1", 0), cfg.get("tau2", 0))


def sweep_from_config(cfg: RunConfig) -> dynamics.SweepSpec:
    alpha_min, alpha_max = cfg.require("alpha_min", "alpha_max")
    policy_name = cfg.get("policy")
    try:
        policy = dynamics.InitPolicy(policy_name)
    except ValueError:
        raise ConfigError(
            f"unknown policy '{policy_name}' (expected FreshPerturbed or Continued)"
        )
    return dynamics.SweepSpec(
        alpha_min=alpha_min,
        alpha_max=alpha_max,
        num_alpha=cfg.get("alpha_steps"),
        transient=cfg.get("transient"),
        samples=cfg.get("samples"),
        policy=policy,
        perturbation=cfg.get("perturbation"),
        blowup=cfg.get("blowup"),
        lyap_transient=cfg.get("lyap_transient"),
        lyap_iters=cfg.get("lyap_iters"),
    )


# ---------------------------------------------------------------------------
# sweep harness


def _diagram_cell(args) -> dynamics.DiagramRow:
    p, d, spec, alpha = args
    return dynamics.fresh_cell(p, d, spec, alpha)


def run_cells(fn, cells, workers: int):
    """Evaluate independent cells, preserving input order."""
    if workers <= 1:
        return [fn(c) for c in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_equilibria(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    report = equilibria.check_assumptions(p)
    e0 = equilibria.boundary_equilibrium(p)
    payload = {
        "config": _config_payload(cfg),
        "q_star": e0.point[1],
        "e_zero": list(e0.point),
        "e_zero_residual": e0.residual,
        "assumptions": {
            "a1_holds": report.a1_holds,
            "a2_holds": report.a2_holds,
            "a1_margin": report.a1_margin,
            "a2_margin": report.a2_margin,
        },
    }
    if report.a1_holds and report.a2_holds:
        ep = equilibria.positive_equilibrium(p)
        payload["q0_star"] = ep.point[0]
        payload["q1_star"] = ep.point[1]
        payload["e_plus"] = list(ep.point)
        payload["e_plus_residual"] = ep.residual
    else:
        payload["q0_star"] = None
        payload["q1_star"] = None
        payload["e_plus"] = None
    _write(cfg, _json_text(payload))


def _cmd_simulate(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    d = delays_from_config(cfg)
    steps = cfg.require("steps")
    init = dynamics.default_initial_history(p, d, cfg.get("perturbation"))
    traj = simulate(p, d, init, steps, blowup=cfg.get("blowup"))
    columns = ["t"] + [f"q{i}" for i in range(p.dimension)]
    rows = [[traj.start_time + k] + list(traj.outputs[k]) for k in range(len(traj))]
    text = _csv_text(cfg, columns, rows, extra_comments=[f"# diverged={str(traj.diverged).lower()}"])
    _write(cfg, text)


def _cmd_spectrum(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    d = delays_from_config(cfg)
    which = cfg.require("which")
    if which in ("positive", "reduced"):
        equilibria.require_assumptions(p)
        if which == "positive":
            report = spectral.poly_roots(spectral.full_char_poly(p, d, "positive"))
        else:
            report = spectral.poly_roots(
                spectral.reduced_char_poly(spectral.epsilon_triple(p), d)
            )
    elif which == "boundary":
        # the saddle classification of the shut-down equilibrium is only
        # meaningful when the public firm has room to grow back
        equilibria.require_assumptions(p, which=("A.1",))
        report = spectral.poly_roots(spectral.full_char_poly(p, d, "boundary"))
    elif which == "no-public-firm":
        report = spectral.no_public_firm_spectrum(p, d.tau2)
    else:
        raise ConfigError(
            f"unknown spectrum selector '{which}' "
            "(expected reduced, positive, boundary or no-public-firm)"
        )
    roots = sorted(report.roots, key=lambda z: (-abs(z), z.real, z.imag))
    payload = {
        "config": _config_payload(cfg),
        "which": which,
        "roots": [{"re": z.real, "im": z.imag, "modulus": abs(z)} for z in roots],
        "classification": report.classification.value,
        "max_modulus": report.max_modulus,
        "on_circle_count": report.on_circle_count,
    }
    _write(cfg, _json_text(payload))


def _cmd_stability_region(cfg: RunConfig) -> None:
    dmin, dmax = cfg.require("delta_min", "delta_max")
    grid = np.linspace(dmin, dmax, cfg.get("delta_steps"))
    if cfg.get("delta") is None:
        # the template's point value is replaced per grid row anyway
        cfg.values["delta"] = float(grid[0])
    p = market_from_config(cfg)
    rows = bifurcation.stability_region(p, grid)
    csv_rows = [[r.delta, r.alpha_max, str(r.feasible).lower()] for r in rows]
    _write(cfg, _csv_text(cfg, ["delta", "alpha_max", "feasible"], csv_rows))


def _cmd_flip_boundary(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    d = delays_from_config(cfg)
    bp = bifurcation.flip_boundary(p, d)
    parity = bifurcation.ParityCase.from_delays(d)
    payload = {
        "config": _config_payload(cfg),
        "kind": bp.kind.value,
        "alpha": bp.alpha_crit,
        "theta": bp.theta,
        "eps1": bp.eps1,
        "residual": bp.residual,
        "sum_parity": parity.sum_parity,
        "tau2_parity": parity.tau2_parity,
    }
    _write(cfg, _json_text(payload))


def _cmd_ns_curve(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    d = delays_from_config(cfg)
    pts = bifurcation.ns_boundary(p, d, scan_points=cfg.get("theta_points"))
    rows = [[pt.theta, pt.eps1, pt.alpha_crit, pt.residual] for pt in pts]
    _write(cfg, _csv_text(cfg, ["theta", "eps1", "alpha", "residual"], rows))


def _cmd_critical_alpha(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    d = delays_from_config(cfg)
    alpha_min, alpha_max = cfg.require("alpha_min", "alpha_max")
    bp = bifurcation.critical_alpha(p, d, (alpha_min, alpha_max))
    payload = {
        "config": _config_payload(cfg),
        "kind": bp.kind.value,
        "alpha": bp.alpha_crit,
        "theta": bp.theta,
        "eps1": bp.eps1,
        "residual": bp.residual,
    }
    _write(cfg, _json_text(payload))


def _cmd_bifurcation_diagram(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    d = delays_from_config(cfg)
    spec = sweep_from_config(cfg)
    workers = cfg.get("workers", 1)
    if spec.policy is dynamics.InitPolicy.FRESH_PERTURBED and workers > 1:
        cells = [(p, d, spec, float(a)) for a in spec.alphas]
        rows = run_cells(_diagram_cell, cells, workers)
    else:
        rows = dynamics.bifurcation_diagram(p, d, spec)
    csv_rows = []
    for row in rows:
        label = row.attractor.label
        for idx, q0 in enumerate(row.samples):
            csv_rows.append([row.alpha, idx, q0, row.lle, label])
    _write(
        cfg,
        _csv_text(cfg, ["alpha", "sample_index", "q0", "lle", "attractor_type"], csv_rows),
    )


def _cmd_lyapunov(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    d = delays_from_config(cfg)
    init = dynamics.default_initial_history(p, d, cfg.get("perturbation"))
    est = dynamics.largest_lyapunov(
        p,
        d,
        init,
        iters=cfg.get("lyap_iters"),
        transient=cfg.get("lyap_transient"),
        renorm_interval=cfg.get("renorm_interval"),
        blowup=cfg.get("blowup"),
    )
    payload = {
        "config": _config_payload(cfg),
        "lle": est.lle,
        "iters": est.iters,
        "transient": est.transient,
        "renorm_interval": est.renorm_interval,
    }
    _write(cfg, _json_text(payload))


def _cmd_phase_portrait(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    d = delays_from_config(cfg)
    spec = dynamics.SweepSpec(
        alpha_min=p.alpha,
        alpha_max=p.alpha + 1.0,
        num_alpha=2,
        transient=cfg.get("transient"),
        samples=cfg.get("samples"),
        perturbation=cfg.get("perturbation"),
        blowup=cfg.get("blowup"),
    )
    portrait = dynamics.phase_portrait(p, d, p.alpha, spec)
    t0 = spec.transient + 1
    rows = [[t0 + k, pt[0], pt[1]] for k, pt in enumerate(portrait.points)]
    text = _csv_text(
        cfg,
        ["t", "q0", "q1"],
        rows,
        extra_comments=[f"# diverged={str(portrait.diverged).lower()}"],
    )
    _write(cfg, text)


def _config_payload(cfg: RunConfig) -> dict:
    return {
        key: cfg.values[key]
        for key in KEY_TYPES
        if key in cfg.values
        and cfg.values[key] is not None
        and key not in NON_EXPERIMENT_KEYS
    }


COMMANDS = {
    "equilibria": _cmd_equilibria,
    "simulate": _cmd_simulate,
    "spectrum": _cmd_spectrum,
    "stability-region": _cmd_stability_region,
    "flip-boundary": _cmd_flip_boundary,
    "ns-curve": _cmd_ns_curve,
    "critical-alpha": _cmd_critical_alpha,
    "bifurcation-diagram": _cmd_bifurcation_diagram,
    "lyapunov": _cmd_lyapunov,
    "phase-portrait": _cmd_phase_portrait,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cournotlab",
        description="Delayed mixed-oligopoly Cournot map laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", dest="config_file", default=None, metavar="FILE")
        for key, typ in KEY_TYPES.items():
            flag = "--" + key.replace("_", "-")
            sp.add_argument(flag, dest=f"key_{key}", type=typ, default=None)
    return parser


def build_config(args) -> RunConfig:
    if args.config_file:
        cfg = parse_config(args.config_file)
    else:
        cfg = RunConfig.with_defaults()
    for key in KEY_TYPES:
        value = getattr(args, f"key_{key}", None)
        if value is not None:
            cfg.set(key, value)
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = build_config(args)
        COMMANDS[args.command](cfg)
        return 0
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CournotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
