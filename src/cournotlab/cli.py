"""Command-line surface: subcommands, deterministic CSV/JSON emission and
the parallel sweep harness.

Exit codes: 0 success, 2 validation/configuration error, 3 numerical
failure (no crossing in a bracket, fatal divergence).  Output files are
byte-stable: fixed column order, 17-significant-digit floats, LF line
endings, and a config echo of the keys the subcommand reads, without the
execution-only keys, so results do not depend on the worker count.

A CSV table is handed over as columns and written in pieces of
``CSV_CHUNK_ROWS`` rows.  Within a piece each distinct float is formatted
once, keyed on its bits, and scattered back to its fields: the bytes are
those of formatting every field on its own, while a table whose columns
repeat values (the private outputs of a simulate row, the alpha and
exponent of a diagram cell, the rows of a converged orbit) formats far
fewer floats than it has fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import bifurcation, dynamics, equilibria, spectral
from .config import DEFAULTS, KEY_SPECS, RunConfig, parse_config
from .errors import ConfigError, CournotError, NumericalError
from .model import DelayConfig, MarketParams, simulate

# ---------------------------------------------------------------------------
# formatting

# CSV rows formatted and written per piece: a long orbit is never held as
# one string (or one list of Python floats), so its memory is reused from
# piece to piece instead of being mapped afresh on every call
CSV_CHUNK_ROWS = 512


def _json_text(cfg: RunConfig, payload: dict) -> str:
    return json.dumps({"config": cfg.echo(), **payload}, indent=2) + "\n"


def _root_table(roots: np.ndarray) -> str:
    """The JSON list of root records {re, im, modulus}, sorted by
    decreasing modulus, then real part, then imaginary part: the bytes
    ``json.dumps(indent=2)`` writes for a nonempty list that is the value
    of a key of the payload.  The modulus is ``np.hypot``, bit-equal to
    ``abs`` of a Python complex.  Raises NumericalError for a root or
    modulus that is not finite."""
    re, im = roots.real, roots.imag
    with np.errstate(over="ignore"):  # an overflowing modulus raises below
        modulus = np.hypot(re, im)
    table = np.column_stack((re, im, modulus))[np.lexsort((im, re, -modulus))]
    if not np.isfinite(table).all():
        raise NumericalError("the spectrum has a root or modulus that is not finite")
    # "%r" of a finite Python float is float.__repr__, the spelling json uses
    record = '\n    {\n      "re": %r,\n      "im": %r,\n      "modulus": %r\n    }'
    records = [record % tuple(row) for row in table.tolist()]
    return "[" + ",".join(records) + "\n  ]"


def _format_floats(values: np.ndarray) -> list:
    """``"%.16e" % x`` for each entry of the 2-d float array ``values``, as
    a list of lists.  Each distinct value is formatted once, keyed on its
    bits: -0.0 and 0.0 compare equal as floats but print different signs."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.uint64)
    distinct, inverse = np.unique(bits.ravel(), return_inverse=True)
    text = np.array(["%.16e" % x for x in distinct.view(float).tolist()], dtype=object)
    return text[inverse.reshape(bits.shape)].tolist()


def _strings(piece) -> list:
    """``"%s" % x`` for each entry of a piece of a non-float column."""
    if isinstance(piece, np.ndarray):
        piece = piece.tolist()
    return list(map(str, piece))


def _csv_chunks(cfg: RunConfig, columns: dict, table, extra_comments=()):
    """The CSV text in pieces: the comment and header lines, then the rows
    CSV_CHUNK_ROWS at a time.  ``columns`` maps each column name to its
    type and ``table`` holds the columns in that order, as sequences of
    one length (arrays, lists or ranges).  Float columns print with 17
    significant digits; within a piece, each distinct float is formatted
    once."""
    head = [f"# {key}={value}\n" for key, value in cfg.echo().items()]
    head.extend(f"{line}\n" for line in extra_comments)
    head.append(",".join(columns) + "\n")
    yield "".join(head)
    floats = [k for k, typ in enumerate(columns.values()) if typ is float]
    for lo in range(0, len(table[0]), CSV_CHUNK_ROWS):
        pieces = [column[lo : lo + CSV_CHUNK_ROWS] for column in table]
        cells = [None if k in floats else _strings(piece) for k, piece in enumerate(pieces)]
        text = _format_floats(np.stack([pieces[k] for k in floats]))
        for k, strings in zip(floats, text):
            cells[k] = strings
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _write(cfg: RunConfig, chunks) -> None:
    """Write the text pieces ``chunks`` to the ``out`` file, else to stdout."""
    out = cfg.get("out")
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ConfigError(f"cannot write key 'out' file {out}: {exc}")
    else:
        sys.stdout.writelines(chunks)


# ---------------------------------------------------------------------------
# parameter assembly


def market_from_config(cfg: RunConfig) -> MarketParams:
    """The market of the configuration.

    equilibria, flip-boundary, ns-curve, critical-alpha, stability-region
    and bifurcation-diagram do not read alpha: their results do not depend
    on it (the diagram and the crossings set their own, and the
    equilibrium residuals are reported at unit speed).  Their
    configuration holds no alpha, and their market carries the default
    ``DEFAULTS["alpha"]``.
    """
    n, delta, b = cfg.require("n", "delta", "b")
    alpha = cfg.get("alpha", DEFAULTS["alpha"])
    optional = {key: cfg.get(key) for key in ("a0", "a1", "a", "c0", "c")}
    return MarketParams(b=b, delta=delta, alpha=alpha, n=n, **optional)


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


def run_cells(fn, alphas, workers: int) -> list:
    """Hand cell i of the alpha grid to process i mod size and put the rows
    ``fn`` gives back in grid order: the costly cells past a crossing are
    spread over every process, not left to the last contiguous chunk.

    The pool starts all its processes at once, so it is no larger than
    the cell count or the number of CPUs.
    """
    # imported here: only a fresh diagram with workers > 1 starts a pool
    from concurrent.futures import ProcessPoolExecutor

    size = min(workers, len(alphas), os.cpu_count() or 1)
    rows = [None] * len(alphas)
    with ProcessPoolExecutor(max_workers=size) as pool:
        for k, chunk in enumerate(pool.map(fn, [alphas[k::size] for k in range(size)])):
            rows[k::size] = chunk
    return rows


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_equilibria(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    report = equilibria.check_assumptions(p)
    e0 = equilibria.boundary_equilibrium(p)
    payload = {
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
    _write(cfg, [_json_text(cfg, payload)])


def _cmd_simulate(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    d = delays_from_config(cfg)
    steps = cfg.require("steps")
    init = dynamics.default_initial_history(p, d, cfg.get("perturbation"))
    traj = simulate(p, d, init, steps, blowup=cfg.get("blowup"))
    columns = {"t": int, **{f"q{i}": float for i in range(p.dimension)}}
    table = [range(traj.start_time, traj.start_time + len(traj)), *traj.outputs.T]
    _write(cfg, _csv_chunks(cfg, columns, table, [f"# diverged={str(traj.diverged).lower()}"]))


def _cmd_spectrum(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    d = delays_from_config(cfg)
    which = cfg.require("which")
    report = spectral.poly_roots(spectral.full_char_poly(p, d, which))
    payload = {
        "which": which,
        "roots": [],
        "classification": report.classification.value,
        "max_modulus": report.max_modulus,
        "on_circle_count": report.on_circle_count,
    }
    # the root table is written on its own, in place of the empty list:
    # json's indenting encoder is pure Python and would take longer than
    # the roots do
    key = '\n  "roots": '
    head, _, tail = _json_text(cfg, payload).partition(key + "[]")
    _write(cfg, [head, key, _root_table(report.roots), tail])


def _cmd_stability_region(cfg: RunConfig) -> None:
    dmin, dmax = cfg.require("delta_min", "delta_max")
    for key, value in (("delta_min", dmin), ("delta_max", dmax)):
        if not 0.0 < value < 1.0:
            raise ConfigError(f"{key} must lie in (0, 1), got {value}")
    steps = cfg.get("delta_steps")
    if steps < 1:
        raise ConfigError(f"delta_steps must be >= 1, got {steps}")
    grid = np.linspace(dmin, dmax, steps)
    # the grid sets delta per row: the market takes the first as its own
    template = market_from_config(RunConfig({**cfg.values, "delta": float(grid[0])}))
    rows = bifurcation.stability_region(template, grid)
    table = [
        np.array([r.delta for r in rows], dtype=float),
        np.array([r.alpha_max for r in rows], dtype=float),
        [str(r.feasible).lower() for r in rows],
    ]
    columns = {"delta": float, "alpha_max": float, "feasible": str}
    _write(cfg, _csv_chunks(cfg, columns, table))


def _crossing_payload(bp: bifurcation.BifurcationPoint) -> dict:
    return {
        "kind": bp.kind.value,
        "alpha": bp.alpha_crit,
        "theta": bp.theta,
        "eps1": bp.eps1,
        "residual": bp.residual,
    }


def _cmd_flip_boundary(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    d = delays_from_config(cfg)
    payload = _crossing_payload(bifurcation.flip_boundary(p, d))
    payload.update(sum_parity=d.tau_sum % 2, tau2_parity=d.tau2 % 2)
    _write(cfg, [_json_text(cfg, payload)])


def _cmd_ns_curve(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    d = delays_from_config(cfg)
    pts = bifurcation.ns_boundary(p, d)
    rows = [(pt.theta, pt.eps1, pt.alpha_crit, pt.residual) for pt in pts]
    columns = {"theta": float, "eps1": float, "alpha": float, "residual": float}
    _write(cfg, _csv_chunks(cfg, columns, np.array(rows, dtype=float).reshape(-1, 4).T))


def _cmd_critical_alpha(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    d = delays_from_config(cfg)
    alpha_min, alpha_max = cfg.require("alpha_min", "alpha_max")
    bp = bifurcation.critical_alpha(p, d, (alpha_min, alpha_max))
    _write(cfg, [_json_text(cfg, _crossing_payload(bp))])


def _cmd_bifurcation_diagram(cfg: RunConfig) -> None:
    workers = cfg.get("workers")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    p = market_from_config(cfg)
    d = delays_from_config(cfg)
    spec = sweep_from_config(cfg)
    if spec.policy is dynamics.InitPolicy.FRESH_PERTURBED and workers > 1:
        chunk_rows = functools.partial(dynamics.fresh_rows, p, d, spec)
        rows = run_cells(chunk_rows, spec.alphas, workers)
    else:
        rows = dynamics.bifurcation_diagram(p, d, spec)
    counts = [len(row.samples) for row in rows]
    table = [
        np.repeat([row.alpha for row in rows], counts),
        np.concatenate([np.arange(count) for count in counts]),
        np.concatenate([row.samples for row in rows]),
        np.repeat([row.lle for row in rows], counts),
        np.repeat([row.attractor.label for row in rows], counts),
    ]
    columns = {
        "alpha": float, "sample_index": int, "q0": float, "lle": float, "attractor_type": str,
    }
    _write(cfg, _csv_chunks(cfg, columns, table))


def _cmd_lyapunov(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    d = delays_from_config(cfg)
    init = dynamics.default_initial_history(p, d, cfg.get("perturbation"))
    est = dynamics.largest_lyapunov(
        p, d, init, cfg.get("lyap_iters"), cfg.get("lyap_transient"), blowup=cfg.get("blowup"),
    )
    payload = {"lle": est.lle, "iters": est.iters, "transient": est.transient}
    _write(cfg, [_json_text(cfg, payload)])


def _cmd_phase_portrait(cfg: RunConfig) -> None:
    p = market_from_config(cfg)
    d = delays_from_config(cfg)
    transient = cfg.get("transient")
    portrait = dynamics.phase_portrait(
        p, d, transient, cfg.get("samples"), cfg.get("perturbation"), cfg.get("blowup")
    )
    points = portrait.points
    _write(cfg, _csv_chunks(
        cfg,
        {"t": int, "q0": float, "q1": float},
        [range(transient + 1, transient + 1 + len(points)), *points.T],
        extra_comments=[f"# diverged={str(portrait.diverged).lower()}"],
    ))


# each subcommand with the configuration keys it reads; the table sets its
# flags, the keys taken from a config file and the keys its output echoes
MARKET = ("n", "delta", "b", "a0", "a1", "a", "c0", "c")
DELAYS = ("tau0", "tau1", "tau2")
ORBIT = ("transient", "samples", "perturbation", "blowup")


def _keys(*names) -> frozenset:
    return frozenset(names) | {"out"}


COMMANDS = {
    "equilibria": (_cmd_equilibria, _keys(*MARKET)),
    "simulate": (
        _cmd_simulate,
        _keys(*MARKET, "alpha", *DELAYS, "steps", "perturbation", "blowup"),
    ),
    "spectrum": (_cmd_spectrum, _keys(*MARKET, "alpha", *DELAYS, "which")),
    "stability-region": (
        _cmd_stability_region,
        _keys(*MARKET, "delta_min", "delta_max", "delta_steps") - {"delta"},
    ),
    "flip-boundary": (_cmd_flip_boundary, _keys(*MARKET, *DELAYS)),
    "ns-curve": (_cmd_ns_curve, _keys(*MARKET, *DELAYS)),
    "critical-alpha": (_cmd_critical_alpha, _keys(*MARKET, *DELAYS, "alpha_min", "alpha_max")),
    "bifurcation-diagram": (
        _cmd_bifurcation_diagram,
        _keys(
            *MARKET, *DELAYS, *ORBIT, "alpha_min", "alpha_max", "alpha_steps", "policy",
            "lyap_iters", "lyap_transient", "workers",
        ),
    ),
    "lyapunov": (
        _cmd_lyapunov,
        _keys(
            *MARKET, "alpha", *DELAYS, "perturbation", "blowup",
            "lyap_iters", "lyap_transient",
        ),
    ),
    "phase-portrait": (_cmd_phase_portrait, _keys(*MARKET, "alpha", *DELAYS, *ORBIT)),
}


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and the parser of each subcommand by name."""
    # allow_abbrev=False: a flag is taken only when spelled in full, never
    # as the unique prefix of a longer one
    parser = argparse.ArgumentParser(
        prog="cournotlab",
        description="Delayed mixed-oligopoly Cournot map laboratory",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, (_, keys) in COMMANDS.items():
        sp = subparsers[name] = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", dest="config_file", default=None, metavar="FILE")
        for key, typ in KEY_SPECS:
            if key in keys:
                flag = "--" + key.replace("_", "-")
                sp.add_argument(flag, dest=f"key_{key}", type=typ, default=None)
    return parser, subparsers


def _parse_args(argv) -> argparse.Namespace:
    """The parsed arguments, as the top-level parser gives them.

    When ``argv`` starts with a subcommand, only that subcommand's parser
    reads the rest: the top-level parser would hand every token to it
    anyway, after scanning them all once itself.  Arguments the
    subcommand does not know go back through the top-level parser, which
    reports them as unrecognized; anything else (no arguments, a help
    flag, an unknown command) goes through the top-level parser alone.
    Raises SystemExit where argparse exits.
    """
    parser, subparsers = _build_parser()
    if argv and argv[0] in subparsers:
        namespace = argparse.Namespace(command=argv[0])
        args, unknown = subparsers[argv[0]].parse_known_args(argv[1:], namespace)
        if not unknown:
            return args
    return parser.parse_args(argv)


def build_config(args) -> RunConfig:
    """Defaults, then the config file, then the flags, restricted to the
    keys the subcommand reads.  A config file may hold any known key, so
    that one file serves several subcommands."""
    cfg = parse_config(args.config_file) if args.config_file else RunConfig.with_defaults()
    _, keys = COMMANDS[args.command]
    for key in keys:
        value = getattr(args, f"key_{key}")
        if value is not None:
            cfg.set(key, value)
    return RunConfig({key: value for key, value in cfg.values.items() if key in keys})


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    handler, _ = COMMANDS[args.command]
    try:
        handler(build_config(args))
        return 0
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CournotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
