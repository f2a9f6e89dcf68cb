"""Flat key=value run configuration shared by the CLI and output headers.

The format is one ``key=value`` pair per line with ``#`` comments.  Keys
are typed; unknown keys and malformed values are rejected with their
line number.  On duplicates the last occurrence wins with a warning.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .dynamics import SweepSpec
from .errors import ConfigError

# canonical key order: (name, type); emission always follows this order
KEY_SPECS = (
    ("n", int),
    ("delta", float),
    ("alpha", float),
    ("b", float),
    ("a0", float),
    ("a1", float),
    ("a", float),
    ("c0", float),
    ("c", float),
    ("tau0", int),
    ("tau1", int),
    ("tau2", int),
    ("which", str),
    ("steps", int),
    ("alpha_min", float),
    ("alpha_max", float),
    ("alpha_steps", int),
    ("delta_min", float),
    ("delta_max", float),
    ("delta_steps", int),
    ("transient", int),
    ("samples", int),
    ("policy", str),
    ("perturbation", float),
    ("blowup", float),
    ("lyap_iters", int),
    ("lyap_transient", int),
    ("workers", int),
    ("out", str),
)
KEY_TYPES = dict(KEY_SPECS)
KEY_ORDER = tuple(name for name, _ in KEY_SPECS)

# execution details excluded from output-file headers so that results are
# byte-identical across worker counts and output paths
NON_EXPERIMENT_KEYS = frozenset({"workers", "out"})

DEFAULTS = {
    "alpha": 1.0,
    "b": 1.0,
    "tau0": 0,
    "tau1": 0,
    "tau2": 0,
    "alpha_steps": 101,
    "delta_steps": 99,
    "transient": SweepSpec.transient,
    "samples": SweepSpec.samples,
    "policy": SweepSpec.policy.value,
    "perturbation": SweepSpec.perturbation,
    "blowup": SweepSpec.blowup,
    "lyap_iters": SweepSpec.lyap_iters,
    "lyap_transient": SweepSpec.lyap_transient,
    "workers": 1,
}


def _parse_value(key: str, raw: str, where: str):
    typ = KEY_TYPES[key]
    raw = raw.strip()
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"{where}: malformed {typ.__name__} value {raw!r} for key '{key}'")


@dataclass
class RunConfig:
    """Typed bag of configuration values with a canonical text form."""

    values: dict = field(default_factory=dict)

    @classmethod
    def with_defaults(cls) -> "RunConfig":
        return cls(values=dict(DEFAULTS))

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def set(self, key: str, value) -> None:
        if key not in KEY_TYPES:
            raise ConfigError(f"unknown configuration key '{key}'")
        self.values[key] = value

    def require(self, *keys):
        missing = [k for k in keys if self.values.get(k) is None]
        if missing:
            raise ConfigError(f"missing required configuration key(s): {', '.join(missing)}")
        if len(keys) == 1:
            return self.values[keys[0]]
        return tuple(self.values[k] for k in keys)

    def echo(self) -> dict:
        """The configuration an output file records: the set keys in
        canonical order, without the execution-only keys."""
        return {
            key: self.values[key]
            for key in KEY_ORDER
            if self.values.get(key) is not None and key not in NON_EXPERIMENT_KEYS
        }


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse configuration text on top of the defaults."""
    cfg = RunConfig.with_defaults()
    seen: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in KEY_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key '{key}'")
        if key in seen:
            print(
                f"warning: {source}:{lineno}: duplicate key '{key}' overrides line {seen[key]}",
                file=sys.stderr,
            )
        seen[key] = lineno
        cfg.values[key] = _parse_value(key, raw_value, f"{source}:{lineno}")
    return cfg


def parse_config(path) -> RunConfig:
    """Parse a configuration file on top of the defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return parse_config_text(text, source=str(path))
