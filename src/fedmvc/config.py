"""Experiment configuration: defaults, parsing, validation, serialization.

Configs load from a plain ``key=value`` text file or a JSON object; every
key can also be overridden by a command-line flag of the same name. The
resolved config written next to a run's artifacts reproduces the run when
fed back in.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from typing import Any

from .errors import ConfigError
from .tensor import OPTIMIZERS

SWEEPABLE = ("alpha", "mu", "tau", "sigma_noise", "dirichlet_beta")
ALPHA_C_MODES = ("linear", "uniform")


def _at_least(low):
    return lambda v: v >= low, f"must be >= {low}"


def _one_of(choices):
    return lambda v: v in choices, f"must be one of {choices}"


_POSITIVE = (lambda v: v > 0, "must be > 0")

# The one range rule of each config value: field -> (holds, why). The
# config, the model, the datasets and k-means all check through here.
RULES = {
    "seed": (lambda v: isinstance(v, int), "must be an integer"),
    "n_clusters": _at_least(1),
    "view_dims": (lambda v: len(v) >= 1 and all(d >= 1 for d in v),
                  "must be a nonempty list of sizes >= 1"),
    "separation": _at_least(0),
    "noise_sigma": _at_least(0),
    "n_clients": _at_least(1),
    "mixed_counts": (lambda v: len(v) == 3 and min(v) >= 0,
                     "must be three nonnegative counts"),
    "dirichlet_beta": (lambda v: v > 0, "must be > 0 (or 'iid')"),
    "rounds": _at_least(0),
    "warmup_epochs": _at_least(0),
    "local_epochs": _at_least(0),
    "batch_size": _at_least(1),
    "lr": _POSITIVE,
    "optimizer": _one_of(OPTIMIZERS),
    "latent_dim": _at_least(1),
    "high_dim": _at_least(1),
    "hidden": _at_least(1),
    "tau": _POSITIVE,
    "alpha": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "mu": _at_least(0),
    "sigma_noise": _at_least(0),
    "alpha_c_mode": _one_of(ALPHA_C_MODES),
    "eval_restarts": _at_least(1),
    "eval_every": _at_least(1),
    "eval_views": (lambda v: len(v) >= 1 and len(set(v)) == len(v),
                   "must list at least one view, each once"),
    "checkpoint_every": _at_least(0),
}

# rules between two values: (field, other, holds(value, other), why)
PAIR_RULES = (
    ("n_samples", "n_clusters", lambda n, k: n >= k, "must be >= n_clusters={}"),
    ("mixed_counts", "n_clients", lambda m, c: sum(m) == c, "must sum to n_clients={}"),
)


def _reject(field: str, why: str, value):
    raise ConfigError(f"{field}: {why} (got {value!r})")


def check(**values) -> None:
    """Check the given config values by their rules, each value alone and
    then every pair rule whose two fields are both given.

    A field that may be None passes when it is None. Raises ConfigError
    ``"<field>: <why> (got <value>)"`` for the first rule broken.
    """
    given = {k: v for k, v in values.items() if not (v is None and k in _OPTIONAL)}
    for field, value in given.items():
        if field in RULES and not RULES[field][0](value):
            _reject(field, RULES[field][1], value)
    for field, other, holds, why in PAIR_RULES:
        if field in given and other in given and not holds(given[field], given[other]):
            _reject(field, why.format(given[other]), given[field])


@dataclass
class ExperimentConfig:
    seed: int = 0
    # dataset: either a file path or blob-generation parameters
    data_path: str | None = None
    n_clusters: int = 3
    n_samples: int = 600
    view_dims: tuple[int, ...] = (10, 10, 10)
    separation: float = 6.0
    noise_sigma: float = 1.0
    standardize: bool = True
    # federation topology
    n_clients: int = 6
    # how many clients hold all, some and one view; None draws each size
    mixed_counts: tuple[int, int, int] | None = None
    dirichlet_beta: float | None = 10.0  # None means IID
    # training
    rounds: int = 30
    warmup_epochs: int = 20
    local_epochs: int = 5
    batch_size: int = 100
    lr: float = 1e-3
    optimizer: str = "adam"
    latent_dim: int = 16
    high_dim: int = 32
    hidden: int = 128
    # loss knobs
    tau: float = 0.5
    alpha: float = 0.5
    mu: float = 0.01
    sigma_noise: float = 0.1
    # aggregation
    alpha_c_mode: str = "linear"
    # ablations
    no_drift: bool = False
    no_contrast: bool = False
    # evaluation
    eval_restarts: int = 10
    eval_every: int = 1
    eval_views: tuple[int, ...] | None = None
    # execution
    checkpoint_every: int = 0
    resume_from: str | None = None
    output_dir: str = "runs/exp"

    def validate(self) -> None:
        """Check every field by the rules of :func:`check`."""
        check(**{f.name: getattr(self, f.name) for f in dataclasses.fields(self)})

    def to_mapping(self) -> dict[str, Any]:
        """JSON-ready dict with every default materialized."""
        out: dict[str, Any] = {}
        for f in dataclasses.fields(self):
            val = getattr(self, f.name)
            if isinstance(val, tuple):
                val = list(val)
            out[f.name] = val
        return out

    def replace(self, **updates) -> "ExperimentConfig":
        return dataclasses.replace(self, **updates)


def _parse_bool(value) -> bool:
    """A boolean, or one of the words for one; numbers are refused."""
    if isinstance(value, bool):
        return value
    low = value.strip().lower() if isinstance(value, str) else None
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _parse_int(value) -> int:
    """An integer, refusing booleans and floats that are not whole numbers."""
    if isinstance(value, bool):
        raise ValueError("a boolean is not an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not a whole number")
    return int(value)


def _parse_float(value) -> float:
    """A number, refusing booleans."""
    if isinstance(value, bool):
        raise ValueError("a boolean is not a number")
    return float(value)


def _parse_int_tuple(value) -> tuple[int, ...]:
    if isinstance(value, str):
        value = [p for p in value.replace(" ", "").split(",") if p]
    return tuple(_parse_int(v) for v in value)


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
# parsers by the type of a field's default
_PARSERS = {bool: _parse_bool, int: _parse_int, float: _parse_float, str: str,
            tuple: _parse_int_tuple}
# fields that may be None, with the parser of a value and the words for None
_OPTIONAL = {
    "data_path": (str, ("none",)),
    "resume_from": (str, ("none",)),
    "mixed_counts": (_parse_int_tuple, ("none",)),
    "eval_views": (_parse_int_tuple, ("none",)),
    "dirichlet_beta": (_parse_float, ("iid", "none", "inf")),
}


def parse_field(name: str, value):
    """Coerce one raw config value (possibly a string) to its field type."""
    if name not in _DEFAULTS:
        raise ConfigError(f"unknown config key {name!r}")
    try:
        if name in _OPTIONAL:
            parse, none_words = _OPTIONAL[name]
            if value is None or (isinstance(value, str)
                                 and value.strip().lower() in none_words):
                return None
            return parse(value)
        return _PARSERS[type(_DEFAULTS[name])](value)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{name}: could not parse value {value!r} ({err})") from err


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    fields = {}
    for key, value in mapping.items():
        fields[key] = parse_field(key, value)
    return ExperimentConfig(**fields)


# a comment starts at a '#' that begins the line or follows whitespace
_COMMENT = re.compile(r"(^|\s)#.*")


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a repeated key raises ``ConfigError``."""
    mapping = {}
    for key, value in pairs:
        if key in mapping:
            raise ConfigError(f"duplicate config key {key!r}")
        mapping[key] = value
    return mapping


def load_config(path) -> ExperimentConfig:
    """Read a config file: JSON if it looks like JSON, else key=value lines.
    A key given twice raises ``ConfigError`` in either form."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            mapping = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON config {path}: {err}") from err
        except ConfigError as err:
            raise ConfigError(f"{path}: {err}") from None
        return config_from_mapping(mapping)
    mapping, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r} "
                              f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        mapping[key] = value
    return config_from_mapping(mapping)


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_mapping(), fh, indent=2, sort_keys=True)
        fh.write("\n")
