"""Experiment configuration: defaults, parsing, validation, serialization.

Configs load from a plain ``key=value`` text file or a JSON object; every
key can also be overridden by a command-line flag of the same name. The
resolved config written next to a run's artifacts reproduces the run when
fed back in.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any

from .data import SCENARIOS
from .errors import ConfigError
from .federation import ALPHA_C_MODES
from .tensor import OPTIMIZERS

SWEEPABLE = ("alpha", "mu", "tau", "sigma_noise", "dirichlet_beta")


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
    scenario: str = "mixed"
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
    fedavg: bool = False
    # evaluation
    eval_restarts: int = 10
    eval_every: int = 1
    eval_views: tuple[int, ...] | None = None
    kmeans_max_iter: int = 300
    kmeans_tol: float = 1e-6
    # execution
    checkpoint_every: int = 0
    resume_from: str | None = None
    output_dir: str = "runs/exp"

    def validate(self) -> None:
        """Check every field; error messages name the offending field."""
        def check(cond: bool, field: str, why: str):
            if not cond:
                raise ConfigError(f"{field}: {why} (got {getattr(self, field)!r})")

        check(isinstance(self.seed, int), "seed", "must be an integer")
        check(self.n_clusters >= 1, "n_clusters", "must be >= 1")
        check(self.n_samples >= self.n_clusters, "n_samples",
              "must be >= n_clusters")
        check(len(self.view_dims) >= 1 and all(d >= 1 for d in self.view_dims),
              "view_dims", "must be a nonempty list of sizes >= 1")
        check(self.separation >= 0, "separation", "must be >= 0")
        check(self.noise_sigma >= 0, "noise_sigma", "must be >= 0")
        check(self.n_clients >= 1, "n_clients", "must be >= 1")
        check(self.scenario in SCENARIOS, "scenario",
              f"must be one of {SCENARIOS}")
        if self.mixed_counts is not None:
            check(len(self.mixed_counts) == 3 and min(self.mixed_counts) >= 0,
                  "mixed_counts", "must be three nonnegative counts")
            check(sum(self.mixed_counts) == self.n_clients, "mixed_counts",
                  f"must sum to n_clients={self.n_clients}")
        if self.dirichlet_beta is not None:
            check(self.dirichlet_beta > 0, "dirichlet_beta",
                  "must be > 0 (or 'iid')")
        check(self.rounds >= 0, "rounds", "must be >= 0")
        check(self.warmup_epochs >= 0, "warmup_epochs", "must be >= 0")
        check(self.local_epochs >= 0, "local_epochs", "must be >= 0")
        check(self.batch_size >= 1, "batch_size", "must be >= 1")
        check(self.lr > 0, "lr", "must be > 0")
        check(self.optimizer in OPTIMIZERS, "optimizer",
              f"must be one of {OPTIMIZERS}")
        check(self.latent_dim >= 1, "latent_dim", "must be >= 1")
        check(self.high_dim >= 1, "high_dim", "must be >= 1")
        check(self.hidden >= 1, "hidden", "must be >= 1")
        check(self.tau > 0, "tau", "must be > 0")
        check(0.0 <= self.alpha <= 1.0, "alpha", "must lie in [0, 1]")
        check(self.mu >= 0, "mu", "must be >= 0")
        check(self.sigma_noise >= 0, "sigma_noise", "must be >= 0")
        check(self.alpha_c_mode in ALPHA_C_MODES, "alpha_c_mode",
              f"must be one of {ALPHA_C_MODES}")
        check(self.eval_restarts >= 1, "eval_restarts", "must be >= 1")
        check(self.eval_every >= 1, "eval_every", "must be >= 1")
        if self.eval_views is not None:
            check(len(self.eval_views) >= 1, "eval_views",
                  "must list at least one view")
        check(self.kmeans_max_iter >= 1, "kmeans_max_iter", "must be >= 1")
        check(self.kmeans_tol > 0, "kmeans_tol", "must be > 0")
        check(self.checkpoint_every >= 0, "checkpoint_every", "must be >= 0")

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


def load_config(path) -> ExperimentConfig:
    """Read a config file: JSON if it looks like JSON, else key=value lines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            mapping = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON config {path}: {err}") from err
        return config_from_mapping(mapping)
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return config_from_mapping(mapping)


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_mapping(), fh, indent=2, sort_keys=True)
        fh.write("\n")
