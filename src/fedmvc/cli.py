"""Command-line front end: run, sweep, gen-data, eval, inspect.

Exit codes: 0 success, 1 runtime failure, 2 configuration failure.
Relative output directories resolve under $FEDMVC_OUT when it is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path


from .config import (
    SWEEPABLE,
    ExperimentConfig,
    config_from_mapping,
    load_config,
    parse_field,
    save_config,
)
from .data import generate_blobs, load_dataset, save_dataset
from .errors import ConfigError, DataFormatError, DimensionError, FedmvcError, NonFiniteError, PartitionError
from .evaluation import MetricsReport, eval_view_order, evaluate_global
from .federation import derive_seeds, run_federation
from .model import load_checkpoint, save_checkpoint

ENV_OUTPUT_ROOT = "FEDMVC_OUT"


def _resolve_output_dir(path: str) -> Path:
    root = os.environ.get(ENV_OUTPUT_ROOT)
    p = Path(path)
    if root and not p.is_absolute():
        return Path(root) / p
    return p


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _metrics_row(round_index: int, seed: int, report: MetricsReport) -> str:
    return ",".join([str(round_index), str(seed), _fmt(report.acc),
                     _fmt(report.nmi), _fmt(report.ari),
                     _fmt(report.kmeans_objective)])


CSV_HEADER = "round,seed,acc,nmi,ari,kmeans_objective"


def _load_or_generate(config: ExperimentConfig, seeds):
    if config.data_path is not None:
        path = Path(config.data_path)
        if not path.exists():
            raise ConfigError(f"data_path: dataset file not found: {path}")
        return load_dataset(path)
    return generate_blobs(config.n_clusters, config.n_samples, config.view_dims,
                          config.separation, config.noise_sigma, seeds.data)


@dataclasses.dataclass
class RunResult:
    final: MetricsReport
    out_dir: Path
    csv_path: Path


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run one experiment and write metrics CSV, JSON summary, final
    checkpoint, and the resolved config into the output directory."""
    config.validate()
    seeds = derive_seeds(config.seed)
    dataset = _load_or_generate(config, seeds)
    eval_view_order(config.eval_views, dataset.n_views)  # fail before training
    initial_global = None
    if config.resume_from is not None:
        path = Path(config.resume_from)
        if not path.exists():
            raise ConfigError(f"resume_from: checkpoint file not found: {path}")
        initial_global = load_checkpoint(path)
    out_dir = _resolve_output_dir(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    csv_rows: list[str] = []
    summary_rounds: list[dict] = []
    last_eval: dict[str, MetricsReport] = {}

    def evaluate(global_params, round_index: int) -> MetricsReport:
        report = evaluate_global(global_params, dataset, config, seeds.evaluation)
        csv_rows.append(_metrics_row(round_index, config.seed, report))
        last_eval["report"] = report
        return report

    def hook(global_params, round_report):
        is_last = round_report.round_index == config.rounds
        if round_report.round_index % config.eval_every == 0 or is_last:
            evaluate(global_params, round_report.round_index)
        if config.checkpoint_every and (
                round_report.round_index % config.checkpoint_every == 0):
            save_checkpoint(global_params,
                            out_dir / f"round_{round_report.round_index:04d}.ckpt")
        summary_rounds.append({
            "round": round_report.round_index,
            "weights": round_report.weights,
            "client_losses": round_report.client_losses,
        })

    global_params = run_federation(config, dataset, initial_global=initial_global,
                                   round_hook=hook)
    if config.rounds == 0:
        evaluate(global_params, 0)
    final = last_eval["report"]

    csv_path = out_dir / "metrics.csv"
    csv_path.write_text(CSV_HEADER + "\n" + "\n".join(csv_rows) + "\n",
                        encoding="utf-8")
    save_checkpoint(global_params, out_dir / "model.ckpt")
    save_config(config, out_dir / "config.json")
    summary = {
        "config": config.to_mapping(),
        "final": {
            "acc": final.acc,
            "nmi": final.nmi,
            "ari": final.ari,
            "kmeans_objective": final.kmeans_objective,
        },
        "rounds": summary_rounds,
        "wall_time_s": time.perf_counter() - started,
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return RunResult(final, out_dir, csv_path)


def run_sweep(config: ExperimentConfig, param: str, values: list) -> Path:
    """One sub-run per value under the output dir, plus a combined CSV."""
    if param not in SWEEPABLE:
        raise ConfigError(f"param: {param!r} is not sweepable (choose from {SWEEPABLE})")
    if not values:
        raise ConfigError("values: sweep needs at least one value")
    out_root = _resolve_output_dir(config.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    combined = [f"param,value,{CSV_HEADER}"]
    for raw in values:
        value = parse_field(param, raw)
        label = "iid" if value is None else str(value)
        sub = config.replace(**{param: value,
                                "output_dir": str(Path(config.output_dir) / f"{param}={label}")})
        result = run_experiment(sub)
        combined.append(f"{param},{label}," + _metrics_row(
            sub.rounds, sub.seed, result.final))
    path = out_root / "combined.csv"
    path.write_text("\n".join(combined) + "\n", encoding="utf-8")
    return path


def _add_config_flags(parser: argparse.ArgumentParser, names) -> None:
    """One flag for each config field in ``names``, the fields the command
    reads; a boolean's kind follows its default. A flag not given leaves
    the field to the config file or the default (see ``_build_config``)."""
    for f in dataclasses.fields(ExperimentConfig):
        if f.name not in names:
            continue
        flag = "--" + f.name.replace("_", "-")
        if f.default is False:
            parser.add_argument(flag, action="store_true", default=None)
        elif f.default is True:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction,
                                default=None)
        else:
            parser.add_argument(flag, default=None, metavar=f.name.upper())


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    return overrides


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    config_path = getattr(args, "config", None)
    base = load_config(config_path) if config_path else ExperimentConfig()
    mapping = base.to_mapping()
    mapping.update(_collect_overrides(args))
    config = config_from_mapping(mapping)
    config.validate()
    return config


_ALL_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))
# the fields `gen-data` reads: the blob parameters and the seed they derive from
_DATA_FIELDS = ("seed", "n_clusters", "n_samples", "view_dims", "separation",
                "noise_sigma")
# the fields `eval` reads: the seed k-means derives from, as in `run`, and
# the evaluation settings
_EVAL_FIELDS = ("seed", "eval_restarts", "eval_views", "standardize")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedmvc",
        description="Federated multi-view clustering simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("config", nargs="?", default=None,
                       help="key=value or JSON config file")
    _add_config_flags(p_run, _ALL_FIELDS)

    p_sweep = sub.add_parser("sweep", help="grid over one hyperparameter")
    p_sweep.add_argument("config", nargs="?", default=None)
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values (dirichlet_beta accepts 'iid')")
    _add_config_flags(p_sweep, _ALL_FIELDS)

    p_gen = sub.add_parser("gen-data", help="generate a blob dataset file")
    p_gen.add_argument("--out", required=True, help="output .mvd path")
    _add_config_flags(p_gen, _DATA_FIELDS)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    _add_config_flags(p_eval, _EVAL_FIELDS)

    p_inspect = sub.add_parser("inspect", help="print checkpoint architecture")
    p_inspect.add_argument("--checkpoint", required=True)

    return parser


def _cmd_run(args) -> int:
    result = run_experiment(_build_config(args))
    final = result.final
    print(f"ACC={_fmt(final.acc)} NMI={_fmt(final.nmi)} ARI={_fmt(final.ari)} "
          f"objective={_fmt(final.kmeans_objective)}")
    print(f"artifacts written to {result.out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    config = _build_config(args)
    values = [v for v in args.values.split(",") if v != ""]
    path = run_sweep(config, args.param, values)
    print(f"combined sweep results written to {path}")
    return 0


def _cmd_gen_data(args) -> int:
    config = _build_config(args)
    ds = _load_or_generate(config, derive_seeds(config.seed))
    save_dataset(ds, args.out)
    print(f"wrote {ds.n_samples} samples x {ds.n_views} views to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    config = _build_config(args)
    if not Path(args.checkpoint).exists():
        raise ConfigError(f"checkpoint: file not found: {args.checkpoint}")
    if not Path(args.data).exists():
        raise ConfigError(f"data: dataset file not found: {args.data}")
    params = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    try:
        report = evaluate_global(params, dataset, config,
                                 derive_seeds(config.seed).evaluation)
    except DimensionError as err:
        raise ConfigError(f"checkpoint does not fit this dataset: {err}") from err
    print(f"ACC={_fmt(report.acc)} NMI={_fmt(report.nmi)} ARI={_fmt(report.ari)} "
          f"objective={_fmt(report.kmeans_objective)}")
    return 0


def _cmd_inspect(args) -> int:
    if not Path(args.checkpoint).exists():
        raise ConfigError(f"checkpoint: file not found: {args.checkpoint}")
    params = load_checkpoint(args.checkpoint)
    arch = params.arch
    print(f"views: {arch.n_views} with dims {list(arch.view_dims)}")
    print(f"latent_dim: {arch.latent_dim}")
    print(f"high_dim: {arch.high_dim}")
    print(f"hidden: {arch.hidden}")
    print(f"n_clusters: {arch.n_clusters}")
    print(f"parameters: {params.vector.size}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "gen-data": _cmd_gen_data,
    "eval": _cmd_eval,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DataFormatError, PartitionError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except NonFiniteError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"configuration error: missing file: {err.filename}", file=sys.stderr)
        return 2
    except FedmvcError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
