"""One measured run of fedmvc in a fresh process.

Run as ``python -m perfbench.child`` from the checkout root, with ``src`` on
PYTHONPATH and the BLAS thread variables already set (``perfbench/run.py``
does both). Times start at ``--spawned``, the parent's monotonic clock just
before it started this process, so interpreter start and every import
count toward set-up. The child drives ``fedmvc.cli.run_experiment``, wraps
module functions from outside to read its phases, checks the outputs with
``perfbench.checks``, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

# CLOCK_MONOTONIC on Linux: one clock for every process, so the parent's
# start time and this process's readings can be subtracted.
_clock = time.monotonic


class Phases:
    """End-to-end phase clocks, read through wrappers around fedmvc calls."""

    def __init__(self):
        self.first_pretrain = None
        self.warmup_s = 0.0
        self.round_times: list[float] = []
        self.eval_s = 0.0
        self.evaluations = 0
        self.check_s = 0.0
        self.failures: list[str] = []
        self.shards = None
        self.n_samples = 0
        self.last_kmeans = None


def _checked(phases: Phases, what: str, check, *args) -> None:
    """Run one output check; its time is taken out of ``total_s``."""
    start = _clock()
    phases.failures += [f"{what}: {msg}" for msg in check(*args)]
    phases.check_s += _clock() - start


def _params_as_arrays(params) -> dict:
    n_views = params.arch.n_views
    return {
        "views": [[p.value for p in params.encoders[v] + params.decoders[v]]
                  for v in range(n_views)],
        "shared": [p.value for p in params.feature_net + params.cluster_head],
    }


def install_phases(phases: Phases) -> None:
    import fedmvc.cli as cli
    import fedmvc.evaluation as evaluation
    import fedmvc.federation as federation
    from perfbench import checks

    pretrain = federation.pretrain_client

    def timed_pretrain(*args, **kwargs):
        start = _clock()
        if phases.first_pretrain is None:
            phases.first_pretrain = start
        try:
            return pretrain(*args, **kwargs)
        finally:
            phases.warmup_s += _clock() - start

    build = federation.build_clients

    def capture_shards(dataset, shards, *args, **kwargs):
        phases.shards = [s.sample_indices for s in shards]
        phases.n_samples = dataset.n_samples
        return build(dataset, shards, *args, **kwargs)

    run_federation = cli.run_federation

    def hooked_federation(*args, round_hook=None, **kwargs):
        def hook(server, report):
            phases.round_times.append(report.wall_time)
            if round_hook is not None:
                round_hook(server, report)
        return run_federation(*args, round_hook=hook, **kwargs)

    kmeans_best = evaluation.kmeans_best

    def capture_kmeans(points, *args, **kwargs):
        best, objectives = kmeans_best(points, *args, **kwargs)
        phases.last_kmeans = (points, best)
        return best, objectives

    evaluate_global = cli.evaluate_global

    def timed_evaluate(params, dataset, *args, **kwargs):
        start = _clock()
        report = evaluate_global(params, dataset, *args, **kwargs)
        phases.eval_s += _clock() - start
        phases.evaluations += 1
        points, best = phases.last_kmeans
        phases.last_kmeans = None
        reported = {"acc": report.acc, "nmi": report.nmi, "ari": report.ari,
                    "kmeans_objective": report.kmeans_objective}
        _checked(phases, f"evaluation {phases.evaluations}", checks.check_clustering,
                 points, best.labels, best.centroids, dataset.labels, reported)
        return report

    federation.pretrain_client = timed_pretrain
    federation.build_clients = capture_shards
    cli.run_federation = hooked_federation
    evaluation.kmeans_best = capture_kmeans
    cli.evaluate_global = timed_evaluate


def install_aggregate_check(phases: Phases) -> None:
    """Recompute every round's aggregate from the clients' parameters."""
    import fedmvc.federation as federation
    from perfbench import checks

    aggregate = federation.aggregate

    def checked_aggregate(prev, client_params, shards, weights):
        result = aggregate(prev, client_params, shards, weights)
        _checked(phases, f"aggregation {len(phases.round_times) + 1}",
                 checks.check_aggregate,
                 _params_as_arrays(prev), [_params_as_arrays(p) for p in client_params],
                 [s.view_subset for s in shards], [s.n_samples for s in shards],
                 weights, _params_as_arrays(result))
        return result

    federation.aggregate = checked_aggregate


def install_tracer(tracer) -> None:
    """Spans at each layer boundary; names are ``<module>.<layer>``."""
    import fedmvc.cli as cli
    import fedmvc.data as data
    import fedmvc.evaluation as evaluation
    import fedmvc.federation as federation
    import fedmvc.model as model
    import fedmvc.tensor as tensor

    counts = tracer.counts

    def count_nodes(args, kwargs):
        counts["tensor.tape_nodes"] += len(getattr(args[0], "_nodes", ()))

    def count_step(args, kwargs):
        if tracer.inside("federation.local_round"):
            counts["federation.train_steps"] += 1

    def count_rows(args, kwargs):
        views = args[1] if len(args) > 1 else kwargs["views"]
        counts["model.drift_infer_rows"] += next(iter(views.values())).shape[0]

    def count_lloyd(args, kwargs, result):
        counts["evaluation.kmeans_restarts"] += 1
        counts["evaluation.lloyd_iters"] += len(result.trace)

    tracer.patch(tensor.Tape, "backward", "tensor.backward", before=count_nodes)
    for opt in (tensor.SGD, tensor.Adam):
        tracer.patch(opt, "step", "tensor.optimizer_step", before=count_step)
    for fn in ("forward_views", "encode_decode", "encode", "high_features"):
        tracer.patch(federation, fn, "model.forward")
    tracer.patch(federation, "infer_fused", "model.drift_infer", before=count_rows)
    tracer.patch(evaluation, "infer_fused", "model.eval_infer")
    tracer.patch(model.ModelParams, "clone", "model.clone")
    tracer.patch(cli, "save_checkpoint", "model.checkpoint_write")
    tracer.patch(federation, "reconstruction_loss", "losses.reconstruction")
    for fn in ("feature_contrast_full", "label_contrast", "partial_contrast",
               "single_view_contrast"):
        tracer.patch(federation, fn, "losses.contrast")
    tracer.patch(federation, "drift_loss", "losses.drift_loss")
    tracer.patch(federation, "pretrain_client", "federation.warmup")
    tracer.patch(federation, "local_train_round", "federation.local_round")
    tracer.patch(federation, "aggregate", "federation.aggregate")
    tracer.patch(federation, "broadcast", "federation.broadcast")
    tracer.patch(federation, "build_clients", "federation.build_clients")
    tracer.patch(cli, "evaluate_global", "evaluation.evaluate")
    tracer.patch(evaluation, "kmeans_best", "evaluation.kmeans")
    tracer.patch(evaluation, "kmeans", "evaluation.kmeans", after=count_lloyd)
    for fn in ("accuracy", "normalized_mutual_info", "adjusted_rand_index"):
        tracer.patch(evaluation, fn, "evaluation.metrics")
    tracer.patch(cli, "generate_blobs", "data.generate")
    for fn in ("dirichlet_partition", "assign_views"):
        tracer.patch(federation, fn, "data.partition")
    tracer.patch(data.MultiViewDataset, "standardized", "data.standardize")


def layer_metrics(tracer) -> dict[str, float]:
    """Self seconds of every span name, as ``<name>_s``, plus the counters."""
    calls = tracer.calls()
    counts = tracer.counts
    out = {f"{name}_s": seconds for name, seconds in tracer.self_times().items()}
    out.update({
        "tensor.backward_calls": calls["tensor.backward"],
        "tensor.tape_nodes_per_step":
            counts["tensor.tape_nodes"] / max(calls["tensor.backward"], 1),
        "model.drift_infer_calls": calls["model.drift_infer"],
        "model.drift_infer_rows": counts["model.drift_infer_rows"],
        "model.clone_calls": calls["model.clone"],
        "federation.client_rounds": calls["federation.local_round"],
        "federation.train_steps": counts["federation.train_steps"],
        "evaluation.kmeans_restarts": counts["evaluation.kmeans_restarts"],
        "evaluation.lloyd_iters": counts["evaluation.lloyd_iters"],
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="run directory")
    parser.add_argument("--spawned", type=float, required=True,
                        help="parent's time.monotonic() at process start")
    parser.add_argument("--spans", default=None,
                        help="trace the run and write its spans to this file")
    args = parser.parse_args(argv)

    import fedmvc
    from fedmvc.cli import run_experiment
    from fedmvc.config import ExperimentConfig
    from perfbench import checks
    from perfbench.tracer import Tracer
    from perfbench.workloads import settings

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(fedmvc.__file__).resolve().is_relative_to(src.resolve()):
        print(f"fedmvc was imported from {fedmvc.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    phases = Phases()
    tracer = None
    if args.spans is not None:
        tracer = Tracer()
        install_tracer(tracer)
        install_aggregate_check(phases)
    install_phases(phases)

    config = ExperimentConfig(**settings(args.workload, args.seed, args.out))
    result = run_experiment(config)
    finished = _clock()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    _checked(phases, "partition", checks.check_partition, phases.shards, phases.n_samples)
    _checked(phases, "final", checks.check_final_quality, result.final.acc)
    attempted = len(phases.round_times) + phases.evaluations
    drift_rounds = phases.round_times[1:]
    out = {
        "attempted": attempted,
        "failed": min(len(phases.failures), attempted),
        "failures": phases.failures,
        "csv": str(result.csv_path),
        "metrics": {
            "setup_s": phases.first_pretrain - args.spawned,
            "train_s": phases.warmup_s + sum(phases.round_times),
            "eval_s": phases.eval_s,
            "total_s": finished - args.spawned - phases.check_s,
            "drift_round_s": statistics.median(drift_rounds) if drift_rounds else 0.0,
            "peak_rss_mib": peak_rss_mib,
            "acc": result.final.acc,
            "nmi": result.final.nmi,
            "ari": result.final.ari,
        },
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
