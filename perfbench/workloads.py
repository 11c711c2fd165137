"""The benchmark's workloads, as settings for ``fedmvc.cli.run_experiment``.

Each workload stresses a different layer, so that a change to one layer
shows on one workload and leaves the others as they were:

* ``acceptance`` is the ROADMAP default scenario (600 samples, 3 clusters,
  3x10-dim views, 6 clients 2/2/2, 20 warm-up epochs, 30 rounds of 5 local
  epochs, 10-restart k-means after every round). Per-sample compute through
  the tape dominates: backward, the training forward and drift inference.
* ``many-clients`` has 40 clients of about 20 samples (14 full, 13 partial,
  13 single, each with a random view subset) and a wide model, so
  per-parameter work dominates: optimizer steps, parameter clones,
  broadcast, the proximal term and aggregation over many owners per view.
* ``large-pool`` has a 4000-sample pool in 8 clusters and 20-restart k-means
  after each of 6 rounds, so evaluation dominates: Lloyd iterations and one
  pool-sized inference call per round, against 100-row drift batches.

Where a setting departs from the defaults to keep run times steady:

* ``dirichlet_beta=None`` (an IID split) in ``acceptance`` and
  ``large-pool``. With the default label skew, shard sizes changed the
  number of training steps per epoch from 7 to 10 between seeds (a tail of
  two or more rows is a step of its own), and run time followed the seed.
* ``eval_restarts`` of 20 in ``large-pool`` and 30 in ``many-clients``. One
  restart takes anywhere from 2 to 46 Lloyd iterations, so evaluation time
  is only steady across seeds as a sum over many restarts (120 and 300 a
  run). 8 clusters is the most for which the brute-force ACC check (8!
  relabelings) stays cheap.
* ``mixed_counts`` in ``many-clients`` fixes how many clients hold 3, 2 and
  1 views, so the amount of work does not depend on the seed; which views
  they hold is still drawn from it.

The master seed of every run is the benchmark's ``--seed``; the program
derives data, partition, view assignment, initialisation, training and
evaluation streams from it. Settings not listed keep their defaults.
"""

from __future__ import annotations

WORKLOADS: dict[str, dict] = {
    "acceptance": {
        "mixed_counts": (2, 2, 2),
        "dirichlet_beta": None,
    },
    "many-clients": {
        "n_clients": 40,
        "mixed_counts": (14, 13, 13),
        "n_samples": 800,
        "view_dims": (60, 60, 60),
        "hidden": 256,
        "high_dim": 64,
        "rounds": 10,
        "local_epochs": 1,
        "eval_restarts": 30,
    },
    "large-pool": {
        "n_samples": 4000,
        "n_clusters": 8,
        "mixed_counts": (2, 2, 2),
        "dirichlet_beta": None,
        "warmup_epochs": 1,
        "rounds": 6,
        "local_epochs": 1,
        "eval_restarts": 20,
    },
}


def settings(workload: str, seed: int, output_dir: str) -> dict:
    """Keyword arguments for ``ExperimentConfig`` of one run."""
    return {**WORKLOADS[workload], "seed": seed, "output_dir": output_dir}
