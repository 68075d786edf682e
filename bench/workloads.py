"""The benchmark's workloads: the config documents the program receives.

A workload is a cycle of one or more configs derived from the workload
seed. Samples run the cycle in order and wrap around, so a run long enough
to take more samples than the cycle holds repeats configs, which the
byte-identity check needs. The `tiny` sizes exist for the benchmark's own
tests; they keep every layer of the full workload but run in well under a
second.
"""

from __future__ import annotations

from dataclasses import dataclass

CONFIG_VERSION = 1


@dataclass(frozen=True)
class Workload:
    experiment: str
    body: dict
    tiny: dict
    cycle: int = 1
    checks: tuple = ()


WORKLOADS = {
    # The paper's headline study and the acceptance suite's five-seed study.
    "sr-default": Workload(
        experiment="swissroll",
        body={},
        tiny={"dataset": {"n": 200}, "autoencoder": {"epochs": 3}},
        cycle=5,
    ),
    # Dense LLE past the last-level cache, and training at 4000 points.
    "sr-scale": Workload(
        experiment="swissroll",
        body={"dataset": {"n": 4000}},
        tiny={"dataset": {"n": 300}, "autoencoder": {"epochs": 3}},
    ),
    # Multi-dimensional matching dominates; every query has a zero-distance twin.
    "twin-match": Workload(
        experiment="swissroll",
        body={"dataset": {"n": 4000}, "twin_mode": True, "methods": ["raw_knn", "pca"]},
        tiny={"dataset": {"n": 200}},
        checks=("exact_twins",),
    ),
    # 1-D score matching dominates; embeddings, LLE and the network are
    # bypassed. Logistic only: the two-epoch propensity_net's scores hold
    # between 1.5k and 10k distinct values depending on the seed, which moves
    # the cost of its match 4x from seed to seed.
    "ps-scale": Workload(
        experiment="propensity",
        body={"dataset": {"n_pairs": 5000}, "methods": ["logistic"]},
        tiny={"dataset": {"n_pairs": 200}},
        checks=("score_scan",),
    ),
}


def configs(name: str, seed: int, tiny: bool = False) -> list[dict]:
    """The cycle of config documents for `name`, starting at `seed`."""
    wl = WORKLOADS[name]
    body = {**wl.body, **wl.tiny} if tiny else wl.body
    return [
        {"version": CONFIG_VERSION, "experiment": wl.experiment, "seed": seed + i, **body}
        for i in range(wl.cycle)
    ]
