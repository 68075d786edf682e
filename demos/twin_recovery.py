"""Nearest-neighbor matching on data where the right answer is knowable.

First a three-unit example small enough to check by hand, then a twin
construction: every unit is duplicated into the opposite arm carrying
its counterfactual outcome, so matching should find the twin at
distance zero and recover each individual effect exactly.
"""

import numpy as np

from deepmatch import (
    SwissRollConfig,
    duplicate_twins,
    estimate_effects,
    gen_swiss_roll,
    nearest_opposite,
)


def hand_example():
    z = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    w = np.array([1, 0, 0])
    indices, distances = nearest_opposite(z, w, 0, k=2)
    print("treated unit 0 matched against the two controls:")
    for idx, dist in zip(indices, distances):
        print(f"  control {idx} at distance {dist:.1f}")


def twin_study():
    ds = duplicate_twins(gen_swiss_roll(SwissRollConfig(n=250), 7))
    est = estimate_effects(ds.x, ds.w, ds.y_obs, k=1)
    worst = float(np.abs(est.ite - ds.truth.ite_true).max())
    print(f"\n{ds.n_units} units after twinning (each unit plus its opposite-arm clone)")
    print(f"estimated ATE {est.ate:.6f} vs true {float(ds.truth.ite_true.mean()):.6f}")
    print(f"worst per-unit effect error {worst:.3e}")


if __name__ == "__main__":
    hand_example()
    twin_study()
