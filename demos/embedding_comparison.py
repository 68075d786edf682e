"""Compare embeddings of the swiss roll for band separation and matching.

The dataset is a 2-D sheet curled through 3-space, cut into six bands
along the roll parameter. Each embedder maps the ambient coordinates to
2-D; the silhouette of the bands in that plane says how well the sheet
was unrolled, and opposite-arm matching error says what the embedding
buys for effect estimation. The raw_knn row matches in the original
3-D coordinates and is the no-embedding baseline.
"""

import numpy as np

from deepmatch import (
    SwissRollConfig,
    TrainConfig,
    estimate_effects_pooled,
    fit_autoencoder,
    fit_identity,
    fit_lle,
    fit_pca,
    gen_swiss_roll,
    ite_error,
    silhouette,
    train_test_split,
)


def fit_all(x_train, seed):
    # offsets keep the training stream independent of the data draw,
    # mirroring the experiment pipeline
    train_cfg = TrainConfig(epochs=400, batch_size=32)
    return {
        "raw_knn": fit_identity(x_train),
        "pca": fit_pca(x_train, 2),
        "lle": fit_lle(x_train, 2, k_neighbors=10, reg=1e-3),
        "autoencoder": fit_autoencoder(x_train, 2, train_cfg, seed=seed + 2000),
    }


def main(seed=0):
    ds = gen_swiss_roll(SwissRollConfig(), seed)
    train_idx, test_idx = train_test_split(ds.n_units, 0.2, seed + 1000)
    test_mask = np.zeros(ds.n_units, dtype=bool)
    test_mask[test_idx] = True

    print(f"{len(train_idx)} fit units, {len(test_idx)} query units\n")
    print(f"{'method':<12} {'silhouette':>10} {'ite error':>10}")
    for name, emb in fit_all(ds.x[train_idx], seed).items():
        z = emb.transform(ds.x)
        est = estimate_effects_pooled(
            z[test_idx], ds.w[test_idx], ds.y_obs[test_idx],
            z[train_idx], ds.w[train_idx], ds.y_obs[train_idx], k=1,
        )
        report = ite_error(est, ds.truth, test_mask, method=name, seed=seed)
        sil = silhouette(z[train_idx], ds.truth.group[train_idx])
        print(f"{name:<12} {sil:>10.4f} {report.mean_abs_ite_error:>10.4f}")
    print("\nhigher silhouette = cleaner band separation in the embedding;")
    print("lower ite error = matched opposite-arm neighbors are better effect proxies")


if __name__ == "__main__":
    main()
