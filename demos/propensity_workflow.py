"""Propensity workflow on treated/control pairs that differ by a tiny jitter.

Each control is a treated unit nudged by N(0, 0.02^2) noise, so the true
assignment probability is flat at one half and the fitted scores carry
very little signal. The full workflow still runs: fit both model kinds,
inspect score spread and covariate balance across score strata, match on
scores, and count how often a unit finds its own partner.
"""

import numpy as np

from deepmatch import (
    balance_report,
    fit_propensity,
    gen_propensity_pairs,
    log_odds,
    misassignment_report,
    propensity_match,
    threshold_labels,
)


def show_balance(ds, scores):
    balance = balance_report(ds.x, ds.w, scores, n_strata=4)
    smds = ", ".join(f"{v:+.3f}" for v in balance.covariate_smd)
    print(f"  overall covariate SMD ({smds})")
    for s in balance.strata:
        if s.smd is None:
            detail = "one arm missing"
        else:
            detail = "(" + ", ".join("n/a" if v is None else f"{v:+.3f}" for v in s.smd) + ")"
        print(
            f"  scores [{s.score_lo:.4f}, {s.score_hi:.4f}]: "
            f"{s.n_control} control / {s.n_treated} treated, SMD {detail}"
        )


def main(seed=0):
    ds = gen_propensity_pairs(500, 0.02, seed=seed)
    print(f"{ds.n_units} units: 500 treated, 500 jittered controls\n")

    for kind in ("logistic", "propensity_net"):
        model, test_idx = fit_propensity(kind, ds.x, ds.w, seed=seed)
        scores = model.predict(ds.x)
        queries, matched = propensity_match(scores, ds.w, query_arm=1)
        report = misassignment_report(
            queries,
            matched,
            ds.truth.pair_index,
            threshold_labels(scores[test_idx]),
            ds.w[test_idx],
            method=kind,
            seed=seed,
        )
        print(kind)
        if kind == "logistic":
            coef = ", ".join(f"{c:+.3f}" for c in model.coef)
            print(f"  intercept {model.intercept:+.3f}, coefficients ({coef})")
            print(f"  {model.iterations} Newton iterations, gradient norm {model.grad_norm:.1e}")
        print(
            f"  scores span [{scores.min():.4f}, {scores.max():.4f}], "
            f"log odds span [{log_odds(scores).min():+.4f}, {log_odds(scores).max():+.4f}]"
        )
        print(f"  held-out accuracy {report.accuracy_pct:.2f}%")
        print(
            f"  matched on score: {report.misassignment_rate_pct:.1f}% miss their partner, "
            f"mean index error {report.mean_abs_misassignment_error_pct:.1f}%"
        )
        show_balance(ds, scores)
        print()

    print("flat true propensity means near-constant scores; accuracy hovers at")
    print("chance and score matching rarely lands on the exact partner")


if __name__ == "__main__":
    main()
