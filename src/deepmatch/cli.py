"""Command line runner for the three experiment pipelines.

    deepmatch swissroll  --out runs/sr  [--config cfg.json] [--seed 3] [--force]
    deepmatch propensity --out runs/ps  [--config cfg.json] [--seed 3] [--force]
    deepmatch gradcheck  --out runs/gc  [--config cfg.json] [--seed 3] [--force]

Configs are strict JSON; omitting --config runs the documented defaults.
Exit codes: 0 success, 1 invalid config or arguments, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import EXPERIMENTS, ConfigError, StageError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


def _load_config(path) -> dict:
    if path is None:
        return {}
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from None
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: not valid JSON ({exc})") from None


def _unique_keys(pairs) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"config: duplicate key {key!r}")
        doc[key] = value
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepmatch",
        description="Treatment-effect estimation experiments: embedding-based "
        "matching on the swiss roll and propensity-score matching on jittered pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for exp in EXPERIMENTS.values():
        s = sub.add_parser(exp.name, help=exp.description, description=exp.description)
        s.add_argument("--config", metavar="FILE", default=None,
                       help="JSON config; omit to run the documented defaults")
        s.add_argument("--out", metavar="DIR", required=True, help="output directory")
        s.add_argument("--seed", type=int, default=None, help="override the config seed")
        s.add_argument("--force", action="store_true",
                       help="write into a non-empty output directory")
    return parser


def main(argv=None) -> int:
    # argparse exits 2 on bad arguments; the documented contract reserves
    # 2 for numerical failure, so remap argument errors to the config code.
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    exp = EXPERIMENTS[args.command]
    try:
        cfg = exp.parse(_load_config(args.config), seed_override=args.seed)
        lines, passed = exp.summary(cfg, exp.run(cfg, args.out, force=args.force))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    for line in lines:
        print(line)
    if not passed:
        print(f"{exp.name} failed", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"wrote {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
