"""Versioned JSON envelope for model files.

Every persisted model (network, PCA, LLE, autoencoder, propensity models)
shares one on-disk format: a JSON object with "format", "version" and "kind"
keys plus a kind-specific payload. Arrays are stored as nested lists of
decimal floats, which round-trip float64 exactly through json. Numbers must
be finite: NaN and infinities are refused on write and rejected on read.
"""

from __future__ import annotations

import json
from pathlib import Path

FORMAT_NAME = "deepmatch-model"
FORMAT_VERSION = 1


class ModelFileError(ValueError):
    """Raised for corrupt, truncated or incompatible model files."""


def write_model(path, kind: str, payload: dict) -> None:
    doc = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": kind}
    doc.update(payload)
    Path(path).write_text(json.dumps(doc, sort_keys=True, allow_nan=False), encoding="utf-8")


def read_model(path, expected_kind: str | None = None) -> tuple[str, dict]:
    text = Path(path).read_text(encoding="utf-8")

    def reject_constant(name: str):
        raise ModelFileError(f"{path}: non-finite number {name} in model file")

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}: corrupt model file ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ModelFileError(f"{path}: not a {FORMAT_NAME} file")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ModelFileError(
            f"{path}: unsupported model version {version!r} (expected {FORMAT_VERSION})"
        )
    kind = doc.get("kind")
    if expected_kind is not None and kind != expected_kind:
        raise ModelFileError(f"{path}: expected kind {expected_kind!r}, found {kind!r}")
    return kind, doc
