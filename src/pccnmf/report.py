"""Serializable run records, written by the CLI."""

from __future__ import annotations

import datetime
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

__version__ = "0.1.0"

SCHEMA_VERSION = 1


def timestamp() -> str:
    """ISO-8601 UTC timestamp; pinned by the PCCNMF_TIMESTAMP env var for reproducible output files."""
    pinned = os.environ.get("PCCNMF_TIMESTAMP")
    if pinned:
        return pinned
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def matrix_digest(m) -> str:
    """Content hash of a DataMatrix (shape + entries)."""
    h = hashlib.sha256()
    h.update(repr(m.values.shape).encode())
    h.update(m.values.tobytes())
    return h.hexdigest()[:16]


def report_fields(report) -> dict:
    """The fields of a dataclass report by name, all but its per-entry ``entries``."""
    return {f.name: getattr(report, f.name) for f in fields(report) if f.name != "entries"}


@dataclass
class RunReport:
    """Record of one scan or experiment; its JSON keys are its fields."""

    command: str
    parameters: dict
    seeds: list
    input_digests: dict
    outputs: dict
    timestamps: dict
    schema: int = field(default=SCHEMA_VERSION, init=False)
    version: str = field(default=__version__, init=False)

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
