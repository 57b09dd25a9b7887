"""Run configuration shared by the CLI commands."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class RunConfig:
    command: str
    input: str = None
    fmt: str = "csv"
    window: tuple = None
    basis: str = "svd"
    level: int = None
    seed: int = 0
    out: str = "."
    keep: str = None
    freq: str = None
    struct: str = None
    boundary: str = "circular"
    params: dict = field(default_factory=dict)

    def validate(self):
        """Checks the level only: argparse checks the format, ``parse_window``
        the window, and a flag sets the boundary."""
        if self.level is not None and self.level < 1:
            raise ValueError("level must be >= 1")
        return self

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        doc["window"] = list(self.window) if self.window is not None else None
        return doc

    def write(self, outdir):
        path = Path(outdir) / "config.json"
        path.write_text(json.dumps(self.to_json_dict(), indent=1, sort_keys=True) + "\n")
