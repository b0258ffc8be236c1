"""Result container, count checks and CSV/JSON emission for the simulation harnesses."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .. import __version__


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    seed: int
    config: dict
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    wall_time_s: float = 0.0
    notes: tuple[str, ...] = field(default_factory=tuple)

    def column(self, key: str) -> list:
        j = self.columns.index(key)
        return [row[j] for row in self.rows]


def check_count(name: str, value: int, least: int = 1) -> None:
    """ValueError unless the study's count ``name`` is at least ``least``."""
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_result_files(result: ExperimentResult, out_dir) -> tuple[Path, Path]:
    """Write `<name>_seed<seed>.csv` and `.json`; returns both paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{result.name}_seed{result.seed}"
    csv_path = out / f"{stem}.csv"
    lines = [",".join(result.columns)]
    lines += [",".join(_cell(v) for v in row) for row in result.rows]
    csv_path.write_text("\n".join(lines) + "\n")

    json_path = out / f"{stem}.json"
    # wall time stays off disk so reruns with one seed are byte-identical
    payload = {
        "experiment": result.name,
        "seed": result.seed,
        "version": __version__,
        "config": result.config,
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "notes": list(result.notes),
    }
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path
