"""Serialization of experiment results.

Tables and figures regenerate as :class:`ExperimentResult` row bundles;
this module writes them as JSON or CSV so external tooling (plotting,
diffing against the paper) can consume them, and the CLI's
``--format``/``--output`` flags are built on it.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict

from .base import ExperimentResult

__all__ = ["to_json", "to_csv", "write_result"]


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    return str(value)


def to_json(result: ExperimentResult) -> str:
    """Serialize a result to a JSON document."""
    payload: Dict[str, Any] = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "notes": result.notes,
        "rows": [
            {key: _jsonable(value) for key, value in row.items()}
            for row in result.rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def to_csv(result: ExperimentResult) -> str:
    """Serialize a result's rows to CSV (header = column union)."""
    names = result.column_names()
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=names, extrasaction="ignore")
    writer.writeheader()
    for row in result.rows:
        writer.writerow({key: _jsonable(row.get(key, "")) for key in names})
    return buffer.getvalue()


def write_result(
    result: ExperimentResult, path: str, fmt: str = "json"
) -> None:
    """Write a result to disk in the requested format.

    Args:
        result: the experiment output.
        path: destination file.
        fmt: ``"json"``, ``"csv"`` or ``"text"``.

    Raises:
        ValueError: for an unknown format.
    """
    if fmt == "json":
        content = to_json(result)
    elif fmt == "csv":
        content = to_csv(result)
    elif fmt == "text":
        content = result.format_text()
    else:
        raise ValueError(f"unknown format {fmt!r}; use json, csv or text")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
        if not content.endswith("\n"):
            handle.write("\n")
