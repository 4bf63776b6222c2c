"""Plain-text table rendering and CSV emission for experiment results.

Every figure/table driver returns structured rows; this module turns
them into the aligned ASCII tables printed by the benchmarks and the
``python -m repro.harness.cli`` entry point, and into CSV for anyone
who wants to re-plot.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from typing import Dict, Iterable, List, Mapping, Sequence, Union

__all__ = ["render_table", "rows_to_csv", "format_number",
           "save_results_json", "load_results_json", "write_artifacts"]

Cell = Union[str, int, float, None]


def format_number(value: Cell) -> str:
    """Human-friendly numeric formatting for table cells."""
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:,.0f}"
    if magnitude >= 10:
        return f"{value:.1f}"
    if magnitude >= 0.01:
        return f"{value:.3f}"
    return f"{value:.2e}"


def render_table(headers: Sequence[str],
                 rows: Iterable[Sequence[Cell]],
                 title: str = "") -> str:
    """Render an aligned monospace table."""
    formatted: List[List[str]] = [[format_number(cell) for cell in row]
                                  for row in rows]
    widths = [len(h) for h in headers]
    for row in formatted:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width)
                         for cell, width in zip(cells, widths))

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(list(headers)))
    out.append(line(["-" * width for width in widths]))
    out.extend(line(row) for row in formatted)
    return "\n".join(out)


def rows_to_csv(headers: Sequence[str],
                rows: Iterable[Sequence[Cell]]) -> str:
    """The same rows as CSV text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    for row in rows:
        writer.writerow(["" if cell is None else cell for cell in row])
    return buffer.getvalue()


def write_artifacts(out_dir, files: Mapping[str, object]
                    ) -> Dict[str, pathlib.Path]:
    """Write each ``name -> content`` into ``out_dir``; the one file
    writer of every CLI subcommand and sweep script.

    The directory is created if missing. A ``str`` is written verbatim;
    anything else is a JSON document, dumped with ``indent=1,
    sort_keys=True`` plus a trailing newline, so same-seed records are
    byte-identical. Prints one ``[wrote PATH]`` line per file and
    returns ``{name: path}``.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, content in files.items():
        text = (content if isinstance(content, str)
                else json.dumps(content, indent=1, sort_keys=True) + "\n")
        paths[name] = out / name
        paths[name].write_text(text, encoding="utf-8")
        print(f"[wrote {paths[name]}]")
    return paths


def save_results_json(path, results) -> int:
    """Archive a list of :class:`~repro.harness.experiment.RunResult`
    objects as JSON (one flat record each). Returns the record count.
    """
    records = [result.to_dict() for result in results]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1)
    return len(records)


def load_results_json(path):
    """Read records written by :func:`save_results_json` (plain dicts)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def dicts_to_table(records: Sequence[Mapping[str, Cell]],
                   columns: Sequence[str], title: str = "") -> str:
    """Render a list of dict records selecting ``columns``."""
    rows = [[record.get(column) for column in columns]
            for record in records]
    return render_table(columns, rows, title=title)
