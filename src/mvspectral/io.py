"""CSV/JSON input and output for the command-line harness.

Two file formats feed the pipeline: time-series CSVs (rows = time points,
columns = regions, optional header of region names) and dense adjacency
CSVs.  A manifest is a JSON list of ``{"path": ..., "type": ...}`` entries
with paths resolved relative to the manifest location.  Negative adjacency
entries are zeroed on load and counted, and asymmetric matrices are averaged
with a warning.

CSV text is parsed by numpy's C reader when it can be, and otherwise by a
token-by-token scan.  The scan alone defines which files are accepted and
every ``ParseError`` message; the C reader is used only where it returns the
values the scan would.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DimensionMismatch, IsolatedVertex, ParseError
from .graphs import ViewGraph, graph_from_timeseries
from .multiview import MultiViewSet

TYPE_TIMESERIES = "timeseries"
TYPE_ADJACENCY = "adjacency"


@dataclass
class LoadReport:
    """Bookkeeping from loading a set of view files."""

    files: list
    negative_entries_zeroed: dict
    total_negative_entries: int


def _parse_float(token: str, path, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(path, line_no, f"not a number: {token!r}") from None


def _first_data_line(lines):
    """Find where numeric rows start, and the header row if there is one.

    The first line that is neither blank nor a ``#`` comment is a header
    when any of its comma-separated tokens is not a number to ``float()``.

    Returns:
        (header names or None, index in ``lines`` of the first line to parse)
    """
    for index, raw in enumerate(lines):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = [t.strip() for t in line.split(",")]
        try:
            [float(t) for t in tokens]
        except ValueError:
            return tokens, index + 1
        return None, index
    return None, len(lines)


def _scan_matrix_csv(lines, path):
    """Parse ``lines`` token by token: the definition of the accepted grammar.

    Blank and ``#`` lines are skipped, tokens are stripped and read by
    ``float()``, every row must be as wide as the first, and every value
    must be finite. Each violation raises a ``ParseError`` naming its line.
    """
    header, start = _first_data_line(lines)
    rows = []
    row_lines = []
    width = None
    for line_no, raw in enumerate(lines[start:], start=start + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        values = [_parse_float(t.strip(), path, line_no) for t in line.split(",")]
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError(path, line_no, f"expected {width} columns, got {len(values)}")
        rows.append(values)
        row_lines.append(line_no)
    if not rows:
        raise ParseError(path, detail="no numeric rows")
    matrix = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        row, col = bad[0]
        raise ParseError(path, row_lines[row],
                         f"non-finite value {rows[row][col]!r} in column {col + 1}")
    return matrix, header


def read_matrix_csv(path):
    """Read a comma-separated numeric matrix, tolerating one header row.

    The rows after the header go first to numpy's C reader (``np.loadtxt``),
    which takes no comments, so any ``#`` line past the header sends the
    file down the fallback. Its result is kept only when it is non-empty and
    all finite. Any other outcome (a token or row it rejects, or no data)
    falls back to the token-by-token scan, which defines what is accepted
    and words every error; the C reader only speeds up files that the scan
    accepts, and gives them the same values.

    Raises:
        ParseError: unreadable or undecodable file, a non-numeric or
            non-finite (``nan``, ``inf``) token, or a ragged row; the line
            is named.

    Returns:
        (2-d float array, header names or None)
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(path, detail=str(exc)) from exc
    lines = text.splitlines()
    header, start = _first_data_line(lines)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = np.loadtxt(lines[start:], delimiter=",", comments=None, ndmin=2)
        if matrix.size and np.isfinite(matrix).all():
            return matrix, header
    except (ValueError, UserWarning):
        pass
    return _scan_matrix_csv(lines, path)


def load_adjacency(path, label: str | None = None):
    """Load one adjacency CSV as a view.

    Returns:
        (ViewGraph, number of negative entries zeroed)
    """
    matrix, _ = read_matrix_csv(path)
    if matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatch(f"{path}: adjacency must be square, got {matrix.shape}")
    negatives = int(np.count_nonzero(matrix < 0.0))
    if negatives:
        matrix = np.maximum(matrix, 0.0)
    return ViewGraph.from_weights(matrix, label=label or Path(path).name), negatives


def load_timeseries(path, label: str | None = None) -> ViewGraph:
    """Load one time-series CSV and build its correlation graph."""
    matrix, _ = read_matrix_csv(path)
    return graph_from_timeseries(matrix, label=label or Path(path).name)


def read_manifest(path) -> list:
    """Read a manifest: JSON list of {"path", "type"} with relative paths."""
    path = Path(path)
    try:
        entries = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(path, detail=str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(entries, list) or not entries:
        raise ParseError(path, detail="manifest must be a non-empty JSON list")
    resolved = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise ParseError(path, detail=f"entry {i} must be an object with a string 'path'")
        kind = entry.get("type", TYPE_ADJACENCY)
        if kind not in (TYPE_ADJACENCY, TYPE_TIMESERIES):
            raise ParseError(path, detail=f"entry {i} has unknown type {kind!r}")
        try:
            resolved.append(((path.parent / entry["path"]).resolve(), kind))
        except ValueError as exc:  # a path with a NUL character
            raise ParseError(path, detail=f"entry {i} has a bad path: {exc}") from exc
    return resolved


def load_views(source):
    """Load a multi-view set from a manifest path or (path, type) pairs.

    Returns:
        (MultiViewSet, LoadReport)

    Raises:
        ParseError, DimensionMismatch, IsolatedVertex: surfaced with the
            offending file named.
    """
    if isinstance(source, (str, Path)):
        entries = read_manifest(source)
    else:
        entries = [(Path(p), kind) for p, kind in source]
    views = []
    zeroed = {}
    n = None
    for file_path, kind in entries:
        if kind == TYPE_TIMESERIES:
            view = load_timeseries(file_path)
            count = 0
        else:
            view, count = load_adjacency(file_path)
        if n is None:
            n = view.n
        elif view.n != n:
            raise DimensionMismatch(f"{file_path}: has {view.n} vertices, expected {n}")
        isolated = np.flatnonzero(view.weights.sum(axis=1) <= 0.0)
        if isolated.size:
            raise IsolatedVertex(int(isolated[0]), detail=f" in {file_path}")
        views.append(view)
        zeroed[str(file_path)] = count
    report = LoadReport(
        files=[str(p) for p, _ in entries],
        negative_entries_zeroed=zeroed,
        total_negative_entries=sum(zeroed.values()),
    )
    return MultiViewSet(views), report


def write_matrix_csv(matrix, path, header=None) -> None:
    """Write each value as its shortest round-tripping ``repr``, one row a line."""
    lines = [",".join(header)] if header else []
    lines.extend(",".join(map(repr, row))
                 for row in np.asarray(matrix, dtype=np.float64).tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def to_jsonable(obj):
    """Recursively convert arrays/dataclasses into JSON-serializable values."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def dump_json(payload, path=None) -> str:
    """Serialize deterministically (sorted keys); optionally write to a file."""
    text = json.dumps(to_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


@dataclass
class RunReport:
    """End-to-end clustering run: inputs echoed, labelling and diagnostics."""

    method: str
    k: int
    assignment: list
    mode_support: list
    seeds_used: int
    empty_clusters: list
    aligned_to_first: bool
    weights: list | None
    eigenvalues: list
    embedding_seconds: float
    version: str
    config: dict

    def to_dict(self) -> dict:
        return to_jsonable(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls)})

    def to_json(self, path=None) -> str:
        return dump_json(self.to_dict(), path)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))


def report_version() -> str:
    return __version__
