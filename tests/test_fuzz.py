"""Bounded property tests of the file boundary: CSV loading and ``cluster``.

Whatever the CSV text, loading either returns a finite matrix or raises a
typed error, and the command line ends with a documented exit code and, on
failure, exactly one ``error:`` line on stderr.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mvspectral
from mvspectral import METHODS, MVSpectralError, ParseError
from mvspectral.cli import main
from mvspectral.io import TYPE_ADJACENCY, TYPE_TIMESERIES, load_views, read_matrix_csv

FUZZ = settings(max_examples=50, deadline=None, database=None)

numbers = st.one_of(
    st.integers(-3, 20).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(["1.7e308", "1e308", "2.2e-308", "1e-320", "5e-324"]),
)
specials = st.sampled_from(["nan", "NaN", "inf", "-inf", "", "x", "1e400", "-0.0", "1,"])

# Inputs from this domain that once ended in a traceback or printed numpy
# overflow warnings before the error line: entries whose symmetrized sum or
# row sums overflow, and subnormal degrees whose embedding overflows the
# k-means++ distances.
OVERFLOW_PAIR = "0,1.7e308\n1.7e308,0\n"
OVERFLOW_DEGREES = "0,1e308,1e308\n1e308,0,1e308\n1e308,1e308,0\n"
OVERFLOW_ROW_SUMS = "\n".join(",".join("0" if i == j else "6e307" for j in range(4))
                              for i in range(4)) + "\n"
SUBNORMAL_DEGREES = "0,1e-320\n1e-320,0\n"
PINNED = (OVERFLOW_PAIR, OVERFLOW_DEGREES, OVERFLOW_ROW_SUMS, SUBNORMAL_DEGREES)


@st.composite
def csv_texts(draw):
    """A square (or nearly square) matrix as CSV, with defects mixed in."""
    n = draw(st.integers(1, 5))
    rows = [[draw(numbers) for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(0, n - 1))
        rows[row][draw(st.integers(0, n - 1))] = draw(specials)
    if draw(st.booleans()):
        del rows[draw(st.integers(0, n - 1))][-1]
    lines = [",".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(0, ",".join(f"r{i}" for i in range(n)))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# c", "  "])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def write_family(root: Path, texts, kind: str) -> Path:
    entries = []
    for i, text in enumerate(texts):
        (root / f"v{i}.csv").write_text(text)
        entries.append({"path": f"v{i}.csv", "type": kind})
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps(entries))
    return manifest


@FUZZ
@given(text=st.one_of(csv_texts(), st.text(max_size=60)))
def test_read_matrix_csv_returns_finite_or_parse_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_text(text)
        try:
            matrix, _ = read_matrix_csv(path)
        except ParseError:
            return
    assert matrix.ndim == 2 and matrix.size > 0
    assert np.all(np.isfinite(matrix))


@FUZZ
@given(texts=st.lists(csv_texts(), min_size=1, max_size=3),
       kind=st.sampled_from([TYPE_ADJACENCY, TYPE_TIMESERIES]))
@example(texts=[OVERFLOW_PAIR], kind=TYPE_ADJACENCY)
@example(texts=[OVERFLOW_DEGREES], kind=TYPE_ADJACENCY)
def test_load_views_returns_views_or_typed_error(texts, kind):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_family(Path(tmp), texts, kind)
        try:
            views, report = load_views(manifest)
        except MVSpectralError as exc:
            assert exc.exit_code in (2, 3, 4)
            return
    assert views.m == len(texts)
    assert np.all(np.isfinite(views.stack))


@FUZZ
@given(texts=st.lists(csv_texts(), min_size=1, max_size=3),
       kind=st.sampled_from([TYPE_ADJACENCY, TYPE_TIMESERIES]),
       method=st.sampled_from(METHODS), k=st.integers(1, 4))
@example(texts=[OVERFLOW_PAIR], kind=TYPE_ADJACENCY, method="mvsc", k=2)
@example(texts=[OVERFLOW_DEGREES], kind=TYPE_ADJACENCY, method="mvsc", k=2)
@example(texts=[OVERFLOW_ROW_SUMS], kind=TYPE_ADJACENCY, method="mvsc", k=2)
@example(texts=[SUBNORMAL_DEGREES], kind=TYPE_ADJACENCY, method="mvsc", k=2)
def test_cluster_exit_code_and_one_error_line(texts, kind, method, k):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_family(Path(tmp), texts, kind)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["cluster", "--manifest", str(manifest), "--method", method,
                         "--k", str(k), "--num-seeds", "3"])
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert not errors
        assert len(json.loads(out.getvalue())["assignment"]) > 0
    else:
        assert len(errors) == 1


@pytest.mark.parametrize("text", PINNED, ids=["pair", "degrees", "row-sums", "subnormal"])
def test_pinned_inputs_print_only_the_error_line(tmp_path, text):
    # A separate process, because pytest captures the warnings that the
    # command line would print to stderr.
    manifest = write_family(tmp_path, [text], TYPE_ADJACENCY)
    src = str(Path(mvspectral.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "mvspectral.cli", "cluster", "--manifest", str(manifest),
         "--method", "mvsc", "--k", "2", "--num-seeds", "3"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode in (2, 3)
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr
