import json

import numpy as np
import pytest

import mvspectral.io
from mvspectral import (
    DimensionError,
    DimensionMismatch,
    ExperimentConfig,
    InvalidWeights,
    ParseError,
    ZeroVarianceColumn,
    dump_json,
    load_views,
)
from mvspectral.io import (
    load_adjacency,
    read_manifest,
    read_matrix_csv,
    write_matrix_csv,
)


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


class TestReadMatrixCsv:
    def test_plain_numbers(self, tmp_path):
        f = tmp_path / "m.csv"
        write_csv(f, [[1, 2], [3, 4]])
        matrix, header = read_matrix_csv(f)
        np.testing.assert_array_equal(matrix, [[1.0, 2.0], [3.0, 4.0]])
        assert header is None

    def test_header_row_detected(self, tmp_path):
        f = tmp_path / "ts.csv"
        f.write_text("regionA,regionB\n1.0,2.0\n2.0,1.0\n3.5,0.0\n")
        matrix, header = read_matrix_csv(f)
        assert header == ["regionA", "regionB"]
        assert matrix.shape == (3, 2)

    def test_bad_token_reports_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError) as info:
            read_matrix_csv(f)
        assert info.value.line == 2

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_token_reports_line(self, tmp_path, token):
        f = tmp_path / "nonfinite.csv"
        f.write_text(f"# comment\n1.0,2.0\n3.0,{token}\n")
        with pytest.raises(ParseError, match="non-finite") as info:
            read_matrix_csv(f)
        assert info.value.line == 3

    def test_ragged_rows_rejected(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError):
            read_matrix_csv(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_matrix_csv(tmp_path / "absent.csv")

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(4, 4))
        f = tmp_path / "round.csv"
        write_matrix_csv(matrix, f)
        back, _ = read_matrix_csv(f)
        np.testing.assert_array_equal(back, matrix)


class TestFastPath:
    """Well-formed files are parsed by np.loadtxt; the scan runs only as fallback."""

    @pytest.fixture()
    def scans(self, monkeypatch):
        calls = []
        scan = mvspectral.io._scan_matrix_csv

        def counting(lines, path):
            calls.append(path)
            return scan(lines, path)

        monkeypatch.setattr(mvspectral.io, "_scan_matrix_csv", counting)
        return calls

    def test_adjacency_file_skips_the_scan(self, tmp_path, scans):
        f = tmp_path / "adj.csv"
        matrix = np.random.default_rng(3).random((6, 6))
        write_matrix_csv(matrix, f)
        back, header = read_matrix_csv(f)
        np.testing.assert_array_equal(back, matrix)
        assert header is None and scans == []

    def test_timeseries_file_with_header_skips_the_scan(self, tmp_path, scans):
        f = tmp_path / "ts.csv"
        series = np.random.default_rng(4).normal(size=(9, 4))
        write_matrix_csv(series, f, header=["a", "b", "c", "d"])
        back, header = read_matrix_csv(f)
        np.testing.assert_array_equal(back, series)
        assert header == ["a", "b", "c", "d"] and scans == []

    @pytest.mark.parametrize("text", ["1,2\n3,nan\n", "1,2\n3\n", "1,2\n3,oops\n"],
                             ids=["nan", "ragged", "bad-token"])
    def test_rejected_file_runs_the_scan(self, tmp_path, scans, text):
        f = tmp_path / "bad.csv"
        f.write_text(text)
        with pytest.raises(ParseError, match="bad.csv:2"):
            read_matrix_csv(f)
        assert len(scans) >= 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "a,b\n"], ids=["empty", "header-only"])
    def test_no_rows_is_parse_error_without_warning(self, tmp_path, text):
        f = tmp_path / "none.csv"
        f.write_text(text)
        with pytest.raises(ParseError, match="no numeric rows"):
            read_matrix_csv(f)


class TestWriteMatrixCsv:
    @staticmethod
    def per_value_repr(matrix, header):
        lines = [",".join(header)] if header else []
        lines += [",".join(repr(float(v)) for v in row) for row in np.asarray(matrix)]
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("header", [None, ["a", "b", "c"]])
    @pytest.mark.parametrize("matrix", [
        [[-0.0, 5e-324, 1e16], [1e-5, 1.7976931348623157e308, 0.1]],
        np.arange(6, dtype=np.int64).reshape(2, 3),
    ], ids=["edge-floats", "integers"])
    def test_bytes_equal_per_value_repr(self, tmp_path, matrix, header):
        f = tmp_path / "out.csv"
        write_matrix_csv(np.asarray(matrix), f, header=header)
        assert f.read_bytes() == self.per_value_repr(matrix, header)


class TestLoadAdjacency:
    def test_negatives_zeroed_and_counted(self, tmp_path):
        f = tmp_path / "adj.csv"
        raw = np.array([[0.0, 0.5, -0.3], [0.5, 0.0, 1.0], [-0.3, 1.0, 0.0]])
        write_csv(f, raw.tolist())
        view, zeroed = load_adjacency(f)
        assert zeroed == int(np.count_nonzero(raw < 0))
        assert view.weights[0, 2] == 0.0

    def test_non_square_rejected(self, tmp_path):
        f = tmp_path / "rect.csv"
        write_csv(f, [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DimensionMismatch) as info:
            load_adjacency(f)
        assert str(info.value) == f"{f}: adjacency must be square, got (2, 3)"

    def test_asymmetry_warns(self, tmp_path):
        f = tmp_path / "asym.csv"
        write_csv(f, [[0.0, 1.0], [2.0, 0.0]])
        with pytest.warns(UserWarning):
            load_adjacency(f)


class TestManifestAndLoadViews:
    def make_family(self, tmp_path, n=4, m=3):
        rng = np.random.default_rng(1)
        entries = []
        for i in range(m):
            w = np.abs(rng.normal(size=(n, n)))
            w = 0.5 * (w + w.T)
            np.fill_diagonal(w, 0.0)
            name = f"v{i}.csv"
            write_csv(tmp_path / name, w.tolist())
            entries.append({"path": name, "type": "adjacency"})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(entries))
        return manifest

    def test_load_from_manifest(self, tmp_path):
        manifest = self.make_family(tmp_path, n=4, m=2)
        views, negatives = load_views(manifest)
        assert views.m == 2 and views.n == 4
        assert negatives == 0

    def test_negative_accounting_matches_independent_scan(self, tmp_path):
        raw = np.array([[0.0, -0.2, 0.4], [-0.2, 0.0, 0.9], [0.4, 0.9, 0.0]])
        write_csv(tmp_path / "one.csv", raw.tolist())
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"path": "one.csv", "type": "adjacency"}]))
        _, negatives = load_views(manifest)
        assert negatives == int(np.count_nonzero(raw < 0))

    def test_inconsistent_dimensions(self, tmp_path):
        write_csv(tmp_path / "a.csv", (np.ones((3, 3)) - np.eye(3)).tolist())
        write_csv(tmp_path / "b.csv", (np.ones((4, 4)) - np.eye(4)).tolist())
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"path": "a.csv", "type": "adjacency"},
            {"path": "b.csv", "type": "adjacency"},
        ]))
        with pytest.raises(DimensionMismatch):
            load_views(manifest)

    def test_timeseries_entries(self, tmp_path):
        rng = np.random.default_rng(2)
        write_csv(tmp_path / "ts.csv", rng.normal(size=(20, 5)).tolist())
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"path": "ts.csv", "type": "timeseries"}]))
        views, _ = load_views(manifest)
        assert views.n == 5

    def test_constant_column_surfaces(self, tmp_path):
        series = np.ones((10, 3))
        series[:, 0] = np.arange(10)
        series[:, 2] = np.arange(10) ** 2
        write_csv(tmp_path / "ts.csv", series.tolist())
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"path": "ts.csv", "type": "timeseries"}]))
        with pytest.raises(ZeroVarianceColumn, match="ts.csv") as info:
            load_views(manifest)
        assert info.value.index == 1
        assert str(info.value).count("ts.csv") == 1 and info.value.exit_code == 2

    @pytest.mark.parametrize("second, error", [
        (1.0, ZeroVarianceColumn), (float("nan"), ParseError),
    ], ids=["constant", "nan"])
    def test_column_errors_count_columns_from_one(self, tmp_path, second, error):
        series = np.column_stack([np.arange(5.0), np.ones(5), np.arange(5.0) ** 2])
        series[2, 1] = second
        write_csv(tmp_path / "ts.csv", series.tolist())
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"path": "ts.csv", "type": "timeseries"}]))
        with pytest.raises(error, match=r"column 2\b") as info:
            load_views(manifest)
        assert info.value.exit_code == 2

    @pytest.mark.parametrize("kind, rows, error, detail", [
        ("timeseries", [[1.0, 2.0, 3.0], [2.0, 1.0, 5.0]], DimensionError,
         "need at least 3 time points, got 2"),
        ("adjacency", [[0.0]], DimensionError, "graph needs at least 2 vertices"),
        ("adjacency", [[0.0, 1e308, 1e308], [1e308, 0.0, 1e308], [1e308, 1e308, 0.0]],
         InvalidWeights, "affinity matrix degrees overflow float64"),
    ], ids=["two-time-points", "one-vertex", "degree-overflow"])
    def test_view_error_names_its_file_once(self, tmp_path, kind, rows, error, detail):
        write_csv(tmp_path / "ok.csv", (np.ones((3, 3)) - np.eye(3)).tolist())
        write_csv(tmp_path / "bad.csv", rows)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"path": "ok.csv", "type": "adjacency"},
                                        {"path": "bad.csv", "type": kind}]))
        with pytest.raises(error) as info:
            load_views(manifest)
        assert str(info.value) == f"{tmp_path.resolve() / 'bad.csv'}: {detail}"
        assert info.value.exit_code == 2

    def test_isolated_vertex_named_with_file(self, tmp_path):
        from mvspectral import IsolatedVertex
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0  # vertex 2 has no edges
        write_csv(tmp_path / "iso.csv", w.tolist())
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"path": "iso.csv", "type": "adjacency"}]))
        with pytest.raises(IsolatedVertex, match="iso.csv") as info:
            load_views(manifest)
        assert info.value.index == 2

    def test_bad_manifest_type(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"path": "x.csv", "type": "parquet"}]))
        with pytest.raises(ParseError):
            read_manifest(manifest)

    def test_invalid_json_names_the_line(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('[\n  {"path": "a.csv"},,\n]\n')
        with pytest.raises(ParseError, match=r"manifest\.json:2: invalid JSON") as info:
            read_manifest(manifest)
        assert info.value.line == 2 and info.value.exit_code == 2

    @pytest.mark.parametrize("entry", [{"path": 5}, {"path": None}, {"type": "adjacency"},
                                       {"path": "a\x00b.csv"}, "a.csv"],
                             ids=["int", "null", "absent", "nul-char", "not-object"])
    def test_bad_entry_path_names_the_entry(self, tmp_path, entry):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"path": "ok.csv"}, entry]))
        with pytest.raises(ParseError, match="entry 1 "):
            read_manifest(manifest)

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[]")
        with pytest.raises(ParseError):
            read_manifest(manifest)


class TestRunReport:
    def test_json_sorted_and_deterministic(self):
        a = dump_json({"b": 1, "a": [1, 2]})
        b = dump_json({"a": [1, 2], "b": 1})
        assert a == b

    def test_arrays_serialize_like_their_lists(self):
        payload = {"m": np.arange(6.0).reshape(2, 3) / 7.0, "i": np.array([1, 2], dtype=np.int64)}
        plain = {"m": (np.arange(6.0).reshape(2, 3) / 7.0).tolist(), "i": [1, 2]}
        assert dump_json(payload) == dump_json(plain)
        assert dump_json(np.array(2.5)) == "2.5\n"

    def test_numpy_scalars_serialize_like_python_numbers(self):
        numpy_config = ExperimentConfig(k=np.int64(5), rng_seed=np.int64(3),
                                        group_sizes=(np.int64(4),))
        assert dump_json(numpy_config) == dump_json(
            ExperimentConfig(k=5, rng_seed=3, group_sizes=(4,)))
        assert dump_json({"x": np.float64(0.1)}) == dump_json({"x": 0.1})
