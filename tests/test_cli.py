import argparse
import json

import numpy as np
import pytest

from mvspectral import METHODS
from mvspectral.cli import _COMMANDS, build_parser, main


def run_cli(args):
    return main([str(a) for a in args])


def subcommands():
    action = next(action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction))
    return action.choices


def option_dests(parser):
    return {action.dest for action in parser._actions if action.dest != "help"}


@pytest.fixture()
def planted_dir(tmp_path):
    out = tmp_path / "family"
    code = run_cli(["synth", "--n", 30, "--k-true", 3, "--m", 6, "--seed", 4,
                    "--outdir", out, "--output", tmp_path / "synth.json"])
    assert code == 0
    return out


class TestSynthAndCluster:
    def test_synth_writes_family(self, planted_dir, tmp_path):
        manifest = planted_dir / "manifest.json"
        assert manifest.exists()
        entries = json.loads(manifest.read_text())
        assert len(entries) == 6
        truth = json.loads((planted_dir / "truth.json").read_text())
        assert truth["k_true"] == 3
        assert len(truth["assignment"]) == 30

    def test_cluster_recovers_planted_labels(self, planted_dir, tmp_path):
        out = tmp_path / "run.json"
        code = run_cli(["cluster", "--manifest", planted_dir / "manifest.json",
                        "--method", "mvsc", "--k", 3, "--num-seeds", 20,
                        "--seed", 0, "--output", out])
        assert code == 0
        report = json.loads(out.read_text())
        truth = json.loads((planted_dir / "truth.json").read_text())
        from mvspectral import Labelling, dice
        a = Labelling(assignment=np.array(report["assignment"]), k=3)
        b = Labelling(assignment=np.array(truth["assignment"]), k=3)
        assert dice(a, b) >= 0.95

    def test_byte_identical_reruns_excluding_timing(self, planted_dir, tmp_path):
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = run_cli(["cluster", "--manifest", planted_dir / "manifest.json",
                            "--method", "mvscw", "--k", 3, "--num-seeds", 10,
                            "--seed", 123, "--output", out])
            assert code == 0
            payload = json.loads(out.read_text())
            payload.pop("embedding_seconds")
            outputs.append(json.dumps(payload, sort_keys=True))
        assert outputs[0] == outputs[1]

    def test_embed_output_shape(self, planted_dir, tmp_path):
        out = tmp_path / "emb.json"
        code = run_cli(["embed", "--manifest", planted_dir / "manifest.json",
                        "--method", "aasc", "--k", 3, "--output", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["coords"]) == 30
        assert len(payload["coords"][0]) == 2
        assert len(payload["weights"]) == 6


class TestEigengapAndExperiments:
    def test_eigengap_suggests_true_k(self, planted_dir, tmp_path):
        out = tmp_path / "gap.json"
        code = run_cli(["eigengap", "--manifest", planted_dir / "manifest.json",
                        "--method", "mvsc", "--k-max", 8, "--output", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["suggested_k"] == 3

    def test_consistency_smoke(self, planted_dir, tmp_path):
        out = tmp_path / "cons.json"
        code = run_cli(["consistency", "--manifest", planted_dir / "manifest.json",
                        "--method", "mvsc", "--k", 3, "--group-sizes", "2,3",
                        "--trials", 2, "--num-seeds", 5, "--seed", 11,
                        "--output", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["dice_values"]) == {"2", "3"}
        assert all(len(v) == 2 for v in payload["dice_values"].values())

    def test_timing_smoke(self, planted_dir, tmp_path):
        out = tmp_path / "timing.json"
        code = run_cli(["timing", "--manifest", planted_dir / "manifest.json",
                        "--methods", "mvsc", "--k", 3, "--group-sizes", "2,4",
                        "--trials", 1, "--output", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["seconds"]["mvsc"]["2"]["mean"] > 0
        assert isinstance(payload["blas_threads_pinned"], bool)


class TestIngest:
    def test_timeseries_to_adjacency(self, tmp_path):
        rng = np.random.default_rng(1)
        ts = tmp_path / "subject.csv"
        ts.write_text("\n".join(
            ",".join(repr(float(v)) for v in row) for row in rng.normal(size=(25, 4))
        ) + "\n")
        outdir = tmp_path / "adj"
        code = run_cli(["ingest", ts, "--outdir", outdir,
                        "--output", tmp_path / "ingest.json"])
        assert code == 0
        payload = json.loads((tmp_path / "ingest.json").read_text())
        assert payload["vertices"] == 4
        target = outdir / "subject.adj.csv"
        assert target.exists()
        matrix = np.array([[float(v) for v in line.split(",")]
                           for line in target.read_text().splitlines()])
        assert matrix.shape == (4, 4)
        np.testing.assert_allclose(matrix, matrix.T)


class TestExitCodes:
    def test_missing_manifest_is_input_error(self, tmp_path, capsys):
        code = run_cli(["cluster", "--manifest", tmp_path / "nope.json",
                        "--method", "mvsc", "--k", 3])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys):
        # one disconnected view: two separate triangles
        w = np.zeros((6, 6))
        for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            w[a, b] = w[b, a] = 1.0
        view = tmp_path / "disc.csv"
        view.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in w) + "\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"path": "disc.csv", "type": "adjacency"}]))
        code = run_cli(["cluster", "--manifest", manifest, "--method", "mvsc", "--k", 2,
                        "--num-seeds", 3])
        assert code == 3

    def test_nan_entry_is_input_error(self, tmp_path, capsys):
        w = np.ones((4, 4))
        np.fill_diagonal(w, 0.0)
        rows = [[repr(float(v)) for v in row] for row in w]
        rows[1][2] = rows[2][1] = "nan"
        (tmp_path / "nan.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"path": "nan.csv", "type": "adjacency"}]))
        code = run_cli(["cluster", "--manifest", manifest, "--method", "mvsc", "--k", 2])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err and "nan.csv:2" in err

    @pytest.mark.parametrize("csv, manifest, expected", [
        (b"\xff\xfe\x00\x81,1\n1,0\n", b'[{"path": "v.csv"}]', "can't decode byte 0xff"),
        (b"", b'[{"path": "v.csv"}]', "v.csv: no numeric rows"),
        (b"a,b\n", b'[{"path": "v.csv"}]', "v.csv: no numeric rows"),
        (b"0,1\n1,0\n", b"\xff[]", "can't decode byte 0xff"),
        (b"0,1\n1,0\n", b'[{"path": 5}]', "entry 0 must be an object with a string 'path'"),
    ], ids=["undecodable-csv", "empty-csv", "header-only-csv", "undecodable-manifest",
            "int-path"])
    def test_bad_file_is_one_input_error_line(self, tmp_path, capsys, csv, manifest, expected):
        (tmp_path / "v.csv").write_bytes(csv)
        (tmp_path / "manifest.json").write_bytes(manifest)
        code = run_cli(["cluster", "--manifest", tmp_path / "manifest.json",
                        "--method", "mvsc", "--k", 2])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert expected in err

    def test_k_above_n_is_config_error(self, tmp_path, capsys):
        family = tmp_path / "n116"
        assert run_cli(["synth", "--n", 116, "--m", 2, "--outdir", family,
                        "--output", tmp_path / "synth.json"]) == 0
        code = run_cli(["cluster", "--manifest", family / "manifest.json",
                        "--method", "mvsc", "--k", 117])
        err = capsys.readouterr().err
        assert code == 4
        assert err.splitlines() == ["error: k=117 exceeds the n=116 vertices"]

    def test_method_choices_are_the_method_table(self):
        for name, sub in subcommands().items():
            if "method" in option_dests(sub):
                method = next(action for action in sub._actions if action.dest == "method")
                assert tuple(method.choices) == METHODS, name

    def test_bad_flag_is_config_error(self):
        with pytest.raises(SystemExit) as info:
            run_cli(["cluster", "--manifest", "x.json", "--method", "umap"])
        assert info.value.code == 4

    def test_insufficient_views_is_config_error(self, planted_dir, capsys):
        code = run_cli(["consistency", "--manifest", planted_dir / "manifest.json",
                        "--method", "mvsc", "--k", 3, "--group-sizes", "64",
                        "--trials", 1])
        assert code == 4

    @pytest.mark.parametrize("command, extra", [
        ("timing", ["--group-sizes", ","]),
        ("timing", ["--trials", 0]),
        ("timing", ["--group-sizes", -1]),
        ("consistency", ["--group-sizes", 0]),
    ], ids=["timing-no-sizes", "timing-zero-trials", "timing-negative-size",
            "consistency-zero-size"])
    def test_bad_size_is_config_error(self, command, extra, planted_dir, capsys):
        code = run_cli([command, "--manifest", planted_dir / "manifest.json", "--k", 3,
                        "--trials", 1, *extra])
        err = capsys.readouterr().err
        assert code == 4
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


# Each subcommand's settable values, every one of them read by its handler.
OPTION_DESTS = {
    "ingest": {"inputs", "outdir", "output"},
    "synth": {"n", "k_true", "m", "intra", "inter", "block_sizes", "outdir", "seed",
              "output"},
    "embed": {"manifest", "method", "k", "output"},
    "cluster": {"manifest", "method", "k", "seed", "num_seeds", "row_normalize", "output"},
    "eigengap": {"manifest", "method", "k_max", "output"},
    "consistency": {"manifest", "method", "k", "seed", "num_seeds", "trials",
                    "group_sizes", "row_normalize", "output"},
    "timing": {"manifest", "methods", "k", "trials", "group_sizes", "output"},
}


def valid_argv(command, family, tmp_path):
    """A call of ``command`` on the planted family that exits 0."""
    manifest = ["--manifest", family / "manifest.json"]
    out = ["--output", tmp_path / f"{command}.json"]
    if command == "ingest":
        series = tmp_path / "subject.csv"
        series.write_text("\n".join(
            ",".join(repr(float(v)) for v in row)
            for row in np.random.default_rng(2).normal(size=(12, 4))) + "\n")
        return ["ingest", series, "--outdir", tmp_path / "adj", *out]
    return {
        "synth": ["synth", "--n", 12, "--k-true", 2, "--m", 2, "--seed", 1,
                  "--outdir", tmp_path / "fam", *out],
        "embed": ["embed", *manifest, "--method", "mvsc", "--k", 3, *out],
        "cluster": ["cluster", *manifest, "--method", "mvsc", "--k", 3, "--seed", 2,
                    "--num-seeds", 3, "--row-normalize", *out],
        "eigengap": ["eigengap", *manifest, "--method", "mvsc", "--k-max", 4, *out],
        "consistency": ["consistency", *manifest, "--method", "mvsc", "--k", 3,
                        "--seed", 2, "--num-seeds", 3, "--trials", 1,
                        "--group-sizes", "2", "--row-normalize", *out],
        "timing": ["timing", *manifest, "--methods", "mvsc", "--k", 3, "--trials", 1,
                   "--group-sizes", "2", *out],
    }[command]


class _ReadTracker:
    """Stands in for the parsed namespace and records which values are read."""

    def __init__(self, values):
        self._values = values
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return self._values[name]


class TestSubcommandFlags:
    def test_option_dests(self):
        found = {name: option_dests(sub) for name, sub in subcommands().items()}
        assert found == OPTION_DESTS
        assert sum(len(dests) for dests in found.values()) == 42

    @pytest.mark.parametrize("command", sorted(OPTION_DESTS))
    def test_every_option_is_read(self, command, planted_dir, tmp_path):
        args = build_parser().parse_args([str(a) for a in valid_argv(command, planted_dir,
                                                                    tmp_path)])
        tracker = _ReadTracker(vars(args))
        _COMMANDS[command](tracker)
        assert tracker.read == OPTION_DESTS[command]

    @pytest.mark.parametrize("command, extra", [
        ("timing", ["--method", "mvsc"]),
        ("eigengap", ["--k", "3"]),
        ("synth", ["--k", "3"]),
        ("embed", ["--seed", "1"]),
        ("cluster", ["--trials", "2"]),
        ("ingest", ["--method", "mvsc"]),
        ("cluster", ["--num-s", "3"]),
        ("cluster", ["--row"]),
    ])
    def test_unread_or_abbreviated_flag_is_config_error(self, command, extra, planted_dir,
                                                        tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(valid_argv(command, planted_dir, tmp_path) + extra)
        assert info.value.code == 4
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err

    def test_trials_defaults(self):
        parser = build_parser()
        assert parser.parse_args(["consistency", "--manifest", "m.json"]).trials == 100
        assert parser.parse_args(["timing", "--manifest", "m.json"]).trials == 3
