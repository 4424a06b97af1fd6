"""One benchmark workload in its own process: set up, measure, check.

``run.py`` starts this script with the BLAS thread variables already set,
so numpy's and scipy's OpenBLAS builds come up with one thread; the script
confirms that through ctypes before it measures anything and again after,
and exits with code 3 if it cannot.  It imports mvspectral from
``<root>/src`` and from nowhere else.

A run repeats whole rounds of one fixed list of operations until
``--seconds`` have passed, and runs at least two rounds.  A fixed
reference kernel is timed right before and right after each timed
operation (``Reference``).  The outputs of the first round are checked
against the computations in ``oracles.py`` and against properties the
methods must have; every later round must reproduce them exactly.  All
checks run outside the timed calls.  The last line of standard output is
one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

import oracles
from tracing import PER_LAYER, Tracer, round_layer_metrics

EXIT_NOT_PINNED = 3
EXIT_WRONG_PACKAGE = 2

# aasc keeps every view weight at or above this documented floor.
AASC_WEIGHT_FLOOR = 1e-6

# Symbols through which an OpenBLAS build reports its thread count.
OPENBLAS_THREAD_QUERIES = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)

mv = None  # the mvspectral package, imported from <root>/src by main()


class NotPinned(RuntimeError):
    pass


def blas_threads() -> dict:
    """Thread count reported by every OpenBLAS build mapped into this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in os.path.basename(line.split()[-1]).lower()})
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in OPENBLAS_THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.argtypes = []
                query.restype = ctypes.c_int
                threads[os.path.basename(path)] = int(query())
                break
    return threads


def pinned_blas_threads() -> dict:
    """``blas_threads()``, or NotPinned unless every build reports one thread."""
    try:
        threads = blas_threads()
    except OSError as exc:
        raise NotPinned(f"cannot list the loaded BLAS libraries: {exc}") from exc
    if not threads:
        raise NotPinned("no OpenBLAS build that reports its thread count is loaded")
    if any(count != 1 for count in threads.values()):
        raise NotPinned(f"BLAS thread counts are {threads}, expected 1 each")
    return threads


def environment_record() -> dict:
    """Library versions, processors and BLAS pinning; raises NotPinned."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": pinned_blas_threads(),
        "blas_threads_pinned": True,
    }


class Reference:
    """A fixed numpy/scipy kernel that gauges the machine's current speed.

    On a shared machine the processor's speed swings by up to 1.6x in
    phases that last from seconds to minutes, so the wall time of a run
    depends on which phases it met.  Each timed operation is divided by the
    mean of this kernel's times right before and right after it, which
    cancels most of that.
    The kernel mixes what the workloads spend their time on: a dense
    symmetric eigensolve (LAPACK), many small array operations (the k-means
    and Jacobi loops) and parsing float tokens (the CSV reader).  Its
    inputs do not depend on the seed and it calls nothing in mvspectral,
    so no change to the program can move it.
    """

    def __init__(self):
        rng = np.random.default_rng(1611)
        a = rng.standard_normal((160, 160))
        self.spd = a @ a.T + 160.0 * np.eye(160)
        self.points = rng.standard_normal((116, 4))
        self.text = ",".join(repr(float(x)) for x in rng.standard_normal(4000))
        self.seconds = []
        self._kernel()  # first-call costs stay out of the samples

    def _kernel(self) -> float:
        smallest = scipy.linalg.eigh(self.spd, eigvals_only=True)[0]
        nearest = 0
        for _ in range(300):
            d2 = ((self.points[:, None, :] - self.points[None, :5, :]) ** 2).sum(axis=2)
            nearest += int(d2.argmin(axis=1)[0])
        return smallest + nearest + sum(float(t.strip()) for t in self.text.split(","))

    def sample(self) -> float:
        start = time.perf_counter()
        self._kernel()
        seconds = time.perf_counter() - start
        self.seconds.append(seconds)
        return seconds


class Op:
    __slots__ = ("name", "seconds", "reference_s", "ok", "output")

    def __init__(self, name, seconds, reference_s, ok, output):
        self.name, self.seconds, self.reference_s = name, seconds, reference_s
        self.ok, self.output = ok, output


class Recorder:
    """Collects the operations of one round, timing the ones that are timed."""

    def __init__(self, tracer: Tracer | None, reference: Reference, round_index: int):
        self.tracer = tracer
        self.reference = reference
        self.round_index = round_index
        self.ops = []

    def timed(self, name: str, fn, *args, **kwargs):
        before = self.reference.sample()
        frame = None
        if self.tracer is not None:
            frame = self.tracer.open(f"bench.{name}", op=f"r{self.round_index}.{name}")
        start = time.perf_counter()
        try:
            output = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            if frame is not None:
                self.tracer.close(frame)
        after = self.reference.sample()
        self.ops.append(Op(name, seconds, (before, after), True, output))
        return output

    def untimed(self, name: str, fn, *args):
        if self.tracer is not None:
            self.tracer.op = f"r{self.round_index}.{name}"
        ok, output = fn(*args)
        self.ops.append(Op(name, None, None, ok, output))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def run_cli(argv):
    """Run ``mvspectral.cli.main`` in-process as the console script would run.

    Returns (exit code, captured stderr).  An exception escaping ``main``
    ends the console script with a traceback and exit code 1, so that is
    what is recorded for it.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = mv.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # the failure under test; recorded, not raised
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


# ---------------------------------------------------------------- csv-cluster

class CsvCluster:
    """AAL-sized family (n=116, k=5, 128 views) through the CLI and CSV files.

    Inputs: 96 adjacency CSVs from the planted generator, half of them with
    a few symmetric negative entries written in, and 32 time-series CSVs
    (150 time points, a header row) whose regions follow one latent signal
    per community plus independent noise.
    """

    N, K, M_ADJ, M_TS, T = 116, 5, 96, 32, 150
    BAD_INPUT_SEED = 2
    # (label, expected exit code, pattern the stderr line must match)
    BAD_CALLS = (
        ("bad-token", 2, None),
        ("ragged-row", 2, None),
        ("missing-file", 2, None),
        ("nan-entry", 2, None),
        ("k-above-n", 4, re.compile(r"\bk\b")),
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        views, truth = mv.synth_views(mv.SyntheticSpec(
            n=self.N, k_true=self.K, m=self.M_ADJ, rng_seed=self.seed))
        self.truth = np.asarray(truth.assignment)
        rng = np.random.default_rng([self.seed, 1])
        data = self.workdir / "views"
        data.mkdir()
        upper = np.triu_indices(self.N, k=1)
        self.negatives = 0
        self.entries = []
        for i, view in enumerate(views.views):
            w = np.array(view.weights)
            if i % 2 == 0:
                picks = rng.choice(upper[0].size, size=int(rng.integers(1, 33)), replace=False)
                values = -rng.uniform(0.01, 0.5, size=picks.size)
                w[upper[0][picks], upper[1][picks]] = values
                w[upper[1][picks], upper[0][picks]] = values
                self.negatives += 2 * picks.size
            path = data / f"view_{i:03d}.csv"
            mv.io.write_matrix_csv(w, path)
            self.entries.append((path, "adjacency"))
        header = [f"roi{j:03d}" for j in range(self.N)]
        self.series_paths = []
        for i in range(self.M_TS):
            latent = rng.standard_normal((self.T, self.K))
            series = latent[:, self.truth - 1] + rng.standard_normal((self.T, self.N))
            path = data / f"subject_{i:03d}.csv"
            mv.io.write_matrix_csv(series, path, header=header)
            self.entries.append((path, "timeseries"))
            self.series_paths.append(path)
        self.manifest = data / "manifest.json"
        self.manifest.write_text(json.dumps(
            [{"path": p.name, "type": kind} for p, kind in self.entries]))
        self.output = self.workdir / "cluster.json"
        self.ingest_dir = self.workdir / "ingested"
        self.ingest_output = self.workdir / "ingest.json"
        self.bad_argv = self._write_bad_inputs()

    def _write_bad_inputs(self) -> dict:
        """Bad-input manifests over two fixed matrices, the same for every seed."""
        bad = self.workdir / "bad"
        bad.mkdir()
        rng = np.random.default_rng(self.BAD_INPUT_SEED)
        bases = []
        for i in range(2):
            a = rng.uniform(0.1, 1.0, size=(self.N, self.N))
            w = a + a.T
            np.fill_diagonal(w, 0.0)
            bases.append(bad / f"base_{i}.csv")
            mv.io.write_matrix_csv(w, bases[-1])
        rows = bases[0].read_text().splitlines()

        def with_rows(name: str, edit) -> Path:
            lines = [row.split(",") for row in rows]
            edit(lines)
            path = bad / name
            path.write_text("\n".join(",".join(t) for t in lines) + "\n")
            return path

        def set_nan(lines):
            lines[2][5] = lines[5][2] = "nan"

        def set_token(lines):
            lines[2][5] = "abc"

        def drop_last(lines):
            lines[2].pop()

        files = {
            "bad-token": [with_rows("token.csv", set_token)],
            "ragged-row": [with_rows("ragged.csv", drop_last)],
            "missing-file": [bad / "absent.csv"],
            "nan-entry": [with_rows("nan.csv", set_nan)],
            "k-above-n": bases,
        }
        argv = {}
        for label, paths in files.items():
            manifest = bad / f"{label}.json"
            manifest.write_text(json.dumps(
                [{"path": os.path.relpath(p, bad), "type": "adjacency"} for p in paths]))
            k = self.N + 1 if label == "k-above-n" else self.K
            argv[label] = ["cluster", "--manifest", str(manifest), "--method", "mvsc",
                           "--k", str(k), "--output", str(bad / "out.json")]
        return argv

    def _cluster(self):
        return mv.cli.main(["cluster", "--manifest", str(self.manifest), "--method", "mvscw",
                            "--k", str(self.K), "--seed", str(self.seed),
                            "--output", str(self.output)])

    def _ingest(self):
        return mv.cli.main(["ingest", *map(str, self.series_paths),
                            "--outdir", str(self.ingest_dir), "--output", str(self.ingest_output)])

    def _bad_call(self, label: str, expected: int, pattern):
        code, err = run_cli(self.bad_argv[label])
        lines = err.splitlines()
        ok = (code == expected and len(lines) == 1 and "Traceback" not in err
              and (pattern is None or pattern.search(lines[0]) is not None))
        return ok, (code, err)

    def round(self, rec: Recorder) -> None:
        self.output.unlink(missing_ok=True)
        code = rec.timed("cluster", self._cluster)
        report = json.loads(self.output.read_text()) if code == 0 else {}
        report.pop("embedding_seconds", None)
        rec.ops[-1].output = (code, report)
        shutil.rmtree(self.ingest_dir, ignore_errors=True)
        self.ingest_output.unlink(missing_ok=True)
        code = rec.timed("ingest", self._ingest)
        written = json.loads(self.ingest_output.read_text())["written"] if code == 0 else []
        rec.ops[-1].output = (code, written, digest(*(np.frombuffer(Path(p).read_bytes(), np.uint8)
                                                      for p in written)))
        for label, expected, pattern in self.BAD_CALLS:
            rec.untimed(label, self._bad_call, label, expected, pattern)

    @staticmethod
    def fingerprint(op: Op):
        if op.name == "cluster":
            return json.dumps(op.output, sort_keys=True)
        if op.name == "ingest":
            return op.output
        return op.ok, op.output[0]  # a traceback's text depends on the tracer

    def check(self, first: dict) -> list:
        errors = []
        code, report = first["cluster"]
        if code != 0:
            errors.append(f"cluster exited {code}")
            return errors
        loaded, _ = mv.load_views(self.manifest)
        graphs = []
        for (path, kind), view in zip(self.entries, loaded.views):
            if kind == "adjacency":
                ref = oracles.adjacency_graph(oracles.read_csv(path))
                close = np.allclose(view.weights, ref, rtol=1e-12, atol=0.0)
            else:
                ref = oracles.timeseries_graph(oracles.read_csv(path, header=True))
                close = np.allclose(view.weights, ref, rtol=1e-9, atol=1e-12)
            if not close:
                errors.append(f"{path.name}: loaded view differs from an independent parse")
            graphs.append(ref)
        if report["negative_entries_zeroed"] != self.negatives:
            errors.append(f"negative_entries_zeroed {report['negative_entries_zeroed']} "
                          f"!= {self.negatives} written")
        alpha = oracles.mvscw_weights(graphs, self.K)
        if not np.allclose(report["weights"], alpha, rtol=1e-8, atol=0.0):
            errors.append("mvscw weights differ from the normalized inverse eigenvalue sums")
        spectrum = oracles.generalized_spectrum(oracles.aggregate(graphs, alpha))[1:self.K]
        if not np.allclose(report["eigenvalues"], spectrum, rtol=1e-8, atol=1e-12):
            errors.append("reported eigenvalues differ from the aggregate's spectrum")
        score = oracles.dice(report["assignment"], self.truth, self.K)
        if score < 0.95:
            errors.append(f"cluster Dice against the planted truth is {score:.4f} < 0.95")
        code, written, _ = first["ingest"]
        if code != 0 or len(written) != self.M_TS:
            errors.append(f"ingest exited {code} and wrote {len(written)} files")
            return errors
        for source, target in zip(self.series_paths, written):
            expected = oracles.timeseries_graph(oracles.read_csv(source, header=True))
            if not np.allclose(oracles.read_csv(target), expected, rtol=1e-9, atol=1e-12):
                errors.append(f"{Path(target).name}: ingested adjacency differs from "
                              "max(0, atanh(clip(corr)))")
        return errors

    @staticmethod
    def breakdown(medians: dict, first: dict) -> dict:
        return {"cluster_s": (medians["cluster"], "s"), "ingest_s": (medians["ingest"], "s")}


# ---------------------------------------------------------------- consistency

class Consistency:
    """consistency_experiment in memory on a noisy planted family.

    n=116, k=5, m=64; within- and between-community weights both have
    standard deviation 2.0, so Dice falls below 1 at group size 4.  Each
    group size is its own call, so that no timed operation is long beside
    the swings in machine speed; a trial's seeds depend only on the master
    seed, its group size and its index, so the values are the same as from
    one call over all group sizes.
    """

    N, K, M, SD = 116, 5, 64, 2.0
    GROUP_SIZES, TRIALS, SEEDS = (4, 8, 16), 4, 100
    REBUILT = ((4, 0), (16, 3))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.views, _ = mv.synth_views(mv.SyntheticSpec(
            n=self.N, k_true=self.K, m=self.M, intra_sd=self.SD, inter_sd=self.SD,
            rng_seed=self.seed))
        self.views.stack
        self.views.degrees
        self.cfgs = {gamma: mv.ExperimentConfig(method="mvsc", k=self.K, group_sizes=(gamma,),
                                                trials=self.TRIALS, num_seeds=self.SEEDS,
                                                rng_seed=self.seed)
                     for gamma in self.GROUP_SIZES}

    def round(self, rec: Recorder) -> None:
        for gamma, cfg in self.cfgs.items():
            result = rec.timed(f"consistency_g{gamma}", mv.consistency_experiment,
                               self.views, cfg)
            rec.ops[-1].output = {int(g): list(v) for g, v in result.dice_values.items()}

    @staticmethod
    def fingerprint(op: Op):
        return op.output

    def _rebuild(self, gamma: int, trial: int) -> float:
        sample, seed_a, seed_b = np.random.SeedSequence([self.seed, gamma, trial]).spawn(3)
        order = np.random.default_rng(sample).permutation(self.M)
        labels = []
        for indices, child in ((order[:gamma], seed_a), (order[gamma:2 * gamma], seed_b)):
            subset = self.views.subset(indices.tolist())
            emb = mv.embed(subset, mv.mvsc_weights(gamma), self.K)
            base = int(child.generate_state(1)[0] % (2 ** 31))
            labels.append(mv.consensus_labelling(emb, self.K, num_seeds=self.SEEDS,
                                                 base_seed=base).assignment)
        return oracles.dice(labels[0], labels[1], self.K)

    def check(self, first: dict) -> list:
        errors = []
        values = {}
        for gamma in self.GROUP_SIZES:
            values.update(first[f"consistency_g{gamma}"])
        if sorted(values) != list(self.GROUP_SIZES):
            errors.append(f"group sizes {sorted(values)} != {list(self.GROUP_SIZES)}")
            return errors
        for gamma, samples in values.items():
            if len(samples) != self.TRIALS:
                errors.append(f"group size {gamma} has {len(samples)} samples")
            if not all(0.0 <= v <= 1.0 for v in samples):
                errors.append(f"group size {gamma} has Dice outside [0, 1]")
        for gamma, trial in self.REBUILT:
            rebuilt = self._rebuild(gamma, trial)
            if abs(rebuilt - values[gamma][trial]) > 1e-12:
                errors.append(f"trial ({gamma}, {trial}) rebuilt from its seed sequence "
                              f"gives Dice {rebuilt} != {values[gamma][trial]}")
        return errors

    def breakdown(self, medians: dict, first: dict) -> dict:
        seconds = sum(medians[f"consistency_g{gamma}"] for gamma in self.GROUP_SIZES)
        out = {"consistency_trials_per_s": (len(self.GROUP_SIZES) * self.TRIALS / seconds,
                                            "trials/s")}
        for gamma in self.GROUP_SIZES:
            samples = first[f"consistency_g{gamma}"][gamma]
            out[f"dice_median_g{gamma}"] = (statistics.median(samples), "Dice")
        return out


# ------------------------------------------------------------- spectral-large

def _fresh(views):
    """A new set over the same views: cold per-view cache, inputs materialized."""
    fresh = mv.MultiViewSet(views.views)
    fresh.stack
    fresh.degrees
    return fresh


class SpectralLarge:
    """Schaefer-400-sized family (n=400, k=8, m=32) in memory.

    Each embedding runs on a fresh MultiViewSet, as ``timing`` does, so
    mvscw pays for its 32 per-view eigensolves every time.
    """

    N, K, M, SD, K_MAX = 400, 8, 32, 0.6, 10
    METHODS = ("mvsc", "mvscw", "aasc")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.views, truth = mv.synth_views(mv.SyntheticSpec(
            n=self.N, k_true=self.K, m=self.M, intra_sd=self.SD, inter_sd=self.SD,
            rng_seed=self.seed))
        self.truth = np.asarray(truth.assignment)
        self.views.stack
        self.views.degrees

    def round(self, rec: Recorder) -> None:
        embeddings = {}
        for method in self.METHODS:
            fresh = _fresh(self.views)
            embeddings[method] = rec.timed(f"embed_{method}", mv.compute_embedding,
                                           fresh, method, self.K)
        rec.timed("eigengap", mv.eigengap_report, self.views, "mvsc", self.K_MAX)
        rec.timed("consensus", mv.consensus_labelling, embeddings["mvsc"][0], self.K,
                  100, self.seed)

    @staticmethod
    def fingerprint(op: Op):
        out = op.output
        if op.name.startswith("embed_"):
            emb, weights = out
            return digest(emb.coords, emb.eigenvalues, weights)
        if op.name == "eigengap":
            return (tuple(out.values), out.suggested_k)
        return digest(out.assignment)

    def check(self, first: dict) -> list:
        errors = []
        graphs = [np.asarray(v.weights) for v in self.views.views]
        for method in self.METHODS:
            emb, weights = first[f"embed_{method}"]
            weights = np.asarray(weights)
            if abs(weights.sum() - 1.0) > 1e-12 or weights.min() < 0.0:
                errors.append(f"{method}: weights are not on the simplex")
            w = oracles.aggregate(graphs, weights)
            residual, gram = oracles.eigen_residuals(w, np.asarray(emb.coords),
                                                     np.asarray(emb.eigenvalues))
            if residual > 1e-9 or gram > 1e-8:
                errors.append(f"{method}: ||LX - DXL||/||L|| = {residual:.2e}, "
                              f"max|X'DX - I| = {gram:.2e}")
            expected = oracles.generalized_spectrum(w, subset=[1, self.K - 1])
            if not np.allclose(emb.eigenvalues, expected, rtol=1e-8, atol=1e-12):
                errors.append(f"{method}: eigenvalues differ from scipy's subset solve")
        if not np.allclose(first["embed_mvsc"][1], 1.0 / self.M, rtol=1e-12, atol=0.0):
            errors.append("mvsc weights are not uniform")
        weights, emb, trace = mv.aasc_weights(_fresh(self.views), self.K)
        if digest(emb.coords, emb.eigenvalues, weights.alpha) != self.fingerprint(
                Op("embed_aasc", None, None, True, first["embed_aasc"])):
            errors.append("aasc_weights and compute_embedding('aasc') disagree")
        steps = np.diff(np.asarray(trace))
        if np.any(steps > 1e-12 * abs(trace[0])):
            errors.append(f"aasc objective trace increases by up to {steps.max():.3e}")
        if weights.alpha.min() < AASC_WEIGHT_FLOOR * (1 - 1e-9) or abs(weights.alpha.sum() - 1) > 1e-12:
            errors.append("aasc weights leave the simplex above the floor")
        if first["eigengap"].suggested_k != self.K:
            errors.append(f"eigengap suggests k={first['eigengap'].suggested_k}, "
                          f"planted k={self.K}")
        score = oracles.dice(first["consensus"].assignment, self.truth, self.K)
        if score < 0.95:
            errors.append(f"consensus Dice against the planted truth is {score:.4f} < 0.95")
        return errors

    @staticmethod
    def breakdown(medians: dict, first: dict) -> dict:
        out = {f"embed_{m}_s": (medians[f"embed_{m}"], "s") for m in SpectralLarge.METHODS}
        out["eigengap_s"] = (medians["eigengap"], "s")
        out["consensus_s"] = (medians["consensus"], "s")
        out["mvscw_over_mvsc"] = (medians["embed_mvscw"] / medians["embed_mvsc"], "ratio")
        out["aasc_over_mvscw"] = (medians["embed_aasc"] / medians["embed_mvscw"], "ratio")
        return out


# ----------------------------------------------------------------- jdl-sweeps

class JdlSweeps:
    """joint_diagonalize + jdl_embed on a small family (n=48, k=4, m=16).

    The three aggregation methods are embedded on the same family too, so
    the criterion-8 ordering mvsc < mvscw < aasc < jdl can be read off.
    """

    N, K, M, SD, MAX_SWEEPS = 48, 4, 16, 0.4, 100
    METHODS = ("mvsc", "mvscw", "aasc")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.views, truth = mv.synth_views(mv.SyntheticSpec(
            n=self.N, k_true=self.K, m=self.M, intra_sd=self.SD, inter_sd=self.SD,
            rng_seed=self.seed))
        self.truth = np.asarray(truth.assignment)

    def _jdl(self, views):
        jd = mv.joint_diagonalize(views)
        return jd, mv.jdl_embed(jd, views, self.K)

    def round(self, rec: Recorder) -> None:
        rec.timed("embed_jdl", self._jdl, _fresh(self.views))
        for method in self.METHODS:
            rec.timed(f"embed_{method}", mv.compute_embedding, _fresh(self.views),
                      method, self.K)

    @staticmethod
    def fingerprint(op: Op):
        if op.name == "embed_jdl":
            jd, emb = op.output
            return digest(jd.basis, jd.off_history, emb.coords)
        emb, weights = op.output
        return digest(emb.coords, emb.eigenvalues, weights)

    def check(self, first: dict) -> list:
        errors = []
        jd, emb = first["embed_jdl"]
        basis = np.asarray(jd.basis)
        drift = float(np.abs(basis.T @ basis - np.eye(self.N)).max())
        if drift > 1e-8:
            errors.append(f"jdl basis is not orthogonal: max|Q'Q - I| = {drift:.2e}")
        history = np.asarray(jd.off_history)
        if np.any(np.diff(history) > 1e-12 * history[0]):
            errors.append("jdl off_history increases")
        laplacians = [oracles.normalized_laplacian(np.asarray(v.weights))
                      for v in self.views.views]
        recomputed = oracles.off_cost(laplacians, basis)
        mass = sum(float((a * a).sum()) for a in laplacians)
        if abs(recomputed - history[-1]) > 1e-9 * mass:
            errors.append(f"off-cost {recomputed:.6e} from independent Laplacians != "
                          f"last history entry {history[-1]:.6e}")
        if not 1 <= jd.sweeps_run <= self.MAX_SWEEPS:
            errors.append(f"sweeps_run {jd.sweeps_run} outside 1..{self.MAX_SWEEPS}")
        labels = mv.consensus_labelling(emb, self.K, num_seeds=100, base_seed=self.seed)
        score = oracles.dice(labels.assignment, self.truth, self.K)
        if score < 0.95:
            errors.append(f"jdl Dice against the planted truth is {score:.4f} < 0.95")
        return errors

    @staticmethod
    def breakdown(medians: dict, first: dict) -> dict:
        out = {f"embed_{m}_s": (medians[f"embed_{m}"], "s")
               for m in ("jdl",) + JdlSweeps.METHODS}
        out["jdl_over_aasc"] = (medians["embed_jdl"] / medians["embed_aasc"], "ratio")
        out["jdl_over_mvsc"] = (medians["embed_jdl"] / medians["embed_mvsc"], "ratio")
        return out


WORKLOADS = {
    "csv-cluster": CsvCluster,
    "consistency": Consistency,
    "spectral-large": SpectralLarge,
    "jdl-sweeps": JdlSweeps,
}


# ---------------------------------------------------------------- measuring

def measure(workload, seconds: float, trace: bool) -> dict:
    """Run whole rounds for ``seconds``; check; summarize."""
    tracer = Tracer() if trace else None
    reference = Reference()
    rounds = []        # (traced, ops)
    layer_rounds = []  # per-layer figures of each traced round
    first = None
    errors = []
    deadline = time.monotonic() + seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 0
        rec = Recorder(tracer if traced else None, reference, len(rounds))
        if traced:
            tracer.reset_round()
            tracer.install()
        try:
            workload.round(rec)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer_rounds.append(round_layer_metrics(tracer))
        if first is None:
            first = rec.ops
        else:
            for a, b in zip(first, rec.ops):
                if workload.fingerprint(a) != workload.fingerprint(b):
                    errors.append(f"round {len(rounds)}: {b.name} output differs from round 0")
        rounds.append((traced, rec.ops))
        # A second round is the same-seed rerun check, and with tracing on
        # it is the untraced round the overhead is measured against.
        if time.monotonic() >= deadline and len(rounds) >= 2:
            break
    outputs = {op.name: op.output for op in first}
    errors.extend(workload.check(outputs))

    def round_s(ops):
        return sum(op.seconds for op in ops if op.seconds is not None)

    def round_rel(ops):
        return sum(op.seconds / statistics.fmean(op.reference_s)
                   for op in ops if op.seconds is not None)

    plain = [ops for traced, ops in rounds if not traced]
    plain_s = statistics.median(round_s(ops) for ops in plain)
    plain_rel = statistics.median(round_rel(ops) for ops in plain)
    reference_s = statistics.median(reference.seconds)
    names = [op.name for op in first if op.seconds is not None]
    medians = {name: statistics.median(op.seconds for ops in plain for op in ops
                                       if op.name == name) for name in names}
    summary = {
        "correct": not errors,
        "attempted": sum(len(ops) for _, ops in rounds),
        "failed": sum(not op.ok for _, ops in rounds for op in ops),
        "rounds": len(rounds),
        "round_seconds": [round_s(ops) for _, ops in rounds],
        "timed_ops": [[op.name, op.seconds, *op.reference_s] for _, ops in rounds for op in ops
                      if op.seconds is not None],
        "errors": errors,
        "failed_ops": sorted({op.name for _, ops in rounds for op in ops if not op.ok}),
        "breakdown": {k: {"value": v, "unit": u} for k, (v, u) in (
            ("round_s", (plain_s, "s")),
            ("reference_s", (reference_s, "s")),
            *workload.breakdown(medians, outputs).items())},
    }
    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        summary["metrics"] = {
            "round_rel": {"value": plain_rel, "unit": "ratio"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    else:
        # Traced minus untraced rounds, each measured against the reference
        # kernel so the machine's speed swings cancel, then turned back into
        # seconds at the run's median reference time.
        traced_rel = statistics.median(round_rel(ops) for t, ops in rounds if t)
        overhead_s = (traced_rel - plain_rel) * reference_s
        metrics = {name: {"value": statistics.median_low(r[name] for r in layer_rounds),
                          "unit": PER_LAYER[name][0]}
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
        summary["metrics"] = metrics
        summary["tracer"] = tracer
    return summary


def main(argv=None) -> int:
    global mv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--outdir", type=Path, required=True)
    args = parser.parse_args(argv)

    try:
        env = environment_record()
    except NotPinned as exc:
        print(f"workload: refusing to measure: {exc}", file=sys.stderr)
        return EXIT_NOT_PINNED
    package_dir = (args.root / "src" / "mvspectral").resolve()
    sys.path.insert(0, str(package_dir.parent))
    import mvspectral
    if Path(mvspectral.__file__).resolve().parent != package_dir:
        print(f"workload: imported mvspectral from {mvspectral.__file__}, "
              f"expected {package_dir}", file=sys.stderr)
        return EXIT_WRONG_PACKAGE
    import mvspectral.cli
    mv = mvspectral

    workdir = args.outdir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        ready = time.monotonic()
        if args.setup_only:
            summary = {}
        else:
            summary = measure(workload, args.seconds, bool(args.trace))
            # The package could have changed the thread count after import.
            pinned_blas_threads()
    except NotPinned as exc:
        print(f"workload: refusing to report: {exc}", file=sys.stderr)
        return EXIT_NOT_PINNED
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tracer = summary.pop("tracer", None)
    if tracer is not None:
        tracer.write_jsonl(args.outdir / f"trace-{args.workload}-seed{args.seed}.jsonl",
                           {"workload": args.workload, "seed": args.seed, "env": env})
    summary.update(ready=ready, env=env)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
