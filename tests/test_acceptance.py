"""Acceptance suite: one test per release criterion.

Each test prints a single ``[acceptance] criterion N (...): PASS|FAIL`` line
(visible with ``pytest -s`` or in captured output) and aggregates its checks
so a failure message lists every violated sub-check.  Criterion 8 measures
wall-clock behaviour and is the slow one; the whole module completes in
minutes.
"""

import itertools
import math

import numpy as np
import scipy.linalg
from scipy.stats import ortho_group

from mvspectral import (
    ExperimentConfig,
    Labelling,
    MultiViewSet,
    Partition,
    SyntheticSpec,
    ViewGraph,
    WeightVector,
    aasc_weights,
    aggregate,
    best_label_permutation,
    compute_embedding,
    consensus_labelling,
    consistency_experiment,
    cut_cost,
    degree,
    dice,
    eigengap_report,
    embed,
    generalized_eig,
    jdl_embed,
    joint_diagonalize,
    joint_diagonalize_matrices,
    laplacian,
    mvsc_weights,
    mvscw_weights,
    ncut_cost,
    off_cost,
    smallest_nontrivial,
    synth_views,
    timing_experiment,
    volume,
)


def _report(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def _random_graph(rng, n, lift=0.0):
    w = np.abs(rng.normal(size=(n, n))) + lift
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return ViewGraph.from_weights(w)


def _random_partition(rng, n, k):
    labels = rng.integers(1, k + 1, size=n)
    labels[:k] = np.arange(1, k + 1)
    return Partition(assignment=labels, k=k)


def _trace_ncut(g, p):
    x = p.indicator()
    d = degree(g)
    lap = np.diag(d) - g.weights
    return float(np.trace(x.T @ lap @ x @ np.linalg.inv(x.T @ np.diag(d) @ x)))


def test_criterion_1_cost_identities():
    rng = np.random.default_rng(101)
    failures = []
    for i in range(1000):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(2, min(n, 5) + 1))
        g = _random_graph(rng, n)
        p = _random_partition(rng, n, k)
        try:
            ratio = ncut_cost(g, p)
        except Exception:
            continue  # zero-volume draws are out of scope here
        trace = _trace_ncut(g, p)
        if not math.isclose(ratio, trace, rel_tol=1e-10, abs_tol=1e-12):
            failures.append(f"case {i}: ratio {ratio} != trace {trace}")

    for i in range(200):
        n = int(rng.integers(3, 10))
        views = [_random_graph(rng, n, lift=0.05) for _ in range(3)]
        alpha = rng.dirichlet(np.ones(3))
        agg = aggregate(MultiViewSet(views), WeightVector(alpha))
        combined = ViewGraph.from_weights(agg.weights)
        p = _random_partition(rng, n, 2)
        for cluster in (1, 2):
            lhs_cut = cut_cost(combined, p, cluster)
            rhs_cut = sum(a * cut_cost(v, p, cluster) for a, v in zip(alpha, views))
            if not math.isclose(lhs_cut, rhs_cut, rel_tol=1e-10, abs_tol=1e-12):
                failures.append(f"multiview cut case {i}")
            lhs_vol = volume(combined, p, cluster)
            rhs_vol = sum(a * volume(v, p, cluster) for a, v in zip(alpha, views))
            if not math.isclose(lhs_vol, rhs_vol, rel_tol=1e-10, abs_tol=1e-12):
                failures.append(f"multiview volume case {i}")
    _report(1, "cost identities", failures[:5])


def test_criterion_2_relaxation_lower_bounds_exhaustive_minimum():
    rng = np.random.default_rng(102)
    failures = []
    for i in range(100):
        n = int(rng.integers(4, 9))
        g = _random_graph(rng, n, lift=0.05)
        d = degree(g)
        lap = laplacian(g)
        sol = generalized_eig(g)
        emb = smallest_nontrivial(sol, 1)
        relaxed = float(emb.eigenvalues.sum())

        best = math.inf
        for mask in range(1, 2 ** (n - 1)):
            labels = np.ones(n, dtype=int)
            for v in range(1, n):
                if mask & (1 << (v - 1)):
                    labels[v] = 2
            best = min(best, ncut_cost(g, Partition(assignment=labels, k=2)))
        if relaxed > best + 1e-8 * max(1.0, best):
            failures.append(f"case {i}: relaxed {relaxed} exceeds minimum {best}")

        y = emb.coords
        trace = float(np.trace(
            y.T @ lap @ y @ np.linalg.inv(y.T @ (d[:, None] * y))
        ))
        if not math.isclose(trace, relaxed, rel_tol=1e-8, abs_tol=1e-12):
            failures.append(f"case {i}: trace identity off ({trace} vs {relaxed})")
    _report(2, "exhaustive-minimum lower bound", failures[:5])


def test_criterion_3_quality_weights():
    rng = np.random.default_rng(103)
    failures = []

    g = _random_graph(rng, 10, lift=0.05)
    w = mvscw_weights(MultiViewSet([g] * 5), k=3)
    if not np.allclose(w.alpha, 0.2, atol=1e-9):
        failures.append(f"identical views gave {w.alpha}")

    labels = np.repeat([1, 2, 3], 4)
    structured = np.where(labels[:, None] == labels[None, :], 1.0, 0.05)
    structured += rng.uniform(0, 0.02, size=(12, 12))
    structured = 0.5 * (structured + structured.T)
    np.fill_diagonal(structured, 0.0)
    view_a = ViewGraph.from_weights(structured)
    view_b = _random_graph(rng, 12, lift=0.05)
    k = 3
    sums = []
    for view in (view_a, view_b):
        d = degree(view)
        vals = scipy.linalg.eigh(np.diag(d) - view.weights, np.diag(d),
                                 eigvals_only=True)
        sums.append(float(np.sort(vals)[1:k].sum()))
    inv = 1.0 / np.asarray(sums)
    expected = inv / inv.sum()
    got = mvscw_weights(MultiViewSet([view_a, view_b]), k=k)
    if not np.allclose(got.alpha, expected, atol=1e-8):
        failures.append(f"two-view weights {got.alpha} != oracle {expected}")
    _report(3, "quality weights", failures)


def test_criterion_4_alternating_optimization_contract():
    rng = np.random.default_rng(104)
    failures = []
    for i in range(50):
        n = int(rng.integers(6, 12))
        m = int(rng.integers(2, 5))
        views = [_random_graph(rng, n, lift=0.05) for _ in range(m)]
        k = int(rng.integers(2, 5))
        _, _, trace = aasc_weights(MultiViewSet(views), k=k)
        diffs = np.diff(trace)
        if not np.all(diffs <= 1e-10 * max(trace[0], 1.0)):
            failures.append(f"set {i}: objective increased by {diffs.max()}")

    g = _random_graph(rng, 10, lift=0.05)
    set_ = MultiViewSet([g, g, g])
    _, _, trace = aasc_weights(set_, k=4)
    mvsc_cost = float(embed(set_, mvsc_weights(3), k=4).eigenvalues.sum())
    if not math.isclose(trace[-1], mvsc_cost, rel_tol=1e-8, abs_tol=1e-12):
        failures.append(f"identical views: {trace[-1]} vs mvsc {mvsc_cost}")
    _report(4, "alternating weight optimization", failures[:5])


def test_criterion_5_joint_diagonalization_contract():
    rng = np.random.default_rng(105)
    failures = []

    mats = []
    for _ in range(4):
        a = rng.normal(size=(10, 10))
        mats.append(a + a.T)
    jd = joint_diagonalize_matrices(mats, max_sweeps=60)
    if not np.all(np.diff(jd.off_history) <= 1e-10 * (1.0 + jd.off_history[0])):
        failures.append("off history not monotone")
    if np.abs(jd.basis.T @ jd.basis - np.eye(10)).max() > 1e-9:
        failures.append("basis drifted from orthogonality")

    shared = ortho_group.rvs(10, random_state=7)
    commuting = [shared @ np.diag(rng.normal(size=10)) @ shared.T for _ in range(4)]
    initial = off_cost(commuting, np.eye(10))
    jd_comm = joint_diagonalize_matrices(commuting)
    if off_cost(commuting, jd_comm.basis) > 1e-8 * initial:
        failures.append("commuting family not fully diagonalized")

    g = _random_graph(rng, 10, lift=0.05)
    single = MultiViewSet([g])
    jd_one = joint_diagonalize(single, tol=1e-14)
    inv_sqrt = 1.0 / np.sqrt(g.weights.sum(axis=1))
    s = np.eye(g.n) - inv_sqrt[:, None] * g.weights * inv_sqrt[None, :]
    values, vectors = scipy.linalg.eigh(s)
    gaps = np.diff(values)
    k = 4
    if gaps.min() < 1e-6:
        failures.append("test graph spectrum unexpectedly degenerate")
    emb = jdl_embed(jd_one, single, k)
    overlaps = np.linalg.svd(emb.coords.T @ vectors[:, 1:k], compute_uv=False)
    angle = float(np.arccos(np.clip(overlaps.min(), -1.0, 1.0)))
    if angle > 1e-6:
        failures.append(f"single-view subspace angle {angle}")

    base = off_cost(mats, jd.basis)
    k_split = 3
    increases = 0
    for trial in range(20):
        u = ortho_group.rvs(10 - k_split, random_state=300 + trial)
        rotated = np.array(jd.basis)
        rotated[:, k_split:] = rotated[:, k_split:] @ u
        if off_cost(mats, rotated) - base > 1e-10:
            increases += 1
    if increases < 1:
        failures.append("trailing-block rotations never changed the cost")
    _report(5, "joint diagonalization", failures)


PLANTED = SyntheticSpec(n=120, k_true=5, m=20, intra_mean=1.0, intra_sd=0.2,
                        inter_mean=0.2, inter_sd=0.2, rng_seed=42)


def test_criterion_6_planted_partition_recovery():
    failures = []
    views, truth = synth_views(PLANTED)
    truth_lab = Labelling(assignment=truth.assignment, k=truth.k)
    for method in ("mvsc", "mvscw", "aasc", "jdl"):
        emb, _ = compute_embedding(views, method, truth.k)
        lab = consensus_labelling(emb, truth.k, num_seeds=100, base_seed=0)
        score = dice(lab, truth_lab)
        if score < 0.95:
            failures.append(f"{method} recovered dice {score:.3f}")
    report = eigengap_report(views, "mvsc", k_max=10)
    if report.suggested_k != truth.k:
        failures.append(f"largest gap ratio at k={report.suggested_k}, expected {truth.k}")
    biggest = int(np.argmax(report.gap_ratios))
    if biggest != truth.k - 2:  # between the 4th and 5th nontrivial values
        failures.append(f"gap ratio peaked between values {biggest + 1} and {biggest + 2}")
    _report(6, "planted-partition recovery", failures)


def test_criterion_7_consistency_mechanics():
    failures = []
    spec = SyntheticSpec(n=120, k_true=5, m=40, intra_mean=1.0, intra_sd=0.2,
                         inter_mean=0.2, inter_sd=0.2, rng_seed=43)
    views, _ = synth_views(spec)
    for method in ("mvsc", "mvscw"):
        cfg = ExperimentConfig(method=method, k=5, group_sizes=(4, 8, 16),
                               trials=20, num_seeds=100, rng_seed=7)
        result = consistency_experiment(views, cfg)
        for gamma in (4, 8, 16):
            samples = result.dice_values[gamma]
            if len(samples) != 20:
                failures.append(f"{method} gamma={gamma}: {len(samples)} trials")
            med = float(np.median(samples))
            if med < 0.95:
                failures.append(f"{method} gamma={gamma}: median dice {med:.3f}")
        again = consistency_experiment(views, cfg)
        if result.dice_values != again.dice_values:
            failures.append(f"{method}: rerun with same seed differed")
    _report(7, "consistency mechanics", failures)


def test_criterion_8_timing_ordering():
    failures = []
    spec = SyntheticSpec(n=116, k_true=5, m=128, intra_mean=1.0, intra_sd=0.2,
                         inter_mean=0.2, inter_sd=0.2, rng_seed=44)
    views, _ = synth_views(spec)

    fast = timing_experiment(views, ["mvsc", "mvscw", "aasc"], k=8,
                             group_sizes=[16, 64], trials=10)
    slow = timing_experiment(views, ["jdl"], k=8, group_sizes=[16, 64], trials=1)
    means = {method: {m: fast.seconds[method][m]["mean"] for m in (16, 64)}
             for method in ("mvsc", "mvscw", "aasc")}
    means["jdl"] = {m: slow.seconds["jdl"][m]["mean"] for m in (16, 64)}
    for m in (16, 64):
        chain = [means[x][m] for x in ("mvsc", "mvscw", "aasc", "jdl")]
        if not (chain[0] < chain[1] < chain[2] < chain[3]):
            failures.append(f"m={m}: ordering violated {chain}")
        if means["jdl"][m] < 10.0 * means["mvsc"][m]:
            failures.append(
                f"m={m}: jdl/mvsc ratio {means['jdl'][m] / means['mvsc'][m]:.1f} < 10"
            )

    # Growth check: alternate the two cell sizes so slow machine-state drift
    # (frequency scaling, scheduler spikes) hits both pools alike, and take
    # per-cell minima since that noise only ever adds time.
    pools = {64: [], 128: []}
    for _ in range(15):
        for m in (64, 128):
            run = timing_experiment(views, ["mvsc"], k=8, group_sizes=[m], trials=1)
            pools[m].extend(run.seconds["mvsc"][m]["samples"])
    ratio = float(np.min(pools[128]) / np.min(pools[64]))
    if not 1.0 <= ratio <= 3.0:
        failures.append(f"doubling 64->128 scaled time by {ratio:.2f}, outside [1, 3]")
    margins = {f"{a}/{b}": {m: round(means[a][m] / means[b][m], 2) for m in (16, 64)}
               for a, b in (("mvscw", "mvsc"), ("aasc", "mvscw"), ("jdl", "aasc"), ("jdl", "mvsc"))}
    print(f"[acceptance] timing detail: means={ {k: {m: round(v, 4) for m, v in d.items()} for k, d in means.items()} } "
          f"margins={margins} doubling ratio={ratio:.2f}")
    _report(8, "timing ordering", failures)


def test_criterion_9_matching_and_dice_axioms():
    rng = np.random.default_rng(109)
    failures = []
    for i in range(500):
        k = int(rng.integers(2, 7))
        counts = rng.integers(0, 15, size=(k, k))
        perm, total = best_label_permutation(counts)
        best_perm, best_total = None, -1
        for cols in itertools.permutations(range(k)):
            value = int(counts[np.arange(k), list(cols)].sum())
            if value > best_total:
                best_total = value
                best_perm = np.asarray(cols) + 1
        if total != best_total or not np.array_equal(perm, best_perm):
            failures.append(f"table {i}: ({perm}, {total}) vs ({best_perm}, {best_total})")

    for i in range(100):
        n, k = 20, int(rng.integers(2, 5))
        a = rng.integers(1, k + 1, size=n)
        b = rng.integers(1, k + 1, size=n)
        if dice(a, b) != dice(b, a):
            failures.append(f"dice asymmetric on case {i}")
        if dice(a, a) != 1.0:
            failures.append(f"dice(a, a) != 1 on case {i}")
        relabel = rng.permutation(k) + 1
        if dice(relabel[a - 1], b) != dice(a, b):
            failures.append(f"dice not relabel-invariant on case {i}")
    _report(9, "matching and dice axioms", failures[:5])
