"""Command-line interface.

Subcommands: ingest, synth, embed, cluster, eigengap, consistency, timing.
Results are emitted as deterministic JSON (sorted keys) to --output or
stdout.  Exit codes: 0 success, 2 input/parse error, 3 numerical failure,
4 configuration error.  Each subcommand accepts only the flags its handler
reads; any other flag, or an abbreviated one, is a usage error (exit 4).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import EXIT_CONFIG, InvalidSpec, MVSpectralError
from .experiments import (
    DEFAULT_GROUP_SIZES,
    METHODS,
    ExperimentConfig,
    compute_embedding,
    consistency_experiment,
    eigengap_report,
    run_pipeline,
    timing_experiment,
)
from .io import (
    TYPE_ADJACENCY,
    dump_json,
    load_timeseries,
    load_views,
    to_jsonable,
    write_matrix_csv,
)
from .synth import SyntheticSpec, synth_views


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors use the configuration exit code.

    Prefixes of long flags are not accepted, so a flag a subcommand does not
    take cannot be read as a longer one it does (``--k`` as ``--k-max``).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_pair(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected MEAN,SD, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MEAN,SD, got {text!r}")


def _emit(payload, output) -> None:
    text = dump_json(payload, output)
    if output is None:
        sys.stdout.write(text)


# Flags taken by more than one subcommand.
_SHARED_FLAGS = {
    "--k": dict(type=int, default=5, help="number of clusters"),
    "--method": dict(choices=METHODS, default="mvsc"),
    "--seed": dict(type=int, default=0, help="master RNG seed"),
    "--num-seeds": dict(type=int, default=100,
                        help="k-means restarts per consensus labelling"),
    "--trials": dict(type=int, help="repetitions (default: %(default)s)"),
    "--group-sizes": dict(type=_int_list, default=list(DEFAULT_GROUP_SIZES)),
    "--output": dict(type=Path, default=None, help="write JSON here instead of stdout"),
    "--row-normalize": dict(action="store_true",
                            help="normalize embedding rows before k-means"),
}

# Each subcommand takes the shared flags its handler reads and no others.
_SUBCOMMANDS = {
    "ingest": ("convert time-series CSVs to adjacency CSVs", ["--output"]),
    "synth": ("generate a planted-partition view family", ["--seed", "--output"]),
    "embed": ("compute a group-wise embedding", ["--method", "--k", "--output"]),
    "cluster": ("embed plus consensus k-means labelling",
                ["--method", "--k", "--seed", "--num-seeds", "--row-normalize", "--output"]),
    "eigengap": ("report the leading spectral values and gap ratios",
                 ["--method", "--output"]),
    "consistency": ("Dice agreement across disjoint view subsets", list(_SHARED_FLAGS)),
    "timing": ("embedding wall-clock benchmark",
               ["--k", "--trials", "--group-sizes", "--output"]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mvspectral",
                     description="Group-wise spectral clustering of multi-view graphs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parsers = {}
    for name, (help_text, shared) in _SUBCOMMANDS.items():
        p = parsers[name] = sub.add_parser(name, help=help_text)
        for flag in shared:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
    parsers["consistency"].set_defaults(trials=100)
    parsers["timing"].set_defaults(trials=3)

    p = parsers["ingest"]
    p.add_argument("inputs", nargs="+", type=Path)
    p.add_argument("--outdir", type=Path, required=True)

    p = parsers["synth"]
    p.add_argument("--n", type=int, default=116)
    p.add_argument("--k-true", type=int, default=5)
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--intra", type=_float_pair, default=(1.0, 0.2), metavar="MEAN,SD")
    p.add_argument("--inter", type=_float_pair, default=(0.2, 0.2), metavar="MEAN,SD")
    p.add_argument("--block-sizes", type=_int_list, default=None)
    p.add_argument("--outdir", type=Path, required=True)

    for name in ("embed", "cluster", "eigengap", "consistency", "timing"):
        parsers[name].add_argument("--manifest", type=Path, required=True)
    parsers["eigengap"].add_argument("--k-max", type=int, default=10)
    parsers["timing"].add_argument("--methods", default=",".join(METHODS),
                                   help="comma-separated method list")
    return parser


def _cmd_ingest(args) -> None:
    targets = [args.outdir / (source.stem + ".adj.csv") for source in args.inputs]
    repeated = sorted({t.name for t in targets if targets.count(t) > 1})
    if repeated:
        raise InvalidSpec(f"inputs would write the same file in {args.outdir}: "
                          f"{', '.join(repeated)}")
    # Every input is read before any output is written, so a bad input
    # leaves no partial output behind.
    views = [load_timeseries(source) for source in args.inputs]
    args.outdir.mkdir(parents=True, exist_ok=True)
    for view, target in zip(views, targets):
        write_matrix_csv(view.weights, target)
    _emit({"written": [str(t) for t in targets], "vertices": views[-1].n}, args.output)


def _cmd_synth(args) -> None:
    spec = SyntheticSpec(
        n=args.n, k_true=args.k_true, m=args.m,
        intra_mean=args.intra[0], intra_sd=args.intra[1],
        inter_mean=args.inter[0], inter_sd=args.inter[1],
        block_sizes=tuple(args.block_sizes) if args.block_sizes else (),
        rng_seed=args.seed,
    )
    views, truth = synth_views(spec)
    args.outdir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i, view in enumerate(views.views):
        name = f"view_{i:03d}.csv"
        write_matrix_csv(view.weights, args.outdir / name)
        manifest.append({"path": name, "type": TYPE_ADJACENCY})
    dump_json(manifest, args.outdir / "manifest.json")
    dump_json({"k_true": truth.k, "assignment": truth.assignment.tolist()},
              args.outdir / "truth.json")
    _emit({"outdir": str(args.outdir), "views": views.m, "n": views.n,
           "manifest": str(args.outdir / "manifest.json")}, args.output)


def _cmd_embed(args) -> None:
    views, negatives = load_views(args.manifest)
    emb, weights = compute_embedding(views, args.method, args.k)
    _emit({
        "method": args.method,
        "k": args.k,
        "eigenvalues": emb.eigenvalues,
        "coords": emb.coords,
        "weights": weights,
        "negative_entries_zeroed": negatives,
    }, args.output)


def _cmd_cluster(args) -> None:
    views, negatives = load_views(args.manifest)
    cfg = ExperimentConfig(method=args.method, k=args.k, num_seeds=args.num_seeds,
                           rng_seed=args.seed, row_normalize=args.row_normalize)
    run = run_pipeline(views, cfg)
    payload = to_jsonable(run)
    payload["negative_entries_zeroed"] = negatives
    _emit(payload, args.output)


def _cmd_eigengap(args) -> None:
    views, _ = load_views(args.manifest)
    _emit(eigengap_report(views, args.method, args.k_max), args.output)


def _cmd_consistency(args) -> None:
    views, _ = load_views(args.manifest)
    cfg = ExperimentConfig(
        method=args.method, k=args.k, group_sizes=tuple(args.group_sizes),
        trials=args.trials,
        num_seeds=args.num_seeds, rng_seed=args.seed,
        row_normalize=args.row_normalize,
    )
    _emit(consistency_experiment(views, cfg), args.output)


def _cmd_timing(args) -> None:
    views, _ = load_views(args.manifest)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    result = timing_experiment(views, methods, args.k, args.group_sizes, trials=args.trials)
    _emit(result, args.output)


_COMMANDS = {
    "ingest": _cmd_ingest,
    "synth": _cmd_synth,
    "embed": _cmd_embed,
    "cluster": _cmd_cluster,
    "eigengap": _cmd_eigengap,
    "consistency": _cmd_consistency,
    "timing": _cmd_timing,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except MVSpectralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
