"""Command-line pipeline: generate, calibrate, consolidate, prune, merge,
fuse, materialize, evaluate, analyze, sweep.

Exit codes: 0 success, 1 validation error or out of memory, 2 I/O error.
Plans, stats and reports record the --seed that produced them; a derived
checkpoint nests its source checkpoint's metadata whole, as model.derive
writes it. Reruns with identical inputs write byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import analysis, baselines, store
from .calibration import run_calibration
from .model import DupConfig, ModelSpec, gen_synthetic, gen_tokens, materialize
from .planner import SELECTION_POLICIES, ScopeConfig, consolidate

DEFAULT_SEED = 42


# every option that several subcommands read, declared once
OPTIONS = {
    "--model": {"required": True},
    "--stats": {"required": True},
    "--plan": {"required": True},
    "--rho": {"type": float, "required": True},
    "--tokens": {"type": int, "required": True},
}


def _options(*names) -> list[argparse.ArgumentParser]:
    """Parent parser: --seed, --output/-o, --quiet/-q, and the named OPTIONS."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--quiet", "-q", action="store_true")
    for name in names:
        p.add_argument(name, **OPTIONS[name])
    return [p]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conmoe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=_options(), help="generate a synthetic checkpoint")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--experts", type=int, required=True)
    p.add_argument("--hidden", type=int, required=True)
    p.add_argument("--inter", type=int, required=True)
    p.add_argument("--topk", type=int, required=True)
    p.add_argument("--dup", choices=["none", "within", "cross", "both"], default="none")
    p.add_argument("--dup-noise", type=float, default=0.0)

    sub.add_parser("calibrate", parents=_options("--model", "--tokens"),
                   help="collect routing statistics")

    p = sub.add_parser("consolidate", parents=_options("--model", "--stats", "--rho"),
                       help="build a prototype remapping plan")
    p.add_argument("--scope", type=int, default=1)
    p.add_argument("--policy", choices=list(SELECTION_POLICIES), default="adaptive")

    p = sub.add_parser("prune", parents=_options("--model", "--stats", "--rho"),
                       help="pruning baselines")
    p.add_argument("--method", choices=["frequency", "reap"], required=True)

    p = sub.add_parser("merge", parents=_options("--model", "--stats", "--rho"),
                       help="usage-weighted merging baseline")
    p.add_argument("--fused-model", required=True)

    about = "post-hoc weighted-average fusion of a remapping plan (uniform weights without --stats)"
    p = sub.add_parser("fuse", parents=_options("--model", "--plan"), help=about, description=about)
    p.add_argument("--stats")
    sub.add_parser("materialize", parents=_options("--model", "--plan"),
                   help="expand a remapping plan into a checkpoint (a pruning plan is refused)")
    sub.add_parser("eval", parents=_options("--model", "--plan", "--tokens"),
                   help="fidelity report for a plan")

    p = sub.add_parser("analyze", help="model analyses")
    asub = p.add_subparsers(dest="analysis", required=True)
    about = "cross-layer nearest-neighbor study; -o is an output path prefix"
    pn = asub.add_parser("nn", parents=_options("--model"), help=about, description=about)
    pn.add_argument("--scope", type=int, required=True)

    p = sub.add_parser("sweep", parents=_options("--model", "--stats", "--rho", "--tokens"),
                       help="fidelity across scope sizes at fixed rho")
    p.add_argument("--scopes", required=True, help="comma-separated scope sizes")

    return parser


def _run(args) -> None:
    if args.command == "gen":
        spec = ModelSpec(
            num_layers=args.layers,
            num_experts=args.experts,
            hidden_dim=args.hidden,
            intermediate_dim=args.inter,
            top_k=args.topk,
        )
        model, dup_map = gen_synthetic(spec, args.seed, DupConfig(args.dup, args.dup_noise))
        model.metadata = {
            "seed": args.seed,
            "dup_mode": args.dup,
            "dup_noise": args.dup_noise,
            "planted_duplicates": sorted(
                [[list(k), list(v)] for k, v in dup_map.items()]
            ),
        }
        store.write_checkpoint(model, args.output)
    else:
        model = store.read_checkpoint(args.model)
        stats = store.read_stats(args.stats) if getattr(args, "stats", None) else None
        plan = store.read_plan(args.plan) if getattr(args, "plan", None) else None

    if args.command == "calibrate":
        tokens = gen_tokens(args.tokens, model.spec.hidden_dim, args.seed)
        stats = run_calibration(model, tokens)
        stats.metadata = {"seed": args.seed}
        store.write_stats(stats, args.output)

    elif args.command == "consolidate":
        config = ScopeConfig(rho=args.rho, scope_size=args.scope, policy=args.policy)
        plan = consolidate(model, stats, config)
        plan.metadata["seed"] = args.seed
        store.write_plan(plan, args.output)

    elif args.command == "prune":
        fn = baselines.prune_frequency if args.method == "frequency" else baselines.prune_reap
        plan = fn(model, stats, args.rho)
        plan.metadata["seed"] = args.seed
        store.write_plan(plan, args.output)

    elif args.command == "merge":
        if Path(args.output).resolve() == Path(args.fused_model).resolve():
            raise ValueError("-o and --fused-model name the same file")
        plan, fused = baselines.merge_msmoe(model, stats, args.rho)
        plan.metadata["seed"] = args.seed
        # the checkpoint is the output that can be refused, and a refused one leaves no file
        store.write_checkpoint(fused, args.fused_model)
        store.write_plan(plan, args.output)

    elif args.command == "fuse":
        store.write_checkpoint(baselines.fuse_weighted_average(model, plan, stats), args.output)

    elif args.command == "materialize":
        store.write_checkpoint(materialize(model, plan), args.output)

    elif args.command == "eval":
        tokens = gen_tokens(args.tokens, model.spec.hidden_dim, [args.seed, 1])  # held out
        report = analysis.evaluate_fidelity(model, plan, tokens)
        report.metadata["seed"] = args.seed
        store.write_json(args.output, asdict(report))

    elif args.command == "analyze":
        report = analysis.cross_layer_nn(model, args.scope)
        analysis.dump_nn_csvs(
            report, f"{args.output}nn_heatmap.csv", f"{args.output}nn_fractions.csv"
        )
        store.write_json(f"{args.output}nn_report.json", asdict(report))

    elif args.command == "sweep":
        sizes = [int(s) for s in args.scopes.split(",") if s]
        if not sizes:
            raise ValueError("empty scope list")
        tokens = gen_tokens(args.tokens, model.spec.hidden_dim, [args.seed, 1])  # held out
        reports = analysis.scope_sweep(model, stats, args.rho, sizes, tokens)
        store.write_json(
            args.output,
            {
                "rho": args.rho,
                "seed": args.seed,
                "reports": [
                    {"scope_size": size, **asdict(rep)}
                    for size, rep in zip(sizes, reports)
                ],
            },
        )

    if not args.quiet:
        print(f"{args.command}: wrote {args.output}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        _run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
