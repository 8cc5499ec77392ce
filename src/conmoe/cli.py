"""Command-line pipeline: generate, calibrate, consolidate, prune, merge,
fuse, materialize, evaluate, analyze, sweep.

Exit codes: 0 success, 1 validation error, 2 I/O error. Every artifact
carries the seed that produced it, and reruns with identical inputs write
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys

from . import analysis, baselines, store
from .model import DupConfig, ModelSpec, gen_synthetic, gen_tokens, materialize
from .calibration import run_calibration
from .planner import SELECTION_POLICIES, ScopeConfig, consolidate

DEFAULT_SEED = 42


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--quiet", "-q", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conmoe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic checkpoint")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--experts", type=int, required=True)
    p.add_argument("--hidden", type=int, required=True)
    p.add_argument("--inter", type=int, required=True)
    p.add_argument("--topk", type=int, required=True)
    p.add_argument("--dup", choices=["none", "within", "cross", "both"], default="none")
    p.add_argument("--dup-noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", "-o", required=True)
    _add_common(p)

    p = sub.add_parser("calibrate", help="collect routing statistics")
    p.add_argument("--model", required=True)
    p.add_argument("--tokens", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", "-o", required=True)
    _add_common(p)

    p = sub.add_parser("consolidate", help="build a prototype remapping plan")
    p.add_argument("--model", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--scope", type=int, default=1)
    p.add_argument("--policy", choices=list(SELECTION_POLICIES), default="adaptive")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", "-o", required=True)
    _add_common(p)

    p = sub.add_parser("prune", help="pruning baselines")
    p.add_argument("--model", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--method", choices=["frequency", "reap"], required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", "-o", required=True)
    _add_common(p)

    p = sub.add_parser("merge", help="usage-weighted merging baseline")
    p.add_argument("--model", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--fused-model", required=True)
    _add_common(p)

    p = sub.add_parser("fuse", help="post-hoc fusion of a remapping plan")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--stats", default=None,
                   help="calibration stats for fusion weights; uniform if omitted")
    p.add_argument("--method", choices=["weighted-average"], default="weighted-average")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", "-o", required=True)
    _add_common(p)

    p = sub.add_parser("materialize", help="expand a plan into a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", "-o", required=True)
    _add_common(p)

    p = sub.add_parser("eval", help="fidelity report for a plan")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--tokens", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", "-o", required=True)
    _add_common(p)

    p = sub.add_parser("analyze", help="model analyses")
    asub = p.add_subparsers(dest="analysis", required=True)
    pn = asub.add_parser("nn", help="cross-layer nearest-neighbor study")
    pn.add_argument("--model", required=True)
    pn.add_argument("--scope", type=int, required=True)
    pn.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pn.add_argument("--output", "-o", required=True, help="output path prefix")
    _add_common(pn)

    p = sub.add_parser("sweep", help="fidelity across scope sizes at fixed rho")
    p.add_argument("--model", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--scopes", required=True, help="comma-separated scope sizes")
    p.add_argument("--tokens", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", "-o", required=True)
    _add_common(p)

    return parser


def _check_rho(rho: float):
    if not (0.0 <= rho < 1.0):
        raise ValueError("rho must be < 1 and >= 0")


def _write_json(path, obj):
    with open(path, "wb") as f:
        f.write(store.canonical_json(obj) + b"\n")


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

    elif args.command == "calibrate":
        model = store.read_checkpoint(args.model)
        tokens = gen_tokens(args.tokens, model.spec.hidden_dim, args.seed)
        stats = run_calibration(model, tokens)
        stats.metadata = {"seed": args.seed}
        store.write_stats(stats, args.output)

    elif args.command == "consolidate":
        _check_rho(args.rho)
        model = store.read_checkpoint(args.model)
        stats = store.read_stats(args.stats)
        config = ScopeConfig(
            rho=args.rho,
            scope_size=args.scope,
            policy=args.policy,
            eps=args.eps,
        )
        plan = consolidate(model, stats, config)
        plan.metadata["seed"] = args.seed
        store.write_plan(plan, args.output)

    elif args.command == "prune":
        _check_rho(args.rho)
        model = store.read_checkpoint(args.model)
        stats = store.read_stats(args.stats)
        fn = baselines.prune_frequency if args.method == "frequency" else baselines.prune_reap
        plan = fn(model, stats, args.rho)
        plan.metadata["seed"] = args.seed
        store.write_plan(plan, args.output)

    elif args.command == "merge":
        _check_rho(args.rho)
        model = store.read_checkpoint(args.model)
        stats = store.read_stats(args.stats)
        plan, fused = baselines.merge_msmoe(model, stats, args.rho, eps=args.eps)
        plan.metadata["seed"] = args.seed
        store.write_plan(plan, args.output)
        fused.base.metadata["provenance"] = _provenance_json(fused)
        store.write_checkpoint(fused.base, args.fused_model)

    elif args.command == "fuse":
        model = store.read_checkpoint(args.model)
        plan = store.read_plan(args.plan)
        fused = baselines.fuse_weighted_average(model, plan, _load_stats_for_fuse(args, model))
        fused.base.metadata["provenance"] = _provenance_json(fused)
        store.write_checkpoint(fused.base, args.output)

    elif args.command == "materialize":
        model = store.read_checkpoint(args.model)
        plan = store.read_plan(args.plan)
        store.write_checkpoint(materialize(model, plan), args.output)

    elif args.command == "eval":
        model = store.read_checkpoint(args.model)
        plan = store.read_plan(args.plan)
        tokens = gen_tokens(args.tokens, model.spec.hidden_dim, args.seed)
        report = analysis.evaluate_fidelity(model, plan, tokens, args.eps)
        report.metadata["seed"] = args.seed
        _write_json(args.output, report.to_dict())

    elif args.command == "analyze":
        model = store.read_checkpoint(args.model)
        report = analysis.cross_layer_nn(model, args.scope, args.eps)
        analysis.dump_nn_csvs(
            report, f"{args.output}nn_heatmap.csv", f"{args.output}nn_fractions.csv"
        )
        _write_json(f"{args.output}nn_report.json", report.to_dict())

    elif args.command == "sweep":
        _check_rho(args.rho)
        model = store.read_checkpoint(args.model)
        stats = store.read_stats(args.stats)
        sizes = [int(s) for s in args.scopes.split(",") if s]
        if not sizes:
            raise ValueError("empty scope list")
        tokens = gen_tokens(args.tokens, model.spec.hidden_dim, args.seed)
        config = ScopeConfig(rho=args.rho, eps=args.eps)
        reports = analysis.scope_sweep(model, stats, args.rho, sizes, tokens, config)
        _write_json(
            args.output,
            {
                "rho": args.rho,
                "seed": args.seed,
                "reports": [
                    {"scope_size": size, **rep.to_dict()}
                    for size, rep in zip(sizes, reports)
                ],
            },
        )

    else:  # pragma: no cover
        raise ValueError(f"unknown command: {args.command}")

    if not args.quiet:
        print(f"{args.command}: wrote {args.output}")


def _provenance_json(fused) -> list:
    return sorted(
        [[list(slot), [[list(src), w] for src, w in sources]]
         for slot, sources in fused.provenance.items()]
    )


def _load_stats_for_fuse(args, model):
    # fusion weights come from the plan's calibration stats file if given;
    # otherwise fall back to uniform weights via empty counts
    from .calibration import CalibStats, ExpertStats

    path = getattr(args, "stats", None)
    if path:
        return store.read_stats(path)
    return CalibStats(
        token_total=0,
        top_k=model.spec.top_k,
        records={ref: ExpertStats() for ref in model.slots()},
    )


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
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
