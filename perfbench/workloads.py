"""The benchmark's workloads. Each is a sequence of conmoe CLI commands a
user runs, plus the `gen` commands that set it up. Why each workload was
chosen is recorded in BENCHMARK.json.

Command strings are split on spaces first and each token is then filled
in, so paths with spaces survive. Fields: {setup} (directory of the
generated checkpoints), {out} (directory of one pass's artifacts), {seed}
(the workload seed), {cal_seed} and {eval_seed} (token seeds derived from
it).
"""

from __future__ import annotations

from dataclasses import dataclass

QUICKSTART_SHAPE = "--layers 8 --experts 16 --hidden 32 --inter 48 --topk 2"
POOL_WIDE_SHAPE = "--layers 8 --experts 64 --hidden 64 --inter 128 --topk 4"
TOKEN_HEAVY_SHAPE = "--layers 8 --experts 16 --hidden 64 --inter 128 --topk 4"


@dataclass(frozen=True)
class Op:
    """One CLI command. Untimed ops still count as attempted operations,
    but their wall time enters no metric."""

    name: str
    command: str
    timed: bool = True
    outputs: tuple[str, ...] = ()  # files under {out}; default: the -o and --fused-model targets

    def argv(self, fields: dict) -> list[str]:
        return [tok.format(**fields) for tok in self.command.split()]

    def output_paths(self, fields: dict) -> list[str]:
        if self.outputs:
            return [f"{fields['out']}/{name}" for name in self.outputs]
        argv = self.argv(fields)
        return [argv[i + 1] for i, tok in enumerate(argv[:-1]) if tok in ("-o", "--fused-model")]


@dataclass(frozen=True)
class Workload:
    name: str
    num_layers: int
    gens: tuple[Op, ...]  # set-up: write the checkpoints under {setup}
    ops: tuple[Op, ...]
    # (checkpoint under {setup}, plan under {out}, materialized checkpoint
    # under {out} or None to materialize in the harness)
    forward_check: tuple[str, str, str | None]
    # (duplicated checkpoint under {setup}, its plan and report under {out})
    dup_check: tuple[str, str, str] | None = None


QUICKSTART = Workload(
    name="quickstart",
    num_layers=8,
    gens=(
        Op("gen", f"gen {QUICKSTART_SHAPE} --seed {{seed}} -o {{setup}}/model.mckpt"),
        Op("gen.dup", f"gen {QUICKSTART_SHAPE} --dup within --seed {{seed}} -o {{setup}}/dup.mckpt"),
    ),
    ops=(
        Op("calibrate", "calibrate --model {setup}/model.mckpt --tokens 256 --seed {cal_seed} -o {out}/stats.json"),
        Op("consolidate", "consolidate --model {setup}/model.mckpt --stats {out}/stats.json --rho 0.5 --scope 1 --seed {seed} -o {out}/plan.json"),
        Op("eval", "eval --model {setup}/model.mckpt --plan {out}/plan.json --tokens 256 --seed {eval_seed} -o {out}/report.json"),
        Op("materialize", "materialize --model {setup}/model.mckpt --plan {out}/plan.json --seed {seed} -o {out}/reduced.mckpt"),
        Op("prune", "prune --model {setup}/model.mckpt --stats {out}/stats.json --method frequency --rho 0.5 --seed {seed} -o {out}/prune.plan.json"),
        Op("merge", "merge --model {setup}/model.mckpt --stats {out}/stats.json --rho 0.5 --seed {seed} -o {out}/merge.plan.json --fused-model {out}/merged.mckpt"),
        Op("fuse", "fuse --model {setup}/model.mckpt --plan {out}/plan.json --stats {out}/stats.json --seed {seed} -o {out}/fused.mckpt"),
        Op("analyze", "analyze nn --model {setup}/model.mckpt --scope 2 --seed {seed} -o {out}/",
           outputs=("nn_report.json", "nn_heatmap.csv", "nn_fractions.csv")),
        Op("sweep", "sweep --model {setup}/model.mckpt --stats {out}/stats.json --rho 0.25 --scopes 1,2,4 --tokens 64 --seed {eval_seed} -o {out}/sweep.json"),
        Op("dup.calibrate", "calibrate --model {setup}/dup.mckpt --tokens 256 --seed {cal_seed} -o {out}/dup.stats.json"),
        Op("dup.consolidate", "consolidate --model {setup}/dup.mckpt --stats {out}/dup.stats.json --rho 0.5 --scope 1 --seed {seed} -o {out}/dup.plan.json"),
        Op("dup.eval", "eval --model {setup}/dup.mckpt --plan {out}/dup.plan.json --tokens 256 --seed {eval_seed} -o {out}/dup.report.json"),
        # Known defects, attempted every pass and left untimed so that a fix
        # lowers the failure count without reading as a slowdown.
        # Adaptive ties pick both copies of a duplicate once the budget
        # exceeds the distinct experts of a scope.
        Op("dup.consolidate_scope2", "consolidate --model {setup}/dup.mckpt --stats {out}/dup.stats.json --rho 0.5 --scope 2 --seed {seed} -o {out}/dup2.plan.json", timed=False),
        # Every surviving top-k weight of some tokens underflows to 0.0.
        Op("eval_prune", "eval --model {setup}/model.mckpt --plan {out}/prune.plan.json --tokens 256 --seed {eval_seed} -o {out}/prune.report.json", timed=False),
    ),
    forward_check=("model.mckpt", "plan.json", "reduced.mckpt"),
    dup_check=("dup.mckpt", "dup.plan.json", "dup.report.json"),
)

POOL_WIDE = Workload(
    name="pool-wide",
    num_layers=8,
    gens=(Op("gen", f"gen {POOL_WIDE_SHAPE} --seed {{seed}} -o {{setup}}/model.mckpt"),),
    ops=(
        Op("calibrate", "calibrate --model {setup}/model.mckpt --tokens 32 --seed {cal_seed} -o {out}/stats.json"),
        Op("consolidate", "consolidate --model {setup}/model.mckpt --stats {out}/stats.json --rho 0.5 --scope 8 --seed {seed} -o {out}/plan.json"),
        Op("analyze", "analyze nn --model {setup}/model.mckpt --scope 2 --seed {seed} -o {out}/",
           outputs=("nn_report.json", "nn_heatmap.csv", "nn_fractions.csv")),
        Op("merge", "merge --model {setup}/model.mckpt --stats {out}/stats.json --rho 0.5 --seed {seed} -o {out}/merge.plan.json --fused-model {out}/merged.mckpt"),
        Op("materialize", "materialize --model {setup}/model.mckpt --plan {out}/plan.json --seed {seed} -o {out}/reduced.mckpt"),
        Op("eval", "eval --model {setup}/model.mckpt --plan {out}/plan.json --tokens 32 --seed {eval_seed} -o {out}/report.json"),
    ),
    forward_check=("model.mckpt", "plan.json", "reduced.mckpt"),
)

TOKEN_HEAVY = Workload(
    name="token-heavy",
    num_layers=8,
    gens=(Op("gen", f"gen {TOKEN_HEAVY_SHAPE} --seed {{seed}} -o {{setup}}/model.mckpt"),),
    ops=(
        Op("calibrate", "calibrate --model {setup}/model.mckpt --tokens 512 --seed {cal_seed} -o {out}/stats.json"),
        Op("consolidate", "consolidate --model {setup}/model.mckpt --stats {out}/stats.json --rho 0.5 --scope 2 --seed {seed} -o {out}/plan.json"),
        Op("prune", "prune --model {setup}/model.mckpt --stats {out}/stats.json --method reap --rho 0.5 --seed {seed} -o {out}/prune.plan.json"),
        Op("eval", "eval --model {setup}/model.mckpt --plan {out}/plan.json --tokens 512 --seed {eval_seed} -o {out}/report.json"),
        Op("sweep", "sweep --model {setup}/model.mckpt --stats {out}/stats.json --rho 0.25 --scopes 1,2 --tokens 128 --seed {eval_seed} -o {out}/sweep.json"),
        # Known defect, untimed: every surviving top-k weight of some tokens
        # underflows to 0.0 under the REAP pruning plan.
        Op("eval_prune", "eval --model {setup}/model.mckpt --plan {out}/prune.plan.json --tokens 512 --seed {eval_seed} -o {out}/prune.report.json", timed=False),
    ),
    forward_check=("model.mckpt", "plan.json", None),
)

WORKLOADS = {w.name: w for w in (QUICKSTART, POOL_WIDE, TOKEN_HEAVY)}


def fields(seed: int, setup: str, out: str | None = None) -> dict:
    return {"seed": seed, "cal_seed": seed + 1, "eval_seed": seed + 2, "setup": setup, "out": out}
