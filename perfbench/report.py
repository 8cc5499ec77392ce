"""`run.py --all`: run every workload in both modes, each as its own child
run (so peak RSS is per workload), print every metric by name and unit,
and write baseline.json, baseline.md and one span file (JSON Lines: a
header, then one span per line) per workload under perfbench/results/."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
RUN_TIMEOUT_S = 300


def run_one(name: str, seed: int, seconds: int, trace: int, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} --trace {trace} exited {proc.returncode}: {proc.stderr.strip()}")
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    return {**json.loads(lines[-1]), "detail": detail}


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4g}" if isinstance(value, float) else str(value)  # counts stay exact


def _table(workloads: dict, section: str) -> list[str]:
    names = list(workloads)
    first = workloads[names[0]][section]
    lines = [f"| metric | unit | {' | '.join(names)} |", "|---|---|" + "---|" * len(names)]
    for metric, entry in first.items():
        values = " | ".join(_fmt(workloads[n][section][metric]["value"]) for n in names)
        lines.append(f"| `{metric}` | {entry['unit']} | {values} |")
    return lines


def markdown(baseline: dict) -> str:
    w = baseline["workloads"]

    def e2e(name, metric):
        return w[name]["end_to_end"][metric]["value"]

    def layer(name, metric):
        return w[name]["per_layer"][metric]["value"]

    quick_commands = sum(op.timed for op in WORKLOADS["quickstart"].ops)
    pair_us = 1e6 / layer("pool-wide", "geometry.pairs_per_s")
    rows = [
        (f"README quick-start, {quick_commands} timed CLI commands end to end "
         "(`quickstart` `pipeline_s`)",
         f"{_fmt(e2e('quickstart', 'pipeline_s'))} s; {_fmt(layer('quickstart', 'cli.startup_s'))} s "
         "of each command is interpreter + NumPy import (`cli.startup_s`)"),
        ("8×64 experts, H=64, F=128: `consolidate`, one 512-expert scope "
         "(`pool-wide` `consolidate_s`)",
         f"{_fmt(e2e('pool-wide', 'consolidate_s'))} s; geometry spans cover "
         f"{layer('pool-wide', 'geometry.pass_share'):.0%} of the traced pass"),
        ("8×16 experts, H=64, F=128: `eval`, 512 tokens, two per-token traces "
         "(`token-heavy` `eval_s`)",
         f"{_fmt(e2e('token-heavy', 'eval_s'))} s; model + calibration spans cover "
         f"{layer('token-heavy', 'model.pass_share') + layer('token-heavy', 'calibration.pass_share'):.0%}"
         " of the traced pass"),
        ("8×64 experts, H=64, F=128: `cross_layer_nn` scope=2 (`pool-wide` `analysis.nn_s`)",
         f"{_fmt(layer('pool-wide', 'analysis.nn_s'))} s"),
        ("per expert pair (scalar path, H=64, F=128; `pool-wide` 1 / `geometry.pairs_per_s`)",
         f"{pair_us:.0f} µs"),
    ]
    env = baseline["env"]
    out = [
        "# conmoe benchmark results",
        "",
        f"Seed {baseline['seed']}, `--seconds {baseline['seconds']}`. Python {env['python']}, "
        f"NumPy {env['numpy']}, {env['blas']}, nproc {env['nproc']}, BLAS threads pinned to "
        f"{env['blas_threads']['OPENBLAS_NUM_THREADS']}; {env['platform']}.",
        "Regenerate with `python3 perfbench/run.py --all`.",
        "",
        "## Baseline table",
        "",
        "| what | measured |",
        "|---|---|",
        *(f"| {what} | {value} |" for what, value in rows),
        "",
        "## End-to-end metrics (medians over passes of child-process wall times, scaled to the "
        "reference CPU speed)",
        "",
        *_table(w, "end_to_end"),
        "",
        "## Per-layer metrics (one traced in-process pass)",
        "",
        *_table(w, "per_layer"),
        "",
        "## Failed operations",
        "",
    ]
    for name, entry in w.items():
        for mode in ("end_to_end_run", "traced_run"):
            run = entry[mode]
            out.append(f"- `{name}` {mode}: {run['failed']} of {run['attempted']} failed")
            out.extend(f"  - `{op}`: {error}" for op, error in run["failures"])
    return "\n".join(out) + "\n"


def run_all(seed: int, seconds: int) -> int:
    RESULTS.mkdir(exist_ok=True)
    workloads = {}
    env = None
    for name in WORKLOADS:
        e2e = run_one(name, seed, seconds, 0)
        traced = run_one(name, seed, seconds, 1, RESULTS / f"spans-{name}.jsonl")
        env = env or e2e["detail"]["env"]
        workloads[name] = {
            "end_to_end": e2e["metrics"],
            "per_layer": traced["metrics"],
            "end_to_end_run": {
                "correct": e2e["correct"], "attempted": e2e["attempted"], "failed": e2e["failed"],
                "failures": e2e["detail"]["failures"], "passes": len(e2e["detail"]["passes"])},
            "traced_run": {
                "correct": traced["correct"], "attempted": traced["attempted"],
                "failed": traced["failed"], "failures": traced["detail"]["failures"],
                "missing_hooks": traced["detail"]["missing_hooks"]},
        }
    baseline = {"seed": seed, "seconds": seconds, "env": env, "workloads": workloads}
    (RESULTS / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    text = markdown(baseline)
    (RESULTS / "baseline.md").write_text(text)
    print(text)
    return 0
