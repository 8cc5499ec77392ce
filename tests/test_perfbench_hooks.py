"""The benchmark harness wraps conmoe functions by name; a renamed target
would silently zero its per-layer metric, so every target must resolve."""

import ast
import importlib.util
import sys
from pathlib import Path

import conmoe
from conmoe.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# deleted with the single MoE forward; its metric reads 0 until the harness drops it
KNOWN_MISSING = {"consolidated_moe_forward"}


def hooked_names():
    """The HOOKS literal of tracing.py, parsed from the file without
    running the harness."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "HOOKS" for t in node.targets):
            return {name for names in ast.literal_eval(node.value).values() for name in names}
    raise AssertionError(f"HOOKS not found in {TRACING}")


def resolves(name):
    target = conmoe
    for part in name.split("."):
        target = getattr(target, part, None)
    return callable(target)


def test_every_hook_target_resolves():
    names = hooked_names()
    assert "consolidate" in names
    assert {name for name in names if not resolves(name)} <= KNOWN_MISSING


def load_tracing():
    """perfbench/tracing.py as a module of its own name, so the harness's
    own tests, which import it as `tracing`, are not disturbed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_annotators_read_a_live_pipeline(tmp_path):
    """The harness records an annotator's AttributeError or KeyError in the
    span instead of failing, so a renamed field would silently zero its
    metric: run a small pipeline under the hooks and require every
    annotation to succeed."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    model, stats, plan = (tmp_path / name for name in ("m.mckpt", "s.json", "p.json"))
    restore, _ = tracing.install_hooks(tracer, conmoe)
    try:
        for argv in (
            f"gen --layers 2 --experts 8 --hidden 8 --inter 8 --topk 2 -o {model}",
            f"calibrate --model {model} --tokens 16 -o {stats}",
            f"consolidate --model {model} --stats {stats} --rho 0.5 --scope 2 -o {plan}",
            f"eval --model {model} --plan {plan} --tokens 4 -o {tmp_path / 'r.json'}",
            f"materialize --model {model} --plan {plan} -o {tmp_path / 'mat.mckpt'}",
            f"fuse --model {model} --plan {plan} --stats {stats} -o {tmp_path / 'fused.mckpt'}",
            f"merge --model {model} --stats {stats} --rho 0.5 --fused-model {tmp_path / 'merged.mckpt'} "
            f"-o {tmp_path / 'merge.json'}",
        ):
            assert main([*argv.split(), "-q"]) == 0
    finally:
        restore()
    names = {span.name for span in tracer.spans}
    assert {f"store.{op}_{artifact}" for op in ("read", "write")
            for artifact in ("checkpoint", "stats", "plan")} <= names
    # the CLI's derivations are the hooked names
    assert {"model.materialize", "baselines.fuse_weighted_average", "baselines.merge_msmoe"} <= names
    assert [span.attrs for span in tracer.spans if "annotate_error" in (span.attrs or {})] == []
    consolidated = [span for span in tracer.spans if span.name == "planner.consolidate"]
    # the consolidate command's plan, then merge's scope-1 plan
    assert [span.attrs for span in consolidated] == [{"prototypes": 8}, {"prototypes": 8}]
    assert conmoe.cli.consolidate is conmoe.planner.consolidate  # the hooks are gone
