"""The benchmark harness wraps conmoe functions by name; a renamed target
would silently zero its per-layer metric, so every target must resolve."""

import ast
from pathlib import Path

import conmoe

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
