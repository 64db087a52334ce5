"""The benchmark's tracer (perfbench/layers.py) wraps package functions by
module and name.  A target it cannot find turns the per-layer metrics built
on it null, so every target it names must exist in nehari_frac."""
import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _assigned(name):
    """The literal value assigned to name at the top level of layers.py."""
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{LAYERS} assigns no {name}")


def test_every_traced_target_exists():
    targets = [(module, attr) for module, attr, _ in _assigned("SPANS") + _assigned("COUNTED")]
    assert ("cli", "main") in targets and ("fibering", "phi_prime") in targets
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(f"nehari_frac.{module}"), attr, None))]
    assert missing == []
