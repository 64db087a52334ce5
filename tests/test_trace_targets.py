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


def _read_attributes(script, owner):
    """The names a perfbench script reads as owner.<name>."""
    tree = ast.parse((LAYERS.parent / script).read_text())
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == owner}


def test_every_name_perfbench_reads_outside_the_tracer_exists():
    """child.py runs the scalar tail through solver, make_reference.py forms the
    reference thresholds through constants and a config tolerance, and the
    build_grid hook of layers.py reads the domain's pair count."""
    from nehari_frac.config import RunConfig
    from nehari_frac.grid import GridDomain

    reads = {
        ("child.py", "solver"): {"solve_scalar_sublinear", "semitrivial_tmax_check"},
        ("child.py", "cli"): {"main", "verify_output_dir"},
        ("child.py", "config"): {"load_config", "RunConfig"},
        ("make_reference.py", "constants"): {"c0", "c_infty", "d0_bound", "QUOTIENT_FLAT_TOL"},
    }
    missing = []
    for (script, module), expected in reads.items():
        names = _read_attributes(script, module)
        assert expected <= names, f"{script} no longer reads {sorted(expected - names)} from {module}"
        mod = importlib.import_module(f"nehari_frac.{module}")
        missing += [f"{module}.{name}" for name in sorted(names) if not hasattr(mod, name)]
    assert missing == []
    assert "n_pairs" in _read_attributes("layers.py", "result")
    assert isinstance(GridDomain.n_pairs, property)
    assert "tolerance" in _read_attributes("make_reference.py", "cfg")
    assert callable(RunConfig.tolerance)
