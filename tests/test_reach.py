"""Every src/ function is entered by some command, or is named here with the
reason no command enters it.

The test runs constants, solve, both bubble-scan methods (the quadrature one
with --seed), seeded curves and project (on both solve states) through
cli.main under sys.setprofile, on the desk config at m = 6 at p = 2 and at the
p3_solve parameters, and compares the src/ functions never entered with
UNREACHED.  A function that joins that set needs a reason there; one that a
command starts to reach, or that is deleted, leaves it.
"""
import copy
import inspect
import json
import sys
import types
from pathlib import Path

import nehari_frac
from nehari_frac.cli import main

SRC = Path(nehari_frac.__file__).resolve().parent
DESK = json.loads((Path(__file__).resolve().parents[1] / "configs" / "desk.json").read_text())
P3_SOLVE = {"p": 3.0, "s": 0.1, "q": 2.5, "alpha": 30.0 / 17.0, "beta": 30.0 / 17.0}

SCALAR_TAIL = "desk_solve's scalar tail (perfbench/child.py) and acceptance criterion 8 run it"
UNREACHED = {
    "solver.solve_scalar_sublinear": SCALAR_TAIL,
    "solver.solve_scalar_sublinear.<locals>.evaluate": SCALAR_TAIL,
    "solver.solve_scalar_sublinear.<locals>.hess": SCALAR_TAIL,
    "solver._newton_cg": SCALAR_TAIL,
    "solver.semitrivial_tmax_check": SCALAR_TAIL,
    "grid.GridDomain.n_pairs": "perfbench's grid.pairs metric reads it",
    "cli.verify_output_dir": "perfbench re-checks each run's manifest with it",
    "config.describe_kind": "names the expected type in the ConfigError for a mistyped key",
    "config.RunConfig.where": "anchors the ConfigError for a bubble support that does not fit",
    "radial_quad._ellipe_complement": "the angular kernel calls it only at ps = 1",
}


def _defined_functions() -> dict:
    """Every function and method defined in src/, nested ones included, as
    (file, first line, name) -> 'module.qualified name'; lambdas,
    comprehensions and class bodies are left out."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), "")]
        while stack:
            code, qualname = stack.pop()
            is_function = bool(code.co_flags & inspect.CO_OPTIMIZED)
            if is_function and not code.co_name.startswith("<"):
                found[(path, code.co_firstlineno, code.co_name)] = f"{path.stem}.{qualname}"
            inner = "" if code.co_name == "<module>" else qualname + (".<locals>." if is_function else ".")
            stack += [(c, inner + c.co_name) for c in code.co_consts if isinstance(c, types.CodeType)]
    return found


def _entered(argvs) -> tuple:
    """Run cli.main on each argv under a profiler; returns the exit codes and
    the set of code objects entered."""
    codes, entered = [], set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in argvs:
            codes.append(main(argv))
    finally:
        sys.setprofile(previous)
    return codes, entered


def _runs(tmp_path, name, params):
    """Label -> argv of every command on the desk config at m = 6 with params
    updated; project reads the fields that the solve run writes."""
    cfg = copy.deepcopy(DESK)
    cfg["grid"]["m"] = 6
    cfg["params"].update(params)
    quad = copy.deepcopy(cfg)
    quad["bubble_scan"]["method"] = "quadrature"
    paths = {}
    for tag, doc in (("lattice", cfg), ("quadrature", quad)):
        paths[tag] = tmp_path / f"{name}_{tag}.json"
        paths[tag].write_text(json.dumps(doc))
    cfg_arg = ["--config", str(paths["lattice"]), "--quiet"]
    solved = tmp_path / name / "solve"
    argvs = {
        "constants": ["constants", *cfg_arg, "--out", str(tmp_path / name / "constants")],
        "solve": ["solve", *cfg_arg, "--out", str(solved)],
        "lattice scan": ["bubble-scan", *cfg_arg, "--out", str(tmp_path / name / "lattice")],
        # --seed as perfbench's quad_scan passes it
        "quadrature scan": ["bubble-scan", "--config", str(paths["quadrature"]), "--quiet", "--seed", "7",
                            "--out", str(tmp_path / name / "quadrature")],
        "curves": ["curves", *cfg_arg, "--out", str(tmp_path / name / "curves")],
    }
    for state in ("plus", "minus"):
        argvs[f"project {state}"] = [
            "project", *cfg_arg, "--out", str(tmp_path / name / f"project_{state}"),
            "--u", str(solved / f"solution_{state}_u.field"), "--v", str(solved / f"solution_{state}_v.field"),
        ]
    return {f"{name} {label}": argv for label, argv in argvs.items()}


def test_unreached_functions_are_the_named_ones(tmp_path):
    runs = {**_runs(tmp_path, "p2", {}), **_runs(tmp_path, "p3", P3_SOLVE)}
    codes, entered = _entered(runs.values())
    # the p = 3 quadrature scan's Richardson reference fails (ROADMAP item 8);
    # it is the only command path that raises ConvergenceError
    expected = {label: int(label == "p3 quadrature scan") for label in runs}
    assert dict(zip(runs, codes)) == expected
    reached = {(Path(c.co_filename).resolve(), c.co_firstlineno, c.co_name) for c in entered}
    unreached = {name for key, name in _defined_functions().items() if key not in reached}
    assert sorted(unreached - set(UNREACHED)) == [], "no command reaches these: name each with a reason"
    assert sorted(set(UNREACHED) - unreached) == [], "a command reaches these, or they are gone"
