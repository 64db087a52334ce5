"""The traced layers: which functions are wrapped and how their spans
become the per-layer metrics.

Time metrics ending in `_s` are self times (span duration minus traced
children) for the leaf layers, and inclusive times for the phase spans
(`grid.build_s`, `constants.S_s`, `solver.solve_two_s`, `solver.scalar_s`,
the two scans, `radial_quad.gagliardo_s`, `cli.output_s`).
"""
from __future__ import annotations

from tracer import Tracer, summarize, under

# (module, function, span name); several functions may share one span name
SPANS = (
    ("grid", "build_grid", "grid.build"),
    ("grid", "seminorm_p", "grid.seminorm"),
    ("grid", "plap_gradient", "grid.plap"),
    ("energy", "gradient_arrays", "energy.gradient"),
    ("energy", "constraint_gradient_arrays", "energy.gradient"),
    ("fibering", "project_triple", "fibering.project"),
    ("constants", "compute_S_coupled", "constants.S"),
    ("solver", "solve_two", "solver.solve_two"),
    ("solver", "minimize_on_branch", "solver.descent"),
    ("solver", "solve_scalar_sublinear", "solver.scalar"),
    ("solver", "semitrivial_tmax_check", "solver.scalar"),
    ("bubbles", "norm_estimate_scan", "bubbles.norm_scan"),
    ("bubbles", "sup_energy_scan", "bubbles.sup_scan"),
    ("radial_quad", "gagliardo_pow_quad", "radial_quad.gagliardo"),
    ("radial_quad", "angular_kernel", "radial_quad.kernel"),
    ("fieldio", "save_field", "cli.output"),
    ("cli", "_write_json", "cli.output"),
    ("cli", "_write_csv", "cli.output"),
    ("cli", "_write_manifest", "cli.output"),
    ("cli", "main", "cli.main"),
)
COUNTED = (("fibering", "phi_prime", "fibering.phi_prime_evals"),)

_KERNEL_ARRAYS = ("pair_i", "pair_j", "pair_w", "collar_w")

KERNEL = ("grid.seminorm_p", "grid.plap_gradient")
DESCENT = ("solver.minimize_on_branch",)

# name -> (unit, targets the value is built on)
METRICS = {
    "grid.build_s": ("s", ("grid.build_grid",)),
    "grid.pairs": ("count", ("grid.build_grid",)),
    "grid.seminorm_calls": ("count", ("grid.seminorm_p",)),
    "grid.seminorm_s": ("s", ("grid.seminorm_p",)),
    "grid.plap_calls": ("count", ("grid.plap_gradient",)),
    "grid.plap_s": ("s", ("grid.plap_gradient",)),
    "grid.kernel_bytes_computed": ("B", KERNEL),
    "energy.gradient_calls": ("count", ("energy.gradient_arrays", "energy.constraint_gradient_arrays")),
    "energy.gradient_s": ("s", ("energy.gradient_arrays", "energy.constraint_gradient_arrays")),
    "fibering.project_calls": ("count", ("fibering.project_triple",)),
    "fibering.project_s": ("s", ("fibering.project_triple",)),
    "fibering.phi_prime_evals": ("count", ("fibering.phi_prime",)),
    "constants.S_s": ("s", ("constants.compute_S_coupled",)),
    "constants.kernel_passes": ("count", ("constants.compute_S_coupled",) + KERNEL),
    "solver.solve_two_s": ("s", ("solver.solve_two",)),
    "solver.starts": ("count", DESCENT),
    "solver.branch_lost": ("count", DESCENT),
    "solver.iterations": ("count", DESCENT),
    "solver.converged_share": ("fraction", DESCENT),
    "solver.kernel_passes_per_iter": ("passes/iter", DESCENT + ("grid.plap_gradient",)),
    "solver.trials_per_iter": ("trials/iter", DESCENT + ("fibering.project_triple",)),
    "solver.scalar_s": ("s", ("solver.solve_scalar_sublinear", "solver.semitrivial_tmax_check")),
    "bubbles.norm_scan_s": ("s", ("bubbles.norm_estimate_scan",)),
    "bubbles.sup_scan_s": ("s", ("bubbles.sup_energy_scan",)),
    "radial_quad.gagliardo_calls": ("count", ("radial_quad.gagliardo_pow_quad",)),
    "radial_quad.gagliardo_s": ("s", ("radial_quad.gagliardo_pow_quad",)),
    "radial_quad.kernel_points": ("count", ("radial_quad.angular_kernel",)),
    "radial_quad.kernel_s": ("s", ("radial_quad.angular_kernel",)),
    "radial_quad.points_per_s": ("1/s", ("radial_quad.angular_kernel",)),
    "cli.output_s": ("s", ("fieldio.save_field", "cli._write_json", "cli._write_csv", "cli._write_manifest")),
}


def install(tracer: Tracer, state: dict) -> None:
    """Wrap every target of SPANS and COUNTED; state collects facts that
    spans do not carry (the grid's pair count)."""

    def kernel_bytes(extra_out):
        def on_return(args, kwargs, result):
            dom, u = args[0], args[1]
            arrays = [getattr(dom, name, None) for name in _KERNEL_ARRAYS]
            size = sum(a.nbytes for a in arrays if a is not None)
            size += 8 * int(getattr(dom, "n_interior", 0)) * (2 if extra_out else 1)
            tracer.count("grid.kernel_bytes_computed", size)
        return on_return

    def built(args, kwargs, result):
        state["pairs"] = int(result.n_pairs)

    def descended(args, kwargs, result):
        tracer.count("solver.iterations", int(result.iterations))
        tracer.count("solver.converged", 1 if result.converged else 0)

    def lost(exc):
        if type(exc).__name__ == "BranchLostError":
            tracer.count("solver.branch_lost")

    def kernel_points(args, kwargs, result):
        tracer.count("radial_quad.kernel_points", int(getattr(result, "size", 1)))

    hooks = {
        "build_grid": {"on_return": built},
        "seminorm_p": {"on_return": kernel_bytes(False)},
        "plap_gradient": {"on_return": kernel_bytes(True)},
        "minimize_on_branch": {"on_return": descended, "on_error": lost},
        "angular_kernel": {"on_return": kernel_points},
    }
    for module, attr, span in SPANS:
        kw = hooks.get(attr, {})
        tracer.wrap(module, attr, lambda fn, span=span, kw=kw: tracer.record(span, fn, **kw))
    for module, attr, counter in COUNTED:
        tracer.wrap(module, attr, lambda fn, counter=counter: tracer.counted(counter, fn))


def _ratio(num, den):
    return num / den if den else 0.0


def derive(tracer: Tracer, state: dict) -> dict:
    """Per-layer metrics {name: {"value", "unit"}} from the recorded spans.

    A metric built on a target that does not exist has value None and lists
    the missing targets under "absent"; layers that exist but did not run
    in this workload read 0."""
    tracer.collect()
    spans = tracer.spans
    summary = summarize(spans)
    counters = tracer.counters

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def count_under(name, ancestor):
        flags = under(spans, ancestor)
        return sum(1 for span, flag in zip(spans, flags) if flag and span[0] == name)

    starts = calls("solver.descent")
    succeeded = starts - counters["solver.branch_lost"]
    iterations = counters["solver.iterations"]
    kernel_s = self_s("radial_quad.kernel")
    values = {
        "grid.build_s": total_s("grid.build"),
        "grid.pairs": state.get("pairs", 0),
        "grid.seminorm_calls": calls("grid.seminorm"),
        "grid.seminorm_s": self_s("grid.seminorm"),
        "grid.plap_calls": calls("grid.plap"),
        "grid.plap_s": self_s("grid.plap"),
        "grid.kernel_bytes_computed": counters["grid.kernel_bytes_computed"],
        "energy.gradient_calls": calls("energy.gradient"),
        "energy.gradient_s": self_s("energy.gradient"),
        "fibering.project_calls": calls("fibering.project"),
        "fibering.project_s": self_s("fibering.project"),
        "fibering.phi_prime_evals": counters["fibering.phi_prime_evals"],
        "constants.S_s": total_s("constants.S"),
        "constants.kernel_passes": count_under("grid.seminorm", "constants.S")
        + count_under("grid.plap", "constants.S"),
        "solver.solve_two_s": total_s("solver.solve_two"),
        "solver.starts": starts,
        "solver.branch_lost": counters["solver.branch_lost"],
        "solver.iterations": iterations,
        "solver.converged_share": _ratio(counters["solver.converged"], succeeded),
        "solver.kernel_passes_per_iter": _ratio(count_under("grid.plap", "solver.descent"), iterations),
        "solver.trials_per_iter": _ratio(count_under("fibering.project", "solver.descent"), iterations),
        "solver.scalar_s": total_s("solver.scalar"),
        "bubbles.norm_scan_s": total_s("bubbles.norm_scan"),
        "bubbles.sup_scan_s": total_s("bubbles.sup_scan"),
        "radial_quad.gagliardo_calls": calls("radial_quad.gagliardo"),
        "radial_quad.gagliardo_s": total_s("radial_quad.gagliardo"),
        "radial_quad.kernel_points": counters["radial_quad.kernel_points"],
        "radial_quad.kernel_s": kernel_s,
        "radial_quad.points_per_s": _ratio(counters["radial_quad.kernel_points"], kernel_s),
        "cli.output_s": total_s("cli.output"),
    }
    missing = set(tracer.absent)
    out = {}
    for name, (unit, targets) in METRICS.items():
        gone = [t for t in targets if t in missing]
        if gone:
            out[name] = {"value": None, "unit": unit, "absent": gone}
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out
