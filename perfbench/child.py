"""One benchmark operation in a fresh process.

Usage: python3 perfbench/child.py '<json spec>'

mode "setup": import the CLI, load the config, build the grid, and write the
CLOCK_MONOTONIC time at which build_grid returned.
mode "run": run nehari_frac.cli.main on the spec's argv (traced when the
spec asks for it), re-check the output manifest, and for the solve workload
with a scalar tail solve the scalar sublinear problem for lambda and mu and
run the semitrivial t_max check on the same domain.  The result JSON goes to
spec["result"]; the exit code is the CLI's, or 1 when the tail fails.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def scalar_tail(cfg, dom) -> dict:
    from nehari_frac import solver

    params = cfg.params
    u1, e_lam = solver.solve_scalar_sublinear(params, dom, params.lam)
    w, e_mu = solver.solve_scalar_sublinear(params, dom, params.mu)
    deviation = solver.semitrivial_tmax_check(params, dom, u1, w)
    return {"scalar_energy_lam": e_lam, "scalar_energy_mu": e_mu, "semitrivial_deviation": deviation}


def main(spec: dict) -> int:
    sys.path.insert(0, spec["src"])
    result = {}
    if spec["mode"] == "setup":
        from nehari_frac import cli, config  # noqa: F401  (same imports as a CLI run)

        config.load_config(spec["config"]).build_domain()
        result["setup_done"] = time.monotonic()
        Path(spec["result"]).write_text(json.dumps(result))
        return 0

    import layers
    from tracer import Tracer, summarize

    from nehari_frac import cli, config
    from nehari_frac.errors import NehariFracError

    tracer, state = (Tracer(), {}) if spec["trace"] else (None, None)
    if tracer is not None:
        layers.install(tracer, state)

    domains = []
    build_domain = config.RunConfig.build_domain

    def keep_domain(self):
        domains.append(build_domain(self))
        return domains[-1]

    config.RunConfig.build_domain = keep_domain
    rc = cli.main(spec["argv"])
    result["verified"] = rc == 0 and cli.verify_output_dir(spec["out"])
    if rc == 0 and spec["tail"]:
        try:
            result["tail"] = scalar_tail(config.load_config(spec["config"]), domains[0])
        except NehariFracError as exc:
            print(f"scalar tail failed: {exc}", file=sys.stderr)
            rc = 1
    if tracer is not None:
        result["layers"] = layers.derive(tracer, state)
        result["spans"] = summarize(tracer.spans)
    Path(spec["result"]).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
