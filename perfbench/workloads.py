"""The benchmark's workloads: one CLI command each, on a config derived from
configs/desk.json.

The two solves keep the desk config's seed (7) whatever the benchmark seed
is.  At m = 20 the solver seed moves the solve between 26 and 35 s (seeds
7-13 on a 2-core Xeon) and lands S_d in different near-degenerate basins, so
a seed-driven solve could neither be timed within the bounds nor gated
against one reference.  The quadrature scan takes the benchmark seed as its CLI
seed: the seed only reaches the m = 12 quotient solve (about 0.3 s), and
every gated scan output is independent of it.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    command: str
    why: str
    overrides: dict = field(default_factory=dict)
    scalar_tail: bool = False   # run the scalar sublinear tail after the CLI
    seeded: bool = False        # pass the benchmark seed on as the CLI seed


WORKLOADS = {
    "desk_solve": Workload(
        command="solve",
        why="the paper's headline two-branch solve at m=20 plus the scalar tail; kernel passes are ~88% of its time",
        overrides={"grid": {"m": 20}},
        scalar_tail=True,
    ),
    "p3_solve": Workload(
        command="solve",
        why="the same layers at p=3 (critical, s=0.1, q=2.5), m=20; a p=2-only fast path must leave it unchanged",
        overrides={
            "grid": {"m": 20},
            "params": {"p": 3.0, "s": 0.1, "q": 2.5, "alpha": 30.0 / 17.0, "beta": 30.0 / 17.0},
        },
    ),
    "quad_scan": Workload(
        command="bubble-scan",
        why="resolved-quadrature bubble scan at m=12; hyp2f1 kernel is ~95%, kernel passes ~1%",
        overrides={"bubble_scan": {"method": "quadrature"}},
        seeded=True,
    ),
}


def make_config(desk: dict, name: str) -> dict:
    """The workload's config: the desk config with its overrides applied."""
    cfg = copy.deepcopy(desk)
    for block, values in WORKLOADS[name].overrides.items():
        cfg[block].update(values)
    return cfg


def cli_args(name: str, seed: int) -> list:
    """CLI arguments that depend on the benchmark seed."""
    return ["--seed", str(seed)] if WORKLOADS[name].seeded else []
