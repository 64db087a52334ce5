"""The benchmark builds each workload's config from configs/desk.json
(perfbench/workloads.py); a key the schema rejects makes every benchmark run
exit 2, so each workload config must load and build its domain."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from nehari_frac.config import load_config

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up there
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_loads_and_builds(tmp_path, name):
    desk = json.loads((ROOT / "configs" / "desk.json").read_text())
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(workloads.make_config(desk, name), indent=2))
    cfg = load_config(path)
    assert cfg.build_domain().n_interior == cfg.grid["m"] ** cfg.params.n
