"""tools/run_digest.py: equal runs give equal digests, one ulp anywhere moves it,
and each benchmark workload replays to its recorded digest."""

import copy
import importlib.util
import os
import sys

import numpy as np
import pytest

from feddiv.config import load_config
from feddiv.harness import run_seed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "run_digest.py")

TINY = [
    "benchmark.samples_per_client=30",
    "benchmark.test_samples=20",
    "benchmark.classes=3",
    "model.widths=[4]",
    "federation.rounds=2",
    "federation.iterations=2",
    "federation.batch_size=8",
    "adapter.enabled=true",
    "adapter.hidden_dim=4",
    "seeds=[3]",
]


def load_tool():
    path_before = list(sys.path)
    spec = importlib.util.spec_from_file_location("run_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert sys.path == path_before  # bench/ must not shadow test modules
    return tool


@pytest.fixture(scope="module")
def runs():
    cfg = load_config(None, TINY)
    return load_tool(), run_seed(cfg, 3), run_seed(cfg, 3)


def test_equal_runs_give_equal_digests(runs):
    tool, a, b = runs
    assert tool.run_digest(a) == tool.run_digest(b)


def up_one_ulp(x):
    return np.nextafter(x, np.inf)


def nudge_bundle(r):
    a = r["bundle"]["block0.conv.w"]
    a.flat[0] = up_one_ulp(a.flat[0])


def nudge_accuracy(r):
    r["ledger"][0]["accuracy"] = float(up_one_ulp(r["ledger"][0]["accuracy"]))


def nudge_global_stat(r):
    mu, var = r["global_stats"][0]
    var = var.copy()
    var[-1] = up_one_ulp(var[-1])
    r["global_stats"][0] = (mu, var)


def move_best_round(r):
    r["best_round"] += 1


@pytest.mark.parametrize("change", [nudge_bundle, nudge_accuracy, nudge_global_stat,
                                    move_best_round])
def test_any_change_moves_the_digest(runs, change):
    tool, a, _ = runs
    changed = copy.deepcopy(a)
    change(changed)
    assert tool.run_digest(changed) != tool.run_digest(a)


# ``python3 tools/run_digest.py --seeds 0``: the full runs of the benchmark's
# workloads, recorded when the tool was added and unchanged since.
WORKLOAD_DIGESTS = {
    "fedfd_a-small": "00453fd6070c3f35dac1274b1f95c188b2b91fd91ff1c64bc3869c7e1163532b",
    "fedavg-wide": "e73cb12d8d36f9f8378f342c0a9e6601242d7d5940ccf20a67b1a1561b9fccea",
    "fedbn-many-clients": "b956f9d7b20219cf93f4bc8b93a55cae9d564cc01ce26dbd4f6805df0612dc65",
}


def test_workloads_replay_their_recorded_digests(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import workloads

    tool = load_tool()
    assert set(WORKLOAD_DIGESTS) == set(workloads.WORKLOADS)
    got = {name: tool.run_digest(run_seed(workloads.workload_config(name, 0), 0))
           for name in WORKLOAD_DIGESTS}
    assert got == WORKLOAD_DIGESTS
