"""tools/run_digest.py: equal runs give equal digests, and one ulp anywhere moves it."""

import copy
import importlib.util
import os
import sys

import numpy as np
import pytest

from feddiv.config import load_config
from feddiv.harness import run_seed

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                    "run_digest.py")

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
