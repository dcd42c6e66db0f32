"""The health check flags runs that diverge without an error.

    python -m pytest bench/test_bench.py

Both known-bad configs finish in ``harness.run_seed`` without raising, so
only the benchmark's health check tells them from sound runs.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from feddiv import harness  # noqa: E402

from checks import health_problems  # noqa: E402
from workloads import workload_config  # noqa: E402

# The acceptance ablation's u=0 arm (lr 0.005) on the fedfd_a-small shapes.
U0_ARM = {"federation.lr": 0.005, "adapter.enabled": False,
          "diversify.distribution": "fixed", "diversify.value": 0.0}


def _problems(workload, seed, extra):
    cfg = workload_config(workload, seed, extra)
    return health_problems(harness.run_seed(cfg, seed), cfg["benchmark"]["classes"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_flags_u0_arm_with_non_finite_arrays():
    problems = _problems("fedfd_a-small", 0, U0_ARM)
    assert any("arrays non-finite" in p for p in problems), problems
    assert any("accuracy" in p for p in problems), problems


def test_flags_diverged_fedbn_with_finite_arrays():
    problems = _problems("fedbn-many-clients", 0, {"diversify.enabled": True})
    assert not any("non-finite" in p for p in problems), problems
    assert any("mean client loss" in p for p in problems), problems
    assert any("accuracy" in p for p in problems), problems


def test_passes_u0_arm_on_a_sound_seed():
    assert _problems("fedfd_a-small", 1, U0_ARM) == []
