"""The benchmark's output checks pass on shrunken copies of its workloads.

``bench/`` drives the program from outside, through ``harness`` and probes
around ``federation``; a change that breaks what it relies on fails here,
not only when the benchmark runs.
"""

import pathlib

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"

# Few steps and a small held-out set: the checks, not the learning, are tested.
SHRINK = {"federation.iterations": 3, "federation.val_every": 2,
          "benchmark.test_samples": 60}


def test_every_workload_passes_the_checks(monkeypatch, tmp_path):
    # health_problems is left out: runs this short sit near chance.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import checks
    import probes
    import workloads

    problems = []
    for name in workloads.WORKLOADS:
        cfg = workloads.workload_config(name, 0, SHRINK)
        found = checks.gradient_problems(cfg, 0)
        patcher, recorder = probes.Patcher(), probes.Recorder()
        recorder.install(patcher)
        try:
            results = []
            for run in range(2):
                out_dir = str(tmp_path / f"{name}-{run}")
                exp = recorder.run(cfg, out_dir)
                found += (checks.heldout_problems(exp, cfg, out_dir, 0)
                          + checks.aggregation_problems(exp, cfg)
                          + checks.work_problems(exp, cfg))
                results.append(exp.result)
        finally:
            patcher.restore()
        found += checks.replay_problems(*results)
        problems += [f"{name}: {p}" for p in found]
    assert problems == []
