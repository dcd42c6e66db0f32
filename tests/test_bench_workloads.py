"""The benchmark's output checks pass on shrunken copies of its workloads.

``bench/`` drives the program from outside, through ``harness`` and probes
around ``federation``; a change that breaks what it relies on fails here,
not only when the benchmark runs. The data each workload trains on is
pinned by digest, so a change that alters it fails here too.
"""

import hashlib
import json
import pathlib

import pytest

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


# Added by bench/run.py from the untraced and traced run times, not by the tracer.
RUN_TRACE_METRICS = {"trace.untraced_run_s", "trace.traced_run_s", "trace.overhead"}


def test_every_workload_passes_the_checks_traced(monkeypatch, tmp_path):
    # The tracer wraps every public feddiv callable, SmallConvNet.forward by
    # its signature, so the traced run must pass the checks and yield every
    # per-layer metric the benchmark declares.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import checks
    import probes
    import workloads

    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"] for m in declared} - RUN_TRACE_METRICS
    problems = []
    for name in workloads.WORKLOADS:
        cfg = workloads.workload_config(name, 0, SHRINK)
        patcher, recorder, tracer = probes.Patcher(), probes.Recorder(), probes.Tracer()
        recorder.install(patcher)
        tracer.install(patcher)
        try:
            out_dir = str(tmp_path / name)
            exp = recorder.run(cfg, out_dir)
            found = (checks.heldout_problems(exp, cfg, out_dir, 0)
                     + checks.aggregation_problems(exp, cfg)
                     + checks.work_problems(exp, cfg))
        finally:
            patcher.restore()
        metrics = tracer.metrics()
        found += [f"metric {m} missing" for m in sorted(wanted - set(metrics))]
        if not metrics["layers.forward.train_batch.calls"][0] > 0:
            found.append("no traced forward")
        if not metrics["domains.partition.s"][0] > 0:
            found.append("no traced client split")
        problems += [f"{name}: {p}" for p in found]
    assert problems == []


class _Built(Exception):
    """Stops ``run_seed`` once its benchmark data exist."""


# sha256 of each workload's data at seeds 0 and 5. The seed-0 digests were
# recorded from the per-image generator that came before the vectorised one,
# the seed-5 ones from the generator that built the held-out set last and
# copied each client's arrays twice; every benchmark comparison between two
# revisions assumes both train on these exact bits.
# fedfd_a-small and fedavg-wide keep the default benchmark keys.
DATA_DIGESTS = {
    "fedfd_a-small": {
        0: "8ec9d0cb56a88ba4664e9cef2af1ddcdfb644327bb5e64f8abbb01bcd7e42bc1",
        5: "49827fbfc969c3009a088287402c6e190ef9a978469178568b533f9d9e58e31a",
    },
    "fedavg-wide": {
        0: "8ec9d0cb56a88ba4664e9cef2af1ddcdfb644327bb5e64f8abbb01bcd7e42bc1",
        5: "49827fbfc969c3009a088287402c6e190ef9a978469178568b533f9d9e58e31a",
    },
    "fedbn-many-clients": {
        0: "429b56260ee22c3f9d3877489033ebbba1b453a258308a0f48ce69b4ed9665ea",
        5: "0c09c742f0015b53445b95a627e1babd92ce91701f6cddbe32c102b6ebd90bd4",
    },
}


def test_workload_data_is_pinned(monkeypatch):
    # Covers every client's train and val images and labels, in client
    # order, and the held-out test set, each with its dtype and shape, as
    # harness.run_seed builds them.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads
    from feddiv import domains, harness

    built = []

    def capture(*args, **kwargs):
        built.append(domains.build_benchmark(*args, **kwargs))
        raise _Built

    monkeypatch.setattr(harness, "build_benchmark", capture)
    assert set(DATA_DIGESTS) == set(workloads.WORKLOADS)
    for name, by_seed in DATA_DIGESTS.items():
        for seed, digest in by_seed.items():
            with pytest.raises(_Built):
                harness.run_seed(workloads.workload_config(name, seed), seed)
            bench = built.pop()
            h = hashlib.sha256()
            datasets = [c[part] for c in bench.train_clients for part in ("train", "val")]
            for ds in datasets + [bench.test_set]:
                for arr in (ds.images, ds.labels):
                    h.update(f"{arr.dtype}{arr.shape}".encode())
                    h.update(arr.tobytes())
            assert h.hexdigest() == digest, (name, seed)
