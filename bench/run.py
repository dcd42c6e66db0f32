"""feddiv benchmark: one workload, timed end to end, or traced per layer.

    python3 bench/run.py --workload fedfd_a-small --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; it imports feddiv from ``src/``.
Before timing, it probes the workload's loss gradients. It then runs whole
experiments through ``harness.run_experiment`` until ``--seconds`` have
passed and checks every one of them. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
each round of the loop runs the experiment untraced and then traced, and
the metrics are the per-layer ones.
"""

from __future__ import annotations

import os

# One BLAS thread; numpy reads these when it is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
EXTRA_SETUPS = 5  # set-up-only runs before the timed experiments


def _import_program():
    """Put the checkout's ``src`` first on the path; refuse any other feddiv."""
    if not os.path.isfile(os.path.join(SRC, "feddiv", "__init__.py")):
        sys.exit(f"bench: no feddiv sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import feddiv

    if not os.path.abspath(feddiv.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported feddiv from {feddiv.__file__}, not from {SRC}")


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


class Run:
    """Runs and checks experiments, counting operations and problems."""

    def __init__(self, cfg: dict, seed: int, recorder):
        self.cfg, self.seed, self.recorder = cfg, seed, recorder
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_result = None

    def experiment(self, tag: str):
        """One checked experiment; returns its probes, or None if it raised."""
        import checks

        out_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            exp = self.recorder.run(self.cfg, out_dir)
        except Exception:  # a run that raises is one failed operation
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            shutil.rmtree(out_dir, ignore_errors=True)
            return None
        result = exp.result
        # An operation is one client local update or one held-out evaluation.
        self.attempted += len(exp.updates) + len(result["accuracies"])
        if checks.health_problems(result, self.cfg["benchmark"]["classes"]):
            self.failed += 1
        found = (checks.heldout_problems(exp, self.cfg, out_dir, self.seed)
                 + checks.aggregation_problems(exp, self.cfg)
                 + checks.work_problems(exp, self.cfg))
        if self.first_result is None:
            self.first_result = result
        else:
            found += checks.replay_problems(self.first_result, result)
        self.problems += [f"{tag}: {p}" for p in found]
        shutil.rmtree(out_dir, ignore_errors=True)
        exp.drop_arrays()
        return exp


def end_to_end_metrics(exps, setups: list[float]) -> dict[str, tuple[float, str]]:
    median = statistics.median
    updates = [u for e in exps for u in e.updates]
    update_time = sum(u.end - u.start for u in updates)
    evals = [ev for e in exps for ev in e.evals]
    return {
        "setup_s": (median(setups + [e.updates[0].start - e.enter for e in exps]), "s"),
        "run_s": (median(e.exit - e.enter for e in exps), "s"),
        "round_s": (median(s for e in exps for s in e.round_seconds()), "s"),
        "client_update_s": (median(u.end - u.start for u in updates), "s"),
        "train_samples_per_s": (sum(e.samples for e in exps) / update_time, "samples/s"),
        "eval_images_per_s": (sum(ev[2] for ev in evals) / sum(ev[1] - ev[0] for ev in evals),
                              "images/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    import checks
    from probes import Patcher, Recorder, Tracer, clock
    from workloads import workload_config

    cfg = workload_config(args.workload, args.seed)
    problems = [f"gradient probe: {p}" for p in checks.gradient_problems(cfg, args.seed)]

    os.makedirs(OUT, exist_ok=True)
    patcher = Patcher()
    recorder = Recorder()
    recorder.install(patcher)
    run = Run(cfg, args.seed, recorder)
    exps, traced, layer_metrics, setups = [], [], [], []
    start = clock()
    try:
        if not args.trace:  # each experiment sets up once too; these add samples
            setup_dir = os.path.join(OUT, f"{args.workload}-setup-{os.getpid()}")
            for _ in range(EXTRA_SETUPS):
                setups.append(recorder.setup(cfg, setup_dir))
            shutil.rmtree(setup_dir, ignore_errors=True)
        while True:
            exp = run.experiment(f"{args.workload}-untraced")
            if exp is None:
                break
            exps.append(exp)
            if args.trace:
                tracer = Tracer()
                trace_patcher = Patcher()
                tracer.install(trace_patcher)
                try:
                    texp = run.experiment(f"{args.workload}-traced")
                finally:
                    trace_patcher.restore()
                if texp is None:
                    break
                traced.append((texp.exit - texp.enter, tracer))
                layer_metrics.append(tracer.metrics())
            if clock() - start >= args.seconds:
                break
    finally:
        patcher.restore()
    problems += run.problems

    metrics = {}
    if args.trace and traced:
        metrics = {name: (statistics.median(m[name][0] for m in layer_metrics), unit)
                   for name, (_, unit) in layer_metrics[0].items()}
        untraced_s = statistics.median(e.exit - e.enter for e in exps)
        traced_s = statistics.median(t for t, _ in traced)
        metrics["trace.untraced_run_s"] = (untraced_s, "s")
        metrics["trace.traced_run_s"] = (traced_s, "s")
        metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
        traced[-1][1].save(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz"))
    elif not args.trace and exps:
        metrics = end_to_end_metrics(exps, setups)

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} experiments={len(exps)} "
          f"nproc={os.cpu_count()} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
