"""Print one sha256 per (workload, seed) over a finished ``harness.run_seed``.

    python3 tools/run_digest.py --seeds 0 5

Run from the root of a source checkout; it imports feddiv from ``src/`` and
takes each workload's config from ``bench/workloads.py``, which it only reads.
A digest covers the ledger, the held-out accuracies, the best round and its
score, the bytes of every best-bundle array and the best global statistics,
so two checkouts that print the same lines replayed the same bits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _add_array(h, name: str, a):
    h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
    h.update(a.tobytes())


def run_digest(result: dict) -> str:
    """sha256 of the parts of a ``run_seed`` result that must replay bit for bit."""
    h = hashlib.sha256()
    # json writes each float as its shortest round-tripping repr.
    h.update(json.dumps([result["ledger"], result["accuracies"], result["best_round"],
                         result["best_val_score"]], sort_keys=True).encode())
    for k in sorted(result["bundle"]):
        _add_array(h, k, result["bundle"][k])
    for i, (mu, var) in enumerate(result["global_stats"]):
        _add_array(h, f"global_mean{i}", mu)
        _add_array(h, f"global_var{i}", var)
    return h.hexdigest()


def main(argv=None):
    # Importing this module leaves sys.path alone; only a run needs the checkout.
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    from feddiv import harness
    from workloads import WORKLOADS, workload_config

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 5])
    p.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                   default=list(WORKLOADS))
    args = p.parse_args(argv)
    for name in args.workloads:
        for seed in args.seeds:
            result = harness.run_seed(workload_config(name, seed), seed)
            print(f"{name} seed {seed}: {run_digest(result)}", flush=True)


if __name__ == "__main__":
    main()
