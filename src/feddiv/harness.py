"""Experiment runner: build benchmark, run federation, evaluate, report."""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import os
import time

import numpy as np

from . import checkpoint as ckpt
from .adapter import make_adapters
from .config import benchmark_hash, config_hash, parse
from .domains import build_benchmark
from .errors import ConfigError, InputError
from .federation import (INFERENCE_MODES, ClientState, ServerState, evaluate_net, extract_bundle,
                         load_bundle, run_federation)
from .layers import SmallConvNet

log = logging.getLogger(__name__)

REPORT_SCHEMA_VERSION = 1


def run_seed(cfg: dict, seed: int) -> dict:
    """One full federated run for a single seed; returns metrics and artifacts."""
    tree = parse(cfg)
    bench = build_benchmark(tree.benchmark, seed)

    # One network per run: the server's initial bundle, every client's
    # training and every evaluation use it.
    net = SmallConvNet(tree.model.in_channels, tuple(tree.model.widths),
                       tree.benchmark.classes, seed=seed)
    adapters = (make_adapters(net, tree.adapter.hidden_dim, seed=seed)
                if tree.adapter.enabled else None)
    server = ServerState(extract_bundle(net, adapters), seed)
    clients = [ClientState(i, entry["train"], entry["val"], net, adapters, seed)
               for i, entry in enumerate(bench.train_clients)]

    best_bundle, best_stats, ledger = run_federation(clients, server, tree)

    load_bundle(net, adapters, best_bundle)
    net.set_global_stats(best_stats)
    accuracies = {}
    for mode in INFERENCE_MODES:
        if mode == "adaptive" and adapters is None:
            continue  # no adapters were trained
        rng = np.random.default_rng(np.random.SeedSequence([seed, 555]))
        accuracies[mode] = evaluate_net(net, adapters, bench.test_set, mode,
                                        fixed_value=tree.adapter.fixed_value, rng=rng)
    return {
        "seed": seed,
        "accuracies": accuracies,
        "best_round": server.best_round,
        "best_val_score": float(server.best_score),
        "ledger": ledger,
        "bundle": best_bundle,
        "global_stats": best_stats,
    }


def _write_ledger(rows: list[dict], path: str):
    with ckpt.atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["round", "client_id", "split", "accuracy", "L_CE", "L_CACL",
                         "L_CAFL", "L_total"])
        for r in rows:
            writer.writerow([r["round"], r["client_id"], r["split"],
                             f"{r['accuracy']:.6f}", f"{r['ce']:.8f}", f"{r['cacl']:.8f}",
                             f"{r['cafl']:.8f}", f"{r['total']:.8f}"])


def run_experiment(cfg: dict, out_dir: str | None = None) -> dict:
    """Run all seeds, write report.json / ledgers / checkpoints, return report."""
    tree = parse(cfg)
    cfg = dataclasses.asdict(tree)  # keys ``cfg`` left out are reported at their defaults
    out_dir = out_dir or tree.output_dir
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.join(out_dir, "checkpoints"), exist_ok=True)

    start = time.perf_counter()
    per_seed = {}
    for seed in tree.seeds:
        log.info("running seed %d", seed)
        result = run_seed(cfg, seed)
        per_seed[str(seed)] = {
            "accuracies": result["accuracies"],
            "best_round": result["best_round"],
            "best_val_score": result["best_val_score"],
        }
        _write_ledger(result["ledger"], os.path.join(out_dir, f"ledger_seed{seed}.csv"))
        stats_flat = {}
        for i, (mu, var) in enumerate(result["global_stats"]):
            stats_flat[f"block{i}.bn.global_mean"] = mu
            stats_flat[f"block{i}.bn.global_var"] = var
        ckpt.save_checkpoint({**result["bundle"], **stats_flat},
                             os.path.join(out_dir, "checkpoints", f"best_seed{seed}.json"),
                             extra={"seed": seed, "config_hash": config_hash(cfg)})

    summary = {}
    for mode in result["accuracies"]:  # every seed reports the same modes
        vals = [per_seed[str(s)]["accuracies"][mode] for s in tree.seeds]
        summary[mode] = {"mean": float(np.mean(vals)), "std": float(np.std(vals))}

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config_hash": config_hash(cfg),
        "benchmark_hash": benchmark_hash(cfg),
        "config": cfg,
        "seeds": tree.seeds,
        "per_seed": per_seed,
        "summary": summary,
        "wallclock_sec": round(time.perf_counter() - start, 3),
    }
    with ckpt.atomic_write(os.path.join(out_dir, "report.json")) as f:
        json.dump(report, f, indent=2, sort_keys=True)
    return report


def format_cell(mean: float, std: float) -> str:
    return f"{100 * mean:.2f} ({100 * std:.2f})"


def _read_report(path: str) -> dict:
    """A report.json's contents; InputError unless it has what the table reads."""
    try:
        with open(path) as f:
            rep = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise InputError(f"report {path} is not valid JSON: {e}")
    summary = rep.get("summary") if isinstance(rep, dict) else None
    if not (isinstance(summary, dict) and "benchmark_hash" in rep and "eval_global" in summary
            and all(isinstance(s, dict) and {"mean", "std"} <= s.keys()
                    for s in summary.values())):
        raise InputError(f"report {path} needs a benchmark_hash and a summary of "
                         f"mean and std per mode, eval_global included")
    return rep


def compare_reports(report_paths: list[str]) -> str:
    """Side-by-side accuracy table; refuses reports from different benchmarks."""
    reports = [(path, _read_report(path)) for path in report_paths]
    base_hash = reports[0][1]["benchmark_hash"]
    for path, rep in reports[1:]:
        if rep["benchmark_hash"] != base_hash:
            raise ConfigError(
                f"cannot compare: {path} was produced on a different benchmark "
                f"({rep['benchmark_hash']} != {base_hash})"
            )

    modes = [m for m in INFERENCE_MODES if any(m in rep["summary"] for _, rep in reports)]
    header = ["report"] + modes + ["delta_eval_global"]
    rows = [header]
    base_mean = reports[0][1]["summary"]["eval_global"]["mean"]
    for path, rep in reports:
        cells = [os.path.basename(os.path.dirname(path)) or path]
        for mode in modes:
            s = rep["summary"].get(mode)
            cells.append("n/a" if s is None else format_cell(s["mean"], s["std"]))
        delta = rep["summary"]["eval_global"]["mean"] - base_mean
        cells.append(f"{100 * delta:+.2f}")
        rows.append(cells)

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)
