"""Probes the benchmark puts around feddiv's public functions from outside.

``Patcher`` swaps a function or method for a wrapper in every feddiv module
that holds it and puts the original back afterwards. ``Recorder`` holds the
few light probes the end-to-end metrics and the output checks need; they
stay on in every run. ``Tracer`` wraps every public function and method of
the traced modules, records one span per call, and turns the spans into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from feddiv import checkpoint, domains, federation, harness, layers
from feddiv import tensor as T

clock = time.perf_counter

TRACED_MODULES = ("tensor", "layers", "diversify", "adapter", "federation", "domains",
                  "harness", "checkpoint")
ELEMENTWISE = ("add", "sub", "mul", "div", "relu", "sqrt", "clamp", "reshape", "getitem",
               "tsum", "tmean")
LOSSES = ("softmax_cross_entropy", "mse")
# Public functions of feddiv.tensor that are not tape ops of their own:
# global_avg_pool returns the node tmean made, whose VJP is already timed.
NOT_OPS = ("no_grad", "global_avg_pool")


class Patcher:
    """Replaces feddiv callables in place and restores them in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, name: str, wrapper):
        """Rebind ``module.name`` wherever a feddiv module imported it by name."""
        original = getattr(module, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("feddiv") \
                    and mod.__dict__.get(name) is original:
                self._undo.append((mod, name, original))
                setattr(mod, name, wrapper)

    def method(self, cls, name: str, wrapper):
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def restore(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# -- light probes --------------------------------------------------------------

@dataclass
class Update:
    round: int
    start: float
    end: float
    client: object  # federation.ClientState
    upload: dict


@dataclass
class Experiment:
    """What the light probes saw during one ``harness.run_experiment`` call."""

    enter: float = 0.0
    exit: float = 0.0
    updates: list[Update] = field(default_factory=list)
    round_start: dict[int, float] = field(default_factory=dict)
    server_before: dict[int, dict] = field(default_factory=dict)  # round -> server arrays
    server_live: dict | None = None  # the server's bundle dict itself
    global_stats_in: dict[int, list] = field(default_factory=dict)
    synthesized: list[list] = field(default_factory=list)
    evals: list[tuple[float, float, int]] = field(default_factory=list)
    steps: int = 0
    samples: int = 0
    federation_end: float = 0.0
    benchmark: object = None  # domains.Benchmark
    result: dict | None = None  # harness.run_seed's return
    report: dict | None = None

    def server_after(self, rnd: int) -> dict:
        """Server arrays at the end of round ``rnd``."""
        return self.server_before.get(rnd + 1) or dict(self.server_live)

    def drop_arrays(self):
        """Let go of data, uploads and results once checked; keep the times."""
        self.server_before, self.server_live, self.global_stats_in = {}, None, {}
        self.synthesized, self.benchmark, self.result = [], None, None
        for u in self.updates:
            u.client = u.upload = None

    def round_seconds(self) -> list[float]:
        starts = [self.round_start[r] for r in sorted(self.round_start)]
        return list(np.diff(starts + [self.federation_end]))


class SetupDone(Exception):
    """Ends a set-up-only run at its first local update."""


class Recorder:
    """Light probes kept on in every run; they note times, counts and arrays."""

    def __init__(self):
        self.current: Experiment | None = None
        self.setup_only = False

    def install(self, patcher: Patcher):
        rec = self
        orig_update = federation.local_update
        orig_eval = federation.evaluate_net
        orig_batch = federation.ClientState.next_batch
        orig_synth = federation.synthesize_global_stats
        orig_fed = federation.run_federation
        orig_bench = domains.build_benchmark
        orig_seed = harness.run_seed

        @functools.wraps(orig_update)
        def local_update(client, server_bundle, global_stats, plan, cfg, round_idx=0):
            start = clock()
            if rec.setup_only:
                raise SetupDone(start)
            exp = rec.current
            if exp is not None and round_idx not in exp.round_start:
                exp.round_start[round_idx] = start
                exp.server_before[round_idx] = dict(server_bundle)
                exp.server_live = server_bundle
                exp.global_stats_in[round_idx] = global_stats
            out = orig_update(client, server_bundle, global_stats, plan, cfg, round_idx)
            if exp is not None:
                exp.updates.append(Update(round_idx, start, clock(), client, out[0]))
            return out

        @functools.wraps(orig_eval)
        def evaluate_net(net, adapters, dataset, *args, **kwargs):
            start = clock()
            acc = orig_eval(net, adapters, dataset, *args, **kwargs)
            if rec.current is not None:
                rec.current.evals.append((start, clock(), len(dataset.labels)))
            return acc

        @functools.wraps(orig_batch)
        def next_batch(client, batch_size):
            images, labels = orig_batch(client, batch_size)
            if rec.current is not None:
                rec.current.steps += 1
                rec.current.samples += len(labels)
            return images, labels

        @functools.wraps(orig_synth)
        def synthesize_global_stats(*args, **kwargs):
            out = orig_synth(*args, **kwargs)
            if rec.current is not None:
                rec.current.synthesized.append(out)
            return out

        @functools.wraps(orig_fed)
        def run_federation(*args, **kwargs):
            out = orig_fed(*args, **kwargs)
            if rec.current is not None:
                rec.current.federation_end = clock()
            return out

        @functools.wraps(orig_bench)
        def build_benchmark(*args, **kwargs):
            out = orig_bench(*args, **kwargs)
            if rec.current is not None:
                rec.current.benchmark = out
            return out

        @functools.wraps(orig_seed)
        def run_seed(*args, **kwargs):
            out = orig_seed(*args, **kwargs)
            if rec.current is not None:
                rec.current.result = out
            return out

        patcher.function(federation, "local_update", local_update)
        patcher.function(federation, "evaluate_net", evaluate_net)
        patcher.method(federation.ClientState, "next_batch", next_batch)
        patcher.function(federation, "synthesize_global_stats", synthesize_global_stats)
        patcher.function(federation, "run_federation", run_federation)
        patcher.function(domains, "build_benchmark", build_benchmark)
        patcher.function(harness, "run_seed", run_seed)

    def setup(self, cfg: dict, out_dir: str) -> float:
        """Seconds from entering an experiment to its first local update."""
        self.setup_only = True
        try:
            enter = clock()
            harness.run_experiment(cfg, out_dir)
        except SetupDone as done:
            return done.args[0] - enter
        finally:
            self.setup_only = False
        raise RuntimeError("the experiment ran no local update")

    def run(self, cfg: dict, out_dir: str) -> Experiment:
        """One whole experiment through the public API, timed from outside."""
        exp = self.current = Experiment()
        try:
            exp.enter = clock()
            exp.report = harness.run_experiment(cfg, out_dir)
            exp.exit = clock()
        finally:
            self.current = None
        return exp


# -- tracing ---------------------------------------------------------------------

def _public_callables(module):
    """(owner, name, function, span name) for each public function and method."""
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj, f"{short}.{name}"
        elif inspect.isclass(obj):
            for attr, fn in list(vars(obj).items()):
                if inspect.isfunction(fn) and (not attr.startswith("_") or attr == "__call__"):
                    yield obj, attr, fn, f"{short}.{obj.__name__}.{attr}"


class Tracer:
    """Spans (name, start, end, parent) for every call of a traced callable.

    Spans live in flat arrays in memory; ``save`` writes them out. The VJP
    of each tensor op is timed by wrapping the ``_vjp`` of the tensor the op
    returns, so backward time splits by op.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        nid = self._id(name)
        ids, parent, start, end, stack = (self.name_id, self.parent, self.start, self.end,
                                          self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _count(self, name: str, amount: float):
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _op(self, name: str, fn):
        """A tensor op: span the forward, then span the VJP of its output."""
        traced = self.span(name, fn)
        vjp_name = f"{name}.vjp"
        self._id(vjp_name)
        span = self.span
        count = self._count

        @functools.wraps(fn)
        def op(*args, **kwargs):
            out = traced(*args, **kwargs)
            if out._vjp is not None:
                out._vjp = span(vjp_name, out._vjp)
            return out

        if name != "tensor.conv2d":
            return op

        @functools.wraps(fn)
        def conv2d(x, w, *args, **kwargs):
            out = op(x, w, *args, **kwargs)
            # 2 flops per multiply-add; the VJP does two GEMMs of the same size.
            flops = 2.0 * out.data.size * w.data[0].size
            count("tensor.conv2d.flop", flops)
            vjp = out._vjp
            if vjp is not None:
                def counted_vjp(g):
                    count("tensor.conv2d.flop", 2 * flops)
                    return vjp(g)
                out._vjp = counted_vjp
            return out

        return conv2d

    def install(self, patcher: Patcher):
        for short in TRACED_MODULES:
            module = sys.modules[f"feddiv.{short}"]
            for owner, name, fn, span_name in _public_callables(module):
                if owner is layers.SmallConvNet and name == "forward":
                    wrapper = self._forward_by_mode(fn)
                elif owner is T and name not in NOT_OPS:
                    wrapper = self._op(span_name, fn)
                else:
                    wrapper = self.span(span_name, fn)
                if owner is module:
                    patcher.function(module, name, wrapper)
                else:
                    patcher.method(owner, name, wrapper)
        self._count_work(patcher)

    def _forward_by_mode(self, fn):
        per_mode = {mode: self.span(f"layers.forward.{mode.value}", fn)
                    for mode in layers.BNMode}

        @functools.wraps(fn)
        def forward(net, x, mode, mode_context=None):
            return per_mode[mode](net, x, mode, mode_context)

        return forward

    def _count_work(self, patcher: Patcher):
        """Counts at the same boundaries: images evaluated, bytes aggregated and saved."""
        count = self._count
        traced_eval = federation.evaluate_net
        traced_agg = federation.aggregate
        traced_save = checkpoint.save_checkpoint

        @functools.wraps(traced_eval)
        def evaluate_net(net, adapters, dataset, *args, **kwargs):
            count("federation.evaluate_net.images", len(dataset.labels))
            return traced_eval(net, adapters, dataset, *args, **kwargs)

        @functools.wraps(traced_agg)
        def aggregate(bundles, n_list, strategy):
            count("federation.aggregate.bytes",
                  sum(a.nbytes for b in bundles for a in b.values()))
            return traced_agg(bundles, n_list, strategy)

        @functools.wraps(traced_save)
        def save_checkpoint(bundle, path, extra=None):
            out = traced_save(bundle, path, extra)
            count("checkpoint.save_checkpoint.bytes", os.path.getsize(path))
            return out

        patcher.function(federation, "evaluate_net", evaluate_net)
        patcher.function(federation, "aggregate", aggregate)
        patcher.function(checkpoint, "save_checkpoint", save_checkpoint)

    def save(self, path: str):
        np.savez_compressed(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                            parent=np.asarray(self.parent), start=np.asarray(self.start),
                            end=np.asarray(self.end))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of one traced experiment, as (value, unit)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(ids))
        k = len(self.names)
        calls_by = np.bincount(ids, minlength=k)
        incl_by = np.bincount(ids, weights=dur, minlength=k)
        self_by = np.bincount(ids, weights=dur - child_time, minlength=k)

        def pick(table, *names):
            return float(sum(table[self._ids[n]] for n in names if n in self._ids))

        def calls(*names):
            return pick(calls_by, *names)

        def incl(*names):
            return pick(incl_by, *names)

        def self_t(*names):
            return pick(self_by, *names)

        def ops(prefix, names):
            return [f"tensor.{n}{prefix}" for n in names]

        m: dict[str, tuple[float, str]] = {}
        s, n = "s", "count"
        backward = "tensor.Tensor.backward"
        vjps = [name for name in self.names if name.endswith(".vjp")]
        m["tensor.backward.calls"] = (calls(backward), n)
        m["tensor.backward.self_s"] = (self_t(backward), s)
        m["tensor.tape_nodes_per_backward"] = (calls(*vjps) / max(calls(backward), 1), n)
        m["tensor.elementwise.calls"] = (calls(*ops("", ELEMENTWISE)), n)
        m["tensor.elementwise.fwd_s"] = (self_t(*ops("", ELEMENTWISE)), s)
        m["tensor.elementwise.vjp_s"] = (self_t(*ops(".vjp", ELEMENTWISE)), s)
        m["tensor.loss.fwd_s"] = (self_t(*ops("", LOSSES)), s)
        m["tensor.loss.vjp_s"] = (self_t(*ops(".vjp", LOSSES)), s)
        m["tensor.conv2d.calls"] = (calls("tensor.conv2d"), n)
        m["tensor.conv2d.fwd_s"] = (self_t("tensor.conv2d"), s)
        m["tensor.conv2d.vjp_s"] = (self_t("tensor.conv2d.vjp"), s)
        m["tensor.conv2d.gflop"] = (self.counts.get("tensor.conv2d.flop", 0.0) / 1e9, "GFLOP")
        for op in ("batch_norm_train", "matmul", "normalize_affine", "instance_std"):
            m[f"tensor.{op}.fwd_s"] = (self_t(f"tensor.{op}"), s)
            m[f"tensor.{op}.vjp_s"] = (self_t(f"tensor.{op}.vjp"), s)

        for mode in layers.BNMode:
            name = f"layers.forward.{mode.value}"
            m[f"{name}.calls"] = (calls(name), n)
            m[f"{name}.s"] = (incl(name), s)
        m["layers.self_s"] = (self_t(*[x for x in self.names if x.startswith("layers.")]), s)

        m["diversify.local_loss.calls"] = (calls("diversify.local_loss"), n)
        m["diversify.local_loss.s"] = (incl("diversify.local_loss"), s)
        m["diversify.sample_mix_context.s"] = (incl("diversify.sample_mix_context"), s)

        m["adapter.adapter_train_step.calls"] = (calls("adapter.adapter_train_step"), n)
        for name in ("adapter_train_step", "adaptive_inference", "baseline_alpha_inference",
                     "InstanceAdapter.forward"):
            m[f"adapter.{name}.s"] = (incl(f"adapter.{name}"), s)

        m["federation.local_update.calls"] = (calls("federation.local_update"), n)
        m["federation.local_update.s"] = (incl("federation.local_update"), s)
        for phase, seconds in self._update_phases(ids, parent, start, dur).items():
            m[f"federation.local_update.{phase}"] = (seconds, s)
        m["federation.next_batch.s"] = (incl("federation.ClientState.next_batch"), s)
        m["federation.SGD.step.s"] = (incl("federation.SGD.step"), s)
        m["federation.evaluate_net.s"] = (incl("federation.evaluate_net"), s)
        m["federation.evaluate_net.images"] = (
            self.counts.get("federation.evaluate_net.images", 0.0), "images")
        m["federation.aggregate.calls"] = (calls("federation.aggregate"), n)
        m["federation.aggregate.s"] = (incl("federation.aggregate"), s)
        m["federation.aggregate.bytes"] = (self.counts.get("federation.aggregate.bytes", 0.0),
                                           "bytes")
        for name in ("synthesize_global_stats", "extract_bundle", "load_bundle"):
            m[f"federation.{name}.s"] = (incl(f"federation.{name}"), s)

        for name in ("build_benchmark", "generate_base", "apply_domain", "partition"):
            m[f"domains.{name}.s"] = (incl(f"domains.{name}"), s)

        m["harness.run_seed.s"] = (incl("harness.run_seed"), s)
        m["harness.artifacts_s"] = (incl("harness.run_experiment") - incl("harness.run_seed"), s)
        m["checkpoint.save_checkpoint.s"] = (incl("checkpoint.save_checkpoint"), s)
        m["checkpoint.save_checkpoint.bytes"] = (
            self.counts.get("checkpoint.save_checkpoint.bytes", 0.0), "bytes")
        m["trace.spans"] = (float(len(ids)), n)
        return m

    def _update_phases(self, ids, parent, start, dur) -> dict[str, float]:
        """Split each ``local_update`` span into its phases.

        ``fixed_s`` is bundle loading, round-0 warm start and optimizer set-up
        (entry to the first batch), every ``extract_bundle`` after that, and
        the tail after the last child. ``validation_s`` and ``adapter_step_s``
        are the client validation passes and adapter steps; ``main_step_s``
        is the rest: batching, forward, backward and the SGD step.
        """
        out = {"main_step_s": 0.0, "adapter_step_s": 0.0, "validation_s": 0.0, "fixed_s": 0.0}
        if "federation.local_update" not in self._ids:
            return out
        get = self._ids.get
        batch_id = get("federation.ClientState.next_batch", -2)
        extract_id = get("federation.extract_bundle", -2)
        for i in np.flatnonzero(ids == self._ids["federation.local_update"]):
            kids = np.flatnonzero(parent == i)
            kid_ids = ids[kids]
            steps = kids[kid_ids == batch_id]
            first = start[steps[0]] if len(steps) else start[i] + dur[i]
            last_end = (start[kids[-1]] + dur[kids[-1]]) if len(kids) else start[i] + dur[i]
            extracts = kids[(kid_ids == extract_id) & (start[kids] >= first)]
            fixed = (first - start[i]) + dur[extracts].sum() + (start[i] + dur[i] - last_end)
            validation = dur[kids[kid_ids == get("federation.evaluate_net", -2)]].sum()
            adapter_step = dur[kids[kid_ids == get("adapter.adapter_train_step", -2)]].sum()
            out["fixed_s"] += fixed
            out["validation_s"] += validation
            out["adapter_step_s"] += adapter_step
            out["main_step_s"] += dur[i] - fixed - validation - adapter_step
        return out
