"""Traced mode: per-layer spans recorded from outside the program.

:class:`LayerTracer` wraps each layer's entry points at class (or
module) level, so it must be installed before the worlds it should see
are built: the router and the event log capture bound methods at
construction. Each wrapper keeps a span in memory — entry point, start,
end, parent span, and the task or CI-run id when its first argument
names one. A span's self time is its duration minus the time its child
spans cover. Per-op figures divide by the workload's op count. The spans
of the last traced round are written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import statistics
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from checks import percentile

# (layer, module, entry points). "*" wraps every public function and
# every public method of every class the module defines; a module name
# ending in ".*" covers the whole package.
ENTRY_POINTS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("util.clock", "repro.util.clock",
     ("SimClock.call_at", "SimClock.run_until", "SimClock.run_until_idle")),
    ("util.events", "repro.util.events", ("EventLog.emit",)),
    ("auth", "repro.auth.oauth",
     ("AuthService.introspect", "AuthService.client_credentials_grant",
      "AuthService.create_client")),
    ("faas.service", "repro.faas.service",
     ("FaaSService.submit", "FaaSService.submit_batch", "FaaSService._complete",
      "FaaSService._finalize", "FaaSService.cancel",
      "FaaSService.register_function", "FaaSService.register_endpoint",
      "FaaSService.register_pool")),
    ("faas.placement", "repro.faas.placement", ("Router.resolve",)),
    ("faas.pipeline", "repro.faas.pipeline",
     ("Pipeline.admit", "Pipeline.submitted", "Pipeline.accepted",
      "Pipeline.wrap_spec", "Pipeline.dispatched", "Pipeline.outcome",
      "TimeoutInterceptor._deadline_fired")),
    ("faas.dispatch", "repro.faas.dispatch",
     ("EndpointDispatcher.arrive", "EndpointDispatcher.pump",
      "EndpointDispatcher.abort_inflight", "EndpointDispatcher.retract")),
    ("faas.endpoint", "repro.faas.endpoint",
     ("MultiUserEndpoint.execute_async", "MultiUserEndpoint.user_endpoint",
      "UserEndpoint.execute_async")),
    ("executor.pilot", "repro.executor.pilot",
     ("PilotExecutor.submit_async", "PilotExecutor.ensure_block_async",
      "PilotExecutor.submit", "PilotExecutor._adopt_block")),
    ("telemetry.tracer", "repro.telemetry.tracer",
     ("Tracer.start_span", "Tracer.end_span", "Tracer.span",
      "Tracer.activate", "Tracer.annotate")),
    ("telemetry.metrics", "repro.telemetry.metrics",
     ("EventMetricsBridge.on_event",)),
    ("telemetry.timeseries", "repro.telemetry.timeseries", ("*",)),
    ("telemetry.slo", "repro.telemetry.slo", ("*",)),
    ("telemetry.health", "repro.telemetry.health", ("*",)),
    ("durability", "repro.durability.journal",
     ("Journal.append", "Journal.flush", "Journal.verify", "Journal.__init__")),
    ("durability", "repro.durability.checkpoint", ("RunCheckpointer.on_event",)),
    ("durability", "repro.durability.recovery", ("ReplayIndex.__init__",)),
    ("faas.overload", "repro.faas.overload", ("OverloadController.*",)),
    ("faas.hedging", "repro.faas.hedging",
     ("HedgeController.*", "HedgeController._deadline_fired",
      "HedgeController._launch_hedge", "StragglerDetector.*")),
    ("faults", "repro.faults.injector",
     ("FaultInjector.*", "FaultInjector._record",
      "FaultInjector._begin_degradation", "FaultInjector._end_degradation",
      "FaultInjector._arm_task_error")),
    ("world", "repro.world",
     ("World.__init__", "World.site", "World.register_user",
      "World.deploy_mep", "World.deploy_mep_pool",
      "World.enable_observability", "World.attach_journal")),
    ("suites", "repro.suites.*", ("*",)),
    ("util.yamlite", "repro.util.yamlite", ("*",)),
    ("actions.engine", "repro.actions.engine", ("*",)),
    ("actions.engine", "repro.actions.runner", ("*",)),
    ("actions.engine", "repro.actions.workflow", ("*",)),
    ("actions.engine", "repro.actions.builtin_actions", ("*",)),
    ("actions.expressions", "repro.actions.expressions", ("*",)),
    ("core", "repro.core.*", ("*",)),
    ("shellsim", "repro.shellsim.*", ("*",)),
    ("apps", "repro.apps.*", ("*",)),
    ("scheduler.slurm", "repro.scheduler.*", ("*",)),
    ("hub", "repro.hub.*", ("*",)),
    ("provenance", "repro.provenance.*", ("*",)),
    ("envs", "repro.envs.*", ("*",)),
]

# spans of these layers carry the task or CI-run id their first argument names
ID_LAYERS = {
    "faas.service", "faas.pipeline", "faas.dispatch", "faas.overload",
    "faas.hedging", "durability", "actions.engine",
}

FAAS_LAYERS = ("util.clock", "util.events", "faas.service", "faas.pipeline",
               "faas.dispatch", "world")
CI_LAYERS = ("suites", "util.yamlite", "actions.engine", "actions.expressions",
             "core", "shellsim", "apps", "scheduler.slurm", "hub",
             "provenance", "envs")

# the layers each workload must record spans in: a renamed or removed
# entry point then fails the run instead of reading zero
COVERAGE: Dict[str, Tuple[str, ...]] = {
    "spine": FAAS_LAYERS + ("auth", "faas.endpoint", "executor.pilot"),
    "durable": FAAS_LAYERS + ("telemetry.tracer", "telemetry.metrics",
                              "durability", "faults"),
    "planes": FAAS_LAYERS + ("faas.placement", "telemetry.tracer",
                             "telemetry.metrics", "telemetry.timeseries",
                             "telemetry.slo", "telemetry.health",
                             "faas.overload", "faas.hedging", "faults"),
    "ci": ("world",) + CI_LAYERS,
}


def _ident(args: tuple) -> Optional[str]:
    """The task or CI-run id the first argument after ``self`` names."""
    if len(args) < 2:
        return None
    value = args[1]
    task = getattr(value, "task", None)
    if task is not None:
        return getattr(task, "task_id", None)
    return getattr(value, "task_id", None) or getattr(value, "run_id", None)


def _modules(name: str) -> List[Any]:
    if not name.endswith(".*"):
        return [importlib.import_module(name)]
    package = importlib.import_module(name[:-2])
    found = [package]
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        found.append(importlib.import_module(info.name))
    return found


def _targets(module: Any, pattern: str) -> Optional[List[Tuple[Any, str, Callable]]]:
    """(owner, attribute, function) triples a pattern selects in a module.

    ``owner`` is the class for methods and the module for functions;
    ``None`` when a named class or method no longer exists.
    """
    def public_methods(cls):
        return [
            (cls, attr, value)
            for attr, value in vars(cls).items()
            if inspect.isfunction(value) and not attr.startswith("_")
        ]

    if pattern == "*":
        found = []
        for attr, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                found += public_methods(value)
            elif inspect.isfunction(value) and not attr.startswith("_"):
                found.append((module, attr, value))
        return found
    owner_name, _, attr = pattern.partition(".")
    owner = getattr(module, owner_name, None)
    if owner is None:
        return None
    if attr == "*":
        return public_methods(owner)
    value = vars(owner).get(attr)
    if value is None:
        return None
    if isinstance(value, classmethod):
        raise TypeError(f"{pattern}: wrap the classmethod's callers instead")
    return [(owner, attr, value)]


class LayerTracer:
    """Installs the wrappers and turns their spans into per-layer figures."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.labels: List[str] = []  # entry point index -> "layer:qualname"
        self.layers: List[str] = []  # entry point index -> layer
        self.missing: List[str] = []  # named entry points that no longer exist
        self._new_round()
        self.count: List[int] = []
        self.self_s: List[float] = []
        self.submit_us: List[float] = []
        self.ops = 0
        self.timed_s = 0.0
        self.attributed_s = 0.0
        self.drain_max_depth = 0
        self.peak_pending = 0
        self.per_round_counts: List[List[int]] = []
        self._depth = 0

    def _new_round(self) -> None:
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.idents: List[Optional[str]] = []
        self.stack: List[int] = []
        self.timed_from = 0
        self.timed_at = 0.0

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, function: Callable, index: int, with_ident: bool) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            span = len(tracer.starts)
            tracer.names.append(index)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.idents.append(_ident(args) if with_ident else None)
            tracer.ends.append(0.0)
            stack.append(span)
            tracer.starts.append(perf_counter())
            try:
                return function(*args, **kwargs)
            finally:
                tracer.ends[span] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(function, "__qualname__", "wrapper")
        return wrapper

    def _special(self, label: str, wrapper: Callable) -> Callable:
        """Counters measured where the work happens: drain nesting depth
        and the clock's pending-event high-water mark."""
        tracer = self
        if label.endswith("SimClock.run_until"):
            def run_until(clock, target):
                tracer._depth += 1
                if tracer._depth > tracer.drain_max_depth:
                    tracer.drain_max_depth = tracer._depth
                try:
                    return wrapper(clock, target)
                finally:
                    tracer._depth -= 1
            return run_until
        if label.endswith("SimClock.call_at"):
            def call_at(clock, when, callback):
                handle = wrapper(clock, when, callback)
                pending = clock.pending_events()
                if pending > tracer.peak_pending:
                    tracer.peak_pending = pending
                return handle
            return call_at
        return wrapper

    def install(self) -> "LayerTracer":
        """Wrap every entry point; module functions are replaced in every
        module that imported them by name."""
        by_id: Dict[int, Tuple[Callable, Callable]] = {}
        seen = set()
        for layer, module_name, patterns in ENTRY_POINTS:
            try:
                modules = _modules(module_name)
            except ImportError:
                self.missing.append(module_name)
                continue
            for module in modules:
                for pattern in patterns:
                    targets = _targets(module, pattern)
                    if targets is None:
                        self.missing.append(f"{module.__name__}:{pattern}")
                        continue
                    for owner, attr, function in targets:
                        if id(function) in seen:
                            continue
                        seen.add(id(function))
                        index = len(self.labels)
                        qualname = getattr(function, "__qualname__", attr)
                        self.labels.append(f"{layer}:{qualname}")
                        self.layers.append(layer)
                        wrapped = self._special(
                            self.labels[-1],
                            self._wrap(function, index, layer in ID_LAYERS),
                        )
                        if inspect.ismodule(owner):
                            by_id[id(function)] = (function, wrapped)
                        else:
                            setattr(owner, attr, wrapped)
        if by_id:
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace:
                    continue
                for attr, value in list(namespace.items()):
                    hit = by_id.get(id(value))
                    if hit is not None and hit[0] is value:
                        namespace[attr] = hit[1]
        self.count = [0] * len(self.labels)
        self.self_s = [0.0] * len(self.labels)
        return self

    # -- rounds ---------------------------------------------------------------
    def begin_round(self) -> None:
        self._new_round()

    def mark_timed(self) -> None:
        self.timed_from = len(self.starts)
        self.timed_at = perf_counter()

    def end_round(self, finished: float) -> None:
        """Fold the round's spans into per-entry-point counts and self time."""
        starts, ends, parents, names = self.starts, self.ends, self.parents, self.names
        total = len(starts)
        covered = [0.0] * total
        durations = [ends[i] - starts[i] for i in range(total)]
        for i in range(total):
            parent = parents[i]
            if parent >= 0:
                covered[parent] += durations[i]
        counts = [0] * len(self.labels)
        for i in range(total):
            name = names[i]
            counts[name] += 1
            self.self_s[name] += durations[i] - covered[i]
        for name, value in enumerate(counts):
            self.count[name] += value
        self.per_round_counts.append(counts)
        submit = self.labels.index("faas.service:FaaSService.submit")
        self.submit_us += [
            durations[i] * 1e6 for i in range(total) if names[i] == submit
        ]
        self.attributed_s += sum(
            durations[i] for i in range(self.timed_from, total) if parents[i] < 0
        )
        self.timed_s += finished - self.timed_at

    # -- results --------------------------------------------------------------
    def _layer_sum(self, values: List[float], layer: str, only: Tuple[str, ...] = ()) -> float:
        return sum(
            value for value, label in zip(values, self.labels)
            if label.split(":")[0] == layer
            and (not only or label.split(":", 1)[1] in only)
        )

    def _per_opset(self, qualnames: Tuple[str, ...], parts: int) -> int:
        """Calls of the named entry points over one whole op set."""
        picks = [
            i for i, label in enumerate(self.labels)
            if label.split(":", 1)[1] in qualnames
        ]
        return sum(
            counts[i] for counts in self.per_round_counts[:parts] for i in picks
        )

    def coverage_violations(self) -> List[str]:
        recorded = {
            layer for layer, count in zip(self.layers, self.count) if count
        }
        return [f"trace: entry point {name} no longer exists" for name in self.missing] + [
            f"trace: layer {layer} recorded no span on {self.workload}"
            for layer in COVERAGE[self.workload]
            if layer not in recorded
        ]

    def metrics(self, traced: list, untraced: list, parts: int,
                overhead: float) -> Dict[str, Dict[str, Any]]:
        """Every per-layer metric, by name, with its unit.

        Self times and call counts are per op over every traced round;
        counts read from the program are per op set (all parts once).
        Wall times of whole calls (the collector's pauses, the journal's
        load-and-verify) come from the untraced rounds; ``overhead`` is
        traced over untraced reference time per op.
        """
        from workloads import Summary

        total_ops = self.ops = sum(r.summary.ops for r in traced)
        opset = Summary.pooled([r.summary for r in traced[:parts]])
        ops = opset.ops
        summary = opset.layer

        def self_us(layer, only=()):
            return self._layer_sum(self.self_s, layer, only) * 1e6 / total_ops

        def calls(layer, only=()):
            return self._layer_sum(self.count, layer, only) / total_ops

        def share(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        queue_waits = summary.get("queue_waits", [])
        gc_stats = [r.gc_stats for r in untraced[:parts]]
        load_verify = [
            x for r in untraced for x in r.summary.layer.get("load_verify_s", [])
        ]
        values = {
            "util.clock.schedule_per_op": ("calls/op", calls("util.clock", ("SimClock.call_at",))),
            "util.clock.drain_self_us_per_op": ("us/op", self_us(
                "util.clock", ("SimClock.run_until", "SimClock.run_until_idle"))),
            "util.clock.drain_max_depth": ("count", self.drain_max_depth),
            "util.clock.peak_pending": ("count", self.peak_pending),
            "util.events.emit_per_op": ("calls/op", calls("util.events")),
            "util.events.emit_self_us_per_op": ("us/op", self_us("util.events")),
            "auth.introspect_self_us_per_op": ("us/op", self_us(
                "auth", ("AuthService.introspect",))),
            "faas.service.submit_self_us_per_op": ("us/op", self_us(
                "faas.service", ("FaaSService.submit",))),
            "faas.service.submit_us_p50": ("us", percentile(self.submit_us, 50.0)),
            "faas.service.submit_us_p99": ("us", percentile(self.submit_us, 99.0)),
            "faas.placement.resolve_self_us_per_op": ("us/op", self_us("faas.placement")),
            "faas.pipeline.self_us_per_op": ("us/op", self_us("faas.pipeline")),
            "faas.pipeline.retries_per_op": ("count/op", share(summary.get("retries", 0), ops)),
            "faas.dispatch.self_us_per_op": ("us/op", self_us("faas.dispatch")),
            "faas.dispatch.queue_wait_p50_s": ("virtual_s", percentile(queue_waits, 50.0)),
            "faas.dispatch.queue_wait_p99_s": ("virtual_s", percentile(queue_waits, 99.0)),
            "faas.endpoint.self_us_per_op": ("us/op", self_us("faas.endpoint")),
            "executor.pilot.self_us_per_op": ("us/op", self_us("executor.pilot")),
            "executor.pilot.blocks_started": ("count", self._per_opset(
                ("PilotExecutor._adopt_block",), parts)),
            "telemetry.tracer.spans_per_op": ("spans/op", calls(
                "telemetry.tracer", ("Tracer.start_span", "Tracer.span"))),
            "telemetry.tracer.self_us_per_op": ("us/op", self_us("telemetry.tracer")),
            "telemetry.metrics.bridge_self_us_per_op": ("us/op", self_us("telemetry.metrics")),
            "telemetry.timeseries.self_us_per_op": ("us/op", self_us("telemetry.timeseries")),
            "telemetry.slo.self_us_per_op": ("us/op", self_us("telemetry.slo")),
            "telemetry.health.score_per_op": ("calls/op", calls(
                "telemetry.health", ("HealthScorer.score",))),
            "telemetry.health.self_us_per_op": ("us/op", self_us("telemetry.health")),
            "durability.journal.records_per_op": ("records/op", calls(
                "durability", ("Journal.append",))),
            "durability.journal.append_self_us_per_op": ("us/op", self_us(
                "durability", ("Journal.append",))),
            "durability.journal.flush_self_us_per_op": ("us/op", self_us(
                "durability", ("Journal.flush",))),
            "durability.journal.bytes_per_op": ("bytes/op", share(
                summary.get("journal_bytes", 0), ops)),
            "durability.journal.load_verify_s": ("s", statistics.median(
                load_verify) if load_verify else 0.0),
            "durability.checkpoint.self_us_per_op": ("us/op", self_us(
                "durability", ("RunCheckpointer.on_event",))),
            "durability.recovery.replayed_share": ("ratio", share(
                summary.get("replayed", 0), ops)),
            "faas.overload.self_us_per_op": ("us/op", self_us("faas.overload")),
            "faas.overload.admitted_share": ("ratio", share(
                summary.get("admitted", 0), ops)),
            "faas.overload.shed": ("count", summary.get("shed", 0)),
            "faas.overload.backoffs": ("count", summary.get("backoffs", 0)),
            "faas.hedging.self_us_per_op": ("us/op", self_us("faas.hedging")),
            "faas.hedging.detector_calls_per_op": ("calls/op", sum(
                count for count, label in zip(self.count, self.labels)
                if label.startswith("faas.hedging:StragglerDetector.")
            ) / total_ops),
            "faas.hedging.launched": ("count", summary.get("hedges_launched", 0)),
            "faas.hedging.win_ratio": ("ratio", share(
                summary.get("hedges_won", 0), summary.get("hedges_launched", 0))),
            "faults.fired": ("count", self._per_opset(("FaultInjector._record",), parts)),
            "world.build_self_us_per_op": ("us/op", self_us("world")),
            "scheduler.slurm.queue_wait_p50_s": ("virtual_s", percentile(
                summary.get("slurm_waits", []), 50.0)),
            "python.gc.collections": ("count", sum(c for c, _ in gc_stats)),
            "python.gc.pause_ms": ("ms", sum(p for _, p in gc_stats) * 1e3),
            "trace.overhead_ratio": ("ratio", overhead),
            "trace.unattributed_share": ("ratio", 1.0 - share(self.attributed_s, self.timed_s)),
        }
        for layer in CI_LAYERS:
            values[f"{layer}.self_us_per_op"] = ("us/op", self_us(layer))
        return {
            name: {"value": value, "unit": unit}
            for name, (unit, value) in sorted(values.items())
        }

    def report(self) -> str:
        """Human-readable self time and calls per op, layer by layer."""
        total_ops = self.ops
        layers: Dict[str, List[float]] = {}
        for layer, count, self_s in zip(self.layers, self.count, self.self_s):
            entry = layers.setdefault(layer, [0, 0.0])
            entry[0] += count
            entry[1] += self_s
        lines = [f"{'layer':<22} {'calls/op':>10} {'self us/op':>11}"]
        for layer, (count, self_s) in sorted(
            layers.items(), key=lambda item: -item[1][1]
        ):
            if count:
                lines.append(
                    f"{layer:<22} {count / total_ops:10.2f} "
                    f"{self_s * 1e6 / total_ops:11.2f}"
                )
        return "\n".join(lines)

    def write_spans(self, directory: str) -> str:
        """The last traced round's spans, one per line, tab-separated.

        One file per workload, overwritten by the next traced run: a
        ``planes`` round alone writes about 20 MB.
        """
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"spans-{self.workload}.tsv")
        labels = self.labels
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tentry_point\tstart_s\tend_s\tparent\tid\n")
            base = self.starts[0] if len(self.starts) else 0.0
            for i in range(len(self.starts)):
                fh.write(
                    f"{i}\t{labels[self.names[i]]}\t{self.starts[i] - base:.9f}\t"
                    f"{self.ends[i] - base:.9f}\t{self.parents[i]}\t"
                    f"{self.idents[i] or ''}\n"
                )
        return path
