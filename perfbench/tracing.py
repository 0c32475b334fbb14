"""The traced run: per-layer metrics.

Two instruments, both applied from outside the program:

* Spans. :class:`Tracer` wraps a few public entry points (the
  pipeline phases, report assembly, Dijkstra) for the length of one
  experiment and records a span per call. A span's self time is its
  duration minus what its child spans cover.
* A stdlib profile of the run phase. Each function's self time is
  charged to the layer that owns its module (:data:`LAYERS`). Time in
  builtins, the standard library and the topology data structure has
  no layer of its own and is charged to the calling layer, in
  proportion to the time each caller spent in it.

The spans and the counters come from an experiment with the profiler
off (the baseline); the self times from a second, profiled one.
``trace.overhead`` is the profiled run phase over the baseline's.

On ``transit_mp`` the workers are out of the parent's reach, so the
compute layers are measured on the same scenario run in-process on the
serial-partitioned engine, whose composed digest must equal the
multiprocess one; the multiprocess-only metrics come from
:class:`~repro.engine.parallel.MultiprocessResult`, ``getrusage`` and
the ``on_epoch`` hook.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import resource
import sys
import traceback
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.measure import (
    arm_digest,
    output_problems,
    read_digest,
)
from perfbench.stats import percentile, self_times

#: Module prefix -> layer. The longest matching prefix wins.
LAYERS = {
    "repro.engine": "engine",
    "repro.engine.sync": "sync",
    "repro.engine.parallel": "parallel",
    "repro.resilience": "parallel",
    "repro.core.phases": "build",
    "repro.core.distill": "build",
    "repro.core.assign": "build",
    "repro.core.bind": "build",
    "repro.core.node": "node",
    "repro.core.scheduler": "scheduler",
    "repro.core.kernel": "kernel",
    "repro.core.pipe": "pipe",
    "repro.core.packet": "pipe",
    "repro.core.emulator": "pipe",
    "repro.hardware": "hardware",
    "repro.net.tcp": "tcp",
    "repro.net": "sockets",
    "repro.apps": "apps",
    "repro.traffic": "apps",
    "repro.routing": "routing",
    "repro.core.routing_emulation": "routing",
    "repro.faults": "faults",
    "repro.core.faults": "faults",
    "repro.obs": "obs",
    "repro.core.monitor": "obs",
}
#: Modules whose time belongs to whoever called them.
PASS_THROUGH = ("repro.topology", "repro.api")
#: Layers that report a ``<layer>.self_s`` metric.
SELF_LAYERS = (
    "engine", "sync", "node", "scheduler", "kernel", "pipe", "hardware",
    "tcp", "sockets", "apps", "routing", "faults",
)
PASS = "pass"
UNATTRIBUTED = "unattributed"


def layer_of(module: Optional[str]) -> str:
    """Layer of a dotted module name: a layer from :data:`LAYERS`,
    :data:`PASS` for code outside the program (``None``) or in
    :data:`PASS_THROUGH`, else :data:`UNATTRIBUTED`."""
    if module is None:
        return PASS
    best = ""
    for prefix in list(LAYERS) + list(PASS_THROUGH):
        if (module == prefix or module.startswith(prefix + ".")) and len(
            prefix
        ) > len(best):
            best = prefix
    if not best:
        return UNATTRIBUTED
    return PASS if best in PASS_THROUGH else LAYERS[best]


def module_of(filename: str, src: str) -> Optional[str]:
    """Dotted module of a source file under ``src``, else None."""
    prefix = src.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix) or not filename.endswith(".py"):
        return None
    parts = filename[len(prefix):-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def attribute(stats: dict, classify: Callable[[tuple], str]) -> Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    ``classify(func)`` names a function's layer or returns :data:`PASS`;
    a PASS function's self time is split over its callers by the self
    time it spent under each, recursively. Time that reaches no layer
    (no callers, or only recursive ones) is :data:`UNATTRIBUTED`."""
    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func, visiting) -> Dict[str, float]:
        layer = classify(func)
        if layer != PASS:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = {
            caller: timing
            for caller, timing in stats[func][4].items()
            if caller != func and caller not in visiting and caller in stats
        }
        weights = {c: t[2] for c, t in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: t[0] for c, t in callers.items()}
            total = sum(weights.values())
        if total <= 0:
            return {UNATTRIBUTED: 1.0}
        out: Dict[str, float] = {}
        visiting = visiting | {func}
        for caller, weight in weights.items():
            for name, share in shares(caller, visiting).items():
                out[name] = out.get(name, 0.0) + share * weight / total
        memo[func] = out
        return out

    totals: Dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt <= 0:
            continue
        for name, share in shares(func, frozenset()).items():
            totals[name] = totals.get(name, 0.0) + tt * share
    return totals


class Tracer:
    """Spans around calls into the program, recorded from outside it."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        self._open: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.calls: Dict[str, list] = {}

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append((name, perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            _, start, _, _ = self.spans[index]
            self.spans[index] = (name, start, perf_counter(), parent)

    def wrap(self, owner, attr: str, name: str, record_arg: Optional[int] = None):
        """Replace ``owner.attr`` with a span-recording wrapper until
        :meth:`restore`. ``record_arg`` keeps that positional argument
        of every call in ``self.calls[name]``."""
        original = owner.__dict__[attr]
        calls = self.calls.setdefault(name, [])

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if record_arg is not None:
                calls.append(args[record_arg])
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> Dict[str, float]:
        return self_times(self.spans)


@contextmanager
def traced_entry_points():
    """A :class:`Tracer` wrapping the build phases, report assembly and
    Dijkstra for the length of the ``with`` block."""
    import repro.api
    import repro.routing.service
    from repro.core.phases import ExperimentPipeline

    tracer = Tracer()
    try:
        for phase in ("create", "distill", "assign", "bind", "run"):
            tracer.wrap(ExperimentPipeline, phase, f"build.{phase}")
        tracer.wrap(repro.api, "build_report", "obs.report")
        tracer.wrap(repro.routing.service, "dijkstra", "routing.dijkstra", 1)
        yield tracer
    finally:
        tracer.restore()


def _experiment(workload, seed: int, backend: str, profiler=None):
    """One in-process experiment under span tracing; returns
    (scenario, tracer, run wall seconds)."""
    with traced_entry_points() as tracer:
        scenario = workload.make(seed, backend)
        with tracer.span("setup"):
            scenario.build()
        arm_digest(scenario.sim)
        t0 = perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            scenario.run(until=workload.until)
        finally:
            if profiler is not None:
                profiler.disable()
        wall = perf_counter() - t0
    return scenario, tracer, wall


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _mp_metrics(workload, seed: int) -> Tuple[Dict[str, float], str]:
    """Metrics only a multiprocess run has, and its composed digest."""
    from repro.engine.parallel import run_multiprocess

    scenario = workload.make(seed, "multiprocess")
    emulation = scenario.build()
    marks: List[float] = []

    def on_epoch(_index, _horizon, _digests, _counts) -> None:
        marks.append(perf_counter())

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    result = run_multiprocess(
        scenario, workload.until, workers=emulation.config.workers,
        on_epoch=on_epoch,
    )
    wall = perf_counter() - t0
    parent_cpu = _cpu(resource.getrusage(resource.RUSAGE_SELF)) - _cpu(self0)
    worker_cpu = (
        _cpu(resource.getrusage(resource.RUSAGE_CHILDREN)) - _cpu(child0)
    )
    epoch_us = [(b - a) * 1e6 for a, b in zip(marks, marks[1:])] or [0.0]
    metrics = {
        "parallel.spawn_s": result.spawn_s,
        "parallel.parent_cpu_s": parent_cpu,
        "parallel.worker_cpu_s": worker_cpu,
        # Worker CPU includes each worker's rebuild, so the denominator
        # spans spawn plus run phase.
        "parallel.worker_busy_share": worker_cpu
        / (result.workers * (result.spawn_s + result.wall_time_s)),
        "parallel.idle_s": max(0.0, wall - parent_cpu),
        "parallel.epoch_us_p50": percentile(epoch_us, 0.5),
        "parallel.epoch_us_p99": percentile(epoch_us, 0.99),
        "sync.epochs": result.epochs,
        "sync.messages_routed": result.messages_routed,
        "sync.events_per_epoch": (
            result.events_dispatched / result.epochs if result.epochs else 0.0
        ),
    }
    return metrics, result.composed_digest


def _counters(scenario, tracer: Tracer, baseline_wall: float) -> Dict[str, float]:
    emulation = scenario.emulation
    sim = scenario.sim
    report = scenario.report
    monitor = emulation.monitor
    pipes = list(emulation.pipes.values())
    cores = emulation.cores
    events = sim.events_dispatched
    delivered = monitor.packets_delivered
    departures = sum(p.departures for p in pipes)
    wakeups = sum(c.scheduler.wakeups for c in cores)
    serviced = sum(c.scheduler.hops_serviced for c in cores)
    segments = report.metric("tcp.segments_sent", 0)
    retransmits = report.metric("tcp.segments_retransmitted", 0)
    sources = tracer.calls.get("routing.dijkstra", [])
    epochs = getattr(sim, "epochs", 0)
    return {
        "engine.events": events,
        "engine.events_per_pkt": events / delivered if delivered else 0.0,
        "engine.events_per_s": events / baseline_wall,
        "sync.epochs": epochs,
        "sync.messages_routed": report.metric("engine.messages_routed", 0),
        "sync.events_per_epoch": events / epochs if epochs else 0.0,
        "node.hops": sum(c.hops_processed for c in cores),
        "scheduler.wakeups": wakeups,
        "scheduler.hops_per_wakeup": serviced / wakeups if wakeups else 0.0,
        "kernel.batch_share": (
            sum(p.batch_departures for p in pipes) / departures
            if departures else 0.0
        ),
        "pipe.departures": departures,
        "pipe.drops": emulation.virtual_drops(),
        "pipe.peak_backlog": max((p.peak_backlog for p in pipes), default=0),
        "hardware.physical_drops": monitor.physical_drops,
        "tcp.segments_sent": segments,
        "tcp.retransmit_share": retransmits / segments if segments else 0.0,
        "routing.dijkstra_runs": len(sources),
        "routing.dijkstra_per_source": (
            len(set(sources)) / len(sources) if sources else 0.0
        ),
        "routing.invalidations": getattr(
            emulation.routing, "recomputations", 0
        ),
        "faults.applied": report.metric("faults.applied", 0),
    }


def _span_metrics(tracer: Tracer) -> Dict[str, float]:
    own = tracer.self_times()
    return {
        "build.create_s": own.get("build.create", 0.0),
        "build.distill_s": own.get("build.distill", 0.0),
        "build.assign_s": own.get("build.assign", 0.0),
        "build.bind_s": own.get("build.bind", 0.0),
        "build.emulation_s": own.get("build.run", 0.0),
        # Scenario.build outside the pipeline phases: simulator
        # creation, fault-plan installation and traffic setup.
        "build.traffic_s": own.get("setup", 0.0),
        "obs.report_s": own.get("obs.report", 0.0),
    }


def _profile_metrics(profiler, src: str, traced_wall: float,
                     baseline_wall: float) -> Dict[str, float]:
    stats = pstats.Stats(profiler).stats
    cache: Dict[str, str] = {}

    def classify(func) -> str:
        filename = func[0]
        if filename not in cache:
            cache[filename] = layer_of(module_of(filename, src))
        return cache[filename]

    layers = attribute(stats, classify)
    total = sum(layers.values())
    metrics = {f"{name}.self_s": layers.get(name, 0.0) for name in SELF_LAYERS}
    metrics["trace.total_self_s"] = total
    metrics["trace.unattributed_share"] = (
        layers.get(UNATTRIBUTED, 0.0) / total if total else 0.0
    )
    metrics["trace.overhead"] = traced_wall / baseline_wall
    return metrics


def traced_run(workload, seed: int, root: str) -> Dict:
    """Per-layer metrics of one workload: a fixed sequence of
    experiments, whatever the run's time budget."""
    src = os.path.abspath(os.path.join(root, "src"))
    problems: List[str] = []
    metrics: Dict[str, float] = {}
    attempted = 0
    try:
        mp_digest = None
        if workload.backend == "multiprocess":
            attempted += 1
            mp, mp_digest = _mp_metrics(workload, seed)
        # In-process twin: the serial backend with the same domains.
        attempted += 2
        baseline, tracer, baseline_wall = _experiment(workload, seed, "serial")
        profiler = cProfile.Profile()
        traced, _, traced_wall = _experiment(
            workload, seed, "serial", profiler
        )
        for scenario in (baseline, traced):
            problems += output_problems(scenario, multiprocess=False)[1]
        digest = read_digest(traced)
        if read_digest(baseline) != digest:
            problems.append("traced experiment's digest differs from the baseline's")
        if mp_digest is not None and mp_digest != digest:
            problems.append(
                f"multiprocess digest {mp_digest[:12]} differs from the "
                f"serial-partitioned digest {digest[:12]}"
            )
        metrics.update(_counters(baseline, tracer, baseline_wall))
        metrics.update(_span_metrics(tracer))
        metrics.update(
            _profile_metrics(profiler, src, traced_wall, baseline_wall)
        )
        metrics.update(dict.fromkeys(
            (name for name in UNITS if name.startswith("parallel.")), 0.0
        ))
        if mp_digest is not None:
            metrics.update(mp)
    except Exception as error:  # a failed traced pass is a result
        traceback.print_exc(file=sys.stderr)
        problems.append(f"raised {type(error).__name__}: {error}")
    return {
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": 1 if problems else 0,
        "problems": problems,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in sorted(metrics.items())
        },
        "detail": {"events": metrics.get("engine.events")},
    }


#: Unit of every per-layer metric.
UNITS = {
    **{f"{layer}.self_s": "s" for layer in SELF_LAYERS},
    "engine.events": "count",
    "engine.events_per_pkt": "ratio",
    "engine.events_per_s": "1/s",
    "sync.epochs": "count",
    "sync.events_per_epoch": "ratio",
    "sync.messages_routed": "count",
    "parallel.spawn_s": "s",
    "parallel.parent_cpu_s": "s",
    "parallel.worker_cpu_s": "s",
    "parallel.worker_busy_share": "ratio",
    "parallel.idle_s": "s",
    "parallel.epoch_us_p50": "us",
    "parallel.epoch_us_p99": "us",
    "build.create_s": "s",
    "build.distill_s": "s",
    "build.assign_s": "s",
    "build.bind_s": "s",
    "build.emulation_s": "s",
    "build.traffic_s": "s",
    "node.hops": "count",
    "scheduler.wakeups": "count",
    "scheduler.hops_per_wakeup": "ratio",
    "kernel.batch_share": "ratio",
    "pipe.departures": "count",
    "pipe.drops": "count",
    "pipe.peak_backlog": "count",
    "hardware.physical_drops": "count",
    "tcp.segments_sent": "count",
    "tcp.retransmit_share": "ratio",
    "routing.dijkstra_runs": "count",
    "routing.dijkstra_per_source": "ratio",
    "routing.invalidations": "count",
    "faults.applied": "count",
    "obs.report_s": "s",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.total_self_s": "s",
}
