"""The documented front door: ``Scenario``.

One fluent object drives the paper's whole pipeline —
Create → Distill → Assign → Bind → Run — and hands back a
:class:`~repro.obs.RunReport`:

>>> report = (
...     Scenario.from_gml("net.gml")
...     .distill("last-mile")
...     .assign(cores=2)
...     .bind(hosts=4)
...     .config(tick_s=1e-4, seed=7)
...     .run(until=10.0)
... )

Every stage is optional and defaults to the paper's defaults
(hop-by-hop distillation, one core, one host). Traffic is installed
with :meth:`Scenario.traffic` callbacks that receive the built
:class:`~repro.core.emulator.Emulation`; :meth:`Scenario.netperf` is
the canned bulk-TCP workload used throughout the evaluation.

The facade wraps — and does not replace — the explicit
:class:`~repro.core.phases.ExperimentPipeline` /
:class:`~repro.core.emulator.Emulation` construction, which keeps
working unchanged for callers that need custom assignments, bindings,
or routing protocols.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.assign import Assignment
from repro.core.bind import Binding
from repro.core.distill import DistillationMode
from repro.core.emulator import Emulation, EmulationConfig
from repro.core.phases import ExperimentPipeline
from repro.engine.randomness import RngRegistry
from repro.engine.simulator import Simulator
from repro.engine.sync import PartitionedSimulator
from repro.faults import FaultPlan, PLAN_OVERRIDE_KEYS
from repro.hardware.calibration import min_cross_core_latency
from repro.obs import MetricsRegistry, NULL_REGISTRY, RunReport, build_report
from repro.topology.gml import load_gml, parse_gml
from repro.topology.graph import Topology

#: Distillation-mode spellings accepted anywhere a mode is a string.
DISTILL_MODES = {
    "hop-by-hop": DistillationMode.HOP_BY_HOP,
    "last-mile": DistillationMode.WALK_IN,
    "walk-in": DistillationMode.WALK_IN,
    "end-to-end": DistillationMode.END_TO_END,
}


def resolve_distill_mode(
    mode: Union[str, DistillationMode]
) -> DistillationMode:
    if isinstance(mode, DistillationMode):
        return mode
    try:
        return DISTILL_MODES[mode]
    except KeyError:
        raise ValueError(
            f"unknown distillation mode {mode!r}; "
            f"valid: {', '.join(sorted(DISTILL_MODES))}"
        ) from None


@dataclass(frozen=True)
class ScenarioSpec:
    """A picklable, declarative snapshot of a :class:`Scenario`.

    This is what crosses process and run boundaries for sweeps
    (:mod:`repro.exp`) and checkpoint resume: :meth:`Scenario.from_spec`
    rebuilds the identical emulation (builds are deterministic — the
    ``repro.check`` contract). Multiprocess workers do not need it;
    they inherit the parent's built emulation through fork. Only
    declarative traffic survives the round trip, which is why
    :meth:`Scenario.to_spec` rejects custom traffic callables.
    """

    name: str
    topology: Topology
    mode: DistillationMode
    walk_in: int
    walk_out: int
    cores: int
    assignment: Optional[Assignment]
    hosts: int
    strategy: str
    binding: Optional[Binding]
    knobs: dict
    reference: bool
    seed: int
    #: ``(flows, seed)`` per :meth:`Scenario.netperf` call.
    netperf: Tuple[Tuple[int, Optional[int]], ...]
    #: ``(entry_name, ((param, value), ...))`` per
    #: :meth:`Scenario.workload` call — registry workloads from
    #: :mod:`repro.traffic`, portable across process boundaries.
    traffic: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...] = ()
    #: Declarative fault timeline (:class:`repro.faults.FaultPlan`) —
    #: frozen and picklable, so scheduled topology mutation reaches
    #: multiprocess workers, checkpoints, and sweeps intact.
    faults: Optional[FaultPlan] = None

    def with_overrides(self, **overrides) -> "ScenarioSpec":
        """Derive a new spec with the named knobs replaced — the single
        sanctioned way to parameterize sweeps.

        Accepted names, resolved in this order: spec-level fields
        (``name``, ``seed``, ``mode`` — string or enum — ``cores``,
        ``hosts``, ``strategy``, ``walk_in``, ``walk_out``,
        ``reference``, ``topology``), then :class:`EmulationConfig`
        knobs (merged into ``knobs``), then parameters of any
        registered traffic entry this spec carries (applied to every
        entry that declares them; ``flows`` also
        rewrites :meth:`Scenario.netperf` tuples). ``faults`` replaces
        the whole fault plan; the fault-intensity axes
        (:data:`repro.faults.PLAN_OVERRIDE_KEYS`) rewrite the plan's
        perturbation entries *and* any traffic entry sharing the name,
        so one sweep axis moves both. Unknown names raise
        :class:`ValueError` listing the valid ones, the same contract
        as :meth:`Scenario.config`.

        Overriding ``cores`` drops a precomputed assignment and
        ``hosts`` drops a precomputed binding — an explicit placement
        is only valid for the geometry it was computed for.
        """
        from repro.traffic import traffic_params

        spec_passthrough = {
            "name", "topology", "walk_in", "walk_out", "strategy",
            "reference", "seed",
        }
        config_fields = set(EmulationConfig.field_names())
        updates: Dict[str, Any] = {}
        knobs = dict(self.knobs)
        netperf = list(self.netperf)
        traffic = [(name, dict(params)) for name, params in self.traffic]
        faults = self.faults
        unknown = []
        for key, value in overrides.items():
            if key == "mode":
                updates["mode"] = resolve_distill_mode(value)
            elif key == "cores":
                updates["cores"] = int(value)
                updates["assignment"] = None
            elif key == "hosts":
                updates["hosts"] = int(value)
                updates["binding"] = None
            elif key == "faults":
                faults = (
                    value
                    if (value is None or isinstance(value, FaultPlan))
                    else FaultPlan.from_jsonable(value)
                )
            elif key in spec_passthrough:
                updates[key] = value
            else:
                applied = False
                if key in config_fields:
                    knobs[key] = value
                    applied = True
                for name, params in traffic:
                    if key in traffic_params(name):
                        params[key] = value
                        applied = True
                if key == "flows" and netperf:
                    netperf = [(int(value), s) for _, s in netperf]
                    applied = True
                if faults is not None and key in PLAN_OVERRIDE_KEYS:
                    faults = faults.with_overrides(**{key: value})
                    applied = True
                if not applied:
                    unknown.append(key)
        if unknown:
            valid = (
                spec_passthrough
                | {"mode", "cores", "hosts", "faults"}
                | config_fields
            )
            for name, _ in traffic:
                valid |= set(traffic_params(name))
            if netperf:
                valid.add("flows")
            if faults is not None:
                valid |= set(PLAN_OVERRIDE_KEYS)
            raise ValueError(
                f"unknown override knob(s) {sorted(unknown)}; valid: "
                f"{', '.join(sorted(valid))}"
            )
        return replace(
            self,
            knobs=knobs,
            netperf=tuple(netperf),
            traffic=tuple(
                (name, tuple(sorted(params.items())))
                for name, params in traffic
            ),
            faults=faults,
            **updates,
        )


class Scenario:
    """A declarative experiment: topology in, :class:`RunReport` out."""

    def __init__(self, topology: Topology, name: str = ""):
        self.name = name or topology.name or "scenario"
        self._topology = topology
        self._mode: DistillationMode = DistillationMode.HOP_BY_HOP
        self._walk_in = 1
        self._walk_out = 0
        self._cores = 1
        self._assignment: Optional[Assignment] = None
        self._hosts = 1
        self._strategy = "contiguous"
        self._binding: Optional[Binding] = None
        self._knobs: dict = {}
        self._reference = False
        self._seed = 0
        # Observability wiring is parent-side runtime state: a scenario
        # rebuilt from the spec attaches its own registry, so neither
        # field belongs in the ScenarioSpec round-trip.
        self._registry: Optional[MetricsRegistry] = None  # repro: allow-spec-drift
        self._observe = True  # repro: allow-spec-drift
        self._traffic: List[Callable[[Emulation], Any]] = []
        self._fault_plan: Optional[FaultPlan] = None
        #: Resilience knobs (None = plain execution) and an optional
        #: checkpoint to resume from. Parent-side only: neither enters
        #: the spec, so they never change what workers compute.
        self._resilience = None  # repro: allow-spec-drift
        self._resume = None  # repro: allow-spec-drift
        # Build products.
        self.sim: Optional[Union[Simulator, PartitionedSimulator]] = None
        self.pipeline: Optional[ExperimentPipeline] = None
        self.emulation: Optional[Emulation] = None
        self.report: Optional[RunReport] = None
        #: Whatever each traffic setup returned, in registration
        #: order; registry workload handles expose ``metrics()``.
        self.traffic_handles: List[Any] = []
        #: Filled by a multiprocess run: epochs, digests, worker count.
        self.mp_result = None

    # -- Create -----------------------------------------------------------

    @classmethod
    def from_topology(cls, topology: Topology, name: str = "") -> "Scenario":
        """Start from an in-memory topology (any generator/importer)."""
        return cls(topology, name=name)

    @classmethod
    def from_gml(cls, path: str, name: str = "") -> "Scenario":
        """Start from a GML file (the Create phase's lingua franca)."""
        return cls(load_gml(path), name=name)

    @classmethod
    def from_gml_text(cls, text: str, name: str = "") -> "Scenario":
        """Start from GML source text."""
        return cls(parse_gml(text), name=name)

    # -- Distill / Assign / Bind -----------------------------------------

    def distill(
        self,
        mode: Union[str, DistillationMode] = "hop-by-hop",
        walk_in: int = 1,
        walk_out: int = 0,
    ) -> "Scenario":
        """Choose the distillation mode (Sec. 4.1), by name or enum."""
        self._check_mutable()
        self._mode = resolve_distill_mode(mode)
        self._walk_in = walk_in
        self._walk_out = walk_out
        return self

    def assign(
        self,
        cores: int = 1,
        assignment: Optional[Assignment] = None,
    ) -> "Scenario":
        """Partition pipes across ``cores`` (greedy k-clusters), or
        install a precomputed :class:`Assignment`."""
        self._check_mutable()
        if assignment is None and cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        self._cores = assignment.num_cores if assignment else cores
        self._assignment = assignment
        return self

    def bind(
        self,
        hosts: int = 1,
        strategy: str = "contiguous",
        binding: Optional[Binding] = None,
    ) -> "Scenario":
        """Bind VNs onto ``hosts`` edge machines."""
        self._check_mutable()
        if binding is None and hosts < 1:
            raise ValueError(f"hosts must be >= 1, got {hosts}")
        self._hosts = hosts
        self._strategy = strategy
        self._binding = binding
        return self

    # -- Run configuration -------------------------------------------------

    def config(self, **knobs) -> "Scenario":
        """Set :class:`EmulationConfig` knobs by name; unknown names
        raise :class:`ValueError` listing the valid ones.

        ``reference=True`` selects the exact-time, infinite-hardware
        configuration (:meth:`EmulationConfig.reference`) before
        applying the remaining knobs. ``seed=`` is accepted here as a
        convenience for :meth:`seed`.
        """
        self._check_mutable()
        knobs = dict(knobs)
        if knobs.pop("reference", False):
            self._reference = True
        if "seed" in knobs:
            self._seed = knobs.pop("seed")
        valid = set(EmulationConfig.field_names())
        unknown = set(knobs) - valid
        if unknown:
            raise ValueError(
                f"unknown config knob(s) {sorted(unknown)}; valid: "
                f"{', '.join(sorted(valid | {'reference'}))}"
            )
        self._knobs.update(knobs)
        return self

    def seed(self, seed: int) -> "Scenario":
        """Seed for assignment, binding, and pipe-loss randomness."""
        self._check_mutable()
        self._seed = seed
        return self

    def backend(
        self,
        name: str = "serial",
        domains: Optional[int] = None,
        workers: Optional[int] = None,
        kernel: Optional[str] = None,
    ) -> "Scenario":
        """Choose the execution backend.

        ``"serial"`` (the default) runs everything in-process: one
        event domain unless ``domains`` says otherwise, in which case
        the epoch-synchronized partitioned engine runs serially.
        ``"multiprocess"`` runs one event domain per core (or
        ``domains``) across ``workers`` processes (0 = one per
        domain). Digests are identical across worker counts.

        ``kernel`` selects the pipe hot-core implementation
        (``"scalar"`` or ``"batched"``); both kernels
        dispatch digest-identical event streams.
        """
        knobs: dict = {"backend": name}
        if domains is not None:
            knobs["num_domains"] = domains
        if workers is not None:
            knobs["workers"] = workers
        if kernel is not None:
            knobs["kernel"] = kernel
        return self.config(**knobs)

    def observe(
        self,
        enabled: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> "Scenario":
        """Control observability. Scenarios observe by default (they
        exist to produce reports); ``observe(False)`` runs with the
        zero-overhead null registry and the report carries only
        pull-collected statistics."""
        self._check_mutable()
        self._observe = enabled
        self._registry = registry
        return self

    def traffic(self, setup: Callable[[Emulation], Any]) -> "Scenario":
        """Register a traffic generator: ``setup(emulation)`` is
        called once the emulation is built, before the clock runs."""
        self._check_mutable()
        self._traffic.append(setup)
        return self

    def netperf(self, flows: int = 4, seed: Optional[int] = None) -> "Scenario":
        """Canned workload: ``flows`` random-pair bulk TCP streams
        (the paper's netperf senders)."""

        def setup(emulation: Emulation):
            from repro.apps.netperf import TcpStream

            rng = RngRegistry(
                self._seed if seed is None else seed
            ).stream("netperf-pairs")
            vns = list(range(emulation.num_vns))
            rng.shuffle(vns)
            count = min(flows, len(vns) // 2)
            return [
                TcpStream(emulation, vns[2 * i], vns[2 * i + 1])
                for i in range(count)
            ]

        # Declarative marker: lets to_spec() ship this workload to
        # multiprocess workers as plain parameters.
        setup._netperf_params = (flows, seed)
        return self.traffic(setup)

    def workload(self, name: str, **params) -> "Scenario":
        """Install a named workload from the :mod:`repro.traffic`
        registry (``netperf``, ``udp-cbr``, ``cfs``, ``acdc``,
        ``nondeterminism``).

        Registry workloads are declarative: they survive
        :meth:`to_spec`/:meth:`from_spec`, so sweeps and multiprocess
        workers can carry them as plain ``(name, params)`` data.
        Unknown entry or parameter names raise :class:`ValueError`.
        """
        from repro.traffic import make_setup

        self._check_mutable()
        return self.traffic(make_setup(name, params))

    def variants(self, **axes) -> List[ScenarioSpec]:
        """Expand this scenario into the cartesian product of the
        given axes, one :class:`ScenarioSpec` per point.

        Each axis is ``knob=[value, ...]`` with any name
        :meth:`ScenarioSpec.with_overrides` accepts. Axes expand in
        keyword order with the last axis varying fastest, so the list
        order is deterministic:

        >>> specs = scenario.variants(seed=[1, 2], cores=[1, 4])
        >>> [(s.seed, s.cores) for s in specs]
        [(1, 1), (1, 4), (2, 1), (2, 4)]
        """
        base = self.to_spec()
        names = list(axes)
        return [
            base.with_overrides(**dict(zip(names, point)))
            for point in itertools.product(*(axes[n] for n in names))
        ]

    def faults(self, plan) -> "Scenario":
        """Install a declarative fault timeline
        (:class:`repro.faults.FaultPlan`, or its JSON-able mapping
        form). The plan travels inside the :class:`ScenarioSpec`, is
        applied by the single sanctioned applier on the owning
        kernel, and produces digest-identical event streams across
        backends, worker counts, and kernels. Validated against the
        topology — and against the partitioned lookahead floor — at
        :meth:`build`."""
        self._check_mutable()
        if plan is not None and not isinstance(plan, FaultPlan):
            plan = FaultPlan.from_jsonable(plan)
        self._fault_plan = plan
        return self

    def resilience(
        self,
        checkpoint_every: Optional[float] = None,
        checkpoint: Optional[str] = None,
        max_wall: Optional[float] = None,
        max_rss_mb: Optional[float] = None,
        max_events: Optional[int] = None,
        epoch_timeout: Optional[float] = None,
        heartbeat_interval: Optional[float] = None,
        retries: Optional[int] = None,
        degrade: Optional[bool] = None,
        chaos_kill: Optional[Tuple[int, int]] = None,
        chaos_signal: Optional[int] = None,
    ) -> "Scenario":
        """Enable supervised execution (see :mod:`repro.resilience`).

        Any non-``None`` argument updates the scenario's
        :class:`~repro.resilience.policy.ResilienceConfig`; calling
        with no arguments enables the resilient run path with
        defaults. These knobs are parent-side only — they never enter
        the spec, so digests are unaffected. Unlike pipeline stages
        they may be set after :meth:`build` (they configure the run,
        not the object graph). ``heartbeat_interval=0`` switches
        heartbeats off; a negative interval or a non-positive
        ``epoch_timeout`` raises :class:`ValueError` and leaves the
        configuration unchanged.
        """
        from repro.resilience import ResilienceConfig
        from repro.resilience.policy import check_supervision_timing

        cfg = self._resilience or ResilienceConfig()
        check_supervision_timing(
            cfg.epoch_timeout_s if epoch_timeout is None else epoch_timeout,
            (
                cfg.heartbeat_interval_s
                if heartbeat_interval is None
                else heartbeat_interval
            ),
        )
        if checkpoint_every is not None:
            cfg.checkpoint_every_s = float(checkpoint_every)
        if checkpoint is not None:
            cfg.checkpoint_path = checkpoint
        if max_wall is not None:
            cfg.max_wall_s = float(max_wall)
        if max_rss_mb is not None:
            cfg.max_rss_mb = float(max_rss_mb)
        if max_events is not None:
            cfg.max_events = int(max_events)
        if epoch_timeout is not None:
            cfg.epoch_timeout_s = float(epoch_timeout)
        if heartbeat_interval is not None:
            cfg.heartbeat_interval_s = float(heartbeat_interval)
        if retries is not None:
            cfg.max_attempts = int(retries)
        if degrade is not None:
            cfg.degrade = bool(degrade)
        if chaos_kill is not None:
            cfg.chaos_kill = chaos_kill
        if chaos_signal is not None:
            cfg.chaos_signal = chaos_signal
        self._resilience = cfg
        return self

    @classmethod
    def from_checkpoint(cls, checkpoint) -> "Scenario":
        """Reconstruct a scenario from a checkpoint (path or
        :class:`~repro.resilience.checkpoint.Checkpoint`) for
        ``--resume``: the run replays deterministically from t=0,
        *verifies* digests/event counts/RNG states at the checkpoint
        barrier, then continues to ``until``. Like every
        :meth:`from_spec` rebuild, the resumed scenario observes with
        the null registry."""
        from repro.resilience import Checkpoint, load_checkpoint

        if not isinstance(checkpoint, Checkpoint):
            checkpoint = load_checkpoint(checkpoint)
        scenario = cls.from_spec(checkpoint.spec)
        scenario._resume = checkpoint
        return scenario

    # -- Build / Run --------------------------------------------------------

    def _check_mutable(self) -> None:
        if self.emulation is not None:
            raise RuntimeError("scenario already built; stages are frozen")

    @property
    def registry(self) -> MetricsRegistry:
        """The live registry (or the shared null one when disabled)."""
        if not self._observe:
            return NULL_REGISTRY
        if self._registry is None:
            self._registry = MetricsRegistry()
        return self._registry

    def _resolved_domains(self, config: EmulationConfig) -> int:
        """Domain count for this scenario: explicit ``num_domains``,
        else the backend default (cores for multiprocess, 1 for
        serial), never more than the core count."""
        domains = config.num_domains
        if domains <= 0:
            domains = self._cores if config.backend == "multiprocess" else 1
        return min(domains, self._cores)

    def build(self) -> Emulation:
        """Walk the pipeline and construct the emulation (idempotent);
        traffic callbacks fire here."""
        if self.emulation is not None:
            return self.emulation
        registry = self.registry
        config = (
            EmulationConfig.reference(**self._knobs)
            if self._reference
            else EmulationConfig(**self._knobs)
        )
        num_domains = self._resolved_domains(config)
        if num_domains > 1:
            self.sim = PartitionedSimulator(
                num_domains,
                lookahead=min_cross_core_latency(config.core_spec),
                kernel=config.kernel,
            )
        else:
            self.sim = Simulator(kernel=config.kernel)
        with registry.timed("phase.build_s"):
            pipeline = ExperimentPipeline(self.sim, seed=self._seed)
            pipeline.create(self._topology)
            pipeline.distill(
                self._mode, walk_in=self._walk_in, walk_out=self._walk_out
            )
            pipeline.assign(self._cores, assignment=self._assignment)
            pipeline.bind(self._hosts, self._strategy, binding=self._binding)
            self.pipeline = pipeline
            self.emulation = pipeline.run(
                config, registry=registry if registry.enabled else None
            )
        registry.gauge("distill.pipes").set(self.pipeline.distillation.total_pipes)
        registry.gauge("distill.preserved_links").set(
            self.pipeline.distillation.preserved_links
        )
        # The fault plan arms before traffic setups so workload
        # handles (e.g. acdc) can read emulation.fault_applier.
        if self._fault_plan is not None and self._fault_plan:
            self.emulation.install_fault_plan(self._fault_plan)
        self.traffic_handles = [
            setup(self.emulation) for setup in self._traffic
        ]
        return self.emulation

    def _export_traffic_metrics(self, report: RunReport) -> None:
        """Fold workload-level results (``handle.metrics()``) into the
        report under ``traffic.<entry>.<key>``. Only meaningful after
        the clock ran in *this* process, so the multiprocess parent —
        whose emulation never runs — skips it."""
        for handle in self.traffic_handles:
            metrics = getattr(handle, "metrics", None)
            if callable(metrics):
                for key, value in metrics().items():
                    report.metrics[f"traffic.{key}"] = value

    def run(self, until: Optional[float] = None) -> RunReport:
        """Build (if needed), run the clock to ``until`` virtual
        seconds, and return the :class:`RunReport`.

        ``until`` defaults to the original run's target when resuming
        from a checkpoint. With resilience configured (or a resume
        pending) the supervised run path applies: budget guards,
        checkpoints, verified resume, and multiprocess degradation;
        a budget abort raises
        :class:`~repro.resilience.policy.RunAborted` carrying the
        partial report.
        """
        if until is None:
            if self._resume is None:
                raise ValueError(
                    "until is required (only checkpoint resumes have "
                    "an implied target)"
                )
            until = self._resume.until
        if until <= 0:
            raise ValueError(f"until must be > 0, got {until}")
        emulation = self.build()
        registry = self.registry
        multiprocess = (
            emulation.config.backend == "multiprocess"
            and emulation.num_domains > 1
        )
        if self._resilience is not None or self._resume is not None:
            from repro.resilience import ResilienceConfig

            res = self._resilience or ResilienceConfig()
            if multiprocess:
                return self._run_multiprocess_resilient(
                    until, registry, res
                )
            return self._run_serial_resilient(until, registry, res)
        if multiprocess:
            return self._run_multiprocess(until, registry)
        t0 = perf_counter()
        with registry.timed("phase.run_s"):
            self.sim.run(until=until)
        wall = perf_counter() - t0
        self.report = build_report(
            emulation,
            registry=registry if registry.enabled else None,
            name=self.name,
            wall_time_s=wall,
        )
        self._export_traffic_metrics(self.report)
        return self.report

    def _run_multiprocess(
        self, until: float, registry: MetricsRegistry
    ) -> RunReport:
        """Run across worker processes; the parent's (never-run)
        emulation is patched with the merged statistics, so the
        standard report path applies. Worker-resident state the
        parent cannot patch (TCP stacks, edge CPUs) arrives as a
        metric overlay."""
        from repro.engine.parallel import run_multiprocess

        t0 = perf_counter()
        with registry.timed("phase.run_s"):
            result = run_multiprocess(
                self, until, workers=self.emulation.config.workers
            )
        wall = perf_counter() - t0
        self.mp_result = result
        self.report = build_report(
            self.emulation,
            registry=registry if registry.enabled else None,
            name=self.name,
            wall_time_s=wall,
        )
        self.report.metrics.update(result.metric_overlay)
        return self.report

    # -- resilient run paths ----------------------------------------------

    def _checkpoint_writer(self, res, until):
        from repro.resilience import CheckpointWriter

        if not res.checkpoint_every_s:
            return None
        path = res.checkpoint_path or f"{self.name}.ckpt"
        return CheckpointWriter(
            path, res.checkpoint_every_s, self.to_spec(), until, self._seed
        )

    def _annotate_resilience(
        self,
        report: RunReport,
        outcome: str,
        digest: str,
        events: Optional[int] = None,
        writer=None,
        counters=None,
        downgrades: int = 0,
    ) -> None:
        """Record ``run.outcome`` and every resilience counter in the
        report — present (zero-valued if idle) on all resilient runs,
        so partial reports are machine-checkable."""
        merged = {"heartbeats_missed": 0, "workers_restarted": 0, "retries": 0}
        if counters:
            merged.update(counters)
        metrics = report.metrics
        metrics["run.outcome"] = outcome
        metrics["run.digest"] = digest
        if events is not None:
            metrics["run.events"] = events
        metrics["resilience.heartbeats_missed"] = merged["heartbeats_missed"]
        metrics["resilience.workers_restarted"] = merged["workers_restarted"]
        metrics["resilience.retries"] = merged["retries"]
        metrics["resilience.checkpoints_written"] = (
            writer.written if writer is not None else 0
        )
        metrics["resilience.downgrades"] = downgrades

    def _run_serial_resilient(
        self,
        until: float,
        registry: MetricsRegistry,
        res,
        degrade_reason: Optional[str] = None,
        counters=None,
    ) -> RunReport:
        """Serial execution under supervision: digest streaming, budget
        checks and checkpoints at barriers, verified resume.

        Partitioned scenarios hook the epoch barrier (`on_epoch`), so
        budget/checkpoint logic never alters the epoch structure;
        single-domain scenarios run in virtual-time chunks, which is
        stream-identical for one kernel. Also the landing path for
        multiprocess degradation (``degrade_reason`` set): the parent's
        never-run emulation executes serially with identical digests
        by construction.
        """
        from repro.check.sanitize import SimSanitizer
        from repro.resilience import (
            BudgetExceeded,
            CheckpointError,
            ResumeVerifier,
            RunAborted,
        )

        emulation = self.emulation
        sim = self.sim
        resume = self._resume
        budget = res.budget().start()
        writer = self._checkpoint_writer(res, until)
        verifier = ResumeVerifier(resume) if resume is not None else None
        partitioned = (
            getattr(sim, "domains", None) is not None and sim.num_domains > 1
        )
        sanitizer = SimSanitizer(keep_records=False).attach(sim)
        abort: Optional[BudgetExceeded] = None
        t0 = perf_counter()
        try:
            with registry.timed("phase.run_s"):
                if partitioned:
                    self._drive_partitioned_serial(
                        sim, emulation, until, budget, writer, verifier,
                        sanitizer, resume,
                    )
                else:
                    self._drive_single_domain(
                        sim, emulation, until, res, budget, writer,
                        verifier, sanitizer, resume,
                    )
        except BudgetExceeded as exc:
            abort = exc
        finally:
            sanitizer.detach()
        wall = perf_counter() - t0
        report = build_report(
            emulation,
            registry=registry if registry.enabled else None,
            name=self.name,
            wall_time_s=wall,
        )
        self._export_traffic_metrics(report)
        self.report = report
        if abort is not None:
            outcome = f"aborted{{reason={abort.reason}}}"
        elif degrade_reason is not None:
            outcome = f"degraded{{reason={degrade_reason}}}"
        else:
            outcome = "completed"
        self._annotate_resilience(
            report,
            outcome=outcome,
            digest=sanitizer.digest,
            events=sanitizer.events_observed(),
            writer=writer,
            counters=counters,
            downgrades=1 if degrade_reason is not None else 0,
        )
        if resume is not None:
            report.metrics["run.resumed_from_t"] = resume.barrier_time
        if abort is not None:
            raise RunAborted(abort.reason, report=report, detail=str(abort))
        if verifier is not None and not verifier.verified:
            raise CheckpointError(
                "resume completed without crossing the checkpoint "
                f"barrier (t={resume.barrier_time:g}); the replayed "
                "prefix was never verified — is `until` shorter than "
                "the checkpoint?"
            )
        return report

    def _drive_partitioned_serial(
        self, sim, emulation, until, budget, writer, verifier, sanitizer,
        resume,
    ) -> None:
        from repro.resilience import rng_stream_states

        applier = emulation.fault_applier

        def on_epoch(epoch_index: int, horizon: float) -> None:
            events = sanitizer.events_observed()
            budget.check(events=events)
            if (
                verifier is not None
                and not verifier.verified
                and resume.epoch is not None
                and epoch_index == resume.epoch
            ):
                verifier.verify(
                    digest=sanitizer.digest,
                    events=events,
                    domain_digests=sanitizer.domain_digests(),
                    rng_states=rng_stream_states(emulation.rng),
                    fault_cursor=(
                        applier.applied if applier is not None else None
                    ),
                    link_state=(
                        applier.link_state() if applier is not None else None
                    ),
                )
            if writer is not None and writer.due(horizon):
                writer.write(
                    barrier_time=horizon,
                    events=events,
                    digest=sanitizer.digest,
                    epoch=epoch_index,
                    domain_digests=sanitizer.domain_digests(),
                    domain_counts=sanitizer.domain_counts(),
                    snapshots=sim.snapshot(),
                    rng_states=rng_stream_states(emulation.rng),
                    metrics={"sim.events_dispatched": events},
                    fault_cursor=(
                        applier.applied if applier is not None else None
                    ),
                    link_state=(
                        applier.link_state() if applier is not None else None
                    ),
                )

        sim.on_epoch = on_epoch
        try:
            sim.run(until=until)
        finally:
            sim.on_epoch = None

    def _drive_single_domain(
        self, sim, emulation, until, res, budget, writer, verifier,
        sanitizer, resume,
    ) -> None:
        from repro.resilience import rng_stream_states

        if writer is None and verifier is None and not budget.active:
            sim.run(until=until)
            return
        # Chunking one kernel at virtual-time marks is stream-identical
        # to a single run (the heap and seq counter are untouched), so
        # barriers here are free determinism-wise.
        step = res.checkpoint_every_s or (until / 16.0)
        next_mark = step
        while sim.now < until:
            target = min(until, next_mark)
            if (
                verifier is not None
                and not verifier.verified
                and sim.now < resume.barrier_time
            ):
                target = min(target, resume.barrier_time)
            if target <= sim.now:
                next_mark += step
                continue
            sim.run(until=target)
            events = sanitizer.events_observed()
            budget.check(events=events)
            applier = emulation.fault_applier
            if (
                verifier is not None
                and not verifier.verified
                and sim.now >= resume.barrier_time
            ):
                verifier.verify(
                    digest=sanitizer.digest,
                    events=events,
                    rng_states=rng_stream_states(emulation.rng),
                    fault_cursor=(
                        applier.applied if applier is not None else None
                    ),
                    link_state=(
                        applier.link_state() if applier is not None else None
                    ),
                )
            if writer is not None and writer.due(sim.now):
                writer.write(
                    barrier_time=sim.now,
                    events=events,
                    digest=sanitizer.digest,
                    epoch=None,
                    snapshots=[sim.snapshot()],
                    rng_states=rng_stream_states(emulation.rng),
                    metrics={"sim.events_dispatched": events},
                    fault_cursor=(
                        applier.applied if applier is not None else None
                    ),
                    link_state=(
                        applier.link_state() if applier is not None else None
                    ),
                )
            while next_mark <= sim.now:
                next_mark += step

    def _run_multiprocess_resilient(
        self, until: float, registry: MetricsRegistry, res
    ) -> RunReport:
        """Supervised multiprocess run: verified worker recovery via
        the supervisor, budget checks and checkpoints at epoch
        barriers, and (by default) degradation to serial partitioned
        execution when a worker is unrecoverable — same digests by
        construction, with the downgrade recorded in the report."""
        from repro.check.sanitize import compose_domain_digests
        from repro.engine.parallel import run_multiprocess
        from repro.resilience import (
            CheckpointError,
            ResumeVerifier,
            RunAborted,
            SupervisionEscalation,
        )

        emulation = self.emulation
        resume = self._resume
        budget = res.budget().start()
        writer = self._checkpoint_writer(res, until)
        verifier = ResumeVerifier(resume) if resume is not None else None

        def on_epoch(epoch_index, horizon, digests, counts) -> None:
            events = sum(counts.values())
            if (
                verifier is not None
                and not verifier.verified
                and resume.epoch is not None
                and epoch_index == resume.epoch
            ):
                verifier.verify(
                    digest=compose_domain_digests(digests),
                    events=events,
                    domain_digests=digests,
                )
            if writer is not None and writer.due(horizon):
                writer.write(
                    barrier_time=horizon,
                    events=events,
                    digest=compose_domain_digests(digests),
                    epoch=epoch_index,
                    domain_digests=digests,
                    domain_counts=counts,
                    metrics={"sim.events_dispatched": events},
                )

        t0 = perf_counter()
        try:
            with registry.timed("phase.run_s"):
                result = run_multiprocess(
                    self,
                    until,
                    workers=emulation.config.workers,
                    policy=res.retry_policy(self._seed),
                    epoch_timeout_s=res.epoch_timeout_s,
                    heartbeat_interval_s=res.heartbeat_interval_s,
                    budget=budget,
                    on_epoch=on_epoch,
                    chaos_kill=res.chaos_kill,
                    chaos_signal=res.chaos_signal,
                )
        except SupervisionEscalation as escalation:
            if not res.degrade:
                raise
            return self._run_serial_resilient(
                until,
                registry,
                res,
                degrade_reason=(
                    f"worker {escalation.worker} unrecoverable after "
                    f"{escalation.attempts} attempt(s)"
                ),
                counters=getattr(escalation, "counters", None),
            )
        wall = perf_counter() - t0
        self.mp_result = result
        report = build_report(
            emulation,
            registry=registry if registry.enabled else None,
            name=self.name,
            wall_time_s=wall,
        )
        report.metrics.update(result.metric_overlay)
        self.report = report
        outcome = (
            "completed"
            if result.outcome == "completed"
            else f"aborted{{reason={result.abort_reason}}}"
        )
        self._annotate_resilience(
            report,
            outcome=outcome,
            digest=result.composed_digest,
            events=result.events_dispatched,
            writer=writer,
            counters={
                "heartbeats_missed": result.heartbeats_missed,
                "workers_restarted": result.workers_restarted,
                "retries": result.retries,
            },
        )
        if resume is not None:
            report.metrics["run.resumed_from_t"] = resume.barrier_time
        if result.outcome != "completed":
            raise RunAborted(
                result.abort_reason or "aborted",
                report=report,
                detail=str(result.budget_error or ""),
            )
        if verifier is not None and not verifier.verified:
            raise CheckpointError(
                "resume completed without crossing the checkpoint "
                f"barrier (epoch {resume.epoch}); the replayed prefix "
                "was never verified — is `until` shorter than the "
                "checkpoint?"
            )
        return report

    # -- spec round trip (multiprocess workers) ---------------------------

    def to_spec(self) -> ScenarioSpec:
        """Snapshot this scenario as picklable plain data.

        Raises :class:`ValueError` if any registered traffic callback
        is not declarative (i.e. not from :meth:`netperf` or
        :meth:`workload`) — closures cannot be rebuilt in another
        process or run reproducibly.
        """
        netperf: List[Tuple[int, Optional[int]]] = []
        traffic: List[Tuple[str, Tuple[Tuple[str, Any], ...]]] = []
        for setup in self._traffic:
            entry = getattr(setup, "_traffic_entry", None)
            if entry is not None:
                traffic.append(entry)
                continue
            params = getattr(setup, "_netperf_params", None)
            if params is None:
                raise ValueError(
                    "a ScenarioSpec carries declarative traffic only "
                    "(Scenario.netperf / Scenario.workload); custom "
                    "traffic callables cannot be rebuilt from a spec"
                )
            netperf.append(params)
        return ScenarioSpec(
            name=self.name,
            topology=self._topology,
            mode=self._mode,
            walk_in=self._walk_in,
            walk_out=self._walk_out,
            cores=self._cores,
            assignment=self._assignment,
            hosts=self._hosts,
            strategy=self._strategy,
            binding=self._binding,
            knobs=dict(self._knobs),
            reference=self._reference,
            seed=self._seed,
            netperf=tuple(netperf),
            traffic=tuple(traffic),
            faults=self._fault_plan,
        )

    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "Scenario":
        """Reconstruct a fresh, unbuilt scenario from a spec.

        The rebuilt scenario observes with the null registry (sweep
        runs and resumes opt back in with :meth:`observe`).
        """
        scenario = cls(spec.topology, name=spec.name)
        scenario._mode = spec.mode
        scenario._walk_in = spec.walk_in
        scenario._walk_out = spec.walk_out
        scenario._cores = spec.cores
        scenario._assignment = spec.assignment
        scenario._hosts = spec.hosts
        scenario._strategy = spec.strategy
        scenario._binding = spec.binding
        scenario._knobs = dict(spec.knobs)
        scenario._reference = spec.reference
        scenario._seed = spec.seed
        scenario._observe = False
        for flows, flow_seed in spec.netperf:
            scenario.netperf(flows, flow_seed)
        for entry_name, entry_params in getattr(spec, "traffic", ()):
            scenario.workload(entry_name, **dict(entry_params))
        if getattr(spec, "faults", None) is not None:
            scenario.faults(spec.faults)
        return scenario

    def __repr__(self) -> str:
        built = "built" if self.emulation is not None else "unbuilt"
        return (
            f"<Scenario {self.name!r} mode={self._mode.name} "
            f"cores={self._cores} hosts={self._hosts} {built}>"
        )
