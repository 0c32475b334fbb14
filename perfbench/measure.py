"""The untraced measurement: repeated experiments, output checks and the
end-to-end metrics.

One experiment is one public call sequence: ``Scenario.build()`` then
``Scenario.run(until)``, in a fresh interpreter. A run repeats the
experiment with the same seed until its time budget is spent, so every
experiment of a run must dispatch the same events with the same digest.

Host times are CPU seconds, so time the process spends descheduled
(other processes, the hypervisor's steal) does not count: the build is
this process's CPU time, the run phase that of this process and its
worker processes. Only ``spawn_s`` is wall-clock, as the program
reports it. Every host time is then scaled to reference machine speed:
each experiment times the calibration workload of
:mod:`perfbench.calibrate` around its run phase, and its times are
multiplied by ``REFERENCE_S / calibration_s``.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass, field
from time import perf_counter, process_time
from typing import Dict, List, Optional

from perfbench import calibrate
from perfbench.stats import check_conservation, conservation_gap, median

#: Experiments per run even when one alone outlasts the budget: the
#: determinism check needs repeats and the medians need an odd count.
MIN_EXPERIMENTS = 3
#: An experiment process that runs longer than this has hung.
EXPERIMENT_TIMEOUT_S = 120


@dataclass
class Experiment:
    setup_s: float = 0.0
    #: Wall-clock seconds of the run phase.
    run_s: float = 0.0
    #: CPU seconds of the run phase, in this process and its workers.
    run_cpu_s: float = 0.0
    spawn_s: float = 0.0
    #: Median CPU seconds of the calibration samples around the run.
    calibration_s: float = 0.0
    delivered: int = 0
    events: int = 0
    digest: Optional[str] = None
    p99_error_s: float = 0.0
    conservation_gap: int = 0
    problems: List[str] = field(default_factory=list)
    #: Extra ``Scenario.build()`` samples taken before the experiment.
    build_samples: List[float] = field(default_factory=list)
    #: Peak RSS of the experiment's process and its largest child.
    peak_rss_mb: float = 0.0


def arm_digest(sim) -> None:
    """Arm the streaming event digest on every in-process domain."""
    for domain in getattr(sim, "domains", None) or [sim]:
        domain.enable_digest()


def read_digest(scenario) -> Optional[str]:
    """The run's event digest: composed per-domain digests on a
    partitioned or multiprocess run, else the single domain's."""
    from repro.check.sanitize import compose_domain_digests

    if scenario.mp_result is not None:
        return scenario.mp_result.composed_digest
    domains = getattr(scenario.sim, "domains", None)
    if domains and len(domains) > 1:
        return compose_domain_digests(
            {d.domain_id: d.digest_hexdigest() for d in domains}
        )
    return scenario.sim.digest_hexdigest()


def pipe_in_flight(emulation) -> int:
    """Packets inside pipes, from the public counters. A multiprocess
    parent never holds packets, but its counters are merged from the
    workers, so this works on every backend."""
    return sum(
        p.arrivals - p.departures - p.drops_overflow - p.drops_random
        - p.drops_down
        for p in emulation.pipes.values()
    )


def output_problems(scenario, multiprocess: bool) -> tuple:
    """(conservation gap, problems) for a finished experiment."""
    emulation = scenario.emulation
    monitor = emulation.monitor
    in_pipes = pipe_in_flight(emulation)
    problems: List[str] = []
    if not multiprocess:
        held = sum(p.in_flight for p in emulation.pipes.values())
        if held != in_pipes:
            problems.append(
                f"pipe counters say {in_pipes} packets in flight, "
                f"pipes hold {held}"
            )
    gap = conservation_gap(
        monitor.packets_entered,
        monitor.packets_delivered,
        emulation.virtual_drops(),
        monitor.physical_drops,
        in_pipes,
    )
    between_cores = sum(
        c.tunnels_sent - c.tunnels_received for c in emulation.cores
    )
    problems += check_conservation(gap, between_cores)
    if monitor.packets_delivered <= 0:
        problems.append("no packet was delivered")
    return gap, problems


def run_experiment(workload, seed: int) -> Experiment:
    """Build and run one experiment; failures become ``problems``."""
    exp = Experiment()
    try:
        scenario = workload.make(seed, workload.backend)
        t0 = process_time()
        scenario.build()
        build_s = process_time() - t0
        multiprocess = workload.backend == "multiprocess"
        if not multiprocess:
            arm_digest(scenario.sim)
        samples = [calibrate.sample_s() for _ in range(calibrate.SAMPLES)]
        cpu0 = process_time() + children_cpu_s()
        t0 = perf_counter()
        scenario.run(until=workload.until)
        wall = perf_counter() - t0
        exp.run_cpu_s = process_time() + children_cpu_s() - cpu0
        samples += [calibrate.sample_s() for _ in range(calibrate.SAMPLES)]
        exp.calibration_s = median(samples)
        if multiprocess:
            exp.spawn_s = scenario.mp_result.spawn_s
        exp.setup_s = build_s + exp.spawn_s
        exp.run_s = wall - exp.spawn_s
        monitor = scenario.emulation.monitor
        exp.delivered = monitor.packets_delivered
        exp.events = scenario.sim.events_dispatched
        exp.digest = read_digest(scenario)
        exp.p99_error_s = monitor.report().p99_error_s
        exp.conservation_gap, exp.problems = output_problems(
            scenario, multiprocess
        )
    except Exception as error:  # a failed experiment is a result
        traceback.print_exc(file=sys.stderr)
        exp.problems.append(f"raised {type(error).__name__}: {error}")
    return exp


def consistency_problems(experiments: List[Experiment]) -> List[str]:
    """Same-seed experiments must agree on every virtual-time output."""
    good = [e for e in experiments if not e.problems]
    problems = []
    for e in good[1:]:
        first = good[0]
        if (e.events, e.digest, e.p99_error_s) != (
            first.events, first.digest, first.p99_error_s
        ):
            problems.append(
                f"same-seed experiments differ: {e.events} vs "
                f"{first.events} events, digest {str(e.digest)[:12]} vs "
                f"{str(first.digest)[:12]}"
            )
            break
    return problems


def children_cpu_s() -> float:
    """CPU seconds of this process's reaped children (the workers)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (the
    multiprocess workers), in MB (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def build_samples(workload, seed: int, count: int) -> List[float]:
    """CPU seconds of ``count`` extra ``Scenario.build()`` calls."""
    samples = []
    for _ in range(count):
        scenario = workload.make(seed, workload.backend)
        t0 = process_time()
        scenario.build()
        samples.append(process_time() - t0)
    return samples


def experiment_main(workload, seed: int) -> Dict:
    """Body of one experiment process: the extra build samples, the
    experiment, then the process's peak RSS."""
    builds = build_samples(workload, seed, workload.extra_builds)
    exp = run_experiment(workload, seed)
    exp.build_samples = builds
    exp.peak_rss_mb = peak_rss_mb()
    return asdict(exp)


def spawn_experiment(workload, seed: int, run_py: str, root: str) -> Experiment:
    """Run one experiment in a fresh interpreter, so neither heap, GC
    state nor peak RSS carries over from the previous one."""
    cmd = [
        sys.executable, run_py, "--workload", workload.name,
        "--seed", str(seed), "--experiment",
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True,
            timeout=EXPERIMENT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Experiment(
            problems=[f"experiment ran over {EXPERIMENT_TIMEOUT_S} s"]
        )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return Experiment(
            problems=[f"experiment process exited with {proc.returncode}"]
        )
    return Experiment(**json.loads(lines[-1]))


def reference_scale(exp: Experiment) -> float:
    """Factor that turns this experiment's host seconds into seconds at
    reference machine speed."""
    return calibrate.REFERENCE_S / exp.calibration_s


def measure(workload, seed: int, seconds: float, run_py: str,
            root: str) -> Dict:
    """Run experiments for about ``seconds`` and summarize them."""
    start = perf_counter()
    experiments: List[Experiment] = []
    durations: List[float] = []
    while True:
        t0 = perf_counter()
        experiments.append(spawn_experiment(workload, seed, run_py, root))
        durations.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        if experiments[-1].problems or (
            len(experiments) >= MIN_EXPERIMENTS
            and elapsed + median(durations) > seconds
        ):
            break
    failed = sum(1 for e in experiments if e.problems)
    problems = [p for e in experiments for p in e.problems]
    problems += consistency_problems(experiments)
    good = [e for e in experiments if not e.problems]
    setups = [
        s * reference_scale(e)
        for e in good
        for s in e.build_samples + [e.setup_s]
    ]
    # Run phases in CPU seconds at reference speed.
    runs = [(e.delivered, e.run_cpu_s * reference_scale(e)) for e in good]
    metrics: Dict[str, Dict] = {}
    if good:
        metrics = {
            "pkts_per_s": (median([d / r for d, r in runs]), "pkts/s"),
            "vsec_per_s": (median([workload.until / r for _, r in runs]), "vs/s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (median([e.peak_rss_mb for e in good]), "MB"),
            "emu_error_us_p99": (good[0].p99_error_s * 1e6, "virtual_us"),
            "ok_share": ((len(experiments) - failed) / len(experiments), "ratio"),
        }
    return {
        "correct": not problems,
        "attempted": len(experiments),
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {
            "experiments": len(experiments),
            "setup_samples": len(setups),
            "run_s": [round(e.run_s, 4) for e in experiments],
            "run_cpu_s": [round(e.run_cpu_s, 4) for e in experiments],
            "calibration_s": [round(e.calibration_s, 4) for e in experiments],
            "events": experiments[0].events,
            "delivered": experiments[0].delivered,
            "conservation_gap": experiments[0].conservation_gap,
            "digest": experiments[0].digest,
        },
    }
