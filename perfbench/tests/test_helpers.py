"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q

Pure tests: no emulation is built, except by the attribution test,
which profiles two small functions.
"""

import cProfile
import os
import pstats
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import calibrate  # noqa: E402
from perfbench.measure import Experiment, reference_scale  # noqa: E402
from perfbench.stats import (  # noqa: E402
    check_conservation,
    conservation_gap,
    covered_length,
    median,
    percentile,
    self_times,
)
from perfbench.tracing import (  # noqa: E402
    PASS,
    UNATTRIBUTED,
    attribute,
    layer_of,
    module_of,
)


# -- percentile / median --------------------------------------------------

def test_percentile_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile(values, 0.0) == 1
    assert percentile([7.0], 0.99) == 7.0


def test_percentile_ignores_input_order():
    assert percentile([5, 1, 4, 2, 3], 0.6) == 3


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_median_odd_and_even():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        median([])


# -- conservation ---------------------------------------------------------

def test_conservation_exact_on_one_core():
    gap = conservation_gap(
        entered=100, delivered=80, virtual_drops=5, physical_drops=3,
        pipe_in_flight=12,
    )
    assert gap == 0
    assert check_conservation(gap, cross_core_in_flight=0) == []


def test_conservation_flags_lost_and_double_counted_packets():
    lost = conservation_gap(100, 80, 5, 3, 10)
    assert lost == 2
    assert "unaccounted" in check_conservation(lost, 0)[0]
    twice = conservation_gap(100, 80, 5, 3, 14)
    assert twice == -2
    assert "counted twice" in check_conservation(twice, 0)[0]


def test_conservation_allows_packets_between_cores():
    assert check_conservation(2, cross_core_in_flight=5) == []
    assert check_conservation(-2, cross_core_in_flight=5) == []
    assert check_conservation(6, cross_core_in_flight=5) != []
    assert check_conservation(-6, cross_core_in_flight=5) != []


# -- self-time arithmetic ---------------------------------------------------

def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (2, 3)]) == 2
    assert covered_length([(0, 2), (1, 3)]) == 3
    assert covered_length([(0, 4), (1, 2)]) == 4


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),  # overlaps a: coverage 1..5, not 2 + 3
        ("c", 3.0, 4.0, 2),  # grandchild: reduces b only
        ("a", 6.0, 7.0, 0),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 5.0)
    assert own["b"] == pytest.approx(3.0 - 1.0)
    assert own["c"] == pytest.approx(1.0)
    assert own["a"] == pytest.approx(2.0 + 1.0)


def test_self_time_clips_children_to_parent():
    spans = [("p", 0.0, 2.0, -1), ("k", 1.0, 5.0, 0)]
    assert self_times(spans)["p"] == pytest.approx(1.0)


# -- module -> layer mapping --------------------------------------------------

@pytest.mark.parametrize(
    "module, layer",
    [
        ("repro.engine.domain", "engine"),
        ("repro.engine.simulator", "engine"),
        ("repro.engine.sync", "sync"),
        ("repro.engine.parallel", "parallel"),
        ("repro.resilience.supervisor", "parallel"),
        ("repro.core.assign", "build"),
        ("repro.core.node", "node"),
        ("repro.core.scheduler", "scheduler"),
        ("repro.core.kernel", "kernel"),
        ("repro.core.pipe", "pipe"),
        ("repro.core.packet", "pipe"),
        ("repro.hardware.links", "hardware"),
        ("repro.net.tcp", "tcp"),
        ("repro.net.sockets", "sockets"),
        ("repro.apps.netperf", "apps"),
        ("repro.traffic", "apps"),
        ("repro.routing.shortest_path", "routing"),
        ("repro.faults", "faults"),
        ("repro.core.faults", "faults"),
        ("repro.obs.report", "obs"),
        ("repro.topology.graph", PASS),
        ("repro.api", PASS),
        (None, PASS),
        ("repro.check.sanitize", UNATTRIBUTED),
        ("repro.engineering", UNATTRIBUTED),  # a prefix, not a package
    ],
)
def test_layer_of(module, layer):
    assert layer_of(module) == layer


def test_module_of():
    src = os.path.join(os.sep, "x", "src")
    path = os.path.join(src, "repro", "core", "node.py")
    assert module_of(path, src) == "repro.core.node"
    init = os.path.join(src, "repro", "net", "__init__.py")
    assert module_of(init, src) == "repro.net"
    assert module_of("~", src) is None
    assert module_of(os.path.join(os.sep, "usr", "lib", "heapq.py"), src) is None


# -- profile attribution ------------------------------------------------------

def _busy(n):
    return sum(i * i for i in range(n))


def _outer(n):
    return _busy(n) + sorted(range(n))[-1]


def test_attribute_charges_pass_through_time_to_callers():
    profiler = cProfile.Profile()
    profiler.enable()
    _outer(20000)
    profiler.disable()
    stats = pstats.Stats(profiler).stats

    def classify(func):
        return "outer" if func[2] == "_outer" else PASS

    layers = attribute(stats, classify)
    total = sum(func[2] for func in stats.values())
    assert sum(layers.values()) == pytest.approx(total)
    # _busy, its generator and the builtins run under _outer.
    assert layers["outer"] > 0.9 * total


# -- calibration ----------------------------------------------------------

def test_calibration_work_is_deterministic():
    assert calibrate.calibration_work() == calibrate.calibration_work()


def test_reference_scale_cancels_machine_speed():
    # The same program on a machine half as fast: both the run and the
    # calibration take twice as long, and the scaled times agree.
    fast = Experiment(run_cpu_s=1.0, calibration_s=calibrate.REFERENCE_S)
    slow = Experiment(run_cpu_s=2.0, calibration_s=2 * calibrate.REFERENCE_S)
    assert reference_scale(fast) == pytest.approx(1.0)
    assert fast.run_cpu_s * reference_scale(fast) == pytest.approx(
        slow.run_cpu_s * reference_scale(slow)
    )
