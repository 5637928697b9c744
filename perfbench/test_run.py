"""run.py's statistics and the timed pass: windows of whole cycles,
the tail, the host speed factor and when peak RSS is read.

    python3 -m pytest perfbench/test_run.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from calibrate import REFERENCE_UNITS_PER_S, HostSpeed  # noqa: E402


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(100)]
    assert run.tail(values) == (89.0, 90.0)
    assert run.tail(values[:5]) == (4.0, 100.0)


def test_windows_hold_whole_cycles():
    latencies = list(range(7 * 300))
    parts = run.windows(latencies, 300)
    assert [len(p) for p in parts] == [600, 600, 900]
    assert sum(parts, []) == latencies
    assert run.windows(latencies, None)[0] == latencies[:run.MIN_WINDOW_OPS]


def test_short_runs_are_one_window():
    latencies = list(range(1200))
    assert run.windows(latencies, 24) == [latencies]


def test_host_speed_factor_is_the_median_sample_over_the_reference():
    speed = HostSpeed()
    speed.sample()
    assert speed.samples[0] > 0
    speed.samples = [1.0, 3.0, 2.0 * REFERENCE_UNITS_PER_S]
    assert speed.factor() == 3.0 / REFERENCE_UNITS_PER_S


class Counting:
    """A workload whose ops sleep briefly and whose peak RSS is the
    number of ops run so far."""

    def __init__(self, cycle=None, rss_ops=5) -> None:
        self.cycle, self.rss_ops, self.done = cycle, rss_ops, 0

    def make_input(self, i):
        return i

    def run(self, x):
        time.sleep(0.001)
        self.done += 1
        return x

    def check(self, x, out):
        return out == x

    def peak_rss_mb(self):
        return float(self.done)


def test_peak_rss_is_read_after_a_fixed_op_count():
    short = run.run_for(Counting(), 0.0, lambda: None)
    assert len(short.latencies) == 5 and short.peak_rss_mb == 5.0
    longer = run.run_for(Counting(), 0.05, lambda: None)
    assert len(longer.latencies) > 5 and longer.peak_rss_mb == 5.0
    assert longer.failed == 0


def test_timed_pass_ends_on_a_cycle_boundary():
    result = run.run_for(Counting(cycle=7, rss_ops=7), 0.02, lambda: None)
    assert len(result.latencies) % 7 == 0


def test_each_op_is_scaled_by_the_samples_around_it():
    ref = REFERENCE_UNITS_PER_S
    rates = [ref, 3 * ref, ref]  # before, after op 2, at the end
    scaled = run.scaled_latencies([1.0, 1.0, 1.0, 1.0], [2], rates)
    assert list(scaled) == [2.0, 2.0, 2.0, 2.0]
    assert list(run.scaled_latencies([1.0], [], [ref, ref])) == [1.0]
