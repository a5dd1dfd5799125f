"""The signal-based sampling profiler: samples a busy loop, formats
collapsed stacks, and degrades to a no-op off the main thread."""

import re
import signal
import threading
import time

import pytest

from repro.obs.sampling import SamplingProfiler


def burn_cpu(seconds):
    """Spin until ``seconds`` of wall time pass (keeps the CPU busy so
    both ITIMER_PROF and ITIMER_REAL tick)."""
    deadline = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < deadline:
        acc += sum(range(50))
    return acc


class TestSamplingProfiler:
    def test_samples_a_busy_loop(self):
        prof = SamplingProfiler(interval_s=0.001, mode="wall")
        with prof:
            burn_cpu(0.08)
        if not prof.active and prof.n_samples == 0:
            pytest.skip("itimer unavailable on this host")
        assert prof.n_samples >= 1
        # The busy loop itself must appear in some sampled stack.
        assert any(
            any(frame.endswith(":burn_cpu") for frame in stack)
            for stack in prof.counts
        )

    def test_collapsed_format(self):
        prof = SamplingProfiler(interval_s=0.001, mode="wall")
        with prof:
            burn_cpu(0.05)
        text = prof.collapsed()
        if not text:
            pytest.skip("no samples collected on this host")
        for line in text.splitlines():
            # "module:func;module:func;... COUNT"
            assert re.fullmatch(r"\S+(;\S+)* \d+", line), line
        counts = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == prof.n_samples

    def test_write_collapsed_file(self, tmp_path):
        prof = SamplingProfiler(interval_s=0.001, mode="wall")
        with prof:
            burn_cpu(0.05)
        path = tmp_path / "stacks.txt"
        prof.write(str(path))
        assert path.read_text() == prof.collapsed()

    def test_top_limits_and_orders(self):
        prof = SamplingProfiler()
        prof.counts = {("a:f",): 3, ("b:g",): 7, ("c:h",): 1}
        prof.n_samples = 11
        assert prof.top(2) == [(("b:g",), 7), (("a:f",), 3)]

    def test_stop_restores_handler(self):
        previous = signal.getsignal(signal.SIGALRM)
        prof = SamplingProfiler(interval_s=0.01, mode="wall")
        prof.start()
        prof.stop()
        assert signal.getsignal(signal.SIGALRM) == previous
        assert not prof.active

    def test_inert_off_main_thread(self):
        prof = SamplingProfiler(interval_s=0.001, mode="wall")
        result = {}

        def worker():
            prof.start()
            result["active"] = prof.active
            prof.stop()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert result["active"] is False
        assert prof.n_samples == 0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            SamplingProfiler(mode="quantum")
        with pytest.raises(ValueError, match="interval"):
            SamplingProfiler(interval_s=0.0)

    def test_double_start_and_stop_are_idempotent(self):
        prof = SamplingProfiler(interval_s=0.01, mode="wall")
        prof.start()
        prof.start()
        assert prof.stop() is prof
        assert prof.stop() is prof
