"""Resource sampling: getrusage-backed, graceful when unavailable."""

from repro.obs import ResourceSample
from repro.obs.resources import available, sample
from repro.obs.tracing import TIMING_ATTRS


class TestResourceSample:
    def test_available_on_this_platform(self):
        # The test environment is Linux/macOS: the resource module is
        # part of the stdlib there, so sampling must be live.
        assert available()

    def test_sample_reports_positive_rss(self):
        snap = sample()
        # Any Python process has tens of MB resident; a zero here
        # means the KiB normalization broke.
        assert snap.max_rss_kb > 1024

    def test_sample_reports_nonnegative_cpu(self):
        snap = sample()
        assert snap.user_cpu_s >= 0.0
        assert snap.system_cpu_s >= 0.0
        assert snap.cpu_s == snap.user_cpu_s + snap.system_cpu_s

    def test_rss_monotonic_within_process(self):
        # ru_maxrss is a high-water mark: consecutive samples never
        # decrease.
        first = sample()
        blob = [0] * 100_000
        second = sample()
        assert second.max_rss_kb >= first.max_rss_kb
        del blob

    def test_attrs_cover_the_span_contract(self):
        # Spans stamp the sample's fields under the same names that
        # report normalization strips.
        assert TIMING_ATTRS == {"cpu_s", "max_rss_kb"}
        snap = ResourceSample(
            max_rss_kb=100, user_cpu_s=1.0, system_cpu_s=0.5
        )
        for attr in TIMING_ATTRS:
            assert hasattr(snap, attr)
