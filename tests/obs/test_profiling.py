"""CPU accounting on phase spans, read back through the run report."""

import pytest

from repro import obs
from repro.obs import RunReport
from repro.obs.tracing import TIMING_ATTRS


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.set_enabled(True)
    yield
    obs.reset()


def burn(n: int = 20_000) -> int:
    return sum(i * i for i in range(n))


class TestCpuAccounting:
    def test_profile_records_cpu_next_to_wall(self):
        with obs.trace("experiment.fake_phase", hours=1):
            burn()
        report = RunReport.capture()
        (span,) = report.find("experiment.fake_phase")
        assert set(span.attributes) == {"hours", *TIMING_ATTRS}
        assert span.attributes["hours"] == 1
        assert span.attributes["cpu_s"] >= 0.0
        assert span.duration_s >= 0.0

    def test_profile_nests_like_trace(self):
        with obs.trace("experiment.outer"):
            with obs.trace("experiment.inner"):
                burn()
        report = RunReport.capture()
        (outer,) = report.find("experiment.outer")
        assert [c.name for c in outer.children] == ["experiment.inner"]
        assert "cpu_s" in outer.children[0].attributes
