import pytest
from hypothesis import HealthCheck, settings

from sccforge import linsolve

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def kernel_calls(monkeypatch):
    """The argument tuples of every elimination kernel call made in the test."""
    kernel = linsolve.fraction_free_rref
    seen = []

    def counted(*args):
        seen.append(args)
        return kernel(*args)

    monkeypatch.setattr(linsolve, "fraction_free_rref", counted)
    return seen
