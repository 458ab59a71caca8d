"""Fixtures shared by the test modules."""

import time

import pytest

from leslie_sim.experiments import convergence_study


@pytest.fixture(scope="session")
def time_study():
    """Criterion 7's time study (``convergence_study("time")``), computed
    once per session, and its wall time in seconds."""
    start = time.perf_counter()
    report = convergence_study("time")
    return report, time.perf_counter() - start
