import numpy as np
import pytest

from ionspins.couplings import coupling_from_trap


@pytest.fixture(scope="session")
def coupling_n7_51():
    return coupling_from_trap(7, 10.0, 5.1)


@pytest.fixture(scope="session")
def coupling_n7_53():
    return coupling_from_trap(7, 10.0, 5.3)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def force_solver(monkeypatch):
    """force_solver("dense") or force_solver("lanczos") picks that eigensolver path for every N."""
    from ionspins import spins

    def force(method):
        monkeypatch.setattr(spins, "_DENSE_MAX_DIM", {"dense": 1 << 24, "lanczos": 0}[method])

    return force


@pytest.fixture
def without_fm_kink_transition(monkeypatch):
    """The zero-field interval (N-2, N-1) shows no order change at all."""
    from ionspins import phases

    def no_transition(n_ions, beta, k, *rest):
        return phases.IntervalPhases(lower_mode=k, subintervals=(), transitions=())

    monkeypatch.setattr(phases, "_interval_phases", no_transition)
    phases.fm_kink_interval.cache_clear()
    yield
    phases.fm_kink_interval.cache_clear()
