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
    """force_solver("dense") or force_solver("lanczos") picks that eigensolver path for every N.

    "lanczos" solves each global-flip sector with ``lanczos.lowest_eigenpairs``,
    first with a block for k levels of which k // 2 + 1 must converge, then,
    in a sector that holds more of the k lowest, once more for all the
    levels it can contribute, restarted from its first solve's vectors.  The
    solver diagonalizes a sector densely below five block widths (levels + 2
    vectors each): at k = 6 that is every N <= 6, for the restart too, so
    there it means sector-dense, not LOBPCG.
    """
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


@pytest.fixture
def enum_chunk(monkeypatch):
    """Sets spins._ENUM_CHUNK; the projection cache, whose keys omit the chunk, is emptied around it."""
    from ionspins import spins

    def set_chunk(chunk):
        spins._cached_projections.cache_clear()
        monkeypatch.setattr(spins, "_ENUM_CHUNK", chunk)

    yield set_chunk
    spins._cached_projections.cache_clear()
