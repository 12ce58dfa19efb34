"""Equilibrium geometry and transverse mode tests, including slow independent
oracles: coordinate-descent minimization, finite-difference curvature, and
determinant-bisection eigenvalues."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionspins import chain
from ionspins.chain import (
    ConvergenceError,
    DegenerateModes,
    IonChain,
    TrapConfig,
    ZigzagInstability,
    chain_potential,
    equilibrium_positions,
    mode_spectrum,
    potential_gradient,
    transverse_mode_matrix,
    transverse_modes,
    zigzag_stability,
)

# frozen output of the coordinate-descent oracle below (7 ions, run to 1e-15)
CD_POSITIONS_N7 = np.array(
    [
        -2.2545436016479199,
        -1.4129172722788108,
        -0.6869433943209411,
        0.0,
        0.6869433943209478,
        1.4129172722788170,
        2.2545436016479257,
    ]
)


def coordinate_descent_positions(n, sweeps=4000):
    """Gauss-Seidel minimizer: per-ion force root found by bisection.

    Independent of the package's Newton path: uses only the one-dimensional
    force expression and interval halving.
    """

    def coord_gradient(u, i):
        g = u[i]
        for m in range(len(u)):
            if m != i:
                d = u[i] - u[m]
                g -= np.sign(d) / d**2
        return g

    def bisect(fn, lo, hi):
        flo = fn(lo)
        while fn(hi) * flo > 0:
            lo -= 1.0
            hi += 1.0
            flo = fn(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = fn(mid)
            if fm == 0.0:
                return mid
            if flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
            if hi - lo < 1e-16 * max(1.0, abs(mid)):
                break
        return 0.5 * (lo + hi)

    u = 2.0 * (np.arange(1, n + 1) - 0.5 * (n + 1))
    for _ in range(sweeps):
        delta = 0.0
        for i in range(n):
            lo = u[i - 1] + 1e-6 if i > 0 else u[i] - 10.0
            hi = u[i + 1] - 1e-6 if i < n - 1 else u[i] + 10.0
            new = bisect(
                lambda x: coord_gradient(np.concatenate([u[:i], [x], u[i + 1 :]]), i), lo, hi
            )
            delta = max(delta, abs(new - u[i]))
            u[i] = new
        if delta < 1e-15:
            break
    return u


def test_two_ion_closed_form():
    chain = equilibrium_positions(TrapConfig(2))
    expected = 2.0 ** (-2.0 / 3.0)
    assert abs(chain.positions[0] + expected) <= 1e-10
    assert abs(chain.positions[1] - expected) <= 1e-10


def test_three_ion_closed_form():
    chain = equilibrium_positions(TrapConfig(3))
    d = (5.0 / 4.0) ** (1.0 / 3.0)
    assert np.max(np.abs(chain.positions - np.array([-d, 0.0, d]))) <= 1e-10


def test_seven_ion_matches_coordinate_descent_oracle():
    oracle = coordinate_descent_positions(7)
    assert np.max(np.abs(oracle - CD_POSITIONS_N7)) <= 1e-12, "oracle drifted from frozen values"
    newton = equilibrium_positions(TrapConfig(7)).positions
    assert np.max(np.abs(newton - oracle)) <= 1e-10


def test_equilibrium_is_local_minimum_n7():
    u = equilibrium_positions(TrapConfig(7)).positions
    base = chain_potential(u)
    rng = np.random.default_rng(7)
    for _ in range(25):
        assert chain_potential(u + 1e-4 * rng.standard_normal(7)) > base


@pytest.mark.parametrize("n", [2, 3, 5, 8, 11])
def test_gradient_vanishes_and_positions_odd_symmetric(n):
    u = equilibrium_positions(TrapConfig(n)).positions
    assert np.max(np.abs(potential_gradient(u))) <= 1e-12
    assert np.max(np.abs(u + u[::-1])) <= 1e-10
    assert np.all(np.diff(u) > 0)


def test_equilibrium_deterministic():
    a = equilibrium_positions(TrapConfig(6)).positions
    b = equilibrium_positions(TrapConfig(6)).positions
    assert np.array_equal(a, b)


def test_equilibrium_rejects_bad_inputs(monkeypatch):
    with pytest.raises(ValueError):
        TrapConfig(1)
    with pytest.raises(ValueError):
        TrapConfig(5, aspect_ratio=-2.0)
    with pytest.raises(ValueError):
        equilibrium_positions(TrapConfig(4), tol=0.0)
    monkeypatch.setattr(chain, "_MAX_ITER", 2)
    with pytest.raises(ConvergenceError):
        equilibrium_positions(TrapConfig(9), tol=1e-12)


def test_curvature_matrix_two_ions():
    chain = equilibrium_positions(TrapConfig(2))
    a = transverse_mode_matrix(chain)
    expected = np.array([[100.0 - 0.5, 0.5], [0.5, 100.0 - 0.5]])
    assert np.max(np.abs(a - expected)) <= 1e-12


@pytest.mark.parametrize("n", [2, 4, 7, 9])
def test_curvature_row_sums_equal_beta_squared(n):
    chain = equilibrium_positions(TrapConfig(n))
    a = transverse_mode_matrix(chain)
    assert np.array_equal(a, a.T), "matrix must be exactly symmetric as stored"
    assert np.max(np.abs(a.sum(axis=1) - 100.0)) <= 1e-12


def test_curvature_matches_finite_difference_hessian_n5():
    """Second derivatives of the full transverse-displaced energy, by central
    differences, reproduce the curvature matrix."""
    chain = equilibrium_positions(TrapConfig(5))
    u = chain.positions
    beta = 10.0
    n = 5

    def energy(x):
        e = 0.5 * beta**2 * np.sum(x * x) + 0.5 * np.sum(u * u)
        for m in range(n):
            for p in range(m + 1, n):
                e += 1.0 / np.hypot(u[m] - u[p], x[m] - x[p])
        return e

    h = 1e-4
    fd = np.zeros((n, n))
    e0 = energy(np.zeros(n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        fd[i, i] = (energy(ei) - 2 * e0 + energy(-ei)) / h**2
        for k in range(i + 1, n):
            ek = np.zeros(n)
            ek[k] = h
            fd[i, k] = fd[k, i] = (
                energy(ei + ek) - energy(ei - ek) - energy(-ei + ek) + energy(-ei - ek)
            ) / (4 * h**2)
    a = transverse_mode_matrix(chain)
    assert np.max(np.abs(a - fd)) <= 1e-6


def test_curvature_rejects_duplicate_positions():
    chain = equilibrium_positions(TrapConfig(3))
    bad = IonChain(config=chain.config, positions=np.array([-1.0, 0.0, 5e-10]))
    with pytest.raises(ValueError, match="duplicate"):
        transverse_mode_matrix(bad)


def test_two_ion_mode_frequencies_exact():
    spec = transverse_modes(equilibrium_positions(TrapConfig(2)))
    assert abs(spec.frequencies[0] - np.sqrt(99.0)) <= 1e-12
    assert abs(spec.frequencies[1] - 10.0) <= 1e-12
    s = 1.0 / np.sqrt(2.0)
    assert np.max(np.abs(spec.mode_matrix[:, 0] - np.array([s, -s]))) <= 1e-12
    assert np.max(np.abs(spec.mode_matrix[:, 1] - np.array([s, s]))) <= 1e-12


def test_frequencies_match_determinant_bisection_oracle_n7():
    """Squared frequencies re-derived as sign changes of det(A - x I), located
    by bisection; the LU-determinant path is independent of eigh."""
    chain = equilibrium_positions(TrapConfig(7))
    a = transverse_mode_matrix(chain)

    def det(x):
        return np.linalg.det(a - x * np.eye(7))

    xs = np.linspace(0.0, 121.0, 20001)
    vals = np.array([det(x) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif vals[i] * vals[i + 1] < 0:
            lo, hi = xs[i], xs[i + 1]
            flo = vals[i]
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                fm = det(mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    assert len(roots) == 7
    spec = transverse_modes(chain)
    assert np.max(np.abs(np.sqrt(roots) - spec.frequencies)) <= 1e-8


@pytest.mark.parametrize("n", [2, 3, 5, 7, 10])
def test_mode_matrix_orthonormal_and_residuals(n):
    chain = equilibrium_positions(TrapConfig(n))
    a = transverse_mode_matrix(chain)
    spec = mode_spectrum(a)
    b = spec.mode_matrix
    assert np.max(np.abs(b.T @ b - np.eye(n))) <= 1e-10
    resid = np.linalg.norm(a @ b - b * spec.frequencies**2, axis=0)
    assert np.max(resid) <= 1e-10 * np.max(spec.frequencies) ** 2


@pytest.mark.parametrize("n", [3, 6, 9])
def test_center_of_mass_mode_is_stiffest(n):
    spec = transverse_modes(equilibrium_positions(TrapConfig(n)))
    assert abs(spec.frequencies[-1] - 10.0) <= 1e-12
    com = np.ones(n) / np.sqrt(n)
    assert np.max(np.abs(spec.mode_matrix[:, -1] - com)) <= 1e-10


@pytest.mark.parametrize("n", [2, 5, 8, 9])
def test_reflection_symmetry_of_modes(n):
    chain = equilibrium_positions(TrapConfig(n))
    a = transverse_mode_matrix(chain)
    assert np.max(np.abs(a[::-1, ::-1] - a)) <= 1e-12
    b = transverse_modes(chain).mode_matrix
    for k in range(n):
        col = b[:, k]
        assert min(np.max(np.abs(col[::-1] - col)), np.max(np.abs(col[::-1] + col))) <= 1e-9


def test_softest_mode_decreases_with_ion_count():
    lowest = [
        transverse_modes(equilibrium_positions(TrapConfig(n))).frequencies[0]
        for n in range(2, 12)
    ]
    assert np.all(np.diff(lowest) < 0)


def test_mode_spectrum_sign_convention():
    spec = transverse_modes(equilibrium_positions(TrapConfig(6)))
    b = spec.mode_matrix
    for k in range(6):
        assert b[np.argmax(np.abs(b[:, k])), k] > 0


def test_zigzag_stability_cases():
    spec = transverse_modes(equilibrium_positions(TrapConfig(7)))
    assert zigzag_stability(spec) is True
    a_ok = transverse_mode_matrix(equilibrium_positions(TrapConfig(2, aspect_ratio=1.0001)))
    assert zigzag_stability(a_ok) is True
    a_bad = transverse_mode_matrix(equilibrium_positions(TrapConfig(2, aspect_ratio=0.9)))
    assert zigzag_stability(a_bad) is False


def test_unstable_chain_raises_with_eigenvalue():
    a = transverse_mode_matrix(equilibrium_positions(TrapConfig(2, aspect_ratio=0.9)))
    with pytest.raises(ZigzagInstability, match="-1.9"):
        mode_spectrum(a)


def test_degenerate_eigenvalues_rejected():
    with pytest.raises(DegenerateModes):
        mode_spectrum(np.diag([4.0, 4.0 + 5e-10, 9.0]))


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=9),
    beta=st.floats(min_value=5.0, max_value=25.0),
)
def test_mode_pipeline_invariants_hold_generically(n, beta):
    chain = equilibrium_positions(TrapConfig(n, aspect_ratio=beta))
    a = transverse_mode_matrix(chain)
    assert np.max(np.abs(a.sum(axis=1) - beta**2)) <= 1e-10 * beta**2
    spec = mode_spectrum(a)
    assert np.all(np.diff(spec.frequencies) > 0)
    assert np.max(np.abs(spec.mode_matrix.T @ spec.mode_matrix - np.eye(n))) <= 1e-10
