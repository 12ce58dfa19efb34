"""Block Krylov solver tests against dense factorizations on synthetic operators."""

import functools

import numpy as np
import pytest

from ionspins.couplings import coupling_from_trap
from ionspins.lanczos import NoConvergence, _repair_block, lowest_eigenpairs
from ionspins.spins import _SpinOperator, field_scale


def dense_operator(matrix):
    return lambda v: matrix @ v


def random_symmetric(rng, dim):
    a = rng.standard_normal((dim, dim))
    return 0.5 * (a + a.T)


def recorded(matvec):
    """matvec, plus the list of vectors it is applied to: exactly the Krylov basis."""
    seen = []

    def apply(v):
        seen.append(v.copy())
        return matvec(v)

    return apply, seen


@pytest.mark.parametrize("dim,k", [(50, 1), (120, 3), (300, 6)])
def test_matches_dense_spectrum(dim, k, rng):
    a = random_symmetric(rng, dim)
    reference = np.linalg.eigvalsh(a)[:k]
    evals, vecs = lowest_eigenpairs(dense_operator(a), dim, k)
    assert np.max(np.abs(evals - reference)) <= 1e-9
    for i in range(k):
        resid = np.linalg.norm(a @ vecs[:, i] - evals[i] * vecs[:, i])
        assert resid <= 1e-9 * max(1.0, abs(evals[i]))


def test_resolves_exact_degeneracy(rng):
    dim = 80
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    spectrum = np.concatenate([[-5.0, -5.0, -3.0, -3.0], np.linspace(0.0, 8.0, dim - 4)])
    a = (q * spectrum) @ q.T
    a = 0.5 * (a + a.T)
    evals, _ = lowest_eigenpairs(dense_operator(a), dim, 4)
    assert np.max(np.abs(evals - np.array([-5.0, -5.0, -3.0, -3.0]))) <= 1e-9


def test_deterministic(rng):
    a = random_symmetric(rng, 90)
    first = lowest_eigenpairs(dense_operator(a), 90, 3)
    second = lowest_eigenpairs(dense_operator(a), 90, 3)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_small_space_is_exact(rng):
    a = random_symmetric(rng, 6)
    evals, _ = lowest_eigenpairs(dense_operator(a), 6, 6)
    assert np.max(np.abs(evals - np.linalg.eigvalsh(a))) <= 1e-10


def test_validation_and_budget(rng):
    a = random_symmetric(rng, 40)
    with pytest.raises(ValueError):
        lowest_eigenpairs(dense_operator(a), 40, 0)
    with pytest.raises(NoConvergence):
        lowest_eigenpairs(dense_operator(a), 40, 2, tol=1e-14, max_basis=4)


def few_levels_operator(rng):
    """dim 300 with 10 distinct levels, 30-fold each."""
    q, _ = np.linalg.qr(rng.standard_normal((300, 300)))
    a = (q * np.repeat(np.linspace(0.0, 9.0, 10), 30)) @ q.T
    return 0.5 * (a + a.T)


def sector_operator_n11():
    """The + global-flip sector at N = 11, mu~ = 3.064, B = 1.5: it runs to the cap."""
    j = coupling_from_trap(11, 10.0, 3.064)
    return functools.partial(_SpinOperator(j).sector_matvec, b_abs=1.5 * field_scale(j), sign=1.0)


@pytest.mark.parametrize("case", ["random", "few-levels", "sector-n11"])
def test_basis_stays_orthonormal(case, rng):
    if case == "random":
        a = random_symmetric(rng, 300)
        matvec, dim = dense_operator(a), 300
    elif case == "few-levels":
        matvec, dim = dense_operator(few_levels_operator(rng)), 300
    else:
        matvec, dim = sector_operator_n11(), 1 << 10
    apply, seen = recorded(matvec)
    try:
        lowest_eigenpairs(apply, dim, 6)
    except NoConvergence:
        assert case == "sector-n11"
    basis = np.array(seen).T
    assert np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1])) <= 1e-13
    if case == "few-levels":
        # a 6-column start block spans at most 6 * 10 Krylov directions, so
        # the basis grew past them only with randomly drawn columns
        assert basis.shape[1] > 60
    if case == "sector-n11":
        assert basis.shape[1] == 400


def test_converges_at_cap_between_checks():
    # Rayleigh-Ritz runs at m = ..., 216, 246, ... for k = 6; this solve
    # converges between those points, so only the check at the cap finds it
    a = random_symmetric(np.random.default_rng(2), 300)
    apply, seen = recorded(dense_operator(a))
    evals, vecs = lowest_eigenpairs(apply, 300, 6, max_basis=244)
    assert len(seen) == 244
    assert np.max(np.abs(evals - np.linalg.eigvalsh(a)[:6])) <= 1e-9
    resid = np.linalg.norm(a @ vecs - vecs * evals, axis=0)
    assert np.all(resid <= 1e-10 * np.maximum(1.0, np.abs(evals)))


def test_drawn_column_is_orthogonal_to_later_columns(rng):
    # a zero first column is replaced by a random one; the QR columns after it
    # are orthogonal only to the column it replaced until the block is re-swept
    basis, _ = np.linalg.qr(rng.standard_normal((50, 10)))
    w = rng.standard_normal((50, 3))
    w -= basis @ (basis.T @ w)
    w[:, 0] = 0.0
    q = _repair_block(np.random.default_rng(0), basis, 10, w)
    full = np.concatenate([basis, q], axis=1)
    assert np.linalg.norm(full.T @ full - np.eye(13)) <= 1e-13
