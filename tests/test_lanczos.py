"""LOBPCG solver tests against dense factorizations on synthetic operators."""

import functools

import numpy as np
import pytest

from ionspins import lanczos
from ionspins.couplings import coupling_from_trap
from ionspins.lanczos import NoConvergence, _orthonormalize, lowest_eigenpairs
from ionspins.spins import _SpinOperator, field_scale


def dense_operator(matrix):
    return lambda v: matrix @ v


def random_symmetric(rng, dim):
    a = rng.standard_normal((dim, dim))
    return 0.5 * (a + a.T)


def recorded(matvec):
    """matvec, plus the list of blocks it is applied to."""
    seen = []

    def apply(v):
        seen.append(v.copy())
        return matvec(v)

    return apply, seen


@pytest.mark.parametrize("dim,k", [(50, 1), (120, 3), (300, 6)])
def test_matches_dense_spectrum(dim, k, rng):
    a = random_symmetric(rng, dim)
    reference = np.linalg.eigvalsh(a)[:k]
    evals, vecs = lowest_eigenpairs(dense_operator(a), dim, k, diag=np.diag(a))
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
    evals, _ = lowest_eigenpairs(dense_operator(a), dim, 4, diag=np.diag(a))
    assert np.max(np.abs(evals - np.array([-5.0, -5.0, -3.0, -3.0]))) <= 1e-9


def test_deterministic(rng):
    a = random_symmetric(rng, 90)
    first = lowest_eigenpairs(dense_operator(a), 90, 3, diag=np.diag(a))
    second = lowest_eigenpairs(dense_operator(a), 90, 3, diag=np.diag(a))
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_small_space_is_exact(rng):
    a = random_symmetric(rng, 6)
    evals, _ = lowest_eigenpairs(dense_operator(a), 6, 6, diag=np.diag(a))
    assert np.max(np.abs(evals - np.linalg.eigvalsh(a))) <= 1e-10


def test_validation_and_budget(rng, monkeypatch):
    a = random_symmetric(rng, 40)
    with pytest.raises(ValueError):
        lowest_eigenpairs(dense_operator(a), 40, 0, diag=np.diag(a))
    # an unreachable tolerance runs to the iteration cap and reports its best residual
    monkeypatch.setattr(lanczos, "_MAX_ITER", 50)
    monkeypatch.setattr(lanczos, "_TOL", 1e-30)
    apply, seen = recorded(dense_operator(a))
    with pytest.raises(NoConvergence, match="after 50 steps; best residual"):
        lowest_eigenpairs(apply, 40, 2, diag=np.diag(a))
    assert len(seen) == 51


def few_levels_operator(rng):
    """dim 300 with 10 distinct levels, 30-fold each."""
    q, _ = np.linalg.qr(rng.standard_normal((300, 300)))
    a = (q * np.repeat(np.linspace(0.0, 9.0, 10), 30)) @ q.T
    return 0.5 * (a + a.T)


def sector_operator_n11():
    """The + global-flip sector at N = 11, mu~ = 3.064, B = 1.5, and its diagonal."""
    j = coupling_from_trap(11, 10.0, 3.064)
    op = _SpinOperator(j)
    sector = functools.partial(op.sector_matvec, b_abs=1.5 * field_scale(j), sign=1.0)
    return sector, op.diag[: 1 << 10]


@pytest.mark.parametrize("case", ["random", "few-levels", "sector-n11"])
def test_basis_stays_orthonormal(case, rng):
    if case == "sector-n11":
        matvec, diag = sector_operator_n11()
        a = matvec(np.eye(1 << 10))
    else:
        a = random_symmetric(rng, 300) if case == "random" else few_levels_operator(rng)
        matvec, diag = dense_operator(a), np.diag(a)
    apply, seen = recorded(matvec)
    evals, vecs = lowest_eigenpairs(apply, len(a), 6, diag=diag)
    # every block the operator sees, and the Ritz vectors drawn from them, are orthonormal
    for block in seen:
        assert np.linalg.norm(block.T @ block - np.eye(block.shape[1])) <= 1e-13
    assert np.linalg.norm(vecs.T @ vecs - np.eye(6)) <= 1e-12
    assert np.max(np.abs(evals - np.linalg.eigvalsh(a)[:6])) <= 1e-9 * max(1.0, np.max(np.abs(evals)))
    resid = np.linalg.norm(a @ vecs - vecs * evals, axis=0)
    assert np.all(resid <= 1e-10 * np.maximum(1.0, np.abs(evals)))


def test_orthonormalize_drops_dependent_columns(rng):
    basis, _ = np.linalg.qr(rng.standard_normal((50, 10)))
    u = rng.standard_normal((50, 3))
    u[:, 2] = u[:, 0] - 2.0 * u[:, 1] + basis @ rng.standard_normal(10)
    q = _orthonormalize(u, basis)
    assert q.shape == (50, 2)
    full = np.concatenate([basis, q], axis=1)
    assert np.linalg.norm(full.T @ full - np.eye(12)) <= 1e-13
