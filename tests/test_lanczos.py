"""LOBPCG solver tests against dense factorizations on synthetic operators."""

import functools

import numpy as np
import pytest

from ionspins import lanczos
from ionspins.couplings import coupling_from_trap
from ionspins.lanczos import NoConvergence, _orthonormalize, lowest_eigenpairs
from ionspins.spins import _SpinOperator, field_scale


def dense_operator(matrix):
    """matvec on a (b, dim) block of row vectors."""
    return lambda v: v @ matrix.T


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
    evals, vecs = lowest_eigenpairs(dense_operator(a), k, diag=np.diag(a))
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
    evals, _ = lowest_eigenpairs(dense_operator(a), 4, diag=np.diag(a))
    assert np.max(np.abs(evals - np.array([-5.0, -5.0, -3.0, -3.0]))) <= 1e-9


def test_deterministic(rng):
    a = random_symmetric(rng, 90)
    first = lowest_eigenpairs(dense_operator(a), 3, diag=np.diag(a))
    second = lowest_eigenpairs(dense_operator(a), 3, diag=np.diag(a))
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_small_space_is_exact(rng):
    a = random_symmetric(rng, 6)
    evals, _ = lowest_eigenpairs(dense_operator(a), 6, diag=np.diag(a))
    assert np.max(np.abs(evals - np.linalg.eigvalsh(a))) <= 1e-10


@pytest.mark.parametrize("dim", [15, 300])
def test_restart_from_a_partial_solve_returns_more_levels(dim, rng):
    # dim 15 is below five block widths: both solves take the dense fallback
    a = random_symmetric(rng, dim)
    reference = np.linalg.eigvalsh(a)
    first, x = lowest_eigenpairs(dense_operator(a), 6, diag=np.diag(a), converge=4)
    apply, seen = recorded(dense_operator(a))
    evals, vecs = lowest_eigenpairs(apply, 6, diag=np.diag(a), start=x.T)
    assert np.max(np.abs(evals - reference[:6])) <= 1e-9
    assert np.max(np.abs(evals[:4] - first[:4])) <= 1e-9
    resid = np.linalg.norm(a @ vecs - vecs * evals, axis=0)
    assert np.all(resid <= 1e-9 * np.maximum(1.0, np.abs(evals)))
    if dim == 300:
        # after the start block's product only the 2 levels left unconverged draw W rows
        assert len(seen[0]) == 6 + lanczos._GUARDS
        assert max(len(block) for block in seen[1:]) <= 2


def test_partial_convergence_and_warm_start(rng):
    a = random_symmetric(rng, 300)
    reference, exact = np.linalg.eigh(a)
    apply, seen = recorded(dense_operator(a))
    evals, vecs = lowest_eigenpairs(apply, 6, diag=np.diag(a), converge=4)
    # the block is as wide as for 6 pairs, but only the lowest 4 draw W rows
    assert len(seen[0]) == 6 + lanczos._GUARDS
    assert max(len(block) for block in seen[1:]) <= 4
    assert np.max(np.abs(evals[:4] - reference[:4])) <= 1e-9
    # the other two are Ritz values, upper bounds of their levels
    assert np.all(evals[4:] >= reference[4:6] - 1e-9)
    # a start block of exact eigenvectors converges before any W row, to the
    # levels it spans; rows beyond the block width (2 + _GUARDS) are not used
    apply, seen = recorded(dense_operator(a))
    more, _ = lowest_eigenpairs(apply, 2, diag=np.diag(a), start=exact[:, 4:14].T)
    assert len(seen) == 1
    assert np.max(np.abs(more - reference[4:6])) <= 1e-9


def test_validation_and_budget(rng, monkeypatch):
    a = random_symmetric(rng, 40)
    with pytest.raises(ValueError):
        lowest_eigenpairs(dense_operator(a), 0, diag=np.diag(a))
    for converge in (0, 3):
        with pytest.raises(ValueError):
            lowest_eigenpairs(dense_operator(a), 2, diag=np.diag(a), converge=converge)
    # an unreachable tolerance runs to the iteration cap and reports its best residual
    monkeypatch.setattr(lanczos, "_MAX_ITER", 50)
    monkeypatch.setattr(lanczos, "_TOL", 1e-30)
    apply, seen = recorded(dense_operator(a))
    with pytest.raises(NoConvergence, match="after 50 steps; best residual"):
        lowest_eigenpairs(apply, 2, diag=np.diag(a))
    assert len(seen) == 51


def test_no_new_direction_stops_with_its_own_message(rng, monkeypatch):
    a = random_symmetric(rng, 40)
    orthonormalize = lanczos._orthonormalize

    def exhausted(u, basis):
        return orthonormalize(u, basis) if len(basis) == 0 else u[:0]

    monkeypatch.setattr(lanczos, "_orthonormalize", exhausted)
    with pytest.raises(NoConvergence, match="after 1 steps: residuals add no new direction"):
        lowest_eigenpairs(dense_operator(a), 2, diag=np.diag(a))


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
    evals, vecs = lowest_eigenpairs(apply, 6, diag=diag)
    # every block the operator sees, and the Ritz vectors drawn from them, are orthonormal
    for block in seen:
        assert np.linalg.norm(block @ block.T - np.eye(block.shape[0])) <= 1e-13
    assert np.linalg.norm(vecs.T @ vecs - np.eye(6)) <= 1e-12
    assert np.max(np.abs(evals - np.linalg.eigvalsh(a)[:6])) <= 1e-9 * max(1.0, np.max(np.abs(evals)))
    resid = np.linalg.norm(a @ vecs - vecs * evals, axis=0)
    assert np.all(resid <= 1e-10 * np.maximum(1.0, np.abs(evals)))


@pytest.mark.parametrize("case", ["few-levels", "sector-n11"])
def test_guards_draw_no_rows(case, rng):
    if case == "sector-n11":
        matvec, diag = sector_operator_n11()
    else:
        a = few_levels_operator(rng)
        matvec, diag = dense_operator(a), np.diag(a)
    apply, seen = recorded(matvec)
    lowest_eigenpairs(apply, 6, diag=diag)
    # the start block holds the k wanted pairs and the guards; every later block
    # holds W rows of unconverged wanted pairs only
    assert len(seen[0]) == 6 + lanczos._GUARDS
    assert len(seen) > 1
    assert max(len(block) for block in seen[1:]) <= 6


@pytest.mark.parametrize("case", ["dependent", "near-basis", "near-dependent"])
def test_orthonormalize_drops_dependent_columns(case, rng):
    basis = np.linalg.qr(rng.standard_normal((50, 10)))[0].T
    u = rng.standard_normal((3, 50))
    rows = 2 if case == "dependent" else 3
    if case == "dependent":
        u[2] = u[0] - 2.0 * u[1] + rng.standard_normal(10) @ basis
    elif case == "near-basis":
        # each row keeps about 1e-9 of its norm through the projection
        u = rng.standard_normal((3, 10)) @ basis + 1e-9 * u
    else:
        # the third row lies 1e-3 off the span of the first two: a Gram condition near 1e-7
        u[2] = u[0] - 2.0 * u[1] + 1e-3 * rng.standard_normal(50)
    # each case takes the second pass: one pass alone leaves errors far above 1e-13
    q = _orthonormalize(u, basis)
    assert q.shape == (rows, 50)
    assert np.linalg.norm(q @ q.T - np.eye(rows)) <= 1e-13
    assert np.linalg.norm(q @ basis.T) <= 1e-13
