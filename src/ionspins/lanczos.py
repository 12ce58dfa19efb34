"""LOBPCG eigensolver for the lowest eigenpairs of a symmetric operator.

Locally optimal block preconditioned conjugate gradients (Knyazev, SIAM J.
Sci. Comput. 23, 2001): each step runs Rayleigh-Ritz on the block X, the
previous search directions P and the preconditioned residuals W of its
unconverged columns.  The basis [X, P, W] stays orthonormal, as Duersch,
Shao, Yang & Gu (SIAM J. Sci. Comput. 40, 2018) recommend: W is
orthogonalized against X and P in two passes that drop the columns it cannot
resolve, and P is chosen in the Ritz coefficient space orthogonal to the new
X, so no step solves an ill-conditioned generalized eigenproblem.  The
operator is applied to whole blocks.  The block holds _GUARDS vectors beyond
the k wanted pairs, which resolves (near-)degenerate multiplets up to the
block size; the fixed-seed start block makes runs reproducible bit for bit.

The module keeps the name ``lanczos`` and the solver the name
``lowest_eigenpairs``: ``spins`` reports its results as method="lanczos",
and callers, tests and benchmark traces rely on both names.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

DEFAULT_SEED = 0x5EED
_GUARDS = 2
_MAX_ITER = 1000
_TOL = 1e-10  # residual bound ||Av - ev|| <= _TOL * max(1, |e|) per pair
# Gram eigenvalues below this fraction of the largest mark dependent columns
_DROP = 1e-10


def lowest_eigenpairs(matvec, k, *, diag):
    """Return (eigenvalues, eigenvectors) for the k lowest eigenpairs, ascending.

    Only the k wanted pairs must converge, each to the relative bound _TOL;
    the guard vectors beyond them help but are never waited for.  When the
    dimension len(diag) is below five block widths the operator is formed as
    matvec(I) and diagonalized densely instead.

    Args:
        matvec: callable applying the symmetric operator to a (dim, b) block.
        k: number of lowest eigenpairs requested.
        diag: the operator's diagonal, whose length is the dimension; the
            preconditioner divides each row of a residual by
            max(diag - min(diag), 1).

    Raises NoConvergence, with the best residual, after _MAX_ITER steps or
    once the residuals add no direction to the basis.
    """
    dim = len(diag)
    if k < 1 or k > dim:
        raise ValueError(f"k must lie in [1, {dim}]")
    block = k + _GUARDS
    if dim < 5 * block:
        evals, vecs = np.linalg.eigh(matvec(np.eye(dim)))
        return evals[:k], vecs[:, :k]
    scale = 1.0 / np.maximum(diag - np.min(diag), 1.0)
    rng = np.random.default_rng(DEFAULT_SEED)
    s = _orthonormalize(rng.standard_normal((dim, block)), np.empty((dim, 0)))
    a_s = matvec(s)
    best = np.inf
    for step in range(_MAX_ITER):
        # Rayleigh-Ritz on the orthonormal basis s = [X, P, W], whose image is a_s
        gram = s.T @ a_s
        theta, c = np.linalg.eigh(0.5 * (gram + gram.T))
        theta, c = theta[:block], c[:, :block]
        if step:
            # next directions: the P and W parts of the active Ritz vectors,
            # made orthogonal to the new X in coefficient space
            y = c[:, active]
            y[:block] = 0.0
            c = np.hstack([c, _orthonormalize(y, c)])
        xp, a_xp = s @ c, a_s @ c
        x, ax = xp[:, :block], a_xp[:, :block]

        r = ax - x * theta
        resid = np.linalg.norm(r, axis=0)
        active = resid > _TOL * np.maximum(1.0, np.abs(theta))
        best = min(best, float(np.max(resid[:k])))
        if not active[:k].any():
            return theta[:k], x[:, :k]
        w = _orthonormalize(r[:, active] * scale[:, None], xp)
        if w.shape[1] == 0:
            break
        s, a_s = np.hstack([xp, w]), np.hstack([a_xp, matvec(w)])

    raise NoConvergence(f"LOBPCG stopped after {step + 1} steps; best residual {best:.3e}")


def _orthonormalize(u, basis):
    """An orthonormal basis of u's columns orthogonal to the orthonormal ``basis``.

    Two passes of projection and SVQB (Stathopoulos & Wu, SIAM J. Sci.
    Comput. 23, 2002); a pass drops the directions whose Gram eigenvalue falls
    below _DROP times the largest, so the result may have fewer columns.
    """
    for _ in range(2):
        u = u - basis @ (basis.T @ u)
        norms = np.linalg.norm(u, axis=0)
        u = u / np.where(norms > 0.0, norms, 1.0)
        lam, v = np.linalg.eigh(u.T @ u)
        keep = lam > _DROP * lam.max(initial=0.0)
        u = u @ (v[:, keep] / np.sqrt(lam[keep]))
    return u
