"""LOBPCG eigensolver for the lowest eigenpairs of a symmetric operator.

Locally optimal block preconditioned conjugate gradients (Knyazev, SIAM J.
Sci. Comput. 23, 2001): each step runs Rayleigh-Ritz on the block X, the
previous search directions P and the preconditioned residuals W of its
unconverged wanted vectors.  The basis [X, P, W] stays orthonormal, as
Duersch, Shao, Yang & Gu (SIAM J. Sci. Comput. 40, 2018) recommend: W is
orthogonalized against X and P by projection and SVQB, which drops the
directions W cannot resolve, and, as they do, a second pass runs only when
the first may have lost orthogonality; P is chosen in the Ritz coefficient
space orthogonal to the new X, so no step solves an ill-conditioned
generalized eigenproblem.

The basis and its image live in two preallocated (3 * block, dim) arrays,
one vector per row, so every product over the dimension runs along
contiguous rows; the operator is applied to whole (b, dim) row blocks.  The
Gram matrix of the new [X, P] is carried forward from the previous step's
Gram matrix in coefficient space, so each step forms only the rows of W.
The block holds _GUARDS vectors beyond the k pairs it returns, which
resolves (near-)degenerate multiplets up to the block size.  A solve may
ask only the lowest few of its k pairs to converge; the rest then ride
along as guards too, widening the block and so speeding up the ones it
waits for.  The guards ride in X only, as in soft locking (Knyazev,
Argentati, Lashuk & Ovtchinnikov, SIAM J. Sci. Comput. 29, 2007): they are
improved by every Rayleigh-Ritz step but draw no W or P rows.  The
fixed-seed start block makes runs reproducible bit for bit.

A solve can begin from given rows instead of random ones.  Restarted from
the vectors of an earlier solve of the same operator, the pairs that solve
converged meet the bound again at the first Rayleigh-Ritz step and draw no
W or P rows while they hold it: asking for more levels costs mainly the
rows of the levels the first solve left unconverged, plus one product of
the start block.

The module keeps the name ``lanczos`` and the solver the name
``lowest_eigenpairs``: ``spins`` reports its results as method="lanczos",
and callers, tests and benchmark traces rely on both names.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

_SEED = 0x5EED
_GUARDS = 2
_MAX_ITER = 1000
_TOL = 1e-10  # residual bound ||Av - ev|| <= _TOL * max(1, |e|) per pair
# Gram eigenvalues below this fraction of the largest mark dependent vectors
_DROP = 1e-10
# a second orthogonalization pass runs when a Gram eigenvalue falls below this
# fraction of the largest; at 1e-3 the blocks of an N = 13 solve drifted to 2e-13
# from orthonormal, at 1e-2 they stay within 4e-14
_REORTH = 1e-2


def lowest_eigenpairs(matvec, k, *, diag, converge=None, start=None):
    """Return (eigenvalues, eigenvectors) for the k lowest eigenpairs, ascending.

    The eigenvectors are the columns of a (dim, k) array.  Only the lowest
    ``converge`` pairs must converge, each to the relative bound _TOL; the
    vectors beyond them stay in the block X but add no search directions,
    and are never waited for.  When the dimension len(diag) is below five
    block widths the operator is formed as matvec(I) and diagonalized
    densely instead.

    Args:
        matvec: callable applying the symmetric operator to a (b, dim) block
            of b row vectors; it returns the (b, dim) block of their images.
        k: number of lowest eigenpairs requested.
        diag: the operator's diagonal, whose length is the dimension; the
            preconditioner divides each entry of the residual of Ritz pair i
            by max(diag - sigma_i, 1) with sigma_i = min(theta_i, min(diag)),
            so the shift follows the Ritz value only once it lies below the
            whole diagonal, and the preconditioner stays positive.
        converge: how many of the k pairs, lowest first, must converge
            (default k); the others are returned as the last Ritz pairs,
            approximations that cost no operator rows.
        start: None, or rows that begin the start block in place of its first
            random rows (at most k + _GUARDS rows are used); they need not be
            orthonormal.  Converged eigenvectors among them draw no W or P
            rows while they stay converged; the dense fallback does not
            read them.

    Raises NoConvergence, with the best residual, after _MAX_ITER steps or
    once the residuals add no direction to the basis.
    """
    dim = len(diag)
    if k < 1 or k > dim:
        raise ValueError(f"k must lie in [1, {dim}]")
    converge = k if converge is None else converge
    if converge < 1 or converge > k:
        raise ValueError(f"converge must lie in [1, {k}]")
    block = k + _GUARDS
    if dim < 5 * block:
        evals, vecs = np.linalg.eigh(matvec(np.eye(dim)))
        return evals[:k], vecs[:, :k]
    d_min = np.min(diag)
    rng = np.random.default_rng(_SEED)
    # rows [0, m) of s hold the orthonormal basis [X, P, W], of a_s its image
    s, a_s = np.empty((3 * block, dim)), np.empty((3 * block, dim))
    m = block
    u = rng.standard_normal((dim, block)).T
    if start is not None:
        u[: min(len(start), block)] = start[:block]
    s[:m] = _orthonormalize(u, s[:0])
    a_s[:m] = matvec(s[:m])
    gram = s[:m] @ a_s[:m].T
    best = np.inf
    for step in range(_MAX_ITER):
        # Rayleigh-Ritz: row i of c holds the basis coefficients of Ritz vector i
        theta, c = np.linalg.eigh(0.5 * (gram + gram.T))
        theta, c = theta[:block], c[:, :block].T
        if step:
            # next directions: the P and W parts of the active Ritz vectors,
            # made orthogonal to the new X in coefficient space
            y = c[active]
            y[:, :block] = 0.0
            c = np.vstack([c, _orthonormalize(y, c)])
        s[: len(c)], a_s[: len(c)] = c @ s[:m], c @ a_s[:m]
        gram = c @ gram @ c.T
        m = len(c)
        x, ax = s[:block], a_s[:block]

        r = ax - theta[:, None] * x
        resid = np.linalg.norm(r, axis=1)
        # the guards ride in X only: they draw no W and no P rows
        active = resid > _TOL * np.maximum(1.0, np.abs(theta))
        active[converge:] = False
        best = min(best, float(np.max(resid[:converge])))
        if not active.any():
            return theta[:k], x[:k].T
        shift = np.minimum(theta[active], d_min)
        w = _orthonormalize(r[active] / np.maximum(diag - shift[:, None], 1.0), s[:m])
        if len(w) == 0:
            raise NoConvergence(
                f"LOBPCG stopped after {step + 1} steps: residuals add no new direction; "
                f"best residual {best:.3e}"
            )
        s[m : m + len(w)] = w
        a_s[m : m + len(w)] = matvec(s[m : m + len(w)])
        # only the W columns of the Gram matrix are new
        cross = s[: m + len(w)] @ a_s[m : m + len(w)].T
        gram = np.block([[gram, cross[:m]], [cross[:m].T, cross[m:]]])
        m += len(w)

    raise NoConvergence(f"LOBPCG stopped after {step + 1} steps; best residual {best:.3e}")


def _orthonormalize(u, basis):
    """An orthonormal basis of u's rows orthogonal to the orthonormal rows of ``basis``.

    A pass is a projection against ``basis`` followed by SVQB (Stathopoulos &
    Wu, SIAM J. Sci. Comput. 23, 2002) on the Gram matrix of the
    row-normalized u.  A second pass restores the orthogonality the first
    loses to rounding, and runs only when the first may have lost some: when
    a row kept less than half its norm through the projection (its rounding
    is then large against what is left), or when a Gram eigenvalue fell
    below _REORTH times the largest (SVQB's error grows with the Gram
    condition number).  A pass drops the directions whose Gram eigenvalue
    falls below _DROP times the largest, so the result may have fewer rows.
    """
    for _ in range(2):
        coef = u @ basis.T
        u = u - coef @ basis
        gram = u @ u.T
        squares = np.diag(gram)
        # a row's squared norm before the projection is |u|^2 + |coef|^2, so it kept
        # at least half its norm when 3 |u|^2 >= |coef|^2
        kept = np.all(3.0 * squares >= np.sum(coef * coef, axis=1))
        norms = np.sqrt(squares)
        norms = np.where(norms > 0.0, norms, 1.0)
        lam, v = np.linalg.eigh(gram / np.outer(norms, norms))
        top = lam.max(initial=0.0)
        keep = lam > _DROP * top
        u = ((v[:, keep] / np.sqrt(lam[keep])).T / norms) @ u
        if kept and np.all(lam >= _REORTH * top):
            break
    return u
