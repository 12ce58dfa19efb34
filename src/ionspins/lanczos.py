"""Block Krylov eigensolver for the lowest eigenpairs of a symmetric operator.

A block of deterministic random start vectors is expanded with operator
applications.  Each new block is orthogonalized against the whole basis in
two classical Gram-Schmidt passes ("twice is enough": Parlett, The Symmetric
Eigenvalue Problem, sec. 6.9); the first pass reuses the coefficients the
projected matrix already holds.  Rayleigh-Ritz extraction on the accumulated
basis yields the extremal eigenpairs; it runs on a growth schedule, not at
every step.  The block form resolves (near-)degenerate multiplets up to the
block size, which plain single-vector Lanczos silently collapses; the fixed
seed makes runs reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

DEFAULT_SEED = 0x5EED


def lowest_eigenpairs(matvec, dim, k, tol=1e-10, max_basis=None):
    """Return (eigenvalues, eigenvectors) for the k lowest eigenpairs.

    Convergence is checked (an eigh of the projected matrix, the Ritz vectors
    and their true residuals) whenever the basis has grown by max(block,
    m // 8) columns since the last check, m being its size, and always at
    the cap, so a solve that converges within the cap is found there.  Only
    pairs whose true residuals meet ``tol`` are returned.

    Args:
        matvec: callable applying the symmetric operator to a length-dim vector.
        dim: operator dimension.
        k: number of lowest eigenpairs requested.
        tol: residual bound ||Av - ev|| <= tol * max(1, |e|) per pair.
        max_basis: Krylov basis cap (default min(dim, max(60 * k, 400))).
    """
    if k < 1 or k > dim:
        raise ValueError(f"k must lie in [1, {dim}]")
    if max_basis is None:
        max_basis = min(dim, max(60 * k, 400))
    max_basis = min(max_basis, dim)
    block = min(max(k, 2), dim)
    rng = np.random.default_rng(DEFAULT_SEED)

    basis = np.zeros((dim, max_basis))
    a_basis = np.zeros((dim, max_basis))
    proj = np.zeros((max_basis, max_basis))
    m = checked = 0
    blk = _repair_block(rng, basis, 0, rng.standard_normal((dim, block)))
    best_resid = np.inf
    while m < max_basis:
        b = min(blk.shape[1], max_basis - m)
        basis[:, m : m + b] = blk[:, :b]
        for i in range(b):
            a_basis[:, m + i] = matvec(basis[:, m + i])
        # grow the projected matrix incrementally and keep it exactly symmetric
        new = slice(m, m + b)
        old = slice(0, m + b)
        cross = basis[:, old].T @ a_basis[:, new]
        proj[old, new] = cross
        proj[new, old] = cross.T
        d = basis[:, new].T @ a_basis[:, new]
        proj[new, new] = 0.5 * (d + d.T)
        m += b

        # Rayleigh-Ritz once the basis has grown by an eighth (at least a
        # block) since the last check, and always at the cap
        if m - checked >= max(block, m // 8) or m >= max_basis:
            checked = m
            theta, ritz = np.linalg.eigh(proj[:m, :m])
            theta, ritz = theta[:k], ritz[:, :k]
            vectors = basis[:, :m] @ ritz
            resid = np.linalg.norm(a_basis[:, :m] @ ritz - vectors * theta, axis=0)
            best_resid = min(best_resid, float(np.max(resid)))
            if np.all(resid <= tol * np.maximum(1.0, np.abs(theta))) or m >= dim:
                order = np.argsort(theta)
                return theta[order], vectors[:, order]

        # classical block Lanczos step: next block from the image of the last,
        # orthogonalized twice against the basis; the first pass's coefficients
        # basis.T @ w are already in proj
        width = min(block, max_basis - m)
        if width == 0:
            break
        w = a_basis[:, m - b : m][:, :width].copy()
        w -= basis[:, :m] @ proj[:m, m - b : m - b + width]
        w -= basis[:, :m] @ (basis[:, :m].T @ w)
        blk = _repair_block(rng, basis, m, w)

    raise NoConvergence(
        f"block Krylov solver hit the basis cap {max_basis}; best residual {best_resid:.3e}"
    )


def _repair_block(rng, basis, m, w):
    """QR-orthonormalize a block, replacing rank-deficient columns.

    A column drawn at random is orthogonal to the basis and to the columns
    before it, but not to the QR columns after it, so only then does the
    block get one more sweep against the basis and a second QR.
    """
    q, r = np.linalg.qr(w)
    scale = max(1.0, float(np.max(np.abs(r))))
    drawn = False
    for i in range(q.shape[1]):
        if abs(r[i, i]) <= 1e-10 * scale:
            drawn = True
            for _ in range(40):
                v = rng.standard_normal(basis.shape[0])
                if m > 0:
                    v -= basis[:, :m] @ (basis[:, :m].T @ v)
                v -= q[:, :i] @ (q[:, :i].T @ v)
                norm = np.linalg.norm(v)
                if norm > 1e-8:
                    q[:, i] = v / norm
                    break
            else:
                raise NoConvergence("could not draw a vector outside the current subspace")
    if drawn:
        if m > 0:
            q -= basis[:, :m] @ (basis[:, :m].T @ q)
        q, _ = np.linalg.qr(q)
    return q
