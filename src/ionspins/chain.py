"""Equilibrium structure and transverse normal modes of a linear ion chain.

Lengths are measured in the Coulomb length l = (e^2 / 4 pi eps0 m wz^2)^(1/3)
and frequencies in units of the axial trap frequency wz, so a chain is fully
specified by the ion count N and the transverse/axial aspect ratio
beta = wx/wz.  In these units the chain energy is

    V(u) = sum_n u_n^2 / 2 + sum_{m<n} 1 / |u_m - u_n|

and the transverse curvature matrix has eigenvalues omega_k^2 (in wz^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModes, NoConvergence, ZigzagInstability

_MAX_ITER = 200  # damped Newton steps of equilibrium_positions
_TOL = 1e-12  # gradient max-norm at which equilibrium_positions stops


@dataclass(frozen=True)
class TrapConfig:
    """Harmonic trap holding ``n_ions`` ions at transverse/axial ratio ``aspect_ratio``."""

    n_ions: int
    aspect_ratio: float = 10.0

    def __post_init__(self):
        if self.n_ions < 2:
            raise ValueError(f"need at least 2 ions, got {self.n_ions}")
        # values <= 1 are always zigzag-unstable but stay constructible so the
        # stability check itself can report them; beta^2 enters the curvature
        beta = float(self.aspect_ratio)
        if not (beta > 0.0 and math.isfinite(beta * beta)):
            raise ValueError(f"aspect_ratio must be positive with a finite square, got {beta!r}")


@dataclass(frozen=True)
class IonChain:
    """Equilibrium chain: dimensionless axial positions, sorted ascending."""

    config: TrapConfig
    positions: np.ndarray

    @property
    def n_ions(self):
        return self.config.n_ions


@dataclass(frozen=True)
class ModeSpectrum:
    """Transverse normal modes, sorted by ascending frequency.

    ``frequencies[k]`` is omega_{k+1} in units of wz (mode labels are 1-based
    elsewhere); column k of ``mode_matrix`` holds the ion amplitudes b_n^k.
    """

    frequencies: np.ndarray
    mode_matrix: np.ndarray

    @property
    def n_ions(self):
        return len(self.frequencies)


def chain_potential(u):
    """Dimensionless energy: harmonic confinement plus pairwise Coulomb repulsion."""
    u = np.asarray(u, dtype=float)
    iu, ju = np.triu_indices(len(u), k=1)
    return 0.5 * float(np.sum(u * u)) + float(np.sum(1.0 / np.abs(u[iu] - u[ju])))


def potential_gradient(u):
    """Gradient of the chain energy; zero at equilibrium."""
    u = np.asarray(u, dtype=float)
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    # d/|d|^3 written as 1/(d*|d|) so the inf diagonal contributes exactly 0
    return u - np.sum(1.0 / (d * np.abs(d)), axis=1)


def axial_hessian(u):
    """Second-derivative matrix of the chain energy at positions ``u``."""
    u = np.asarray(u, dtype=float)
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    c = 2.0 / np.abs(d) ** 3
    h = -c
    np.fill_diagonal(h, 1.0 + np.sum(c, axis=1))
    return h


def equilibrium_positions(config):
    """Solve for the stationary chain via damped Newton iteration.

    Starts from a uniformly spread symmetric guess (spacing 2); each step
    solves the analytic Hessian system and is halved until the gradient
    max-norm decreases, which preserves the ion ordering.  Stops once that
    max-norm is at most _TOL.

    Raises NoConvergence (with the best residual) after _MAX_ITER steps.
    """
    n = config.n_ions
    u = 2.0 * (np.arange(1, n + 1) - 0.5 * (n + 1))
    g = potential_gradient(u)
    for _ in range(_MAX_ITER):
        res = np.max(np.abs(g))
        if res <= _TOL:
            return IonChain(config=config, positions=u)
        step = np.linalg.solve(axial_hessian(u), -g)
        scale = 1.0
        for _ in range(60):
            trial = u + scale * step
            if np.all(np.diff(trial) > 0.0):
                g_trial = potential_gradient(trial)
                if np.max(np.abs(g_trial)) < res:
                    break
            scale *= 0.5
        else:
            raise NoConvergence(f"damped Newton stalled at residual {res:.3e}")
        u, g = trial, g_trial
    raise NoConvergence(
        f"no convergence after {_MAX_ITER} iterations; residual {np.max(np.abs(g)):.3e}"
    )


def transverse_mode_matrix(chain):
    """Transverse curvature matrix A of the chain.

    A_nn = beta^2 - sum_{p != n} 1/|u_n - u_p|^3 and A_nm = 1/|u_n - u_m|^3;
    its eigenvalues are the squared transverse mode frequencies.
    """
    u = np.asarray(chain.positions, dtype=float)
    beta = chain.config.aspect_ratio
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    sep = np.abs(d)
    if np.min(sep) < 1e-9:
        raise ValueError("duplicate ion positions (separation below 1e-9)")
    a = 1.0 / sep**3
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, beta**2 - np.sum(a, axis=1))
    return a


def mode_spectrum(a):
    """Diagonalize a curvature matrix into a ModeSpectrum.

    Frequencies are sorted ascending; each eigenvector is sign-fixed so its
    largest-magnitude entry is positive (ties broken by lowest index).
    Raises ValueError for a matrix that is not finite, square and exactly
    symmetric, ZigzagInstability for a non-positive eigenvalue,
    DegenerateModes when two eigenvalues agree within 1e-9 and NoConvergence
    when an eigenpair residual exceeds 1e-10 times the largest eigenvalue.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("curvature matrix must be finite")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.array_equal(a, a.T):
        raise ValueError("curvature matrix must be square and exactly symmetric")
    evals, vecs = np.linalg.eigh(a)
    if evals[0] <= 0.0:
        raise ZigzagInstability(
            f"lowest squared mode frequency {evals[0]:.9e} is not positive; "
            "the linear chain is unstable at this aspect ratio"
        )
    if np.any(np.diff(evals) < 1e-9):
        raise DegenerateModes("transverse eigenvalues closer than 1e-9; mode labels ambiguous")
    cols = np.arange(len(evals))
    pivot = np.argmax(np.abs(vecs), axis=0)
    vecs = vecs * np.where(vecs[pivot, cols] < 0.0, -1.0, 1.0)
    resid = np.linalg.norm(a @ vecs - vecs * evals, axis=0)
    if not np.all(resid <= 1e-10 * evals[-1]):  # a NaN residual fails
        raise NoConvergence(f"eigenpair residual {np.max(resid):.3e} above bound")
    return ModeSpectrum(frequencies=np.sqrt(evals), mode_matrix=vecs)


def transverse_modes(chain):
    """Convenience pipeline: curvature matrix then spectrum."""
    return mode_spectrum(transverse_mode_matrix(chain))


def zigzag_stability(spectrum):
    """True when the softest transverse mode is stable with margin 1e-9.

    Accepts a ModeSpectrum or a raw curvature matrix; the matrix form lets
    unstable chains (which mode_spectrum refuses to label) be interrogated.
    """
    if isinstance(spectrum, ModeSpectrum):
        lowest = float(spectrum.frequencies[0]) ** 2
    else:
        lowest = float(np.linalg.eigvalsh(np.asarray(spectrum, dtype=float))[0])
    return bool(lowest >= 1e-9)
