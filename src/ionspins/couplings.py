"""Detuning-controlled Ising couplings of a transversally driven ion chain.

A beatnote detuning mu (units of wz) placed between two transverse modes
produces the spin-spin coupling matrix

    J_mn = sum_k b_m^k b_n^k / (mu^2 - omega_k^2)        (m != n)

in "coupling units" (the overall drive prefactor is absorbed into the unit of
energy; every observable downstream is reported relative to the rms coupling
Jbar).  Detunings are specified by the rescaled parameter mu_tilde: integer
values label the modes in ascending frequency order, fractional parts
interpolate linearly between the adjacent mode frequencies.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .chain import TrapConfig, equilibrium_positions, transverse_modes
from .errors import ResonanceError


@dataclass(frozen=True)
class Bond:
    """One weighted edge of the coupling graph (ion labels are 1-based)."""

    m: int
    n: int
    weight: float
    sign: str
    j: float


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric zero-diagonal coupling matrix with its rms magnitude Jbar."""

    j: np.ndarray
    jbar: float

    @property
    def n_ions(self):
        return self.j.shape[0]

    @classmethod
    def from_matrix(cls, j):
        """Wrap a raw square matrix: symmetrize, zero the diagonal, compute Jbar."""
        j = np.array(j, dtype=float)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError("coupling matrix must be square")
        j = 0.5 * (j + j.T)
        np.fill_diagonal(j, 0.0)
        return cls(j=j, jbar=rms_coupling(j))


def rms_coupling(j):
    """Jbar: root-mean-square coupling over all ordered pairs m != n."""
    n = j.shape[0]
    if n < 2:
        return 0.0
    return float(np.sqrt(np.sum(j * j) / (n * (n - 1))))


def resolve_detunings(spectrum, rescaled):
    """Resolved detunings (units of wz) of a sequence of rescaled ones.

    mu = omega_k + frac * (omega_{k+1} - omega_k) with k = floor(rescaled).
    Rejects values outside the closed interval [1, N] (ValueError), then the
    integer ones, each on a mode 1..N (ResonanceError: on-mode drive); the
    resolved detuning must clear every mode by at least 1e-6 wz.  A batch
    with bad entries raises what its first bad entry raises when resolved
    alone.
    """
    w = np.asarray(spectrum.frequencies, dtype=float)
    n = len(w)
    rescaled = np.asarray(rescaled, dtype=float).reshape(-1)
    outside = ~((1.0 <= rescaled) & (rescaled <= n))
    # entries that fail a check stand in as 1.5 for the later ones (no inf - inf, no
    # mode index past N); their own failure is reported below
    r = np.where(outside, 1.5, rescaled)
    on_mode = np.abs(r - np.round(r)) < 1e-6
    k = np.floor(np.where(on_mode, 1.5, r)).astype(np.int64)
    frac = r - k
    mu = w[k - 1] + frac * (w[k] - w[k - 1])
    # mu lies between modes k and k + 1 (up to rounding), so the nearest mode is one of
    # them: no (detunings x modes) temporary
    near = np.minimum(np.abs(mu - w[k - 1]), np.abs(mu - w[k])) < 1e-6
    bad = np.flatnonzero(outside | on_mode | near)
    if len(bad):
        i = bad[0]
        x = float(rescaled[i])
        if outside[i]:
            raise ValueError(f"rescaled detuning {x} outside the open interval (1, {n})")
        if on_mode[i]:
            raise ResonanceError(f"rescaled detuning {x} sits on phonon mode {round(x)}")
        raise ResonanceError(f"resolved detuning {mu[i]!r} is within 1e-6 of a mode frequency")
    return mu


def mode_denominators(spectrum, mu):
    """mu^2 - omega_k^2 for a resolved detuning, or one row per entry of an array of them."""
    w = np.asarray(spectrum.frequencies, dtype=float)
    mu = np.asarray(mu, dtype=float)[..., None]
    denom = mu * mu - w * w
    if np.any(np.abs(denom) < 1e-12):
        raise ResonanceError("detuning resonant with a mode; coupling diverges")
    return denom


def coupling_matrix(spectrum, mu):
    """Evaluate J_mn from a mode spectrum at a resolved detuning mu (units of wz)."""
    b = spectrum.mode_matrix
    j = (b / mode_denominators(spectrum, mu)) @ b.T
    return CouplingMatrix.from_matrix(j)


def bond_graph(coupling):
    """All m < n edges sorted by descending coupling magnitude.

    Negative couplings favor alignment and are tagged FM; positive ones AFM.
    """
    bonds = []
    for m, p in itertools.combinations(range(coupling.n_ions), 2):
        val = float(coupling.j[m, p])
        bonds.append(Bond(m + 1, p + 1, abs(val), "FM" if val < 0.0 else "AFM", val))
    bonds.sort(key=lambda e: (-e.weight, e.m, e.n))
    return bonds


@functools.cache
def chain_spectrum(n_ions, beta=10.0):
    """Mode spectrum for (n_ions, beta), memoized across sweep calls."""
    chain = equilibrium_positions(TrapConfig(n_ions=n_ions, aspect_ratio=beta))
    return transverse_modes(chain)


def coupling_from_trap(n_ions, beta, mu_tilde):
    """Full pipeline: trap geometry -> modes -> coupling matrix at mu_tilde."""
    spec = chain_spectrum(n_ions, beta)
    (mu,) = resolve_detunings(spec, [float(mu_tilde)])
    return coupling_matrix(spec, mu)
