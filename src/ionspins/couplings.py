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
import math
from dataclasses import dataclass

import numpy as np

from .chain import TrapConfig, equilibrium_positions, transverse_modes
from .errors import ResonanceError


@dataclass(frozen=True)
class DetuningSpec:
    """A rescaled detuning together with its resolved value in units of wz."""

    rescaled: float
    resolved: float


@dataclass(frozen=True)
class Bond:
    """One weighted edge of the coupling graph (ion labels are 1-based)."""

    m: int
    n: int
    weight: float
    sign: str
    coupling: float


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric zero-diagonal coupling matrix with its rms magnitude Jbar."""

    j: np.ndarray
    jbar: float
    detuning: DetuningSpec | None = None
    beta: float | None = None

    @property
    def n_ions(self):
        return self.j.shape[0]

    @classmethod
    def from_matrix(cls, j, detuning=None, beta=None):
        """Wrap a raw square matrix: symmetrize, zero the diagonal, compute Jbar."""
        j = np.array(j, dtype=float)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError("coupling matrix must be square")
        j = 0.5 * (j + j.T)
        np.fill_diagonal(j, 0.0)
        return cls(j=j, jbar=rms_coupling(j), detuning=detuning, beta=beta)


def rms_coupling(j):
    """Jbar: root-mean-square coupling over all ordered pairs m != n."""
    n = j.shape[0]
    if n < 2:
        return 0.0
    return float(np.sqrt(np.sum(j * j) / (n * (n - 1))))


def resolve_detuning(spectrum, rescaled):
    """Map a rescaled detuning onto a physical one.

    mu = omega_k + frac * (omega_{k+1} - omega_k) with k = floor(rescaled).
    Rejects values outside the closed interval [1, N] (ValueError), then the
    integer ones, each on a mode 1..N (ResonanceError: on-mode drive); the
    resolved detuning must clear every mode by at least 1e-6 wz.
    """
    w = np.asarray(spectrum.frequencies, dtype=float)
    n = len(w)
    rescaled = float(rescaled)
    if not 1.0 <= rescaled <= n:
        raise ValueError(f"rescaled detuning {rescaled} outside the open interval (1, {n})")
    if abs(rescaled - round(rescaled)) < 1e-6:
        raise ResonanceError(f"rescaled detuning {rescaled} sits on phonon mode {round(rescaled)}")
    k = math.floor(rescaled)
    frac = rescaled - k
    mu = w[k - 1] + frac * (w[k] - w[k - 1])
    if np.min(np.abs(mu - w)) < 1e-6:
        raise ResonanceError(
            f"resolved detuning {mu!r} is within 1e-6 of a mode frequency"
        )
    return DetuningSpec(rescaled=rescaled, resolved=float(mu))


def mode_denominators(spectrum, mu):
    """mu^2 - omega_k^2 for a resolved detuning, or one row per entry of an array of them."""
    w = np.asarray(spectrum.frequencies, dtype=float)
    mu = np.asarray(mu, dtype=float)[..., None]
    denom = mu * mu - w * w
    if np.any(np.abs(denom) < 1e-12):
        raise ResonanceError("detuning resonant with a mode; coupling diverges")
    return denom


def coupling_matrix(spectrum, detuning, beta=None):
    """Evaluate J_mn from a mode spectrum at a resolved detuning."""
    b = spectrum.mode_matrix
    j = (b / mode_denominators(spectrum, detuning.resolved)) @ b.T
    return CouplingMatrix.from_matrix(j, detuning=detuning, beta=beta)


def bond_graph(coupling):
    """All m < n edges sorted by descending coupling magnitude.

    Negative couplings favor alignment and are tagged FM; positive ones AFM.
    """
    j = coupling.j
    n = coupling.n_ions
    bonds = []
    for m in range(n):
        for p in range(m + 1, n):
            val = float(j[m, p])
            bonds.append(
                Bond(
                    m=m + 1,
                    n=p + 1,
                    weight=abs(val),
                    sign="FM" if val < 0.0 else "AFM",
                    coupling=val,
                )
            )
    bonds.sort(key=lambda e: (-e.weight, e.m, e.n))
    return bonds


@functools.cache
def chain_spectrum(n_ions, beta=10.0, tol=1e-12):
    """Mode spectrum for (n_ions, beta), memoized across sweep calls."""
    chain = equilibrium_positions(TrapConfig(n_ions=n_ions, aspect_ratio=beta), tol=tol)
    return transverse_modes(chain)


def coupling_from_trap(n_ions, beta, mu_tilde, tol=1e-12):
    """Full pipeline: trap geometry -> modes -> coupling matrix at mu_tilde."""
    spec = chain_spectrum(n_ions, beta, tol=tol)
    det = resolve_detuning(spec, mu_tilde)
    return coupling_matrix(spec, det, beta=float(beta))
