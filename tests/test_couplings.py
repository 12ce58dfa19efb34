"""Detuning resolution and coupling-matrix tests, including an exact
compensated-summation oracle for the mode sum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionspins.chain import ModeSpectrum
from ionspins.couplings import (
    CouplingMatrix,
    ResonanceError,
    bond_graph,
    chain_spectrum,
    coupling_from_trap,
    coupling_matrix,
    resolve_detuning,
    rms_coupling,
)


def test_resolved_detuning_interpolates_between_modes():
    spec = chain_spectrum(3, 10.0)
    det = resolve_detuning(spec, 2.75)
    w = spec.frequencies
    assert det.resolved == pytest.approx(w[1] + 0.75 * (w[2] - w[1]), abs=1e-15)
    assert w[1] < det.resolved < w[2]


def test_two_ion_midpoint_detuning():
    spec = chain_spectrum(2, 10.0)
    det = resolve_detuning(spec, 1.5)
    assert det.resolved == pytest.approx(0.5 * (math.sqrt(99.0) + 10.0), abs=1e-12)


def test_integer_detuning_is_resonant():
    spec = chain_spectrum(3, 10.0)
    with pytest.raises(ResonanceError):
        resolve_detuning(spec, 3.0)
    with pytest.raises(ResonanceError):
        resolve_detuning(spec, 2.0 + 5e-7)
    for mode in (1.0, 3.0):  # the end modes resonate too
        with pytest.raises(ResonanceError, match=f"mode {mode:.0f}"):
            resolve_detuning(spec, mode)


def test_out_of_range_detuning_rejected():
    spec = chain_spectrum(3, 10.0)
    with pytest.raises(ValueError):
        resolve_detuning(spec, 0.5)
    with pytest.raises(ValueError):
        resolve_detuning(spec, 3.2)
    # an integer past the last mode is out of range, not on a mode
    for rescaled in (0.0, 4.0, 7.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="outside the open interval") as exc:
            resolve_detuning(spec, rescaled)
        assert not isinstance(exc.value, ResonanceError)


def test_two_ion_coupling_closed_form():
    beta = 10.0
    spec = chain_spectrum(2, beta)
    for rescaled in (1.25, 1.5, 1.75):
        det = resolve_detuning(spec, rescaled)
        c = coupling_matrix(spec, det, beta=beta)
        mu2 = det.resolved**2
        expected = 0.5 * (1.0 / (mu2 - beta**2) - 1.0 / (mu2 - beta**2 + 1.0))
        assert c.j[0, 1] == pytest.approx(expected, abs=1e-14)
        assert c.j[0, 1] < 0.0  # aligned coupling between the two modes


def test_seven_ion_long_bond_is_antialigned_and_strong(coupling_n7_51):
    assert coupling_n7_51.j[0, 6] > 0.0
    edges = bond_graph(coupling_n7_51)
    top3 = {(e.m, e.n) for e in edges[:3]}
    assert (1, 7) in top3
    assert edges[0].sign == "AFM"


def test_aligned_bonds_weaken_at_higher_detuning(coupling_n7_51, coupling_n7_53):
    for pair in ((0, 4), (2, 6)):
        assert coupling_n7_51.j[pair] < 0.0
        assert coupling_n7_53.j[pair] < 0.0
        assert abs(coupling_n7_53.j[pair]) < abs(coupling_n7_51.j[pair])
    assert coupling_n7_53.j[0, 6] > 0.0


def test_coupling_matches_compensated_summation_oracle():
    """Entrywise mode sum recomputed term by term with math.fsum."""
    spec = chain_spectrum(5, 10.0)
    det = resolve_detuning(spec, 3.4)
    c = coupling_matrix(spec, det, beta=10.0)
    w = spec.frequencies
    b = spec.mode_matrix
    mu = det.resolved
    for m in range(5):
        for n in range(5):
            if m == n:
                assert c.j[m, n] == 0.0
                continue
            exact = math.fsum(
                b[m, k] * b[n, k] / (mu * mu - w[k] * w[k]) for k in range(5)
            )
            assert abs(c.j[m, n] - exact) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(flips=st.lists(st.sampled_from([-1.0, 1.0]), min_size=5, max_size=5))
def test_coupling_invariant_under_eigenvector_sign_gauge(flips):
    spec = chain_spectrum(5, 10.0)
    det = resolve_detuning(spec, 2.6)
    reference = coupling_matrix(spec, det).j
    flipped = ModeSpectrum(
        frequencies=spec.frequencies, mode_matrix=spec.mode_matrix * np.array(flips)
    )
    assert np.array_equal(coupling_matrix(flipped, det).j, reference)


@pytest.mark.parametrize("n,mu", [(4, 2.3), (7, 5.1), (9, 3.7)])
def test_coupling_matrix_invariants(n, mu):
    c = coupling_from_trap(n, 10.0, mu)
    assert np.array_equal(c.j, c.j.T)
    assert np.all(np.diag(c.j) == 0.0)
    assert np.max(np.abs(c.j - c.j[::-1, ::-1])) <= 1e-10
    assert abs(c.jbar - rms_coupling(c.j)) <= 1e-12 * max(1.0, c.jbar)
    assert c.jbar == pytest.approx(
        math.sqrt(np.sum(c.j**2) / (n * (n - 1))), rel=1e-12
    )


def test_coupling_diverges_approaching_a_mode():
    for side in (+1, -1):
        maxima = [
            np.max(np.abs(coupling_from_trap(7, 10.0, 3.0 + side * d).j))
            for d in (1e-2, 1e-3, 1e-4)
        ]
        assert maxima[0] < maxima[1] < maxima[2]


def test_bond_graph_structure(coupling_n7_53):
    edges = bond_graph(coupling_n7_53)
    assert len(edges) == 7 * 6 // 2
    weights = [e.weight for e in edges]
    assert all(a >= b for a, b in zip(weights, weights[1:]))
    for e in edges:
        assert e.m < e.n
        assert e.sign == ("FM" if e.coupling < 0 else "AFM")
        assert e.weight == abs(e.coupling)


def test_bond_graph_two_ions():
    edges = bond_graph(coupling_from_trap(2, 10.0, 1.5))
    assert len(edges) == 1
    assert (edges[0].m, edges[0].n) == (1, 2)


def test_from_matrix_zeroes_diagonal_and_computes_scale():
    c = CouplingMatrix.from_matrix([[3.0, 1.0], [1.0, 3.0]])
    assert np.array_equal(c.j, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert c.jbar == pytest.approx(1.0)
    single = CouplingMatrix.from_matrix([[0.0]])
    assert single.jbar == 0.0
