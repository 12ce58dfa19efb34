"""Spin-basis bookkeeping, classical enumeration, and eigensolver tests.

Oracles kept independent of the package paths: a per-configuration Python
energy loop, a Kronecker-product dense Hamiltonian, and cross-checks between
the dense and iterative eigensolvers.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ionspins import spins
from ionspins.couplings import CouplingMatrix, coupling_from_trap
from ionspins.errors import NoConvergence, ResonanceError
from ionspins.phases import fm_kink_interval, phase_table
from ionspins.spins import (
    AmbiguousGround,
    apply_hamiltonian,
    bits_to_index,
    canonicalize,
    classical_energies,
    classical_energy,
    classical_ground,
    cluster_averages,
    cluster_polarization,
    cluster_projection,
    dense_hamiltonian,
    field_spectra,
    flip_all,
    fm_basis,
    ground_cluster,
    ground_orders,
    hamming_distance,
    index_to_bits,
    kink_basis,
    lowest_eigenpairs,
    orbit,
    polarization,
    reverse_bits,
    subspace_projection,
)


def single_bond(n, m, p, value):
    j = np.zeros((n, n))
    j[m, p] = j[p, m] = value
    return CouplingMatrix.from_matrix(j)


def kron_hamiltonian(j, b_abs):
    """Dense Hamiltonian assembled from explicit Pauli Kronecker products."""
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    n = j.shape[0]

    def site_op(op, site):
        out = np.array([[1.0]])
        for q in range(n):
            out = np.kron(out, op if q == site else eye)
        return out

    h = np.zeros((2**n, 2**n))
    for m in range(n):
        for p in range(m + 1, n):
            h += 2.0 * j[m, p] * site_op(sz, m) @ site_op(sz, p)
        h -= b_abs * site_op(sx, m)
    return h


# --- configuration bookkeeping ----------------------------------------------


def test_bitstring_round_trip():
    s = bits_to_index("0001111")
    assert index_to_bits(s, 7) == "0001111"
    assert flip_all(s, 7) == bits_to_index("1110000")
    assert reverse_bits(s, 7) == bits_to_index("1111000")


def test_canonicalize_examples():
    order = canonicalize(bits_to_index("1111000"), 7)
    assert order.bits == "0000111"
    assert order.degeneracy == 4
    fm = canonicalize(0, 7)
    assert fm.bits == "0000000"
    assert fm.degeneracy == 2
    sym = canonicalize(bits_to_index("010"), 3)
    assert sym.bits == "010"
    assert sym.degeneracy == 2


def test_orbit_of_asymmetric_five_ion_order():
    got = orbit(bits_to_index("01001"), 5)
    expected = tuple(sorted(bits_to_index(b) for b in ("01001", "10110", "10010", "01101")))
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=12), data=st.data())
def test_canonicalize_idempotent_and_degeneracy_rule(n, data):
    s = data.draw(st.integers(min_value=0, max_value=2**n - 1))
    order = canonicalize(s, n)
    again = canonicalize(order.canonical, n)
    assert again == order
    r = reverse_bits(s, n)
    expected = 2 if r in (s, flip_all(s, n)) else 4
    assert order.degeneracy == expected
    assert order.canonical <= min(s, flip_all(s, n), r, flip_all(r, n))


def test_kink_basis_examples():
    assert set(index_to_bits(s, 7) for s in kink_basis(7)) == {
        "0000111",
        "0001111",
        "1111000",
        "1110000",
    }
    assert set(index_to_bits(s, 3) for s in kink_basis(3)) == {"001", "011", "110", "100"}
    orders = {canonicalize(s, 7) for s in kink_basis(7)}
    assert len(orders) == 1
    assert orders.pop().degeneracy == 4
    with pytest.raises(ValueError):
        kink_basis(6)


def test_hamming_distance_examples():
    assert hamming_distance(bits_to_index("0000000"), bits_to_index("0000111"), 7) == 3
    assert hamming_distance(5, 5, 4) == 0
    assert hamming_distance(bits_to_index("000000000"), bits_to_index("000001111"), 9) == 4


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=1, max_value=10), data=st.data())
def test_hamming_distance_properties(n, data):
    a = data.draw(st.integers(min_value=0, max_value=2**n - 1))
    b = data.draw(st.integers(min_value=0, max_value=2**n - 1))
    d = hamming_distance(a, b, n)
    assert d == hamming_distance(b, a, n)
    assert d == hamming_distance(a, flip_all(b, n), n)
    assert 0 <= d <= n // 2


# --- classical energies -------------------------------------------------------


def test_single_bond_energies():
    j = single_bond(2, 0, 1, 1.0)
    assert classical_energy(j, bits_to_index("00")) == pytest.approx(2.0)
    assert classical_energy(j, bits_to_index("01")) == pytest.approx(-2.0)


@settings(max_examples=40, deadline=None)
@given(s=st.integers(min_value=0, max_value=2**5 - 1))
def test_energy_invariant_under_global_flip(s):
    j = coupling_from_trap(5, 10.0, 3.4)
    assert classical_energy(j, s) == pytest.approx(
        classical_energy(j, flip_all(s, 5)), abs=1e-12
    )


def test_energies_match_independent_loop(coupling_n7_51):
    """Every basis energy recomputed with a plain nested Python loop."""
    jm = coupling_n7_51.j
    e = classical_energies(coupling_n7_51)
    for s in range(2**7):
        z = [1.0 - 2.0 * ((s >> (6 - i)) & 1) for i in range(7)]
        brute = sum(
            2.0 * jm[m, p] * z[m] * z[p] for m in range(7) for p in range(m + 1, 7)
        )
        assert abs(e[s] - brute) <= 1e-12 * max(1.0, abs(brute))
    assert e[0] == pytest.approx(np.min(e), abs=1e-12)


def test_ground_orders_at_reference_detunings(coupling_n7_51, coupling_n7_53):
    g = classical_ground(coupling_n7_51)
    assert g.order.bits == "0000000"
    assert g.order.degeneracy == 2
    assert g.configs == orbit(0, 7)
    g53 = classical_ground(coupling_n7_53)
    assert g53.order.bits == "0000111"
    assert g53.order.degeneracy == 4
    assert set(g53.configs) == set(kink_basis(7))


def test_ambiguous_ground_detected():
    # two decoupled bonds of equal strength: aligned and anti-aligned pairs tie
    j = np.zeros((4, 4))
    j[0, 1] = j[1, 0] = -1.0
    j[2, 3] = j[3, 2] = 1.0
    with pytest.raises(AmbiguousGround):
        classical_ground(CouplingMatrix.from_matrix(j))


def test_ground_budget_guard():
    with pytest.raises(ValueError):
        classical_ground(CouplingMatrix.from_matrix(np.zeros((25, 25))))


def scalar_ground(n, mu):
    """classical_ground on the full coupling matrix: the order, or the tied order set."""
    try:
        return classical_ground(coupling_from_trap(n, 10.0, mu)).order
    except AmbiguousGround as tie:
        return tie.orders


def batched_ground(found):
    return found.orders if isinstance(found, AmbiguousGround) else found


@pytest.mark.parametrize("n", range(3, 12))
def test_mode_space_grounds_match_coupling_enumeration(n, monkeypatch):
    grid = [k + (i + 0.5) / 64 for k in range(1, n) for i in range(64)]
    transitions = [t.mu for t in phase_table(n, 10.0, 64).transitions]
    mus = grid + transitions
    found = ground_orders(n, 10.0, mus)
    assert [batched_ground(f) for f in found] == [scalar_ground(n, mu) for mu in mus]
    # one product over many detunings answers as one call per detuning does
    one_by_one = [ground_orders(n, 10.0, [mu])[0] for mu in mus]
    assert [batched_ground(f) for f in one_by_one] == [batched_ground(f) for f in found]
    # trap tables show no exact crossing; a wide tie window makes every transition one
    monkeypatch.setattr(spins, "_TIE_RTOL", 1e-3)
    wide = ground_orders(n, 10.0, transitions)
    assert all(isinstance(f, AmbiguousGround) for f in wide)
    assert [f.orders for f in wide] == [scalar_ground(n, mu) for mu in transitions]


@pytest.mark.parametrize("n", [9, 10, 11])
def test_multi_chunk_enumeration_matches_one_chunk(n, monkeypatch):
    """32-row chunks (uncached mode projections) reproduce the one-chunk results bit for bit."""
    j = coupling_from_trap(n, 10.0, n - 1.5)
    mus = [k + (i + 0.5) / 16 for k in range(1, n) for i in range(16)]

    def enumerate_all():
        found = ground_orders(n, 10.0, mus)
        return classical_energies(j), classical_energies(j, half=True), [batched_ground(f) for f in found]

    spins._cached_projections.cache_clear()
    full, half, orders = enumerate_all()
    monkeypatch.setattr(spins, "_ENUM_CHUNK", 1 << 5)
    spins._cached_projections.cache_clear()
    try:
        full_c, half_c, orders_c = enumerate_all()
    finally:
        spins._cached_projections.cache_clear()
    np.testing.assert_array_equal(full_c, full)
    np.testing.assert_array_equal(half_c, half)
    assert orders_c == orders


def test_mode_space_grounds_reject_invalid_detunings():
    with pytest.raises(ResonanceError):
        ground_orders(5, 10.0, [3.5, 4.0, 4.5])
    for outside in (0.5, 5.5):
        with pytest.raises(ValueError):
            ground_orders(5, 10.0, [3.5, outside])
    with pytest.raises(ValueError, match="budget"):
        ground_orders(25, 10.0, [3.5])


# --- Hamiltonian application and eigensolvers ---------------------------------


def test_apply_zero_field_is_diagonal(coupling_n7_51):
    rng = np.random.default_rng(1)
    v = rng.standard_normal(2**7)
    out = apply_hamiltonian(coupling_n7_51, 0.0, v)
    assert np.allclose(out, classical_energies(coupling_n7_51) * v, atol=0, rtol=1e-15)


def test_apply_single_site_field():
    # zero coupling: the field unit falls back to bare coupling units and the
    # +x field sends (1, 0) to (0, -1)
    j = CouplingMatrix.from_matrix([[0.0]])
    out = apply_hamiltonian(j, 1.0, np.array([1.0, 0.0]))
    assert np.array_equal(out, np.array([0.0, -1.0]))


def test_apply_rejects_wrong_dimension(coupling_n7_51):
    with pytest.raises(ValueError):
        apply_hamiltonian(coupling_n7_51, 0.1, np.zeros(17))


def test_apply_matches_kronecker_oracle():
    rng = np.random.default_rng(6)
    j = coupling_from_trap(6, 10.0, 4.3)
    b_field = 0.7
    h = kron_hamiltonian(j.j, b_field * j.jbar)
    for _ in range(4):
        v = rng.standard_normal(2**6)
        assert np.max(np.abs(apply_hamiltonian(j, b_field, v) - h @ v)) <= 1e-12
    assert np.max(np.abs(dense_hamiltonian(j, b_field) - h)) <= 1e-12


def test_apply_is_linear(coupling_n7_51):
    rng = np.random.default_rng(3)
    v, w = rng.standard_normal((2, 2**7))
    lhs = apply_hamiltonian(coupling_n7_51, 0.4, 2.0 * v - 3.0 * w)
    rhs = 2.0 * apply_hamiltonian(coupling_n7_51, 0.4, v) - 3.0 * apply_hamiltonian(
        coupling_n7_51, 0.4, w
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_zero_field_eigenvalues_are_sorted_classical_energies(coupling_n7_51):
    res = lowest_eigenpairs(coupling_n7_51, 0.0, k=6)
    expected = np.sort(classical_energies(coupling_n7_51))[:6]
    assert np.max(np.abs(res.eigenvalues - expected)) <= 1e-12


def test_pure_field_ground_state():
    n = 4
    j = CouplingMatrix.from_matrix(np.zeros((n, n)))
    res = lowest_eigenpairs(j, 1.0, k=2)
    assert res.eigenvalues[0] == pytest.approx(-n, abs=1e-10)
    uniform = np.full(2**n, 1.0 / 2 ** (n / 2))
    overlap = abs(res.eigenvectors[:, 0] @ uniform)
    assert overlap == pytest.approx(1.0, abs=1e-10)
    assert polarization(res, 0) == pytest.approx(1.0, abs=1e-10)


def test_eigenpair_contracts(coupling_n7_51):
    res = lowest_eigenpairs(coupling_n7_51, 0.3, k=4)
    assert np.all(np.diff(res.eigenvalues) >= 0)
    assert np.max(np.abs(np.linalg.norm(res.eigenvectors, axis=0) - 1.0)) <= 1e-12
    assert np.all(res.residuals <= 1e-9 * np.maximum(1.0, np.abs(res.eigenvalues)))


def test_k_and_field_validation(coupling_n7_51):
    with pytest.raises(ValueError):
        lowest_eigenpairs(coupling_n7_51, 0.1, k=0)
    with pytest.raises(ValueError):
        lowest_eigenpairs(coupling_n7_51, 0.1, k=9)
    with pytest.raises(ValueError):
        lowest_eigenpairs(coupling_n7_51, -0.5, k=2)


def test_dense_and_iterative_paths_agree(force_solver):
    rng = np.random.default_rng(11)
    for n, mu, b in ((8, 5.6, 0.4), (9, 3.3, 0.15), (10, 8.2, 0.8)):
        j = coupling_from_trap(n, 10.0, mu)
        force_solver("dense")
        dense = lowest_eigenpairs(j, b, k=4)
        force_solver("lanczos")
        krylov = lowest_eigenpairs(j, b, k=4)
        assert np.max(np.abs(dense.eigenvalues - krylov.eigenvalues)) <= 1e-8


@pytest.mark.parametrize("method", ["dense", "lanczos"])
def test_eigensolve_enumerates_energies_once(coupling_n7_51, monkeypatch, force_solver, method):
    calls = []

    def counted(coupling, half=False):
        calls.append(half)
        return classical_energies(coupling, half)

    monkeypatch.setattr(spins, "classical_energies", counted)
    force_solver(method)
    lowest_eigenpairs(coupling_n7_51, 0.3, k=6)
    assert calls == [False]


def test_iterative_path_reproducible(coupling_n7_51, force_solver):
    force_solver("lanczos")
    a = lowest_eigenpairs(coupling_n7_51, 0.6, k=3)
    b = lowest_eigenpairs(coupling_n7_51, 0.6, k=3)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_spectrum_invariant_under_global_flip_relabeling(coupling_n7_51):
    dim = 2**7
    h = dense_hamiltonian(coupling_n7_51, 0.4)
    perm = np.array([flip_all(s, 7) for s in range(dim)])
    evals = np.linalg.eigvalsh(h)[:4]
    evals_flipped = np.linalg.eigvalsh(h[np.ix_(perm, perm)])[:4]
    assert np.max(np.abs(evals - evals_flipped)) <= 1e-10


def test_spectrum_invariant_under_ion_reversal(coupling_n7_51):
    reversed_j = CouplingMatrix.from_matrix(
        coupling_n7_51.j[::-1, ::-1], detuning=coupling_n7_51.detuning, beta=coupling_n7_51.beta
    )
    a = lowest_eigenpairs(coupling_n7_51, 0.4, k=4).eigenvalues
    b = lowest_eigenpairs(reversed_j, 0.4, k=4).eigenvalues
    assert np.max(np.abs(a - b)) <= 1e-10


def test_ground_energy_monotone_in_field(coupling_n7_51):
    fields = (0.0, 0.2, 0.5, 1.0, 2.0, 5.0)
    energies = [
        lowest_eigenpairs(coupling_n7_51, b, k=1).eigenvalues[0] for b in fields
    ]
    assert all(a >= b for a, b in zip(energies, energies[1:]))
    classical = classical_ground(coupling_n7_51).energy
    # variational bounds from the classical minimum and the fully polarized state
    for b, e in zip(fields[1:], energies[1:]):
        assert e <= classical + 1e-12
        assert e <= -7 * b * coupling_n7_51.jbar + 1e-12


def test_quantum_ground_equals_classical_minimum_at_zero_field():
    for n, mu in ((4, 2.5), (7, 5.1), (10, 6.7)):
        j = coupling_from_trap(n, 10.0, mu)
        res = lowest_eigenpairs(j, 0.0, k=1)
        assert abs(res.eigenvalues[0] - classical_ground(j).energy) <= 1e-12


def detunings(rng, n, count):
    """Random rescaled detunings in (1.05, n - 0.05), kept off the mode resonances."""
    found = []
    while len(found) < count:
        mu = float(rng.uniform(1.05, n - 0.05))
        if abs(mu - round(mu)) >= 2e-3:
            found.append(mu)
    return found


def test_classical_energies_flip_symmetric_bit_for_bit():
    # the flip sectors reuse diag[:half] for both halves of the basis
    rng = np.random.default_rng(0xD1A6)
    for n in range(2, 14):
        for mu in detunings(rng, n, 2):
            diag = classical_energies(coupling_from_trap(n, 10.0, mu))
            s = np.arange(1 << n)
            assert np.array_equal(diag, diag[s ^ ((1 << n) - 1)]), (n, mu)


def test_flip_sectors_match_dense_oracle(force_solver):
    rng = np.random.default_rng(0x5EC7)
    for n in range(2, 12):
        k = min(6, 1 << n)
        for mu in detunings(rng, n, 2):
            j = coupling_from_trap(n, 10.0, mu)
            for b in (0.0, 0.01, 0.3, 1.5):
                force_solver("dense")
                dense = lowest_eigenpairs(j, b, k=k)
                force_solver("lanczos")
                krylov = lowest_eigenpairs(j, b, k=k)
                assert np.max(np.abs(dense.eigenvalues - krylov.eigenvalues)) <= 1e-8
                p_dense = cluster_projection(dense, fm_basis(n))
                assert abs(p_dense - cluster_projection(krylov, fm_basis(n))) <= 1e-8
                assert abs(cluster_polarization(dense) - cluster_polarization(krylov)) <= 1e-8


@pytest.mark.parametrize("mu", [1.1, 3.064, 10.009])
def test_krylov_converges_at_n11(mu, force_solver):
    # each of these points ran into the former block Krylov basis cap
    j = coupling_from_trap(11, 10.0, mu)
    op = spins._SpinOperator(j)
    eye = np.eye(1 << 10)
    for b in (0.01, 0.3, 1.5):
        b_abs = b * spins.field_scale(j)
        sectors = [np.linalg.eigvalsh(op.sector_matvec(eye, b_abs, sign)) for sign in (1.0, -1.0)]
        oracle = np.sort(np.concatenate(sectors))[:6]
        force_solver("lanczos")
        krylov = lowest_eigenpairs(j, b, k=6)
        assert np.max(np.abs(krylov.eigenvalues - oracle)) <= 1e-8


# E0...E5 at N = 13, mu~ = 11.045520732179284, B = 1.5 Jbar, from the former block
# Krylov solver at a 600-column basis cap (full-space residuals <= 2.9e-12)
N13_FM_SIDE_LEVELS = [
    -32.775646146281886,
    -32.13597179724566,
    -30.574326023412947,
    -30.12949149827592,
    -30.04538981195105,
    -29.974232719200327,
]


def test_krylov_converges_at_n13_fm_side(force_solver):
    j = coupling_from_trap(13, 10.0, 11.045520732179284)
    force_solver("lanczos")
    krylov = lowest_eigenpairs(j, 1.5, k=6)
    assert krylov.method == "lanczos"
    expected = np.array(N13_FM_SIDE_LEVELS)
    assert np.max(np.abs(krylov.eigenvalues - expected) / np.abs(expected)) <= 1e-8


def test_zero_field_runs_no_solver(monkeypatch, force_solver):
    def no_solver(*args, **kwargs):
        raise AssertionError("a solver ran at zero field")

    rng = np.random.default_rng(0x0B0)
    couplings = [coupling_from_trap(n, 10.0, detunings(rng, n, 1)[0]) for n in range(3, 14)]
    monkeypatch.setattr(spins.lanczos, "lowest_eigenpairs", no_solver)
    monkeypatch.setattr(spins._SpinOperator, "dense", no_solver)
    for method in ("auto", "dense", "lanczos"):
        if method != "auto":
            force_solver(method)
        for j in couplings:
            res = lowest_eigenpairs(j, 0.0, k=min(6, 1 << j.n_ions))
            assert res.method == "diagonal"
            assert res.eigenvalues[0] == classical_ground(j).energy
            assert np.all(res.residuals == 0.0)


def test_residual_check_guards_flip_sector_solves(coupling_n7_51, monkeypatch, force_solver):
    solve = spins.lanczos.lowest_eigenpairs

    def perturbed(matvec, dim, k, **kwargs):
        evals, vecs = solve(matvec, dim, k, **kwargs)
        return evals, vecs + 1e-6 * np.random.default_rng(1).standard_normal(vecs.shape)

    monkeypatch.setattr(spins.lanczos, "lowest_eigenpairs", perturbed)
    force_solver("lanczos")
    with pytest.raises(NoConvergence, match="residual"):
        lowest_eigenpairs(coupling_n7_51, 0.3, k=4)


def test_residual_check_fails_on_nan_residual(coupling_n7_51, monkeypatch, force_solver):
    solve = spins.lanczos.lowest_eigenpairs

    def nan_vectors(matvec, dim, k, **kwargs):
        evals, vecs = solve(matvec, dim, k, **kwargs)
        return evals, np.full_like(vecs, np.nan)

    monkeypatch.setattr(spins.lanczos, "lowest_eigenpairs", nan_vectors)
    force_solver("lanczos")
    with pytest.raises(NoConvergence, match="residual nan"):
        lowest_eigenpairs(coupling_n7_51, 0.3, k=4)


def test_eigensolve_budget_checked_before_any_allocation(monkeypatch):
    def no_operator(coupling):
        raise AssertionError("a spin operator was built for N = 41")

    monkeypatch.setattr(spins, "_SpinOperator", no_operator)
    j = coupling_from_trap(41, 100.0, 39.3)
    with pytest.raises(ValueError, match="N <= 24"):
        lowest_eigenpairs(j, 0.5, k=4)
    with pytest.raises(ValueError, match="N <= 24"):
        field_spectra(j, [0.0, 1.0], k=6)


@pytest.mark.parametrize("b_field", [float("nan"), float("inf")])
def test_non_finite_field_rejected(b_field):
    j = coupling_from_trap(5, 10.0, 3.2)
    with pytest.raises(ValueError, match="finite"):
        lowest_eigenpairs(j, b_field, k=3)
    with pytest.raises(ValueError, match="finite"):
        field_spectra(j, [0.1, b_field, 0.3], k=3)


# --- the field-vector core ----------------------------------------------------------


def assert_same_spectrum(a, b):
    assert a.method == b.method
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_field_spectra_equal_one_field_solves(n, force_solver):
    j = coupling_from_trap(n, 10.0, n - 1.6)
    fields = [0.3, 0.0, 0.01, 1.5, 0.0]
    k = min(6, 1 << n)
    force_solver("dense")
    spectra = field_spectra(j, fields, k=k)
    assert [s.method for s in spectra] == ["dense", "diagonal", "dense", "dense", "diagonal"]
    for b, got in zip(fields, spectra):
        assert got.b_field == b
        assert_same_spectrum(got, lowest_eigenpairs(j, b, k=k))


def test_field_spectra_equal_one_field_krylov_solves(coupling_n7_51, force_solver):
    fields = [0.2, 0.9]
    force_solver("lanczos")
    spectra = field_spectra(coupling_n7_51, fields, k=4)
    for b, got in zip(fields, spectra):
        assert got.method == "lanczos"
        assert_same_spectrum(got, lowest_eigenpairs(coupling_n7_51, b, k=4))


def test_field_spectra_return_a_krylov_failure_for_its_field_only(
    coupling_n7_51, monkeypatch, force_solver
):
    class Sentinel:
        pass

    solve = spins.lanczos.lowest_eigenpairs
    calls, refs = [], []

    def fails_second_field(matvec, dim, k, **kwargs):
        calls.append(dim)
        if len(calls) == 3:  # the + sector of the second field
            held = Sentinel()  # a local of the failing frame, like a Krylov basis
            refs.append(weakref.ref(held))
            raise NoConvergence("basis cap reached")
        return solve(matvec, dim, k, **kwargs)

    monkeypatch.setattr(spins.lanczos, "lowest_eigenpairs", fails_second_field)
    force_solver("lanczos")
    gc.disable()
    try:
        spectra = field_spectra(coupling_n7_51, [0.2, 0.5, 0.9], k=4)
        assert isinstance(spectra[1], NoConvergence) and "basis cap" in str(spectra[1])
        assert spectra[1].__traceback__ is None and refs[0]() is None
    finally:
        gc.enable()
    monkeypatch.setattr(spins.lanczos, "lowest_eigenpairs", solve)
    for i in (0, 2):
        expected = lowest_eigenpairs(coupling_n7_51, (0.2, 0.5, 0.9)[i], k=4)
        assert_same_spectrum(spectra[i], expected)


def test_field_spectra_check_residuals_per_field(coupling_n7_51, monkeypatch, force_solver):
    dense = spins._SpinOperator.dense

    def off_at_second_field(self, b_abs):
        h = dense(self, b_abs)
        h[1, 0, 0] += 1e-3  # the stack solves a matrix that is not H at this field
        return h

    monkeypatch.setattr(spins._SpinOperator, "dense", off_at_second_field)
    force_solver("dense")
    spectra = field_spectra(coupling_n7_51, [0.2, 0.5, 0.9], k=4)
    assert isinstance(spectra[1], NoConvergence) and "residual" in str(spectra[1])
    assert spectra[0].method == spectra[2].method == "dense"


# --- observables ---------------------------------------------------------------


def test_polarization_of_basis_state(coupling_n7_51):
    res = lowest_eigenpairs(coupling_n7_51, 0.0, k=2)
    assert polarization(res, 0) == pytest.approx(0.0, abs=1e-12)


def test_projection_completeness_and_bounds(coupling_n7_51):
    res = lowest_eigenpairs(coupling_n7_51, 0.5, k=2)
    full = subspace_projection(res, range(2**7))
    assert full == pytest.approx(1.0, abs=1e-12)
    p_fm = subspace_projection(res, fm_basis(7))
    p_k = subspace_projection(res, kink_basis(7))
    assert 0.0 <= p_fm <= 1.0 and 0.0 <= p_k <= 1.0
    assert p_fm + p_k <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        subspace_projection(res, [])
    with pytest.raises(ValueError):
        subspace_projection(res, [1, 1])
    # a negative index would alias one counted already (-128 is 0 at N = 7), one past 2^N not exist
    for basis in ([0, -(2**7)], [-1], [2**7], [3, 2**7 + 3]):
        with pytest.raises(ValueError, match="distinct configurations"):
            subspace_projection(res, basis)
        with pytest.raises(ValueError, match="distinct configurations"):
            cluster_projection(res, basis)


def test_ground_cluster_matches_degeneracy(coupling_n7_51, coupling_n7_53):
    res = lowest_eigenpairs(coupling_n7_51, 0.0, k=6)
    assert len(ground_cluster(res)) == 2
    res53 = lowest_eigenpairs(coupling_n7_53, 0.0, k=6)
    assert len(ground_cluster(res53)) == 4


def test_cluster_projection_saturates_in_ordered_phases(coupling_n7_51, coupling_n7_53):
    res = lowest_eigenpairs(coupling_n7_51, 0.0, k=6)
    assert cluster_projection(res, fm_basis(7)) == pytest.approx(1.0, abs=1e-12)
    res53 = lowest_eigenpairs(coupling_n7_53, 0.0, k=6)
    assert cluster_projection(res53, kink_basis(7)) == pytest.approx(1.0, abs=1e-12)
    assert cluster_polarization(res53) == pytest.approx(0.0, abs=1e-12)


def test_deep_kink_projection_stays_high():
    j = coupling_from_trap(9, 10.0, 7.5693)
    res = lowest_eigenpairs(j, 0.05 * 9, k=6)
    assert cluster_projection(res, kink_basis(9)) > 0.9


def cluster_oracle(res, basis):
    """(projection, polarization) averaged over the ground cluster, from per-level loops."""
    e, v, n = res.eigenvalues, res.eigenvectors, res.n_ions
    members = [i for i in range(len(e)) if e[i] - e[0] <= 1e-9 * max(1.0, abs(e[0]))]
    x_total = np.zeros((1 << n, 1 << n))
    for s in range(1 << n):
        for p in range(n):
            x_total[s ^ (1 << p), s] = 1.0
    projection = sum(sum(v[s, i] ** 2 for s in basis) for i in members) / len(members)
    pol = sum(v[:, i] @ x_total @ v[:, i] / n for i in members) / len(members)
    return projection, pol


@pytest.mark.parametrize("n", [3, 5, 7])
def test_column_observables_match_one_field_calls(n):
    _, fm_side, kink_side = fm_kink_interval(n)
    for side, cluster in ((fm_side, 2), (kink_side, 4)):
        j = coupling_from_trap(n, 10.0, 0.5 * (side.lo + side.hi))
        spectra = field_spectra(j, [0.0, 0.05, 0.3, 1.0], k=6)
        assert len(ground_cluster(spectra[0])) == cluster  # B = 0: the degenerate orbit
        (p_fm, p_kink), pol = cluster_averages(spectra, (fm_basis(n), kink_basis(n)))
        for col, res in enumerate(spectra):
            assert abs(p_fm[col] - cluster_projection(res, fm_basis(n))) <= 1e-13
            assert abs(p_kink[col] - cluster_projection(res, kink_basis(n))) <= 1e-13
            assert abs(pol[col] - cluster_polarization(res)) <= 1e-13
            fm_oracle, pol_oracle = cluster_oracle(res, fm_basis(n))
            assert abs(p_fm[col] - fm_oracle) <= 1e-13
            assert abs(p_kink[col] - cluster_oracle(res, kink_basis(n))[0]) <= 1e-13
            assert abs(pol[col] - pol_oracle) <= 1e-13


@pytest.mark.parametrize("mu, cluster", [(5.1, 2), (5.3, 4)])
def test_cluster_averages_ignore_rotations_inside_the_cluster(mu, cluster):
    res = lowest_eigenpairs(coupling_from_trap(7, 10.0, mu), 0.0, k=6)
    assert len(ground_cluster(res)) == cluster
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((cluster, cluster)))
    vecs = res.eigenvectors.copy()
    vecs[:, :cluster] = vecs[:, :cluster] @ q
    rotated = dataclasses.replace(res, eigenvectors=vecs)
    part = fm_basis(7)[:1] if cluster == 2 else kink_basis(7)[:2]
    # single levels see the rotation, the cluster averages do not
    assert abs(subspace_projection(rotated, part) - subspace_projection(res, part)) > 1e-3
    for basis in (part, fm_basis(7), kink_basis(7)):
        assert abs(cluster_projection(rotated, basis) - cluster_projection(res, basis)) <= 1e-13
    assert abs(cluster_polarization(rotated) - cluster_polarization(res)) <= 1e-13
