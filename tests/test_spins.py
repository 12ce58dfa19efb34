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
from ionspins.couplings import CouplingMatrix, chain_spectrum, coupling_from_trap, resolve_detuning
from ionspins.errors import NoConvergence, ResonanceError
from ionspins.phases import fm_kink_interval, phase_table
from ionspins.spins import (
    AmbiguousGround,
    apply_hamiltonian,
    bits_to_index,
    canonical_configs,
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
    ground_orders,
    hamming_distance,
    index_to_bits,
    kink_basis,
    lowest_eigenpairs,
    orbit,
    orbit_sizes,
    reflected_configs,
    reverse_bits,
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


@pytest.mark.parametrize("n", range(2, 13))
def test_array_symmetry_forms_match_scalar_forms(n):
    s = np.arange(1 << n)
    reflected = reflected_configs(s, n)
    canonical = canonical_configs(s, n)
    sizes = orbit_sizes(s, n)
    orders = [canonicalize(int(x), n) for x in s]
    assert reflected.tolist() == [reverse_bits(int(x), n) for x in s]
    assert canonical.tolist() == [o.canonical for o in orders]
    assert sizes.tolist() == [o.degeneracy for o in orders]
    # independent of both: the reflection reads the bit string backwards
    assert reflected.tolist() == [int(index_to_bits(int(x), n)[::-1], 2) for x in s]
    assert sizes.tolist() == [len(orbit(int(x), n)) for x in s]


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
    e = spins._SpinOperator(coupling_n7_51).diag
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


def test_non_finite_energies_rejected():
    j = np.zeros((4, 4))
    j[0, 1] = j[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
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


@pytest.mark.parametrize("n", range(3, 13))
def test_mode_space_grounds_match_coupling_enumeration(n, monkeypatch):
    grid = [k + (i + 0.5) / 64 for k in range(1, n) for i in range(64)]
    transitions = [t.mu_tilde for t in phase_table(n, 10.0, 64).transitions]
    mus = grid + transitions
    found = ground_orders(n, 10.0, mus)
    assert [batched_ground(f) for f in found] == [scalar_ground(n, mu) for mu in mus]
    # one product over many detunings answers as one call per detuning does: a
    # tile's energies round differently with its row count, which must not
    # decide an order, not even at a transition
    one_by_one = [ground_orders(n, 10.0, [mu])[0] for mu in mus]
    assert [batched_ground(f) for f in one_by_one] == [batched_ground(f) for f in found]
    # trap tables show no exact crossing; a wide tie window makes every transition one
    monkeypatch.setattr(spins, "_TIE_RTOL", 1e-3)
    wide = ground_orders(n, 10.0, transitions)
    assert all(isinstance(f, AmbiguousGround) for f in wide)
    assert [f.orders for f in wide] == [scalar_ground(n, mu) for mu in transitions]


def mode_space_columns(n):
    """The configurations of ground_orders' energy columns, chunk after chunk."""
    chunks = range(0, 1 << (n - 1), spins._ENUM_CHUNK)
    return np.concatenate([spins._mode_projections(n, 10.0, lo)[0] for lo in chunks])


ORDER_COUNTS = [2, 3, 6, 10, 20, 36, 72, 136, 272, 528, 1056, 2080, 4160]  # N = 2 ... 14


@pytest.mark.parametrize("chunk", [None, 1 << 5])
def test_mode_space_columns_are_one_per_order(chunk, monkeypatch):
    """One column per spin order: the canonical forms of the whole basis, ascending."""
    if chunk is not None:
        monkeypatch.setattr(spins, "_ENUM_CHUNK", chunk)
    for n, count in zip(range(2, 15), ORDER_COUNTS):
        columns = mode_space_columns(n)
        np.testing.assert_array_equal(columns, np.unique(canonical_configs(np.arange(1 << n), n)))
        assert len(columns) == count


def test_two_block_chunks_match_coupling_enumeration():
    """N = 15: its 8256 orders score as two blocks of 4128 columns, in tiles of three detunings."""
    n = 15
    assert [len(p) for _, p in spins._column_blocks(n, 10.0)] == [4128, 4128]
    assert spins._TILE_DOUBLES // 4128 == 3
    transition, _, _ = fm_kink_interval(n)
    mid, width = transition.mu_tilde, transition.uncertainty
    # with 13.5 the three detunings round the transition make one bracket of four rows
    mus = [k + 0.5 for k in range(1, n)] + [mid - width, mid, mid + width]
    found = ground_orders(n, 10.0, mus)
    assert [batched_ground(f) for f in found] == [scalar_ground(n, mu) for mu in mus]
    assert found[-3].bits == "0" * n and found[-1].bits == "0" * 8 + "1" * 7


def answer(found):
    """An order, or a tie's orders and row minimum: what a detuning's energies decide."""
    return (found.orders, found.energy) if isinstance(found, AmbiguousGround) else found


@pytest.mark.parametrize("tie_rtol", [1e-10, 1e-2])
@pytest.mark.parametrize("n", [16, 19])
def test_a_detuning_scores_alone_as_in_a_batch(n, tie_rtol, monkeypatch):
    """A row's minimum and tie candidates do not depend on the other detunings of its call.

    Alone, a detuning is scored against whole blocks; in a batch of
    brackets 1e-6 wide most rows are scored against the few columns their
    bracket admits, in products of other shapes, which round differently.
    The answers agree bit for bit because a row whose slack-widened window
    holds two candidates or more is rescored in one fixed order.  A 1e-2
    tie window holds several orders that win at neither end of a bracket,
    which only the bound's window term admits; half the rows are rescored.
    """
    monkeypatch.setattr(spins, "_TIE_RTOL", tie_rtol)
    mus = [k + 0.5 + i * 1e-6 for k in (1, n - 2) for i in range(17)]
    batch = ground_orders(n, 10.0, mus)
    if tie_rtol > 1e-10:
        assert any(isinstance(f, AmbiguousGround) and len(f.orders) > 2 for f in batch)
    alone = [ground_orders(n, 10.0, [mu])[0] for mu in mus]
    assert [answer(f) for f in alone] == [answer(f) for f in batch]


@pytest.mark.parametrize("k", range(1, 12))
def test_most_grid_rows_skip_the_whole_chunk(k, monkeypatch):
    """N = 12, 1024 detunings on interval k: at most a quarter of the rows meet all 1056 columns."""
    scored = []
    score = spins._score

    def counting(rows, mu, w2, idx, p, *rest):
        scored.append((len(rows), len(p)))
        return score(rows, mu, w2, idx, p, *rest)

    monkeypatch.setattr(spins, "_score", counting)
    mus = k + (np.arange(1024) + 0.5) / 1024
    ground_orders(12, 10.0, mus)
    assert sum(rows for rows, _ in scored) == 1024  # each row once: N = 12 is one block
    assert sum(rows for rows, cols in scored if cols == 1056) <= 256


@pytest.mark.parametrize("n", [5, 7, 9])
def test_bound_slack_covers_rounding(n, monkeypatch):
    """With no tie window and zero projections, one ulp decides which columns a bracket admits.

    Every energy is then -S(mu) to the last bit, and the bound admits a
    column only through the rounding slack: E(hi) <= E_min(lo) + S(lo) -
    S(hi) holds exactly in real arithmetic, but not always as computed.
    Random brackets are needed; uniform 64- and 256-sample grids happen to
    round on the safe side.
    """
    monkeypatch.setattr(spins, "_TIE_RTOL", 0.0)
    block = (np.array([0, 1]), np.zeros((2, n)))
    monkeypatch.setattr(spins, "_column_blocks", lambda n_ions, beta: iter([block]))
    rng = np.random.default_rng(1)
    brackets = [rng.integers(1, n) + np.sort(rng.uniform(0.02, 0.98, 17)) for _ in range(200)]
    bounded = [[answer(f) for f in ground_orders(n, 10.0, mus)] for mus in brackets]
    monkeypatch.setattr(spins, "_BRACKET", 1)  # every row scored in full
    assert bounded == [[answer(f) for f in ground_orders(n, 10.0, mus)] for mus in brackets]


@pytest.mark.parametrize("n", [5, 9, 16])
def test_candidate_slack_covers_rounding(n, monkeypatch):
    """A configuration the product scores within the slack of a row's minimum is rescored.

    The block pairs the ground configuration, with its own (z . b^k)^2 row,
    with another order whose row the product scores 2 (N + 1)^2 eps
    sum_k |d_k| lower: four times the rounding bound of either energy, and
    less than the slack.  With no tie window only the slack keeps the ground
    configuration a candidate, and the rescore, which reads the
    configurations and not the block, finds the ground order again.
    """
    mu_tilde = n - 0.5
    ground = classical_ground(coupling_from_trap(n, 10.0, mu_tilde)).order
    spec = chain_spectrum(n, 10.0)
    mu = resolve_detuning(spec, mu_tilde).resolved
    d = 1.0 / (mu * mu - spec.frequencies**2)  # d[0] > 0: mu lies above the lowest mode
    row = (spins._signs(np.array([ground.canonical]), n) @ spec.mode_matrix) ** 2
    rival = row.copy()
    rival[0, 0] -= 2 * (n + 1) ** 2 * np.finfo(float).eps * np.abs(d).sum() / d[0]
    other = 1 if ground.canonical == 0 else 0  # ion N down, or all up: another order
    block = (np.array([ground.canonical, other]), np.concatenate([row, rival]))
    monkeypatch.setattr(spins, "_TIE_RTOL", 0.0)
    monkeypatch.setattr(spins, "_column_blocks", lambda n_ions, beta: iter([block]))
    assert ground_orders(n, 10.0, [mu_tilde]) == [ground]


@pytest.mark.parametrize(
    "n, chunk", [pytest.param(9, None, id="9"), pytest.param(15, None, id="15"), (9, 1 << 5), (15, 1 << 5)]
)
def test_ties_sit_at_their_own_index(n, chunk, monkeypatch, enum_chunk):
    """Subinterval midpoints and transitions alternate; each tie matches classical_ground's.

    With 32-row chunks some tie spans two chunks, and a row's minimum in one
    chunk is beaten by a later chunk's.
    """
    table = phase_table(n, 10.0, 16)
    mus = [
        x
        for iv in table.intervals
        for sub, t in zip(iv.subintervals, iv.transitions)
        for x in (0.5 * (sub.lo + sub.hi), t.mu_tilde)
    ]
    monkeypatch.setattr(spins, "_TIE_RTOL", 1e-3)
    if chunk is not None:
        enum_chunk(chunk)
    found = ground_orders(n, 10.0, mus)
    assert [isinstance(f, AmbiguousGround) for f in found] == [False, True] * (len(mus) // 2)
    if chunk is not None:
        ties = [f.orders for f in found if isinstance(f, AmbiguousGround)]
        assert any(len({o.canonical // chunk for o in tie}) > 1 for tie in ties)
    for mu, f in zip(mus, found):
        coupling = coupling_from_trap(n, 10.0, mu)
        if isinstance(f, AmbiguousGround):
            with pytest.raises(AmbiguousGround) as tie:
                classical_ground(coupling)
            assert f.orders == tie.value.orders
            # mode-space and coupling-space energies agree to rounding
            assert f.energy == pytest.approx(tie.value.energy, rel=1e-12)
        else:
            assert f == classical_ground(coupling).order


def test_chain_modes_solved_once_across_layers():
    # the couplings and the mode-space ground search read one cached spectrum per chain
    chain_spectrum.cache_clear()
    coupling_from_trap(7, 10.0, 5.1)
    ground_orders(7, 10.0, [5.1, 5.3])
    assert chain_spectrum.cache_info().currsize == 1


@pytest.mark.parametrize("n", [9, 10, 11])
def test_multi_chunk_enumeration_matches_one_chunk(n, enum_chunk):
    """32-row chunks (more than the projection cache holds) reproduce the one-chunk results bit for bit."""
    j = coupling_from_trap(n, 10.0, n - 1.5)
    mus = [k + (i + 0.5) / 16 for k in range(1, n) for i in range(16)]

    def enumerate_all():
        found = ground_orders(n, 10.0, mus)
        return spins._SpinOperator(j).diag, classical_energies(j), [batched_ground(f) for f in found]

    spins._cached_projections.cache_clear()
    full, half, orders = enumerate_all()
    enum_chunk(1 << 5)
    full_c, half_c, orders_c = enumerate_all()
    np.testing.assert_array_equal(full_c, full)
    np.testing.assert_array_equal(half_c, half)
    assert orders_c == orders


def test_each_chunk_is_built_once_per_call(enum_chunk, monkeypatch):
    """N = 9 in 32-row chunks: 8 chunks, more than the cache's 2, and 1024 detunings in one call.

    A table the cache cannot hold bypasses it: each chunk is built once, and none stays cached.
    """
    mus = [k + (i + 0.5) / 128 for k in range(1, 9) for i in range(128)]
    one_chunk = [batched_ground(f) for f in ground_orders(9, 10.0, mus)]
    enum_chunk(1 << 5)
    builds = []
    build = spins._mode_projections
    monkeypatch.setattr(
        spins, "_mode_projections", lambda n, beta, lo: builds.append(lo) or build(n, beta, lo)
    )
    assert [batched_ground(f) for f in ground_orders(9, 10.0, mus)] == one_chunk
    assert builds == list(range(0, 256, 32))
    assert spins._cached_projections.cache_info().currsize == 0


def test_empty_batch_has_no_orders():
    assert ground_orders(5, 10.0, []) == []


def test_mode_space_grounds_reject_invalid_detunings():
    with pytest.raises(ResonanceError):
        ground_orders(5, 10.0, [3.5, 4.0, 4.5])
    for outside in (0.5, 5.5):
        with pytest.raises(ValueError):
            ground_orders(5, 10.0, [3.5, outside])
    with pytest.raises(ValueError, match="budget"):
        ground_orders(25, 10.0, [3.5])
    # the first bad entry of a batch decides the error
    spec = chain_spectrum(5, 10.0)
    with pytest.raises(ResonanceError, match="sits on phonon mode 4"):
        ground_orders(5, 10.0, [3.5, 4.0, 0.5])
    with pytest.raises(ValueError, match="outside the open interval") as exc:
        ground_orders(5, 10.0, [3.5, 0.5, 4.0])
    assert not isinstance(exc.value, ResonanceError)
    # 1e-5 past mode 4 resolves within 1e-6 wz of it: the modes near the top are 0.05 wz apart
    with pytest.raises(ResonanceError, match="within 1e-6 of a mode frequency") as alone:
        resolve_detuning(spec, 4.00001)
    with pytest.raises(ResonanceError) as batch:
        ground_orders(5, 10.0, [3.5, 4.00001, 0.5, 4.0])
    assert str(batch.value) == str(alone.value)


def branch_and_bound_ground(n, mu_tilde, incumbent):
    """The canonical orders in the tie window of the classical minimum, by branch and bound.

    Independent of the chunked enumeration: breadth first over ions 1 ... N
    with ion 1 up, the frontier as arrays.  A node fixes ions 1 ... i, so
    z . b^k lies in [c_k - rho_k, c_k + rho_k] with rho_k = sum_{m > i}
    |b_mk|, and with E = sum_k d_k (z . b^k)^2 - S each term d_k (z . b^k)^2
    is at least d_k times the squared distance from 0 to that interval
    (d_k > 0) or its farther end squared (d_k < 0).  A node whose bound
    passes the incumbent (the energy of some configuration) by more than a
    slack of 1e-9 N sum_k |d_k| >= 1e-9 max |E| holds no leaf of the
    minimum's tie window.  At a leaf rho = 0 and the bound is the energy.
    """
    spec = chain_spectrum(n, 10.0)
    b = spec.mode_matrix
    mu = resolve_detuning(spec, mu_tilde).resolved
    d = 1.0 / (mu * mu - spec.frequencies**2)
    rho = np.vstack([np.cumsum(np.abs(b[::-1]), axis=0)[::-1][1:], np.zeros(n)])
    cut = incumbent + 1e-9 * max(1.0, n * np.abs(d).sum())
    configs, c = np.zeros(1, dtype=np.int64), b[:1]
    for i in range(1, n):
        configs = np.concatenate([2 * configs, 2 * configs + 1])  # ion i + 1 up, then down
        c = np.concatenate([c + b[i], c - b[i]])
        near, far = np.maximum(np.abs(c) - rho[i], 0.0), np.abs(c) + rho[i]
        bound = np.where(d > 0, d * near**2, d * far**2).sum(axis=1) - d.sum()
        keep = bound <= cut
        configs, c, bound = configs[keep], c[keep], bound[keep]
    emin = bound.min()
    window = configs[bound <= emin + spins._TIE_RTOL * max(1.0, abs(emin))]
    return {canonicalize(int(s), n).canonical for s in window}


def assert_ground_orders_match_branch_and_bound(n, mus):
    """ground_orders against the branch and bound, whose incumbent is the returned order's energy."""
    spec = chain_spectrum(n, 10.0)
    found = ground_orders(n, 10.0, mus)
    mismatches = []
    for mu_tilde, f in zip(mus, found):
        orders = f.orders if isinstance(f, AmbiguousGround) else (f,)
        z = 1.0 - 2.0 * ((orders[0].canonical >> np.arange(n - 1, -1, -1)) & 1)
        mu = resolve_detuning(spec, mu_tilde).resolved
        d = 1.0 / (mu * mu - spec.frequencies**2)
        incumbent = float(d @ (z @ spec.mode_matrix) ** 2 - d.sum())
        if branch_and_bound_ground(n, mu_tilde, incumbent) != {o.canonical for o in orders}:
            mismatches.append(mu_tilde)
    assert mismatches == []
    return found


@pytest.mark.parametrize("n", [20, 21, 22])
def test_ground_orders_match_branch_and_bound(n):
    """Above N = 19, 16 random detunings kept 2e-3 or more off the modes."""
    assert_ground_orders_match_branch_and_bound(n, detunings(np.random.default_rng(n), n, 16))


def test_ground_orders_match_branch_and_bound_across_a_transition():
    """N = 21, 64 detunings inside (19, 20): one order change, and the bracket bound's inner rows."""
    found = assert_ground_orders_match_branch_and_bound(21, list(np.linspace(19, 20, 66)[1:-1]))
    assert sum(a != b for a, b in zip(found, found[1:])) == 1


# --- Hamiltonian application and eigensolvers ---------------------------------


def test_apply_zero_field_is_diagonal(coupling_n7_51):
    rng = np.random.default_rng(1)
    v = rng.standard_normal(2**7)
    out = apply_hamiltonian(coupling_n7_51, 0.0, v)
    assert np.allclose(out, spins._SpinOperator(coupling_n7_51).diag * v, atol=0, rtol=1e-15)


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
    expected = np.sort(spins._SpinOperator(coupling_n7_51).diag)[:6]
    assert np.max(np.abs(res.eigenvalues - expected)) <= 1e-12


def test_pure_field_ground_state():
    n = 4
    j = CouplingMatrix.from_matrix(np.zeros((n, n)))
    res = lowest_eigenpairs(j, 1.0, k=2)
    assert res.eigenvalues[0] == pytest.approx(-n, abs=1e-10)
    uniform = np.full(2**n, 1.0 / 2 ** (n / 2))
    overlap = abs(res.eigenvectors[:, 0] @ uniform)
    assert overlap == pytest.approx(1.0, abs=1e-10)
    assert level_polarization(res, 0) == pytest.approx(1.0, abs=1e-10)
    assert cluster_polarization(res) == pytest.approx(1.0, abs=1e-10)


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

    def counted(coupling):
        calls.append(coupling)
        return classical_energies(coupling)

    monkeypatch.setattr(spins, "classical_energies", counted)
    force_solver(method)
    lowest_eigenpairs(coupling_n7_51, 0.3, k=6)
    assert len(calls) == 1


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
        coupling_n7_51.j[::-1, ::-1], detuning=coupling_n7_51.detuning
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


@pytest.mark.parametrize("n", [3, 12, 21, 24])
def test_signs_equal_the_int64_mask(n):
    """The +-1 matrix, masked in int8, equals the int64 form, so census tables keep their digests."""
    if n <= 12:
        indices = np.arange(1 << n, dtype=np.int64)
    else:
        # both ends of the full basis and a random sample between them
        rng = np.random.default_rng(n)
        edges = np.arange(1 << 12, dtype=np.int64)
        indices = np.concatenate([edges, (1 << n) - 1 - edges, rng.integers(0, 1 << n, 1 << 12)])
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    expected = 1.0 - 2.0 * ((indices[:, None] >> shifts) & 1)
    got = spins._signs(indices, n)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def test_classical_energies_flip_symmetric_bit_for_bit():
    # the flip sectors reuse diag[:half] for both halves of the basis
    rng = np.random.default_rng(0xD1A6)
    for n in range(2, 14):
        for mu in detunings(rng, n, 2):
            diag = spins._SpinOperator(coupling_from_trap(n, 10.0, mu)).diag
            s = np.arange(1 << n)
            assert np.array_equal(diag, diag[s ^ ((1 << n) - 1)]), (n, mu)


def test_flip_sectors_match_dense_oracle(force_solver):
    rng = np.random.default_rng(0x5EC7)
    for n in range(2, 12):
        k = min(6, 1 << n)
        for mu in detunings(rng, n, 2):
            j = coupling_from_trap(n, 10.0, mu)
            # at B = 5 one sector holds E0 alone and the other the one-magnon band:
            # the uneven split that restarts a sector, densely at small N
            for b in (0.0, 0.01, 0.3, 1.5, 5.0):
                force_solver("dense")
                dense = lowest_eigenpairs(j, b, k=k)
                force_solver("lanczos")
                krylov = lowest_eigenpairs(j, b, k=k)
                assert np.max(np.abs(dense.eigenvalues - krylov.eigenvalues)) <= 1e-8
                p_dense = cluster_projection(dense, fm_basis(n))
                assert abs(p_dense - cluster_projection(krylov, fm_basis(n))) <= 1e-8
                assert abs(cluster_polarization(dense) - cluster_polarization(krylov)) <= 1e-8


@pytest.mark.parametrize("n", range(2, 14))
def test_sector_operator_is_the_full_operator_on_sector_states(n):
    """matvec of (v, sign * v[::-1]) / sqrt(2) is the same embedding of sector_matvec(v).

    No solver runs; N - 1 < _LOW_FLIP_BITS, where one product flips every
    in-half bit, is covered as well as the split into product and block moves.
    """
    rng = np.random.default_rng(0x5EC7 + n)
    j = coupling_from_trap(n, 10.0, detunings(rng, n, 1)[0])
    op = spins._SpinOperator(j)
    b_abs = 0.7 * spins.field_scale(j)
    v = rng.standard_normal((3, 1 << (n - 1)))

    def embed(rows, sign):
        return np.concatenate([rows, sign * rows[:, ::-1]], axis=1).T / np.sqrt(2.0)

    for sign in (1.0, -1.0):
        full = op.matvec(embed(v, sign), b_abs)
        sector = embed(op.sector_matvec(v, b_abs, sign), sign)
        assert np.max(np.abs(full - sector)) <= 1e-13 * np.max(np.abs(full))


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


@pytest.fixture
def sector_solves(monkeypatch):
    """Records each flip-sector solve as (k, converge, restarted, rows of each block application)."""
    solve = spins.lanczos.lowest_eigenpairs
    solves = []

    def counted(matvec, k, **kwargs):
        applied = []
        solves.append((k, kwargs.get("converge", k), kwargs.get("start") is not None, applied))

        def apply(v):
            applied.append(len(v))
            return matvec(v)

        return solve(apply, k, **kwargs)

    monkeypatch.setattr(spins.lanczos, "lowest_eigenpairs", counted)
    return solves


def test_krylov_converges_at_n13_fm_side(force_solver, sector_solves):
    j = coupling_from_trap(13, 10.0, 11.045520732179284)
    force_solver("lanczos")
    krylov = lowest_eigenpairs(j, 1.5, k=6)
    assert krylov.method == "lanczos"
    expected = np.array(N13_FM_SIDE_LEVELS)
    assert np.max(np.abs(krylov.eigenvalues - expected) / np.abs(expected)) <= 1e-8
    # the levels split 3 + 3 between the sectors: two solves of 6 levels, of
    # which k // 2 + 1 = 4 must converge, and no restart
    solves = [(k, converge, restarted) for k, converge, restarted, _ in sector_solves]
    assert solves == [(6, 4, False), (6, 4, False)]
    applied = [rows for *_, block in sector_solves for rows in block]
    # both flip sectors took 147 block applications of 479 rows in all when these
    # bounds were set: a cheaper step must not cost more steps or more rows
    assert len(applied) <= 162
    assert sum(applied) <= 527


def test_uneven_split_extends_one_sector(force_solver, sector_solves):
    """N = 11, mu~ = 10.05, B = 5: E0 alone in (+), the one-magnon band in (-).

    The (-) sector's 4 converged levels all lie below the 6th merged level,
    so it is solved again for 5 levels, which with E0 from (+) are the 6
    lowest, restarted from its first solve's vectors; the levels match the
    sector-dense oracle.
    """
    j = coupling_from_trap(11, 10.0, 10.05)
    force_solver("lanczos")
    krylov = lowest_eigenpairs(j, 5.0, k=6)
    solves = [(k, converge, restarted) for k, converge, restarted, _ in sector_solves]
    assert solves == [(6, 4, False), (6, 4, False), (5, 5, True)]
    # the three solves took 248 block applications of 600 rows in all when
    # these bounds were set
    applied = [rows for *_, block in sector_solves for rows in block]
    assert len(applied) <= 273
    assert sum(applied) <= 660
    op = spins._SpinOperator(j)
    eye = np.eye(1 << 10)
    b_abs = 5.0 * spins.field_scale(j)
    plus, minus = (np.linalg.eigvalsh(op.sector_matvec(eye, b_abs, sign)) for sign in (1.0, -1.0))
    assert plus[1] > minus[4]  # one level of (+) and five of (-)
    oracle = np.sort(np.concatenate([plus, minus]))[:6]
    assert np.max(np.abs(krylov.eigenvalues - oracle)) <= 1e-8


# E0...E5 at N = 13, mu~ = 11.045520732179284, B = 5 Jbar, from a first solve
# per sector plus a solve of one more (-) level constrained to the complement
# of that sector's 4 converged vectors
N13_FM_SIDE_B5_LEVELS = [
    -79.99715184552483,
    -73.15927890216258,
    -70.93503006627586,
    -69.69496403396609,
    -69.55832133114232,
    -69.35804156739985,
]


def test_restart_cost_at_n13_fm_side(force_solver, sector_solves):
    """The costliest restart of the krylov columns: N = 13 FM side at B = 5."""
    j = coupling_from_trap(13, 10.0, 11.045520732179284)
    force_solver("lanczos")
    krylov = lowest_eigenpairs(j, 5.0, k=6)
    expected = np.array(N13_FM_SIDE_B5_LEVELS)
    assert np.max(np.abs(krylov.eigenvalues - expected) / np.abs(expected)) <= 1e-8
    solves = [(k, converge, restarted) for k, converge, restarted, _ in sector_solves]
    assert solves == [(6, 4, False), (6, 4, False), (5, 5, True)]
    # the three solves took 410 block applications of 949 rows in all when
    # these bounds were set, the restart 92 of 99 rows: after the product of
    # its start block, W holds one row a step (two at one step), not the
    # rows of the 4 levels the first solve converged
    applied = [rows for *_, block in sector_solves for rows in block]
    assert len(applied) <= 451
    assert sum(applied) <= 1045
    restart = sector_solves[2][3]
    assert restart[0] == 5 + spins.lanczos._GUARDS
    assert max(restart[1:]) <= 2


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

    def perturbed(matvec, k, **kwargs):
        evals, vecs = solve(matvec, k, **kwargs)
        return evals, vecs + 1e-6 * np.random.default_rng(1).standard_normal(vecs.shape)

    monkeypatch.setattr(spins.lanczos, "lowest_eigenpairs", perturbed)
    force_solver("lanczos")
    with pytest.raises(NoConvergence, match="residual"):
        lowest_eigenpairs(coupling_n7_51, 0.3, k=4)


def test_residual_check_fails_on_nan_residual(coupling_n7_51, monkeypatch, force_solver):
    solve = spins.lanczos.lowest_eigenpairs

    def nan_vectors(matvec, k, **kwargs):
        evals, vecs = solve(matvec, k, **kwargs)
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

    def fails_second_field(matvec, k, **kwargs):
        calls.append(k)
        if len(calls) == 3:  # the + sector of the second field
            held = Sentinel()  # a local of the failing frame, like a Krylov basis
            refs.append(weakref.ref(held))
            raise NoConvergence("basis cap reached")
        return solve(matvec, k, **kwargs)

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

    def always_fails(matvec, k, **kwargs):
        raise NoConvergence("basis cap reached")

    monkeypatch.setattr(spins.lanczos, "lowest_eigenpairs", always_fails)
    spectra = field_spectra(coupling_n7_51, [0.2, 0.9], k=4)  # every field fails
    assert [type(s) for s in spectra] == [NoConvergence, NoConvergence]


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


def cluster_members(res):
    """Indices of the levels within 1e-9 of the ground energy, relative to max(1, |E0|)."""
    e = res.eigenvalues
    return [i for i in range(len(e)) if e[i] - e[0] <= 1e-9 * max(1.0, abs(e[0]))]


def level_polarization(res, which):
    """<sum_n sigma^x_n> / N of one level, from explicit single-spin flips of its vector."""
    v, n = res.eigenvectors[:, which], res.n_ions
    states = np.arange(1 << n)
    return sum(v @ v[states ^ (1 << p)] for p in range(n)) / n


def test_polarization_of_basis_state(coupling_n7_51):
    res = lowest_eigenpairs(coupling_n7_51, 0.0, k=2)
    assert level_polarization(res, 0) == pytest.approx(0.0, abs=1e-12)
    assert cluster_polarization(res) == pytest.approx(0.0, abs=1e-12)


def test_projection_completeness_and_bounds(coupling_n7_51):
    res = lowest_eigenpairs(coupling_n7_51, 0.5, k=2)
    assert np.sum(res.eigenvectors[:, 0] ** 2) == pytest.approx(1.0, abs=1e-12)
    full = cluster_projection(res, range(2**7))
    assert full == pytest.approx(1.0, abs=1e-12)
    p_fm = cluster_projection(res, fm_basis(7))
    p_k = cluster_projection(res, kink_basis(7))
    assert 0.0 <= p_fm <= 1.0 and 0.0 <= p_k <= 1.0
    assert p_fm + p_k <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        cluster_projection(res, [])
    with pytest.raises(ValueError):
        cluster_projection(res, [1, 1])
    # a negative index would alias one counted already (-128 is 0 at N = 7), one past 2^N not exist
    for basis in ([0, -(2**7)], [-1], [2**7], [3, 2**7 + 3]):
        with pytest.raises(ValueError, match="distinct configurations"):
            cluster_projection(res, basis)
        with pytest.raises(ValueError, match="distinct configurations"):
            cluster_averages([res], [fm_basis(7), basis])


def test_ground_cluster_matches_degeneracy(coupling_n7_51, coupling_n7_53):
    res = lowest_eigenpairs(coupling_n7_51, 0.0, k=6)
    assert len(cluster_members(res)) == 2
    res53 = lowest_eigenpairs(coupling_n7_53, 0.0, k=6)
    assert len(cluster_members(res53)) == 4


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
    v, n = res.eigenvectors, res.n_ions
    members = cluster_members(res)
    x_total = np.zeros((1 << n, 1 << n))
    for s in range(1 << n):
        for p in range(n):
            x_total[s ^ (1 << p), s] = 1.0
    projection = sum(sum(v[s, i] ** 2 for s in basis) for i in members) / len(members)
    pol = sum(v[:, i] @ x_total @ v[:, i] / n for i in members) / len(members)
    return projection, pol


@pytest.mark.parametrize("n", range(3, 14))
def test_level_polarizations_match_flipped_copies(n):
    """The pair sums of ``_level_polarizations`` against sum_p v . flip_p(v), one copy per bit."""
    rng = np.random.default_rng(0x9017 + n)
    vecs = rng.standard_normal((1 << n, 2, 6))
    vecs /= np.linalg.norm(vecs, axis=0)
    oracle = sum(np.sum(vecs * spins._flip(vecs, p), axis=0) for p in range(n)) / n
    assert np.max(np.abs(spins._level_polarizations(vecs, n) - oracle)) <= 1e-13


@pytest.mark.parametrize("n", [3, 5, 7])
def test_column_observables_match_one_field_calls(n):
    _, fm_side, kink_side = fm_kink_interval(n)
    for side, cluster in ((fm_side, 2), (kink_side, 4)):
        j = coupling_from_trap(n, 10.0, 0.5 * (side.lo + side.hi))
        spectra = field_spectra(j, [0.0, 0.05, 0.3, 1.0], k=6)
        assert len(cluster_members(spectra[0])) == cluster  # B = 0: the degenerate orbit
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
    assert len(cluster_members(res)) == cluster
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((cluster, cluster)))
    vecs = res.eigenvectors.copy()
    vecs[:, :cluster] = vecs[:, :cluster] @ q
    rotated = dataclasses.replace(res, eigenvectors=vecs)
    part = fm_basis(7)[:1] if cluster == 2 else kink_basis(7)[:2]
    # single levels see the rotation, the cluster averages do not
    rotated_weight, weight = (np.sum(r.eigenvectors[part, 0] ** 2) for r in (rotated, res))
    assert abs(rotated_weight - weight) > 1e-3
    for basis in (part, fm_basis(7), kink_basis(7)):
        assert abs(cluster_projection(rotated, basis) - cluster_projection(res, basis)) <= 1e-13
    assert abs(cluster_polarization(rotated) - cluster_polarization(res)) <= 1e-13
