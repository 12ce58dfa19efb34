"""Phase table, 2-D scans, gap minimization, and scaling-fit tests."""

import gc
import hashlib
import json
import weakref

import numpy as np
import pytest

from ionspins import chain, couplings, phases, spins
from ionspins.cli import main as cli_main
from ionspins.couplings import coupling_from_trap
from ionspins.errors import AmbiguousGround, NoConvergence, ResonanceError
from ionspins.fileio import read_csv
from ionspins.phases import (
    TransitionLost,
    even_odd_symmetry_report,
    fit_alpha,
    fm_kink_interval,
    linear_fit,
    min_gap,
    phase_table,
    power_law_fit,
    scan_2d,
    transition_width,
)
from ionspins.spins import classical_ground, flip_all, lowest_eigenpairs, reverse_bits


def ground_bits(n, beta, mu):
    return classical_ground(coupling_from_trap(n, beta, mu)).order.bits


# --- phase tables ---------------------------------------------------------------


def test_three_ion_table_has_single_transition():
    table = phase_table(3, 10.0)
    assert table.transition_count == 1
    t = table.transitions[0]
    assert t.left_order != t.right_order
    assert t.uncertainty <= 1e-6


def test_seven_ion_fm_kink_transition_location():
    t, left, right = fm_kink_interval(7, 10.0)
    assert 5.1 < t.mu_tilde < 5.3
    assert t.left_order == "0000000"
    assert t.right_order == "0000111"
    assert left.order == "0000000" and left.degeneracy == 2
    assert right.order == "0000111" and right.degeneracy == 4


def test_transition_sides_reverify_post_hoc(monkeypatch):
    monkeypatch.setattr(phases, "_TABLE_TOL", 1e-7)
    table = phase_table(5, 10.0)
    for t in table.transitions:
        assert ground_bits(5, 10.0, t.mu_tilde - 10 * table.refine_tol) == t.left_order
        assert ground_bits(5, 10.0, t.mu_tilde + 10 * table.refine_tol) == t.right_order


def test_table_tiles_every_interval():
    table = phase_table(5, 10.0)
    for iv in table.intervals:
        subs = iv.subintervals
        assert subs[0].lo == iv.lower_mode
        assert subs[-1].hi == iv.lower_mode + 1
        for a, b in zip(subs[:-1], subs[1:]):
            assert a.hi == b.lo
            assert a.order != b.order
        assert len(iv.transitions) == len(subs) - 1


def test_order_change_next_to_an_interval_edge_is_bisected():
    """At 16 samples the grid of (1, 2) starts at 1.03125, past the change near 1.0229."""
    table = phase_table(7, 10.0, 16)
    for iv in table.intervals:
        subs = iv.subintervals
        assert len(subs) == len(iv.transitions) + 1
        for t, left, right in zip(iv.transitions, subs[:-1], subs[1:]):
            assert (t.left_order, t.right_order) == (left.order, right.order)
        for sub in subs:
            assert ground_bits(7, 10.0, 0.5 * (sub.lo + sub.hi)) == sub.order
    assert any(
        (t.left_order, t.right_order) == ("0000001", "0111110") and 1.0205 < t.mu_tilde < 1.0234
        for t in table.transitions
    )


def test_table_validation():
    with pytest.raises(ValueError):
        phase_table(2, 10.0)
    with pytest.raises(ValueError):
        phase_table(5, 10.0, samples_per_interval=8)
    with pytest.raises(ValueError, match="budget"):
        phase_table(25, 10.0)


def enumerated_orders(n_ions, beta, mus):
    """The scalar path: classical_ground on each full coupling matrix."""
    found = []
    for mu in mus:
        try:
            found.append(classical_ground(coupling_from_trap(n_ions, beta, mu)).order)
        except AmbiguousGround as tie:
            found.append(tie)
    return found


def table_or_error(n):
    try:
        return phase_table(n, 10.0, 64).to_dict()
    except AmbiguousGround as tie:
        return tie.orders


@pytest.mark.parametrize("tie_rtol", [1e-10, 1e-4, 1e-3])
def test_table_equals_enumerated_table(monkeypatch, tie_rtol):
    """Wide tie windows reach the nudges, the exact transitions and the raised tie."""
    monkeypatch.setattr(spins, "_TIE_RTOL", tie_rtol)
    batched = [table_or_error(n) for n in (3, 5, 7, 9)]
    monkeypatch.setattr(phases, "ground_orders", enumerated_orders)
    assert batched == [table_or_error(n) for n in (3, 5, 7, 9)]


# SHA-256 of json.dumps(phase_table(n, 10.0, 64).to_dict(), sort_keys=True), recorded when
# ground_orders still scored the whole half basis.  Every faster table search must reproduce
# them byte for byte: a digest that moves is a bug to find, never one to record again.
TABLE_DIGESTS = {
    3: "71f9aae359746b2c78ec3283709ff5cd99c3bc7615b769706a063240eebdbc41",
    4: "a19d171b73a3b69e645106aed793519d531be8ef07a990abb7021ca7e0e06597",
    5: "11c32747a33ef2447e3e58f9cbaa59df166952f7454eddf99f06a1abad63e560",
    6: "d5f23e6c24a7d38e3be8283d33c94d314a4908b132ba6a27cf9994d95e042c74",
    7: "a638f7219c46ea47883d0a5f82b32b71096b447fd95f09c31c2d4938dab335f6",
    8: "540d0ccbe34991ca182bfdc251c1cdead45cd0b35675b5b2b0eb1b049b3f8d31",
    9: "9fece7bf2fb03d8a2a76c9293a79aa3818bb4bfeaaca275c6801a1f19b0578c9",
    10: "b263216a301649fc14fe3ac300b9ab4595e0d075f4eee4cd83c00666b8e23a0e",
    11: "5da4782bd62eabfb6b8dbecc8273f578a4850d18374d7e28cacde04438d51a3a",
    12: "cbfd27a49aabfe2358b61bdfac52c30aa724088105879dade7fc51d575c07c2e",
    13: "a7fe90aa8745d45eee11012fbc917f6f0ad789366a8e7c63d5f8dfe082e31d6d",
    14: "e7361fbfae9f2e214e705ff4a7e802b3eacc97eb40cd9c8508545821746e57d5",
    15: "ea37f1f2bae7d840bc0149a49cc58f3526a3e9ce57307f192696ecc28cc0c0e6",
    16: "983a336f65b9dd8eb781ecf561e7db0fba9aee4a34e6946984a4d100da90b086",
}


@pytest.mark.parametrize("n", sorted(TABLE_DIGESTS))
def test_phase_tables_are_pinned(n):
    text = json.dumps(phase_table(n, 10.0, 64).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[n]


def test_tied_bisection_midpoint_is_sidestepped(monkeypatch):
    """An exact crossing on a bisection midpoint is stepped round, and the bracket still narrows."""
    left, right = phases.ground_orders(3, 10.0, [1.1, 1.9])
    cross = 1.5  # the first midpoint between the 16-sample grid points 1.46875 and 1.53125

    def crossing_at(n_ions, beta, mus):
        tie = AmbiguousGround([left, right], 0.0)
        return [left if mu < cross else right if mu > cross else tie for mu in mus]

    monkeypatch.setattr(phases, "ground_orders", crossing_at)
    table = phase_table(3, 10.0, 16)
    (t,) = table.transitions
    assert (t.left_order, t.right_order) == (left.bits, right.bits)
    assert t.exact_crossing
    assert t.uncertainty <= table.refine_tol
    assert abs(t.mu_tilde - cross) <= table.refine_tol


def test_table_raises_the_tie_of_the_lowest_interval(monkeypatch):
    """(2, 3) ties at its grid, (1, 2) only at its first bisection midpoint: (1, 2)'s tie is raised."""
    left, right = phases.ground_orders(3, 10.0, [1.1, 1.9])

    def two_ties(n_ions, beta, mus):
        found = []
        for mu in mus:
            if abs(mu - 1.5) < 1e-3:  # the midpoint 1.5 and its three sidesteps
                found.append(AmbiguousGround([left, right], 1.0))
            elif mu < 2.0:
                found.append(left if mu < 1.5 else right)
            else:
                found.append(AmbiguousGround([left, right], 2.0))
        return found

    monkeypatch.setattr(phases, "ground_orders", two_ties)
    with pytest.raises(AmbiguousGround) as tie:
        phase_table(3, 10.0, 16)
    assert tie.value.energy == 1.0


def test_order_changes_of_an_interval_bisect_in_lock_step(monkeypatch):
    """Two changes share every bisection level: 1 grid call, 16 levels, 1 midpoint round."""
    outer, inner = phases.ground_orders(3, 10.0, [1.1, 1.9])
    calls = []

    def two_changes(n_ions, beta, mus):
        calls.append(len(mus))
        return [inner if 1.3 < mu < 1.7 else outer for mu in mus]

    monkeypatch.setattr(phases, "ground_orders", two_changes)
    iv = phases._interval_phases(3, 10.0, 1, 16, 1e-6)
    assert [(t.left_order, t.right_order) for t in iv.transitions] == [
        (outer.bits, inner.bits),
        (inner.bits, outer.bits),
    ]
    for t, cross in zip(iv.transitions, (1.3, 1.7)):
        assert abs(t.mu_tilde - cross) <= 1e-6
    assert calls == [16] + [2] * 16 + [3]


def test_phase_table_bisects_every_interval_in_lock_step(monkeypatch):
    """All intervals share each call: about as many calls as the busiest interval makes steps."""
    calls = []

    def counting(n_ions, beta, mus):
        calls.append(len(mus))
        return spins.ground_orders(n_ions, beta, mus)

    monkeypatch.setattr(phases, "ground_orders", counting)
    phase_table(12, 10.0, 1024)
    assert calls[0] == 11 * 1024  # every interval's grid in one call
    assert len(calls) <= 14


def test_table_of_more_chunks_than_the_cache_holds(monkeypatch, enum_chunk):
    """256-row chunks give N = 12 eight, as N = 24 has 32: each call builds each chunk once, none cached."""
    reference = phase_table(12, 10.0, 1024).to_dict()
    enum_chunk(256)
    builds, calls = [], []
    build = spins._mode_projections

    def counting_call(n_ions, beta, mus):
        calls.append(len(mus))
        return spins.ground_orders(n_ions, beta, mus)

    monkeypatch.setattr(
        spins, "_mode_projections", lambda n, beta, lo: builds.append(lo) or build(n, beta, lo)
    )
    monkeypatch.setattr(phases, "ground_orders", counting_call)
    assert phase_table(12, 10.0, 1024).to_dict() == reference
    assert len(builds) <= 8 * len(calls)
    assert spins._cached_projections.cache_info().currsize == 0


@pytest.mark.parametrize("n", [13, 15, 17, 19])
def test_degeneracy_law_holds_on_every_subinterval(n):
    """Criterion 04's {2,4} law and reflection rule, past its N <= 9 sample."""
    for iv in phase_table(n, 10.0, 64).intervals:
        for sub in iv.subintervals:
            assert sub.degeneracy in (2, 4)
            s = int(sub.order, 2)
            symmetric = reverse_bits(s, n) in (s, flip_all(s, n))
            assert symmetric == (sub.degeneracy == 2), (n, sub)


def test_even_interval_orders_are_reflection_symmetric():
    table = phase_table(7, 10.0)
    reports = {r.lower_mode: r for r in even_odd_symmetry_report(table)}
    assert reports[2].parity == "even-odd"
    for k in (2, 4, 6):
        assert not reports[k].flagged
        assert reports[k].n_transitions == 0
        assert reports[k].all_reflection_symmetric
    assert reports[5].n_transitions == 1  # the FM/kink change


# --- 2-D scans -------------------------------------------------------------------


def test_scan_grid_contents():
    grid = scan_2d(5, 10.0, (3.05, 3.45), (0.0, 0.6), resolution=(7, 4))
    assert grid.order_parameter.shape == (7, 4)
    assert not grid.failures
    finite = np.isfinite(grid.order_parameter)
    assert np.all(np.abs(grid.order_parameter[finite]) <= 1.0 + 1e-12)
    assert np.all(grid.e1 >= grid.e0 - 1e-12)
    # zero-field column is fully ordered on both sides of the transition
    op0 = grid.order_parameter[:, 0]
    assert np.all((np.abs(op0 - 1.0) <= 1e-9) | (np.abs(op0 + 1.0) <= 1e-9))


def test_scan_strong_field_depolarizes_order():
    n = 5
    grid = scan_2d(n, 10.0, (3.1, 3.4), (5.0 * n, 5.0 * n), resolution=(4, 1))
    # ground state near the uniform superposition: tiny order parameter from
    # basis-size counting (2 vs 4 states), polarization near saturation
    assert np.all(np.abs(grid.order_parameter) <= 2.5 * 4.0 / 2**n)
    assert np.all(grid.polarization >= 0.99)


def test_scan_records_failures_per_point():
    grid = scan_2d(5, 10.0, (2.9, 3.1), (0.1, 0.4), resolution=(3, 4))
    # the mu = 3.0 resonance fails each point of its column, and only those
    assert [(i, l) for i, l, _ in grid.failures] == [(1, l) for l in range(4)]
    assert all(msg.startswith("ResonanceError: ") for _, _, msg in grid.failures)
    assert np.all(np.isnan(grid.order_parameter[1]))
    for values in (grid.order_parameter, grid.polarization, grid.e0, grid.e1):
        assert np.all(np.isfinite(values[[0, 2]]))


def test_scan_failed_field_leaves_its_column_neighbours_alone(monkeypatch):
    args = (5, 10.0, (3.1, 3.4), (0.0, 0.6), (2, 4))
    clean = scan_2d(*args)
    solve = phases.field_spectra

    def second_field_fails(*a, **kw):
        spectra = solve(*a, **kw)
        spectra[1] = NoConvergence("cap")
        return spectra

    monkeypatch.setattr(phases, "field_spectra", second_field_fails)
    grid = scan_2d(*args)
    assert grid.failures == [(0, 1, "NoConvergence: cap"), (1, 1, "NoConvergence: cap")]
    for got, want in zip(
        (grid.order_parameter, grid.polarization, grid.e0, grid.e1),
        (clean.order_parameter, clean.polarization, clean.e0, clean.e1),
    ):
        assert np.all(np.isnan(got[:, 1]))
        assert np.array_equal(got[:, [0, 2, 3]], want[:, [0, 2, 3]])


def test_order_parameter_at_raises_the_failure_of_its_point(monkeypatch):
    with pytest.raises(ResonanceError):
        phases.order_parameter_at(5, 10.0, 3.0, 0.1)
    monkeypatch.setattr(phases, "field_spectra", lambda *args, **kwargs: [NoConvergence("cap")])
    with pytest.raises(NoConvergence, match="cap"):
        phases.order_parameter_at(5, 10.0, 3.2, 0.1)


@pytest.mark.parametrize("n_fields", [1, 2])
def test_scan_propagates_programming_errors(monkeypatch, n_fields):
    def broken(*args):
        raise TypeError("bug inside a scan point")

    monkeypatch.setattr(phases, "_scan_column", broken)
    with pytest.raises(TypeError, match="bug inside a scan point"):
        scan_2d(5, 10.0, (3.1, 3.4), (0.1, 0.5), resolution=(2, n_fields))


@pytest.mark.parametrize("n_fields", [1, 2])
def test_scan_failures_keep_no_solver_frames(monkeypatch, n_fields):
    class Sentinel:
        pass

    refs = []

    def resonant_coupling(*args):
        held = Sentinel()  # a local of the failing frame, like a mode matrix
        refs.append(weakref.ref(held))
        raise ResonanceError("detuning resonant with a mode; coupling diverges")

    monkeypatch.setattr(phases, "coupling_from_trap", resonant_coupling)
    gc.disable()
    try:
        # one coupling per detuning column; a resonance fails every field of the column
        grid = scan_2d(5, 10.0, (3.1, 3.4), (0.1, 0.5), resolution=(2, n_fields))
        assert len(grid.failures) == 2 * n_fields and len(refs) == 2
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_newton_stall_inside_a_scan_ends_it(monkeypatch):
    """A chain that finds no equilibrium is not a failed column: the scan raises."""
    couplings.chain_spectrum.cache_clear()
    monkeypatch.setattr(chain, "_TOL", 1e-300)  # below a few ulps of the positions
    with pytest.raises(NoConvergence, match="stalled"):
        scan_2d(5, 10.0, (3.1, 3.4), (0.1, 0.5), resolution=(2, 2))


def test_scan_rejects_even_chains():
    with pytest.raises(ValueError):
        scan_2d(6, 10.0, (3.1, 3.4), (0.0, 0.5))


@pytest.mark.parametrize("resolution", [(0, 3), (3, 0), (-2, 2)])
def test_scan_rejects_bad_sizes(resolution):
    with pytest.raises(ValueError):
        scan_2d(5, 10.0, (3.1, 3.4), (0.0, 0.5), resolution=resolution)


# --- gap minimization --------------------------------------------------------------


def test_zero_field_gap_vanishes_at_crossing():
    gp = min_gap(5, 10.0, 0.0)
    assert gp.gap <= 1e-9


def test_min_gap_matches_fine_grid_dense_oracle():
    """Independent extraction: dense scans on successively refined grids
    (the minimum is a corner, so only brute-force grid shrinking is safe)."""
    n, beta, b = 5, 10.0, 0.05
    gp = min_gap(n, beta, b)

    def gap(mu):
        j = coupling_from_trap(n, beta, mu)
        e = lowest_eigenpairs(j, gp.b_abs / j.jbar, k=3).eigenvalues
        return e[2] - e[0]

    t, left, right = fm_kink_interval(n, beta)
    lo = 0.5 * (left.lo + left.hi)
    hi = 0.5 * (right.lo + right.hi)
    xs = np.linspace(lo, hi, 401)
    for _ in range(6):
        vals = [gap(float(x)) for x in xs]
        i = int(np.argmin(vals))
        xs = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)], 81)
    oracle_mu = float(xs[i])
    oracle = vals[i]
    assert abs(gp.gap - oracle) <= 1e-8
    assert abs(gp.mu_star - oracle_mu) <= 1e-6


def _sector_ground_energy(j, b_abs, flip, reflection):
    """Lowest level of H = z.J.z - b_abs * sum_p X_p in one (global flip, reflection) sector.

    The sector basis holds one state per orbit {s, flip s, reverse s, flip
    reverse s} that its characters do not cancel: sum_g chi(g) |g s> for the
    least member s, with chi(g) = 1, ``flip``, ``reflection`` and their
    product.  With w(s) the sum of chi(g) over the g that fix s, a spin flip
    taking representative b to t adds -b_abs * (sum of chi(g) over g t = a)
    / sqrt(w(a) w(b)) to <a|H|b>.  J must be reflection-symmetric; then the
    ion order of the spins in z does not matter.
    """
    n = len(j)
    mask = (1 << n) - 1
    chi = np.array([1, flip, reflection, flip * reflection])[:, None]

    def characters(s, rep):
        r = spins.reflected_configs(s, n)
        return np.sum((np.stack([s, s ^ mask, r, r ^ mask]) == rep) * chi, axis=0)

    every = np.arange(1 << n, dtype=np.int64)
    reps = every[spins.canonical_configs(every, n) == every]
    w = characters(reps, reps)
    reps, w = reps[w > 0], w[w > 0]
    z = 1.0 - 2.0 * ((reps[:, None] >> np.arange(n)) & 1)
    h = np.diag(np.einsum("si,ij,sj->s", z, j, z))
    cols = np.arange(len(reps))
    for p in range(n):
        t = reps ^ (1 << p)
        rep = spins.canonical_configs(t, n)
        a = np.minimum(np.searchsorted(reps, rep), len(reps) - 1)
        hit = reps[a] == rep
        element = -b_abs * characters(t, rep) / np.sqrt(w[a] * w)
        np.add.at(h, (a[hit], cols[hit]), element[hit])
    return np.linalg.eigvalsh(h)[0]


def _sector_root_gap(n, beta, b_over_njbar):
    """(mu*, gap): the root of E0(-,+) - E0(-,-) between the anchors, and E0(-,.) - E0(+,+) there.

    Each level is its own (flip, reflection) sector's ground state, so the
    two that cross at the corner never mix.  The root is an Illinois secant
    (Dowell & Jarratt, BIT 11, 1971) down to a bracket of four ulps.
    """
    lo, hi, b_abs = phases._fixed_field(n, beta, b_over_njbar)

    def levels(mu, sectors):
        j = coupling_from_trap(n, beta, mu).j
        j = 0.5 * (j + j[::-1, ::-1])  # reflection is not exact in floats
        return [_sector_ground_energy(j, b_abs, *sector) for sector in sectors]

    def f(mu):
        e_sym, e_anti = levels(mu, ((-1, 1), (-1, -1)))
        return e_sym - e_anti

    a, fa, c, fc = lo, f(lo), hi, f(hi)
    assert fa < 0 < fc  # the FM partner is below the kink level at lo, above it at hi
    side = 0
    while c - a > 4 * np.spacing(c):
        x = (a * fc - c * fa) / (fc - fa)
        if not a < x < c:
            break
        fx = f(x)
        if fx < 0:
            if side < 0:
                fc /= 2  # a moved twice in a row: halve the value kept at c
            a, fa, side = x, fx, -1
        elif fx > 0:
            if side > 0:
                fa /= 2
            c, fc, side = x, fx, 1
        else:
            a = c = x
    mu = 0.5 * (a + c)
    e0, e_sym, e_anti = levels(mu, ((1, 1), (-1, 1), (-1, -1)))
    return mu, max(e_sym, e_anti) - e0


@pytest.mark.parametrize("n, b, rel", [(9, 0.01, 1e-6), (11, 0.02, 2e-6)])
def test_min_gap_matches_the_sector_root_oracle(n, b, rel):
    """min_gap's corner is the root where the two sector levels above the ground cross.

    N >= 11 is held to 2e-6: there today's search lies 7.9e-7 above the root.
    """
    gp = min_gap(n, 10.0, b)
    mu_star, gap = _sector_root_gap(n, 10.0, b)
    assert abs(gp.gap - gap) <= rel * gap
    assert abs(gp.mu_star - mu_star) <= 1e-9


def test_gap_grows_with_field_and_shrinks_with_size():
    gaps_b = [min_gap(5, 10.0, b).gap for b in (0.02, 0.05, 0.08)]
    assert gaps_b[0] < gaps_b[1] < gaps_b[2]
    gaps_n = {n: min_gap(n, 10.0, 0.05).gap for n in (5, 7, 9)}
    assert gaps_n[5] > gaps_n[7] > gaps_n[9]


def test_transition_line_tilts_with_field():
    fit = fit_alpha(5, 10.0)
    mus = [p.mu_star for p in fit.points]
    assert all(a > b for a, b in zip(mus, mus[1:]))


@pytest.mark.parametrize("lo, hi", [(3.0001, 3.0002), (3.9998, 3.9999)])
def test_gap_scan_reports_missing_interior_minimum(lo, hi):
    """A bracket at either end of (3, 4) cannot expand past the interval caps."""
    _, _, b_abs = phases._fixed_field(5, 10.0, 0.05)
    with pytest.raises(TransitionLost, match="no interior gap minimum"):
        phases._minimize_gap_scan(5, 10.0, b_abs, lo, hi)


@pytest.mark.parametrize("mu_min", [3.05, 3.55], ids=["below", "above"])
def test_gap_scan_expands_bracket_to_reach_minimum(monkeypatch, mu_min):
    """A minimum outside the first bracket (3.2, 3.4) but inside the caps of (3, 4) is found."""
    probes = []

    def v_shaped_gap(n_ions, beta, mu, b_abs):
        probes.append(mu)
        return float(np.hypot(1e-3, mu - mu_min))

    monkeypatch.setattr(phases, "_levels_at", v_shaped_gap)
    mu_star, gap = phases._minimize_gap_scan(5, 10.0, 0.1, 3.2, 3.4)
    assert mu_star == pytest.approx(mu_min, abs=1e-9)
    assert gap == pytest.approx(1e-3, rel=1e-9)
    assert not 3.2 <= min(probes) <= max(probes) <= 3.4  # the bracket did expand


@pytest.mark.parametrize("sweep", [min_gap, transition_width])
def test_sweeps_detect_lost_transition(sweep):
    with pytest.raises(TransitionLost):
        sweep(9, 10.0, 0.25)


def test_transition_width_runs_no_gap_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("transition_width ran a gap search")

    monkeypatch.setattr(phases, "_minimize_gap_scan", no_search)
    assert transition_width(5, 10.0, 0.05) > 0.0


# --- scaling fits ----------------------------------------------------------------


def test_power_law_fit_prefactor_invariance():
    b = np.geomspace(0.01, 0.1, 6)
    gaps = 3.7 * b**2.5
    alpha, _ = power_law_fit(b, gaps)
    alpha_doubled, _ = power_law_fit(b, 2.0 * gaps)
    assert alpha == pytest.approx(2.5, abs=1e-12)
    assert alpha_doubled == pytest.approx(alpha, abs=1e-12)
    with pytest.raises(ValueError):
        power_law_fit(b, gaps - gaps[3])


def test_linear_fit_exact_on_synthetic_exponents():
    ns = [3, 5, 7, 9]
    slope, intercept, resid = linear_fit(ns, [(n - 1) / 2 for n in ns])
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert intercept == pytest.approx(-0.5, abs=1e-12)
    assert resid <= 1e-12


def test_fit_alpha_validation():
    with pytest.raises(ValueError):
        fit_alpha(5, 10.0, [0.01, 0.02, 0.03])
    with pytest.raises(ValueError):
        fit_alpha(5, 10.0, [0.02, 0.04, 0.06, 0.08, 0.12])


@pytest.mark.parametrize("bad", [0.0, -0.02, float("nan"), float("-inf")])
def test_fit_alpha_rejects_non_positive_samples_before_solving(bad, monkeypatch):
    def no_solve(*args):
        raise AssertionError("a gap search ran")

    monkeypatch.setattr(phases, "min_gap", no_solve)
    with pytest.raises(ValueError, match=r"B/\(N Jbar\)"):
        fit_alpha(5, 10.0, [bad, 0.02, 0.04, 0.06, 0.08])


@pytest.fixture
def one_field_loses_transition(monkeypatch, request):
    """min_gap finds a sharp transition at every field outside (0.025, 0.035).

    Inside it raises TransitionLost with the message passed as the fixture's
    parameter, by default that of unsaturated bracket ends.
    """
    message = getattr(request, "param", "order parameter not saturated across the bracket")

    def fake_min_gap(n_ions, beta, b):
        if 0.025 < b < 0.035:
            raise TransitionLost(message)
        return phases.GapPoint(b, b, 3.5, b**2)

    monkeypatch.setattr(phases, "min_gap", fake_min_gap)


def test_fit_alpha_with_too_few_sharp_fields_is_transition_lost(tmp_path, capsys, one_field_loses_transition):
    with pytest.raises(TransitionLost, match="only 4 field samples"):
        fit_alpha(5, 10.0, [0.01, 0.02, 0.03, 0.04, 0.05])
    assert cli_main(["gap", "--n", "5", "--b-range", "0.01:0.05", "--samples", "5", "--out", str(tmp_path)]) == 3
    assert "TransitionLost" in capsys.readouterr().err


@pytest.mark.parametrize(
    "one_field_loses_transition",
    ["order parameter not saturated across the bracket", "bracket shows no interior gap minimum"],
    ids=["not_saturated", "no_interior_minimum"],
    indirect=True,
)
def test_fit_alpha_records_skipped_fields(one_field_loses_transition):
    fit = fit_alpha(5, 10.0, [0.01, 0.02, 0.03, 0.04, 0.05, 0.06])
    assert [p.b_over_njbar for p in fit.points] == [0.01, 0.02, 0.04, 0.05, 0.06]
    assert fit.skipped == (0.03,)
    assert fit.alpha == pytest.approx(2.0, abs=1e-12)


def test_gap_records_skipped_fields(tmp_path, one_field_loses_transition):
    argv = ["gap", "--n", "5", "--b-range", "0.01:0.06", "--samples", "6", "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    _, _, rows = read_csv(tmp_path / "gap_scaling.csv")
    assert len(rows) == 5
    (entry,) = json.loads((tmp_path / "alpha_fit.json").read_text())["alphas"]
    assert entry["skipped"] == [pytest.approx(0.0293, abs=1e-4)]


def test_fit_alpha_five_ions():
    fit = fit_alpha(5, 10.0)
    assert abs(fit.alpha - 2.0) <= 0.4
    assert len(fit.points) == 8
    gaps = [p.gap for p in fit.points]
    assert all(a < b for a, b in zip(gaps, gaps[1:]))


def test_width_correlates_with_gap():
    samples = [(5, 0.03), (5, 0.05), (7, 0.03), (7, 0.05), (9, 0.05)]
    widths, gaps = [], []
    for n, b in samples:
        widths.append(transition_width(n, 10.0, b))
        gaps.append(min_gap(n, 10.0, b).gap)

    def ranks(xs):
        order = np.argsort(xs)
        r = np.empty(len(xs))
        r[order] = np.arange(len(xs))
        return r

    rw, rg = ranks(widths), ranks(gaps)
    rho = np.corrcoef(rw, rg)[0, 1]
    assert rho > 0.9


@pytest.mark.parametrize("n", [5, 7])
def test_width_is_the_two_level_width_of_the_gap(n):
    """Near mu*, the ground state mixes FM and one kink: width ~ 4 gap / (sqrt(3) |s|).

    s is the detuning slope of E_kink - E_FM at the zero-field transition.
    Measured ratios: 0.9925, 0.9959, 0.9977 at N = 5 and 0.9706, 0.9710,
    0.9815 at N = 7 for the three fields.
    """
    mu = fm_kink_interval(n)[0].mu_tilde

    def splitting(mu):
        coupling = coupling_from_trap(n, 10.0, mu)
        kink, fm = int(spins.kink_basis(n)[0]), int(spins.fm_basis(n)[0])
        return spins.classical_energy(coupling, kink) - spins.classical_energy(coupling, fm)

    slope = (splitting(mu + 1e-5) - splitting(mu - 1e-5)) / 2e-5
    for b in (0.05, 0.02, 0.01):
        predicted = 4.0 * min_gap(n, 10.0, b).gap / (np.sqrt(3.0) * abs(slope))
        assert abs(transition_width(n, 10.0, b) / predicted - 1.0) <= 0.05
