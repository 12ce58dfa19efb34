"""Phase table, 2-D scans, gap minimization, and scaling-fit tests."""

import gc
import weakref

import numpy as np
import pytest

from ionspins import phases, spins
from ionspins.cli import main as cli_main
from ionspins.couplings import coupling_from_trap
from ionspins.errors import AmbiguousGround, NoConvergence, ResonanceError
from ionspins.phases import (
    NoInteriorMinimum,
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
    assert t.left_bits != t.right_bits
    assert t.uncertainty <= 1e-6


def test_seven_ion_fm_kink_transition_location():
    t, left, right = fm_kink_interval(7, 10.0)
    assert 5.1 < t.mu < 5.3
    assert t.left_bits == "0000000"
    assert t.right_bits == "0000111"
    assert left.order_bits == "0000000" and left.degeneracy == 2
    assert right.order_bits == "0000111" and right.degeneracy == 4


def test_transition_sides_reverify_post_hoc():
    table = phase_table(5, 10.0, refine_tol=1e-7)
    for t in table.transitions:
        assert ground_bits(5, 10.0, t.mu - 10 * table.refine_tol) == t.left_bits
        assert ground_bits(5, 10.0, t.mu + 10 * table.refine_tol) == t.right_bits


def test_table_tiles_every_interval():
    table = phase_table(5, 10.0)
    for iv in table.intervals:
        subs = iv.subintervals
        assert subs[0].lo == iv.lower_mode
        assert subs[-1].hi == iv.lower_mode + 1
        for a, b in zip(subs[:-1], subs[1:]):
            assert a.hi == b.lo
            assert a.order_bits != b.order_bits
        assert len(iv.transitions) == len(subs) - 1


def test_table_validation():
    with pytest.raises(ValueError):
        phase_table(2, 10.0)
    with pytest.raises(ValueError):
        phase_table(5, 10.0, samples_per_interval=8)
    with pytest.raises(ValueError, match="budget"):
        phase_table(25, 10.0)


@pytest.mark.parametrize("refine_tol", [0.0, -1.0])
def test_table_rejects_non_positive_refine_tol(refine_tol):
    # bisection would only stop at the tie window and mark every transition exact
    with pytest.raises(ValueError, match="refine_tol"):
        phase_table(5, 10.0, samples_per_interval=16, refine_tol=refine_tol)


@pytest.mark.parametrize("n_ions", [3, 5, 8])
def test_table_rejects_refine_tol_below_float_spacing(n_ions):
    # bisection on doubles cannot narrow a bracket near mu = N below np.spacing(N)
    floor = np.spacing(float(n_ions))
    for refine_tol in (1e-17, np.nextafter(floor, 0.0)):
        with pytest.raises(ValueError, match="refine_tol"):
            phase_table(n_ions, 10.0, samples_per_interval=16, refine_tol=refine_tol)
    # at the floor a bracket narrows into the tie window unless the crossing is sharp enough
    try:
        table = phase_table(n_ions, 10.0, samples_per_interval=16, refine_tol=floor)
    except AmbiguousGround:
        return
    assert table.refine_tol == floor
    assert all(t.uncertainty <= floor for t in table.transitions)


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
    assert (t.left_bits, t.right_bits) == (left.bits, right.bits)
    assert t.exact
    assert t.uncertainty <= table.refine_tol
    assert abs(t.mu - cross) <= table.refine_tol


@pytest.mark.parametrize("n", [13, 15])
def test_degeneracy_law_holds_on_every_subinterval(n):
    """Criterion 04's {2,4} law and reflection rule, past its N <= 9 sample."""
    for iv in phase_table(n, 10.0, 64).intervals:
        for sub in iv.subintervals:
            assert sub.degeneracy in (2, 4)
            s = int(sub.order_bits, 2)
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
    rows = list(grid.rows())
    assert len(rows) == 28
    assert rows[1][0] == rows[0][0] and rows[1][1] > rows[0][1]  # row-major in mu


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

    def failing_solve(*args, **kwargs):
        held = Sentinel()  # a local of the failing frame, like a Krylov basis
        refs.append(weakref.ref(held))
        raise NoConvergence("basis cap reached")

    monkeypatch.setattr(phases, "field_spectra", failing_solve)
    gc.disable()
    try:
        # one solve per detuning column; its failure fails every field of the column
        grid = scan_2d(5, 10.0, (3.1, 3.4), (0.1, 0.5), resolution=(2, n_fields))
        assert len(grid.failures) == 2 * n_fields and len(refs) == 2
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


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
    with pytest.raises(NoInteriorMinimum) as excinfo:
        phases._minimize_gap_scan(5, 10.0, b_abs, lo, hi)
    assert excinfo.type is NoInteriorMinimum


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
def one_field_loses_transition(monkeypatch):
    """min_gap finds a sharp transition at every field outside (0.025, 0.035)."""

    def fake_min_gap(n_ions, beta, b):
        if 0.025 < b < 0.035:
            raise TransitionLost("transition ended at this field")
        return phases.GapPoint(n_ions, beta, b, b, 3.5, b**2)

    monkeypatch.setattr(phases, "min_gap", fake_min_gap)


def test_fit_alpha_with_too_few_sharp_fields_is_transition_lost(tmp_path, capsys, one_field_loses_transition):
    with pytest.raises(TransitionLost, match="only 4 field samples"):
        fit_alpha(5, 10.0, [0.01, 0.02, 0.03, 0.04, 0.05])
    assert cli_main(["gap", "--n", "5", "--b-range", "0.01:0.05", "--samples", "5", "--out", str(tmp_path)]) == 3
    assert "TransitionLost" in capsys.readouterr().err


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
