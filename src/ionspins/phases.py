"""Phase structure of the detuning-controlled spin network.

Sweeps the rescaled detuning (and transverse field) to build the zero-field
phase table per inter-mode interval, 2-D order-parameter maps, and the
scaling of the avoided-crossing gap at the ferromagnet/kink transition.

Field conventions: scan grids take B in units of Jbar (the rms coupling at
each grid point); gap and width routines take B/(N Jbar), the natural small
parameter of the transition.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .couplings import coupling_from_trap
from .errors import AmbiguousGround, NoConvergence, ResonanceError, TransitionLost
from .spins import (
    cluster_averages,
    field_spectra,
    fm_basis,
    ground_orders,
    index_to_bits,
    kink_basis,
    lowest_eigenpairs,
)

# sweep settings that no caller varies
_FM_KINK_SAMPLES = 64  # probes of the interval (N-2, N-1)
_FM_KINK_TOL = 1e-8  # bisection width of its order changes
_TABLE_TOL = 1e-6  # bisection width of the phase table's order changes
_GAP_COARSE = 25  # coarse probes of a gap bracket
_GAP_REL_TOL = 1e-11  # golden-section stop, relative to the detuning
_WIDTH_EDGE = 0.5  # |order parameter| at the edges of the transition width
_WIDTH_MAX_HALVINGS = 70


@dataclass(frozen=True)
class Transition:
    """An order change inside one inter-mode interval."""

    mu_tilde: float
    uncertainty: float
    left_order: str
    right_order: str
    exact_crossing: bool = False


@dataclass(frozen=True)
class Subinterval:
    lo: float
    hi: float
    order: str
    degeneracy: int


@dataclass(frozen=True)
class IntervalPhases:
    lower_mode: int
    subintervals: list
    transitions: list


@dataclass(frozen=True)
class PhaseTable:
    n_ions: int
    beta: float
    samples_per_interval: int
    refine_tol: float
    intervals: list

    @property
    def transitions(self):
        return tuple(t for iv in self.intervals for t in iv.transitions)

    @property
    def transition_count(self):
        return len(self.transitions)

    def to_dict(self):
        """The ``phase_table.json`` form: the field names are its keys."""
        return asdict(self)


def _probe(mus, nudges):
    """One lock-step probe: the ground order at each mu, an exact crossing sidestepped.

    A generator step (see ``_lock_step``): it yields the detunings it needs
    scored and receives their orders.  A tied mu is retried at mu + nu,
    mu - nu and mu + 3 nu, all three in one more step, and takes the first
    of them off the tie; a tie at all three is raised.  Returns the orders
    and, by index, the point each sidestepped mu moved to.
    """
    orders = yield mus
    tied = [i for i, o in enumerate(orders) if isinstance(o, AmbiguousGround)]
    if not tied:
        return orders, {}
    tries = [[mus[i] + shift for shift in (nudges[i], -nudges[i], 3 * nudges[i])] for i in tied]
    scored = iter((yield [mu for points in tries for mu in points]))
    moved = {}
    for i, points in zip(tied, tries):
        off = [
            (mu, o)
            for mu, o in zip(points, itertools.islice(scored, 3))
            if not isinstance(o, AmbiguousGround)
        ]
        if not off:
            raise orders[i]
        moved[i], orders[i] = off[0]
    return orders, moved


def _interval_steps(k, samples, tol):
    """The lock step of interval (k, k+1), probed on a grid of ``samples`` points.

    A generator of probe steps (``_probe``, driven by ``_lock_step``) that
    returns the interval's IntervalPhases.  Neighbouring probes (mu -> order)
    whose orders differ are the brackets.  Each level probes the midpoints
    of all brackets wider than tol in one step and keeps the halves that
    still change order; a tied midpoint is sidestepped by 1e-3 of its
    bracket, as a tied grid point is, and a bracket holding such a tie is an
    exact crossing.  Each subinterval takes the order of the probes it
    holds.  The grid starts half a step inside the interval, so a change
    next to an edge can escape it: a subinterval's midpoint whose order
    differs, and that no bracket covers, lies inside a run of probes of one
    order and becomes a probe of another round, until every midpoint agrees.
    Each round adds a bracket and moves none, and an interval holds finitely
    many order changes, so the rounds end.  Orders are compared by their int
    ``canonical`` code, which alone tells two orders of one chain apart.
    """
    step = 1.0 / samples
    xs = (k + (np.arange(samples) + 0.5) * step).tolist()  # the probes' mu, ascending
    found, _ = yield from _probe(xs, [step * 1e-3] * samples)  # and their orders
    ties = []  # tied bisection midpoints
    while True:
        changes = np.flatnonzero(np.diff([o.canonical for o in found])).tolist()
        brackets = [(xs[i], found[i], xs[i + 1], found[i + 1]) for i in changes]
        while wide := [b for b in brackets if b[2] - b[0] > tol]:
            mids = [0.5 * (lo + hi) for lo, _, hi, _ in wide]
            orders, moved = yield from _probe(mids, [1e-3 * (hi - lo) for lo, _, hi, _ in wide])
            ties += [mids[i] for i in moved]
            halves = {}
            for i, ((lo, o_lo, hi, o_hi), o) in enumerate(zip(wide, orders)):
                mid = moved.get(i, mids[i])
                pair = ((lo, o_lo, mid, o), (mid, o, hi, o_hi))
                halves[lo] = [h for h in pair if h[1].canonical != h[3].canonical]
            brackets = [h for b in brackets for h in halves.get(b[0], [b])]
        ends = {x: o for lo, o_lo, hi, o_hi in brackets for x, o in ((lo, o_lo), (hi, o_hi))}
        cuts = [float(k)] + [0.5 * (lo + hi) for lo, _, hi, _ in brackets] + [float(k + 1)]
        spans = list(zip(cuts[:-1], cuts[1:]))
        span_orders = [found[0]] + [o_hi for *_, o_hi in brackets]
        # the stretch of each span that no bracket covers
        uncovered = zip([-np.inf] + [b[2] for b in brackets], [b[0] for b in brackets] + [np.inf])
        mids = [0.5 * (lo + hi) for lo, hi in spans]
        mid_orders, _ = yield from _probe(mids, [(hi - lo) * 1e-3 for lo, hi in spans])
        missed = {
            mid: o
            for mid, o, expected, (lo, hi) in zip(mids, mid_orders, span_orders, uncovered)
            if o.canonical != expected.canonical and lo < mid < hi
            and mid not in ends and mid not in xs
        }
        if not missed:
            break
        probes = {**dict(zip(xs, found)), **ends, **missed}  # the bracket ends are probes too
        xs = sorted(probes)
        found = [probes[x] for x in xs]
    transitions = [
        Transition(
            mu_tilde=0.5 * (lo + hi),
            uncertainty=0.5 * (hi - lo),
            left_order=o_lo.bits,
            right_order=o_hi.bits,
            exact_crossing=any(lo < t < hi for t in ties),
        )
        for lo, o_lo, hi, o_hi in brackets
    ]
    subintervals = [
        Subinterval(lo=lo, hi=hi, order=o.bits, degeneracy=o.degeneracy)
        for (lo, hi), o in zip(spans, span_orders)
    ]
    return IntervalPhases(lower_mode=k, subintervals=subintervals, transitions=transitions)


def _lock_step(n_ions, beta, steps):
    """Run interval lock steps (``_interval_steps``) side by side; their results in order.

    Each round scores the detunings every unfinished interval asks for in
    one ``ground_orders`` call, so a table costs about as many calls as its
    busiest interval makes steps.  ``ground_orders`` answers a detuning
    alike in any batch, so every interval finds what it finds alone.  An
    AmbiguousGround that ends an interval is raised once every interval
    before it has finished: the first interval's, as running them one after
    another would raise.
    """
    asked = {i: next(g) for i, g in enumerate(steps)}  # every lock step asks for its grid first
    results, tie = [None] * len(steps), None
    while asked:
        found = iter(ground_orders(n_ions, beta, list(itertools.chain.from_iterable(asked.values()))))
        for i, mus in list(asked.items()):
            orders = list(itertools.islice(found, len(mus)))
            try:
                asked[i] = steps[i].send(orders)
            except StopIteration as done:
                results[i] = done.value
                del asked[i]
            except AmbiguousGround as exc:
                tie = exc
                asked = {j: m for j, m in asked.items() if j < i}
                break
    if tie is not None:
        raise tie
    return results


def _interval_phases(n_ions, beta, k, samples, tol):
    """Subintervals and transitions of (k, k+1): its lock step (``_interval_steps``) run alone."""
    (iv,) = _lock_step(n_ions, beta, [_interval_steps(k, samples, tol)])
    return iv


def phase_table(n_ions, beta=10.0, samples_per_interval=64):
    """Zero-field phase table: spin orders tiling every inter-mode interval.

    Each interval (k, k+1) is sampled on a uniform grid, and all its order
    changes are bisected down to _TABLE_TOL; a subinterval's midpoint that
    shows a change the grid missed starts another round
    (``_interval_steps``), so each transition joins the orders of its two
    subintervals.  The N - 1 intervals run in one lock step
    (``_lock_step``): one ``spins.ground_orders`` call (mode space, a tile
    of detunings per product) scores every grid, then each bisection level
    of every interval, each level's sidesteps and each midpoint round share
    one call.  An exact crossing hit along the way is sidestepped and its
    transition marked ``exact_crossing=True``, and one that every sidestep
    still ties is raised (``AmbiguousGround``, the lowest interval's).
    """
    if n_ions < 3:
        raise ValueError("phase tables need at least 3 ions")
    if samples_per_interval < 16:
        raise ValueError("need at least 16 samples per interval")
    steps = [_interval_steps(k, samples_per_interval, _TABLE_TOL) for k in range(1, n_ions)]
    return PhaseTable(
        n_ions=n_ions,
        beta=float(beta),
        samples_per_interval=samples_per_interval,
        refine_tol=_TABLE_TOL,
        intervals=_lock_step(n_ions, beta, steps),
    )


@dataclass(frozen=True)
class IntervalReport:
    lower_mode: int
    parity: str
    n_transitions: int
    orders: tuple
    all_reflection_symmetric: bool
    flagged: bool


def even_odd_symmetry_report(table):
    """Per-interval transition counts and reflection symmetry of the orders.

    Intervals starting at an even mode typically host no transition and only
    reflection-symmetric (degeneracy-2) orders; exceptions are flagged rather
    than treated as errors.
    """
    reports = []
    for iv in table.intervals:
        parity = "even-odd" if iv.lower_mode % 2 == 0 else "odd-even"
        symmetric = all(s.degeneracy == 2 for s in iv.subintervals)
        flagged = parity == "even-odd" and (len(iv.transitions) > 0 or not symmetric)
        reports.append(
            IntervalReport(
                lower_mode=iv.lower_mode,
                parity=parity,
                n_transitions=len(iv.transitions),
                orders=tuple(s.order for s in iv.subintervals),
                all_reflection_symmetric=symmetric,
                flagged=flagged,
            )
        )
    return reports


@dataclass
class ScanGrid:
    """Row-major (mu, B) grid of ground-state observables."""

    n_ions: int
    beta: float
    mu_values: np.ndarray
    b_values: np.ndarray  # units of Jbar at each mu
    order_parameter: np.ndarray
    polarization: np.ndarray
    e0: np.ndarray
    e1: np.ndarray
    failures: list = field(default_factory=list)


def _scan_column(n_ions, beta, mu, b_fields):
    """Order parameter, polarization, E0 and E1 at each field B/Jbar of one detuning.

    Returns their (4, len(b_fields)) array and the {field index: exception}
    of the points that failed, whose entries are NaN.  Every field is solved
    in one ``field_spectra`` call on one coupling, which returns each field's
    NoConvergence, and the observables of all solved fields come from one
    ``cluster_averages`` call.  A whole column fails only on a resonance: a
    resonant mu fails every point with the same ResonanceError.  Any other
    failure of the coupling (a stalled chain equilibrium, say) propagates.
    The exceptions carry no traceback, so no solver frame outlives the call.
    """
    values = np.full((4, len(b_fields)), np.nan)
    try:
        spectra = field_spectra(coupling_from_trap(n_ions, beta, mu), b_fields, k=min(6, 1 << n_ions))
    except ResonanceError as exc:
        return values, dict.fromkeys(range(len(b_fields)), exc.with_traceback(None))
    failed = {l: res for l, res in enumerate(spectra) if isinstance(res, NoConvergence)}
    solved = [l for l in range(len(spectra)) if l not in failed]
    if solved:
        results = [spectra[l] for l in solved]
        (p_fm, p_kink), values[1, solved] = cluster_averages(
            results, (fm_basis(n_ions), kink_basis(n_ions))
        )
        values[0, solved] = p_fm - p_kink
        values[2:, solved] = np.array([r.eigenvalues[:2] for r in results]).T
    return values, failed


def scan_2d(n_ions, beta, mu_range, b_range, resolution=(128, 64)):
    """Ground-state order parameter P_FM - P_K and polarization over a 2-D grid.

    B values are in units of the local Jbar.  The unit of work is one
    detuning column: its coupling and Ising energies are built once, all of
    its fields solved in one call and their observables computed in another
    (``_scan_column``).  Per-point solver failures, and every point of a
    resonant column, are recorded in ``failures`` as messages and the grid
    entries left as NaN.  A range too narrow for its samples to increase
    strictly is a ValueError, raised before any solve.
    """
    if n_ions % 2 == 0:
        raise ValueError("the kink subspace (hence the order parameter) needs odd N")
    if min(resolution) < 1:
        raise ValueError(f"resolution needs at least 1 point per axis, got {resolution!r}")
    mu_values = np.linspace(mu_range[0], mu_range[1], resolution[0])
    b_values = np.linspace(b_range[0], b_range[1], resolution[1])
    for name, axis in (("detuning", mu_values), ("field", b_values)):
        if not np.all(np.diff(axis) > 0):
            raise ValueError(f"the {name} range is too narrow for {len(axis)} distinct samples")
    fields = [float(b) for b in b_values]
    values = np.empty((4, len(mu_values), len(b_values)))
    failures = []
    for i, mu in enumerate(mu_values):
        values[:, i], failed = _scan_column(n_ions, beta, float(mu), fields)
        failures.extend((i, l, f"{type(exc).__name__}: {exc}") for l, exc in failed.items())
    return ScanGrid(n_ions, float(beta), mu_values, b_values, *values, failures=failures)


@functools.cache
def fm_kink_interval(n_ions, beta=10.0):
    """The FM/kink transition of an odd chain in the interval (N-2, N-1).

    Returns (transition, fm_subinterval, kink_subinterval); raises
    TransitionLost if that interval does not show exactly this order change.
    Memoized across sweep calls.
    """
    if n_ions % 2 == 0 or n_ions < 3:
        raise ValueError("the FM/kink transition lives in odd chains")
    iv = _interval_phases(n_ions, beta, n_ions - 2, _FM_KINK_SAMPLES, _FM_KINK_TOL)
    fm_bits = index_to_bits(fm_basis(n_ions)[0], n_ions)
    kink_bits = index_to_bits(kink_basis(n_ions)[0], n_ions)
    for i, t in enumerate(iv.transitions):
        if t.left_order == fm_bits and t.right_order == kink_bits:
            return t, iv.subintervals[i], iv.subintervals[i + 1]  # transition i ends subinterval i
    raise TransitionLost(
        f"no FM->kink transition found in ({n_ions - 2}, {n_ions - 1}) at beta={beta}"
    )


@dataclass(frozen=True)
class GapPoint:
    """Minimum ground-to-second-excited gap along a detuning scan at fixed field.

    The absolute field ``b_abs`` is held fixed during the scan;
    ``b_over_njbar`` = b_abs / (N Jbar) with Jbar evaluated once per chain at
    the zero-field transition point, making the field axis proportional to
    the physical field.
    """

    n_ions: int
    beta: float
    b_over_njbar: float
    b_abs: float
    mu_star: float
    gap: float


def _fixed_field_op(n_ions, beta, mu, b_abs):
    """Order parameter at detuning mu under the absolute field b_abs."""
    return order_parameter_at(n_ions, beta, mu, b_abs / coupling_from_trap(n_ions, beta, mu).jbar)


def _fixed_field(n_ions, beta, b_over_njbar):
    """(FM anchor, kink anchor, b_abs) of a sweep at fixed absolute field.

    The anchors are the midpoints of the zero-field FM and kink subintervals
    next to the transition, and b_abs = b_over_njbar * N * Jbar(transition).
    Both anchors must keep their saturated order at this field, else the
    transition has ended in the polarized crossover (TransitionLost).
    """
    t, left, right = fm_kink_interval(n_ions, beta)
    lo, hi = 0.5 * (left.lo + left.hi), 0.5 * (right.lo + right.hi)
    b_abs = b_over_njbar * n_ions * coupling_from_trap(n_ions, beta, t.mu_tilde).jbar
    op_lo, op_hi = _fixed_field_op(n_ions, beta, lo, b_abs), _fixed_field_op(n_ions, beta, hi, b_abs)
    if not (op_lo > 0.5 and op_hi < -0.5):
        raise TransitionLost(
            f"order parameter not saturated across the bracket at "
            f"B/(N Jbar)={b_over_njbar:g} (ends: {op_lo:+.3f}, {op_hi:+.3f})"
        )
    return lo, hi, b_abs


def _levels_at(n_ions, beta, mu, b_abs):
    """E2 - E0 at detuning mu under the absolute field b_abs."""
    j = coupling_from_trap(n_ions, beta, mu)
    e = lowest_eigenpairs(j, b_abs / j.jbar, k=3).eigenvalues
    return float(e[2] - e[0])


def _minimize_gap_scan(n_ions, beta, b_abs, lo, hi):
    """Coarse probe + golden section + parabolic polish of E2 - E0 over mu."""
    seen = {}

    def gap_at(x):
        if x not in seen:
            seen[x] = _levels_at(n_ions, beta, x, b_abs)
        return seen[x]

    lo_cap = n_ions - 2 + 1e-4
    hi_cap = n_ions - 1 - 1e-4
    for _ in range(5):
        for x in np.linspace(lo, hi, _GAP_COARSE):
            gap_at(float(x))
        order = sorted(seen)
        i_min = int(np.argmin([seen[x] for x in order]))
        if 0 < i_min < len(order) - 1:
            break
        span = hi - lo
        lo_new = max(lo_cap, lo - span) if i_min == 0 else lo
        hi_new = hi if i_min == 0 else min(hi_cap, hi + span)
        if (lo_new, hi_new) == (lo, hi):
            raise TransitionLost("bracket shows no interior gap minimum")
        lo, hi = lo_new, hi_new
    else:
        raise TransitionLost("bracket shows no interior gap minimum")

    a, c = order[i_min - 1], order[i_min + 1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = c - invphi * (c - a)
    x2 = a + invphi * (c - a)
    f1, f2 = gap_at(x1), gap_at(x2)
    tol = max(_GAP_REL_TOL * max(abs(a), abs(c)), 1e-14)
    while c - a > tol:
        if f1 <= f2:
            c, x2, f2 = x2, x1, f1
            x1 = c - invphi * (c - a)
            f1 = gap_at(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (c - a)
            f2 = gap_at(x2)

    # parabolic polish on gap^2: near the crossing gap^2 = D^2 + v^2 (mu-mu*)^2
    for _ in range(3):
        pts = sorted(seen)
        best = min(pts, key=gap_at)
        i = pts.index(best)
        if i == 0 or i == len(pts) - 1:
            break
        x0, xm, x2b = pts[i - 1], pts[i], pts[i + 1]
        y0, ym, y2 = gap_at(x0) ** 2, gap_at(xm) ** 2, gap_at(x2b) ** 2
        num = (xm - x0) ** 2 * (ym - y2) - (xm - x2b) ** 2 * (ym - y0)
        den = (xm - x0) * (ym - y2) - (xm - x2b) * (ym - y0)
        if den == 0.0:
            break
        xv = xm - 0.5 * num / den
        if not (x0 < xv < x2b) or xv in seen:
            break
        gap_at(xv)

    mu_star = min(seen, key=gap_at)
    return mu_star, seen[mu_star]


def min_gap(n_ions, beta, b_over_njbar):
    """Locate the avoided crossing: minimize E2 - E0 over the detuning.

    E2 - E0 is the ground state's closest approach to the excited manifold;
    the two levels in between belong to other symmetry sectors and cross
    essentially unavoided.  The minimum sits at a corner (the crossing pair
    passes through it), so the default search tolerance localizes the
    detuning well below the nominal 1e-8 target to pin the gap value itself
    to ~1e-9.

    The absolute field b_abs = b_over_njbar * N * Jbar(zero-field transition)
    is held fixed while the detuning is scanned, mirroring a level diagram
    taken at constant drive.  Before any search, the FM and kink anchors must
    still be order-saturated at this field (TransitionLost otherwise), so
    exactly one FM/kink transition sits between them.
    """
    lo, hi, b_abs = _fixed_field(n_ions, beta, b_over_njbar)
    mu_star, gap = _minimize_gap_scan(n_ions, beta, b_abs, lo, hi)
    return GapPoint(
        n_ions=n_ions,
        beta=float(beta),
        b_over_njbar=float(b_over_njbar),
        b_abs=float(b_abs),
        mu_star=float(mu_star),
        gap=float(gap),
    )


def power_law_fit(x_values, y_values):
    """Least-squares exponent of y = C x^alpha: slope of log y vs log x."""
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if np.any(y <= 0.0) or np.any(x <= 0.0):
        raise ValueError("power-law fit needs strictly positive samples")
    alpha, _, rms = linear_fit(np.log(x), np.log(y))
    return alpha, rms


def linear_fit(x_values, y_values):
    """Plain least-squares line: returns (slope, intercept, rms residual)."""
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    coeffs, residuals, *_ = np.polyfit(x, y, 1, full=True)
    rms = float(np.sqrt(residuals[0] / len(x))) if len(residuals) else 0.0
    return float(coeffs[0]), float(coeffs[1]), rms


@dataclass(frozen=True)
class AlphaFit:
    n_ions: int
    beta: float
    alpha: float
    residual: float
    points: tuple
    skipped: tuple = ()


def fit_alpha(n_ions, beta=10.0, b_over_njbar=None):
    """Exponent of the gap law gap ~ (B / N Jbar)^alpha at the FM/kink transition.

    The samples of B/(N Jbar) must be finite, positive and at most 0.1
    (ValueError otherwise, before any solve).  Field samples at which the
    sharp transition no longer exists (the line has ended in the polarized
    crossover) are rejected and recorded in ``skipped``; at least 5 samples
    must survive (TransitionLost otherwise).
    """
    if b_over_njbar is None:
        b_over_njbar = np.geomspace(0.01, 0.1, 8)
    b_over_njbar = np.asarray(b_over_njbar, dtype=float)
    if len(b_over_njbar) < 5:
        raise ValueError("need at least 5 field samples for the fit")
    if not np.all(np.isfinite(b_over_njbar) & (b_over_njbar > 0.0)):
        raise ValueError(f"B/(N Jbar) samples must be finite and > 0, got {b_over_njbar}")
    if np.max(b_over_njbar) > 0.1 * (1 + 1e-9):
        raise ValueError("fit window requires B <= 0.1 N Jbar")
    fm_kink_interval(n_ions, beta)  # a chain without the transition fails here, not per field
    points, skipped = [], []
    for b in np.sort(b_over_njbar):
        try:
            points.append(min_gap(n_ions, beta, float(b)))
        except TransitionLost:
            skipped.append(float(b))
    if len(points) < 5:
        raise TransitionLost(
            f"only {len(points)} field samples keep a sharp transition; need 5 for the fit"
        )
    alpha, rms = power_law_fit([p.b_over_njbar for p in points], [p.gap for p in points])
    return AlphaFit(
        n_ions=n_ions,
        beta=float(beta),
        alpha=alpha,
        residual=rms,
        points=tuple(points),
        skipped=tuple(skipped),
    )


def order_parameter_at(n_ions, beta, mu, b_field_jbar):
    """Cluster-averaged P_FM - P_K at one (mu, B/Jbar) point; a failed solve raises."""
    values, failed = _scan_column(n_ions, beta, mu, [b_field_jbar])
    if failed:
        raise failed[0]
    return float(values[0, 0])


def transition_width(n_ions, beta, b_over_njbar):
    """Detuning width over which the order parameter falls from +0.5 to -0.5.

    Measured along a scan at the fixed absolute field of min_gap for the
    requested B/(N Jbar), between the same FM and kink anchors (TransitionLost
    unless both saturate); each threshold crossing is bisected from the
    anchor bracket.
    """
    lo_anchor, hi_anchor, b_abs = _fixed_field(n_ions, beta, b_over_njbar)

    def crossing(target, lo, hi):
        # the order parameter decreases with mu; find mu where it equals target
        for _ in range(_WIDTH_MAX_HALVINGS):
            mid = 0.5 * (lo + hi)
            if _fixed_field_op(n_ions, beta, mid, b_abs) > target:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-13 * max(1.0, abs(mid)):
                break
        return 0.5 * (lo + hi)

    upper = crossing(_WIDTH_EDGE, lo_anchor, hi_anchor)
    lower = crossing(-_WIDTH_EDGE, upper, hi_anchor)
    return lower - upper
