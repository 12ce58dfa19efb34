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
import math
from dataclasses import dataclass, field

import numpy as np

from .couplings import coupling_from_trap
from .errors import (
    AmbiguousGround,
    NoConvergence,
    NoInteriorMinimum,
    ResonanceError,
    TransitionLost,
)
from .spins import (
    cluster_averages,
    field_spectra,
    fm_basis,
    ground_orders,
    kink_basis,
    lowest_eigenpairs,
)

# sweep settings that no caller varies
_FM_KINK_SAMPLES = 64  # probes of the interval (N-2, N-1)
_FM_KINK_TOL = 1e-8  # bisection width of its order changes
_GAP_COARSE = 25  # coarse probes of a gap bracket
_GAP_REL_TOL = 1e-11  # golden-section stop, relative to the detuning
_WIDTH_EDGE = 0.5  # |order parameter| at the edges of the transition width
_WIDTH_MAX_HALVINGS = 70


@dataclass(frozen=True)
class Transition:
    """An order change inside one inter-mode interval."""

    mu: float
    uncertainty: float
    left_bits: str
    right_bits: str
    exact: bool = False


@dataclass(frozen=True)
class Subinterval:
    lo: float
    hi: float
    order_bits: str
    degeneracy: int


@dataclass(frozen=True)
class IntervalPhases:
    lower_mode: int
    subintervals: tuple
    transitions: tuple


@dataclass(frozen=True)
class PhaseTable:
    n_ions: int
    beta: float
    samples_per_interval: int
    refine_tol: float
    intervals: tuple

    @property
    def transitions(self):
        return tuple(t for iv in self.intervals for t in iv.transitions)

    @property
    def transition_count(self):
        return len(self.transitions)

    def to_dict(self):
        return {
            "n_ions": self.n_ions,
            "beta": self.beta,
            "samples_per_interval": self.samples_per_interval,
            "refine_tol": self.refine_tol,
            "intervals": [
                {
                    "lower_mode": iv.lower_mode,
                    "subintervals": [
                        {
                            "lo": s.lo,
                            "hi": s.hi,
                            "order": s.order_bits,
                            "degeneracy": s.degeneracy,
                        }
                        for s in iv.subintervals
                    ],
                    "transitions": [
                        {
                            "mu_tilde": t.mu,
                            "uncertainty": t.uncertainty,
                            "left_order": t.left_bits,
                            "right_order": t.right_bits,
                            "exact_crossing": t.exact,
                        }
                        for t in iv.transitions
                    ],
                }
                for iv in self.intervals
            ],
        }


def _sidestep(n_ions, beta, mu, nudge, tie):
    """(point, order) at the first of mu + nu, mu - nu, mu + 3 nu off the tie; else raise it."""
    for shift in (nudge, -nudge, 3 * nudge):
        (order,) = ground_orders(n_ions, beta, [mu + shift])
        if not isinstance(order, AmbiguousGround):
            return mu + shift, order
    raise tie


def _nudged_orders(n_ions, beta, mus, nudges):
    """Ground order at each mu; an exact crossing is sidestepped (``_sidestep``)."""
    orders = ground_orders(n_ions, beta, mus)
    for i, tie in enumerate(orders):
        if isinstance(tie, AmbiguousGround):
            _, orders[i] = _sidestep(n_ions, beta, mus[i], nudges[i], tie)
    return orders


def _bisect_orders(n_ions, beta, lo, o_lo, hi, o_hi, tol, ties=()):
    """Refine every order change in (lo, hi); recursion handles interlopers.

    A tied midpoint is sidestepped by 1e-3 of the bracket, as a tied grid point
    is; a transition whose final bracket holds a tied midpoint is exact.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        (o_mid,) = ground_orders(n_ions, beta, [mid])
        if isinstance(o_mid, AmbiguousGround):
            ties += (mid,)
            mid, o_mid = _sidestep(n_ions, beta, mid, 1e-3 * (hi - lo), o_mid)
        if o_mid == o_lo:
            lo = mid
        elif o_mid == o_hi:
            hi = mid
        else:
            left = _bisect_orders(n_ions, beta, lo, o_lo, mid, o_mid, tol, ties)
            return left + _bisect_orders(n_ions, beta, mid, o_mid, hi, o_hi, tol, ties)
    return [
        Transition(
            mu=0.5 * (lo + hi),
            uncertainty=0.5 * (hi - lo),
            left_bits=o_lo.bits,
            right_bits=o_hi.bits,
            exact=any(lo < t < hi for t in ties),
        )
    ]


def _interval_phases(n_ions, beta, k, samples, refine_tol):
    step = 1.0 / samples
    grid = [float(mu) for mu in k + (np.arange(samples) + 0.5) * step]
    orders = _nudged_orders(n_ions, beta, grid, [step * 1e-3] * samples)
    transitions = []
    for i in range(samples - 1):
        if orders[i] != orders[i + 1]:
            transitions.extend(
                _bisect_orders(
                    n_ions, beta, grid[i], orders[i], grid[i + 1], orders[i + 1], refine_tol
                )
            )
    transitions.sort(key=lambda t: t.mu)
    cuts = [float(k)] + [t.mu for t in transitions] + [float(k + 1)]
    spans = list(zip(cuts[:-1], cuts[1:]))
    mids = [0.5 * (lo + hi) for lo, hi in spans]
    nudges = [(hi - lo) * 1e-3 for lo, hi in spans]
    subintervals = tuple(
        Subinterval(lo=lo, hi=hi, order_bits=o.bits, degeneracy=o.degeneracy)
        for (lo, hi), o in zip(spans, _nudged_orders(n_ions, beta, mids, nudges))
    )
    return IntervalPhases(lower_mode=k, subintervals=subintervals, transitions=tuple(transitions))


def phase_table(n_ions, beta=10.0, samples_per_interval=64, refine_tol=1e-6):
    """Zero-field phase table: spin orders tiling every inter-mode interval.

    Each interval (k, k+1) is sampled on a uniform grid and every order change
    is bisected down to refine_tol; an exact crossing hit along the way is
    sidestepped and its transition marked ``exact=True``, and one that every
    sidestep still ties is raised (``AmbiguousGround``).  Every probe goes
    through ``spins.ground_orders`` (mode space, a tile of detunings per
    product).
    """
    if n_ions < 3:
        raise ValueError("phase tables need at least 3 ions")
    if samples_per_interval < 16:
        raise ValueError("need at least 16 samples per interval")
    if not refine_tol > 0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol!r}")
    floor = float(np.spacing(float(n_ions)))
    if refine_tol < floor:
        # bisection on doubles cannot narrow a bracket below the spacing at mu = N
        raise ValueError(f"refine_tol {refine_tol!r} is below the float spacing {floor!r} at {n_ions}")
    intervals = tuple(
        _interval_phases(n_ions, beta, k, samples_per_interval, refine_tol) for k in range(1, n_ions)
    )
    return PhaseTable(
        n_ions=n_ions,
        beta=float(beta),
        samples_per_interval=samples_per_interval,
        refine_tol=refine_tol,
        intervals=intervals,
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
                orders=tuple(s.order_bits for s in iv.subintervals),
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

    def rows(self):
        """Flat iteration: (mu, b, order_parameter, polarization, e0, e1)."""
        for i, mu in enumerate(self.mu_values):
            for l, b in enumerate(self.b_values):
                yield (
                    float(mu),
                    float(b),
                    float(self.order_parameter[i, l]),
                    float(self.polarization[i, l]),
                    float(self.e0[i, l]),
                    float(self.e1[i, l]),
                )


def _scan_column(n_ions, beta, mu, b_fields):
    """Order parameter, polarization, E0 and E1 at each field B/Jbar of one detuning.

    Returns their (4, len(b_fields)) array and the {field index: exception}
    of the points that failed, whose entries are NaN.  Every field is solved
    in one ``field_spectra`` call on one coupling, and the observables of all
    solved fields come from one ``cluster_averages`` call.  A failure of the
    whole column (a resonant mu) fails every point with the same exception.
    The exceptions carry no traceback, so no solver frame outlives the call.
    """
    values = np.full((4, len(b_fields)), np.nan)
    try:
        spectra = field_spectra(coupling_from_trap(n_ions, beta, mu), b_fields, k=min(6, 1 << n_ions))
    except (ResonanceError, NoConvergence) as exc:
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
    entries left as NaN.
    """
    if n_ions % 2 == 0:
        raise ValueError("the kink subspace (hence the order parameter) needs odd N")
    if min(resolution) < 1:
        raise ValueError(f"resolution needs at least 1 point per axis, got {resolution!r}")
    mu_values = np.linspace(mu_range[0], mu_range[1], resolution[0])
    b_values = np.linspace(b_range[0], b_range[1], resolution[1])
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
    fm_bits = "0" * n_ions
    kink_bits = format(kink_basis(n_ions)[0], f"0{n_ions}b")
    for i, t in enumerate(iv.transitions):
        if t.left_bits == fm_bits and t.right_bits == kink_bits:
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
    b_abs = b_over_njbar * n_ions * coupling_from_trap(n_ions, beta, t.mu).jbar
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
            raise NoInteriorMinimum("bracket shows no interior gap minimum")
        lo, hi = lo_new, hi_new
    else:
        raise NoInteriorMinimum("bracket shows no interior gap minimum")

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
        except (TransitionLost, NoInteriorMinimum):
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
