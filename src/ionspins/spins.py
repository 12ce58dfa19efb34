"""Ising spin network over the 2^N computational basis.

A configuration is stored as an integer whose N-bit binary string reads ions
1..N from left to right: ion n occupies bit (N - n), bit value 0 means spin up
(z = +1) and 1 means spin down (z = -1).  The Hamiltonian acts as

    H = sum_{m<n} 2 J_mn sigma^z_m sigma^z_n - B sum_n sigma^x_n

i.e. the zz part is the full ordered double sum of the coupling matrix (the
diagonal self-energy is dropped), and the transverse field points along +x so
that a strong field polarizes the chain to <sigma^x> = +1.  B is accepted in
units of Jbar; a zero coupling matrix has Jbar = 0 and the field is then in
bare coupling units.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import lanczos
from .couplings import chain_spectrum, resolve_detunings
from .errors import AmbiguousGround, NoConvergence

_ENUM_CHUNK = 1 << 18
_TILE_DOUBLES = 1 << 14  # energies held per product in ground_orders
_BRACKET = 8  # ground_orders scores every 8th detuning of an interval against whole blocks
_CLUSTER_RTOL = 1e-9  # relative width of the degenerate ground cluster
_STACK_DOUBLES = 1 << 21  # matrix entries per stacked dense eigh (16 MiB)
_DENSE_MAX_DIM = 1 << 9  # largest 2^N diagonalized densely; above it LOBPCG runs
_TIE_RTOL = 1e-10  # relative energy window of an exact classical tie
# spin bits that sector_matvec flips in one product (_flip_sum): 4 to 6 time
# alike on 1- to 8-row blocks at N = 13, 7 and 8 are slower on the small blocks
_LOW_FLIP_BITS = 5


@dataclass(frozen=True)
class SpinOrder:
    """Canonical representative of a configuration under global flip and reflection."""

    canonical: int
    n_ions: int
    degeneracy: int

    @property
    def bits(self):
        return index_to_bits(self.canonical, self.n_ions)


@dataclass(frozen=True)
class GroundState:
    """Classical ground order, its energy, and the full minimizing orbit."""

    order: SpinOrder
    energy: float
    configs: tuple


@dataclass(frozen=True)
class SpectrumResult:
    """Lowest eigenpairs of the spin Hamiltonian plus solver provenance."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    method: str
    residuals: np.ndarray


def bits_to_index(bits):
    """Parse a binary string (ions left to right) into a basis index."""
    return int(bits, 2)


def index_to_bits(s, n_ions):
    return format(s, f"0{n_ions}b")


def flip_all(s, n_ions):
    """Global spin flip."""
    return s ^ ((1 << n_ions) - 1)


_BYTE_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.int64)


def reflected_configs(s, n_ions):
    """Chain reflection (ion n -> N + 1 - n) of an array of configurations, by shifts.

    The N bits are padded to whole bytes, reversed a byte at a time (each
    byte from a 256-entry table, the bytes in reverse order) and shifted
    back down by the padding.  Configurations are int64, so N <= 62.
    """
    s = np.asarray(s, dtype=np.int64)
    r = np.zeros_like(s)
    for shift in range(0, n_ions, 8):
        r = (r << 8) | _BYTE_REVERSED[(s >> shift) & 0xFF]
    return r >> (-n_ions % 8)


def _orbit_members(s, n_ions):
    """Each configuration, its global flip, its reflection and the reflection's flip: four arrays."""
    s = np.asarray(s, dtype=np.int64)
    r = reflected_configs(s, n_ions)
    mask = (1 << n_ions) - 1
    return s, s ^ mask, r, r ^ mask


def canonical_configs(s, n_ions):
    """Smallest orbit member of each configuration in an array."""
    s, fs, r, fr = _orbit_members(s, n_ions)
    return np.minimum(np.minimum(s, fs), np.minimum(r, fr))


def orbit_sizes(s, n_ions):
    """Orbit size of each configuration in an array: 2 if its reflection is s or flip s, else 4."""
    s, fs, r, _ = _orbit_members(s, n_ions)
    return np.where((r == s) | (r == fs), 2, 4)


def reverse_bits(s, n_ions):
    """Chain reflection of one configuration (``reflected_configs`` of one entry)."""
    return int(reflected_configs(s, n_ions))


def orbit(s, n_ions):
    """Symmetry orbit {s, flip, reverse, flip(reverse)} sorted ascending."""
    return tuple(sorted({int(x) for x in _orbit_members(s, n_ions)}))


def canonicalize(s, n_ions):
    """Smallest orbit member and the orbit size (2 for reflection-symmetric orders)."""
    return SpinOrder(
        canonical=int(canonical_configs(s, n_ions)),
        n_ions=n_ions,
        degeneracy=int(orbit_sizes(s, n_ions)),
    )


def fm_basis(n_ions):
    """The two ferromagnetic configurations."""
    return (0, (1 << n_ions) - 1)


def kink_basis(n_ions):
    """The four single-domain-wall configurations of an odd chain.

    The wall sits between ions (N-1)/2 and (N+1)/2 counted from either end,
    giving blocks of length a = (N+1)/2 and b = (N-1)/2 in both orders plus
    their global flips.
    """
    if n_ions % 2 == 0 or n_ions < 3:
        raise ValueError("kink basis is defined for odd chains of at least 3 ions")
    a = (n_ions + 1) // 2
    b = n_ions - a
    strings = ("0" * a + "1" * b, "0" * b + "1" * a, "1" * a + "0" * b, "1" * b + "0" * a)
    return tuple(sorted(int(x, 2) for x in strings))


def hamming_distance(a, b, n_ions):
    """Differing spin count, minimized over the global flip of one argument."""
    direct = (a ^ b).bit_count()
    flipped = (a ^ flip_all(b, n_ions)).bit_count()
    return min(direct, flipped)


def _signs(indices, n_ions):
    """(len, N) array of z values: column n holds the spin of ion n+1.

    The shifted indices are cast to int8, which keeps their lowest bit, and
    masked there: the same +-1 matrix as masking in int64, in about half
    the time.
    """
    shifts = np.arange(n_ions - 1, -1, -1, dtype=np.int64)
    return 1.0 - 2.0 * ((indices[:, None] >> shifts).astype(np.int8) & 1)


def classical_energy(coupling, s):
    """Ising energy of one configuration: z . J . z."""
    z = _signs(np.array([s], dtype=np.int64), coupling.n_ions)[0]
    return float(z @ coupling.j @ z)


def classical_energies(coupling):
    """Ising energies of the half basis: the 2^(N-1) configurations with ion 1 up.

    The other half is its global-flip mirror: configuration 2^N - 1 - s has
    the energy of s.
    """
    n = coupling.n_ions
    jm = coupling.j
    dim = 1 << (n - 1)
    out = np.empty(dim)
    for lo in range(0, dim, _ENUM_CHUNK):
        idx = np.arange(lo, min(lo + _ENUM_CHUNK, dim), dtype=np.int64)
        z = _signs(idx, n)
        out[lo : lo + len(idx)] = np.einsum("si,si->s", z @ jm, z)
    return out


def _check_budget(n_ions):
    if n_ions > 24:
        raise ValueError("exhaustive scan budget is N <= 24")


def _tie_window(emin):
    """Top of each row's tie window, E_min + _TIE_RTOL * max(1, |E_min|): monotone in E_min."""
    return emin + _TIE_RTOL * np.maximum(1.0, np.abs(emin))


def _tile_winners(e, slack):
    """Row minima of an energy tile (a column per configuration), the flat indices in each row's window + slack."""
    emin = e.min(axis=1)
    return emin, np.flatnonzero(e <= (_tie_window(emin) + slack)[:, None])


def _orders_or_ties(emin, rows, configs, n_ions):
    """Per row: the canonical order of its winners, or the AmbiguousGround of a tie.

    emin holds each row's minimum; rows and configs list the winners, grouped
    by row in ascending order, and every row has at least one.  Winners
    from distinct orders are the signature of an exact level crossing.
    Every winner is canonicalized in one pass and the winners are grouped
    by row (``reduceat``); one SpinOrder serves every row it wins, and only
    a tied row builds its AmbiguousGround.
    """
    if not np.all(np.isfinite(emin)):
        raise ValueError("classical energies must be finite")
    codes = canonical_configs(configs, n_ions)
    # a set, not np.unique, whose first call alone raises peak RSS by about 0.7 MiB
    distinct = list(set(codes.tolist()))
    orders = {
        c: SpinOrder(canonical=c, n_ions=n_ions, degeneracy=g)
        for c, g in zip(distinct, orbit_sizes(distinct, n_ions).tolist())
    }
    # row i's winners are codes[bounds[i] : bounds[i + 1]], never empty: its minimum is one
    bounds = np.searchsorted(rows, np.arange(len(emin) + 1))
    starts, ends = bounds[:-1], bounds[1:]
    found = [orders[c] for c in codes[starts].tolist()]
    tied = np.minimum.reduceat(codes, starts) != np.maximum.reduceat(codes, starts)
    for i in np.flatnonzero(tied):
        tie = {orders[c] for c in codes[starts[i] : ends[i]].tolist()}
        found[i] = AmbiguousGround(tie, float(emin[i]))
    return found


def classical_ground(coupling):
    """Exhaustive classical minimum over the Z2-reduced half basis.

    Returns the canonical order, energy and the full minimizing orbit.
    Raises AmbiguousGround when configurations from distinct orders tie within
    _TIE_RTOL * max(1, |E_min|) - the signature of an exact level crossing.
    The order is selected as ``ground_orders`` selects it, on one row, no slack.
    """
    n = coupling.n_ions
    _check_budget(n)
    emin, winners = _tile_winners(classical_energies(coupling)[None, :], 0.0)
    # one row: a winner's flat index is its configuration
    (order,) = _orders_or_ties(emin, np.zeros_like(winners), winners, n)
    if isinstance(order, AmbiguousGround):
        raise order
    return GroundState(order=order, energy=float(emin[0]), configs=orbit(order.canonical, n))


def _mode_projections(n_ions, beta, lo):
    """Canonical members of half-basis chunk lo .. lo + _ENUM_CHUNK - 1 and their (z . b^k)^2 rows.

    The half basis already drops the global flip; of the two members of a
    reflection pair only the canonical one is kept.  Its partner has the
    same order and, up to rounding, the same energy at every detuning (the
    reflected modes are +-b^k), so one column per order decides every
    ground order; only a row minimum can differ, by the partner's rounding.
    """
    idx = np.arange(lo, min(lo + _ENUM_CHUNK, 1 << (n_ions - 1)), dtype=np.int64)
    idx = idx[canonical_configs(idx, n_ions) == idx]
    p = _signs(idx, n_ions) @ chain_spectrum(n_ions, beta).mode_matrix
    p *= p
    return idx, p


# Two chunks: up to N = 20 a whole table stays cached across calls.  A larger
# table would only evict itself, since each ground_orders call reads every
# chunk: it is built a chunk at a time at each call and nothing of it stays
# resident between calls, so the 0.8 GB table of N = 24 is never held.  A call
# scores every 8th detuning of an interval, and its last, against every column
# of a chunk, and the others only against the columns their bracket admits.
_cached_projections = functools.lru_cache(maxsize=2)(_mode_projections)


def _column_blocks(n_ions, beta):
    """The projection table as (configurations, rows) blocks of at most _TILE_DOUBLES // 2 rows.

    Chunk after chunk, each read once, from the cache when the whole table
    fits in it; a chunk splits into blocks of nearly equal size.
    """
    chunks = range(0, 1 << (n_ions - 1), _ENUM_CHUNK)
    cached = len(chunks) <= _cached_projections.cache_parameters()["maxsize"]
    for lo in chunks:
        idx, p = (_cached_projections if cached else _mode_projections)(n_ions, beta, lo)
        blocks = -(-len(p) // (_TILE_DOUBLES // 2))  # none if the chunk holds no canonical configuration
        for i in range(blocks):
            cut = slice(i * len(p) // blocks, (i + 1) * len(p) // blocks)
            yield idx[cut], p[cut]


def _mode_weights(mu, w2):
    """d_k = 1 / (mu^2 - omega_k^2), one row per resolved detuning mu; w2 holds the omega_k^2.

    The bits of ``couplings.mode_denominators``, without its resonance check:
    a resolved detuning lies 1e-6 or more off every mode.
    """
    mu = mu[:, None]
    d = mu * mu - w2
    return np.divide(1.0, d, out=d)


def _score(rows, mu, w2, idx, p, bmin, slack):
    """Energies of the detuning rows against projection rows p, whose configurations are idx.

    The rows index the sorted detunings mu; their d_k are built here, a tile
    at a time.  Each row's minimum goes to bmin.  Returns the energies, and
    the rows, configurations and energies of the candidates in each row's
    tie window widened by its slack.
    """
    d = _mode_weights(mu[rows], w2)
    e = d @ p.T - d.sum(axis=1)[:, None]
    bmin[rows], w = _tile_winners(e, slack[rows])
    r, c = np.divmod(w, len(p))
    return e, (rows[r], idx[c], e.take(w))


def _rescore(configs, mu, w2, b):
    """Energy of each configuration at its detuning (entry by entry), in one fixed elementwise order.

    p_k = sum_n z_n b_nk over the mode matrix b in ion order, then sum_k d_k (p_k^2 - 1) in mode order.
    """
    z = _signs(configs, len(b))
    p = sum(z[:, n, None] * b[n] for n in range(len(b)))
    terms = _mode_weights(mu, w2) * (p * p - 1.0)
    return sum(terms[:, k] for k in range(len(b)))


def _bracket_rows(interval):
    """The full and inner rows of detunings sorted ascending, given each one's interval.

    Each interval's every _BRACKET-th row and its last are full; the rows
    between two full ones are inner.
    """
    place = np.arange(len(interval))
    is_full = ((place - np.searchsorted(interval, interval)) % _BRACKET == 0) | (
        place == np.searchsorted(interval, interval, side="right") - 1
    )
    return np.flatnonzero(is_full), np.flatnonzero(~is_full)


def ground_orders(n_ions, beta, mu_tildes):
    """Zero-field ground order of the trapped chain at each rescaled detuning.

    The modes are orthonormal, so z . J(mu) . z = sum_k d_k [(z . b^k)^2 - 1]
    with d_k = 1 / (mu^2 - omega_k^2): a tile of detunings is scored against
    a block p of the (z . b^k)^2 table, one column per spin order
    (``_mode_projections``), in one product d @ p.T - S, S = sum_k d_k.
    Each entry is what classical_ground(coupling_from_trap(n_ions, beta, mu))
    finds: the canonical SpinOrder, or the AmbiguousGround it would raise.
    The detunings are resolved at once (``resolve_detunings``; the first bad
    one raises).  Each chunk is read once per call; in each block every row
    keeps its minimum and the candidates in its tie window plus its slack
    (``_tile_winners``), a window monotone in E_min, so after the last chunk
    they are filtered against each row's minimum.  A row left with two or
    more is rescored (``_rescore``), whose energies give its minimum and tie
    window; the winners are canonicalized together (``_orders_or_ties``).  A
    tile's d_k are built with it (``_score``): no (detunings x modes) array
    is held, and no product holds more than _TILE_DOUBLES energies.

    The slack.  Let u = eps / 2 and, for mu between modes k and k + 1,
    m = min(mu^2 - omega_k^2, omega_{k+1}^2 - mu^2): every |d_k| <= 1 / m.
    A product's energy is off from the exact one of the stored d_k and
    (z . b^k)^2 by at most (N + 1)^2 u sum_k |d_k| <= (N + 1)^2 u N / m =
    delta (a length-N dot product whose squares sum to N, S, one
    subtraction), a rescore's ordered sum by less.  Against the exact
    modes, the rounded z . b^k and their squares add P = (2 (N - 1) N^(3/2)
    + N) u / m < delta to either, so the two energies of one configuration
    differ by less than 2 (delta + P) < 4 delta.  The slack 8 delta =
    4 (N + 1)^2 eps N / m covers twice that and the windows' rounding: the
    candidates hold the rescored tie window, and a lone candidate has no
    rival in it.  Each row finds what a rescore of every configuration
    finds, which neither the BLAS nor the call's other detunings decide.

    The bound.  Sorted ascending, each interval's detunings are scored in
    full at every _BRACKET-th one and at its last; one in between, in a
    bracket [lo, hi] of two such rows, meets only the columns it admits.
    On one interval every d_k falls with mu and (z . b^k)^2 >= 0, so
    F_z = E_z + S falls too: for mu in [lo, hi], E_min(mu) + S(mu) <=
    E_min(lo) + S(lo) for a block's minimum, and E_z(hi) + S(hi) <= E_z(mu)
    + S(mu) <= E_min(mu) + S(mu) + window(mu) + slack(mu) for a candidate.
    So the block's minimum and every candidate pass E_z(hi) <= E_min(lo) +
    S(lo) - S(hi) + window + 2 slack, with slack the larger of lo's and
    hi's (m is least at an end) and window = _TIE_RTOL * max(1,
    max(|E_min(lo)|, |E_min(hi)|) + S(lo) - S(hi)), which bounds every
    window in the bracket (E_min(mu) lies in [E_min(hi) - (S(lo) - S(hi)),
    E_min(lo) + S(lo) - S(hi)]).  Rounding is monotone, so the stored d_k
    fall with mu too.  The test rests on four computed energies (z at mu
    and at hi, the minimizer at lo at lo and at mu), each off by at most
    the bracket's delta, and on sums and a window that round by less than
    12 N^2 u / m: one slack covers them, the other the candidates' slack.
    """
    _check_budget(n_ions)
    spec = chain_spectrum(n_ions, beta)
    mu = resolve_detunings(spec, mu_tildes)
    if not len(mu):
        return []
    rank = np.argsort(mu, kind="stable")
    emin, rows, configs = _winners(n_ions, beta, spec, mu[rank])
    rows = rank[rows]  # back to the caller's order
    group = np.argsort(rows, kind="stable")  # grouped by row, configurations ascending
    return _orders_or_ties(emin[np.argsort(rank)], rows[group], configs[group], n_ions)


def _winners(n_ions, beta, spec, mu):
    """The scoring pass of ``ground_orders`` on detunings sorted ascending.

    Returns each row's minimum and the rows and configurations of the
    winners in its tie window (its rescore's, for a row of two candidates or
    more), each row's in ascending order.  Only these outlive the call: the
    bracket and candidate arrays, several per detuning, are freed on return.
    """
    interval = np.searchsorted(spec.frequencies, mu)  # mu lies between modes interval and interval + 1
    full, inner = _bracket_rows(interval)
    closes = np.searchsorted(full, inner)  # inner row i lies between full[closes[i] - 1] and full[closes[i]]
    # the brackets with rows inside, by the index in full of their hi row (not
    # np.unique(closes), whose first call alone raises peak RSS by about 0.7 MiB)
    j = 1 + np.flatnonzero(full[1:] - full[:-1] > 1)
    lo, hi = full[j - 1], full[j]
    w2 = np.square(spec.frequencies)
    rise = _mode_weights(mu[lo], w2).sum(axis=1) - _mode_weights(mu[hi], w2).sum(axis=1)
    room = np.minimum(mu * mu - w2[interval - 1], w2[interval] - mu * mu)  # m of the ground_orders docstring
    slack = 4 * (n_ions + 1) ** 2 * np.finfo(float).eps * n_ions / room
    spare = 2 * np.maximum(slack[lo], slack[hi])  # a bracket's: the bound's own rounding and its rows' slack
    emin = np.full(len(mu), np.inf)
    found = []  # (rows, configurations, energies) of the candidates of each product
    for idx, p in _column_blocks(n_ions, beta):
        bmin = np.empty(len(mu))
        tile = _TILE_DOUBLES // len(p)
        starts = [*range(0, len(full), tile), len(full)]
        # tile i closes brackets j[b[i] : b[i + 1]], which hold rows inner[r[i] : r[i + 1]]
        b, r = np.searchsorted(j, starts).tolist(), np.searchsorted(closes, starts).tolist()
        for t, t1, b0, b1, r0, r1 in zip(starts, starts[1:], b, b[1:], r, r[1:]):
            e, winners = _score(full[t:t1], mu, w2, idx, p, bmin, slack)
            found.append(winners)
            if b0 == b1:
                continue
            k = slice(b0, b1)
            edge = np.maximum(np.abs(bmin[lo[k]]), np.abs(bmin[hi[k]])) + rise[k]
            reach = bmin[lo[k]] + rise[k] + _TIE_RTOL * np.maximum(1.0, edge) + spare[k]
            cols = np.flatnonzero(np.any(e[j[k] - t] <= reach[:, None], axis=0))
            pc, ic = p[cols], idx[cols]
            sub = _TILE_DOUBLES // len(cols)
            for u in range(r0, r1, sub):
                found.append(_score(inner[u : min(u + sub, r1)], mu, w2, ic, pc, bmin, slack)[1])
        np.minimum(emin, bmin, out=emin)
    rows, configs, energies = (np.concatenate(x) for x in zip(*found))
    keep = energies <= (_tie_window(emin) + slack)[rows]
    rows, configs = rows[keep], configs[keep]
    again = np.flatnonzero(np.bincount(rows, minlength=len(mu))[rows] > 1)  # rows of two candidates or more
    if len(again):
        e, r = _rescore(configs[again], mu[rows[again]], w2, spec.mode_matrix), rows[again]
        emin[r] = np.inf
        np.minimum.at(emin, r, e)
        drop = again[e > _tie_window(emin)[r]]
        rows, configs = np.delete(rows, drop), np.delete(configs, drop)
    return emin, rows, configs


def field_scale(coupling):
    """Energy unit for the transverse field: Jbar, or 1 for a zero matrix."""
    return coupling.jbar if coupling.jbar > 0.0 else 1.0


def _flip(x, p, axis=0):
    """x with index s along ``axis`` moved to s ^ (1 << p): spin bit p flipped, with no index table."""
    return x.reshape(-1, 2, math.prod(x.shape[axis:][1:]) << p)[:, ::-1].reshape(x.shape)


@functools.cache
def _flip_sum(low):
    """The 2^low x 2^low 0/1 matrix of the single flips of spin bits 0 .. low - 1.

    Entry (s, t) is 1 when s and t differ in exactly one of those bits, so
    x.reshape(-1, 2^low) @ _flip_sum(low) sums the low flips of every row at once.
    """
    eye = np.eye(1 << low)
    return sum((_flip(eye, p) for p in range(low)), np.zeros_like(eye))


class _SpinOperator:
    """H for one coupling: Ising energies on the diagonal, -b_abs per spin flip.

    The absolute field b_abs is an argument of every method, so one operator,
    and one enumeration of the Ising energies, serves every field.  The
    diagonal is the half basis followed by its mirror, so E(s) = E(flip s)
    holds bit for bit.
    """

    def __init__(self, coupling):
        self.n_ions = coupling.n_ions
        e = classical_energies(coupling)
        self.diag = np.concatenate([e, e[::-1]])

    def matvec(self, x, b_abs):
        """H @ x along the first axis of x: a state vector or a (2^N, ...) block.

        b_abs is one field, or an array that broadcasts against the trailing
        axes of x (one field per group of columns).
        """
        x = np.ascontiguousarray(x)  # so each flip below reshapes a view, not a copy
        out = (x.T * self.diag).T
        x = b_abs * x  # scaled once; each flip below only moves entries
        for p in range(self.n_ions):
            out -= _flip(x, p)
        return out

    def sector_matvec(self, x, b_abs, sign):
        """H on the global-flip sector of the given sign (+1 or -1), in the half basis.

        x is a (b, half) block of row vectors, and the result holds their
        images as rows.  The half basis holds the configurations with ion 1
        up; a sector state (v, sign * v[::-1]) / sqrt(2) is its full-space
        image.  Flipping ion 1 leaves the half, and the global flip that
        brings it back reverses the index order inside it: hence the
        sign * x[:, ::-1] term.  The diagonal is diag[:half], the half-basis
        energies.  The flips of the lowest _LOW_FLIP_BITS bits (all in-half
        bits when N - 1 is fewer) are one product of the rows, cut into
        blocks of 2^low entries, with the constant ``_flip_sum(low)``; each
        higher bit is one ``_flip`` block move.  The full-space ``matvec``,
        which checks the residuals, keeps one block move per bit.
        """
        low = min(_LOW_FLIP_BITS, self.n_ions - 1)
        out = x * self.diag[: x.shape[-1]]
        x = b_abs * x  # scaled once; the flips below only move and add entries
        out -= (x.reshape(-1, 1 << low) @ _flip_sum(low)).reshape(x.shape)
        for p in range(low, self.n_ions - 1):
            out -= _flip(x, p, axis=-1)
        out -= sign * x[:, ::-1]
        return out

    def dense(self, b_abs):
        """The 2^N x 2^N matrix at one field, or their (m, 2^N, 2^N) stack for m fields."""
        b_abs = np.asarray(b_abs, dtype=float)
        dim = len(self.diag)
        h = np.zeros(b_abs.shape + (dim, dim))
        idx = np.arange(dim)
        h[..., idx, idx] = self.diag
        for p in range(self.n_ions):
            h[..., idx, _flip(idx, p)] = -b_abs[..., None]
        return h


def apply_hamiltonian(coupling, b_field, v):
    """Matrix-free H @ v: diagonal Ising energies minus b * single-spin flips."""
    dim = 1 << coupling.n_ions
    v = np.asarray(v, dtype=float)
    if v.shape != (dim,):
        raise ValueError(f"state vector must have length {dim}, got {v.shape}")
    return _SpinOperator(coupling).matvec(v, b_field * field_scale(coupling))


def dense_hamiltonian(coupling, b_field):
    """Explicit 2^N x 2^N matrix; intended for small N."""
    return _SpinOperator(coupling).dense(b_field * field_scale(coupling))


def lowest_eigenpairs(coupling, b_field, k=4):
    """k lowest eigenpairs of the spin Hamiltonian.

    The dimension picks the solver: up to 2^N = _DENSE_MAX_DIM the full
    matrix is diagonalized densely (method="dense"), above it the LOBPCG
    solver of ``lanczos`` runs once per global-flip sector
    (method="lanczos").  At zero field H is diagonal and no solver runs on
    any path: the pairs are the k lowest Ising energies (stable order) with
    their basis vectors, and the result reports method="diagonal".  The
    iterative path solves the two sectors of the global flip in the half
    basis (dimension 2^(N-1)), k // 2 + 1 converged levels each and, when
    the levels split unevenly, a restart of one sector for more levels
    (``_flip_sector_eigenpairs``); it embeds their vectors in the full space
    and keeps the k lowest of the merged levels.
    Residuals ||Hv - Ev|| of the full-space operator are verified against
    1e-9 * max(1, |E|) for every returned pair (NoConvergence otherwise, also
    for a NaN residual).  The field must be finite and non-negative, and N
    within the exhaustive budget of 24.  This is the one-field call of
    ``field_spectra``, which raises the failure it returns.
    """
    (result,) = field_spectra(coupling, [b_field], k)
    if isinstance(result, NoConvergence):
        raise result
    return result


def field_spectra(coupling, b_fields, k=4):
    """The k lowest eigenpairs of one coupling at each of several fields.

    One entry per field, in order: the SpectrumResult of lowest_eigenpairs
    (same solver choice, same checks), or the NoConvergence it would raise,
    returned rather than raised and without its traceback, so a failed
    solver's arrays are not kept alive.  The Ising energies are enumerated once
    for all fields.  The dense path diagonalizes the nonzero fields' matrices
    in stacks of one ``np.linalg.eigh`` call each (at most _STACK_DOUBLES
    entries per stack); the LOBPCG path solves one field at a time, two or
    three sector solves per field (``_flip_sector_eigenpairs``: a sector
    holding more than k // 2 + 1 of the k lowest levels is solved again for
    more, restarted from its own vectors).  One residual check covers every
    solved pair of every field.
    """
    n = coupling.n_ions
    _check_budget(n)
    dim = 1 << n
    if not 1 <= k <= min(8, dim):
        raise ValueError(f"k must lie in [1, {min(8, dim)}], got {k}")
    b_fields = np.asarray(b_fields, dtype=float)
    if not np.all(np.isfinite(b_fields) & (b_fields >= 0.0)):
        raise ValueError(f"transverse field must be finite and non-negative, got {b_fields}")
    method = "dense" if dim <= _DENSE_MAX_DIM else "lanczos"
    op = _SpinOperator(coupling)
    b_abs = b_fields * field_scale(coupling)
    evals = np.empty((len(b_abs), k))
    vecs = np.zeros((len(b_abs), dim, k))
    failed = {}
    zero, nonzero = np.flatnonzero(b_abs == 0.0), np.flatnonzero(b_abs != 0.0)
    if len(zero):
        levels = np.argsort(op.diag, kind="stable")[:k]
        evals[zero] = op.diag[levels]
        vecs[zero[:, None], levels, np.arange(k)] = 1.0
    if method == "dense":
        per = max(1, _STACK_DOUBLES // dim**2)
        for lo in range(0, len(nonzero), per):
            stack = nonzero[lo : lo + per]
            w, v = np.linalg.eigh(op.dense(b_abs[stack]))
            evals[stack], vecs[stack] = w[:, :k], v[:, :, :k]
    else:
        for i in nonzero:
            try:
                evals[i], vecs[i] = _flip_sector_eigenpairs(op, b_abs[i], k)
            except NoConvergence as exc:
                failed[i] = exc.with_traceback(None)

    results = [failed.get(i) for i in range(len(b_abs))]
    solved = [i for i, r in enumerate(results) if r is None]
    if not solved:
        return results
    vecs = vecs[solved]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    x = np.moveaxis(vecs, 1, 0)  # basis axis first, as matvec takes it
    resid = np.linalg.norm(op.matvec(x, b_abs[solved, None]) - x * evals[solved], axis=0)
    bound = 1e-9 * np.maximum(1.0, np.abs(evals[solved]))
    passed = np.all(resid <= bound, axis=1)  # a NaN residual fails
    for j, i in enumerate(solved):
        if passed[j]:
            results[i] = SpectrumResult(
                eigenvalues=evals[i],
                eigenvectors=vecs[j],
                method="diagonal" if b_abs[i] == 0.0 else method,
                residuals=resid[j],
            )
        else:
            results[i] = NoConvergence(
                f"eigenpair residual {np.max(resid[j]):.3e} exceeds bound {np.max(bound[j]):.3e}"
            )
    return results


def _flip_sector_eigenpairs(op, b_abs, k):
    """k lowest pairs from LOBPCG solves in the two global-flip sectors, embedded in the full space.

    Each sector first solves for its min(k, half) lowest levels (half is its
    dimension), of which only m = min(k // 2 + 1, half) must converge: the
    others widen the block to that of a k-level solve, but draw no operator
    rows.  A sector is complete when it holds all of its min(k, half)
    levels, or when its m-th level is at or above the k-th lowest of the
    merged converged levels: the levels it left out lie above its m-th, so
    none of them can enter the k lowest.  The 2m > k merged levels leave at
    most one sector incomplete.  Its m levels, and the other sector's levels
    below its m-th, are all among the k lowest; it is solved once more, for
    as many of its lowest levels as can fill the rest, restarted from the
    first solve's vectors.  Its m converged ones meet the bound at the
    restart's first step and seldom draw a row after it, so the second
    solve pays mainly for the levels the first left unconverged.
    """
    half = len(op.diag) // 2
    want, m = min(k, half), min(k // 2 + 1, half)
    signs = (1.0, -1.0)
    matvecs = [functools.partial(op.sector_matvec, b_abs=b_abs, sign=sign) for sign in signs]
    firsts = [lanczos.lowest_eigenpairs(f, want, diag=op.diag[:half], converge=m) for f in matvecs]
    solves = [(e[:m], x[:, :m]) for e, x in firsts]
    if m < want:
        kth = np.sort(np.concatenate([e for e, _ in solves]))[k - 1]
        for i, (e, _) in enumerate(solves):
            if e[-1] < kth:
                below = int(np.sum(solves[1 - i][0] < e[-1]))
                solves[i] = lanczos.lowest_eigenpairs(
                    matvecs[i], min(want, k - below), diag=op.diag[:half], start=firsts[i][1].T
                )
    evals = np.concatenate([e for e, _ in solves])
    vecs = [np.concatenate([x, sign * x[::-1]]) / np.sqrt(2.0) for sign, (_, x) in zip(signs, solves)]
    keep = np.argsort(evals, kind="stable")[:k]
    return evals[keep], np.concatenate(vecs, axis=1)[:, keep]


def _basis_indices(basis, dim):
    """The configurations of basis as an index array; ValueError unless distinct and in [0, dim)."""
    basis = list(basis)
    if not basis or len(set(basis)) != len(basis) or not all(0 <= s < dim for s in basis):
        raise ValueError(f"basis must be non-empty, distinct configurations in [0, {dim})")
    return np.asarray(basis, dtype=np.int64)


def _level_weights(vecs, idx):
    """Probability inside the span of the configurations idx, per level (basis axis first)."""
    return np.sum(vecs[idx] ** 2, axis=0)


def _level_polarizations(vecs, n_ions):
    """<sum_n sigma^x_n> / N per level (basis axis first), with no flipped copy of vecs.

    sigma^x_p pairs entry s, with spin bit p clear, and s ^ (1 << p).  In the
    reshape of vecs to (blocks, 2, 2^p * tail) these are the two strided
    views [:, 0] and [:, 1], so <sigma^x_p> = 2 sum_pairs v[lo] v[hi].
    """
    tail = math.prod(vecs.shape[1:])
    total = np.zeros(tail)
    for p in range(n_ions):
        pairs = vecs.reshape(-1, 2, tail << p)
        total += np.einsum("ij,ij->j", pairs[:, 0], pairs[:, 1]).reshape(-1, tail).sum(axis=0)
    return (2.0 * total / n_ions).reshape(vecs.shape[1:])


def _cluster_mask(evals):
    """True on the levels degenerate with the ground state (levels on the last axis)."""
    e0 = evals[..., :1]
    return evals - e0 <= _CLUSTER_RTOL * np.maximum(1.0, np.abs(e0))


def cluster_averages(results, bases):
    """Ground-cluster averages of spectra with one N and k, computed on their stacked vectors.

    Returns (projections, polarization): projections[i, j] is the probability
    of results[j] in the span of bases[i], polarization[j] its
    <sum_n sigma^x_n> / N.  Each equals tr(P_cluster O) / dim(cluster),
    independent of the eigenbasis chosen inside a degenerate cluster.
    """
    evals = np.array([r.eigenvalues for r in results])
    vecs = np.stack([r.eigenvectors for r in results], axis=1)  # (2^N, fields, k)
    levels = [_level_weights(vecs, _basis_indices(basis, len(vecs))) for basis in bases]
    levels.append(_level_polarizations(vecs, len(vecs).bit_length() - 1))
    members = _cluster_mask(evals)  # per field: the sum over its cluster / the cluster's size
    means = np.sum(np.array(levels) * members, axis=-1) / np.sum(members, axis=-1)
    return means[:-1], means[-1]


def cluster_projection(result, basis):
    """Subspace probability averaged over the ground cluster (one-field ``cluster_averages``)."""
    (projection,), _ = cluster_averages([result], [basis])
    return float(projection[0])


def cluster_polarization(result):
    """Polarization averaged over the ground cluster (one-field ``cluster_averages``)."""
    _, (pol,) = cluster_averages([result], [])
    return float(pol)
