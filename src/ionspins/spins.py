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
from dataclasses import dataclass

import numpy as np

from . import lanczos
from .couplings import chain_spectrum, mode_denominators, resolve_detuning
from .errors import AmbiguousGround, NoConvergence

_ENUM_CHUNK = 1 << 18
_TILE_DOUBLES = 1 << 14  # energies held per product in ground_orders
_CLUSTER_RTOL = 1e-9  # relative width of the degenerate ground cluster
_STACK_DOUBLES = 1 << 21  # matrix entries per stacked dense eigh (16 MiB)
_DENSE_MAX_DIM = 1 << 9  # largest 2^N diagonalized densely; above it LOBPCG runs
_TIE_RTOL = 1e-10  # relative energy window of an exact classical tie


@dataclass(frozen=True)
class SpinOrder:
    """Canonical representative of a configuration under global flip and reflection."""

    canonical: int
    n_ions: int
    degeneracy: int

    @property
    def bits(self):
        return format(self.canonical, f"0{self.n_ions}b")


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
    n_ions: int
    b_field: float
    b_abs: float
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


def reverse_bits(s, n_ions):
    """Chain reflection: ion n -> N + 1 - n."""
    r = 0
    for _ in range(n_ions):
        r = (r << 1) | (s & 1)
        s >>= 1
    return r


def orbit(s, n_ions):
    """Symmetry orbit {s, flip, reverse, flip(reverse)} sorted ascending."""
    r = reverse_bits(s, n_ions)
    return tuple(sorted({s, flip_all(s, n_ions), r, flip_all(r, n_ions)}))


def canonicalize(s, n_ions):
    """Smallest orbit member and the orbit size (2 for reflection-symmetric orders)."""
    members = orbit(s, n_ions)
    return SpinOrder(canonical=members[0], n_ions=n_ions, degeneracy=len(members))


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
    """(len, N) array of z values: column n holds the spin of ion n+1."""
    shifts = np.arange(n_ions - 1, -1, -1, dtype=np.int64)
    return 1.0 - 2.0 * ((indices[:, None] >> shifts) & 1)


def classical_energy(coupling, s):
    """Ising energy of one configuration: z . J . z."""
    z = _signs(np.array([s], dtype=np.int64), coupling.n_ions)[0]
    return float(z @ coupling.j @ z)


def classical_energies(coupling, half=False):
    """Ising energies of every basis configuration.

    With half=True only indices with ion 1 up are enumerated (the other half
    is the global-flip mirror with identical energies).
    """
    n = coupling.n_ions
    jm = coupling.j
    dim = 1 << (n - 1 if half else n)
    out = np.empty(dim)
    for lo in range(0, dim, _ENUM_CHUNK):
        idx = np.arange(lo, min(lo + _ENUM_CHUNK, dim), dtype=np.int64)
        z = _signs(idx, n)
        out[lo : lo + len(idx)] = np.einsum("si,si->s", z @ jm, z)
    return out


def _check_budget(n_ions):
    if n_ions > 24:
        raise ValueError("exhaustive scan budget is N <= 24")


def _order_or_tie(energies, n_ions):
    """The canonical order minimizing half-basis energies, or the AmbiguousGround of a tie.

    A tie is configurations from distinct orders within
    _TIE_RTOL * max(1, |E_min|) of the minimum - the signature of an exact
    level crossing.
    """
    emin = float(energies.min())
    winners = np.nonzero(energies <= emin + _TIE_RTOL * max(1.0, abs(emin)))[0]
    orders = {canonicalize(int(s), n_ions) for s in winners}
    if len(orders) > 1:
        return AmbiguousGround(orders, emin)
    return orders.pop()


def classical_ground(coupling):
    """Exhaustive classical minimum over the Z2-reduced half basis.

    Returns the canonical order, energy and the full minimizing orbit.
    Raises AmbiguousGround when configurations from distinct orders tie within
    _TIE_RTOL * max(1, |E_min|) - the signature of an exact level crossing.
    """
    n = coupling.n_ions
    _check_budget(n)
    e = classical_energies(coupling, half=True)
    order = _order_or_tie(e, n)
    if isinstance(order, AmbiguousGround):
        raise order
    return GroundState(order=order, energy=float(np.min(e)), configs=orbit(order.canonical, n))


def _mode_projections(n_ions, beta, lo):
    """(z . b^k)^2 for the half-basis configurations lo .. lo + _ENUM_CHUNK - 1."""
    idx = np.arange(lo, min(lo + _ENUM_CHUNK, 1 << (n_ions - 1)), dtype=np.int64)
    p = _signs(idx, n_ions) @ chain_spectrum(n_ions, beta, tol=1e-12).mode_matrix
    p *= p
    return p


# Two chunks: up to N = 20 a whole table stays cached.  Larger tables are
# rebuilt chunk by chunk per detuning, as classical_energies enumerates, so
# the 1.6 GB table of N = 24 is never held.
_cached_projections = functools.lru_cache(maxsize=2)(_mode_projections)


def ground_orders(n_ions, beta, mu_tildes):
    """Zero-field ground order of the trapped chain at each rescaled detuning.

    The modes are orthonormal, so z . J(mu) . z = sum_k d_k [(z . b^k)^2 - 1]
    with d_k = 1 / (mu^2 - omega_k^2): the half-basis energies of a tile of
    detunings are one product with the cached (z . b^k)^2 table.  Each entry
    is what classical_ground(coupling_from_trap(n_ions, beta, mu)) finds: the
    canonical SpinOrder, or the AmbiguousGround it would raise (returned, not
    raised).
    """
    _check_budget(n_ions)
    spec = chain_spectrum(n_ions, beta, tol=1e-12)  # the cache entry coupling_from_trap uses
    mus = [resolve_detuning(spec, mu).resolved for mu in mu_tildes]
    d = 1.0 / mode_denominators(spec, mus)
    half = 1 << (n_ions - 1)
    tile = max(1, _TILE_DOUBLES // half)
    chunks = range(0, half, _ENUM_CHUNK)
    project = _cached_projections if len(chunks) <= 2 else _mode_projections
    found = []
    for start in range(0, len(d), tile):
        dt = d[start : start + tile]
        e = np.empty((len(dt), half))
        for lo in chunks:
            p = project(n_ions, beta, lo)
            e[:, lo : lo + len(p)] = dt @ p.T
        e -= dt.sum(axis=1)[:, None]
        found.extend(_order_or_tie(row, n_ions) for row in e)
    return found


def field_scale(coupling):
    """Energy unit for the transverse field: Jbar, or 1 for a zero matrix."""
    return coupling.jbar if coupling.jbar > 0.0 else 1.0


def _flip(x, p):
    """x[s ^ (1 << p)] along the first axis: spin bit p flipped, with no index table."""
    return x.reshape(-1, 2, x[0].size << p)[:, ::-1].reshape(x.shape)


class _SpinOperator:
    """H for one coupling: Ising energies on the diagonal, -b_abs per spin flip.

    The absolute field b_abs is an argument of every method, so one operator,
    and one enumeration of the Ising energies, serves every field.
    """

    def __init__(self, coupling):
        self.n_ions = coupling.n_ions
        self.diag = classical_energies(coupling)

    def matvec(self, x, b_abs):
        """H @ x along the first axis of x: a state vector or a (2^N, ...) block.

        b_abs is one field, or an array that broadcasts against the trailing
        axes of x (one field per group of columns).
        """
        out = (x.T * self.diag).T
        for p in range(self.n_ions):
            out -= b_abs * _flip(x, p)
        return out

    def sector_matvec(self, x, b_abs, sign):
        """H on the global-flip sector of the given sign (+1 or -1), in the half basis.

        The half basis holds the configurations with ion 1 up; a sector state
        (x, sign * x[::-1]) / sqrt(2) is its full-space image.  Flipping ion 1
        leaves the half, and the global flip that brings it back reverses the
        index order inside it: hence the sign * x[::-1] term.  The diagonal
        reuses diag[:half], exact because E(s) = E(flip s) bit for bit.
        """
        out = (x.T * self.diag[: len(x)]).T
        for p in range(self.n_ions - 1):
            out -= b_abs * _flip(x, p)
        out -= sign * b_abs * x[::-1]
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
    basis (dimension 2^(N-1)), min(k, 2^(N-1)) levels each, embeds their
    vectors in the full space and keeps the k lowest of the merged levels.
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
    entries per stack); the LOBPCG path solves one field at a time.  One
    residual check covers every solved pair of every field.
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
                n_ions=n,
                b_field=float(b_fields[i]),
                b_abs=float(b_abs[i]),
                method="diagonal" if b_abs[i] == 0.0 else method,
                residuals=resid[j],
            )
        else:
            results[i] = NoConvergence(
                f"eigenpair residual {np.max(resid[j]):.3e} exceeds bound {np.max(bound[j]):.3e}"
            )
    return results


def _flip_sector_eigenpairs(op, b_abs, k):
    """k lowest pairs from a LOBPCG solve in each global-flip sector, embedded in the full space."""
    half = len(op.diag) // 2
    evals, vecs = [], []
    for sign in (1.0, -1.0):
        e, x = lanczos.lowest_eigenpairs(
            functools.partial(op.sector_matvec, b_abs=b_abs, sign=sign),
            half,
            min(k, half),
            diag=op.diag[:half],
        )
        evals.append(e)
        vecs.append(np.concatenate([x, sign * x[::-1]]) / np.sqrt(2.0))
    evals = np.concatenate(evals)
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
    """<sum_n sigma^x_n> / N per level (basis axis first)."""
    return sum(np.sum(vecs * _flip(vecs, p), axis=0) for p in range(n_ions)) / n_ions


def _cluster_mask(evals):
    """True on the levels degenerate with the ground state (levels on the last axis)."""
    e0 = evals[..., :1]
    return evals - e0 <= _CLUSTER_RTOL * np.maximum(1.0, np.abs(e0))


def polarization(result, which=0):
    """<sum_n sigma^x_n> / N for one eigenstate; lies in [-1, 1]."""
    return float(_level_polarizations(result.eigenvectors[:, which], result.n_ions))


def subspace_projection(result, basis, which=0):
    """Probability of one eigenstate inside the span of distinct configurations in [0, 2^N)."""
    v = result.eigenvectors[:, which]
    return float(_level_weights(v, _basis_indices(basis, len(v))))


def ground_cluster(result):
    """Indices of eigenstates degenerate with the ground state."""
    return np.flatnonzero(_cluster_mask(result.eigenvalues))


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
    levels.append(_level_polarizations(vecs, results[0].n_ions))
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
