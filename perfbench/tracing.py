"""Per-layer spans for ionspins, recorded from outside the library.

``Tracer.install`` replaces each traced public function with a wrapper under
every name an ionspins module binds it to, not only where it is defined:
``phases`` and ``cli`` import ``lowest_eigenpairs``, ``coupling_from_trap``
and others by name at load time, so wrapping ``spins.lowest_eigenpairs``
alone would miss their calls. The matvec that ``spins`` hands to
``lanczos.lowest_eigenpairs`` is wrapped per call, as ``lanczos.matvec``.

Spans stay in memory with the index of their parent span, so self time
(duration minus the time covered by child spans) can be computed; ``dump``
writes them out when the run ends. ``layer_metrics`` turns them into the
``<module>.<function>.<stat>`` metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

TRACED = (
    "chain.equilibrium_positions",
    "chain.transverse_modes",
    "couplings.chain_spectrum",
    "couplings.coupling_from_trap",
    "spins.classical_ground",
    "spins.classical_energies",
    "spins.lowest_eigenpairs",
    "spins.dense_hamiltonian",
    "spins.apply_hamiltonian",
    "spins.cluster_projection",
    "spins.cluster_polarization",
    "lanczos.lowest_eigenpairs",
    "phases.phase_table",
    "phases.fm_kink_interval",
    "phases.fit_alpha",
    "phases.min_gap",
    "phases.scan_2d",
    "phases.order_parameter_at",
    "fileio.write_csv",
    "fileio.write_json",
    "cli.main",
)
MATVEC = "lanczos.matvec"
EIGENSOLVE = "spins.lowest_eigenpairs"


def _first_arg(args, kwargs, keyword):
    return args[0] if args else kwargs[keyword]


def _info_after(name, args, kwargs):
    """A number recorded on a span that returned, where a metric needs one."""
    if name == EIGENSOLVE:
        return 1 << _first_arg(args, kwargs, "coupling").n_ions  # dimension
    if name == "phases.phase_table":
        return _first_arg(args, kwargs, "n_ions") - 1  # intervals tabulated
    if name.startswith("fileio.write_"):
        return os.path.getsize(_first_arg(args, kwargs, "path"))  # bytes written
    return None


class Tracer:
    """Records spans as ``(index, parent_index, name, start, end, error, info)``.

    A span is stored when it ends, as a tuple of plain values with its
    parent's index (-1 for none) rather than a reference to it. CPython's
    garbage collector stops tracking such tuples, so tens of thousands of
    stored spans add nothing to each later collection. They go into slots of
    blocks allocated once per ``BLOCK`` spans instead of a list that is
    reallocated as it grows. Reallocating a buffer of hundreds of KiB shifted
    the C heap under numpy's temporaries and made later iterations page-fault
    heavily, traced or not: in a 12-ion phase table at 256 samples per
    interval, an untraced iteration after two traced ones took 183k minor
    faults instead of a handful.
    """

    BLOCK = 1 << 16

    def __init__(self):
        self._blocks = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []
        self.missing = set()

    @property
    def spans(self):
        """Every finished span, in start order."""
        return [span for block in self._blocks for span in block if span is not None]

    def _store(self, span):
        block, slot = divmod(span[0], self.BLOCK)
        while block >= len(self._blocks):
            self._blocks.append([None] * self.BLOCK)
        self._blocks[block][slot] = span

    def _call(self, name, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        index = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._store((index, parent, name, start, perf_counter(), type(exc).__name__, None))
            raise
        finally:
            stack.pop()
        end = perf_counter()
        self._store((index, parent, name, start, end, None, _info_after(name, args, kwargs)))
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "lanczos.lowest_eigenpairs":
                args, kwargs = self._wrap_matvec(args, kwargs)
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _wrap_matvec(self, args, kwargs):
        matvec = _first_arg(args, kwargs, "matvec")

        def traced(x):
            return self._call(MATVEC, matvec, (x,), {})

        if args:
            return (traced,) + tuple(args[1:]), kwargs
        return args, dict(kwargs, matvec=traced)

    def install(self):
        """Wrap every traced function under each name an ionspins module binds it to.

        A function missing from the library (renamed or removed by a later
        change) cannot be wrapped; its name goes into ``missing``, and the
        run reports the trace as broken rather than its zeros as a speed-up.
        """
        modules = [m for n, m in sys.modules.items() if n == "ionspins" or n.startswith("ionspins.")]
        for qualified in TRACED:
            module_name, func = qualified.split(".")
            original = getattr(sys.modules.get(f"ionspins.{module_name}"), func, None)
            if original is None:
                self.missing.add(qualified)
                continue
            wrapper = self._wrap(qualified, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self, path):
        """Write the spans as JSON lines in start order."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, iterations):
    """Per-layer metrics from the spans of ``iterations`` traced iterations.

    Counts, busy and self times and bytes are per iteration; ratios,
    percentiles and maxima are over all calls. ``busy_s`` counts a span only
    when no enclosing span has the same name, so recursion is not counted twice.
    """
    by_index = {span[0]: span for span in spans}
    child_time = defaultdict(float)
    child_names = defaultdict(list)
    for _, parent, name, start, end, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            child_names[parent].append(name)

    calls, busy, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
    eig_ms = {"dense": [], "lanczos": []}
    dim3 = 0
    under_phase_table = under_min_gap = ambiguous = converged = hits = 0
    basis_max = 0
    for index, parent, traced_name, start, end, error, info in spans:
        ancestors = set()
        while parent >= 0:
            ancestors.add(by_index[parent][2])
            parent = by_index[parent][1]
        name, duration = traced_name, end - start
        if name == EIGENSOLVE:
            method = "lanczos" if "lanczos.lowest_eigenpairs" in child_names[index] else "dense"
            name = f"{EIGENSOLVE}.{method}"
            eig_ms[method].append(1e3 * duration)
            if method == "dense" and info:
                dim3 += info**3
            under_min_gap += "phases.min_gap" in ancestors
        elif name == "spins.classical_ground":
            under_phase_table += "phases.phase_table" in ancestors
            ambiguous += error == "AmbiguousGround"
        elif name == "lanczos.lowest_eigenpairs":
            converged += error is None
            basis_max = max(basis_max, child_names[index].count(MATVEC))
        elif name == "couplings.chain_spectrum":
            hits += "chain.equilibrium_positions" not in child_names[index]
        calls[name] += 1
        self_time[name] += duration - child_time[index]
        if traced_name not in ancestors:
            busy[name] += duration

    per = 1.0 / max(iterations, 1)
    names = [n for n in TRACED if n != EIGENSOLVE] + [MATVEC] + [f"{EIGENSOLVE}.dense", f"{EIGENSOLVE}.lanczos"]
    out = {}
    for n in names:
        out[f"{n}.calls"] = calls[n] * per
        out[f"{n}.busy_s"] = busy[n] * per
        out[f"{n}.self_s"] = self_time[n] * per
    for method, ms in eig_ms.items():
        out[f"{EIGENSOLVE}.{method}.ms_p50"] = float(np.percentile(ms, 50)) if ms else 0.0
        out[f"{EIGENSOLVE}.{method}.ms_p90"] = float(np.percentile(ms, 90)) if ms else 0.0
    out[f"{EIGENSOLVE}.dense_dim3_sum"] = dim3 * per
    intervals = sum(s[6] or 0 for s in spans if s[2] == "phases.phase_table")
    out["phases.phase_table.probes_per_interval"] = _ratio(under_phase_table, intervals)
    out["phases.min_gap.eigensolves_per_call"] = _ratio(under_min_gap, calls["phases.min_gap"])
    out["spins.classical_ground.ambiguous_ratio"] = _ratio(ambiguous, calls["spins.classical_ground"])
    out["lanczos.basis_max"] = basis_max
    out["lanczos.converged_ratio"] = _ratio(converged, calls["lanczos.lowest_eigenpairs"])
    out["couplings.chain_spectrum.hit_ratio"] = _ratio(hits, calls["couplings.chain_spectrum"])
    for n in ("fileio.write_csv", "fileio.write_json"):
        out[f"{n}.bytes"] = sum(s[6] or 0 for s in spans if s[2] == n) * per
    out["trace.spans"] = len(spans) * per
    return out
