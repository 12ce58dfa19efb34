"""Correctness gate: compare one iteration's outputs with the recorded references.

Runs after timing. CLI outputs first pass ``fileio.check_directory``; then
each item is compared with the reference value recorded at the seed commit
for the same input. Tolerances, not byte equality, because the BLAS thread
count alone moves results in the last digits:

- census: same transition count and per-subinterval orders; each
  transition's ``mu_tilde`` within the table's ``refine_tol``.
- gap: each field's gap within 1e-9 relative; ``alpha`` within 1e-8 of the
  fit to the reference gaps.
- map: every grid value within 1e-9 (energies relative to max(1, |E|)).
- krylov: E0 and E1 within 1e-8 (relative to max(1, |E|)) at points that
  converge in both; a point may fail only where the reference failed too.

``check`` returns a Verdict with the item counts. ``expected`` counts items
that fail exactly as they did at the seed commit (krylov's NoConvergence
points): they are not solved, but they are not wrong either.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

GAP_RTOL, ALPHA_ATOL = 1e-9, 1e-8
MAP_TOL, KRYLOV_TOL = 1e-9, 1e-8
# run inputs land on reference nodes up to rounding of linspace/geomspace
NODE_RTOL = 1e-12


@dataclass
class Verdict:
    items: int
    solved: int = 0
    expected: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)

    def fail_all(self, note):
        self.solved = self.expected = 0
        self.wrong = self.items
        self.notes.append(note)
        return self


def load_reference(name):
    with open(os.path.join(HERE, "reference", f"{name}.json")) as fh:
        return json.load(fh)


def _node(values, x):
    """Index of the reference node equal to x up to rounding; None if there is none."""
    i = int(np.argmin(np.abs(values - x)))
    return i if abs(values[i] - x) <= NODE_RTOL * max(1.0, abs(x)) else None


def _close(a, b, tol):
    return a is not None and b is not None and abs(a - b) <= tol * max(1.0, abs(b))


def _check_files(out_dir, verdict):
    from ionspins import fileio

    try:
        fileio.check_directory(out_dir)
    except (fileio.CheckFailure, OSError, ValueError, KeyError) as exc:
        verdict.fail_all(f"check_directory: {type(exc).__name__}: {exc}")
        return False
    return True


def check_census(inputs, output, ref, out_dir):
    v = Verdict(items=inputs["items"])
    if output != 0:
        return v.fail_all(f"CLI run ended with {output!r}")
    if not _check_files(out_dir, v):
        return v
    with open(os.path.join(out_dir, "phase_table.json")) as fh:
        doc = json.load(fh)
    table, ref_table = doc["table"], ref["table"]
    if doc["transition_count"] != ref["transition_count"]:
        return v.fail_all(f"transition count {doc['transition_count']} != {ref['transition_count']}")
    tol = float(ref_table["refine_tol"])
    by_mode = {iv["lower_mode"]: iv for iv in table["intervals"]}
    for ref_iv in ref_table["intervals"]:
        iv = by_mode.get(ref_iv["lower_mode"])
        ok = iv is not None and _same_interval(iv, ref_iv, tol)
        v.solved += ok
        v.wrong += not ok
        if not ok:
            v.notes.append(f"interval {ref_iv['lower_mode']} differs")
    return v


def _same_interval(iv, ref, tol):
    subs, ref_subs = iv["subintervals"], ref["subintervals"]
    if [(s["order"], s["degeneracy"]) for s in subs] != [(s["order"], s["degeneracy"]) for s in ref_subs]:
        return False
    if len(iv["transitions"]) != len(ref["transitions"]):
        return False
    for t, r in zip(iv["transitions"], ref["transitions"]):
        if (t["left_order"], t["right_order"], t["exact_crossing"]) != (
            r["left_order"], r["right_order"], r["exact_crossing"]
        ):
            return False
        if abs(t["mu_tilde"] - r["mu_tilde"]) > tol:
            return False
    return True


def check_gap(inputs, output, ref, out_dir):
    from ionspins import fileio

    v = Verdict(items=inputs["items"])
    if output != 0:
        return v.fail_all(f"CLI run ended with {output!r}")
    if not _check_files(out_dir, v):
        return v
    _, _, rows = fileio.read_csv(os.path.join(out_dir, "gap_scaling.csv"))
    with open(os.path.join(out_dir, "alpha_fit.json")) as fh:
        alpha = json.load(fh)["alphas"][0]["alpha"]
    lattice = np.array(ref["fields"])
    fields, ref_gaps = [], []
    for row in rows:
        b, gap = float(row[1]), float(row[2])
        i = _node(lattice, b)
        ref_gap = None if i is None else ref["gaps"][i]
        ok = ref_gap is not None and abs(gap - ref_gap) <= GAP_RTOL * abs(ref_gap)
        v.solved += ok
        v.wrong += not ok
        if not ok:
            v.notes.append(f"gap at B/(N Jbar)={b!r}: {gap!r} vs reference {ref_gap!r}")
        fields.append(b)
        ref_gaps.append(ref_gap)
    v.wrong += v.items - len(rows)  # fields fit_alpha skipped
    if v.wrong:
        return v
    ref_alpha = float(np.polyfit(np.log(fields), np.log(ref_gaps), 1)[0])
    if abs(alpha - ref_alpha) > ALPHA_ATOL:
        return v.fail_all(f"alpha {alpha!r} vs reference {ref_alpha!r}")
    return v


def check_map(inputs, output, ref, out_dir):
    from ionspins import fileio

    v = Verdict(items=inputs["items"])
    if output != 0:
        return v.fail_all(f"CLI run ended with {output!r}")
    if not _check_files(out_dir, v):
        return v
    _, _, rows = fileio.read_csv(os.path.join(out_dir, "scan2d.csv"))
    mu_nodes, b_nodes = np.array(ref["mu_values"]), np.array(ref["b_values"])
    shape = (len(mu_nodes), len(b_nodes))
    refs = [np.array(ref[k], dtype=float).reshape(shape) for k in ("order_parameter", "polarization", "e0", "e1")]
    for row in rows:
        mu, b, *values = (float(x) for x in row)
        i, l = _node(mu_nodes, mu), _node(b_nodes, b)
        ok = i is not None and l is not None and all(
            np.isfinite(x) and _close(x, float(r[i, l]), MAP_TOL) for x, r in zip(values, refs)
        )
        v.solved += ok
        v.wrong += not ok
        if not ok and len(v.notes) < 5:
            v.notes.append(f"grid point mu={mu!r}, B={b!r} differs")
    v.wrong += v.items - len(rows)
    return v


def check_krylov(inputs, output, ref, out_dir):
    v = Verdict(items=inputs["items"])
    if isinstance(output, BaseException):
        return v.fail_all(f"scan_2d raised {type(output).__name__}: {output}")
    points = ref["points"]
    mu_nodes = np.array([p["mu"] for p in points])
    b_nodes = np.array([p["b"] for p in points])
    failed = {(i, l) for i, l, _ in output.failures}
    for i, mu in enumerate(output.mu_values):
        for l, b in enumerate(output.b_values):
            match = np.nonzero((np.abs(mu_nodes - mu) <= NODE_RTOL * max(1.0, abs(mu)))
                               & (np.abs(b_nodes - b) <= NODE_RTOL * max(1.0, abs(b))))[0]
            if len(match) == 0:
                v.wrong += 1
                v.notes.append(f"no reference point for mu={mu!r}, B={b!r}")
                continue
            p = points[match[0]]
            if (i, l) in failed:
                if p["failed"]:
                    v.expected += 1
                else:
                    v.wrong += 1
                    v.notes.append(f"mu={mu!r}, B={b!r} failed but converged at the reference")
            elif p["failed"] or (_close(float(output.e0[i, l]), p["e0"], KRYLOV_TOL)
                                 and _close(float(output.e1[i, l]), p["e1"], KRYLOV_TOL)):
                v.solved += 1
            else:
                v.wrong += 1
                v.notes.append(f"eigenvalues at mu={mu!r}, B={b!r} differ from the reference")
    return v


CHECKS = {"census": check_census, "gap": check_gap, "map": check_map, "krylov": check_krylov}


def check(name, inputs, output, ref, out_dir):
    return CHECKS[name](inputs, output, ref, out_dir)


def same_outputs(a, a_dir, b, b_dir):
    """True when two iterations produced identical outputs (self-check of tracing).

    CLI outputs are compared file by file and byte for byte, krylov's grids
    array by array.
    """
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return False
    if isinstance(a, int) or isinstance(b, int):
        if a != b or not (os.path.isdir(a_dir) and os.path.isdir(b_dir)):
            return False
        if sorted(os.listdir(a_dir)) != sorted(os.listdir(b_dir)):
            return False
        return all(_read(os.path.join(a_dir, f)) == _read(os.path.join(b_dir, f)) for f in os.listdir(a_dir))
    arrays = ("mu_values", "b_values", "order_parameter", "polarization", "e0", "e1")
    return all(np.array_equal(getattr(a, k), getattr(b, k), equal_nan=True) for k in arrays) and [
        f[:2] for f in a.failures
    ] == [f[:2] for f in b.failures]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()
