"""Record the reference outputs that the correctness gate compares against.

Run from the root of a checkout of the commit whose results are the
reference (the references in ``perfbench/reference/`` come from the seed
commit, the last one before the benchmark existed):

    python3 perfbench/record_reference.py

It computes every lattice input any seed can draw (see ``workloads.py``):
the census phase table, the gap at each of the 33 lattice fields, the map
over the window widened by the largest shift, and the krylov grid values at
each detuning a jittered window can place a column on. It takes about five
minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import provenance  # noqa: E402
import workloads as wl  # noqa: E402


def _floats(values):
    return [None if not np.isfinite(v) else float(v) for v in np.ravel(values)]


def record_census(scratch):
    from ionspins import cli

    inputs = wl.make_inputs("census", 0)
    out = os.path.join(scratch, "census")
    if cli.main(inputs["argv"] + ["--out", out]) != 0:
        raise RuntimeError("census CLI run failed")
    with open(os.path.join(out, "phase_table.json")) as fh:
        doc = json.load(fh)
    return {"argv": inputs["argv"], "transition_count": doc["transition_count"], "table": doc["table"]}


def record_gap(scratch):
    from ionspins import phases

    fields = wl.gap_field_lattice()
    fit = phases.fit_alpha(wl.GAP_N, wl.BETA, fields)
    by_field = {p.b_over_njbar: p for p in fit.points}
    return {
        "n_ions": wl.GAP_N,
        "fields": _floats(fields),
        "gaps": [by_field[f].gap if f in by_field else None for f in fields],
        "mu_star": [by_field[f].mu_star if f in by_field else None for f in fields],
    }


def record_map(scratch):
    from ionspins import phases

    lo, hi = wl.fm_kink_window(wl.MAP_N)
    step = (hi - lo) / (wl.MAP_RESOLUTION[0] - 1)
    pad = wl.MAP_SHIFT_MAX
    grid = phases.scan_2d(
        wl.MAP_N, wl.BETA, (lo - pad * step, hi + pad * step), (0.0, wl.MAP_FIELD_MAX),
        resolution=(wl.MAP_RESOLUTION[0] + 2 * pad, wl.MAP_RESOLUTION[1]),
    )
    if grid.failures:
        raise RuntimeError(f"map reference has failed points: {grid.failures[:3]}")
    return {
        "n_ions": wl.MAP_N,
        "mu_values": _floats(grid.mu_values),
        "b_values": _floats(grid.b_values),
        "order_parameter": _floats(grid.order_parameter),
        "polarization": _floats(grid.polarization),
        "e0": _floats(grid.e0),
        "e1": _floats(grid.e1),
    }


def record_krylov(scratch):
    from ionspins import phases

    lo, hi = wl.fm_kink_window(wl.KRYLOV_N)
    jit = np.arange(-wl.KRYLOV_JITTER_MAX, wl.KRYLOV_JITTER_MAX + 1)
    mids = 0.5 * (lo + hi) + 0.5 * np.arange(-2 * wl.KRYLOV_JITTER_MAX, 2 * wl.KRYLOV_JITTER_MAX + 1) * wl.KRYLOV_STEP
    mus = np.sort(np.concatenate([lo + jit * wl.KRYLOV_STEP, mids, hi + jit * wl.KRYLOV_STEP]))
    points = []
    for mu in mus:
        t0 = time.perf_counter()
        grid = phases.scan_2d(
            wl.KRYLOV_N, wl.BETA, (float(mu), float(mu) + 1.0), (0.0, wl.KRYLOV_FIELD_MAX),
            resolution=(1, wl.KRYLOV_RESOLUTION[1]),
        )
        failed = {l for _, l, _ in grid.failures}
        for l, b in enumerate(grid.b_values):
            points.append({
                "mu": float(mu),
                "b": float(b),
                "failed": l in failed,
                "e0": None if l in failed else float(grid.e0[0, l]),
                "e1": None if l in failed else float(grid.e1[0, l]),
            })
        print(f"  krylov mu={mu:.6f}: {time.perf_counter() - t0:.1f} s, failed fields {sorted(failed)}", flush=True)
    return {"n_ions": wl.KRYLOV_N, "points": points}


RECORDERS = {"census": record_census, "gap": record_gap, "map": record_map, "krylov": record_krylov}


def main():
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    wl.import_library(ROOT)
    scratch = os.path.join(ROOT, ".perfbench_out", "record")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for name in wl.NAMES:
        t0 = time.perf_counter()
        wl.clear_library_caches()
        doc = RECORDERS[name](scratch)
        doc["provenance"] = provenance.collect(ROOT)
        with open(os.path.join(HERE, "reference", f"{name}.json"), "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: recorded in {time.perf_counter() - t0:.1f} s", flush=True)


if __name__ == "__main__":
    main()
