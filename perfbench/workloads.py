"""The four benchmark workloads: how each one's inputs follow from a seed, and
how one iteration of it runs.

Seed 0 gives the default inputs. Any other seed jitters the continuous inputs
on a fine lattice of values whose results were recorded at the seed commit
(see ``record_reference.py``), so the correctness gate has a reference for
every seed:

- census: no continuous input; every seed runs the same phase table.
- gap: the field range is trimmed at either end by whole steps of the
  33-point geometric field lattice on [0.01, 0.05], with a total trim of 0, 4
  or 8 steps, so all 5 geometric samples stay on lattice nodes.
- map: the detuning window moves by up to 4 whole grid steps either way.
- krylov: each window edge moves by up to 2 steps of 0.004 either way.

The field range of map and krylov is never jittered: krylov's two
non-converging points (the FM-side column) belong to the workload.
"""

from __future__ import annotations

import os
import random
import sys

import numpy as np

BETA = 10.0
NAMES = ("census", "gap", "map", "krylov")
# census and map work on small arrays: their time goes to the interpreter and
# to numpy calls on arrays of at most 2048 x 12. They run on one BLAS thread,
# since idle OpenBLAS workers spin: with two threads map burnt twice its wall
# time in CPU, and its iterations swung with the load on the host's other
# core. Their host speed probe is calibrate's "small" kernel. gap and krylov
# spend their time in dense LAPACK and BLAS at dimension 512 and 8192: they
# keep OpenBLAS's default of one thread per CPU, under which the gate's
# references were recorded, and the "dense" kernel.
SMALL_ARRAYS = ("census", "map")

CENSUS_N, CENSUS_SAMPLES = 12, 1024

GAP_N, GAP_SAMPLES = 9, 5
GAP_FIELD_LO, GAP_FIELD_HI, GAP_LATTICE = 0.01, 0.05, 33
GAP_TRIMS = (0, 4, 8)

MAP_N, MAP_RESOLUTION, MAP_FIELD_MAX = 5, (96, 48), 1.5
MAP_SHIFT_MAX = 4

KRYLOV_N, KRYLOV_RESOLUTION, KRYLOV_FIELD_MAX = 13, (3, 2), 1.5
KRYLOV_STEP, KRYLOV_JITTER_MAX = 0.004, 2


def import_library(root):
    """Import ionspins from ``<root>/src`` and nowhere else.

    Exits with an error (code 1) when the checkout holds no library source, so a
    benchmark copied without the program fails instead of finding another
    installation.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ionspins", "__init__.py")):
        sys.exit(f"perfbench: no ionspins source under {src}")
    sys.path.insert(0, src)
    import ionspins

    if not os.path.abspath(ionspins.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"perfbench: imported ionspins from {ionspins.__file__}, not from {src}")
    return ionspins


def gap_field_lattice():
    return np.geomspace(GAP_FIELD_LO, GAP_FIELD_HI, GAP_LATTICE)


def fm_kink_window(n_ions):
    """Midpoints of the FM and kink subintervals around the FM/kink transition."""
    from ionspins import phases

    _, left, right = phases.fm_kink_interval(n_ions, BETA)
    return 0.5 * (left.lo + left.hi), 0.5 * (right.lo + right.hi)


def make_inputs(name, seed):
    """The inputs of one workload at one seed, as a JSON-ready dict."""
    rng = random.Random(seed) if seed else None
    if name == "census":
        argv = ["phase-table", "--n", str(CENSUS_N), "--samples", str(CENSUS_SAMPLES)]
        return {"argv": argv, "items": CENSUS_N - 1}
    if name == "gap":
        trim = rng.choice(GAP_TRIMS) if rng else 0
        lo_steps = rng.randint(0, trim) if rng else 0
        fields = gap_field_lattice()
        lo, hi = float(fields[lo_steps]), float(fields[GAP_LATTICE - 1 - (trim - lo_steps)])
        argv = ["gap", "--n", str(GAP_N), "--b-range", f"{lo!r}:{hi!r}", "--samples", str(GAP_SAMPLES)]
        return {"argv": argv, "items": GAP_SAMPLES}
    if name == "map":
        lo, hi = fm_kink_window(MAP_N)
        step = (hi - lo) / (MAP_RESOLUTION[0] - 1)
        shift = rng.randint(-MAP_SHIFT_MAX, MAP_SHIFT_MAX) if rng else 0
        lo, hi = lo + shift * step, hi + shift * step
        argv = [
            "scan2d", "--n", str(MAP_N), "--mu-range", f"{lo!r}:{hi!r}",
            "--b-range", f"0:{MAP_FIELD_MAX!r}", "--samples", "{}x{}".format(*MAP_RESOLUTION),
        ]
        return {"argv": argv, "items": MAP_RESOLUTION[0] * MAP_RESOLUTION[1]}
    if name == "krylov":
        lo, hi = fm_kink_window(KRYLOV_N)
        if rng:
            lo += rng.randint(-KRYLOV_JITTER_MAX, KRYLOV_JITTER_MAX) * KRYLOV_STEP
            hi += rng.randint(-KRYLOV_JITTER_MAX, KRYLOV_JITTER_MAX) * KRYLOV_STEP
        return {
            "n_ions": KRYLOV_N,
            "mu_range": [lo, hi],
            "b_range": [0.0, KRYLOV_FIELD_MAX],
            "resolution": list(KRYLOV_RESOLUTION),
            "items": KRYLOV_RESOLUTION[0] * KRYLOV_RESOLUTION[1],
        }
    raise ValueError(f"unknown workload {name!r}")


def run_once(name, inputs, out_dir):
    """One iteration: the CLI in process for census, gap and map, the library for krylov.

    krylov calls ``scan_2d`` directly because the CLI exits with code 3 once
    more than 1% of the grid fails, and two of its six points do.
    Returns the CLI exit code or the ScanGrid.
    """
    from ionspins import cli, phases

    if name == "krylov":
        return phases.scan_2d(
            inputs["n_ions"], BETA, tuple(inputs["mu_range"]), tuple(inputs["b_range"]),
            resolution=tuple(inputs["resolution"]),
        )
    return cli.main(inputs["argv"] + ["--out", out_dir])


def clear_library_caches():
    """Empty ionspins' in-process caches, so each iteration pays what one CLI call pays.

    Covers module-level dicts named ``*_cache`` and ``functools`` caches,
    also behind a wrapper that sets ``__wrapped__``.
    """
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "ionspins" and not mod_name.startswith("ionspins."):
            continue
        for attr, value in list(vars(module).items()):
            if attr.endswith("_cache") and isinstance(value, dict):
                value.clear()
                continue
            while value is not None:
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
                value = getattr(value, "__wrapped__", None)
