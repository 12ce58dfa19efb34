"""Benchmark of the ionspins pipeline: four workloads, end to end and per layer.

    python3 perfbench/run.py [--workload census|gap|map|krylov|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere; the library is imported from ``src/`` of the checkout that
holds this file, never from an installed copy. One run of one workload:

1. set-up: starts the set-up probe (this file with ``--setup-probe``) nine
   times in fresh processes and reports the median time from process start
   until ionspins is imported and the inputs are made (``setup_s``);
2. timing: runs iterations in process, with ionspins' caches emptied before
   each so every iteration pays what one CLI invocation pays, until the next
   one would end after ``--seconds``; always at least one;
3. correctness gate (``gate.py``): every iteration's outputs against the
   references recorded at the seed commit.

Host speed samples (``calibrate.py``) run during every untraced iteration,
and before every set-up probe and after the last; ``wall_s``,
``items_per_s`` and ``setup_s`` are rescaled by them to the reference host's
speed. The times as measured are printed and kept in ``result.json`` as
``unscaled``.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced iterations and reports the
per-layer metrics, the tracing overhead, and whether the traced outputs equal
the untraced ones byte for byte and every traced function was found. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
Everything a run writes goes under ``.perfbench_out/`` in the checkout,
including ``result.json`` with provenance and, when traced, ``spans.jsonl``.

``--workload all`` runs each workload in its own process and prints one row
per workload.

Failures: ``failed`` counts items the gate finds wrong. krylov's two
NoConvergence points, which fail the same way at the seed commit, are not
wrong; they count in ``failed_frac`` (printed, and kept in result.json),
which is the share of attempted items not solved.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60
# layers whose share of the traced wall time the report prints
SHARES = {
    "classical": ("spins.classical_ground", "couplings.coupling_from_trap"),
    "dense_eigensolve": ("spins.lowest_eigenpairs.dense",),
    "lanczos": ("lanczos.lowest_eigenpairs",),
}

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import workloads as wl  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=wl.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="0 gives the default inputs")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def probe_kernel(workload):
    return "small" if workload in wl.SMALL_ARRAYS else "dense"


def measure_setup(workload, seed):
    """Times from starting a fresh process until the set-up probe is ready.

    A block of host speed samples runs before every probe and after the last.
    Returns the probe times and the blocks.
    """
    times, blocks = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        blocks.append(calibrate.block(probe_kernel(workload)))
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            try:
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        times.append(elapsed)
    blocks.append(calibrate.block(probe_kernel(workload)))
    return times, blocks


def timed_loop(name, inputs, seconds, out_root, tracer=None):
    """Iterations until the next would end after ``seconds``.

    With a tracer, untraced and traced iterations alternate, so drift in
    machine speed falls on both alike, and the loop stops only after a pair.
    Without one, the host speed sampler runs during every iteration, and its
    own time is taken out of the iteration's wall time.
    Returns, per mode, the iteration walls and the (output, directory) pairs;
    and the sampler, which holds the iteration times rescaled to the
    reference host's speed (None with a tracer).
    """
    modes = ("plain", "traced") if tracer else ("iter",)
    walls = {mode: [] for mode in modes}
    runs = {mode: [] for mode in modes}
    sampler = None if tracer else calibrate.Sampler(probe_kernel(name))
    work_dir = os.path.join(out_root, "out")
    start = perf_counter()
    for i in itertools.count():
        mode = modes[i % len(modes)]
        wl.clear_library_caches()
        if mode == "traced":
            tracer.install()
        if sampler:
            sampler.start()
        t0 = perf_counter()
        try:
            output = wl.run_once(name, inputs, work_dir)
        except Exception as exc:  # the gate counts every item of this iteration as failed
            output = exc
        wall = perf_counter() - t0
        if sampler:
            wall = sampler.stop(wall)
        if mode == "traced":
            tracer.uninstall()
        done_dir = os.path.join(out_root, f"{mode}{len(walls[mode]):03d}")
        if os.path.isdir(work_dir):
            os.rename(work_dir, done_dir)
        walls[mode].append(wall)
        runs[mode].append((output, done_dir))
        if mode == modes[-1] and (perf_counter() - start) + sum(w[-1] for w in walls.values()) > seconds:
            return walls, runs, sampler


def tail(walls):
    """Highest percentile with at least ten iterations beyond it, or None below 11 iterations."""
    n = len(walls)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(walls)[n - 11]}


def run_workload(args, spec):
    import gate
    import provenance
    import tracing

    name, seed = args.workload, args.seed
    if name in wl.SMALL_ARRAYS:
        provenance.set_blas_threads(1)
    wl.import_library(ROOT)
    setup_times, setup_blocks = measure_setup(name, seed) if args.trace == 0 else (None, None)
    inputs = wl.make_inputs(name, seed)
    out_root = os.path.join(OUT, f"{name}-seed{seed}-trace{args.trace}")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)

    tracer = tracing.Tracer() if args.trace else None
    walls, runs, sampler = timed_loop(name, inputs, args.seconds, out_root, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain_walls = walls["plain" if tracer else "iter"]

    ref = gate.load_reference(name)
    verdicts = [gate.check(name, inputs, output, ref, d) for mode_runs in runs.values() for output, d in mode_runs]
    attempted = sum(v.items for v in verdicts)
    solved = sum(v.solved for v in verdicts)
    wrong = sum(v.wrong for v in verdicts)
    expected = sum(v.expected for v in verdicts)
    notes = [n for v in verdicts for n in v.notes]

    # times as measured, before they are rescaled to the reference host's speed
    unscaled = {"wall_s": statistics.median(plain_walls)}
    # items solved per iteration over the median iteration, as robust to noise as wall_s
    unscaled["items_per_s"] = solved / len(plain_walls) / unscaled["wall_s"]
    host_speed = None
    if args.trace == 0:
        unscaled["setup_s"] = statistics.median(setup_times)
        host_speed = {"sample_s_mean": statistics.mean(sampler.samples), "samples": len(sampler.samples)}
        wall_s = statistics.median(sampler.rescaled)
        values = {
            "wall_s": wall_s,
            "items_per_s": solved / len(plain_walls) / wall_s,
            "setup_s": statistics.median(calibrate.rescale(setup_times, setup_blocks, probe_kernel(name))),
            "peak_rss_mb": peak_rss_mb,
        }
        metric_spec = spec["end_to_end"]
        self_check, shares = True, None
    else:
        traced_walls = walls["traced"]
        values = tracing.layer_metrics(tracer.spans, len(traced_walls))
        values["trace.wall_s"] = statistics.median(traced_walls)
        values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
        metric_spec = spec["per_layer"]
        mean_traced = sum(traced_walls) / len(traced_walls)  # busy_s is a mean per iteration too
        shares = {label: sum(values[f"{n}.busy_s"] for n in names) / mean_traced for label, names in SHARES.items()}
        (a, a_dir), (b, b_dir) = runs["plain"][0], runs["traced"][0]
        self_check = gate.same_outputs(a, a_dir, b, b_dir)
        if not self_check:
            notes.append("traced outputs differ from untraced outputs")
        if tracer.missing:
            self_check = False
            notes.append(f"traced functions missing from ionspins, their metrics read 0: {sorted(tracer.missing)}")
        tracer.dump(os.path.join(out_root, "spans.jsonl"))

    missing = {m["name"] for m in metric_spec} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}
    result = {
        "correct": wrong == 0 and self_check,
        "attempted": attempted,
        "failed": wrong,
        "metrics": metrics,
    }
    detail = {
        "workload": name,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "inputs": inputs,
        "iterations": len(plain_walls),
        "walls_s": walls,
        "rescaled_walls_s": sampler.rescaled if sampler else None,
        "unscaled": unscaled,
        "host_speed": host_speed,
        "wall_s_tail": tail(plain_walls),
        "failed_frac": (attempted - solved) / attempted,
        "solved": solved,
        "known_failures": expected,
        "self_check": self_check,
        "shares_of_traced_wall_s": shares,
        "notes": notes,
        "provenance": provenance.collect(ROOT),
        "result": result,
    }
    with open(os.path.join(out_root, "result.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    report(detail)
    return result


def report(d):
    r = d["result"]
    print(f"perfbench {d['workload']}  seed={d['seed']}  trace={d['trace']}  iterations={d['iterations']}")
    for key, m in r["metrics"].items():
        print(f"  {key:<48} {m['value']:>14.6g} {m['unit']}")
    speed = d["host_speed"]
    if speed:
        text = ", ".join(f"{k} {v:.6g}" for k, v in d["unscaled"].items())
        print(f"  unscaled: {text}; host speed sample mean {speed['sample_s_mean']:.4g} s over {speed['samples']}"
              f" samples (reference {calibrate.REFERENCE_SAMPLE_S[probe_kernel(d['workload'])]} s)")
    t = d["wall_s_tail"]
    tail_text = "none (needs 11 iterations)" if t is None else f"p{t['percentile']:.0f} = {t['value']:.6g} s"
    print(f"  unscaled wall_s tail: {tail_text}; iterations: {d['iterations']}")
    print(
        f"  failed_frac: {d['failed_frac']:.4f} ({r['attempted'] - d['solved']} of {r['attempted']} items not solved;"
        f" {r['failed']} wrong, {d['known_failures']} failing as at the seed commit)"
    )
    if d["shares_of_traced_wall_s"]:
        text = ", ".join(f"{k} {v:.1%}" for k, v in d["shares_of_traced_wall_s"].items())
        print(f"  share of traced wall_s: {text}")
    for note in d["notes"][:10]:
        print(f"  note: {note}")
    print(f"  provenance: {json.dumps(d['provenance'], sort_keys=True)}")


def run_all(args):
    """Each workload in its own process; one row per workload."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"perfbench: {name} exited with {proc.returncode}: {proc.stderr.strip()}")
        with open(os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}", "result.json")) as fh:
            d = json.load(fh)
        rows.append(d)
        r = d["result"]
        combined["correct"] &= r["correct"]
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        for key, m in r["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    keys = list(rows[0]["result"]["metrics"])
    if args.trace == 0:
        header = ["workload", "iters"] + [f"{k} [{rows[0]['result']['metrics'][k]['unit']}]" for k in keys]
        header += ["failed_frac", "wall_s tail", "correct"]
        print("  ".join(f"{h:>18}" for h in header))
        for d in rows:
            m = d["result"]["metrics"]
            t = d["wall_s_tail"]
            cells = [d["workload"], str(d["iterations"])] + [f"{m[k]['value']:.6g}" for k in keys]
            cells += [f"{d['failed_frac']:.4f}", "none" if t is None else f"p{t['percentile']:.0f}={t['value']:.4g}",
                      str(d["result"]["correct"])]
            print("  ".join(f"{c:>18}" for c in cells))
    else:
        print(f"{'metric':<48}" + "".join(f"{d['workload']:>14}" for d in rows))
        for k in keys:
            print(f"{k:<48}" + "".join(f"{d['result']['metrics'][k]['value']:>14.6g}" for d in rows))
    print(f"provenance: {json.dumps(rows[0]['provenance'], sort_keys=True)}")
    print("BLAS threads: " + ", ".join(f"{d['workload']} {d['provenance']['blas_threads']}" for d in rows))
    return combined


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        wl.import_library(ROOT)
        wl.make_inputs(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    result = run_all(args) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
