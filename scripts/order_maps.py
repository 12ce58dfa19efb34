"""Order-parameter and polarization maps over the (detuning, field) plane
around the aligned/kink transition of an odd chain."""

import argparse

from ionspins.cli import exit_code, run_command
from ionspins.phases import fm_kink_interval


def order_map(args):
    t, left, right = fm_kink_interval(args.n, args.beta)
    lo = 0.5 * (left.lo + left.hi)
    hi = 0.5 * (right.lo + right.hi)
    run_command(
        [
            "scan2d",
            "--n", str(args.n),
            "--beta", str(args.beta),
            "--mu-range", f"{lo}:{hi}",
            "--b-range", f"0:{args.b_max}",
            "--samples", args.samples,
            "--out", args.out,
        ]
    )
    print(f"{args.out}/scan2d.csv: map around the transition at mu~={t.mu_tilde:.5f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5)
    parser.add_argument("--beta", type=float, default=10.0)
    parser.add_argument("--b-max", type=float, default=1.5, help="field ceiling in Jbar units")
    parser.add_argument("--samples", default="96x48")
    parser.add_argument("--out", default="out_order_map")
    return exit_code(parser.prog, order_map, parser.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
