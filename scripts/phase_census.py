"""Zero-field phase census: spin orders tiling every inter-mode interval for a
list of chain sizes, with the even/odd-interval symmetry summary.

Each N runs ``ionspins phase-table`` into OUT/n{N}."""

import argparse
import os

from ionspins.cli import exit_code, run_command
from ionspins.phases import even_odd_symmetry_report


def census(args):
    for n in (int(x) for x in args.n_list.split(",")):
        out = os.path.join(args.out, f"n{n}")
        table = run_command([
            "phase-table", "--n", str(n), "--beta", str(args.beta), "--samples", str(args.samples),
            "--out", out,
        ])
        flagged = [r.lower_mode for r in even_odd_symmetry_report(table) if r.flagged]
        print(f"{out}: {table.transition_count} transitions; flagged intervals: {flagged or 'none'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-list", default="3,5,7,9")
    parser.add_argument("--beta", type=float, default=10.0)
    parser.add_argument("--samples", type=int, default=1024)
    parser.add_argument("--out", default="out_phase_census")
    return exit_code(parser.prog, census, parser.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
