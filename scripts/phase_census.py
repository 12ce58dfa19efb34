"""Zero-field phase census: spin orders tiling every inter-mode interval for a
list of chain sizes, with the even/odd-interval symmetry summary."""

import argparse
import os
from dataclasses import asdict

from ionspins import fileio
from ionspins.cli import exit_code
from ionspins.phases import even_odd_symmetry_report, phase_table


def census(args):
    os.makedirs(args.out, exist_ok=True)
    for n in (int(x) for x in args.n_list.split(",")):
        table = phase_table(n, args.beta, samples_per_interval=args.samples)
        reports = even_odd_symmetry_report(table)
        payload = {
            **table.to_dict(),
            "transition_count": table.transition_count,
            "interval_reports": [asdict(r) for r in reports],
        }
        path = os.path.join(args.out, f"phases_n{n}.json")
        fileio.write_json(path, payload, vars(args))
        flagged = [r.lower_mode for r in reports if r.flagged]
        print(f"{path}: {table.transition_count} transitions; flagged intervals: {flagged or 'none'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-list", default="3,5,7,9")
    parser.add_argument("--beta", type=float, default=10.0)
    parser.add_argument("--samples", type=int, default=1024)
    parser.add_argument("--out", default="out_phase_census")
    return exit_code(parser.prog, census, parser.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
