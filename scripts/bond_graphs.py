"""Coupling graphs and classical ground orders for a seven-ion chain at the
two reference detunings on either side of the aligned/kink order change.

Each detuning runs ``ionspins couplings`` into OUT/mu{mu}."""

import argparse
import os

from ionspins.cli import exit_code, run_command
from ionspins.couplings import bond_graph
from ionspins.spins import classical_ground


def bond_graphs(args):
    for mu in args.detunings.split(","):
        out = os.path.join(args.out, f"mu{float(mu):g}")
        coupling = run_command(
            ["couplings", "--n", str(args.n), "--beta", str(args.beta), "--mu-tilde", mu, "--out", out]
        )
        ground = classical_ground(coupling)
        strongest = bond_graph(coupling)[0]
        print(f"{out}: order {ground.order.bits} (x{ground.order.degeneracy}), E0 {ground.energy:.6g}, "
              f"strongest edge ({strongest.m},{strongest.n}) {strongest.sign}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=7)
    parser.add_argument("--beta", type=float, default=10.0)
    parser.add_argument("--detunings", default="5.1,5.3")
    parser.add_argument("--out", default="out_bond_graphs")
    return exit_code(parser.prog, bond_graphs, parser.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
