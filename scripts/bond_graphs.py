"""Coupling graphs and classical ground orders for a seven-ion chain at the
two reference detunings on either side of the aligned/kink order change."""

import argparse
import os
from dataclasses import asdict

from ionspins import fileio
from ionspins.cli import exit_code
from ionspins.couplings import bond_graph, coupling_from_trap
from ionspins.spins import classical_ground


def bond_graphs(args):
    os.makedirs(args.out, exist_ok=True)
    for mu in (float(x) for x in args.detunings.split(",")):
        coupling = coupling_from_trap(args.n, args.beta, mu)
        ground = classical_ground(coupling)
        edges = bond_graph(coupling)
        path = os.path.join(args.out, f"bonds_mu{mu:g}.json")
        fileio.write_json(path, {
            "n_ions": args.n,
            "beta": args.beta,
            "mu_tilde": mu,
            "jbar": coupling.jbar,
            "ground_order": ground.order.bits,
            "degeneracy": ground.order.degeneracy,
            "ground_energy": ground.energy,
            "edges": [asdict(e) for e in edges],
        }, vars(args))
        print(f"{path}: order {ground.order.bits} (x{ground.order.degeneracy}), "
              f"strongest edge ({edges[0].m},{edges[0].n}) {edges[0].sign}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=7)
    parser.add_argument("--beta", type=float, default=10.0)
    parser.add_argument("--detunings", default="5.1,5.3")
    parser.add_argument("--out", default="out_bond_graphs")
    return exit_code(parser.prog, bond_graphs, parser.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
