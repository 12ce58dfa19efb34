"""Coupling graphs and classical ground orders for a seven-ion chain at the
two reference detunings on either side of the aligned/kink order change."""

import argparse
import json
import os

from ionspins.couplings import bond_graph, coupling_from_trap
from ionspins.spins import classical_ground


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=7)
    parser.add_argument("--beta", type=float, default=10.0)
    parser.add_argument("--detunings", default="5.1,5.3")
    parser.add_argument("--out", default="out_bond_graphs")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    for mu in (float(x) for x in args.detunings.split(",")):
        coupling = coupling_from_trap(args.n, args.beta, mu)
        ground = classical_ground(coupling)
        doc = {
            "n_ions": args.n,
            "beta": args.beta,
            "mu_tilde": mu,
            "jbar": coupling.jbar,
            "ground_order": ground.order.bits,
            "degeneracy": ground.order.degeneracy,
            "ground_energy": ground.energy,
            "edges": [
                {"m": e.m, "n": e.n, "j": e.j, "sign": e.sign}
                for e in bond_graph(coupling)
            ],
        }
        path = os.path.join(args.out, f"bonds_mu{mu:g}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"{path}: order {ground.order.bits} (x{ground.order.degeneracy}), "
              f"strongest edge ({doc['edges'][0]['m']},{doc['edges'][0]['n']}) {doc['edges'][0]['sign']}")


if __name__ == "__main__":
    main()
