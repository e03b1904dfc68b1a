"""Where the product rule comes from: Born-rule supports.

The constraint on value assignments is not decreed, it is inherited from
quantum probabilities: for each line, the joint projection of an outcome
tuple is the zero operator unless the tuple's product matches the line's
sign.  That is a state-independent operator identity, checked here in
exact arithmetic.
"""

from itertools import product

from kscheck import (
    born_probability,
    common_eigenbasis,
    is_operational_eigenstate,
    joint_born_probability,
    support_table,
)
from kscheck.catalog import peres_mermin_graph, pm_states
from kscheck.state import DensityOperator


def main():
    graph = peres_mermin_graph()
    mixed = DensityOperator.maximally_mixed(4)

    print("single-observable probabilities in the maximally mixed state:")
    for label, op in graph.vertices[:3]:
        p = born_probability(mixed, op, +1)
        print(f"  p({label} = +1) = {p}")

    print("\nthird-column joint probabilities (operators ZZ, XX, YY):")
    ops = graph.edge_operators(5)
    for combo in product((1, -1), repeat=3):
        p = joint_born_probability(mixed, ops, combo)
        marker = "allowed" if p else "forbidden"
        print(f"  outcomes {combo}: {p}  ({marker})")

    print("\nthe same verdict at the operator level, no state involved:")
    table = support_table(graph)
    for e in range(6):
        members = ",".join(graph.edge_labels(e))
        print(f"  edge {{{members}}}: {len(table.tuples_for(e))} of 8 tuples survive")

    print("\neach line's admissible tuples label its common eigenstates:")
    basis = common_eigenbasis(graph.edge_operators(0))
    for vector, outcomes in basis:
        amplitudes = ", ".join(f"{a:.2f}" for a in vector)
        print(f"  eigenvalues {outcomes}: [{amplitudes}]")

    print("\npreparing |00> makes the first row outcome-certain:")
    z00 = pm_states()["z00"]
    print("  operational eigenstate of row 1:",
          is_operational_eigenstate(z00, graph.edge_operators(0)))
    rank1 = sum(1 for _, outcomes in basis if outcomes == (1, 1, 1))
    print("  rank of the (+1,+1,+1) joint projection:", rank1)


if __name__ == "__main__":
    main()
