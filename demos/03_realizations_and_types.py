"""What the graphs prove depends on how measurements realize them.

Commuting operators need not correspond to jointly performable
measurements; comeasurability is declared per realization.  Counting the
lines that fail to be comeasurable sorts arguments into types I, II and
III, and a small uniqueness lemma controls the escape route of realizing
a whole line by functions of one measurement.
"""

from kscheck import (
    build_graph,
    classify_type,
    collapse_edge,
    lemma_check,
    lemma_pivots,
)
from kscheck.catalog import (
    PM_COLUMN_3,
    ghz_graph,
    ghz_standard_realization,
    peres_mermin_graph,
    pm_full_realization,
    pm_hyperedge_realization,
    pm_spin_realization,
)
from kscheck.realization import commuting_realization


def main():
    pm = peres_mermin_graph()
    ghz = ghz_graph()

    print("argument types by realization:")
    for name, graph, realization in (
        ("square, all lines comeasurable", pm, pm_full_realization()),
        ("square, paired spin analyzers ", pm, pm_spin_realization()),
        ("pentagram, spacelike parties  ", ghz, ghz_standard_realization()),
    ):
        kind = classify_type(graph, realization)
        flagged = [
            "{" + ",".join(graph.edge_labels(e)) + "}" for e in kind.non_comeasurable_edges
        ]
        print(f"  {name}: type {kind.kind}  failing lines: {flagged or 'none'}")

    print("\ncollapsing the third column onto one shared measurement:")
    result = collapse_edge(pm, pm_spin_realization(), PM_COLUMN_3)
    gained = [pm.labels[v] for v in result.multi_associated]
    print(f"  fresh measurement {result.label!r}; vertices now doubly realized: {gained}")
    print(f"  new type: {classify_type(pm, result.realization).kind} (one repair done, one line left)")

    print("\nthe six-measurement form (every line collapsed):")
    check = lemma_check(pm, pm_hyperedge_realization())
    print(f"  line-based: {check.hyperedge_based}, all lines comeasurable: "
          f"{check.all_edges_comeasurable}, unique: {check.unique}")
    print(f"  implication 'line-based & comeasurable => non-unique' holds: {check.holds}")

    print("\nthe lemma on the whole square: a pivot for every line")
    print("  (another line through one of its vertices, not commuting with it as a whole)")
    for e, pivot in enumerate(lemma_pivots(pm)):
        v, other = pivot
        print(f"  {{{','.join(pm.edge_labels(e))}}}: at {pm.labels[v]} "
              f"against {{{','.join(pm.edge_labels(other))}}}")

    print("\na lone line has no pivot, so the lemma's singleton reading fails there:")
    line = build_graph([("a", "ZI"), ("b", "IZ"), ("c", "ZZ")], [(0, 1, 2)])
    print(f"  pivots: {lemma_pivots(line)}")
    # collapse the line alone: here it holds every vertex, so one measurement realizes all
    shared = commuting_realization(line, [{"m"}] * 3)
    check = lemma_check(line, shared)
    print(f"  one shared measurement: antecedent {check.antecedent}, "
          f"singly associated {check.singly_associated}, holds_strict {check.holds_strict}")


if __name__ == "__main__":
    main()
