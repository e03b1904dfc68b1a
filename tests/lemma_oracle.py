"""The exhaustive lemma sweep that the tests check ``lemma_pivots`` against.

``realization.lemma_pivots`` decides the uniqueness lemma on the graph, one
pivot scan per edge.  This module counts the lemma's counterexamples the
slow way: it enumerates every collapse pattern of the edges, with optional
private measurements, builds the induced commuting comeasurability, and
tests each edge by a product over per-vertex measurement choices.  It is
sized for Peres-Mermin-scale graphs, and ``pool_limit`` and
``assoc_limit`` bound the realizations it visits.  pytest does not collect
this file; test modules import it by name.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from kscheck.errors import CapExceededError
from kscheck.graph import KSGraph
from kscheck.pauli import all_commute, commutation_masks

SWEEP_POOL_LIMIT = 12
SWEEP_ASSOC_LIMIT = 2


class SweepReport(NamedTuple):
    n_realizations: int
    n_hyperedge_based: int
    n_antecedent: int
    n_antecedent_and_unique: int
    n_antecedent_and_singly_associated: int
    collapse_patterns: int
    pool_limit: int
    assoc_limit: int

    @property
    def lemma_confirmed(self) -> bool:
        return (
            self.n_antecedent_and_unique == 0
            and self.n_antecedent_and_singly_associated == 0
        )


def enumerate_lemma_sweep(
    graph: KSGraph,
    pool_limit: int = SWEEP_POOL_LIMIT,
    assoc_limit: int = SWEEP_ASSOC_LIMIT,
) -> SweepReport:
    """Exhaust collapse-structured realizations with comeasurable set equal
    to commuting, and count Lemma counterexamples (there must be none).

    The domain: choose a subset of edges to collapse onto fresh shared
    measurements; vertices on no collapsed edge get a private measurement;
    vertices on exactly one collapsed edge optionally keep a private
    measurement as well (association size stays within ``assoc_limit``).
    Realizations needing more than ``pool_limit`` distinct measurements are
    skipped.  Comeasurability is induced: a measurement set is comeasurable
    iff the union of realized vertices is mutually commuting.
    """
    n = graph.n_vertices
    edges = graph.hyperedges
    if n > 12 or len(edges) > 10:
        raise CapExceededError("lemma sweep is sized for PM-scale graphs")

    masks = commutation_masks(graph.operators)
    edge_masks = [sum(1 << v for v in edge) for edge in edges]

    n_realizations = 0
    n_based = 0
    n_antecedent = 0
    n_antecedent_unique = 0
    n_antecedent_singly = 0
    patterns = 0

    for pattern in range(1 << len(edges)):
        collapsed = [e for e in range(len(edges)) if pattern >> e & 1]
        patterns += 1
        cover = [0] * n
        for e in collapsed:
            for v in edges[e]:
                cover[v] += 1
        if any(c > assoc_limit for c in cover):
            continue
        # vertices free to carry an extra private measurement
        optional = [v for v in range(n) if cover[v] == 1] if assoc_limit >= 2 else []
        forced_private = [v for v in range(n) if cover[v] == 0]

        for extras in range(1 << len(optional)):
            private = set(forced_private)
            private.update(
                optional[k] for k in range(len(optional)) if extras >> k & 1
            )
            pool = len(collapsed) + len(private)
            if pool > pool_limit:
                continue
            n_realizations += 1

            # measurement -> realized vertex mask
            meas_masks = [edge_masks[e] for e in collapsed] + [
                1 << v for v in sorted(private)
            ]
            # per-vertex options as indices into meas_masks
            options: list[list[int]] = [[] for _ in range(n)]
            for m_idx, e in enumerate(collapsed):
                for v in edges[e]:
                    options[v].append(m_idx)
            for k, v in enumerate(sorted(private)):
                options[v].append(len(collapsed) + k)

            based = bool(collapsed)
            if based:
                n_based += 1

            all_comeasurable = True
            for e_idx, edge in enumerate(edges):
                edge_ok = False
                for selection in product(*(options[v] for v in edge)):
                    union = 0
                    for m_idx in set(selection):
                        union |= meas_masks[m_idx]
                    if all_commute(masks, union):
                        edge_ok = True
                        break
                if not edge_ok:
                    all_comeasurable = False
                    break

            if based and all_comeasurable:
                n_antecedent += 1
                singly = all(len(o) == 1 for o in options)
                if singly:
                    n_antecedent_singly += 1
                    used = [o[0] for o in options]
                    if len(set(used)) == n:
                        n_antecedent_unique += 1

    return SweepReport(
        n_realizations=n_realizations,
        n_hyperedge_based=n_based,
        n_antecedent=n_antecedent,
        n_antecedent_and_unique=n_antecedent_unique,
        n_antecedent_and_singly_associated=n_antecedent_singly,
        collapse_patterns=patterns,
        pool_limit=pool_limit,
        assoc_limit=assoc_limit,
    )
