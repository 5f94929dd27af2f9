"""Deciders for homomorphism indistinguishability of finite graphs.

Two graphs G and H are homomorphism indistinguishable over a class of
graphs F when hom(F, G) = hom(F, H) for every F in F.  This package decides
that relation — exactly modulo a prime; over the integers exactly for
one-state treewidth classes, the Lasserre levels and every pair whose
integer partition certifies the accept, with one-sided randomized error
or deterministically by CRT over many small primes for the others — for

- recognisable classes of bounded treewidth or pathwidth, presented by
  finite automata over a labelled-graph algebra (``homind.engine``,
  ``homind.recognizer``),
- levels of the Lasserre hierarchy (``homind.lasserre``),

and ships the surrounding toolkit: exact brute-force oracles that audit
every verdict at small scale (``homind.oracle``), Weisfeiler-Leman
refinement and CFI constructions (``homind.wl``), the labelled-graph
algebra itself (``homind.labelled``), and modular/number-theoretic
utilities (``homind.modular``).
"""

from .graphs import (
    Graph,
    GraphFormatError,
    OracleBudgetExceeded,
    categorical_product,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    hom_count,
    is_isomorphic_small,
    parse_graph,
    path_graph,
    serialize_graph,
    star_graph,
    walk_counts,
)

__all__ = [
    "Graph",
    "GraphFormatError",
    "OracleBudgetExceeded",
    "categorical_product",
    "complete_graph",
    "cycle_graph",
    "disjoint_union",
    "empty_graph",
    "hom_count",
    "is_isomorphic_small",
    "parse_graph",
    "path_graph",
    "serialize_graph",
    "star_graph",
    "walk_counts",
]

__version__ = "0.1.0"
