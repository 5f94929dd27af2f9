"""Exact verdicts the benchmark checks every decision against.

- tw-all at arity k decides the graphs of treewidth below k, which
  cannot be told apart exactly when (k-1)-WL cannot (Dvorak 2010;
  Dell, Grohe and Rattan, ICALP 2018): ``wl.wl_refine(G, H, k - 1)``.
- The ``paths`` recogniser decides all paths, whose hom counts are walk
  counts: ``oracle.paths_oracle``.
- Lasserre at level t accepts every isomorphic pair, and paths are
  members of its level-1 class, so a pair whose walk counts differ mod p
  must be rejected mod p.

These run outside every timed region.
"""


class Oracles:
    def __init__(self):
        from homind import graphs, oracle, wl

        self._graph = graphs.Graph.from_edges
        self._paths = oracle.paths_oracle
        self._wl = wl.wl_refine

    def _convert(self, g):
        return self._graph(g.n, sorted(g.edges))

    def wl(self, g, h, k):
        return self._wl(self._convert(g), self._convert(h), k)

    def paths(self, g, h, modulus=None):
        return self._paths(self._convert(g), self._convert(h), modulus=modulus)

    def expected(self, pair, prime=None):
        """The exact verdict for `pair`: True (accept) or False (reject).

        ``prime`` is the modulus of a single-prime decision; the
        ``paths-mod`` check needs it.
        """
        kind = pair.oracle
        if kind == "iso":
            return True
        if kind == "paths":
            return self.paths(pair.g, pair.h)
        if kind == "paths-mod":
            if self.paths(pair.g, pair.h, prime):
                raise ValueError(f"{pair.label}: no exact verdict, walk counts "
                                 f"agree mod {prime}")
            return False
        if kind.startswith("wl:"):
            return self.wl(pair.g, pair.h, int(kind[3:]))
        raise ValueError(f"unknown oracle {kind!r}")
