"""Seeded input batches for the four benchmark workloads.

A workload is a fixed batch of decisions.  Each decision is one
``homind.cli.main(argv)`` call on two graph files that this module
generates from the workload seed; the program sees only those files and,
in randomized mode, a CLI ``--seed`` derived from the workload seed.

Random graphs on 6 or more vertices are drawn until colour refinement
gives every vertex its own colour.  Such graphs have no automorphisms,
so the closure of an isomorphic pair has the same dimension (n^k)
whatever the seed, and the cost of a batch varies little from seed to
seed.  Rewired graphs keep the degree sequence, so the brute-force small
stage at arity 2 cannot reject them, and are redrawn until the exact
oracle separates them from the original.
"""

import random
from dataclasses import dataclass
from itertools import combinations

TW_PRIME = 2**31 - 1
MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset  # of (u, v) with u < v

    def text(self):
        lines = [f"n {self.n} m {len(self.edges)}"]
        lines += [f"{u} {v}" for u, v in sorted(self.edges)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Pair:
    """One decision: a subcommand with its flags, and the two graphs.

    ``oracle`` names the exact check the verdict is compared with (see
    oracles.py): ``wl:<k>`` (k-WL), ``paths`` (walk counts), ``paths-mod``
    (walk counts that differ mod the decision's prime) or ``iso`` (the
    graphs are isomorphic).
    """

    label: str
    flags: tuple
    g: Graph
    h: Graph
    oracle: str
    randomized: bool = False


def _graph(n, edges):
    return Graph(n, frozenset((u, v) if u < v else (v, u) for u, v in edges))


def gnp(rng, n):
    return _graph(n, [(u, v) for u, v in combinations(range(n), 2)
                      if rng.random() < 0.5])


def cycle(n, offset=0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


def permuted(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return _graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _neighbours(g):
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def colour_classes(g):
    """Number of colour classes after colour refinement (1-WL) of g."""
    adj = _neighbours(g)
    colours = [0] * g.n
    while True:
        sigs = [(colours[v], tuple(sorted(colours[w] for w in adj[v])))
                for v in range(g.n)]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        refined = [palette[s] for s in sigs]
        if len(palette) == len(set(colours)):
            return len(palette)
        colours = refined


def rigid(g):
    """Colour refinement is discrete (no graph below 6 vertices has that,
    so smaller graphs pass unconditionally)."""
    return g.n < 6 or colour_classes(g) == g.n


def rigid_gnp(rng, n):
    """G(n, 1/2) conditioned on `rigid`, with at least two edges."""
    while True:
        g = gnp(rng, n)
        if len(g.edges) >= 2 and rigid(g):
            return g


def rewired(rng, g, separated, attempts=300):
    """A degree-preserving double-edge swap of g that ``separated(g, h)``
    accepts, or None if `attempts` draws found none.  From 7 vertices on
    the rewiring is rigid too (on 6, no rigid rewiring of a rigid graph
    turned up in 20 tries)."""
    for _ in range(attempts):
        h = g
        for _ in range(rng.randrange(1, 4)):
            (a, b), (c, d) = rng.sample(sorted(h.edges), 2)
            if rng.random() < 0.5:
                c, d = d, c
            new1, new2 = tuple(sorted((a, d))), tuple(sorted((c, b)))
            if len({a, b, c, d}) < 4 or new1 in h.edges or new2 in h.edges:
                continue
            h = Graph(g.n, (h.edges - {(a, b), tuple(sorted((c, d)))})
                      | {new1, new2})
        if h.edges == g.edges:
            continue
        if (h.n < 7 or rigid(h)) and separated(g, h):
            return h
    return None


def separated_pair(rng, n, separated):
    """A rigid G(n, 1/2) graph and a rewiring of it that `separated`
    accepts; graphs without one are redrawn."""
    while True:
        g = rigid_gnp(rng, n)
        h = rewired(rng, g, separated)
        if h is not None:
            return g, h


def cli_seed(seed, index):
    """The randomized-mode --seed of decision `index` (splitmix64 mix)."""
    z = (seed * 0x9E3779B97F4A7C15 + index + 1) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


# Sizes: full runs and the smoke size the benchmark's own tests use.
SIZES = {
    "full": {
        "tw2_n": 10, "tw3_n": 6, "cycle": 4,
        "crt_n": 6, "crt_rewire_n": 7, "crt_cycle": 4,
        "las1_n": 7, "las2_n": 4,
        "rnd_tw": (4, 50), "rnd_las": (4, 20), "rnd_pw": (6, 30),
        "rnd_rewire_n": 6,
    },
    "smoke": {
        "tw2_n": 6, "tw3_n": 5, "cycle": 3,
        "crt_n": 4, "crt_rewire_n": 5, "crt_cycle": 3,
        "las1_n": 5, "las2_n": 3,
        "rnd_tw": (5, 1), "rnd_las": (4, 1), "rnd_pw": (6, 1),
        "rnd_rewire_n": 6,
    },
}


def tw_closure(rng, size, oracles):
    s = SIZES[size]
    tw = lambda k: ("modhomind", "--builtin", "tw-all", "--k", str(k),
                    "--prime", str(TW_PRIME))
    n2, n3, c = s["tw2_n"], s["tw3_n"], s["cycle"]
    g = rigid_gnp(rng, n2)
    r, rr = separated_pair(rng, n2, lambda a, b: not oracles.wl(a, b, 1))
    g3 = rigid_gnp(rng, n3)
    one = _graph(2 * c, cycle(2 * c))
    two = _graph(2 * c, cycle(c) + cycle(c, c))
    # A rewired pair at k=3 must keep the triangle count, or the small
    # stage rejects it before any closure runs; such a pair costs 6-8 s
    # alone at n=6, so the k=3 closure reject comes from the cycle pair.
    return [
        Pair(f"tw k=2 n={n2} permuted", tw(2), g, permuted(rng, g), "wl:1"),
        Pair(f"tw k=2 n={n2} rewired", tw(2), r, rr, "wl:1"),
        Pair(f"tw k=3 n={n3} permuted", tw(3), g3, permuted(rng, g3), "wl:2"),
        Pair(f"tw k=2 C{2 * c} vs 2C{c}", tw(2), permuted(rng, one),
             permuted(rng, two), "wl:1"),
        Pair(f"tw k=3 C{2 * c} vs 2C{c}", tw(3), permuted(rng, one),
             permuted(rng, two), "wl:2"),
    ]


def paths_crt(rng, size, oracles):
    s = SIZES[size]
    flags = ("pwhomind", "--builtin", "paths", "--mode", "deterministic",
             "--parallel", "1")
    g = rigid_gnp(rng, s["crt_n"])
    c = s["crt_cycle"]
    one = _graph(2 * c, cycle(2 * c))
    two = _graph(2 * c, cycle(c) + cycle(c, c))
    r, rr = separated_pair(rng, s["crt_rewire_n"],
                           lambda a, b: not oracles.paths(a, b))
    return [
        Pair(f"paths n={g.n} permuted", flags, g, permuted(rng, g), "paths"),
        Pair(f"paths C{2 * c} vs 2C{c}", flags, permuted(rng, one),
             permuted(rng, two), "paths"),
        Pair(f"paths n={r.n} rewired", flags, r, rr, "paths"),
    ]


def lasserre(rng, size, oracles):
    s = SIZES[size]
    level = lambda t: ("lasserre", "--t", str(t), "--mode", "single-prime",
                       "--prime", str(TW_PRIME), "--parallel", "1")
    g, h = separated_pair(rng, s["las1_n"],
                          lambda a, b: not oracles.paths(a, b, TW_PRIME))
    # At t=2 the closure dimension swings from 36 to 136 between graphs on
    # four vertices (0.4-8 s), so the structure is fixed, a star, and only
    # its labelling is drawn.
    star = _graph(s["las2_n"], [(0, i) for i in range(1, s["las2_n"])])
    return [
        Pair(f"lasserre t=1 n={g.n} permuted", level(1), g, permuted(rng, g),
             "iso"),
        Pair(f"lasserre t=1 n={g.n} rewired", level(1), g, h, "paths-mod"),
        Pair(f"lasserre t=2 star n={star.n} permuted", level(2),
             permuted(rng, star), permuted(rng, star), "iso"),
    ]


def certified_random(rng, size, oracles):
    """Many small randomized decisions.  Each decision keeps a Poisson
    number of primes (about 2.9 on average, whatever the graph size), and
    an accepting decision runs one closure per prime, so the cost of a
    few large decisions would swing with the seed; many small ones
    average that out."""
    s = SIZES[size]
    random_mode = ("--mode", "random", "--parallel", "1")
    tw = ("homind", "--builtin", "tw-all", "--k", "2", *random_mode)
    las = ("lasserre", "--t", "1", *random_mode)
    pw = ("pwhomind", "--builtin", "paths", *random_mode)
    pairs = []
    for flags, (n, count), name, oracle in (
            (tw, s["rnd_tw"], "tw", "wl:1"),
            (las, s["rnd_las"], "lasserre t=1", "iso"),
            (pw, s["rnd_pw"], "paths", "paths")):
        for i in range(count):
            g = rigid_gnp(rng, n)
            pairs.append(Pair(f"random {name} n={n} permuted #{i}", flags, g,
                              permuted(rng, g), oracle, True))
    n = s["rnd_rewire_n"]
    g, h = separated_pair(rng, n, lambda a, b: not oracles.wl(a, b, 1))
    pairs.append(Pair(f"random tw n={n} rewired", tw, g, h, "wl:1", True))
    return pairs


WORKLOADS = {
    "tw-closure": tw_closure,
    "paths-crt": paths_crt,
    "lasserre": lasserre,
    "certified-random": certified_random,
}


def make_batch(name, seed, size, oracles):
    """The workload's pairs, generated from `seed` alone."""
    rng = random.Random(f"{name}/{seed}")
    return WORKLOADS[name](rng, size, oracles)
