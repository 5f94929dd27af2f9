"""Finite-state recognisers for classes of k-labelled graphs.

A class of graphs F is recognisable at arity k when the equivalence
"F ~ F' iff for every k-labelled context K, soe(K * F) is in the class
exactly when soe(K * F') is" has finitely many classes on k-labelled
graphs (* is gluing at the labels, soe drops labels).  Each class then
behaves like a state of a deterministic automaton: gluing two graphs,
adding an edge between the vertices carrying labels i and j, or moving
label i to a fresh vertex all act on classes, not just on graphs.  The
subspace-closure decision procedure consumes exactly these tables:

  * ``glue_table`` -- symmetric action of gluing on pairs of states,
  * ``a_table``    -- action of the edge operation A^{ij},
  * ``j_table``    -- action of the fresh-vertex operation J^i,
  * ``start``      -- the state of the all-ones graph (k isolated
    labelled vertices),
  * ``accepting``  -- the states whose graphs lie in the class.

Because a k-labelled graph has at least ... well, a graph on fewer than
k vertices cannot carry k distinct labels, membership of graphs on at
most k vertices is not expressible through the state tables; the
``small_members`` policy ("all", "none", or an explicit list) records it
separately so the decision procedure can brute-force that finite stage.

This module provides the automaton type, a line-oriented text format,
two builtin recognisers (all graphs; paths), a validation harness that
hunts for context counterexamples against a membership oracle, and an
experimental learner that partitions labelled graphs by their context
verdict vectors and reads the tables off class representatives.  The
learner is heuristic — its output must always be passed through
``validate_automaton`` (and, ideally, an independent end-to-end oracle)
before being trusted.
"""

from dataclasses import dataclass
from importlib import resources
from itertools import combinations, permutations

from .graphs import (
    Graph,
    GraphFormatError,
    _tokenize_with_lines,
    is_isomorphic_small,
    parse_graph_tokens,
    serialize_graph,
)
from .labelled import (
    ArityMismatch,
    LabelledGraph,
    LabelledSet,
    TApplyA,
    TApplyJ,
    TGlue,
    TOne,
    enumerate_tw,
    format_term,
    glue,
    labelled_isomorphic,
    one_labelled,
    soe,
    val_apply_a,
    val_apply_j,
)
from .modular import Xoshiro256StarStar


class AutomatonFormatError(ValueError):
    """Raised for malformed or inconsistent automaton descriptions."""


class LearnerError(RuntimeError):
    """Raised when the experimental learner cannot produce a consistent
    automaton (unstable context partition, oversized representative, or a
    transition inconsistency)."""


@dataclass(frozen=True)
class Automaton:
    """Recogniser tables for a class of k-labelled graphs.

    ``glue_table`` is keyed by ordered pairs (q1, q2) with q1 <= q2;
    use :meth:`glue_state` for arbitrary order.  ``j_table`` is keyed by
    (i, q) with 1-based label i, ``a_table`` by (i, j, q) with i < j.
    ``small_members`` is "all", "none", or a tuple of graphs on at most
    k vertices.
    """

    k: int
    states: int
    start: int
    accepting: frozenset
    glue_table: dict
    j_table: dict
    a_table: dict
    small_members: object

    def __post_init__(self):
        _check_tables(self)

    def glue_state(self, q1, q2):
        return self.glue_table[(q1, q2) if q1 <= q2 else (q2, q1)]

    def j_state(self, i, q):
        return self.j_table[(i, q)]

    def a_state(self, i, j, q):
        return self.a_table[(i, j, q)]


def _check_tables(aut):
    """Totality and range validation shared by every construction path."""
    if aut.k < 1:
        raise AutomatonFormatError("arity k must be >= 1")
    if aut.states < 1:
        raise AutomatonFormatError("state count must be >= 1")

    def chk(q, what):
        if not (0 <= q < aut.states):
            raise AutomatonFormatError(
                f"{what}: state id {q} out of range 0..{aut.states - 1}"
            )

    chk(aut.start, "start")
    for q in aut.accepting:
        chk(q, "accept")
    for q1 in range(aut.states):
        for q2 in range(q1, aut.states):
            if (q1, q2) not in aut.glue_table:
                raise AutomatonFormatError(
                    f"incomplete glue_table: missing glue {q1} {q2}"
                )
    for i in range(1, aut.k + 1):
        for q in range(aut.states):
            if (i, q) not in aut.j_table:
                raise AutomatonFormatError(f"incomplete j_table: missing J {i} {q}")
    for i, j in combinations(range(1, aut.k + 1), 2):
        for q in range(aut.states):
            if (i, j, q) not in aut.a_table:
                raise AutomatonFormatError(
                    f"incomplete a_table: missing A {i} {j} {q}"
                )
    for key, tgt in aut.glue_table.items():
        q1, q2 = key
        if q1 > q2:
            raise AutomatonFormatError(f"glue_table key {key} not normalized")
        chk(q1, "glue"), chk(q2, "glue"), chk(tgt, "glue target")
    for (i, q), tgt in aut.j_table.items():
        if not (1 <= i <= aut.k):
            raise AutomatonFormatError(f"J label index {i} out of range 1..{aut.k}")
        chk(q, "J"), chk(tgt, "J target")
    for (i, j, q), tgt in aut.a_table.items():
        if not (1 <= i < j <= aut.k):
            raise AutomatonFormatError(
                f"A label pair ({i},{j}) not 1-based increasing within arity {aut.k}"
            )
        chk(q, "A"), chk(tgt, "A target")
    sm = aut.small_members
    if sm not in ("all", "none"):
        if not isinstance(sm, tuple):
            raise AutomatonFormatError(
                "small_members must be 'all', 'none', or a tuple of graphs"
            )
        for g in sm:
            if g.n > aut.k:
                raise AutomatonFormatError(
                    f"small-list graph on {g.n} vertices exceeds arity {aut.k}"
                )


# === Text format ===


def parse_automaton(text):
    """Parse the automaton file format.  Accepts str or bytes.

    Layout: header lines ``k``, ``states``, ``start``, ``accept`` in that
    order; then ``glue``/``J``/``A`` transition lines in any order; then a
    ``small all|none|list`` footer, with inline graph blocks after
    ``small list``.  '#' starts a comment.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    toks = _tokenize_with_lines(text)
    lines = []
    for tok, ln in toks:
        if lines and lines[-1][0] == ln:
            lines[-1][1].append(tok)
        else:
            lines.append((ln, [tok]))

    pos = 0

    def next_line(expected):
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise AutomatonFormatError(
                f"line {last}: unexpected end of input, expected {expected}"
            )
        ln, parts = lines[pos]
        pos += 1
        return ln, parts

    def as_int(tok, ln, what):
        try:
            return int(tok)
        except ValueError:
            raise AutomatonFormatError(
                f"line {ln}: expected {what}, got {tok!r}"
            ) from None

    def header(name, what):
        ln, parts = next_line(f"'{name}' line")
        if parts[0] != name:
            raise AutomatonFormatError(
                f"line {ln}: expected '{name}', got {parts[0]!r}"
            )
        if name == "accept":
            return ln, [as_int(t, ln, what) for t in parts[1:]]
        if len(parts) != 2:
            raise AutomatonFormatError(f"line {ln}: '{name}' takes exactly one value")
        return ln, as_int(parts[1], ln, what)

    ln, k = header("k", "arity")
    if k < 1:
        raise AutomatonFormatError(f"line {ln}: arity k must be >= 1, got {k}")
    ln, states = header("states", "state count")
    if states < 1:
        raise AutomatonFormatError(f"line {ln}: state count must be >= 1, got {states}")

    def chk_state(q, ln):
        if not (0 <= q < states):
            raise AutomatonFormatError(
                f"line {ln}: state id {q} out of range 0..{states - 1}"
            )
        return q

    ln, start = header("start", "start state")
    chk_state(start, ln)
    ln, accept_ids = header("accept", "accepting state id")
    for q in accept_ids:
        chk_state(q, ln)

    glue_raw = {}  # ordered (q1, q2) -> target, for asymmetry reporting
    j_table = {}
    a_table = {}
    small = None

    def arrow(parts, idx, ln):
        if idx >= len(parts) or parts[idx] != "->":
            got = parts[idx] if idx < len(parts) else "end of line"
            raise AutomatonFormatError(f"line {ln}: expected '->', got {got!r}")

    while True:
        ln, parts = next_line("transition or 'small' policy line")
        kw = parts[0]
        if kw == "small":
            if len(parts) != 2 or parts[1] not in ("all", "none", "list"):
                raise AutomatonFormatError(
                    f"line {ln}: expected 'small all|none|list'"
                )
            small = parts[1]
            break
        if kw == "glue":
            if len(parts) != 5:
                raise AutomatonFormatError(
                    f"line {ln}: expected 'glue <q1> <q2> -> <q>'"
                )
            arrow(parts, 3, ln)
            q1 = chk_state(as_int(parts[1], ln, "state id"), ln)
            q2 = chk_state(as_int(parts[2], ln, "state id"), ln)
            tgt = chk_state(as_int(parts[4], ln, "state id"), ln)
            if (q1, q2) in glue_raw and glue_raw[(q1, q2)] != tgt:
                raise AutomatonFormatError(
                    f"line {ln}: conflicting duplicate glue {q1} {q2} -> {tgt} "
                    f"(earlier target {glue_raw[(q1, q2)]})"
                )
            if (q2, q1) in glue_raw and glue_raw[(q2, q1)] != tgt:
                raise AutomatonFormatError(
                    f"line {ln}: asymmetric glue entry: glue {q1} {q2} -> {tgt} "
                    f"conflicts with glue {q2} {q1} -> {glue_raw[(q2, q1)]}"
                )
            glue_raw[(q1, q2)] = tgt
        elif kw == "J":
            if len(parts) != 5:
                raise AutomatonFormatError(f"line {ln}: expected 'J <i> <q> -> <q>'")
            arrow(parts, 3, ln)
            i = as_int(parts[1], ln, "label index")
            if not (1 <= i <= k):
                raise AutomatonFormatError(
                    f"line {ln}: label index {i} out of range 1..{k}"
                )
            q = chk_state(as_int(parts[2], ln, "state id"), ln)
            tgt = chk_state(as_int(parts[4], ln, "state id"), ln)
            if (i, q) in j_table and j_table[(i, q)] != tgt:
                raise AutomatonFormatError(
                    f"line {ln}: conflicting duplicate J {i} {q} -> {tgt} "
                    f"(earlier target {j_table[(i, q)]})"
                )
            j_table[(i, q)] = tgt
        elif kw == "A":
            if len(parts) != 6:
                raise AutomatonFormatError(
                    f"line {ln}: expected 'A <i> <j> <q> -> <q>'"
                )
            arrow(parts, 4, ln)
            i = as_int(parts[1], ln, "label index")
            j = as_int(parts[2], ln, "label index")
            if not (1 <= i < j <= k):
                raise AutomatonFormatError(
                    f"line {ln}: A labels must satisfy 1 <= i < j <= {k}, got {i} {j}"
                )
            q = chk_state(as_int(parts[3], ln, "state id"), ln)
            tgt = chk_state(as_int(parts[5], ln, "state id"), ln)
            if (i, j, q) in a_table and a_table[(i, j, q)] != tgt:
                raise AutomatonFormatError(
                    f"line {ln}: conflicting duplicate A {i} {j} {q} -> {tgt} "
                    f"(earlier target {a_table[(i, j, q)]})"
                )
            a_table[(i, j, q)] = tgt
        else:
            raise AutomatonFormatError(f"line {ln}: unknown directive {kw!r}")

    if small == "list":
        rest = []
        while pos < len(lines):
            ln, parts = lines[pos]
            rest.extend((t, ln) for t in parts)
            pos += 1
        graphs = []
        idx = 0
        try:
            while idx < len(rest):
                g, idx = parse_graph_tokens(rest, idx)
                if g.n > k:
                    raise AutomatonFormatError(
                        f"small-list graph on {g.n} vertices exceeds arity {k}"
                    )
                graphs.append(g)
        except GraphFormatError as exc:
            raise AutomatonFormatError(f"in small list: {exc}") from None
        small = tuple(graphs)
    elif pos < len(lines):
        ln, parts = lines[pos]
        raise AutomatonFormatError(
            f"line {ln}: trailing tokens after 'small {small}' ({parts[0]!r})"
        )

    glue_table = {}
    for (q1, q2), tgt in glue_raw.items():
        key = (q1, q2) if q1 <= q2 else (q2, q1)
        glue_table[key] = tgt
    # _check_tables reports missing entries precisely
    return Automaton(
        k, states, start, frozenset(accept_ids), glue_table, j_table, a_table, small
    )


def serialize_automaton(aut):
    """Inverse of parse_automaton, with a fixed normal form: sorted accept
    ids, glue keys with q1 <= q2, J sorted by (i, q), A by (i, j, q)."""
    lines = [f"k {aut.k}", f"states {aut.states}", f"start {aut.start}"]
    lines.append("accept" + "".join(f" {q}" for q in sorted(aut.accepting)))
    for q1, q2 in sorted(aut.glue_table):
        lines.append(f"glue {q1} {q2} -> {aut.glue_table[(q1, q2)]}")
    for i, q in sorted(aut.j_table):
        lines.append(f"J {i} {q} -> {aut.j_table[(i, q)]}")
    for i, j, q in sorted(aut.a_table):
        lines.append(f"A {i} {j} {q} -> {aut.a_table[(i, j, q)]}")
    if isinstance(aut.small_members, str):
        lines.append(f"small {aut.small_members}")
    else:
        lines.append("small list")
        for g in aut.small_members:
            lines.extend(serialize_graph(g).splitlines())
    return "\n".join(lines) + "\n"


# === Builtins ===


def builtin(name, k):
    """Builtin recognisers: "tw-all" (all graphs; one state, valid for any
    arity) and "paths" (k=2 only; learner-produced, frozen after
    validation)."""
    if name == "tw-all":
        if k < 1:
            raise ValueError("k must be >= 1")
        glue_table = {(0, 0): 0}
        j_table = {(i, 0): 0 for i in range(1, k + 1)}
        a_table = {(i, j, 0): 0 for i, j in combinations(range(1, k + 1), 2)}
        return Automaton(k, 1, 0, frozenset({0}), glue_table, j_table, a_table, "all")
    if name == "paths":
        if k != 2:
            raise ValueError(
                "the paths recogniser is defined at arity 2 (paths have treewidth 1)"
            )
        text = resources.files("homind").joinpath("data/paths_k2.aut").read_text()
        return parse_automaton(text)
    raise ValueError(f"unknown builtin automaton {name!r}")


# === Tracing terms ===


def trace_term(aut, term):
    """State reached by running the automaton over a term of the
    glue/A/J algebra."""
    if isinstance(term, TOne):
        if term.k != aut.k:
            raise ArityMismatch(f"term arity {term.k} != automaton arity {aut.k}")
        return aut.start
    if isinstance(term, TApplyJ):
        return aut.j_state(term.i, trace_term(aut, term.arg))
    if isinstance(term, TApplyA):
        return aut.a_state(term.i, term.j, trace_term(aut, term.arg))
    if isinstance(term, TGlue):
        return aut.glue_state(trace_term(aut, term.left), trace_term(aut, term.right))
    raise TypeError(f"not a term node: {term!r}")


def accepted_value_graphs(aut, max_size):
    """Graphs of at most max_size vertices that the automaton provably
    accepts: the small_members policy (graphs on <= k vertices) plus the
    underlying graphs of accepted enumerated term values.  Deduplicated up
    to isomorphism.  For the builtin recognisers this is exactly the class
    restricted to max_size; for arbitrary automata it is a lower bound
    limited by what the term enumeration reaches.
    """
    out = []
    buckets = {}

    def add(g):
        key = (g.n, g.m, tuple(sorted(g.degree_sequence())))
        bucket = buckets.setdefault(key, [])
        for other in bucket:
            if is_isomorphic_small(g, other, cap=max(10, max_size)):
                return
        bucket.append(g)
        out.append(g)

    if aut.small_members == "all":
        from .oracle import enumerate_graphs_up_to

        for g in enumerate_graphs_up_to(min(aut.k, max_size)):
            add(g)
    elif aut.small_members != "none":
        for g in aut.small_members:
            if g.n <= max_size:
                add(g)
    if max_size >= aut.k:
        for rec in enumerate_tw(aut.k, max_size + 1, max_size):
            if trace_term(aut, rec.term) in aut.accepting:
                add(soe(rec.value))
    return out


# === Validation harness ===


@dataclass
class ValidationReport:
    """Outcome of hunting for counterexamples to an automaton.

    ``kind`` is "" when ok, "acceptance" when a traced term's acceptance
    disagrees with the membership oracle, or "state-merge" when two terms
    traced to the same state behave differently under some context."""

    ok: bool
    kind: str = ""
    term1: str = ""
    term2: str = ""
    context: str = ""
    detail: str = ""
    terms_checked: int = 0
    contexts_checked: int = 0


def validate_automaton(aut, membership, context_bound, term_depth=None):
    """Hunt for counterexamples among enumerated terms and contexts.

    Checks, for every enumerated term t, that traced acceptance matches
    membership(soe(val(t))); and for every pair of terms traced to the
    same state, that the membership verdicts of soe(K * val(t)) agree for
    every enumerated context K within context_bound vertices.  Reports
    the first counterexample found.
    """
    depth = context_bound if term_depth is None else term_depth
    records = enumerate_tw(aut.k, depth, context_bound)
    n_terms = len(records)

    for rec in records:
        st = trace_term(aut, rec.term)
        accepted = st in aut.accepting
        member = bool(membership(soe(rec.value)))
        if accepted != member:
            return ValidationReport(
                False,
                kind="acceptance",
                term1=format_term(rec.term),
                detail=(
                    f"state {st} is {'accepting' if accepted else 'rejecting'} "
                    f"but membership says {member}"
                ),
                terms_checked=n_terms,
                contexts_checked=len(records),
            )

    # Verdict vector of each term over all contexts; terms sharing a state
    # must share the vector (compare against the state's representative).
    reps = {}
    contexts = [ctx.value for ctx in records]
    for rec in records:
        st = trace_term(aut, rec.term)
        vec = _membership_vector(membership, rec.value, contexts)
        if st not in reps:
            reps[st] = (rec, vec)
            continue
        rep, rep_vec = reps[st]
        if vec != rep_vec:
            idx = next(i for i, (a, b) in enumerate(zip(rep_vec, vec)) if a != b)
            return ValidationReport(
                False,
                kind="state-merge",
                term1=format_term(rep.term),
                term2=format_term(rec.term),
                context=format_term(records[idx].term),
                detail=(
                    f"both trace to state {st} but the context verdicts differ "
                    f"({rep_vec[idx]} vs {vec[idx]})"
                ),
                terms_checked=n_terms,
                contexts_checked=len(records),
            )
    return ValidationReport(
        True, terms_checked=n_terms, contexts_checked=len(records)
    )


def _glue_soe(ctx, value):
    """Underlying graph of the gluing of two k-labelled graphs: identify
    the label-i vertices pairwise, drop labels, deduplicate edges.  Fast
    path equivalent to soe(glue(ctx, value))."""
    base = value.graph.n
    mapping = {}
    for pos, v in enumerate(ctx.in_labels):
        mapping[v] = value.in_labels[pos]
    nxt = base
    for v in range(ctx.graph.n):
        if v not in mapping:
            mapping[v] = nxt
            nxt += 1
    edges = set(value.graph.edges)
    for u, v in ctx.graph.edges:
        a, b = mapping[u], mapping[v]
        edges.add((a, b) if a < b else (b, a))
    return Graph(nxt, tuple(sorted(edges)))


# === Experimental learner ===


def _distinctly_labelled_of_size(k, n):
    """All graphs on exactly n vertices carrying k distinct labels, up to
    labelled isomorphism, in a deterministic order."""
    from .oracle import enumerate_graphs

    if n < k:
        return []
    seen = LabelledSet()
    out = []
    for g in enumerate_graphs(n):
        for pins in permutations(range(n), k):
            lg = LabelledGraph(g, tuple(pins))
            if seen.add(lg, None):
                out.append(lg)
    return out


def _membership_vector(membership, value, contexts):
    return tuple(bool(membership(_glue_soe(c, value))) for c in contexts)


def learn_automaton(membership, k, member_bound, context_bound, *, seed=2026,
                    glue_samples=200, rep_cap_factor=4):
    """Learn a candidate recogniser from a membership oracle.

    Members are the distinctly-k-labelled graphs on at most member_bound
    vertices.  Contexts come from the same family; the context size bound
    grows from k until the induced member partition is identical for two
    consecutive bounds (failing loudly at context_bound if it never
    stabilizes).  States are the partition classes plus any classes
    discovered while closing the transition tables over class
    representatives; acceptance reads off the verdict at the all-ones
    context.  Transition consistency is then checked on every member
    (unary operations) and on a seeded sample of member pairs (glue).

    The result is only empirically correct: always run validate_automaton
    (and, where possible, an independent oracle) before trusting it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if member_bound < k or context_bound < k + 1:
        raise LearnerError(
            "bounds too small: need member_bound >= k and context_bound >= k+1"
        )

    members = []
    for n in range(k, member_bound + 1):
        members.extend(_distinctly_labelled_of_size(k, n))

    ctx_by_size = {}

    def contexts_upto(b):
        for n in range(k, b + 1):
            if n not in ctx_by_size:
                ctx_by_size[n] = _distinctly_labelled_of_size(k, n)
        return [c for n in range(k, b + 1) for c in ctx_by_size[n]]

    # Grow the context bound until the member partition stabilizes.
    # Vectors are extended incrementally as new context sizes come in.
    vectors = [() for _ in members]
    covered = k - 1

    def extend_to(b):
        nonlocal covered, vectors
        if b <= covered:
            return
        new_ctx = []
        for n in range(max(covered + 1, k), b + 1):
            if n not in ctx_by_size:
                ctx_by_size[n] = _distinctly_labelled_of_size(k, n)
            new_ctx.extend(ctx_by_size[n])
        vectors = [
            vec + _membership_vector(membership, m, new_ctx)
            for vec, m in zip(vectors, members)
        ]
        covered = b

    def partition_at(b):
        extend_to(b)
        upto = sum(len(ctx_by_size.get(n, ())) for n in range(k, b + 1))
        groups = {}
        for idx, vec in enumerate(vectors):
            groups.setdefault(vec[:upto], []).append(idx)
        return tuple(tuple(g) for g in sorted(groups.values()))

    stable = None
    prev = partition_at(k)
    for b in range(k + 1, context_bound + 1):
        cur = partition_at(b)
        if cur == prev:
            stable = b
            break
        prev = cur
    if stable is None:
        raise LearnerError(
            f"context partition did not stabilize up to bound {context_bound}; "
            "raise context_bound or treat the class as not k-recognisable"
        )
    contexts = contexts_upto(stable)

    # Final classes, in first-member order.
    vec_to_class = {}
    states = []  # representative labelled graph per class
    class_vecs = []
    member_class = []
    for m, vec in zip(members, vectors):
        if vec not in vec_to_class:
            vec_to_class[vec] = len(states)
            states.append(m)
            class_vecs.append(vec)
        member_class.append(vec_to_class[vec])

    rep_cap = rep_cap_factor * member_bound

    def classify(value, grow):
        vec = _membership_vector(membership, value, contexts)
        if vec in vec_to_class:
            return vec_to_class[vec]
        if not grow:
            return None
        if value.graph.n > rep_cap:
            raise LearnerError(
                f"new class representative on {value.graph.n} vertices exceeds "
                f"the cap {rep_cap}; raise member_bound or rep_cap_factor"
            )
        vec_to_class[vec] = len(states)
        states.append(value)
        class_vecs.append(vec)
        return vec_to_class[vec]

    # Close the tables over representatives; classification may mint new
    # states (new verdict vectors), so iterate to a fixed point.  Verdict
    # vectors live in a finite set, so this terminates.
    glue_table = {}
    j_table = {}
    a_table = {}
    label_pairs = list(combinations(range(1, k + 1), 2))
    while True:
        grew = False
        for q in range(len(states)):
            for i in range(1, k + 1):
                if (i, q) not in j_table:
                    j_table[(i, q)] = classify(val_apply_j(states[q], i), grow=True)
                    grew = True
            for i, j in label_pairs:
                if (i, j, q) not in a_table:
                    a_table[(i, j, q)] = classify(
                        val_apply_a(states[q], i, j), grow=True
                    )
                    grew = True
        n_states = len(states)
        for q1 in range(n_states):
            for q2 in range(q1, n_states):
                if (q1, q2) not in glue_table:
                    glue_table[(q1, q2)] = classify(
                        glue(states[q1], states[q2]), grow=True
                    )
                    grew = True
        if not grew and len(states) == n_states:
            break

    # Acceptance: verdict at the all-ones context (gluing with the
    # all-ones graph is the identity, so this is plain membership).
    one = one_labelled(k)
    idx_one = next(
        i for i, c in enumerate(contexts) if labelled_isomorphic(c, one)
    )
    accepting = frozenset(q for q in range(len(states)) if class_vecs[q][idx_one])
    start = vec_to_class[_membership_vector(membership, one, contexts)]

    # Consistency: the tables were read off representatives; check that
    # every member steps the same way (unary ops exhaustively, glue on a
    # seeded sample of member pairs).
    def describe(got):
        return "outside every learned class" if got is None else f"in class {got}"

    for idx, m in enumerate(members):
        c = member_class[idx]
        for i in range(1, k + 1):
            got = classify(val_apply_j(m, i), grow=False)
            if got != j_table[(i, c)]:
                raise LearnerError(
                    f"transition inconsistency: J {i} on member #{idx} "
                    f"(class {c}) lands {describe(got)}, table says {j_table[(i, c)]}"
                )
        for i, j in label_pairs:
            got = classify(val_apply_a(m, i, j), grow=False)
            if got != a_table[(i, j, c)]:
                raise LearnerError(
                    f"transition inconsistency: A {i} {j} on member #{idx} "
                    f"(class {c}) lands {describe(got)}, table says {a_table[(i, j, c)]}"
                )
    rng = Xoshiro256StarStar(seed)
    for _ in range(glue_samples):
        ia = rng.randbelow(len(members))
        ib = rng.randbelow(len(members))
        got = classify(glue(members[ia], members[ib]), grow=False)
        ca, cb = member_class[ia], member_class[ib]
        key = (ca, cb) if ca <= cb else (cb, ca)
        if got != glue_table[key]:
            raise LearnerError(
                f"transition inconsistency: glue of members #{ia}, #{ib} "
                f"(classes {ca}, {cb}) lands {describe(got)}, "
                f"table says {glue_table[key]}"
            )

    small = _small_policy(membership, k)
    return Automaton(
        k,
        len(states),
        start,
        accepting,
        glue_table,
        j_table,
        a_table,
        small,
    )


def _small_policy(membership, k):
    """Derive the small-graph policy by brute force on graphs with at most
    k vertices."""
    from .oracle import enumerate_graphs_up_to

    yes = [g for g in enumerate_graphs_up_to(k) if membership(g)]
    total = sum(1 for _ in enumerate_graphs_up_to(k))
    if len(yes) == total:
        return "all"
    if not yes:
        return "none"
    return tuple(yes)
