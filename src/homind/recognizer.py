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

A graph on fewer than k vertices cannot carry k distinct labels, so
membership of graphs on at most k vertices is not expressible through
the state tables; the ``small_members`` policy ("all", "none", or an
explicit list) records it separately so the decision procedure can
brute-force that finite stage.

This module provides the automaton type, a line-oriented text format,
two builtin recognisers (all graphs; paths), and a validation harness
that hunts for context counterexamples against a membership oracle.
Automaton files are written by hand; run them through
``validate_automaton`` (and, ideally, an independent end-to-end oracle)
before trusting their verdicts.
"""

from dataclasses import dataclass
from functools import cache
from importlib import resources
from itertools import combinations

from .graphs import GraphFormatError, _tokenize_with_lines, parse_graph_tokens
from .labelled import (
    ArityMismatch,
    enumerate_tw,
    fold_term,
    format_term,
    glue,
    soe,
)


class AutomatonFormatError(ValueError):
    """Raised for malformed or inconsistent automaton descriptions."""


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

# Transition directives: usage text, and how many label indices lead the
# line (the state ids follow them, then "->" and the target state).
_TRANSITIONS = {
    "glue": ("glue <q1> <q2> -> <q>", 0),
    "J": ("J <i> <q> -> <q>", 1),
    "A": ("A <i> <j> <q> -> <q>", 2),
}


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

    tables = {kw: {} for kw in _TRANSITIONS}  # glue keyed as written
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
        if kw not in _TRANSITIONS:
            raise AutomatonFormatError(f"line {ln}: unknown directive {kw!r}")
        usage, n_labels = _TRANSITIONS[kw]
        if len(parts) != len(usage.split()):
            raise AutomatonFormatError(f"line {ln}: expected '{usage}'")
        if parts[-2] != "->":
            raise AutomatonFormatError(f"line {ln}: expected '->', got {parts[-2]!r}")
        labels = tuple(as_int(t, ln, "label index") for t in parts[1:1 + n_labels])
        if kw == "J" and not 1 <= labels[0] <= k:
            raise AutomatonFormatError(
                f"line {ln}: label index {labels[0]} out of range 1..{k}"
            )
        if kw == "A" and not 1 <= labels[0] < labels[1] <= k:
            raise AutomatonFormatError(
                f"line {ln}: A labels must satisfy 1 <= i < j <= {k}, "
                f"got {labels[0]} {labels[1]}"
            )
        key = labels + tuple(
            chk_state(as_int(t, ln, "state id"), ln) for t in parts[1 + n_labels:-2]
        )
        tgt = chk_state(as_int(parts[-1], ln, "state id"), ln)
        table = tables[kw]
        if table.get(key, tgt) != tgt:
            raise AutomatonFormatError(
                f"line {ln}: conflicting duplicate {kw} {' '.join(map(str, key))} "
                f"-> {tgt} (earlier target {table[key]})"
            )
        if kw == "glue" and table.get(key[::-1], tgt) != tgt:
            raise AutomatonFormatError(
                f"line {ln}: asymmetric glue entry: glue {key[0]} {key[1]} -> {tgt} "
                f"conflicts with glue {key[1]} {key[0]} -> {table[key[::-1]]}"
            )
        table[key] = tgt

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

    glue_table = {tuple(sorted(key)): tgt for key, tgt in tables["glue"].items()}
    # _check_tables reports missing entries precisely
    return Automaton(
        k, states, start, frozenset(accept_ids), glue_table, tables["J"], tables["A"],
        small,
    )


# === Builtins ===


@cache
def builtin(name, k):
    """Builtin recognisers: "tw-all" (all graphs; one state, valid for any
    arity) and "paths" (k=2 only; the frozen data file ``paths_k2.aut``,
    checked by ``validate_automaton`` and against walk counts in the
    tests).  Built once per process: callers share the returned tables
    and must not mutate them."""
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

    def start(k):
        if k != aut.k:
            raise ArityMismatch(f"term arity {k} != automaton arity {aut.k}")
        return aut.start

    return fold_term(term, start, aut.glue_state,
                     lambda state, i, j: aut.a_state(i, j, state),
                     lambda state, i: aut.j_state(i, state))


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
    the first counterexample found.  A bound below the arity k fits no
    term, so it checks nothing and raises ValueError.
    """
    if context_bound < aut.k:
        raise ValueError(f"context bound {context_bound} is below the arity "
                         f"{aut.k}: no term fits, nothing would be checked")
    depth = context_bound if term_depth is None else term_depth
    records = enumerate_tw(aut.k, depth, context_bound)
    n_terms = len(records)

    states = [trace_term(aut, rec.term) for rec in records]
    for rec, st in zip(records, states):
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
    for rec, st in zip(records, states):
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


def _membership_vector(membership, value, contexts):
    """The membership verdict of soe(K * value) for each context K.  Terms
    evaluate to distinctly labelled graphs, so no gluing forces a loop."""
    return tuple(bool(membership(soe(glue(c, value)))) for c in contexts)
