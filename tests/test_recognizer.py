"""Recogniser tests: file format, builtins, tracing, and the validation
harness.

Expected values here come from three independent sources: hand-checked
tiny automata, the brute-force membership oracles in homind.oracle, and
re-derivation of the four context classes of 1-labelled graphs for the
path family (the labelled single vertex; end-labelled paths; internally
labelled paths; everything else, which no context can repair)."""

import pytest

from homind.graphs import Graph, complete_graph, cycle_graph, is_isomorphic_small, path_graph
from homind.labelled import (
    TApplyA,
    TApplyJ,
    TGlue,
    TOne,
    enumerate_tw,
    format_term,
    soe,
    val,
)
from homind import recognizer
from homind.oracle import enumerate_graphs_up_to, is_path_graph
from homind.recognizer import (
    Automaton,
    AutomatonFormatError,
    builtin,
    parse_automaton,
    trace_term,
    validate_automaton,
)

from conftest import PATHS_K1, accepted_value_graphs

TW_ALL_K2 = """\
k 2
states 1
start 0
accept 0
glue 0 0 -> 0
J 1 0 -> 0
J 2 0 -> 0
A 1 2 0 -> 0
small all
"""


# === Parsing ===


def test_parse_tw_all_text():
    aut = parse_automaton(TW_ALL_K2)
    assert aut.k == 2 and aut.states == 1 and aut.start == 0
    assert aut.accepting == frozenset({0})
    assert aut.small_members == "all"


def test_roundtrip_tw_all():
    assert parse_automaton(TW_ALL_K2) == builtin("tw-all", 2)


def test_roundtrip_paths_fixture():
    """Transition lines in any order, glue pairs written either way round,
    and bytes or str all parse to the same automaton."""
    from importlib import resources

    text = resources.files("homind").joinpath("data/paths_k2.aut").read_text()
    lines = text.splitlines()
    body = [ln for ln in lines if ln.split()[0] in ("glue", "J", "A")]
    head = lines[:lines.index(body[0])]
    foot = lines[lines.index(body[-1]) + 1:]
    flipped = []
    for ln in reversed(body):
        kw, *rest = ln.split()
        if kw == "glue":
            rest[0], rest[1] = rest[1], rest[0]
        flipped.append(" ".join([kw, *rest]))
    shuffled = "\n".join(head + flipped + foot) + "\n"
    assert parse_automaton(shuffled) == builtin("paths", 2)
    assert parse_automaton(shuffled.encode()) == builtin("paths", 2)


def test_parse_accepts_comments_and_reversed_glue():
    text = (
        "# a recogniser\nk 1\nstates 2\nstart 0\naccept 0\n"
        "glue 1 0 -> 1  # reversed order only\n"
        "glue 0 0 -> 0\nglue 1 1 -> 1\n"
        "J 1 0 -> 1\nJ 1 1 -> 1\nsmall none\n"
    )
    aut = parse_automaton(text)
    assert aut.glue_state(0, 1) == 1 == aut.glue_state(1, 0)


def test_parse_small_list_graphs():
    text = (
        "k 2\nstates 1\nstart 0\naccept 0\n"
        "glue 0 0 -> 0\nJ 1 0 -> 0\nJ 2 0 -> 0\nA 1 2 0 -> 0\n"
        "small list\nn 1 m 0\nn 2 m 1\n0 1\n"
    )
    aut = parse_automaton(text)
    assert isinstance(aut.small_members, tuple)
    assert [(g.n, g.m) for g in aut.small_members] == [(1, 0), (2, 1)]
    assert aut == Automaton(2, 1, 0, frozenset({0}), {(0, 0): 0},
                            {(1, 0): 0, (2, 0): 0}, {(1, 2, 0): 0},
                            (Graph(1, ()), Graph(2, ((0, 1),))))


def test_missing_j_entry_reports_incomplete_j_table():
    text = (
        "k 2\nstates 1\nstart 0\naccept 0\n"
        "glue 0 0 -> 0\nJ 2 0 -> 0\nA 1 2 0 -> 0\nsmall all\n"
    )
    with pytest.raises(AutomatonFormatError, match="incomplete j_table: missing J 1 0"):
        parse_automaton(text)


def test_missing_glue_entry_reports_incomplete_glue_table():
    text = (
        "k 1\nstates 2\nstart 0\naccept 0\n"
        "glue 0 0 -> 0\nglue 0 1 -> 1\nJ 1 0 -> 1\nJ 1 1 -> 1\nsmall all\n"
    )
    with pytest.raises(AutomatonFormatError, match="incomplete glue_table: missing glue 1 1"):
        parse_automaton(text)


def test_asymmetric_glue_rejected():
    text = (
        "k 1\nstates 4\nstart 0\naccept 0\n"
        "glue 0 1 -> 2\nglue 1 0 -> 3\n"
    )
    with pytest.raises(AutomatonFormatError, match="asymmetric glue"):
        parse_automaton(text)


def test_bad_state_id_rejected():
    text = "k 1\nstates 2\nstart 5\naccept 0\nsmall all\n"
    with pytest.raises(AutomatonFormatError, match="state id 5 out of range 0..1"):
        parse_automaton(text)


def test_bad_transition_state_id_rejected():
    text = (
        "k 1\nstates 1\nstart 0\naccept 0\n"
        "glue 0 0 -> 0\nJ 1 3 -> 0\nsmall all\n"
    )
    with pytest.raises(AutomatonFormatError, match="state id 3 out of range"):
        parse_automaton(text)


def test_label_index_out_of_range_rejected():
    text = (
        "k 2\nstates 1\nstart 0\naccept 0\n"
        "glue 0 0 -> 0\nJ 3 0 -> 0\n"
    )
    with pytest.raises(AutomatonFormatError, match="label index 3 out of range 1..2"):
        parse_automaton(text)


def test_a_labels_must_increase():
    text = (
        "k 2\nstates 1\nstart 0\naccept 0\n"
        "glue 0 0 -> 0\nJ 1 0 -> 0\nJ 2 0 -> 0\nA 2 1 0 -> 0\nsmall all\n"
    )
    with pytest.raises(AutomatonFormatError, match="1 <= i < j"):
        parse_automaton(text)


def test_conflicting_duplicate_rejected():
    text = (
        "k 1\nstates 2\nstart 0\naccept 0\n"
        "J 1 0 -> 0\nJ 1 0 -> 1\n"
    )
    with pytest.raises(AutomatonFormatError, match="conflicting duplicate J"):
        parse_automaton(text)


def test_missing_small_policy_rejected():
    text = "k 1\nstates 1\nstart 0\naccept 0\nglue 0 0 -> 0\nJ 1 0 -> 0\n"
    with pytest.raises(AutomatonFormatError, match="expected transition or 'small'"):
        parse_automaton(text)


def test_oversized_small_list_graph_rejected():
    text = (
        "k 2\nstates 1\nstart 0\naccept 0\n"
        "glue 0 0 -> 0\nJ 1 0 -> 0\nJ 2 0 -> 0\nA 1 2 0 -> 0\n"
        "small list\nn 3 m 0\n"
    )
    with pytest.raises(AutomatonFormatError, match="exceeds arity 2"):
        parse_automaton(text)


def test_unknown_directive_rejected():
    text = "k 1\nstates 1\nstart 0\naccept 0\nfoo 1 2\n"
    with pytest.raises(AutomatonFormatError, match="unknown directive 'foo'"):
        parse_automaton(text)


_HEADER = "k 2\nstates 3\nstart 0\naccept 0\n"  # transitions start on line 5


@pytest.mark.parametrize("lines, message", [
    ("glue 0 0 0", "line 5: expected 'glue <q1> <q2> -> <q>'"),
    ("J 1 0 0", "line 5: expected 'J <i> <q> -> <q>'"),
    ("A 1 2 0 -> 0 0", "line 5: expected 'A <i> <j> <q> -> <q>'"),
    ("J 1 0 => 0", "line 5: expected '->', got '=>'"),
    ("A 1 x 0 -> 0", "line 5: expected label index, got 'x'"),
    ("glue 0 y -> 0", "line 5: expected state id, got 'y'"),
    ("J 3 0 -> 0", "line 5: label index 3 out of range 1..2"),
    ("A 2 1 0 -> 0", "line 5: A labels must satisfy 1 <= i < j <= 2, got 2 1"),
    ("A 1 2 0 -> 3", "line 5: state id 3 out of range 0..2"),
    ("glue 0 1 -> 1\nglue 0 1 -> 2",
     "line 6: conflicting duplicate glue 0 1 -> 2 (earlier target 1)"),
    ("J 1 0 -> 1\nJ 1 0 -> 2",
     "line 6: conflicting duplicate J 1 0 -> 2 (earlier target 1)"),
    ("A 1 2 0 -> 0\nA 1 2 0 -> 1",
     "line 6: conflicting duplicate A 1 2 0 -> 1 (earlier target 0)"),
    ("glue 0 1 -> 1\nglue 1 0 -> 2",
     "line 6: asymmetric glue entry: glue 1 0 -> 2 conflicts with glue 0 1 -> 1"),
    ("B 1 0 -> 0", "line 5: unknown directive 'B'"),
])
def test_transition_line_errors_carry_their_full_message(lines, message):
    with pytest.raises(AutomatonFormatError) as exc:
        parse_automaton(_HEADER + lines + "\nsmall all\n")
    assert str(exc.value) == message


# === Builtins ===


def test_tw_all_any_arity():
    for k in (1, 2, 3, 5):
        aut = builtin("tw-all", k)
        assert aut.states == 1
        assert aut.accepting == frozenset({0})
        assert aut.small_members == "all"


def test_unknown_builtin():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin("cliques", 2)
    with pytest.raises(ValueError):
        builtin("paths", 3)


def test_paths_builtin_is_parsed_once(monkeypatch):
    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse_automaton(text)

    monkeypatch.setattr(recognizer, "parse_automaton", counting_parse)
    builtin.cache_clear()
    assert builtin("paths", 2) is builtin("paths", 2)
    assert len(calls) == 1


def test_paths_builtin_is_validated_against_membership():
    aut = builtin("paths", 2)
    report = validate_automaton(aut, is_path_graph, 5)
    assert report.ok, (report.kind, report.term1, report.term2, report.context)
    assert report.terms_checked == 74


# === Tracing ===


def term_for_labelled_path():
    """A term whose value has underlying graph P3: add the 1-2 edge, move
    label 2 to a fresh vertex, add the 1-2 edge again."""
    return TApplyA(1, 2, TApplyJ(2, TApplyA(1, 2, TOne(2))))


def test_paths_builtin_accepts_p3_term():
    aut = builtin("paths", 2)
    t = term_for_labelled_path()
    assert is_path_graph(soe(val(t)))
    assert trace_term(aut, t) in aut.accepting


def test_paths_builtin_rejects_non_path_terms():
    """Every enumerated term valuing to a non-path is rejected (and the
    rejected values at 4 vertices include the star and the triangle-free
    non-paths; the triangle itself has treewidth 2, so no arity-2 term
    evaluates to it — its exclusion shows up as absence from the accepted
    family, checked in test_accepted_value_graphs_paths)."""
    aut = builtin("paths", 2)
    rejected = []
    for rec in enumerate_tw(2, 5, 4):
        g = soe(rec.value)
        accepted = trace_term(aut, rec.term) in aut.accepting
        assert accepted == is_path_graph(g)
        if not accepted:
            rejected.append(g)
    # the enumeration really does exercise rejecting states
    assert any(sorted(g.degree_sequence()) == [1, 1, 1, 3] for g in rejected)
    got = accepted_value_graphs(aut, 3)
    assert not any(is_isomorphic_small(g, complete_graph(3)) for g in got)


def test_trace_glue_reassociation_invariance():
    """Tracing is invariant under re-association and commutation of glue."""
    aut = builtin("paths", 2)
    a = term_for_labelled_path()
    b = TApplyA(1, 2, TOne(2))
    c = TOne(2)
    t1 = TGlue(TGlue(a, b), c)
    t2 = TGlue(a, TGlue(b, c))
    t3 = TGlue(TGlue(c, b), a)
    assert trace_term(aut, t1) == trace_term(aut, t2) == trace_term(aut, t3)


def test_trace_arity_mismatch():
    from homind.labelled import ArityMismatch

    with pytest.raises(ArityMismatch):
        trace_term(builtin("tw-all", 3), TOne(2))


# === Accepted graph families ===


def test_accepted_value_graphs_paths():
    aut = builtin("paths", 2)
    for cap in (1, 2, 4, 6):
        got = accepted_value_graphs(aut, cap)
        want = [g for g in enumerate_graphs_up_to(cap) if is_path_graph(g)]
        assert len(got) == len(want) == cap
        for g in got:
            assert any(is_isomorphic_small(g, h) for h in want)


def test_accepted_value_graphs_tw_all_are_forests():
    from homind.oracle import exact_treewidth_tiny

    got = accepted_value_graphs(builtin("tw-all", 2), 5)
    want = [g for g in enumerate_graphs_up_to(5) if exact_treewidth_tiny(g) <= 1]
    assert len(got) == len(want) == 22
    for g in got:
        assert any(is_isomorphic_small(g, h) for h in want)


# === Validation harness ===


def test_validate_tw_all_no_counterexample():
    report = validate_automaton(builtin("tw-all", 2), lambda g: True, 4)
    assert report.ok
    assert report.terms_checked > 0


def test_validate_refuses_a_context_bound_below_the_arity():
    """No term of arity k has fewer than k vertices, so a bound below k
    would check nothing; bound k checks the terms on k vertices."""
    for k in (1, 2, 3):
        aut = builtin("tw-all", k)
        for bound in range(k):
            with pytest.raises(ValueError, match="below the arity"):
                validate_automaton(aut, lambda g: True, bound)
        assert validate_automaton(aut, lambda g: True, k).terms_checked > 0


def test_validate_rejects_wrong_acceptance():
    # tw-all with membership "is a path" must fail: some term value is not
    # a path but every state is accepting.
    report = validate_automaton(builtin("tw-all", 2), is_path_graph, 4)
    assert not report.ok
    assert report.kind == "acceptance"
    assert report.term1  # formatted term present


def _exercised_entries(aut, records):
    """Table entries hit while tracing the given term records."""
    hits = {"glue": set(), "J": set(), "A": set()}

    def walk(t):
        if isinstance(t, TOne):
            return aut.start
        if isinstance(t, TApplyJ):
            q = walk(t.arg)
            hits["J"].add((t.i, q))
            return aut.j_state(t.i, q)
        if isinstance(t, TApplyA):
            q = walk(t.arg)
            hits["A"].add((t.i, t.j, q))
            return aut.a_state(t.i, t.j, q)
        q1, q2 = walk(t.left), walk(t.right)
        hits["glue"].add((q1, q2) if q1 <= q2 else (q2, q1))
        return aut.glue_state(q1, q2)

    for rec in records:
        walk(rec.term)
    return hits


def test_validate_catches_single_transition_mutations():
    """Flipping any term-visible transition of the paths recogniser is
    caught by the harness.  (Entries never exercised by an enumerated
    term, such as gluing two all-ones states, are invisible to it — the
    harness checks behaviour on terms, not the full table.)"""
    aut = builtin("paths", 2)
    records = enumerate_tw(2, 5, 5)
    hits = _exercised_entries(aut, records)
    assert hits["glue"] and hits["J"] and hits["A"]

    picks = [("glue", min(hits["glue"])), ("J", min(hits["J"])), ("A", min(hits["A"]))]
    for kind, key in picks:
        tables = {
            "glue": dict(aut.glue_table),
            "J": dict(aut.j_table),
            "A": dict(aut.a_table),
        }
        tables[kind][key] = (tables[kind][key] + 1) % aut.states
        mutated = Automaton(
            aut.k, aut.states, aut.start, aut.accepting,
            tables["glue"], tables["J"], tables["A"], aut.small_members,
        )
        report = validate_automaton(mutated, is_path_graph, 5)
        assert not report.ok, (kind, key)
        assert report.kind in ("acceptance", "state-merge")


def test_validation_report_counterexample_is_reproducible():
    """A state-merge counterexample names two terms and a context whose
    membership verdicts actually differ."""
    aut = builtin("paths", 2)
    # Merge two distinct accepting states into one to force a state-merge:
    # rewrite every table target 5 -> 7 and drop state... simpler: corrupt
    # one J entry that changes which class a term lands in.
    tables = dict(aut.j_table)
    records = enumerate_tw(2, 5, 5)
    hits = _exercised_entries(aut, records)
    key = min(hits["J"])
    tables[key] = (tables[key] + 1) % aut.states
    mutated = Automaton(
        aut.k, aut.states, aut.start, aut.accepting,
        dict(aut.glue_table), tables, dict(aut.a_table), aut.small_members,
    )
    report = validate_automaton(mutated, is_path_graph, 5)
    assert not report.ok
    assert report.term1


# === Frozen recognisers ===


def test_learner_paths_k1_four_states():
    """1-labelled context classes of the path family: the labelled K1;
    end-labelled paths; internally labelled paths; a dead class.  Gluing
    two end-labelled paths lands in the internally labelled class."""
    aut = parse_automaton(PATHS_K1)
    assert aut.states == 4
    assert len(aut.accepting) == 3  # only the dead class rejects
    assert aut.start in aut.accepting  # K1 is a path
    # J always introduces a second component: dead.
    dead = {q for q in range(4) if q not in aut.accepting}
    assert len(dead) == 1
    d = next(iter(dead))
    for q in range(4):
        assert aut.j_state(1, q) == d
    # gluing the start class is the identity
    for q in range(4):
        assert aut.glue_state(aut.start, q) == q
    # the two non-start accepting classes: end-labelled (P) and internal (Q)
    P, Q = sorted(aut.accepting - {aut.start})
    # gluing two end-labelled paths concatenates them: internal label
    assert aut.glue_state(P, P) == Q
    assert aut.glue_state(Q, Q) == d
    assert aut.glue_state(P, Q) == d


def test_learner_start_state_is_all_ones_class():
    aut = builtin("paths", 2)
    # the all-ones graph (two isolated labelled vertices) is not a path,
    # so the start state must reject
    assert aut.start not in aut.accepting
    # but gluing with it changes nothing
    for q in range(aut.states):
        assert aut.glue_state(aut.start, q) == q


def test_learned_paths_k2_small_policy_is_k1_k2():
    aut = builtin("paths", 2)
    assert isinstance(aut.small_members, tuple)
    got = sorted((g.n, g.m) for g in aut.small_members)
    assert got == [(1, 0), (2, 1)]
