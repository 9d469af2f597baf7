"""Delta evaluation over a saturated base (``evaluate(..., base=...)``).

The differential contract: for a program whose negated and aggregated
literals do not depend on the added facts, extending the saturated
base by those facts yields exactly the store of a fresh evaluation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.datalog import (
    Atom,
    Const,
    Program,
    Rule,
    evaluate,
    nonmonotone_dependencies,
    parse_program,
)
from repro.errors import EvaluationError

# -- random positive programs ---------------------------------------------

RELATIONS = ("e", "p", "q", "r")
DERIVED = ("p", "q", "r")

#: positive rule shapes over binary relations: join, swap, diagonal,
#: copy and a builtin filter (recursion arises when a head reappears
#: in a body)
TEMPLATES = (
    "{h}(X, Z) :- {a}(X, Y), {b}(Y, Z).",
    "{h}(X, Y) :- {a}(Y, X).",
    "{h}(X, X) :- {a}(X, Y).",
    "{h}(X, Y) :- {a}(X, Y), {b}(X, W).",
    "{h}(X, Y) :- {a}(X, Y), X < Y.",
)

rule_texts = st.builds(
    lambda template, h, a, b: template.format(h=h, a=a, b=b),
    st.sampled_from(TEMPLATES),
    st.sampled_from(DERIVED),
    st.sampled_from(RELATIONS),
    st.sampled_from(RELATIONS),
)

#: rules negating `t`, a relation that only ever has base facts: they
#: put `s` in a later stratum than its positive dependencies, so the
#: delta has to cross strata
NEGATION_TEMPLATES = (
    "s(X, Y) :- {a}(X, Y), not t(X, Y).",
    "s(X, Z) :- {a}(X, Y), {b}(Y, Z), not t(X, Z).",
)

stratified_rule_texts = st.one_of(
    rule_texts,
    st.builds(
        lambda template, a, b: template.format(a=a, b=b),
        st.sampled_from(NEGATION_TEMPLATES),
        st.sampled_from(RELATIONS),
        st.sampled_from(RELATIONS),
    ),
    st.builds(
        lambda template, h, b: template.format(h=h, a="s", b=b),
        st.sampled_from(TEMPLATES),
        st.sampled_from(DERIVED),
        st.sampled_from(RELATIONS),
    ),
)

facts_strategy = st.lists(
    st.tuples(
        st.sampled_from(RELATIONS), st.integers(0, 4), st.integers(0, 4)
    ),
    max_size=12,
)


def _facts(triples):
    return [
        Rule(Atom(pred, (Const(a), Const(b)))) for pred, a, b in triples
    ]


def _delta_and_fresh(rules, base_facts, extra_facts):
    base_program = Program(list(rules) + base_facts)
    full = list(base_program.rules) + extra_facts
    base = evaluate(base_program)
    return evaluate(full, base=base), evaluate(Program(full)), base


class TestDeltaEqualsFresh:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(rule_texts, min_size=1, max_size=6),
        facts_strategy,
        facts_strategy,
    )
    def test_random_positive_programs(self, texts, base_triples, extra_triples):
        rules = list(parse_program("\n".join(texts)))
        delta, fresh, _ = _delta_and_fresh(
            rules, _facts(base_triples), _facts(extra_triples)
        )
        assert delta.store.same_facts(fresh.store)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(stratified_rule_texts, min_size=1, max_size=6),
        facts_strategy,
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6),
        facts_strategy,
    )
    def test_random_stratified_programs(
        self, texts, base_triples, negated_pairs, extra_triples
    ):
        program = parse_program("\n".join(texts))
        assert not nonmonotone_dependencies(program) - {("t", 2)}
        base_facts = _facts(base_triples) + _facts(
            [("t", a, b) for a, b in negated_pairs]
        )
        delta, fresh, _ = _delta_and_fresh(
            list(program), base_facts, _facts(extra_triples)
        )
        assert delta.store.same_facts(fresh.store)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(rule_texts, min_size=1, max_size=6),
        facts_strategy,
        facts_strategy,
    )
    def test_base_store_is_never_mutated(self, texts, base_triples, extra_triples):
        rules = list(parse_program("\n".join(texts)))
        _delta, _fresh, base = _delta_and_fresh(
            rules, _facts(base_triples), _facts(extra_triples)
        )
        again = evaluate(Program(list(rules) + _facts(base_triples)))
        assert base.store.same_facts(again.store)

    def test_negation_over_untouched_relation(self):
        program = parse_program(
            """
            node(a). node(b). node(c).
            edge(a, b).
            blocked(c).
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- reach(X, Y), edge(Y, Z).
            open(X) :- node(X), not blocked(X).
            """
        )
        assert ("edge", 2) not in nonmonotone_dependencies(program)
        extra = list(parse_program("edge(b, c). edge(c, a)."))
        delta, fresh, _ = _delta_and_fresh(list(program), [], extra)
        assert delta.store.same_facts(fresh.store)

    def test_delta_crosses_strata(self):
        program = parse_program(
            """
            p(X, Y) :- e(Y, X).
            s(X, Y) :- p(X, Y), not t(X, Y).
            t(9, 9).
            """
        )
        extra = list(parse_program("e(1, 2)."))
        delta, fresh, base = _delta_and_fresh(list(program), [], extra)
        assert len(base.strata) == 2
        assert delta.store.same_facts(fresh.store)
        assert delta.is_true(Atom("s", (Const(2), Const(1))))

    def test_delta_metrics_count_only_the_delta_work(self):
        rules = list(
            parse_program(
                """
                tc(X, Y) :- e(X, Y).
                tc(X, Z) :- tc(X, Y), e(Y, Z).
                """
            )
        )
        chain = _facts([("e", i, i + 1) for i in range(6)])
        extra = _facts([("e", 6, 7)])
        base = evaluate(Program(rules + chain))
        with obs.capture("delta") as tracer:
            delta = evaluate(rules + chain + extra, base=base)
            fresh = evaluate(Program(rules + chain + extra))
        assert delta.store.same_facts(fresh.store)
        # the new edge closes 7 paths (0..6 -> 7); fresh re-derives all 28
        assert delta.metrics.facts_derived == 7
        assert fresh.metrics.facts_derived == 7 + 28
        assert delta.metrics.rule_firings < fresh.metrics.rule_firings
        assert tracer.find_spans("datalog.stratum")


class TestNonmonotoneDependencies:
    def test_negated_and_aggregated_relations_and_their_supports(self):
        program = parse_program(
            """
            base(a).
            mid(X) :- base(X).
            top(X) :- node(X), not mid(X).
            total(N) :- N = count{X; item(X)}.
            item(X) :- raw(X).
            free(X) :- node(X).
            """
        )
        guarded = nonmonotone_dependencies(program)
        assert {("mid", 1), ("base", 1), ("item", 1), ("raw", 1)} <= guarded
        assert ("node", 1) not in guarded
        assert ("free", 1) not in guarded

    def test_positive_program_guards_nothing(self):
        program = parse_program("p(X) :- q(X). q(a).")
        assert nonmonotone_dependencies(program) == frozenset()


class TestBaseRequirements:
    def test_well_founded_base_is_rejected(self):
        program = parse_program(
            """
            move(a, b). move(b, a).
            win(X) :- move(X, Y), not win(Y).
            """
        )
        base = evaluate(program)
        assert base.used_well_founded
        with pytest.raises(EvaluationError):
            evaluate(list(program), base=base)
