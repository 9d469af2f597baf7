"""Join plans against the unification solver they replaced.

The engine compiles every rule body into a slot-indexed join plan.
The oracle below is the solver it had before: a recursive walk over
the body that unifies each candidate row with the literal, position by
position, over substitution dicts.  Swapped in for the plans, it must
give the same store, the same undefined facts and the same work
counters on every evaluation path: fresh, delta (``evaluate(base=)``),
``extend`` and the well-founded fallback.
"""

import contextlib
import copy
import pickle
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datalog.engine as engine
from repro import obs
from repro.datalog import (
    Atom,
    Const,
    Literal,
    Rule,
    evaluate,
    nonmonotone_dependencies,
    parse_program,
    parse_rule,
    solve,
)
from repro.datalog.builtins import solve_assignment, solve_comparison
from repro.datalog.engine import _apply_aggregate, _order_body_items, extend
from repro.datalog.terms import substitute, term_sort_key, unify
from repro.errors import EvaluationError
from repro.neuro import build_scenario

from .test_work_counters import PINNED_EXAMPLES, run_example


# -- the oracle: the unification solver --------------------------------


def _solve(evaluator, body, index, subst, delta_position, delta):
    """Yield substitutions satisfying body[index:] under `subst`; the
    literal at `delta_position` reads `delta`."""
    if index == len(body):
        yield subst
        return
    item = body[index]
    rest = lambda new: _solve(  # noqa: E731
        evaluator, body, index + 1, new, delta_position, delta
    )
    if isinstance(item, Literal) and item.positive:
        source = delta if delta_position == index else evaluator.store
        for args in source.rows(item.atom.signature):
            new = subst
            for pattern, ground in zip(item.atom.args, args):
                new = unify(pattern, ground, new)
                if new is None:
                    break
            if new is not None:
                yield from rest(new)
    elif isinstance(item, Literal):
        ground = item.atom.substitute(subst)
        if not ground.is_ground():
            raise EvaluationError("negated subgoal %s not ground" % ground)
        target = evaluator.negation_store
        if target is None:
            target = evaluator.store
        if not target.contains(ground):
            yield from rest(subst)
    elif isinstance(item, engine.Comparison):
        for new in solve_comparison(item, subst):
            yield from rest(new)
    elif isinstance(item, engine.Assignment):
        for new in solve_assignment(item, subst):
            yield from rest(new)
    else:
        for new in _solve_aggregate(evaluator, item, subst):
            yield from rest(new)


def _solve_aggregate(evaluator, agg, subst):
    inner_body = _order_body_items(list(agg.body))
    groups: Dict[Tuple, List] = {}
    for inner in _solve(evaluator, inner_body, 0, dict(subst), None, None):
        key = tuple(substitute(g, inner) for g in agg.group_by)
        groups.setdefault(key, []).append(substitute(agg.value, inner))
    for key, values in sorted(
        groups.items(), key=lambda kv: tuple(term_sort_key(t) for t in kv[0])
    ):
        new = dict(subst)
        for pattern, ground in zip(agg.group_by, key):
            new = unify(pattern, ground, new) if new is not None else None
        if new is not None:
            new = unify(agg.result, Const(_apply_aggregate(agg.func, values)), new)
        if new is not None:
            yield new


def _oracle_fire(self, plan, delta):
    heads = []
    for subst in _solve(self, plan.body, 0, {}, plan.delta, delta):
        head = plan.head.substitute(subst)
        if not head.is_ground():
            raise EvaluationError("derived non-ground fact %s" % head)
        heads.append(head.args)
    return heads


@contextlib.contextmanager
def unification_oracle():
    """Evaluate with the oracle in place of the join plans."""
    original = engine._Evaluator._fire
    engine._Evaluator._fire = _oracle_fire
    try:
        yield
    finally:
        engine._Evaluator._fire = original


# -- generated programs ------------------------------------------------

#: positive rules over the base relations e/2, g/1 and w/1: repeated
#: variables, constants ({c}), Skolem structs in heads and bodies,
#: '=' that binds, 'is', comparisons and recursion
POSITIVE = (
    "t(X, Y) :- e(X, Y).",
    "t(X, Y) :- t(X, Z), e(Z, Y).",
    "t(X, Y) :- e(X, Z), t(Z, Y).",
    "loop(X) :- e(X, X).",
    "diag(X) :- t(X, X).",
    "fromc(Y) :- e({c}, Y).",
    "cst(X) :- e(X, {c}), g({c}).",
    "sk(k(X)) :- g(X).",
    "sk(k(k(X))) :- sk(k(X)), e(X, {c}).",
    "u(X) :- sk(k(X)).",
    "u(X) :- w(k(X)), g(X).",
    "v(Y) :- e(X, Y), sk(k(X)).",
    "eq(X, Y) :- g(X), Y = X.",
    "eqs(X, Z) :- g(X), Z = k(X).",
    "equn(X) :- w(Z), Z = k(X).",
    "plus(X, Y) :- g(X), Y is X + {c}.",
    "lt(X, Y) :- e(X, Y), X < Y.",
    "same(X) :- e(X, Y), X = Y.",
    "pair(X, Y) :- t(X, Y), t(Y, X).",
)

#: rules negating or aggregating over the positive heads, rules reading
#: those (later strata), and '=' with no bound side ordered before the
#: aggregate that binds it (the old solver aliased the two sides)
NONMONOTONE = (
    "lonely(X) :- g(X), not loop(X).",
    "nt(X, Y) :- e(X, Y), not t(Y, X).",
    "nsk(X) :- g(X), not sk(k(X)).",
    "cnt(X, N) :- g(X), N = count{{Y [X]; t(X, Y)}}.",
    "mx(X, M) :- M = max{{Y [X]; e(X, Y)}}.",
    "tot(S) :- S = sum{{Y; e(Z, Y)}}.",
    "top(X) :- cnt(X, N), N > {c}.",
    "both(X) :- lonely(X), mx(X, M), M >= X.",
    "al(X) :- X = N, N = count{{Y; e(Y, Y)}}.",
    "als(X) :- g(Z), X = k(N), N = sum{{Y [Z]; e(Z, Y)}}.",
    "ala(Z, N) :- X = Z, N = count{{X [Z]; e(X, Y), e(Z, Y)}}.",
    "alc(M) :- M = X, X = N, N = max{{Y; e(Y, {c})}}.",
)

#: recursion through negation: only the well-founded model has it
WELL_FOUNDED = (
    "win(X) :- e(X, Y), not win(Y).",
    "odd(X) :- g(X), not even(X).",
    "even(X) :- g(X), not odd(X), not loop(X).",
)

constants = st.integers(0, 3)


def templates(pool):
    return st.lists(
        st.builds(lambda t, c: t.format(c=c), st.sampled_from(pool), constants),
        min_size=1,
        max_size=6,
    )


base_facts = st.lists(
    st.one_of(
        st.builds(lambda a, b: "e(%d, %d)." % (a, b), constants, constants),
        st.builds(lambda a: "g(%d)." % a, constants),
        st.builds(lambda a: "w(k(%d))." % a, constants),
    ),
    max_size=12,
)


def rules_of(texts):
    return list(parse_program("\n".join(texts)))


def outcome(result):
    """What the two solvers must agree on."""
    metrics = result.metrics
    return (
        [str(atom) for atom in result.store.sorted_atoms()],
        [str(atom) for atom in result.undefined.sorted_atoms()],
        metrics.rule_firings,
        metrics.facts_derived,
    )


def both_solvers(run):
    """``run()``'s outcome with plans and with the oracle."""
    with obs.capture("plans"):
        planned = run()
    with unification_oracle(), obs.capture("oracle"):
        oracle = run()
    return planned, oracle


class TestPlansAgreeWithUnification:
    @settings(max_examples=200, deadline=None)
    @given(templates(POSITIVE + NONMONOTONE), base_facts)
    def test_fresh(self, texts, facts):
        program = rules_of(texts + facts)
        planned, oracle = both_solvers(lambda: outcome(evaluate(program)))
        assert planned == oracle

    @settings(max_examples=100, deadline=None)
    @given(templates(POSITIVE + NONMONOTONE + WELL_FOUNDED), base_facts)
    def test_well_founded(self, texts, facts):
        program = rules_of(texts + facts)
        planned, oracle = both_solvers(lambda: outcome(evaluate(program)))
        assert planned == oracle

    @settings(max_examples=200, deadline=None)
    @given(templates(POSITIVE + NONMONOTONE), base_facts, base_facts)
    def test_delta(self, texts, facts, extra):
        rules = rules_of(texts + facts)
        blocked = nonmonotone_dependencies(rules_of(texts))
        extra = [
            rule for rule in rules_of(extra) if rule.head.signature not in blocked
        ]

        def run():
            base = evaluate(rules)
            return outcome(evaluate(rules + extra, base=base)), outcome(base)

        planned, oracle = both_solvers(run)
        assert planned == oracle
        with obs.capture("fresh"):
            fresh = evaluate(rules + extra)
        assert planned[0][0] == outcome(fresh)[0]

    @settings(max_examples=200, deadline=None)
    @given(templates(POSITIVE), templates(NONMONOTONE), base_facts)
    def test_extend(self, texts, extension, facts):
        rules = rules_of(texts + facts)
        added = rules_of(extension)

        def run():
            base = evaluate(rules)
            return outcome(extend(base, added)), outcome(base)

        planned, oracle = both_solvers(run)
        assert planned == oracle
        with obs.capture("fresh"):
            fresh = evaluate(rules + added)
        assert planned[0][0] == outcome(fresh)[0]

    @settings(max_examples=100, deadline=None)
    @given(templates(POSITIVE + NONMONOTONE), base_facts)
    def test_naive(self, texts, facts):
        program = rules_of(texts + facts)
        planned, oracle = both_solvers(
            lambda: outcome(evaluate(program, strategy="naive"))
        )
        assert planned == oracle


class TestKnowledgeBases:
    """The knowledge bases the example deployments and the eager KIND
    scenario build: domain maps, F-logic axioms, views, defaults."""

    @pytest.mark.parametrize(
        "stem", sorted(stem for stem, (_run, kbs) in PINNED_EXAMPLES.items() if kbs)
    )
    def test_example_deployments(self, stem):
        _tracer, built = run_example(stem)
        for mediator in built:
            program = list(mediator.engine().program())
            planned, oracle = both_solvers(lambda: outcome(evaluate(program)))
            assert planned == oracle

    def test_eager_kind_scenario(self):
        program = list(build_scenario(eager=True).mediator.engine().program())
        planned, oracle = both_solvers(lambda: outcome(evaluate(program)))
        assert planned == oracle


class TestSolve:
    """``solve`` (provenance's entry point) agrees with the oracle on
    every rule instance of every derived fact."""

    @settings(max_examples=100, deadline=None)
    @given(templates(POSITIVE + NONMONOTONE), base_facts)
    def test_rule_instances(self, texts, facts):
        rules = rules_of(texts + facts)
        store = evaluate(rules).store
        evaluator = engine._Evaluator(store)
        for rule in rules:
            if rule.is_fact:
                continue
            for args in store.rows(rule.head.signature):
                bindings = {}
                for pattern, ground in zip(rule.head.args, args):
                    if bindings is not None:
                        bindings = unify(pattern, ground, bindings)
                if bindings is None:
                    continue
                body = _order_body_items(list(rule.body))
                expected = [
                    sorted((v.name, str(substitute(v, s))) for v in set(rule.variables()))
                    for s in _solve(evaluator, body, 0, bindings, None, None)
                ]
                found = [
                    sorted((v.name, str(s[v])) for v in set(rule.variables()))
                    for s in solve(store, rule.body, bindings)
                ]
                assert sorted(found) == sorted(expected)


class TestPlanShape:
    def test_function_free_programs_never_unify(self, monkeypatch):
        calls = []
        original = engine.unify
        monkeypatch.setattr(
            engine, "unify", lambda *args: calls.append(args) or original(*args)
        )
        program = parse_program(
            """
            e(1, 2). e(2, 3). e(3, 3). g(1). g(3).
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
            loop(X) :- e(X, X).
            cst(X) :- e(X, 3), g(3).
            eq(X, Y) :- g(X), Y = X.
            plus(X, Y) :- g(X), Y is X + 1.
            lonely(X) :- g(X), not loop(X).
            cnt(X, N) :- g(X), N = count{Y [X]; t(X, Y)}.
            """
        )
        result = evaluate(program)
        assert result.is_true(parse_rule("cnt(1, 2).").head)
        assert result.is_true(parse_rule("loop(3).").head)
        assert calls == []

    def test_skolem_patterns_unify(self, monkeypatch):
        calls = []
        original = engine.unify
        monkeypatch.setattr(
            engine, "unify", lambda *args: calls.append(args) or original(*args)
        )
        program = parse_program("w(k(1)). w(j(2)). u(X) :- w(k(X)).")
        result = evaluate(program)
        assert [str(a) for a in result.facts("u")] == ["u(1)"]
        # only the compound pattern is unified, once per candidate row
        assert calls
        assert {str(pattern) for pattern, _row, _subst in calls} == {"k(X)"}

    def test_plans_are_compiled_once_per_delta_literal(self, monkeypatch):
        compiled = []

        class Counted(engine._Plan):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                compiled.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "_Plan", Counted)
        engine._plan_table.cache_clear()
        program = parse_program(
            """
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
            e(1, 2).
            """
        )
        base = evaluate(program)
        extra = [Rule(Atom("e", (Const(2), Const(n)))) for n in range(3, 6)]
        evaluate(list(program) + extra[:1], base=base)
        assert compiled
        count = len(compiled)
        for fact in extra[1:]:
            evaluate(list(program) + [fact], base=base)
        # rebuilt rule objects reuse the plans of the equal rules
        evaluate(parse_program("t(X, Y) :- e(X, Y). t(X, Y) :- t(X, Z), e(Z, Y). e(1, 2)."))
        assert len(compiled) == count

    def test_equal_rules_share_plans_only_with_equal_constants(self):
        text = "p(X, 1) :- q(X), r(X)."
        plan = engine._rule_plan(parse_rule(text))
        assert engine._rule_plan(parse_rule(text)) is plan
        assert parse_rule(text) == parse_rule("p(X, 1.0) :- q(X), r(X).")
        assert engine._rule_plan(parse_rule("p(X, 1.0) :- q(X), r(X).")) is not plan

    def test_rules_copy_and_pickle_without_their_plans(self):
        program = parse_program("q(1). p(X) :- q(X), X = 1.")
        evaluate(program)
        for rule in program:
            for copied in (pickle.loads(pickle.dumps(rule)), copy.deepcopy(rule)):
                assert copied == rule and copied._plans is None
            assert evaluate([pickle.loads(pickle.dumps(r)) for r in program]).facts("p")


class TestConstantTypes:
    """Const(1), Const(1.0) and Const(True) are equal; a derived fact
    still carries the constant its own rule wrote."""

    def test_head_constant_of_an_equal_rule(self):
        first = evaluate(parse_program("q(a). p(1) :- q(a)."))
        second = evaluate(parse_program("q(a). p(1.0) :- q(a)."))
        [one] = first.facts("p")
        [other] = second.facts("p")
        assert type(one.args[0].value) is int
        assert type(other.args[0].value) is float

    def test_solve_binds_the_constant_of_its_body(self):
        store = evaluate(parse_program("q(a).")).store
        [one] = solve(store, parse_rule("h(X) :- q(a), X = 1.").body, {})
        [other] = solve(store, parse_rule("h(X) :- q(a), X = 1.0.").body, {})
        assert [type(s.value) for s in one.values()] == [int]
        assert [type(s.value) for s in other.values()] == [float]


class TestPendingEquations:
    """An '=' with no bound side, ordered before the aggregate that
    binds one of its sides: it binds once that side is bound."""

    @pytest.mark.parametrize(
        "rule, expected",
        [
            ("p(X) :- X = N, N = count{Y; e(Y, Y)}.", ["p(2)"]),
            (
                "p(X) :- g(Z), X = k(N), N = sum{Y [Z]; e(Z, Y)}.",
                ["p(k(2))", "p(k(4))"],
            ),
        ],
    )
    def test_bound_by_a_later_aggregate(self, rule, expected):
        program = parse_program("e(1, 1). e(2, 2). e(1, 3). g(1). g(2). " + rule)
        result = evaluate(program)
        assert [str(atom) for atom in result.facts("p")] == expected

    @pytest.mark.parametrize("extra, expected", [("", ["p(1, 1)"]), ("e(3, 4).", [])])
    def test_partly_bound_sides_must_still_unify(self, extra, expected):
        # unsafe (B and D are never bound), so unchecked: the pending
        # equation binds nothing, yet it still requires A = C
        program = parse_program(
            "g(1). e(1, 2). %s p(A, C) :- k(A, B) = k(C, D), "
            "A = count{Y; g(Y)}, C = count{Y; e(Y, _)}." % extra
        )
        for run in both_solvers(lambda: evaluate(program, check_safety=False)):
            assert [str(atom) for atom in run.facts("p")] == expected
