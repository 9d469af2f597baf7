"""``FLogicEngine.ask`` over the engine's cached evaluation.

An ask saturates only its query rule and negation helpers over the
saturated knowledge base (``path=extend`` on the ``flogic.ask`` span).
A well-founded base, or a knowledge-base rule that reads a relation a
new query rule defines, makes it evaluate the whole program afresh
(``path=fresh``).  Both paths must give the same answers.
"""

import contextlib
import io
import pathlib
import runpy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import Mediator
from repro.datalog import Atom, Literal, Rule, Var, evaluate
from repro.flogic import FLogicEngine
from repro.flogic.parser import parse_fl_body
from repro.flogic.translate import Translator
from repro.neuro import analysis, build_scenario

#: the example scripts that deploy a mediator
DEPLOYMENTS = [
    path
    for path in sorted(
        (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
    )
    if "Mediator" in path.read_text() or "build_scenario" in path.read_text()
]

#: every F-logic ask of repro.neuro.analysis
ANALYSES = [
    analysis.spine_length_by_condition,
    analysis.spine_length_by_species_age,
    lambda mediator: analysis.protein_amount_by_compartment(mediator, "calcium"),
    lambda mediator: analysis.protein_amount_by_compartment(mediator, "chloride"),
    analysis.correlate_worlds,
]


def traced_ask(engine, query, ask=FLogicEngine.ask):
    """(path attribute, answers) of one ask."""
    with obs.capture("ask") as tracer:
        answers = ask(engine, query)
    [span] = tracer.find_spans("flogic.ask")
    return span.attrs["path"], answers


def fresh_ask(engine, query, ask=FLogicEngine.ask):
    """The answers of a whole-program evaluation (the fresh path)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FLogicEngine, "_extends", lambda self, base, rules: False)
        return ask(engine, query)


@pytest.fixture
def checked_asks(monkeypatch):
    """Patch ``FLogicEngine.ask`` to record, per call, its path and
    whether its answers equal the fresh path's."""
    checked = []

    def ask(self, query):
        path, answers = traced_ask(self, query)
        checked.append((path, answers == fresh_ask(self, query)))
        return answers

    monkeypatch.setattr(FLogicEngine, "ask", ask)
    return checked


def recording_mediators(monkeypatch):
    built = []
    original_init = Mediator.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Mediator, "__init__", recording_init)
    return built


class TestExtendEqualsFresh:
    @pytest.mark.parametrize("path", DEPLOYMENTS, ids=lambda p: p.stem)
    def test_example_deployments(self, path, monkeypatch, checked_asks):
        built = recording_mediators(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")
        assert built
        for mediator in built:
            for run_analysis in ANALYSES:
                run_analysis(mediator)
        assert checked_asks
        assert all(same for _path, same in checked_asks)
        assert "extend" in {path for path, _same in checked_asks}

    @pytest.mark.parametrize("eager", [True, False], ids=["eager", "lazy"])
    def test_analyses_on_the_kind_scenario(self, eager, checked_asks):
        mediator = build_scenario(eager=eager).mediator
        for run_analysis in ANALYSES:
            run_analysis(mediator)
        assert len(checked_asks) == 6
        assert checked_asks == [("extend", True)] * 6


#: knowledge base of the generated programs: recursion, stratified
#: negation and an aggregate over told facts
KB_RULES = """
r(X, Y) :- p(X, Y).
r(X, Z) :- r(X, Y), p(Y, Z).
lonely(X) :- q(X), not r(X, X).
X : node :- p(X, Y).
out(X, N) :- q(X), N = count{Y; p(X, Y)}.
"""

#: query shapes over that knowledge base: negated conjunctions (which
#: need `_not_` helpers), aggregates, and plain joins
QUERIES = [
    "r(X, Y)",
    "X : node, not lonely(X)",
    "q(X), not (r(X, Z), q(Z))",
    "X : node, not (p(X, Y), not q(Y))",
    "N = count{Y [X]; r(X, Y)}",
    "T = sum{W [X]; w(X, W), lonely(X)}, not (p(X, Y), q(Y))",
    "M = max{W; w(X, W), r(X, X)}",
    "out(X, N), N > 1",
    "q(X), not (w(X, W), W > 2)",
]

NODES = ["a", "b", "c", "d", "e"]


def program_text(edges, marked, weights):
    lines = ["p(%s, %s)." % edge for edge in edges]
    lines += ["q(%s)." % node for node in marked]
    lines += ["w(%s, %d)." % pair for pair in weights]
    return "\n".join(lines) + KB_RULES


class TestGeneratedPrograms:
    @settings(max_examples=60, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
            max_size=8,
        ),
        marked=st.lists(st.sampled_from(NODES), max_size=4),
        weights=st.lists(
            st.tuples(st.sampled_from(NODES), st.integers(0, 5)), max_size=5
        ),
        queries=st.lists(st.sampled_from(QUERIES), min_size=1, max_size=4),
    )
    def test_extend_equals_fresh(self, edges, marked, weights, queries):
        engine = FLogicEngine()
        engine.tell(program_text(edges, marked, weights))
        for query in queries:
            path, answers = traced_ask(engine, query)
            assert path == "extend"
            assert answers == fresh_ask(engine, query)
        # the extensions shared the base store and left it as it was
        assert engine.evaluate().store.same_facts(
            evaluate(engine.program()).store
        )


def helper_head(query):
    """The `_not_` helper predicate the query's translation defines."""
    _body, [aux] = Translator().translate_body(parse_fl_body(query))
    return aux.head.pred


def reader(head, body):
    """The rule ``head(X) :- body(X)``."""
    x = Var("X")
    return Rule(Atom(head, (x,)), (Literal(Atom(body, (x,))),))


class TestFreshPath:
    QUERY = "q(X), not (p(X, Z), q(Z))"

    def engine(self, extra=""):
        engine = FLogicEngine()
        engine.tell("p(a, b). p(b, c). q(a). q(b). q(c).\n" + extra)
        return engine

    def test_well_founded_base(self):
        engine = self.engine(
            "move(a, b). move(b, a). move(b, c).\n"
            "win(X) :- move(X, Y), not win(Y)."
        )
        assert engine.evaluate().used_well_founded
        for query in ("win(X)", self.QUERY):
            path, answers = traced_ask(engine, query)
            assert path == "fresh"
            assert answers == fresh_ask(engine, query)
        assert traced_ask(engine, "win(X)")[1] == [{"X": "b"}]

    def test_kb_rule_reads_a_helper_head(self, monkeypatch):
        query = "seen(Y), q(X), not (p(X, Z), q(Z))"
        engine = self.engine()
        engine.tell_rules([reader("seen", helper_head(query))])
        path, answers = traced_ask(engine, query)
        assert path == "fresh"
        assert answers == [{"X": "c", "Y": "a"}, {"X": "c", "Y": "b"}]
        # over the base alone `seen` would be empty
        with monkeypatch.context() as patch:
            patch.setattr(FLogicEngine, "_extends", lambda self, base, rules: True)
            assert engine.ask(query) == []

    def test_kb_rule_reads_the_query_head(self):
        engine = self.engine()
        engine.tell_rules([reader("seen", "_query")])
        assert traced_ask(engine, "q(X)")[0] == "fresh"

    def test_helper_already_in_the_kb_extends(self):
        # the same negated conjunction in a told rule translates to the
        # identical helper rule: the base holds all its conclusions
        engine = self.engine("u(X) :- %s." % self.QUERY)
        path, answers = traced_ask(engine, self.QUERY)
        assert path == "extend"
        assert answers == fresh_ask(engine, self.QUERY)
        assert answers == [{"X": "c"}]


class TestNoBaseWorkOnRepeatedAsks:
    QUERY = "X : protein_amount"

    @staticmethod
    def traced(mediator, query):
        with obs.capture("ask") as tracer:
            answers = mediator.ask(query)
        return tracer, answers

    def assert_no_base_strata(self, tracer, answers):
        assert not tracer.find_spans("flogic.evaluate")
        strata = tracer.find_spans("datalog.stratum")
        assert len(strata) == 1
        assert strata[0].parent.name == "flogic.ask"
        assert strata[0].attrs["facts_derived"] == len(answers)

    def test_second_ask_opens_no_base_strata(self):
        mediator = build_scenario(eager=True).mediator
        first, answers = self.traced(mediator, self.QUERY)
        assert first.find_spans("flogic.evaluate")
        assert len(first.find_spans("datalog.stratum")) > 1
        second, again = self.traced(mediator, self.QUERY)
        assert again == answers
        self.assert_no_base_strata(second, again)

    def test_a_write_that_keeps_the_program_keeps_the_base(self):
        mediator = build_scenario(eager=False).mediator
        self.traced(mediator, self.QUERY)
        # a lazy source re-registering leaves the rules as they were
        wrapper = mediator.wrapper("NCMIR")
        mediator.deregister("NCMIR")
        mediator.register(wrapper, eager=False)
        tracer, answers = self.traced(mediator, self.QUERY)
        self.assert_no_base_strata(tracer, answers)
