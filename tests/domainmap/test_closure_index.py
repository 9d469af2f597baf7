"""The per-revision closure index behind the graph operations.

Every public graph op reads one index per ``DomainMap.revision``.  The
properties here interleave map edits with reads on one long-lived map
and check each read against a fresh copy (which builds its own index)
and, for the closures, against the paper's Datalog rules.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.datalog import evaluate
from repro.domainmap import (
    DomainMap,
    ancestors,
    closure_program,
    deductive_closure,
    descendants,
    downward_closure,
    has_a_star,
    isa_closure,
    least_upper_bounds,
    lub,
    navigation_graph,
    part_tree,
    region_of_correspondence,
    register_concepts,
    role_containers,
    upper_bounds,
)
from repro.neuro import build_anatom, build_scenario, section5_query

BASE = ["C0", "C1", "C2", "C3", "C4", "C5"]
ROLES = ["has", "part"]
ORDERS = ["isa"] + ROLES


def fresh_dm():
    dm = DomainMap("churn")
    dm.add_concepts(BASE)
    dm.add_roles(ROLES)
    return dm


def _outcome(op, dm, args):
    try:
        return op(dm, *args)
    except Exception as exc:  # noqa: BLE001 - both sides must fail alike
        return type(exc)


def _datalog_closures(dm):
    store = evaluate(closure_program(dm)).store
    pairs = lambda pred: {  # noqa: E731
        tuple(arg.value for arg in atom.args) for atom in store.iter_atoms(pred)
    }
    return pairs("rtc_isa"), pairs("tc_isa"), pairs("dc_role")


def _mutate(data, dm, fresh_names):
    concepts = sorted(dm.concepts)
    pick = lambda: data.draw(st.sampled_from(concepts))  # noqa: E731
    kind = data.draw(
        st.sampled_from(["isa", "ex", "eqv", "add_axiom", "register"])
    )
    if kind == "isa":
        dm.isa(pick(), pick())
    elif kind == "ex":
        dm.ex(pick(), data.draw(st.sampled_from(ROLES)), pick())
    elif kind == "eqv":
        dm.eqv(pick(), pick())
    elif kind == "add_axiom":
        # a disjunctive target draws a synthetic OR node
        dm.add_axiom(
            "%s < exists %s.(%s | %s)"
            % (pick(), data.draw(st.sampled_from(ROLES)), pick(), pick())
        )
    else:
        name = "N%d" % next(fresh_names)
        register_concepts(
            dm,
            "%s < %s & exists %s.%s"
            % (name, pick(), data.draw(st.sampled_from(ROLES)), pick()),
        )


def _read(data, dm):
    """One public graph op with drawn arguments, as (op, args)."""
    concepts = sorted(dm.concepts)
    concept = st.sampled_from(concepts)
    some = st.lists(concept, min_size=1, max_size=3)
    order, role = st.sampled_from(ORDERS), st.sampled_from(ROLES)
    flag = st.booleans()
    choices = [
        (isa_closure, (flag,)),
        (deductive_closure, (role, st.sampled_from(["full", "paper", "down"]))),
        (has_a_star, (role,)),
        (navigation_graph, (order, flag)),
        (ancestors, (concept, order)),
        (descendants, (concept, order)),
        (role_containers, (concept, role, flag)),
        (upper_bounds, (some, order)),
        (least_upper_bounds, (some, order)),
        (lub, (some, order)),
        (part_tree, (concept, role, flag)),
        (downward_closure, (concept, role, flag)),
        (region_of_correspondence, (some, role)),
    ]
    op, arg_strategies = data.draw(st.sampled_from(choices))
    return op, tuple(data.draw(s) for s in arg_strategies)


class TestStaleness:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_reads_between_edits_equal_a_fresh_index(self, data):
        dm = fresh_dm()
        fresh_names = iter(range(100))
        for _ in range(data.draw(st.integers(1, 12))):
            if data.draw(st.booleans()):
                _mutate(data, dm, fresh_names)
            for _ in range(data.draw(st.integers(1, 4))):
                op, args = _read(data, dm)
                expected = _outcome(op, dm.copy(), args)
                assert _outcome(op, dm, args) == expected, (op.__name__, args)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_closures_equal_the_datalog_backend_after_each_edit(self, data):
        dm = fresh_dm()
        fresh_names = iter(range(100))
        for _ in range(data.draw(st.integers(1, 6))):
            _mutate(data, dm, fresh_names)
            rtc, tc, dc = _datalog_closures(dm)
            assert isa_closure(dm) == rtc
            assert isa_closure(dm, reflexive=False) == tc
            for role in ROLES:
                assert has_a_star(dm, role) == {
                    (x, y) for r, x, y in dc if r == role
                }


class TestOneIndexPerRevision:
    def _read_everything(self, dm):
        isa_closure(dm)
        isa_closure(dm, reflexive=False)
        for role in ("has", "contains"):
            has_a_star(dm, role)
            deductive_closure(dm, role, mode="down")
            role_containers(dm, "Spine", role)
        ancestors(dm, "Spine")
        descendants(dm, "Neuron", "has")
        lub(dm, ["Purkinje_Cell", "Purkinje_Dendrite"], order="has")
        part_tree(dm, "Cerebellum")
        region_of_correspondence(dm, ["Spine", "Branch"])

    def test_edges_are_drawn_once_per_revision(self, monkeypatch):
        dm = build_anatom()
        draws = []
        draw = dm.edges
        monkeypatch.setattr(dm, "edges", lambda: draws.append(1) or draw())
        self._read_everything(dm)
        self._read_everything(dm)
        assert len(draws) == 1
        dm.isa("Extra_Spine", "Spine")
        self._read_everything(dm)
        assert len(draws) == 2

    def test_closures_are_computed_once(self):
        dm = build_anatom()
        assert isa_closure(dm) is isa_closure(dm)
        assert has_a_star(dm) is has_a_star(dm)
        assert role_containers(dm, "Spine", "has") is role_containers(
            dm, "Spine", "has"
        )

    def test_results_cannot_corrupt_the_index(self):
        dm = build_anatom()
        graph = navigation_graph(dm, "has")
        graph.clear()
        tree = part_tree(dm, "Cerebellum")
        tree.clear()
        assert navigation_graph(dm, "has") == navigation_graph(dm.copy(), "has")
        assert part_tree(dm, "Cerebellum") == part_tree(dm.copy(), "Cerebellum")
        with pytest.raises(AttributeError):
            isa_closure(dm).add(("x", "y"))


class TestIndexTrace:
    def test_second_correlate_builds_no_index_and_an_edit_builds_one(self):
        mediator = build_scenario(include_anatom_source=True).mediator
        mediator.correlate(section5_query())
        with obs.capture("again") as again:
            mediator.correlate(section5_query())
        assert again.find_spans("dm.lub")
        assert not again.find_spans("dm.index")
        mediator.dm.isa("Extra_Compartment", "Compartment")
        with obs.capture("edited") as edited:
            mediator.correlate(section5_query())
        assert len(edited.find_spans("dm.index")) == 1
        assert edited.metrics.counter_value("dm.graphops", op="index") == 1
