"""Property-based tests (hypothesis) for the Datalog substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    Atom,
    Const,
    FactStore,
    Program,
    Rule,
    Struct,
    Var,
    evaluate,
    fact,
    parse_program,
    substitute,
    unify,
    well_founded_model,
)

# -- term strategies --------------------------------------------------

constants = st.one_of(
    st.integers(-5, 5),
    st.sampled_from(["a", "b", "c", "neuron", "spine"]),
).map(Const)

variables = st.sampled_from(["X", "Y", "Z"]).map(Var)


def terms(depth=2):
    if depth == 0:
        return st.one_of(constants, variables)
    return st.one_of(
        constants,
        variables,
        st.builds(
            lambda f, args: Struct(f, tuple(args)),
            st.sampled_from(["f", "g"]),
            st.lists(terms(depth - 1), min_size=1, max_size=2),
        ),
    )


ground_terms = st.one_of(
    constants,
    st.builds(
        lambda f, args: Struct(f, tuple(args)),
        st.sampled_from(["f", "g"]),
        st.lists(constants, min_size=1, max_size=2),
    ),
)


class TestUnificationProperties:
    @given(terms(), terms())
    def test_unify_produces_common_instance(self, t1, t2):
        subst = unify(t1, t2)
        if subst is not None:
            assert substitute(t1, subst) == substitute(t2, subst)

    @given(terms(), terms())
    def test_unify_symmetric_in_success(self, t1, t2):
        assert (unify(t1, t2) is None) == (unify(t2, t1) is None)

    @given(terms())
    def test_unify_reflexive(self, t):
        assert unify(t, t) == {}

    @given(ground_terms, ground_terms)
    def test_ground_unification_is_equality(self, t1, t2):
        subst = unify(t1, t2)
        assert (subst == {}) == (t1 == t2)
        if t1 != t2:
            assert subst is None

    @given(terms(), ground_terms)
    def test_substitution_after_unify_with_ground_is_ground(self, pattern, ground):
        subst = unify(pattern, ground)
        if subst is not None:
            assert substitute(pattern, subst) == ground


# -- graph / closure properties ---------------------------------------

edges_strategy = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    min_size=0,
    max_size=20,
)


def _tc_reference(edges):
    """Reference transitive closure via simple fixpoint over pairs."""
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


class TestEngineProperties:
    @settings(max_examples=40, deadline=None)
    @given(edges_strategy)
    def test_transitive_closure_matches_reference(self, edges):
        program = Program()
        for a, b in edges:
            program.add(fact("edge", Const(a), Const(b)))
        program.extend(
            parse_program(
                "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y)."
            )
        )
        result = evaluate(program)
        computed = {
            (atom.args[0].value, atom.args[1].value)
            for atom in result.store.iter_atoms("tc")
        }
        assert computed == _tc_reference(edges)

    @settings(max_examples=30, deadline=None)
    @given(edges_strategy)
    def test_model_is_minimal_fixpoint(self, edges):
        # Evaluating twice (feeding the model back as facts) must not
        # grow the model: the output is a fixpoint.
        program = Program()
        for a, b in edges:
            program.add(fact("edge", Const(a), Const(b)))
        program.extend(
            parse_program(
                "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y)."
            )
        )
        result = evaluate(program)
        again = Program(result.store.iter_atoms() and [])
        for atom in result.store.iter_atoms():
            again.add(Rule(atom))
        again.extend(
            parse_program(
                "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y)."
            )
        )
        assert evaluate(again).store.same_facts(result.store)

    @settings(max_examples=30, deadline=None)
    @given(edges_strategy)
    def test_wfs_of_win_move_partitions(self, edges):
        # True wins, false wins, and undefined positions partition nodes
        # with outgoing moves; no node is both true and undefined.
        program = Program()
        nodes = set()
        for a, b in edges:
            program.add(fact("move", Const(a), Const(b)))
            nodes.update((a, b))
        program.extend(parse_program("win(X) :- move(X, Y), not win(Y)."))
        true_store, undefined = well_founded_model(program)
        true_wins = {a.args[0].value for a in true_store.iter_atoms("win")}
        undef_wins = {a.args[0].value for a in undefined.iter_atoms("win")}
        assert not (true_wins & undef_wins)
        assert true_wins | undef_wins <= nodes

    @settings(max_examples=30, deadline=None)
    @given(edges_strategy)
    def test_wfs_win_consistency(self, edges):
        # If win(x) is true, some move x->y has win(y) definitely false.
        program = Program()
        for a, b in edges:
            program.add(fact("move", Const(a), Const(b)))
        program.extend(parse_program("win(X) :- move(X, Y), not win(Y)."))
        true_store, undefined = well_founded_model(program)
        true_wins = {a.args[0].value for a in true_store.iter_atoms("win")}
        undef_wins = {a.args[0].value for a in undefined.iter_atoms("win")}
        moves = {}
        for a, b in edges:
            moves.setdefault(a, set()).add(b)
        for x in true_wins:
            successors = moves.get(x, set())
            assert any(
                y not in true_wins and y not in undef_wins for y in successors
            )


class TestFactStoreProperties:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30))
    def test_store_deduplicates(self, pairs):
        store = FactStore()
        for a, b in pairs:
            store.add(Atom("p", (Const(a), Const(b))))
        assert len(store) == len(set(pairs))

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30))
    def test_index_lookup_superset_of_matches(self, pairs):
        store = FactStore()
        for a, b in pairs:
            store.add(Atom("p", (Const(a), Const(b))))
        candidates = set(store.index(("p", 2), (0,)).get(Const(3), ()))
        matching = {
            (Const(a), Const(b)) for a, b in set(pairs) if a == 3
        }
        assert matching <= candidates

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30))
    def test_copy_independent(self, pairs):
        store = FactStore()
        for a, b in pairs:
            store.add(Atom("p", (Const(a), Const(b))))
        clone = store.copy()
        clone.add(Atom("p", (Const(99), Const(99))))
        assert len(clone) == len(store) + 1

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30))
    def test_overlay_grows_only_its_written_relations(self, pairs):
        store = FactStore()
        for a, b in pairs:
            store.add(Atom("p", (Const(a), Const(b))))
            store.add(Atom("q", (Const(a),)))
        # an index built on the base is shared with the overlay
        index = store.index(("p", 2), (0,))
        indexed = set(index.get(Const(3), ()))
        before = store.copy()
        overlay = store.overlay({("q", 1)})
        overlay.add(Atom("q", (Const(99),)))
        for a, b in pairs:
            overlay.add(Atom("q", (Const(b + 10),)))
        assert store.same_facts(before)
        shared = overlay.index(("p", 2), (0,))
        assert shared is index
        assert set(shared.get(Const(3), ())) == indexed
        assert overlay.contains(Atom("q", (Const(99),)))
        assert len(overlay) == len(store) + 1 + len({b for _a, b in pairs})
