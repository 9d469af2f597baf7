"""Graph operations on domain maps (Section 4 / Section 5).

The operations the paper "executes" during view definition and query
processing:

* :func:`isa_closure` — (reflexive-)transitive closure of isa,
* :func:`deductive_closure` — the paper's ``dc(R)``: role links
  propagated along the isa chains (down from the source, up to the
  target),
* :func:`has_a_star` — all inferable *direct* role links (``dc`` of a
  whole/part role w.r.t. isa),
* :func:`lub` / :func:`least_upper_bounds` — the least upper bound used
  in step 4 of the Section 5 query plan to pick a distribution root,
* :func:`downward_closure` / :func:`part_tree` — recursive traversal of
  the direct links below a root (what the mediator's `aggregate`
  function walks),
* :func:`region_of_correspondence` — the DM segment between the lub and
  a set of anchor concepts (the "region of correspondence" between
  sources).

Two backends are provided: the default in-memory closure index — built
once per :attr:`DomainMap.revision` and read by every operation above —
and :func:`closure_rules`, the paper's own Datalog program for
``tc``/``dc`` — the test-suite proves them equivalent.

Fidelity notes: the paper's ``dc`` rules are written with ``tc(isa)``;
read literally (irreflexive tc) they would exclude every base ``R``
link from ``has_a_star``, contradicting the intended use ("derives all
inferable direct has_a links").  We therefore use the reflexive closure
``rtc`` and additionally allow propagation at both ends simultaneously
(``rtc . R . rtc``), a superset of the literal two-rule version that
contains exactly the links justified by the DL semantics.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Set, Tuple

from .. import obs
from ..digraph import reachable
from ..errors import NoUpperBoundError
from ..datalog.ast import Program
from ..datalog.parser import parse_program
from .model import EQV, EX, ISA, _is_synthetic


def transitive_closure(pairs):
    """Transitive (not reflexive) closure of a set of pairs.

    A node on a cycle reaches itself, so (n, n) pairs appear for cyclic
    inputs even though the closure is not reflexive in general.
    """
    reach = _closure(_adjacency(pairs))
    return {(a, b) for a, below in reach.items() for b in below}


def _adjacency(pairs, nodes=()):
    adj: Dict[str, Set[str]] = {node: set() for node in nodes}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set())
    return adj


def _closure(adj):
    """Strict reachability of every node, ``{node: frozenset}``."""
    return {node: frozenset(reachable(adj, node)) for node in adj}


def _frozen(mapping):
    return {key: frozenset(value) for key, value in mapping.items()}


# ---------------------------------------------------------------------------
# The per-revision closure index
# ---------------------------------------------------------------------------

#: one order's navigation adjacency (see :func:`navigation_graph`) and
#: its strict descendant / ancestor and reflexive container maps
_Order = namedtuple("_Order", "adjacency descendants ancestors containers")


class _ClosureIndex:
    """What the graph operations read from one DM revision.

    Draws ``dm.edges()`` once and closes isa (eqv as mutual isa) at
    once; each role's ``dc`` and each order's maps are computed on first
    use.  Nothing changes once computed, so publishing the index with
    one attribute assignment makes it safe to read from any thread.
    """

    def __init__(self, dm):
        self.revision = dm.revision
        self.concepts = frozenset(dm.concepts)
        self.isa_pairs: Set[Tuple[str, str]] = set()
        self.role_links: Dict[str, Set[Tuple[str, str]]] = {}
        for e in dm.edges():
            if _is_synthetic(e.src) or _is_synthetic(e.dst):
                continue
            if e.kind in (ISA, EQV):
                self.isa_pairs.add((e.src, e.dst))
            if e.kind == EQV:
                self.isa_pairs.add((e.dst, e.src))
            elif e.kind == EX:
                self.role_links.setdefault(e.role, set()).add((e.src, e.dst))
        self._memo: Dict[tuple, object] = {}
        #: strict isa-ancestors / -descendants of every concept
        self.up = self.order("isa").ancestors
        self.down = self.order("isa").descendants
        self.tc = frozenset((a, b) for a, ups in self.up.items() for b in ups)
        self.rtc = self.tc | {(c, c) for c in self.concepts}

    def _memoized(self, key, compute):
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute()
        return value

    def dc(self, role, mode):
        return self._memoized(("dc", role, mode), lambda: self._dc(role, mode))

    def order(self, order, include_isa=True):
        include_isa = include_isa or order == "isa"
        key = ("order", order, include_isa)
        return self._memoized(key, lambda: self._order(order, include_isa))

    def _dc(self, role, mode):
        links: Set[Tuple[str, str]] = set()
        for src, dst in self.role_links.get(role, ()):
            below = self.down.get(src, frozenset()) | {src}
            above = self.up.get(dst, frozenset()) | {dst}
            if mode == "full":
                links.update((x, y) for x in below for y in above)
            elif mode == "paper":
                links.update((x, dst) for x in below)
                links.update((src, y) for y in above)
            elif mode == "down":
                links.update((x, dst) for x in below)
            else:
                raise ValueError("unknown dc mode %r" % mode)
        return frozenset(links)

    def _order(self, order, include_isa):
        role_edges = set()
        if order != "isa":
            targets_of = _adjacency(self.dc(order, "down"))
            # Redundant-edge elimination: an inherited generic link (X
            # has Compartment) is dropped when a strictly more specific
            # link (X has Parallel_Fiber, Parallel_Fiber v Compartment)
            # exists — the generic one is implied and descending isa
            # from it would wander into sibling regions.
            role_edges = {
                (x, d)
                for x, targets in targets_of.items()
                for d in targets
                if not any(d in self.up.get(o, ()) for o in targets if o != d)
            }
        edges = set(role_edges)
        if include_isa:
            edges |= {(sup, sub) for sub, sup in self.isa_pairs}
        adjacency = _frozen(_adjacency(edges, self.concepts))
        descendants = _closure(adjacency)
        ancestors = _closure(_adjacency({(v, u) for u, v in edges}, adjacency))
        # W contains X when a path W -> ... -> X crosses a role edge
        containers = {node: {node} for node in adjacency}
        for u, v in role_edges:
            for node in descendants[v] | {v}:
                containers[node] |= ancestors[u] | {u}
        return _Order(adjacency, descendants, ancestors, _frozen(containers))


def _index(dm):
    """The closure index of `dm`'s current revision, built on first use."""
    index = dm._closure_index
    if index is None or index.revision != dm.revision:
        with obs.span("dm.index", concepts=len(dm.concepts)) as span:
            index = _ClosureIndex(dm)
            if span.enabled:
                obs.count("dm.graphops", op="index")
        dm._closure_index = index
    return index


# ---------------------------------------------------------------------------
# Graph operations (reads of the index)
# ---------------------------------------------------------------------------


def isa_closure(dm, reflexive=True):
    """(Reflexive-)transitive closure of isa over the concepts."""
    with obs.span(
        "dm.tc", concepts=len(dm.concepts), reflexive=reflexive
    ) as span:
        index = _index(dm)
        pairs = index.rtc if reflexive else index.tc
        if span.enabled:
            span.set(pairs=len(pairs))
            obs.count("dm.graphops", op="tc")
        return pairs


def deductive_closure(dm, role, mode="full"):
    """The paper's ``dc(R)``: R links propagated along isa chains.

    Modes:

    * ``"full"`` (default) — ``rtc(isa) . R . rtc(isa)``: every link
      justified by combining downward source specialization and upward
      target generalization (what `has_a_star` queries should see).
    * ``"paper"`` — the literal two-rule reading over rtc: only one end
      moves per link.
    * ``"down"`` — source specialization only: subconcepts inherit
      their superconcept's links, targets stay put.  This is the right
      relation for *traversal*: generalizing targets upward (to, say,
      `Neuron`) and then descending isa again would leak into sibling
      regions of the map.
    """
    with obs.span("dm.dc", role=role, mode=mode) as span:
        links = _index(dm).dc(role, mode)
        if span.enabled:
            span.set(links=len(links))
            obs.count("dm.graphops", op="dc")
        return links


def has_a_star(dm, role="has"):
    """All inferable direct `role` links (``has_a_star`` of Section 4).

    Like the paper's relation, the result is *not* transitively closed:
    "it would be wasteful to compute the much larger tc(has_a_star) ...
    a recursive traversal of the direct links is sufficient".
    """
    return deductive_closure(dm, role)


def navigation_graph(dm, order="isa", include_isa=True):
    """The downward-navigation digraph for an ordering of the DM, as
    ``{node: frozenset(successors)}`` with every concept a key.

    With ``order="isa"`` the edges run general -> specific (``sup ->
    sub``).  With a role name (e.g. ``"has"``) the edges are the
    source-down deductive closure of the role (subconcepts inherit
    their superconcept's parts), and — when `include_isa` is on —
    additionally the isa specializations, because containment knowledge
    attaches at different granularities ("dendrites have branches;
    *shafts* (a kind of branch) have spines": reaching Spine from
    Dendrite navigates has, isa-down, has).  Target-up generalization
    is deliberately excluded from navigation: it would climb to generic
    concepts (`Neuron`) and descend into sibling regions.
    """
    return dict(_index(dm).order(order, include_isa).adjacency)


def role_containers(dm, concept, role, include_isa=True):
    """Concepts that *contain* `concept` under a role order.

    W contains X when some navigation path W -> ... -> X crosses at
    least one role edge — pure isa-generalization chains (Compartment
    "reaching" Purkinje_Dendrite) do not make a container.  Reflexive:
    every concept contains itself.
    """
    containers = _index(dm).order(role, include_isa).containers
    return containers.get(concept, frozenset((concept,)))


def ancestors(dm, concept, order="isa"):
    """All strict ancestors of a concept in the given order
    (isa-ancestors by default; containers for a role order)."""
    return _index(dm).order(order).ancestors.get(concept, frozenset())


def descendants(dm, concept, order="isa"):
    """All strict descendants of a concept in the given order."""
    return _index(dm).order(order).descendants.get(concept, frozenset())


def upper_bounds(dm, concepts, order="isa"):
    """Common ancestors (reflexive) of all the given concepts.

    For a role order, "ancestor" means *container*: the path must use
    at least one role edge (see :func:`role_containers`).
    """
    concepts = list(concepts)
    if not concepts:
        raise NoUpperBoundError("lub of an empty concept set is undefined")
    for concept in concepts:
        dm.require_concept(concept)
    nav = _index(dm).order(order)
    if order == "isa":
        bounds = [nav.ancestors[concept] | {concept} for concept in concepts]
    else:
        bounds = [nav.containers[concept] for concept in concepts]
    return frozenset.intersection(*bounds)


def least_upper_bounds(dm, concepts, order="isa"):
    """The minimal elements of the common upper bounds (sorted).

    In a DAG the lub need not be unique; all minimal common ancestors
    are returned, ordered by name for determinism.
    """
    concepts = list(concepts)
    with obs.span("dm.lub", concepts=len(concepts), order=order) as span:
        bounds = upper_bounds(dm, concepts, order)
        if not bounds:
            raise NoUpperBoundError(
                "concepts %s have no common %s-ancestor"
                % (sorted(concepts), order)
            )
        ancestors_of = _index(dm).order(order).ancestors
        result = sorted(
            b
            for b in bounds
            if not any(o != b and b in ancestors_of[o] for o in bounds)
        )
        if span.enabled:
            span.set(bounds=len(result))
            obs.count("dm.graphops", op="lub")
        return result


def lub(dm, concepts, order="isa"):
    """The least upper bound; ties are broken by name (documented and
    deterministic) so the Section 5 query plan always has one root.
    Step 4 of the Section 5 plan uses the containment order:
    ``lub(dm, locations, order="has")``."""
    return least_upper_bounds(dm, concepts, order)[0]


def part_tree(dm, root, role="has", include_isa=True):
    """The direct `role` links reachable from `root` — what the
    mediator's recursive `aggregate` traverses (Example 4) — as
    ``{node: frozenset(successors)}`` over the reachable nodes."""
    dm.require_concept(root)
    with obs.span("dm.part_tree", root=root, role=role) as span:
        nav = _index(dm).order(role, include_isa)
        reachable = nav.descendants[root] | {root}
        tree = {node: nav.adjacency[node] for node in sorted(reachable)}
        if span.enabled:
            span.set(nodes=len(tree))
            obs.count("dm.graphops", op="part_tree")
        return tree


def downward_closure(dm, root, role="has", include_isa=True):
    """All concepts reachable from `root` along direct `role` links."""
    return set(part_tree(dm, root, role, include_isa))


def region_of_correspondence(dm, anchors, role="has"):
    """The DM segment relating a set of anchor concepts (Section 5).

    Computes the lub of the anchors and returns the sub-DAG of direct
    `role`/isa links lying on paths from the lub down to each anchor —
    "a segment in the domain map as the region of correspondence
    between the two information sources" — as ``{node:
    frozenset(successors)}``.
    """
    anchors = list(anchors)
    root = lub(dm, anchors, order=role)
    nav = _index(dm).order(role)
    below_root = nav.descendants[root] | {root}
    region = {root}
    for anchor in anchors:
        region |= below_root & (nav.ancestors[anchor] | {anchor})
    return {node: nav.adjacency[node] & region for node in sorted(region)}


# ---------------------------------------------------------------------------
# Datalog backend (the paper's own rules)
# ---------------------------------------------------------------------------

CLOSURE_RULES = """
% Section 4, verbatim modulo naming: tc_/dc_/star_ prefixes replace the
% higher-order tc(R)/dc(R) notation.
tc_isa(X, Y) :- isa(X, Y).
tc_isa(X, Y) :- tc_isa(X, Z), tc_isa(Z, Y).
rtc_isa(X, X) :- concept(X).
rtc_isa(X, Y) :- tc_isa(X, Y).

dc_role(R, X, Y) :- rtc_isa(X, Z), role_edge(R, Z, Y).
dc_role(R, X, Y) :- role_edge(R, X, Z), rtc_isa(Z, Y).
dc_role(R, X, Y) :- rtc_isa(X, Z), role_edge(R, Z, W), rtc_isa(W, Y).

has_a_star(X, Y) :- dc_role(has, X, Y).
"""


def closure_program(dm):
    """Facts + the paper's closure rules as a Datalog program.

    Relations: ``concept/1``, ``isa/2``, ``role_edge/3`` (role, src,
    dst); derived: ``tc_isa/2``, ``rtc_isa/2``, ``dc_role/3``,
    ``has_a_star/2``.
    """
    program = Program()
    for concept in sorted(dm.concepts):
        program.add_fact("concept", concept)
    for sub, sup in sorted(dm.isa_pairs()):  # eqv pairs included both ways
        program.add_fact("isa", sub, sup)
    for src, role, dst in sorted(dm.role_triples()):
        program.add_fact("role_edge", role, src, dst)
    program.extend(parse_program(CLOSURE_RULES))
    return program


def closure_rules():
    """Just the rule part (for embedding into mediator programs)."""
    return list(parse_program(CLOSURE_RULES))
