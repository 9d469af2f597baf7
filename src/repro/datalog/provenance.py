"""Provenance: derivation trees for derived facts.

A mediated answer combines knowledge from several sources, domain-map
axioms and view rules; *why is this fact true?* is the first question a
mediation engineer asks.  :func:`explain` reconstructs a proof tree for
a ground atom from the evaluated model:

* an EDB fact explains itself,
* a derived atom is explained by a rule instance whose positive body
  atoms are recursively explained, whose negative subgoals are justified
  by absence from the model (closed world), and whose builtins are
  checked directly,
* the proof is canonical: of minimal height (a fact has height 1, a
  rule instance one more than its tallest positive subgoal), then the
  first rule in program order, then the first instance in term order
  of its positive subgoals — so it never depends on the store's set
  iteration order, and every subgoal is strictly shallower than its
  parent, which makes the tree well-founded.

Reconstruction is top-down over the *already computed* model, so it
never derives anything new; it only arranges existing facts into a
proof.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import EvaluationError
from .ast import AggregateLiteral, Assignment, Atom, Comparison, Literal, Program, Rule
from .engine import _Evaluator, _order_body_items, evaluate
from .terms import term_sort_key, unify


class Derivation:
    """One node of a proof tree.

    `derived_at` is an optional (stratum, round) pair recording when
    the evaluator first derived this atom — filled in from
    :class:`~repro.obs.EvaluationMetrics` when the evaluation ran
    under a tracer (see :func:`explain`'s `metrics` argument).
    """

    def __init__(self, atom, rule=None, children=(), note=None, derived_at=None):
        self.atom = atom
        self.rule = rule
        self.children = list(children)
        self.note = note
        self.derived_at = derived_at

    def annotate(self, metrics):
        """Recursively attach (stratum, round) pairs from an
        :class:`~repro.obs.EvaluationMetrics` record; returns self."""
        if metrics is not None and metrics.derived_at:
            for node in self._walk():
                node.derived_at = metrics.derived_at.get(node.atom)
        return self

    def _walk(self):
        yield self
        for child in self.children:
            yield from child._walk()

    @property
    def is_fact(self):
        return self.rule is not None and self.rule.is_fact

    def depth(self):
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def leaves(self):
        """The EDB facts / builtin checks this proof bottoms out in."""
        if not self.children:
            return [self]
        out = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def format(self, indent=0):
        pad = "  " * indent
        label = str(self.atom)
        if self.note:
            label = "%s   [%s]" % (label, self.note)
        elif self.rule is not None and self.rule.is_fact:
            label += "   [fact]"
        elif self.rule is not None:
            label += "   [rule: %s]" % self.rule
        if self.derived_at is not None:
            label += "   (stratum %d, round %d)" % self.derived_at
        lines = [pad + label]
        for child in self.children:
            lines.append(child.format(indent + 1))
        return "\n".join(lines)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return "Derivation(%s, children=%d)" % (self.atom, len(self.children))


#: how a proof shows the body items it checks directly
_LEAF_NOTES = {
    Comparison: "builtin",
    Assignment: "arithmetic",
    AggregateLiteral: "aggregate",
}


def _term_order(instance):
    return [(g.pred, [term_sort_key(t) for t in g.args]) for g in instance[2]]


class _Explainer:
    def __init__(self, program, store):
        self.store = store
        self.rules_by_sig: Dict[Tuple[str, int], List[Rule]] = {}
        for rule in program:
            self.rules_by_sig.setdefault(rule.head.signature, []).append(rule)
        self.solver = _Evaluator(store)
        #: atom -> its (rule, solution, positive subgoals) instances
        self.instances: Dict[Atom, List[tuple]] = {}
        #: (atom, height) -> its first instance with a proof that high
        self.within: Dict[Tuple[Atom, int], Optional[tuple]] = {}
        self.memo: Dict[Atom, Optional[Derivation]] = {}

    def explain(self, atom):
        if atom not in self.memo:
            self.memo[atom] = None
            # a shallowest proof repeats no atom along a branch
            for height in range(1, len(self.store) + 1):
                instance = self._within(atom, height)
                if instance is not None:
                    rule, solution, _subgoals = instance
                    children = self._explain_body(rule.body, solution)
                    self.memo[atom] = Derivation(atom, rule, children)
                    break
        return self.memo[atom]

    def _within(self, atom, height):
        if height < 1:
            return None
        key = (atom, height)
        if key not in self.within:
            self.within[key] = next(
                (
                    instance
                    for instance in self._instances(atom)
                    if all(self._within(goal, height - 1) for goal in instance[2])
                ),
                None,
            )
        return self.within[key]

    def _instances(self, atom):
        """Facts first, then rule instances in program order, each
        rule's in term order of its positive subgoals."""
        if atom not in self.instances:
            found = []
            rules = self.rules_by_sig.get(atom.signature, ())
            if not self.store.contains(atom):
                rules = ()
            for rule in sorted(rules, key=lambda rule: not rule.is_fact):
                subst = {}
                for pattern, ground in zip(rule.head.args, atom.args):
                    if subst is not None:
                        subst = unify(pattern, ground, subst)
                if subst is None:
                    continue
                body = _order_body_items(list(rule.body))
                goals = list(rule.positive_body_atoms())
                instances = [
                    (rule, solution, tuple(g.substitute(solution) for g in goals))
                    for solution in self.solver._solve(body, 0, subst, None, None)
                ]
                found += sorted(instances, key=_term_order)
            self.instances[atom] = found
        return self.instances[atom]

    def _explain_body(self, body, solution):
        children: List[Derivation] = []
        for item in body:
            if isinstance(item, Literal) and item.positive:
                children.append(self.explain(item.atom.substitute(solution)))
            elif isinstance(item, Literal):
                ground = item.atom.substitute(solution)
                children.append(Derivation(ground, note="absent (closed world)"))
            else:
                note = _LEAF_NOTES[type(item)]
                children.append(Derivation(item.substitute(solution), note=note))
        return children


def explain(program, atom, result=None, metrics=None):
    """Build a :class:`Derivation` for a ground atom, or None.

    Args:
        program: the program that was (or will be) evaluated.
        atom: the ground atom to explain.
        result: a prior :class:`EvaluationResult` to reuse; evaluated
            fresh when omitted.
        metrics: an :class:`~repro.obs.EvaluationMetrics` whose
            ``derived_at`` map annotates each proof node with the
            (stratum, round) it was first derived in.  Defaults to
            ``result.metrics`` when the evaluation ran under a tracer.
    """
    if not atom.is_ground():
        raise EvaluationError("can only explain ground atoms, got %s" % atom)
    if result is None:
        result = evaluate(program)
    if metrics is None:
        metrics = getattr(result, "metrics", None)
    explainer = _Explainer(program, result.store)
    derivation = explainer.explain(atom)
    if derivation is not None:
        derivation.annotate(metrics)
    return derivation
