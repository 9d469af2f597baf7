"""Bottom-up evaluation: semi-naive, stratified, and well-founded.

The evaluator computes the minimal model of a safe program:

* **Stratified programs** are split into strata (:mod:`.stratify`) and
  each stratum is saturated by semi-naive iteration; negated and
  aggregated subgoals only ever reference relations completed in earlier
  strata, so they are evaluated against the accumulating store directly.
* **Non-stratifiable negation** falls back to the *alternating fixpoint*
  computation of the well-founded model (Van Gelder): a growing
  underestimate of true facts and a shrinking overestimate are iterated
  until both stabilize; facts in the overestimate but not the
  underestimate are *undefined*.  This is exactly the semantics the
  paper requires of the GCM rule language ("Datalog with well-founded
  negation", Section 3).

Rule bodies are greedily reordered so builtins and negation run as
soon as their variables are bound, which the safety check guarantees
is always eventually possible.  Each ordered body is compiled once
into a slot-indexed join plan (see "join plans" below) that every
evaluation path shares.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import Dict, List, Set, Tuple

from .. import obs
from ..errors import EvaluationError, StratificationError
from .ast import AggregateLiteral, Assignment, Atom, Comparison, Literal
from .builtins import compare_values, evaluate_expression
from .safety import check_program_safety
from .store import FactStore
from .stratify import is_aggregate_stratified, stratify
from .terms import Const, Struct, Term, Var, substitute, term_sort_key, unify


class EvaluationResult:
    """Outcome of evaluating a program.

    Attributes:
        store: all facts that are *true* in the computed model.
        undefined: facts with *undefined* truth value (empty unless the
            program needed the well-founded fallback).
        used_well_founded: True when the alternating fixpoint ran.
        strata: the stratification used (None under the fallback).
        metrics: an :class:`~repro.obs.EvaluationMetrics` record (rule
            firings, per-stratum/round fact counts, the ``derived_at``
            map) — populated only when a tracer was active during
            evaluation, None otherwise.
    """

    def __init__(self, store, undefined=None, used_well_founded=False, strata=None,
                 metrics=None):
        self.store = store
        self.undefined = undefined if undefined is not None else FactStore()
        self.used_well_founded = used_well_founded
        self.strata = strata
        self.metrics = metrics

    def is_true(self, atom):
        return self.store.contains(atom)

    def is_undefined(self, atom):
        return self.undefined.contains(atom)

    def facts(self, pred=None):
        return self.store.sorted_atoms(pred)


#: default ceiling on derived facts: compound (Skolem) terms make
#: non-terminating programs easy to write; hitting the ceiling raises a
#: diagnosable error instead of looping forever.
DEFAULT_MAX_FACTS = 2_000_000


def evaluate(program, check_safety=True, strategy="seminaive", max_facts=None,
             base=None):
    """Evaluate `program` and return an :class:`EvaluationResult`.

    Stratifiable programs get the stratified semi-naive treatment; with
    recursive negation the well-founded model is computed instead.
    Aggregation through recursion is always an error.

    `strategy` selects the fixpoint iteration: ``"seminaive"``
    (default) restricts recursive rules to the previous round's delta;
    ``"naive"`` re-fires every rule against the full store each round —
    kept for the ablation benchmark.

    `max_facts` bounds the derived-fact count (default
    :data:`DEFAULT_MAX_FACTS`); programs that create unboundedly many
    Skolem terms fail with :class:`EvaluationError` rather than running
    forever.

    `base` is an already-saturated, stratified result of `program`'s
    rules over other facts (facts already in its store may be left out
    of `program`).  The base store is copied (never mutated), the
    program's facts it lacks become the round-0 delta, and each
    stratum fires its rules only on derivations that use a new fact.
    The result equals a fresh evaluation provided no negated or
    aggregated literal depends on a predicate of the new facts (see
    :func:`~repro.datalog.stratify.nonmonotone_dependencies`) — the
    caller checks that; metrics count the delta work only.
    """
    if strategy not in ("seminaive", "naive"):
        raise EvaluationError("unknown evaluation strategy %r" % strategy)
    if check_safety:
        check_program_safety(program)
    tracer = obs.active()
    metrics = obs.EvaluationMetrics() if tracer.enabled else None
    if base is not None:
        if base.strata is None:
            raise EvaluationError(
                "a delta evaluation needs a stratified base result"
            )
        return _run_strata(
            program, base.strata, base.store.copy(), tracer, metrics,
            max_facts, seminaive=True, seed_from_base=True,
        )
    try:
        strata = stratify(program)
    except StratificationError:
        if not is_aggregate_stratified(program):
            raise
        true_store, undefined = well_founded_model(
            program, check_safety=False, metrics=metrics, max_facts=max_facts
        )
        if metrics is not None:
            metrics.store_size = len(true_store)
            metrics.undefined_count = len(undefined)
            tracer.count("datalog.evaluations")
        return EvaluationResult(
            true_store,
            undefined=undefined,
            used_well_founded=True,
            metrics=metrics,
        )
    return _run_strata(
        program, strata, FactStore(), tracer, metrics, max_facts,
        seminaive=(strategy == "seminaive"),
    )


def extend(base, rules):
    """Saturate `rules` over a copy of the saturated `base` result.

    The rules get their own strata, computed from them alone: every
    relation they do not define is read as complete in `base`, and
    shared with it (see :meth:`FactStore.overlay`; `base` is never
    mutated).  The result equals a fresh evaluation of the base program
    plus `rules` provided `base` is stratified and no base rule reads a
    relation one of `rules` defines — the caller checks that; metrics
    count the extension's work only.
    """
    if base.strata is None:
        raise EvaluationError("an extension needs a stratified base result")
    rules = list(rules)
    check_program_safety(rules)
    tracer = obs.active()
    metrics = obs.EvaluationMetrics() if tracer.enabled else None
    store = base.store.overlay({rule.head.signature for rule in rules})
    return _run_strata(
        rules, stratify(rules), store, tracer, metrics, None, seminaive=True
    )


def _run_strata(program, strata, store, tracer, metrics, max_facts, seminaive,
                seed_from_base=False):
    """Saturate `store` stratum by stratum.

    With `seed_from_base`, `store` is a copy of a saturated base: the
    program's facts it lacks are added first as the delta, and every
    stratum then only fires rules on derivations that use a fact of the
    delta (which grows with each stratum's derived facts).
    """
    evaluator = _Evaluator(
        store,
        seminaive=seminaive,
        max_facts=max_facts if max_facts is not None else DEFAULT_MAX_FACTS,
        tracer=tracer,
    )
    new = None
    if seed_from_base:
        new = FactStore()
        _add_facts([rule for rule in program if rule.is_fact], store, new)
        program = [rule for rule in program if not rule.is_fact]
    for index, stratum in enumerate(strata):
        rules = [r for r in program if r.head.signature in stratum]
        if metrics is None:
            evaluator.saturate(rules, new=new)
            continue
        stratum_metrics = metrics.begin_stratum(
            index, ("%s/%d" % sig for sig in stratum)
        )
        with tracer.span(
            "datalog.stratum", index=index, relations=len(stratum)
        ) as span:
            evaluator.saturate(
                rules,
                stratum_metrics=stratum_metrics,
                derived_at=metrics.derived_at,
                new=new,
            )
            span.set(
                facts_derived=stratum_metrics.facts_derived,
                rounds=len(stratum_metrics.rounds),
            )
    if metrics is not None:
        metrics.rule_firings = evaluator.rule_firings
        metrics.store_size = len(store)
        tracer.count("datalog.evaluations")
        tracer.count("datalog.rule_firings", evaluator.rule_firings)
        tracer.count("datalog.facts_derived", metrics.facts_derived)
        tracer.gauge("datalog.store_size", len(store))
    return EvaluationResult(store, strata=strata, metrics=metrics)


def query(program, goal, check_safety=True):
    """Evaluate `program` and return all bindings of `goal`'s variables.

    `goal` is an :class:`Atom` (possibly with variables).  The result is
    a deterministically ordered list of dicts mapping variable names to
    Python values (Const payloads) or terms (for Struct results).
    """
    result = evaluate(program, check_safety=check_safety)
    return match_atom(result.store, goal)


def match_atom(store, goal):
    """All bindings of `goal` against a fact store (deterministic order)."""
    solutions = []
    for args in store.rows(goal.signature):
        subst = {}
        ok = True
        for pattern, ground in zip(goal.args, args):
            unified = unify(pattern, ground, subst)
            if unified is None:
                ok = False
                break
            subst = unified
        if ok:
            solutions.append(_externalize(subst, goal))
    solutions.sort(key=lambda binding: sorted(
        (name, _sort_key_for(value)) for name, value in binding.items()
    ))
    return solutions


def _sort_key_for(value):
    if isinstance(value, Term):
        return term_sort_key(value)
    return (0, type(value).__name__, repr(value))


def _externalize(subst, goal):
    binding = {}
    for v in set(goal.variables()):
        if v.is_anonymous:
            continue
        value = substitute(v, subst)
        if isinstance(value, Const):
            binding[v.name] = value.value
        else:
            binding[v.name] = value
    return binding


def well_founded_model(program, check_safety=True, max_rounds=10_000, metrics=None,
                       max_facts=None):
    """Compute the well-founded model by alternating fixpoint.

    Returns ``(true_store, undefined_store)``.  The iteration maintains
    an underestimate T (facts certainly true) and an overestimate U
    (facts not certainly false): ``T_{i+1} = Gamma(U_i)`` and
    ``U_{i+1} = Gamma(T_{i+1})`` where Gamma(J) evaluates the program
    with ``not q`` read as ``q not in J``.  T grows, U shrinks, and both
    converge because the ground instantiation is finite for safe,
    terminating programs.

    `metrics` is an optional :class:`~repro.obs.EvaluationMetrics`
    whose ``wf_alternations`` records how many T/U alternations ran.
    `max_facts` bounds each Gamma evaluation as it bounds
    :func:`evaluate`.
    """
    if check_safety:
        check_program_safety(program)
    tracer = obs.active()
    rules = list(program)
    if max_facts is None:
        max_facts = DEFAULT_MAX_FACTS
    with tracer.span("datalog.wellfounded", rules=len(rules)) as wf_span:
        true_estimate = FactStore()  # T: certainly-true facts
        # U_0 = Gamma(empty): everything possible
        possible = _gamma(rules, FactStore(), max_facts)
        alternations = 0
        for _round in range(max_rounds):
            with tracer.span("datalog.wf_round", round=_round):
                new_true = _gamma(rules, possible, max_facts)
                new_possible = _gamma(rules, new_true, max_facts)
            alternations += 1
            if new_true.same_facts(true_estimate) and new_possible.same_facts(possible):
                break
            true_estimate, possible = new_true, new_possible
        else:
            raise EvaluationError("well-founded computation did not converge")
        if metrics is not None:
            metrics.wf_alternations = alternations
        if tracer.enabled:
            wf_span.set(alternations=alternations)
            tracer.count("datalog.wf_alternations", alternations)
    undefined = FactStore()
    for atom in possible.iter_atoms():
        if not true_estimate.contains(atom):
            undefined.add(atom)
    return true_estimate, undefined


def _gamma(rules, anti_store, max_facts):
    """Least model of `rules` with negation evaluated against `anti_store`."""
    store = FactStore()
    evaluator = _Evaluator(store, negation_store=anti_store, max_facts=max_facts)
    evaluator.saturate(rules)
    return store


def solve(store, body, bindings):
    """The substitutions that extend `bindings` and satisfy `body`.

    `body` is a conjunction of body items (literals, comparisons,
    assignments, aggregates), solved over the facts of `store`, with
    negated literals read against `store` too.  `bindings` maps
    variables to ground terms; those variables count as bound from the
    start.  Returns one dict per solution, mapping every variable the
    body binds (and every bound one) to its ground term, in the order
    the engine finds them.
    """
    bound = tuple(bindings)
    plan = _Plan(_order_body_items(body), None, bound=bound)
    initial = plan.initial + tuple(bindings[v] for v in bound)
    parts = plan.run((store, None, store), initial)
    return [{v: p[slot] for v, slot in plan.variables} for p in parts]


class _Evaluator:
    """Semi-naive saturation of a rule set against a shared store.

    With `negation_store` set, negated subgoals are tested against that
    fixed store (well-founded Gamma operator); otherwise they read the
    accumulating store, which is only sound when the evaluated rules are
    a stratum whose negated dependencies are already complete.
    """

    def __init__(self, store, negation_store=None, seminaive=True, max_facts=None,
                 tracer=None):
        self.store = store
        self.negation_store = negation_store
        self.seminaive = seminaive
        self.max_facts = max_facts
        self.tracer = tracer if tracer is not None else obs.NOOP
        #: rule-instance firings (heads produced, pre-dedup); only
        #: counted while a stratum_metrics record is being filled
        self.rule_firings = 0

    def _check_budget(self):
        if self.max_facts is not None and len(self.store) > self.max_facts:
            raise EvaluationError(
                "evaluation exceeded max_facts=%d (non-terminating Skolem "
                "recursion?)" % self.max_facts
            )

    def _fire(self, plan, delta):
        """The head argument tuples of one pass of `plan`, its delta
        literal (if any) reading `delta`."""
        negation = self.negation_store
        sources = (self.store, delta, self.store if negation is None else negation)
        return list(map(plan.emit, plan.run(sources)))

    # -- saturation --------------------------------------------------

    def saturate(self, rules, stratum_metrics=None, derived_at=None, new=None):
        """Saturate `rules` (one stratum) into the store.

        With `new` (the facts the store gained over a saturated base),
        the first pass fires each rule once per positive literal whose
        relation has new facts, that literal reading `new`; the facts
        this stratum derives join `new` after the first pass and after
        each round, for the later strata.
        """
        facts = [r for r in rules if r.is_fact]
        proper = [r for r in rules if not r.is_fact]
        collect = stratum_metrics is not None
        stratum_index = stratum_metrics.index if collect else 0
        store = self.store
        delta = FactStore()
        added = _add_facts(facts, store, delta)
        if collect and derived_at is not None:
            for (pred, _arity), rows in added.items():
                for args in rows:
                    derived_at.setdefault(Atom(pred, args), (stratum_index, 0))

        def derive(plan, source, target, round_no):
            """Fire `plan` (its delta literal reading `source`) and add
            the new heads to the store and to `target`."""
            heads = self._fire(plan, source)
            if collect:
                self.rule_firings += len(heads)
            pred, sig = plan.head.pred, plan.head.signature
            added = target.add_rows(sig, store.add_rows(sig, heads))
            if collect and derived_at is not None:
                for args in added:
                    derived_at.setdefault(Atom(pred, args), (stratum_index, round_no))

        local_sigs = {r.head.signature for r in rules}

        # First pass: every rule against the complete store (with
        # `new`: once per literal over a relation with new facts).
        # Heads are buffered per pass so the store is never mutated
        # while a relation or index of it is being iterated.
        for rule in proper:
            if new is None:
                passes = [_rule_plan(rule)]
            else:
                passes = [
                    _rule_plan(rule, item, 0)
                    for item in _rule_plan(rule).body
                    if _is_positive(item) and new.rows(item.atom.signature)
                ]
            for plan in passes:
                derive(plan, new, delta, 0)
        if new is not None:
            # later strata see this stratum's facts as new; the rounds
            # below read `delta`, never `new`
            new.merge(delta)
        if collect:
            stratum_metrics.rounds.append(len(delta))
            stratum_metrics.facts_derived += len(delta)

        # Semi-naive rounds: one join per recursive literal, that
        # literal reading the previous round's delta.
        recursive = []
        for rule in proper:
            body = _rule_plan(rule).body
            positions = [
                i
                for i, item in enumerate(body)
                if _is_positive(item) and item.atom.signature in local_sigs
            ]
            if positions:
                recursive.append((rule, _delta_plans(rule, body, positions, new)))

        if not self.seminaive:
            # Naive ablation: every recursive rule refires against the
            # full store each round until nothing new is derived.
            changed = bool(delta)
            round_no = 0
            while changed:
                round_no += 1
                derived = FactStore()
                for rule, _plans in recursive:
                    derive(_rule_plan(rule), None, derived, round_no)
                changed = bool(derived)
                if collect:
                    stratum_metrics.rounds.append(len(derived))
                    stratum_metrics.facts_derived += len(derived)
                self._check_budget()
            return

        if not recursive:
            self._check_budget()
            return

        round_no = 0
        while len(delta):
            round_no += 1
            with self.tracer.span(
                "datalog.round", round=round_no, delta_in=len(delta)
            ) as round_span:
                new_delta = FactStore()
                for _rule, plans in recursive:
                    for plan in plans:
                        derive(plan, delta, new_delta, round_no)
                if collect:
                    stratum_metrics.rounds.append(len(new_delta))
                    stratum_metrics.facts_derived += len(new_delta)
                    round_span.set(delta_out=len(new_delta))
            self._check_budget()
            delta = new_delta
            if new is not None:
                new.merge(delta)


def _add_facts(facts, store, target):
    """Add the heads of the fact rules `facts` to `store`, and the ones
    new to it to `target`; returns them as ``{signature: [args]}``."""
    batches: Dict[Tuple, List] = {}
    for rule in facts:
        head = rule.head
        if not head.is_ground():
            raise ValueError("cannot store non-ground fact: %s" % head)
        batches.setdefault(head.signature, []).append(head.args)
    return {
        sig: target.add_rows(sig, store.add_rows(sig, batch))
        for sig, batch in batches.items()
    }


def _delta_plans(rule, body, positions, new):
    """One plan per delta literal position of the greedily ordered
    `body`.

    Over a saturated base (`new` given) deltas are small, so each join
    starts from its delta literal; a fresh evaluation keeps the greedy
    order, where deltas are large.
    """
    if new is None:
        return [_rule_plan(rule, None, i) for i in positions]
    return [_rule_plan(rule, body[i], 0) for i in positions]


def _apply_aggregate(func, values):
    if func == "count":
        return len(set(values))
    numbers = []
    for v in values:
        if not isinstance(v, Const) or isinstance(v.value, str):
            raise EvaluationError(
                "aggregate %s over non-numeric value %s" % (func, v)
            )
        numbers.append(v.value)
    if not numbers:
        raise EvaluationError("aggregate %s over empty group" % func)
    # solutions arrive in fact-store (hash) order; adding the floats in
    # sorted order makes sums independent of it
    numbers.sort()
    if func == "sum":
        return sum(numbers)
    if func == "min":
        return min(numbers)
    if func == "max":
        return max(numbers)
    if func == "avg":
        return sum(numbers) / len(numbers)
    raise EvaluationError("unknown aggregate %r" % func)


def _is_positive(item):
    return isinstance(item, Literal) and item.positive


def _order_body_items(items, first=None):
    """Greedy order of `items`, starting with `first` when given."""
    ordered = []
    bound: Set[Var] = set()
    remaining = list(items)
    if first is not None:
        remaining.remove(first)
        ordered.append(first)
        bound.update(first.variables())
    while remaining:
        chosen = None
        # Priority 1: ready builtins / negation / aggregate (cheap filters).
        for item in remaining:
            if _is_ready_filter(item, bound):
                chosen = item
                break
        # Priority 2: the first positive literal (generator).
        if chosen is None:
            for item in remaining:
                if isinstance(item, Literal) and item.positive:
                    chosen = item
                    break
        # Priority 3: an '=' comparison with one groundable side, an
        # aggregate (they can self-bind), or anything left.
        if chosen is None:
            for item in remaining:
                if isinstance(item, (AggregateLiteral, Comparison, Assignment)):
                    chosen = item
                    break
        if chosen is None:
            chosen = remaining[0]
        remaining.remove(chosen)
        ordered.append(chosen)
        for v in chosen.variables():
            bound.add(v)
        if isinstance(chosen, AggregateLiteral):
            bound.update(chosen.inner_variables())
    return ordered


def _is_ready_filter(item, bound):
    """Is `item` a pure filter whose variables are already bound?"""
    if isinstance(item, Literal) and not item.positive:
        return all(v in bound or v.is_anonymous for v in item.variables())
    if isinstance(item, Comparison):
        if item.op == "=":
            left_ok = all(v in bound for v in item.left.variables())
            right_ok = all(v in bound for v in item.right.variables())
            return left_ok or right_ok
        return all(v in bound for v in item.variables())
    if isinstance(item, Assignment):
        return all(v in bound for v in item.expr.variables())
    return False


# -- join plans ---------------------------------------------------------
#
# A plan solves a body set-at-a-time.  A partial solution is a tuple:
# first the plan's constants, then one ground term per variable in the
# order the body binds them, so a variable's *slot* is a fixed index.
# Each step maps the list of partial solutions to their extensions.  A
# positive literal looks its rows up in a hash index keyed by the
# argument positions bound before it, appends the values of the
# positions that bind a new variable, and checks the positions that
# repeat one.  Unification remains only for compound (Struct) patterns
# with unbound variables: Skolem terms and reified tuples.
#
# A step reads its facts from `sources`, the triple (store, delta,
# negation target): positive literals read the store, or the delta at
# the plan's delta literal; negated ones read the negation target.


def _rule_plan(rule, first=None, delta=None):
    """The plan of `rule`'s body in greedy order (starting from the
    literal `first` when given), the literal at body index `delta`
    reading the delta.  Rules are immutable, so plans are shared by
    every evaluation of them."""
    plans = rule._plans
    if plans is None:
        plans = rule._plans = _plan_table(rule, repr(rule))
    plan = plans.get((first, delta))
    if plan is None:
        plan = plans[first, delta] = _Plan(
            _order_body_items(rule.body, first), delta, head=rule.head
        )
    return plan


@functools.lru_cache(maxsize=4096)
def _plan_table(rule, text):
    """The plans of the rule objects equal to `rule` (a knowledge base
    rebuilds its rules), keyed by ``(first, delta)``.  Equal rules may
    still differ in the type of a constant (1, 1.0, True) that a plan
    emits, so `text`, the rule's repr, is part of the key."""
    return {}


class _Plan:
    """A body compiled against slots (see the comment above).

    Attributes:
        body: the body items in join order.
        delta: index in `body` of the literal that reads the delta.
        head: the rule head the plan derives (None for a bare body).
        initial: the partial solution the plan starts from (its
            constants; pre-bound variables follow them).
        steps: one function per body item, ``step(parts, sources)``.
        emit: partial solution -> head argument tuple.
        variables: (variable, slot) pairs of the outer body.
    """

    __slots__ = ("body", "delta", "head", "initial", "steps", "emit", "variables")

    def __init__(self, body, delta, head=None, bound=()):
        self.body = body
        self.delta = delta
        self.head = head
        slots = {}
        constants = []
        for term in _atom_constants(body, head):
            key = _constant_key(term)
            if key not in slots:
                slots[key] = len(slots)
                constants.append(term)
        self.initial = tuple(constants)
        for v in bound:
            slots[v] = len(slots)
        self.steps = _compile_steps(body, slots, delta)
        self.variables = [(v, s) for v, s in slots.items() if isinstance(v, Var)]
        self.emit = None
        if head is not None:
            emit = _tuple_builder(head.args, slots)
            self.emit = emit if emit is not None else _raiser(
                "derived non-ground fact %s" % head
            )

    def run(self, sources, initial=None):
        """The complete solutions, as partial-solution tuples."""
        return _run(self.steps, [self.initial if initial is None else initial],
                    sources)


def _run(steps, parts, sources):
    for step in steps:
        if not parts:
            break
        parts = step(parts, sources)
    return parts


def _atom_constants(body, head):
    """The ground arguments of the atoms of `head` and `body`, aggregate
    subgoals included: they get slots in every partial solution."""
    atoms = [head] if head is not None else []
    items = list(body)
    while items:
        item = items.pop()
        if isinstance(item, Literal):
            atoms.append(item.atom)
        elif isinstance(item, AggregateLiteral):
            items.extend(item.body)
    return [arg for atom in atoms for arg in atom.args if arg.is_ground()]


def _constant_key(term):
    # Const(1), Const(1.0) and Const(True) are equal but print apart
    return (term, repr(term))


def _slot(term, slots):
    if isinstance(term, Var):
        return slots.get(term)
    if term.is_ground():
        return slots.get(_constant_key(term))
    return None


def _raiser(message):
    def fail(*_args):
        raise EvaluationError(message)
    return fail


def _tuple_getter(indices):
    """seq -> the tuple of its items at `indices`."""
    if not indices:
        return lambda seq: ()
    if len(indices) == 1:
        index = indices[0]
        return lambda seq: (seq[index],)
    return itemgetter(*indices)


def _term_builder(term, slots):
    """partial solution -> the ground value of `term`; None when a
    variable of `term` has no slot yet."""
    slot = _slot(term, slots)
    if slot is not None:
        return itemgetter(slot)
    if isinstance(term, Var):
        return None
    if term.is_ground():
        return lambda p: term
    builders = [_term_builder(arg, slots) for arg in term.args]
    if any(b is None for b in builders):
        return None
    functor = term.functor
    return lambda p: Struct(functor, tuple(b(p) for b in builders))


def _tuple_builder(terms, slots):
    """partial solution -> the tuple of the ground values of `terms`;
    None when one of them is not bound yet."""
    indices = [_slot(t, slots) for t in terms]
    if all(i is not None for i in indices):
        return _tuple_getter(indices)
    builders = [_term_builder(t, slots) for t in terms]
    if any(b is None for b in builders):
        return None
    return lambda p: tuple(b(p) for b in builders)


def _key_builder(terms, slots):
    """partial solution -> an index key over `terms` (see
    :meth:`FactStore.index`): the value itself for one term, the tuple
    of values for several."""
    if len(terms) == 1:
        return _term_builder(terms[0], slots)
    return _tuple_builder(terms, slots)


def _unique_variables(terms):
    seen = []
    for term in terms:
        for v in term.variables():
            if v not in seen:
                seen.append(v)
    return seen


_BIND, _CHECK, _EQUAL, _UNIFY = range(4)


def _matcher(patterns, slots):
    """Compile matching ground values against `patterns`.

    Returns ``match(p, values)``: the partial solution `p` extended by
    the variables of `patterns` that had no slot (they get the next
    slots, in order of first occurrence), or None on a mismatch.  A
    bare variable binds or is checked; a compound pattern with unbound
    variables is unified with its value.
    """
    ops = []
    for pattern in patterns:
        slot = _slot(pattern, slots)
        if slot is not None:
            ops.append((_CHECK, slot))
        elif isinstance(pattern, Var):
            slots[pattern] = len(slots)
            ops.append((_BIND, None))
        elif pattern.is_ground():
            ops.append((_EQUAL, pattern))
        else:
            variables = _unique_variables([pattern])
            bound = [(v, slots[v]) for v in variables if v in slots]
            fresh = [v for v in variables if v not in slots]
            for v in fresh:
                slots[v] = len(slots)
            ops.append((_UNIFY, (pattern, bound, fresh)))

    def match(p, values):
        q = list(p)
        for (kind, arg), value in zip(ops, values):
            if kind == _BIND:
                q.append(value)
            elif kind == _CHECK:
                if q[arg] != value:
                    return None
            elif kind == _EQUAL:
                if arg != value:
                    return None
            else:
                pattern, bound, fresh = arg
                subst = unify(pattern, value, {v: q[s] for v, s in bound})
                if subst is None:
                    return None
                q.extend(substitute(v, subst) for v in fresh)
        return tuple(q)

    return match


def _compile_steps(body, slots, delta, pending=()):
    """The steps of `body`; `slots` gains the variables the body binds.

    An ``=`` with no bound side (``X = N`` ordered before the aggregate
    that binds N) is *pending*: where it stands it only filters (the
    pending equations must unify under the bound slots), and it binds
    right after the step that binds one of its sides.  `pending` are
    the enclosing body's pending equations (for an aggregate subgoal).
    """
    steps = []
    pending = list(pending)
    for index, item in enumerate(body):
        known = len(slots)
        if isinstance(item, Literal) and item.positive:
            steps.append(_positive_step(item.atom, slots, 1 if index == delta else 0))
        elif isinstance(item, Literal):
            steps.append(_negative_step(item.atom, slots))
        elif isinstance(item, Comparison) and item.op == "=":
            if _has_bound_side(item, slots):
                steps.append(_unify_step(item, slots))
            else:
                pending.append(item)
                steps.append(_unifiable_step(pending, slots))
        elif isinstance(item, Comparison):
            steps.append(_comparison_step(item, slots))
        elif isinstance(item, Assignment):
            steps.append(_assignment_step(item, slots))
        elif isinstance(item, AggregateLiteral):
            steps.append(_aggregate_step(item, slots, pending))
        else:
            raise EvaluationError("unsupported body item %r" % (item,))
        if pending and len(slots) > known:
            steps.extend(_settle(pending, slots, set(list(slots)[known:])))
    return steps


def _has_bound_side(item, slots):
    return (_term_builder(item.left, slots) is not None
            or _term_builder(item.right, slots) is not None)


def _settle(pending, slots, fresh):
    """Steps after a step that bound the variables `fresh`: each pending
    equation with a bound side now binds (and stops pending); if the
    others read a fresh variable, they must still unify."""
    steps = []
    while True:
        ready = [item for item in pending if _has_bound_side(item, slots)]
        if not ready:
            break
        for item in ready:
            pending.remove(item)
            fresh.update(v for v in item.variables() if v not in slots)
            steps.append(_unify_step(item, slots))
    if any(v in fresh for item in pending for v in item.variables()):
        steps.append(_unifiable_step(pending, slots))
    return steps


def _positive_step(atom, slots, source):
    """Join with the rows of `atom`'s relation in ``sources[source]``."""
    sig = atom.signature
    keys = tuple(
        i for i, arg in enumerate(atom.args) if _term_builder(arg, slots)
    )
    rest = [i for i in range(len(atom.args)) if i not in keys]
    if not rest:
        row_of = _tuple_builder(atom.args, slots)

        def member(parts, sources):
            rows = sources[source].rows(sig)
            return [p for p in parts if row_of(p) in rows]

        return member

    key = _key_builder([atom.args[i] for i in keys], slots) if keys else None

    def candidates(store):
        """partial solution -> the rows it may join with"""
        if key is None:
            rows = store.rows(sig)
            return lambda p: rows
        get = store.index(sig, keys).get
        return lambda p: get(key(p), ())

    patterns = [atom.args[i] for i in rest]
    if len(set(patterns)) == len(patterns) and all(
        isinstance(arg, Var) for arg in patterns
    ):
        # the common case: every other position binds a new variable
        for v in patterns:
            slots[v] = len(slots)
        new = _tuple_getter(rest)

        def join(parts, sources):
            rows_of = candidates(sources[source])
            return [p + new(row) for p in parts for row in rows_of(p)]

        return join

    match = _matcher(patterns, slots)
    values = _tuple_getter(rest)

    def join_matching(parts, sources):
        rows_of = candidates(sources[source])
        out = []
        for p in parts:
            for row in rows_of(p):
                q = match(p, values(row))
                if q is not None:
                    out.append(q)
        return out

    return join_matching


def _negative_step(atom, slots):
    """Keep the partial solutions whose ground `atom` is absent from
    the negation target."""
    sig = atom.signature
    row_of = _tuple_builder(atom.args, slots)
    if row_of is None:
        return _raiser("negated subgoal %s not ground at evaluation time" % atom)

    def absent(parts, sources):
        rows = sources[2].rows(sig)
        return [p for p in parts if row_of(p) not in rows]

    return absent


def _unify_step(item, slots):
    """``left = right`` with a bound side: an equality test when both
    sides are bound, else the other side is matched against it."""
    left = _term_builder(item.left, slots)
    right = _term_builder(item.right, slots)
    if left is not None and right is not None:
        return lambda parts, sources: [p for p in parts if left(p) == right(p)]
    pattern, value = (item.left, right) if left is None else (item.right, left)
    match = _matcher([pattern], slots)

    def bind(parts, sources):
        out = []
        for p in parts:
            q = match(p, (value(p),))
            if q is not None:
                out.append(q)
        return out

    return bind


def _unifiable_step(equations, slots):
    """Keep the partial solutions under which the pending `equations`
    (see :func:`_compile_steps`) unify together."""
    equations = tuple(equations)
    terms = [term for item in equations for term in (item.left, item.right)]
    bound = [(v, slots[v]) for v in _unique_variables(terms) if v in slots]

    def unifiable(parts, sources):
        out = []
        for p in parts:
            subst = {v: p[s] for v, s in bound}
            for item in equations:
                subst = unify(item.left, item.right, subst)
                if subst is None:
                    break
            else:
                out.append(p)
        return out

    return unifiable


def _plain_value(term):
    return term.value if isinstance(term, Const) else term


def _comparison_step(item, slots):
    """A filter comparing two bound values (see
    :func:`~repro.datalog.builtins.compare_values`)."""
    left = _term_builder(item.left, slots)
    right = _term_builder(item.right, slots)
    if left is None or right is None:
        return _raiser("comparison %s has unbound arguments" % item)
    op = item.op

    def compare(parts, sources):
        return [
            p for p in parts
            if compare_values(op, _plain_value(left(p)), _plain_value(right(p)))
        ]

    return compare


def _assignment_step(item, slots):
    """``Target is Expr``: evaluate the expression, match the target."""
    variables = _unique_variables([item.expr])
    missing = [v for v in variables if v not in slots]
    if missing:
        return _raiser(
            "unbound variable %s in arithmetic expression" % missing[0]
        )
    bound = [(v, slots[v]) for v in variables]
    expr = item.expr
    match = _matcher([item.target], slots)

    def assign(parts, sources):
        out = []
        for p in parts:
            value = Const(evaluate_expression(expr, {v: p[s] for v, s in bound}))
            q = match(p, (value,))
            if q is not None:
                out.append(q)
        return out

    return assign


def _aggregate_step(agg, slots, pending):
    """Group the subgoal's solutions per partial solution and bind the
    grouping variables and the result, one extension per group.  The
    subgoal also obeys the `pending` equations of the body."""
    inner_slots = dict(slots)
    inner = _compile_steps(
        _order_body_items(agg.body), inner_slots, None, pending
    )
    group = _tuple_builder(agg.group_by, inner_slots)
    value = _term_builder(agg.value, inner_slots)
    if value is None:
        value = _raiser("aggregate value %s not ground" % agg.value)
    if group is None:
        group = _raiser("aggregate grouping %s not ground" % (agg.group_by,))
    match = _matcher(list(agg.group_by) + [agg.result], slots)
    func = agg.func

    def aggregate(parts, sources):
        inner_sources = (sources[0], None, sources[2])
        out = []
        for p in parts:
            groups: Dict[Tuple, List] = {}
            for q in _run(inner, [p], inner_sources):
                groups.setdefault(group(q), []).append(value(q))
            for key, values in sorted(
                groups.items(),
                key=lambda kv: tuple(term_sort_key(t) for t in kv[0]),
            ):
                q = match(p, key + (Const(_apply_aggregate(func, values)),))
                if q is not None:
                    out.append(q)
        return out

    return aggregate
