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

Rule bodies are greedily reordered at evaluation time so builtins and
negation run as soon as their variables are bound, which the safety
check guarantees is always eventually possible.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..errors import EvaluationError, StratificationError
from .ast import AggregateLiteral, Assignment, Atom, Comparison, Literal, Program, Rule
from .builtins import solve_assignment, solve_comparison
from .safety import check_program_safety
from .store import FactStore
from .stratify import is_aggregate_stratified, stratify
from .terms import Const, Struct, Term, Var, substitute, term_sort_key, unify, walk


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
            program, check_safety=False, metrics=metrics
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
        proper = []
        for rule in program:
            if not rule.is_fact:
                proper.append(rule)
            elif store.add_row(rule.head.signature, rule.head.args):
                new.add_row(rule.head.signature, rule.head.args)
        program = proper
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


def well_founded_model(program, check_safety=True, max_rounds=10_000, metrics=None):
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
    """
    if check_safety:
        check_program_safety(program)
    tracer = obs.active()
    rules = list(program)
    with tracer.span("datalog.wellfounded", rules=len(rules)) as wf_span:
        true_estimate = FactStore()  # T: certainly-true facts
        possible = _gamma(rules, FactStore())  # U_0 = Gamma(empty): everything possible
        alternations = 0
        for _round in range(max_rounds):
            with tracer.span("datalog.wf_round", round=_round):
                new_true = _gamma(rules, possible)
                new_possible = _gamma(rules, new_true)
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


def _gamma(rules, anti_store):
    """Least model of `rules` with negation evaluated against `anti_store`."""
    store = FactStore()
    evaluator = _Evaluator(store, negation_store=anti_store)
    evaluator.saturate(rules)
    return store


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
        delta = FactStore()
        for rule in facts:
            if self.store.add(rule.head):
                delta.add(rule.head)
                if collect and derived_at is not None:
                    derived_at.setdefault(rule.head, (stratum_index, 0))

        local_sigs = {r.head.signature for r in rules}
        ordered = [(rule, _order_body(rule)) for rule in proper]

        # First pass: every rule against the complete store (with
        # `new`: once per literal over a relation with new facts).
        # Heads are buffered per rule so the store is never mutated
        # while a candidate set from the same relation is being iterated.
        for rule, body in ordered:
            if new is None:
                positions = [None]
            else:
                positions = [
                    i
                    for i, item in enumerate(body)
                    if isinstance(item, Literal)
                    and item.positive
                    and new.rows(item.atom.signature)
                ]
            for pass_body, position in _joins(rule, body, positions, new):
                heads = [
                    rule.head.substitute(subst)
                    for subst in self._solve(pass_body, 0, {}, position, new)
                ]
                if collect:
                    self.rule_firings += len(heads)
                for head in heads:
                    if not head.is_ground():
                        raise EvaluationError("derived non-ground fact %s" % head)
                    if self.store.add(head):
                        delta.add(head)
                        if collect and derived_at is not None:
                            derived_at.setdefault(head, (stratum_index, 0))
        if new is not None:
            # later strata see this stratum's facts as new; the rounds
            # below read `delta`, never `new`
            new.merge(delta)
        if collect:
            stratum_metrics.rounds.append(len(delta))
            stratum_metrics.facts_derived += len(delta)

        # Semi-naive rounds: require one recursive literal in the delta.
        recursive = []
        for rule, body in ordered:
            delta_positions = [
                i
                for i, item in enumerate(body)
                if isinstance(item, Literal)
                and item.positive
                and item.atom.signature in local_sigs
            ]
            if delta_positions:
                recursive.append(
                    (rule, body, _joins(rule, body, delta_positions, new))
                )

        if not self.seminaive:
            # Naive ablation: every recursive rule refires against the
            # full store each round until nothing new is derived.
            changed = bool(delta)
            round_no = 0
            while changed:
                changed = False
                round_no += 1
                derived_this_round = 0
                for rule, body, _passes in recursive:
                    heads = [
                        rule.head.substitute(subst)
                        for subst in self._solve(body, 0, {}, None, None)
                    ]
                    if collect:
                        self.rule_firings += len(heads)
                    for head in heads:
                        if self.store.add(head):
                            changed = True
                            derived_this_round += 1
                            if collect and derived_at is not None:
                                derived_at.setdefault(
                                    head, (stratum_index, round_no)
                                )
                if collect:
                    stratum_metrics.rounds.append(derived_this_round)
                    stratum_metrics.facts_derived += derived_this_round
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
                for rule, _body, passes in recursive:
                    for pass_body, position in passes:
                        heads = [
                            rule.head.substitute(subst)
                            for subst in self._solve(pass_body, 0, {}, position, delta)
                        ]
                        if collect:
                            self.rule_firings += len(heads)
                        for head in heads:
                            if not head.is_ground():
                                raise EvaluationError(
                                    "derived non-ground fact %s" % head
                                )
                            if self.store.add(head):
                                new_delta.add(head)
                                if collect and derived_at is not None:
                                    derived_at.setdefault(
                                        head, (stratum_index, round_no)
                                    )
                if collect:
                    stratum_metrics.rounds.append(len(new_delta))
                    stratum_metrics.facts_derived += len(new_delta)
                    round_span.set(delta_out=len(new_delta))
            self._check_budget()
            delta = new_delta
            if new is not None:
                new.merge(delta)

    # -- body solving ------------------------------------------------

    def _solve(self, body, index, subst, delta_position, delta):
        """Yield substitutions satisfying body[index:] under `subst`.

        When `delta_position` is not None, the literal at that body
        index draws its candidate facts from `delta` instead of the full
        store (semi-naive restriction).
        """
        if index == len(body):
            yield subst
            return
        item = body[index]
        if isinstance(item, Literal):
            if item.positive:
                source = (
                    delta
                    if delta_position == index and delta is not None
                    else self.store
                )
                atom = item.atom
                for args in source.candidates(atom, subst):
                    new = subst
                    ok = True
                    for pattern, ground in zip(atom.args, args):
                        new = unify(pattern, ground, new)
                        if new is None:
                            ok = False
                            break
                    if ok:
                        yield from self._solve(
                            body, index + 1, new, delta_position, delta
                        )
            else:
                ground = item.atom.substitute(subst)
                if not ground.is_ground():
                    raise EvaluationError(
                        "negated subgoal %s not ground at evaluation time"
                        % ground
                    )
                target = (
                    self.negation_store
                    if self.negation_store is not None
                    else self.store
                )
                if not target.contains(ground):
                    yield from self._solve(
                        body, index + 1, subst, delta_position, delta
                    )
        elif isinstance(item, Comparison):
            for new in solve_comparison(item, subst):
                yield from self._solve(body, index + 1, new, delta_position, delta)
        elif isinstance(item, Assignment):
            for new in solve_assignment(item, subst):
                yield from self._solve(body, index + 1, new, delta_position, delta)
        elif isinstance(item, AggregateLiteral):
            for new in self._solve_aggregate(item, subst):
                yield from self._solve(body, index + 1, new, delta_position, delta)
        else:
            raise EvaluationError("unsupported body item %r" % (item,))

    def _solve_aggregate(self, agg, subst):
        """Group the aggregate subgoal's solutions and bind the result."""
        inner_body = _order_body_items(list(agg.body))
        groups: Dict[Tuple, List] = {}
        for inner in self._solve(inner_body, 0, dict(subst), None, None):
            key = tuple(substitute(g, inner) for g in agg.group_by)
            value = substitute(agg.value, inner)
            if not value.is_ground():
                raise EvaluationError(
                    "aggregate value %s not ground" % value
                )
            groups.setdefault(key, []).append(value)
        for key, values in sorted(
            groups.items(),
            key=lambda kv: tuple(term_sort_key(t) for t in kv[0]),
        ):
            result_value = _apply_aggregate(agg.func, values)
            new = dict(subst)
            ok = True
            for pattern, ground in zip(agg.group_by, key):
                unified = unify(pattern, ground, new)
                if unified is None:
                    ok = False
                    break
                new = unified
            if not ok:
                continue
            unified = unify(agg.result, Const(result_value), new)
            if unified is not None:
                yield unified


def _joins(rule, body, positions, new):
    """(body, delta position) pairs: one join per delta literal position
    of the greedily ordered `body` (None: no delta literal).

    Over a saturated base (`new` given) deltas are small, so each join
    starts from its delta literal; a fresh evaluation keeps the greedy
    order, where deltas are large.
    """
    if new is None:
        return [(body, i) for i in positions]
    return [(_order_body_items(rule.body, first=body[i]), 0) for i in positions]


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


def _order_body(rule):
    """Greedy evaluation order for a rule body (see module docstring)."""
    return _order_body_items(list(rule.body))


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
