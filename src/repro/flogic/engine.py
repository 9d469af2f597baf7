"""The F-logic engine facade.

:class:`FLogicEngine` is the deductive engine of the reproduction —
the stand-in for FLORA/FLORID in the paper's prototype.  It accepts
knowledge in F-logic syntax (or raw Datalog), maintains the translated
rule base together with the Table 1 axioms, and answers queries.

Value-inheritance axioms are only linked in when some ``*->`` default
exists in the knowledge base: they are the one axiom group that can make
programs non-stratifiable (intentionally — the paper resolves such
programs with the well-founded semantics), so keeping them out of
default-free programs preserves cheap stratified evaluation.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .. import obs
from ..datalog.ast import Atom, Program, Rule
from ..datalog.engine import EvaluationResult, evaluate, extend
from ..datalog.parser import parse_program as parse_datalog
from ..datalog.stratify import build_dependency_graph
from ..datalog.terms import Const, Term, Var, substitute, term_sort_key
from .ast import FLRule
from .axioms import core_axioms, signature_inheritance_axioms, value_inheritance_axioms
from .parser import parse_fl_body, parse_fl_program
from .translate import PRED_DEFAULT_VAL, Translator


class FLogicEngine:
    """An incremental F-logic knowledge base over the Datalog engine."""

    def __init__(self, signature_inheritance=True):
        self._rules: List[Rule] = []
        self._signature_inheritance = signature_inheritance
        self._result: Optional[EvaluationResult] = None
        #: signatures the assembled program's rule bodies read (cached
        #: with `_result`)
        self._reads: Optional[frozenset] = None

    # -- loading knowledge ------------------------------------------------

    def tell(self, fl_text):
        """Parse and add F-logic source text."""
        with obs.span("flogic.parse", chars=len(fl_text)) as span:
            fl_rules = parse_fl_program(fl_text)
            span.set(fl_rules=len(fl_rules))
        self.tell_fl_rules(fl_rules)
        return self

    def tell_fl_rules(self, fl_rules):
        """Add already-parsed F-logic rules."""
        fl_rules = list(fl_rules)
        with obs.span("flogic.translate", fl_rules=len(fl_rules)) as span:
            rules = Translator().translate_rules(fl_rules)
            span.set(datalog_rules=len(rules))
        self._add_rules(rules)
        return self

    def tell_datalog(self, text_or_program):
        """Add raw Datalog clauses (text or a Program/rule iterable)."""
        if isinstance(text_or_program, str):
            rules = list(parse_datalog(text_or_program))
        else:
            rules = list(text_or_program)
        self._add_rules(rules)
        return self

    def tell_rules(self, rules):
        """Add Datalog :class:`Rule` objects directly."""
        self._add_rules(list(rules))
        return self

    def add_fact(self, pred, *args):
        """Add one ground Datalog fact."""
        self._add_rules([Rule(Atom(pred, args))])
        return self

    def _add_rules(self, rules):
        if rules:
            self._rules.extend(rules)
            self._result = None
            self._reads = None

    # -- evaluation ---------------------------------------------------------

    @property
    def rules(self):
        return tuple(self._rules)

    def _uses_defaults(self):
        return any(
            rule.head.pred == PRED_DEFAULT_VAL for rule in self._rules
        )

    def _axioms(self):
        axioms = list(core_axioms())
        if self._signature_inheritance:
            axioms.extend(signature_inheritance_axioms())
        if self._uses_defaults():
            axioms.extend(value_inheritance_axioms())
        return axioms

    def _assemble(self, extra_rules=()):
        program = Program(self._rules)
        program.extend(self._axioms())
        program.extend(extra_rules)
        return program

    def program(self, extra_rules=()):
        """The fully assembled Datalog program the engine would run —
        told rules plus core/inheritance axioms — without evaluating
        anything.  Static analysis (``repro lint``) works on this."""
        return self._assemble(extra_rules=extra_rules)

    def evaluate(self, check_safety=True):
        """Evaluate the knowledge base; results are cached until the
        next `tell`.

        ``check_safety=False`` skips the per-rule range-restriction
        check — only for callers that already verified the same rules
        (e.g. the mediator re-evaluating its static program against
        lazily fetched facts).
        """
        if self._result is None:
            with obs.span("flogic.evaluate", rules=len(self._rules)) as span:
                self._result = evaluate(
                    self._assemble(), check_safety=check_safety
                )
                span.set(facts=len(self._result.store))
        return self._result

    @property
    def store(self):
        return self.evaluate().store

    # -- queries ----------------------------------------------------------

    def ask(self, query_text):
        """Answer an F-logic query conjunction.

        Returns a deterministically ordered list of bindings (dicts from
        variable name to Python value / term), one per answer.  Example::

            engine.ask("X : neuron[has -> C]")

        The query rule and its negation helpers are saturated over the
        knowledge base's cached evaluation (``path=extend`` on the
        span); the whole program is evaluated afresh (``path=fresh``)
        when that evaluation needed the well-founded fallback or a
        knowledge-base rule reads a relation a new query rule defines.
        """
        with obs.span("flogic.ask", query=query_text) as ask_span:
            fl_items = parse_fl_body(query_text)
            body, aux_rules = Translator().translate_body(fl_items)
            answer_vars = sorted(
                {
                    v
                    for item in body
                    for v in item.variables()
                    if not v.is_anonymous and not v.name.startswith("_fl")
                },
                key=lambda v: v.name,
            )
            goal = Atom("_query", tuple(answer_vars))
            query_rules = list(aux_rules) + [Rule(goal, tuple(body))]
            base = self.evaluate()
            if self._extends(base, query_rules):
                ask_span.set(path="extend")
                result = extend(base, query_rules)
            else:
                ask_span.set(path="fresh")
                result = evaluate(self._assemble(extra_rules=query_rules))
            ask_span.set(answers=len(list(result.store.rows(goal.signature))))
        bindings = []
        for args in result.store.rows(goal.signature):
            binding = {}
            for variable, value in zip(answer_vars, args):
                binding[variable.name] = (
                    value.value if isinstance(value, Const) else value
                )
            bindings.append(binding)
        bindings.sort(
            key=lambda b: [
                (name, _sort_key(value)) for name, value in sorted(b.items())
            ]
        )
        return bindings

    def _extends(self, base, rules):
        """Can `rules` be saturated over the evaluation `base` alone?

        Not when `base` is well-founded, nor when a program rule reads
        the head of one of `rules` that the program lacks: its
        conclusions would be missing from `base`.
        """
        if base.used_well_founded:
            return False
        reads = self._reads
        if reads is None:
            proper = [rule for rule in self._rules if not rule.is_fact]
            graph = build_dependency_graph(proper + self._axioms()).graph
            reads = self._reads = frozenset().union(*graph.values())
        read = [rule for rule in rules if rule.head.signature in reads]
        if not read:
            return True
        program = self._assemble()
        return all(rule in program for rule in read)

    def holds(self, query_text):
        """True when the query has at least one answer."""
        return bool(self.ask(query_text))

    def explain(self, query_text):
        """A derivation tree for one ground F-logic fact, or None.

        The query must translate to a single ground atom, e.g.
        ``"p1 : neuron"`` or ``"p1[age -> 12]"``.
        """
        from ..datalog.ast import Literal
        from ..datalog.provenance import explain as datalog_explain

        fl_items = parse_fl_body(query_text)
        body, aux_rules = Translator().translate_body(fl_items)
        if aux_rules or len(body) != 1 or not isinstance(body[0], Literal):
            raise ValueError(
                "explain() takes a single positive ground fact, got %r"
                % query_text
            )
        atom = body[0].atom
        if not atom.is_ground():
            raise ValueError("explain() needs a ground fact, got %s" % atom)
        return datalog_explain(self._assemble(), atom, result=self.evaluate())

    # -- introspection ------------------------------------------------------

    def classes(self):
        """All known classes (members of the metaclass)."""
        return sorted(
            {
                args[0].value
                for args in self.store.rows(("class", 1))
                if isinstance(args[0], Const)
            },
            key=str,
        )

    def instances_of(self, class_name):
        """All direct-or-inherited instances of a class."""
        rows = self.ask("X : '%s'" % class_name)
        return [row["X"] for row in rows]

    def subclasses_of(self, class_name):
        """All subclasses (reflexive-transitive) of a class."""
        rows = self.ask("X :: '%s'" % class_name)
        return [row["X"] for row in rows]


def _sort_key(value):
    if isinstance(value, Term):
        return term_sort_key(value)
    return (0, type(value).__name__, repr(value))
