"""Pinned Datalog work counters for whole-knowledge-base evaluations.

``rule_firings`` and ``facts_derived`` are deterministic: they count
the rule instances the engine produced and the new facts they gave.
A change to how rules are joined must keep both, so this file pins
them for the eager KIND scenario's knowledge base and for the
knowledge base of every mediator the example deployments build.
The Section 5 correlation is pinned separately by the golden trace
``tests/obs/golden/section5_trace.txt``.

Regenerate (only when the evaluation's work is meant to change) with
``PYTHONPATH=src python -m tests.datalog.test_work_counters``.
"""

import contextlib
import io
import pathlib
import runpy

import pytest

from repro import obs
from repro.core import Mediator
from repro.datalog import evaluate
from repro.neuro import build_scenario

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

#: example stem -> the (evaluations, rule_firings, facts_derived)
#: totals of every evaluation the script runs (fresh, delta, extend,
#: well-founded), then (rule_firings, facts_derived) of the knowledge
#: base of each mediator it builds, in construction order
PINNED_EXAMPLES = {
    "cm_plugins": ((7, 665, 161), [(305, 72)]),
    "domain_map_reasoning": ((3, 257, 133), []),
    "lazy_and_integrity": ((12, 20559, 9824), [(1966, 498), (7536, 2819)]),
    "neuroscience_mediation": ((3, 9808, 3468), [(7536, 2819)]),
    "one_world_shopping": ((4, 286, 111), [(274, 99)]),
    "quickstart": ((5, 457, 150), [(233, 74)]),
}

#: the eager KIND scenario's whole knowledge base
PINNED_SCENARIO = (7536, 2819)


def counters(program):
    """(rule_firings, facts_derived) of a traced fresh evaluation."""
    with obs.capture("counters"):
        metrics = evaluate(program).metrics
    return metrics.rule_firings, metrics.facts_derived


def run_example(stem):
    """Run example `stem` under a tracer; returns the tracer and the
    mediators the script built, in construction order."""
    built = []
    original_init = Mediator.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        built.append(self)

    Mediator.__init__ = recording_init
    try:
        with obs.capture(stem) as tracer:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(
                    str(EXAMPLES / ("%s.py" % stem)), run_name="__main__"
                )
    finally:
        Mediator.__init__ = original_init
    return tracer, built


def example_counters(stem):
    """Totals over the run of example `stem`, then the counters of each
    knowledge base it built, as it stands when the script ends."""
    tracer, built = run_example(stem)
    totals = tuple(
        tracer.metrics.counter_total(name)
        for name in (
            "datalog.evaluations",
            "datalog.rule_firings",
            "datalog.facts_derived",
        )
    )
    return totals, [counters(mediator.engine().program()) for mediator in built]


def scenario_counters():
    mediator = build_scenario(eager=True).mediator
    return counters(mediator.engine().program())


def test_every_example_is_pinned():
    assert {path.stem for path in EXAMPLES.glob("*.py")} == set(PINNED_EXAMPLES)


@pytest.mark.parametrize("stem", sorted(PINNED_EXAMPLES))
def test_example_knowledge_base_counters(stem):
    assert example_counters(stem) == PINNED_EXAMPLES[stem]


def test_eager_kind_scenario_counters():
    assert scenario_counters() == PINNED_SCENARIO


if __name__ == "__main__":
    for path in sorted(EXAMPLES.glob("*.py")):
        print("    %r: %r," % (path.stem, example_counters(path.stem)))
    print("PINNED_SCENARIO = %r" % (scenario_counters(),))
