"""The package runs with no third-party runtime dependency.

A subprocess blocks ``import networkx`` (``sys.modules[name] = None``
makes the import raise) and then drives the paths that used graph
libraries: the Section 5 correlation (lub, part tree, stratification),
``repro lint`` (isa-cycle detection) and a Figure 3 registration.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
sys.modules["networkx"] = None

from repro.__main__ import main
from repro.domainmap import register_concepts
from repro.neuro import FIGURE3_REGISTRATION, build_figure3_base
from repro.neuro import build_scenario, section5_query

result = build_scenario().mediator.correlate(section5_query())
assert result.answers, "no Section 5 answers"
assert main(["lint"]) == 0
registered = register_concepts(build_figure3_base(), FIGURE3_REGISTRATION)
assert registered.new_concepts == ["MyDendrite", "MyNeuron"]
print("ok")
"""


def test_runs_without_networkx():
    env = dict(os.environ)
    paths = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + paths)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip().endswith("ok")
