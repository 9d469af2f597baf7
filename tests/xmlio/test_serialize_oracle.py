"""The single-pass serializer against the recursive one it replaced.

Every wire message the example deployments and the KIND scenario (with
the XML query dialogue on) build is serialized again by the reference
serializer below and must come out byte-identical.
"""

import contextlib
import io
import pathlib
import runpy

import pytest

from repro.core import registration
from repro.neuro import build_scenario, section5_query
from repro.xmlio import doc, gcm_xml, messages

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


def reference_serialize(element, indent=0):
    """The recursive serializer: each level joins its subtree again."""
    pad = "  " * indent
    pieces = [pad, "<", element.tag]
    for key in sorted(element.attrib):
        pieces.append(' %s="%s"' % (key, doc._escape_attr(element.attrib[key])))
    children = list(element)
    text = (element.text or "").strip()
    if not children and not text:
        pieces.append("/>")
        return "".join(pieces)
    pieces.append(">")
    if text:
        pieces.append(doc._escape_text(text))
    if children:
        for child in children:
            pieces.append("\n")
            pieces.append(reference_serialize(child, indent + 1))
        pieces.append("\n")
        pieces.append(pad)
    pieces.append("</%s>" % element.tag)
    return "".join(pieces)


@pytest.fixture
def recorded(monkeypatch):
    """(root tag, bytes, reference bytes) of every message serialized."""
    seen = []

    def recording(element, indent=0):
        text = doc.serialize(element, indent)
        seen.append((element.tag, text, reference_serialize(element, indent)))
        return text

    for module in (messages, registration, gcm_xml):
        monkeypatch.setattr(module, "serialize", recording)
    return seen


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_messages(path, recorded):
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(path), run_name="__main__")
    assert all(text == reference for _tag, text, reference in recorded)


def test_registration_and_query_messages(recorded):
    for eager in (True, False):
        build_scenario(
            eager=eager, dialogue_via_xml=True, include_anatom_source=True
        ).mediator.correlate(section5_query())
    tags = {tag for tag, _text, _reference in recorded}
    assert {"register", "source-query", "answer"} <= tags
    assert all(text == reference for _tag, text, reference in recorded)


def test_indent_and_escaping():
    root = doc.parse_xml(
        '<a z="1 &amp; &quot;2&quot;" b="&lt;x&gt;"> t &amp; u '
        "<b/><c>v</c><d k='1'><e>w &lt; y</e></d></a>"
    )
    for indent in (0, 1, 3):
        assert doc.serialize(root, indent) == reference_serialize(root, indent)
