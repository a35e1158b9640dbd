"""The benchmark times the program through the functions that `bench/child.py`
names: a function renamed in `newscoherence` would drop its span silently. It
also counts sentences and tokens through `Document.sentences`, which must read
the encoded corpus whole."""

from __future__ import annotations

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

from newscoherence.corpus import Document, LabeledCorpus, Label, segment_corpus

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


@functools.cache
def _child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def _targets() -> list[tuple[str, str]]:
    child = _child()
    return sorted({(module, function)
                   for module, function, _ in child.SETUP_TARGETS + child.TRACE_TARGETS})


@pytest.mark.parametrize("module, function", _targets())
def test_bench_target_exists(module, function):
    assert callable(getattr(importlib.import_module(f"newscoherence.{module}"), function, None))


def test_bench_counts_are_the_encoded_counts():
    child = _child()
    docs = [Document(id="a", label=Label.FAKE, text="Budget vote today. The 2020 BUDGET passed!",
                     title="Budget news"),
            Document(id="b", label=Label.FAKE, text="No budget. Dr. Who x_y came.  "),
            Document(id="c", label=Label.FAKE, text="... ,")]
    tracer = child.Tracer()
    segment = tracer.wrap("corpus.segment", segment_corpus)
    tracer.call("cli.report", segment, (LabeledCorpus(documents=docs),), {"include_title": True})
    metrics = child.layer_metrics(tracer.spans, tracer.spans[0])
    sentences = sum(len(d.sentences.starts) - 1 for d in docs)
    tokens = sum(len(d.sentences.ids) for d in docs)
    assert (sentences, tokens) == (6, 16)
    assert sum(len(d.sentences) for d in docs) == metrics["corpus.sentences"] == sentences
    assert sum(len(s.tokens) for d in docs for s in d.sentences) == \
        metrics["corpus.tokens"] == tokens
