from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from newscoherence.corpus import Document, LabeledCorpus, Label, segment_corpus
from newscoherence.embeddings import EmbeddingTable
from newscoherence.entitylink import build_gazetteer, link_corpus


def make_table(vectors: dict[str, list[float]]) -> EmbeddingTable:
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(
        dim=dim,
        entries={t: np.array(v, dtype=np.float64) for t, v in vectors.items()},
    )


def save_vectors_text(table: EmbeddingTable, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{len(table.entries)} {table.dim}\n")
        for token, vec in table.entries.items():
            f.write(token + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def write_jsonl(corpus: LabeledCorpus, path: str | Path) -> None:
    """Write the JSONL schema byte-stably (fixed key order id,label,title,text)."""
    with open(path, "w", encoding="utf-8") as f:
        for doc in corpus.documents:
            obj = {"id": doc.id, "label": doc.label}
            if doc.title is not None:
                obj["title"] = doc.title
            obj["text"] = doc.text
            f.write(json.dumps(obj, ensure_ascii=False) + "\n")


@pytest.fixture(scope="session")
def _no_cache_dir(tmp_path_factory) -> Path:
    """A path under a regular file: no directory can be made there."""
    blocker = tmp_path_factory.mktemp("no-cache") / "file"
    blocker.write_bytes(b"")
    return blocker / "cache"


@pytest.fixture(autouse=True)
def _no_vector_cache(monkeypatch, _no_cache_dir):
    """No test reads or writes the user's vector cache: every load parses, in this
    process and in the ones it starts. A test that wants a cache asks for
    `vector_cache`."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(_no_cache_dir))


@pytest.fixture
def vector_cache(tmp_path_factory, monkeypatch) -> Path:
    """An empty vector cache for this test alone: the directory its entries go to."""
    root = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    return root / "newscoherence"


@pytest.fixture
def toy_table() -> EmbeddingTable:
    return make_table({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]})


def make_doc(doc_id: str, text: str, label: str = Label.FAKE) -> Document:
    doc = Document(id=doc_id, label=label, text=text)
    corpus = LabeledCorpus(documents=[doc])
    segment_corpus(corpus)
    return doc


# --- synthetic topic-mixture corpus (shared by directional tests) ------------

N_TOPICS = 3
WORDS_PER_TOPIC = 30
ENTITIES_PER_TOPIC = 4
_TOPIC_NAMES = ("Alpha", "Beta", "Gamma")


def topic_word(topic: int, i: int) -> str:
    return f"t{topic}w{i}"


def synthetic_word_table(rng: np.random.Generator, dim: int = 6) -> EmbeddingTable:
    entries = {}
    for topic in range(N_TOPICS):
        base = np.zeros(dim)
        base[topic] = 1.0
        for i in range(WORDS_PER_TOPIC):
            entries[topic_word(topic, i)] = base + 0.25 * rng.normal(size=dim)
    return make_table({t: list(v) for t, v in entries.items()})


def synthetic_entity_table(rng: np.random.Generator, dim: int = 6) -> EmbeddingTable:
    entries = {}
    for topic, tname in enumerate(_TOPIC_NAMES):
        base = np.zeros(dim)
        base[topic + 3] = 1.0
        for i in range(ENTITIES_PER_TOPIC):
            entries[f"{tname}_Item{i}"] = base + 0.2 * rng.normal(size=dim)
    return make_table({t: list(v) for t, v in entries.items()})


def synthetic_kb() -> list[tuple[str, str]]:
    docs = []
    for topic, tname in enumerate(_TOPIC_NAMES):
        words = [topic_word(topic, i) for i in range(WORDS_PER_TOPIC)]
        docs.append((tname, " ".join(words * 2)))
    return docs


def _sentence(rng: np.random.Generator, topic: int, entity: str | None) -> str:
    words = [topic_word(topic, int(i)) for i in rng.integers(0, WORDS_PER_TOPIC, size=6)]
    head = entity.replace("_", " ") if entity else words.pop(0).capitalize()
    return f"{head} {' '.join(words)}."


def synthetic_corpus(seed: int = 7, docs_per_label: int = 100) -> tuple:
    """100 single-topic 'legitimate' documents vs 100 topic-mixed 'fake' ones.

    Each sentence opens with an entity surface so the entity method has at
    least two distinct linkable entities per document. The corpus comes back
    segmented and linked against the entity table.
    """
    rng = np.random.default_rng(seed)
    word_table = synthetic_word_table(rng)
    entity_table = synthetic_entity_table(rng)
    documents = []
    for d in range(docs_per_label):
        topic = int(rng.integers(0, N_TOPICS))
        ents = [f"{_TOPIC_NAMES[topic]}_Item{i}" for i in (0, 1, 2)]
        sents = [_sentence(rng, topic, ents[s % 3]) for s in range(6)]
        documents.append(
            Document(id=f"legit-{d:03d}", label=Label.LEGITIMATE, text=" ".join(sents))
        )
    for d in range(docs_per_label):
        k = int(rng.integers(2, N_TOPICS + 1))
        topics = list(rng.choice(N_TOPICS, size=k, replace=False))
        sents = []
        for s in range(6):
            topic = int(topics[s % k])
            entity = f"{_TOPIC_NAMES[topic]}_Item{s % ENTITIES_PER_TOPIC}"
            sents.append(_sentence(rng, topic, entity))
        documents.append(
            Document(id=f"fake-{d:03d}", label=Label.FAKE, text=" ".join(sents))
        )
    corpus = LabeledCorpus(documents=documents, source="synthetic")
    segment_corpus(corpus)
    link_corpus(corpus, build_gazetteer(entity_table))
    return corpus, word_table, entity_table
