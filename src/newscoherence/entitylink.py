"""Gazetteer-based entity linking keyed to the entity-vector vocabulary."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .corpus import Document, LabeledCorpus, Sentences, Vocabulary, surface_tokens, token_spans
from .embeddings import EmbeddingTable, text_lines

__all__ = [
    "EntityMention",
    "Gazetteer",
    "EntityLinkError",
    "build_gazetteer",
    "load_aliases",
    "extract_entities",
    "entity_set",
    "link_corpus",
]


class EntityLinkError(Exception):
    """Raised for empty entity tables or malformed alias files."""


@dataclass
class EntityMention:
    surface: str
    start: int
    end: int
    entity_id: str


class Gazetteer:
    """Normalized surface form -> canonical entity id, for longest-match scanning."""

    def __init__(self, surfaces: dict[tuple[str, ...], str]):
        if not surfaces:
            raise EntityLinkError("empty gazetteer")
        self.surfaces = dict(surfaces)

    def add(self, key: tuple[str, ...], entity_id: str) -> None:
        """Map a surface, as its lower-cased tokens, to an entity id."""
        self.surfaces[key] = entity_id


def build_gazetteer(entity_table: EmbeddingTable) -> Gazetteer:
    """Derive surfaces from entity ids, split into tokens as sentences are: at
    underscores, spaces and punctuation, lowercased."""
    if not len(entity_table):
        raise EntityLinkError("empty entity table")
    surfaces: dict[tuple[str, ...], str] = {}
    for entity_id in entity_table.rows:
        key = tuple(surface_tokens(entity_id))
        if key:
            surfaces[key] = entity_id
    return Gazetteer(surfaces)


def load_aliases(path: str | Path, entity_table: EmbeddingTable, gaz: Gazetteer) -> None:
    """Extend a gazetteer from a TSV alias file (surface <tab> entity_id), in place.
    A surface is split into tokens as sentences are."""
    p = Path(path)
    with open(p, "rb") as f:
        for lineno, line in text_lines(f, p, EntityLinkError):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise EntityLinkError(f"{p} line {lineno}: expected 'surface<TAB>entity_id'")
            surface, entity_id = parts
            if entity_id not in entity_table:
                raise EntityLinkError(
                    f"{p} line {lineno}: alias target {entity_id!r} has no entity vector"
                )
            key = tuple(surface_tokens(surface))
            if key:
                gaz.add(key, entity_id)


def extract_entities(doc: Document, gaz: Gazetteer) -> list[EntityMention]:
    """Greedy longest-match left-to-right over each body sentence's tokens.

    Matched spans never overlap. Only spans whose original surface starts with
    an uppercase letter or digit are candidates. A sentence with no body
    offset, such as a prepended title, is not linked.
    """
    [mentions] = _link([doc], gaz)
    return mentions


def _id_surfaces(gaz: Gazetteer, vocab: Vocabulary) -> tuple[dict, np.ndarray]:
    """The gazetteer keyed by the token ids of `vocab`, and per id the most ids of a
    surface that starts with it, 0 for none. A surface with a token `vocab` lacks
    can match no sentence: it is left out."""
    surfaces: dict[tuple[int, ...], str] = {}
    longest = np.zeros(len(vocab.tokens), dtype=np.intp)
    for key, entity_id in gaz.surfaces.items():
        ids = tuple(map(vocab.get, key))
        if None not in ids:
            surfaces[ids] = entity_id
            longest[ids[0]] = max(longest[ids[0]], len(ids))
    return surfaces, longest


def _link(docs: list[Document], gaz: Gazetteer):
    """Each document's mentions, as `extract_entities` finds them. The gazetteer is
    keyed by ids once per vocabulary the documents are encoded in; hand-built
    sentence lists are encoded into one, before any is linked."""
    for doc in docs:
        if doc.sentences is None:
            raise EntityLinkError(f"document {doc.id!r} has not been segmented")
    hand = Vocabulary()
    encoded = [Sentences.of(doc.sentences, hand) for doc in docs]
    keyed = {id(v): _id_surfaces(gaz, v) for v in {id(e.vocab): e.vocab for e in encoded}.values()}
    for doc, sentences in zip(docs, encoded):
        yield list(_mentions(doc.text, sentences, *keyed[id(sentences.vocab)]))


def _mentions(text: str, sentences: Sentences, surfaces: dict, longest: np.ndarray):
    """Mentions in the body sentences of `sentences`, with offsets in the body `text`.
    Only the positions whose id starts some surface are tried."""
    ids, starts = sentences.ids, sentences.starts
    at = np.flatnonzero(longest[ids])
    of = np.searchsorted(starts, at, side="right") - 1  # the sentence of each position
    resume, sentence = 0, None  # a match ends inside its sentence: none later resets `resume`
    for i, s, most in zip(at.tolist(), of.tolist(), longest[ids[at]].tolist()):
        if i < resume:
            continue
        if s != sentence:  # token offsets in `text`, found up to the last token matched
            sentence, spans = s, []
            a, b = starts[s:s + 2].tolist()
            start, end = sentences.spans[s].tolist()
            found = token_spans(text, start, end)
        if start < 0:
            continue
        for length in range(min(most, b - i), 0, -1):
            entity_id = surfaces.get(tuple(ids[i:i + length].tolist()))
            if entity_id is None:
                continue
            spans.extend(islice(found, max(i - a + length - len(spans), 0)))
            first, last = spans[i - a][0], spans[i - a + length - 1][1]
            if not (text[first].isupper() or text[first].isdigit()):
                break  # every shorter surface here starts with the same character
            yield EntityMention(surface=text[first:last], start=first, end=last,
                                entity_id=entity_id)
            resume = i + length
            break


def entity_set(mentions: list[EntityMention]) -> list[str]:
    """Distinct entity ids in first-occurrence order."""
    return list(dict.fromkeys(m.entity_id for m in mentions))


def link_corpus(corpus: LabeledCorpus, gaz: Gazetteer) -> None:
    """Populate `entity_mentions` for every document, in place."""
    for doc, mentions in zip(corpus.documents, _link(corpus.documents, gaz)):
        doc.entity_mentions = mentions
