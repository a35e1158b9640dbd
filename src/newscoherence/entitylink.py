"""Gazetteer-based entity linking keyed to the entity-vector vocabulary."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .corpus import Document, LabeledCorpus
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
        self.surfaces = surfaces
        self.max_phrase_len = max(len(k) for k in surfaces)


def build_gazetteer(entity_table: EmbeddingTable) -> Gazetteer:
    """Derive surfaces from entity ids: underscores become spaces, matching is lowercased."""
    if not entity_table.entries:
        raise EntityLinkError("empty entity table")
    surfaces: dict[tuple[str, ...], str] = {}
    for entity_id in entity_table.entries:
        key = tuple(entity_id.replace("_", " ").lower().split())
        if key:
            surfaces[key] = entity_id
    return Gazetteer(surfaces)


def load_aliases(path: str | Path, entity_table: EmbeddingTable, gaz: Gazetteer) -> None:
    """Extend a gazetteer from a TSV alias file (surface <tab> entity_id), in place."""
    p = Path(path)
    with open(p, "rb") as f:
        for lineno, line in text_lines(f, p, EntityLinkError):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise EntityLinkError(f"{p} line {lineno}: expected 'surface<TAB>entity_id'")
            surface, entity_id = parts
            if entity_table.lookup(entity_id) is None:
                raise EntityLinkError(
                    f"{p} line {lineno}: alias target {entity_id!r} has no entity vector"
                )
            key = tuple(surface.lower().split())
            if key:
                gaz.surfaces[key] = entity_id
    gaz.max_phrase_len = max(len(k) for k in gaz.surfaces)


_TOKEN_SPAN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def extract_entities(
    doc: Document, gaz: Gazetteer, require_uppercase: bool = True
) -> list[EntityMention]:
    """Greedy longest-match left-to-right over each sentence's token stream.

    Matched spans never overlap. With `require_uppercase`, only spans whose
    original surface starts with an uppercase letter or digit are candidates.
    """
    if doc.sentences is None:
        raise EntityLinkError(f"document {doc.id!r} has not been segmented")
    mentions: list[EntityMention] = []
    cursor = 0
    for sentence in doc.sentences:
        sent_start = doc.text.find(sentence.text, cursor)
        if sent_start < 0:
            # Title prepended as sentence 0 is not part of the body text.
            continue
        cursor = sent_start + len(sentence.text)
        spans = [
            (m.group(0), sent_start + m.start(), sent_start + m.end())
            for m in _TOKEN_SPAN_RE.finditer(sentence.text)
        ]
        i = 0
        while i < len(spans):
            matched = False
            for length in range(min(gaz.max_phrase_len, len(spans) - i), 0, -1):
                window = spans[i : i + length]
                key = tuple(tok.lower() for tok, _, _ in window)
                entity_id = gaz.surfaces.get(key)
                if entity_id is None:
                    continue
                first_char = window[0][0][0]
                if require_uppercase and not (first_char.isupper() or first_char.isdigit()):
                    continue
                start, end = window[0][1], window[-1][2]
                mentions.append(
                    EntityMention(
                        surface=doc.text[start:end], start=start, end=end, entity_id=entity_id
                    )
                )
                i += length
                matched = True
                break
            if not matched:
                i += 1
    return mentions


def entity_set(mentions: list[EntityMention]) -> list[str]:
    """Distinct entity ids in first-occurrence order."""
    seen: set[str] = set()
    out: list[str] = []
    for m in mentions:
        if m.entity_id not in seen:
            seen.add(m.entity_id)
            out.append(m.entity_id)
    return out


def link_corpus(corpus: LabeledCorpus, gaz: Gazetteer, require_uppercase: bool = True) -> None:
    """Populate `entity_mentions` for every document, in place."""
    for doc in corpus.documents:
        doc.entity_mentions = extract_entities(doc, gaz, require_uppercase)
