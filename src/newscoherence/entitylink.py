"""Gazetteer-based entity linking keyed to the entity-vector vocabulary."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import Document, LabeledCorpus, Sentence, surface_tokens, token_spans
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
        self.surfaces: dict[tuple[str, ...], str] = {}
        # First token -> the most tokens of a surface that starts with it.
        self.longest: dict[str, int] = {}
        for key, entity_id in surfaces.items():
            self.add(key, entity_id)

    def add(self, key: tuple[str, ...], entity_id: str) -> None:
        """Map a surface, as its lower-cased tokens, to an entity id."""
        self.surfaces[key] = entity_id
        self.longest[key[0]] = max(self.longest.get(key[0], 0), len(key))

    @property
    def max_phrase_len(self) -> int:
        return max(self.longest.values())


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


def extract_entities(
    doc: Document, gaz: Gazetteer, require_uppercase: bool = True
) -> list[EntityMention]:
    """Greedy longest-match left-to-right over each body sentence's tokens.

    Matched spans never overlap. With `require_uppercase`, only spans whose
    original surface starts with an uppercase letter or digit are candidates.
    A sentence with no body offset, such as a prepended title, is not linked.
    """
    if doc.sentences is None:
        raise EntityLinkError(f"document {doc.id!r} has not been segmented")
    return [m for sentence in doc.sentences if sentence.start is not None
            for m in _sentence_mentions(doc.text, sentence, gaz, require_uppercase)]


def _sentence_mentions(text: str, sentence: Sentence, gaz: Gazetteer, require_uppercase: bool):
    """Mentions in one body sentence, with offsets in the body `text`."""
    tokens = sentence.tokens
    spans = None  # token offsets in the sentence, found at its first surface match
    resume = 0
    for i, token in enumerate(tokens):
        longest = gaz.longest.get(token)
        if longest is None or i < resume:
            continue
        for length in range(min(longest, len(tokens) - i), 0, -1):
            entity_id = gaz.surfaces.get(tuple(tokens[i:i + length]))
            if entity_id is None:
                continue
            if spans is None:
                spans = token_spans(sentence.text)
            first_char = sentence.text[spans[i][0]]
            if require_uppercase and not (first_char.isupper() or first_char.isdigit()):
                break  # every shorter surface here starts with the same character
            start = sentence.start + spans[i][0]
            end = sentence.start + spans[i + length - 1][1]
            yield EntityMention(surface=text[start:end], start=start, end=end,
                                entity_id=entity_id)
            resume = i + length
            break


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
