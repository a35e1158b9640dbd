"""Corpus ingestion, sentence segmentation, tokenization and dataset statistics."""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

from .stats import mean_sd

logger = logging.getLogger(__name__)

__all__ = [
    "Label",
    "Sentence",
    "Document",
    "LabeledCorpus",
    "CorpusError",
    "DEFAULT_ABBREVIATIONS",
    "split_sentences",
    "tokenize",
    "segment_corpus",
    "load_csv",
    "load_jsonl",
    "require_string",
    "write_jsonl",
    "corpus_stats",
]


class CorpusError(Exception):
    """Raised for unreadable, malformed or empty corpus inputs."""


class Label:
    FAKE = "fake"
    LEGITIMATE = "legitimate"
    UNLABELED = "unlabeled"

    ALL = (FAKE, LEGITIMATE, UNLABELED)


@dataclass
class Sentence:
    index: int
    text: str
    tokens: list[str]


@dataclass
class Document:
    id: str
    label: str
    text: str
    title: str | None = None
    sentences: list[Sentence] | None = None
    # None means entity linking has not run; [] means it ran and found nothing.
    entity_mentions: list | None = None


@dataclass
class LabeledCorpus:
    documents: list[Document]
    source: str = ""
    skipped: int = 0

    def by_label(self, label: str) -> list[Document]:
        return [d for d in self.documents if d.label == label]


DEFAULT_ABBREVIATIONS = ("Mr.", "Mrs.", "Dr.", "St.", "U.S.", "e.g.", "i.e.")

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Sentence boundary: terminal punctuation, whitespace, then an uppercase
# letter, a digit, or an opening quote.
_BOUNDARY_RE = re.compile(r"[.!?][\"'”’)]*\s+(?=[\"'“‘A-Z0-9])")


def tokenize(text: str) -> list[str]:
    """Split on non-alphanumeric characters, lowercase, keep digit runs."""
    return [m.group(0).lower() for m in _TOKEN_RE.finditer(text)]


def _ends_with_abbreviation(prefix: str, abbreviations: tuple[str, ...]) -> bool:
    for abbr in abbreviations:
        if not prefix.lower().endswith(abbr.lower()):
            continue
        before = prefix[: len(prefix) - len(abbr)]
        if not before or not before[-1].isalnum():
            return True
    return False


def split_sentences(
    text: str, abbreviations: tuple[str, ...] = DEFAULT_ABBREVIATIONS
) -> list[Sentence]:
    """Rule-based sentence segmentation with an abbreviation guard.

    A split happens after `.`, `!` or `?` (optionally followed by closing
    quotes) when whitespace and an uppercase letter, digit or quote follow,
    unless the text up to the punctuation ends in a known abbreviation.
    """
    pieces: list[str] = []
    start = 0
    for m in _BOUNDARY_RE.finditer(text):
        candidate = text[start : m.end()].rstrip()
        if _ends_with_abbreviation(text[: m.start() + 1], abbreviations):
            continue
        pieces.append(candidate)
        start = m.end()
    tail = text[start:].strip()
    if tail:
        pieces.append(tail)

    sentences = []
    for piece in pieces:
        piece = piece.strip()
        if not piece:
            continue
        sentences.append(Sentence(index=len(sentences), text=piece, tokens=tokenize(piece)))
    return sentences


def segment_corpus(
    corpus: LabeledCorpus,
    abbreviations: tuple[str, ...] = DEFAULT_ABBREVIATIONS,
    include_title: bool = False,
) -> None:
    """Populate `sentences` for every document, in place.

    With `include_title`, the title (when present) is prepended as sentence 0.
    """
    for doc in corpus.documents:
        sentences = split_sentences(doc.text, abbreviations)
        if include_title and doc.title:
            title_sent = Sentence(index=0, text=doc.title.strip(), tokens=tokenize(doc.title))
            sentences = [title_sent] + [
                Sentence(index=s.index + 1, text=s.text, tokens=s.tokens) for s in sentences
            ]
        doc.sentences = sentences


def _read_text_file(path: str | Path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CorpusError(f"input file not found: {p}")
    return p


def load_csv(
    path: str | Path,
    label: str,
    text_column: str = "text",
    title_column: str | None = "title",
) -> LabeledCorpus:
    """Load one CSV file of articles, all assigned the same label.

    Document ids are `<filestem>-<rownum>` with rows numbered from 1 after the
    header. Rows with empty text are skipped and counted.
    """
    p = _read_text_file(path)
    if label not in Label.ALL:
        raise CorpusError(f"unknown label: {label!r}")
    docs: list[Document] = []
    skipped = 0
    try:
        with open(p, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is None:
                raise CorpusError(f"{p}: empty CSV (no header row)")
            if text_column not in reader.fieldnames:
                raise CorpusError(f"{p}: missing mapped text column {text_column!r}")
            has_title = title_column is not None and title_column in reader.fieldnames
            for rownum, row in enumerate(reader, start=1):
                text = (row.get(text_column) or "").strip()
                if not text:
                    skipped += 1
                    logger.warning("%s row %d: empty text, skipped", p, rownum)
                    continue
                title = (row.get(title_column) or "").strip() if has_title else None
                docs.append(
                    Document(
                        id=f"{p.stem}-{rownum}",
                        label=label,
                        text=text,
                        title=title or None,
                    )
                )
    except UnicodeDecodeError as e:
        raise CorpusError(f"{p}: invalid UTF-8 input: {e}") from e
    except csv.Error as e:
        raise CorpusError(f"{p}: malformed CSV: {e}") from e
    return LabeledCorpus(documents=docs, source=str(p), skipped=skipped)


_JSONL_LABELS = {"fake": Label.FAKE, "legitimate": Label.LEGITIMATE}


def require_string(value, name: str, where: str) -> None:
    """Raise CorpusError unless a JSON field holds a string that UTF-8 can encode.

    `json.loads` keeps a lone surrogate escape such as "\\ud800" as a character
    that no output file could be written with.
    """
    if not isinstance(value, str):
        raise CorpusError(f"{where}: field {name!r} must be a string, not {type(value).__name__}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as e:
        raise CorpusError(f"{where}: field {name!r} is not valid Unicode: {e}") from e


def load_jsonl(path: str | Path) -> LabeledCorpus:
    """Load a JSONL corpus: one object per line with string id, label, text, optional title."""
    p = _read_text_file(path)
    docs: list[Document] = []
    seen_ids: set[str] = set()
    skipped = 0
    try:
        with open(p, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise CorpusError(f"{p} line {lineno}: malformed JSON: {e}") from e
                if not isinstance(obj, dict):
                    raise CorpusError(f"{p} line {lineno}: expected a JSON object")
                try:
                    doc_id = obj["id"]
                    raw_label = obj["label"]
                    text = obj["text"]
                except KeyError as e:
                    raise CorpusError(f"{p} line {lineno}: missing field {e}") from e
                title = obj.get("title")
                for name, value in (("id", doc_id), ("label", raw_label), ("text", text),
                                    ("title", "" if title is None else title)):
                    require_string(value, name, f"{p} line {lineno}")
                if raw_label not in _JSONL_LABELS:
                    raise CorpusError(f"{p} line {lineno}: unknown label {raw_label!r}")
                if doc_id in seen_ids:
                    raise CorpusError(f"{p} line {lineno}: duplicate id {doc_id!r}")
                seen_ids.add(doc_id)
                if not text.strip():
                    skipped += 1
                    continue
                docs.append(
                    Document(
                        id=doc_id,
                        label=_JSONL_LABELS[raw_label],
                        text=text,
                        title=title,
                    )
                )
    except UnicodeDecodeError as e:
        raise CorpusError(f"{p}: invalid UTF-8 input: {e}") from e
    return LabeledCorpus(documents=docs, source=str(p), skipped=skipped)


def write_jsonl(corpus: LabeledCorpus, path: str | Path) -> None:
    """Write the JSONL schema byte-stably (fixed key order id,label,title,text)."""
    with open(path, "w", encoding="utf-8") as f:
        for doc in corpus.documents:
            obj = {"id": doc.id, "label": doc.label}
            if doc.title is not None:
                obj["title"] = doc.title
            obj["text"] = doc.text
            f.write(json.dumps(obj, ensure_ascii=False) + "\n")


def corpus_stats(corpus: LabeledCorpus, sample_sd: bool = False) -> dict[str, dict]:
    """Per-label article counts plus sentences/entities per article mean and SD.

    Entity statistics are reported as None when entity linking has not run.
    Population SD (divisor n) by default; `sample_sd` selects divisor n-1.
    """
    if not corpus.documents:
        raise CorpusError("empty corpus")
    stats: dict[str, dict] = {}
    for label in Label.ALL:
        docs = corpus.by_label(label)
        if not docs:
            continue
        if any(d.sentences is None for d in docs):
            raise CorpusError("corpus_stats requires segmentation to have run")
        sent_counts = [float(len(d.sentences)) for d in docs]
        smean, ssd = mean_sd(sent_counts, sample_sd)
        entry = {
            "article_count": len(docs),
            "sentences_mean": smean,
            "sentences_sd": ssd,
            "entities_mean": None,
            "entities_sd": None,
        }
        if all(d.entity_mentions is not None for d in docs):
            ent_counts = [
                float(len({m.entity_id for m in d.entity_mentions})) for d in docs
            ]
            emean, esd = mean_sd(ent_counts, sample_sd)
            entry["entities_mean"] = emean
            entry["entities_sd"] = esd
        stats[label] = entry
    return stats
