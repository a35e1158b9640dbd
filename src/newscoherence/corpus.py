"""Corpus ingestion, sentence segmentation, tokenization and dataset statistics."""

from __future__ import annotations

import csv
import json
import logging
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .embeddings import text_lines
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
    "token_spans",
    "segment_corpus",
    "csv_records",
    "load_csv",
    "load_jsonl",
    "jsonl_records",
    "require_string",
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
    # Offset of `text` in the document's body text; None for a title sentence.
    start: int | None = None


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
    """Split on non-alphanumeric characters, lowercase, keep digit runs.

    Each token is interned, so every occurrence of one token string is the
    same object, and a corpus holds each distinct token once.
    """
    return list(map(sys.intern, map(str.lower, _TOKEN_RE.findall(text))))


def token_spans(text: str) -> list[tuple[int, int]]:
    """(start, end) in `text` of each token that `tokenize` yields."""
    return [m.span() for m in _TOKEN_RE.finditer(text)]


def _abbreviation_test(abbreviations: tuple[str, ...]):
    """A test of whether `text[:end]` ends, in any case, in one of `abbreviations`
    that is not the tail of a longer word.

    It lower-cases only a tail as long as the longest lower-cased abbreviation: no
    character lower-cases to nothing, so a match never needs more. A capital
    sigma lower-cases by the letters before it, so a tail holding one reaches
    back to a space, where that look-back stops.
    """
    lows = tuple(abbr.lower() for abbr in abbreviations)
    reach = max(map(len, lows), default=0)

    def ends_with_abbreviation(text: str, end: int) -> bool:
        begin = max(end - reach, 0)
        if "Σ" in text[begin:end]:
            begin = max(text.rfind(" ", 0, begin), 0)
        tail = text[begin:end].lower()
        if not tail.endswith(lows):
            return False
        for abbr, low in zip(abbreviations, lows):
            if not tail.endswith(low):
                continue
            # The text before the abbreviation is text[:end][:cut]. A lower-cased
            # "İ" is two characters, so the abbreviation can be longer than the
            # text it matched; then the cut counts from the end, and is at least 1.
            cut = end - len(abbr)
            if cut < 0:
                cut += end
            if cut == 0 or not text[cut - 1].isalnum():
                return True
        return False

    return ends_with_abbreviation


def split_sentences(
    text: str, abbreviations: tuple[str, ...] = DEFAULT_ABBREVIATIONS
) -> list[Sentence]:
    """Rule-based sentence segmentation with an abbreviation guard.

    A split happens after `.`, `!` or `?` (optionally followed by closing
    quotes) when whitespace and an uppercase letter, digit or quote follow,
    unless the text up to the punctuation ends in a known abbreviation. Each
    sentence is stripped of surrounding whitespace and records its offset.
    """
    is_abbreviation = _abbreviation_test(abbreviations)
    ends = [m.end() for m in _BOUNDARY_RE.finditer(text)
            if not is_abbreviation(text, m.start() + 1)]
    sentences = []
    start = 0
    for end in ends + [len(text)]:
        raw = text[start:end]
        piece = raw.strip()
        if piece:
            sentences.append(Sentence(index=len(sentences), text=piece, tokens=tokenize(piece),
                                      start=start + raw.find(piece)))
        start = end
    return sentences


def segment_corpus(
    corpus: LabeledCorpus,
    abbreviations: tuple[str, ...] = DEFAULT_ABBREVIATIONS,
    include_title: bool = False,
) -> None:
    """Populate `sentences` for every document, in place.

    With `include_title`, the title (when present) is prepended as sentence 0,
    with no body offset.
    """
    for doc in corpus.documents:
        sentences = split_sentences(doc.text, abbreviations)
        if include_title and doc.title:
            for s in sentences:
                s.index += 1
            sentences.insert(0, Sentence(index=0, text=doc.title.strip(),
                                         tokens=tokenize(doc.title)))
        doc.sentences = sentences


def _read_text_file(path: str | Path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CorpusError(f"input file not found: {p}")
    return p


def _utf8_error(p: Path, e: UnicodeDecodeError) -> CorpusError:
    """The error for a text file that is not UTF-8, naming its first bad line."""
    with open(p, "rb") as f:
        try:
            for _ in text_lines(f, p, CorpusError):
                pass
        except CorpusError as bad:
            return bad
    return CorpusError(f"{p}: invalid UTF-8 input: {e}")


def csv_records(path: str | Path, required: tuple[str, ...] = ()):
    """(line number, row) of each record of a UTF-8 CSV file with a header row
    that holds the `required` columns. A row maps the header's names to its
    fields, as `csv.DictReader` makes it; its line number is that of the
    record's last line. A quoted field must end at a quote followed by a
    delimiter or a line end: a stray quote would otherwise swallow the records
    up to the next quote."""
    p = _read_text_file(path)
    # An article may be longer than the csv module's default field limit, 131 072
    # characters. The limit is process-wide; lifted, any field that fits in memory
    # is read.
    csv.field_size_limit(sys.maxsize)
    try:
        with open(p, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f, strict=True)
            if reader.fieldnames is None:
                raise CorpusError(f"{p}: empty CSV (no header row)")
            for name in required:
                if name not in reader.fieldnames:
                    raise CorpusError(f"{p} line 1: missing column {name!r}")
            for row in reader:
                yield reader.line_num, row
    except UnicodeDecodeError as e:
        raise _utf8_error(p, e) from e
    except csv.Error as e:  # DictReader.line_num stops at the last record read whole
        raise CorpusError(f"{p} line {reader.reader.line_num}: malformed CSV: {e}") from e


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
    for rownum, (_, row) in enumerate(csv_records(p, (text_column,)), start=1):
        text = (row.get(text_column) or "").strip()
        if not text:
            skipped += 1
            logger.warning("%s row %d: empty text, skipped", p, rownum)
            continue
        # A row's surplus fields sit under the key None, so no title column reads them.
        title = (row.get(title_column) or "").strip() if title_column is not None else None
        docs.append(Document(id=f"{p.stem}-{rownum}", label=label, text=text,
                             title=title or None))
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


def jsonl_records(path: str | Path, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    """(where, values) for each non-blank line of a JSONL file, read by `text_lines`.

    `where` is "<file> line N"; `values` holds the `required` fields, then the
    `optional` ones (None when absent or null), each a string `require_string` accepts.
    """
    p = Path(path)
    with open(p, "rb") as f:
        for lineno, line in text_lines(f, p, CorpusError):
            if not line.strip():
                continue
            where = f"{p} line {lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusError(f"{where}: malformed JSON: {e}") from e
            if not isinstance(obj, dict):
                raise CorpusError(f"{where}: expected a JSON object")
            try:
                values = [obj[name] for name in required] + [obj.get(name) for name in optional]
            except KeyError as e:
                raise CorpusError(f"{where}: missing field {e}") from e
            for name, value in zip(required + optional, values):
                if value is not None or name in required:
                    require_string(value, name, where)
            yield where, values


def load_jsonl(path: str | Path) -> LabeledCorpus:
    """Load a JSONL corpus: one object per line with string id, label, text, optional title."""
    p = _read_text_file(path)
    docs: list[Document] = []
    seen_ids: set[str] = set()
    skipped = 0
    for where, (doc_id, raw_label, text, title) in jsonl_records(
            p, ("id", "label", "text"), ("title",)):
        if raw_label not in _JSONL_LABELS:
            raise CorpusError(f"{where}: unknown label {raw_label!r}")
        if doc_id in seen_ids:
            raise CorpusError(f"{where}: duplicate id {doc_id!r}")
        seen_ids.add(doc_id)
        if not text.strip():
            skipped += 1
            continue
        docs.append(Document(id=doc_id, label=_JSONL_LABELS[raw_label], text=text, title=title))
    return LabeledCorpus(documents=docs, source=str(p), skipped=skipped)


def corpus_stats(corpus: LabeledCorpus, sample_sd: bool = False) -> dict[str, dict]:
    """Per-label article counts plus sentences/entities per article mean and SD.

    Entity statistics are reported as None when entity linking has not run.
    Population SD (divisor n) by default; `sample_sd` selects divisor n-1.
    """
    if not corpus.documents:
        raise CorpusError(f"{corpus.source}: empty corpus" if corpus.source else "empty corpus")
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
