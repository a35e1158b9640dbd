"""Corpus ingestion, sentence segmentation, tokenization and dataset statistics."""

from __future__ import annotations

import csv
import functools
import json
import logging
import os
import re
import sys
import unicodedata
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cache
from .embeddings import text_lines
from .stats import mean_sd

logger = logging.getLogger(__name__)

__all__ = [
    "Label",
    "Sentence",
    "Sentences",
    "Vocabulary",
    "Document",
    "LabeledCorpus",
    "CorpusError",
    "DEFAULT_ABBREVIATIONS",
    "split_sentences",
    "tokenize",
    "surface_tokens",
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

    ALL = (FAKE, LEGITIMATE)


@dataclass
class Sentence:
    index: int
    text: str
    tokens: list[str]
    # Offset of `text` in the document's body text; None for a title sentence.
    start: int | None = None


class Vocabulary(dict):
    """The distinct tokens of a run, each held once: token -> id, and `tokens[id]`.

    Looking up a token it lacks adds it, interned, with the next id. So every
    corpus encoded through one vocabulary holds each distinct token as one
    string, and a word table loaded for the vocabulary keys its rows by them.
    """

    def __init__(self):
        super().__init__()
        self.tokens: list[str] = []

    def __missing__(self, token: str) -> int:
        token = sys.intern(token)
        self[token] = new_id = len(self.tokens)
        self.tokens.append(token)
        return new_id


class Sentences(Sequence):
    """A document's sentences as token ids into `vocab`, with no Sentence kept.

    Sentence i's ids are ids[starts[i]:starts[i + 1]] and its characters
    text[spans[i, 0]:spans[i, 1]]. A sentence with no body offset, a prepended
    title, has the span (-1, -1) and the text `title.strip()`. Indexing builds
    a Sentence whose tokens are the vocabulary's own strings.
    """

    __slots__ = ("vocab", "ids", "starts", "spans", "text", "title")

    def __init__(self, vocab: Vocabulary, ids, starts, spans, text: str = "", title: str = ""):
        # Lists or arrays: an array of the dtype is kept, not copied.
        self.vocab, self.text, self.title = vocab, text, title
        self.ids = np.asarray(ids, dtype=np.int32)
        self.starts = np.asarray(starts, dtype=np.int32)
        self.spans = np.asarray(spans, dtype=np.int64).reshape(-1, 2)

    @classmethod
    def of(cls, sentences: Sequence[Sentence], vocab: Vocabulary) -> Sentences:
        """`sentences` themselves when encoded, else a hand-built list encoded
        through `vocab`, each sentence spanning its `text` from its `start`."""
        if isinstance(sentences, Sentences):
            return sentences
        ids, starts = [], [0]
        for s in sentences:
            ids.extend(map(vocab.__getitem__, s.tokens))
            starts.append(len(ids))
        return cls(vocab, ids, starts, [(-1, -1) if s.start is None
                                        else (s.start, s.start + len(s.text)) for s in sentences])

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, i: int) -> Sentence:
        i = range(len(self))[i]
        a, b = self.starts[i:i + 2].tolist()
        tokens = list(map(self.vocab.tokens.__getitem__, self.ids[a:b].tolist()))
        start, end = self.spans[i].tolist()
        if start < 0:
            return Sentence(index=i, text=self.title.strip(), tokens=tokens)
        return Sentence(index=i, text=self.text[start:end], tokens=tokens, start=start)


@dataclass
class Document:
    id: str
    label: str
    text: str
    title: str | None = None
    # `segment_corpus` gives Sentences; a hand-built list scores and links the same.
    sentences: Sequence[Sentence] | None = None
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
    return list(map(sys.intern, surface_tokens(text)))


def surface_tokens(text: str) -> Iterator[str]:
    """The tokens `tokenize` yields, not interned: how a table loaded whole keys
    a surface so that it matches sentence tokens."""
    return map(str.lower, _TOKEN_RE.findall(text))


def token_spans(text: str, start: int = 0, end: int | None = None) -> Iterator[tuple[int, int]]:
    """(start, end) in `text` of each token that `tokenize` yields for text[start:end],
    found as they are read."""
    return (m.span() for m in _TOKEN_RE.finditer(text, start, len(text) if end is None else end))


# The lower-cased default abbreviations, by length.
_ABBREVIATIONS = {n: {a.lower() for a in DEFAULT_ABBREVIATIONS if len(a) == n}
                  for n in {len(a) for a in DEFAULT_ABBREVIATIONS}}


def _ends_with_abbreviation(text: str, end: int) -> bool:
    """Whether `text[:end]` ends, in any case, in a default abbreviation that does
    not follow a letter or digit.

    The abbreviations are ASCII. Only "İ" and the Kelvin sign lower-case to a string
    that holds ASCII, and only "İ" changes length, to two characters, the second not
    ASCII. So `text[:end]` lower-cases to a string ending in an abbreviation of n
    characters exactly when its last n characters lower-case to it.
    """
    return any(n <= end and text[end - n:end].lower() in lows
               and (n == end or not text[end - n - 1].isalnum())
               for n, lows in _ABBREVIATIONS.items())


def split_sentences(text: str) -> list[Sentence]:
    """Rule-based sentence segmentation with an abbreviation guard.

    A split happens after `.`, `!` or `?` (optionally followed by closing
    quotes) when whitespace and an uppercase letter, digit or quote follow,
    unless the text up to the punctuation ends in a default abbreviation, in
    any case, that does not follow a letter or digit. Each sentence is
    stripped of surrounding whitespace and records its offset.
    """
    return list(_segment(text, None, Vocabulary()))


def _segment(text: str, title: str | None, vocab: Vocabulary) -> Sentences:
    """The sentences of `text`, as `split_sentences` splits them, encoded through
    `vocab`; a `title` comes first. A token is lower-cased on its own, as
    `tokenize` does: a lower-cased "İ" or final "Σ" depends on its neighbours."""
    ends = [m.end() for m in _BOUNDARY_RE.finditer(text)
            if not _ends_with_abbreviation(text, m.start() + 1)]
    ids: list[int] = []
    starts, spans = [0], []
    if title is not None:
        ids.extend(map(vocab.__getitem__, surface_tokens(title)))
        starts.append(len(ids))
        spans.append((-1, -1))
    start = 0
    for end in ends + [len(text)]:
        raw = text[start:end]
        first, last = start + len(raw) - len(raw.lstrip()), start + len(raw.rstrip())
        if first < last:
            ids.extend(map(vocab.__getitem__,
                           map(str.lower, _TOKEN_RE.findall(text, first, last))))
            starts.append(len(ids))
            spans.append((first, last))
        start = end
    return Sentences(vocab, ids, starts, spans, text, title or "")


# A corpus file's cache entry (see `cache`), of the sentences `segment_corpus` gives
# its documents. Its head records the size and CRC-32 of `_digest`, and its fields
# are the int64s sentences, token occurrences and distinct tokens' bytes. Its
# sections are the distinct tokens in first-occurrence order, each with a "\n"; per
# occurrence, its token's place among them (int32); each document's sentence count
# and each sentence's token count (int32); each sentence's span (int64 pairs).
# `str.lower` and `\w` follow the Unicode data of the version line.
_VERSION = f"newscoherence sentences 2 {unicodedata.unidata_version}\n".encode()


def segment_corpus(corpus: LabeledCorpus, include_title: bool = False,
                   vocab: Vocabulary | None = None) -> Vocabulary:
    """Populate `sentences` for every document, in place, as Sentences encoded
    through `vocab` (a new one when None); returns the vocabulary.

    With `include_title`, the title (when present) is prepended as sentence 0,
    with no body offset.

    Where `corpus.source` names a regular file, the sentences are read through the
    parse cache (`cache.load`): while each document's text, and its title where
    one is segmented, are the strings an entry records, a later run reads the
    sentences from that entry, to the same ids, vocabulary order and spans.
    """
    vocab = Vocabulary() if vocab is None else vocab
    docs = corpus.documents
    titles = [doc.title if include_title and doc.title else None for doc in docs]
    # Tested before `cache.load` opens it: a named pipe would wait for a writer.
    if corpus.source and os.path.isfile(corpus.source):
        found = cache.load(Path(corpus.source), _VERSION, 4,
                           functools.partial(_load_entry, docs, titles, vocab),
                           functools.partial(_parse, docs, titles, vocab),
                           functools.partial(_digest, docs, titles))
    else:
        found = [_segment(doc.text, title, vocab) for doc, title in zip(docs, titles)]
    for doc, sentences in zip(docs, found):
        doc.sentences = sentences
    return vocab


def _digest(docs: list[Document], titles: list[str | None]) -> Iterator[bytes]:
    """Exactly the strings `_segment` reads, a document at a time: their count (1, or
    2 with a title) and byte counts as int64s, then their UTF-8 bytes."""
    for doc, title in zip(docs, titles):
        strings = [doc.text] if title is None else [doc.text, title]
        data = [string.encode("utf-8", "surrogatepass") for string in strings]
        yield np.array([len(data), *map(len, data)], "<i8").tobytes()
        yield from data


def _parse(docs: list[Document], titles: list[str | None], vocab: Vocabulary, f,
           writer: cache.Writer) -> tuple[list[Sentences], list[int] | None]:
    """The sentences of `docs` as `_segment` gives them, and the head fields of the
    entry written through `writer` (None for none)."""
    found = [_segment(doc.text, title, vocab) for doc, title in zip(docs, titles)]
    if not writer.ok:
        return found, None
    ids, lengths = (np.concatenate([np.empty(0, np.int32), *parts]) for parts in (
        [s.ids for s in found], [np.diff(s.starts) for s in found]))
    at = np.arange(len(ids))
    first = np.full(len(vocab.tokens), len(ids))
    np.minimum.at(first, ids, at)  # no sort: its code would stay resident
    distinct = ids[first[ids] == at]  # in first-occurrence order
    local = np.empty(len(vocab.tokens), np.int32)
    local[distinct] = np.arange(len(distinct))
    section = cache.lines([vocab.tokens[i] for i in distinct.tolist()])
    counts = np.array([len(s) for s in found], np.int32)
    spans = np.concatenate([np.empty((0, 2), np.int64), *(s.spans for s in found)])
    return found, writer.seal([len(spans), len(ids), len(section)],
                              [section, local[ids], counts, lengths, spans.ravel()])


def _load_entry(docs: list[Document], titles: list[str | None], vocab: Vocabulary,
                e, fields: list[int]) -> list[Sentences] | None:
    """The sentences of `docs` that entry file `e` holds, `e` read up to the end of
    its head, whose fields are `fields`; None where its CRC-32 shows it damaged. Only
    then are its tokens passed through `vocab`, in order, as segmentation would add them."""
    n_sentences, n_ids, token_bytes, _ = fields
    found = cache.unseal(e, fields, [(bytes, token_bytes), (np.int32, n_ids),
                                     (np.int32, len(docs)), (np.int32, n_sentences),
                                     (np.int64, 2 * n_sentences)])
    if found is None:
        return None
    section, ids, counts, lengths, spans = found
    spans = spans.reshape(-1, 2)
    *tokens, _ = section.decode("utf-8").split("\n")  # each ends in a "\n"
    # In place, with no second array of every id; the ids are as written, so none clips.
    np.take(np.array(list(map(vocab.__getitem__, tokens)), np.int32), ids, out=ids,
            mode="clip")
    firsts = np.cumsum(counts, dtype=np.int64) - counts
    bounds = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    found = []
    for doc, title, a, n in zip(docs, titles, firsts.tolist(), counts.tolist()):
        at = bounds[a:a + n + 1]
        found.append(Sentences(vocab, ids[at[0]:at[-1]], (at - at[0]).astype(np.int32),
                               spans[a:a + n], doc.text, title or ""))
    return found


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
        # "utf-8-sig": a byte-order mark (Excel's "CSV UTF-8") is not part of the first name.
        with open(p, newline="", encoding="utf-8-sig") as f:
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
            logger.warning("%s: empty text, skipped", where)
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
            entry["entities_mean"], entry["entities_sd"] = mean_sd(ent_counts, sample_sd)
        stats[label] = entry
    return stats
