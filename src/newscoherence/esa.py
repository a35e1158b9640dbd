"""Explicit-semantic-analysis index: sparse concept-space word vectors from a knowledge base."""

from __future__ import annotations

import functools
import io
import logging
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import cache
from .corpus import tokenize
from .embeddings import text_lines

logger = logging.getLogger(__name__)

__all__ = [
    "EsaIndex",
    "EsaError",
    "DEFAULT_STOPWORDS",
    "build_esa_index",
    "esa_word_vector",
    "cosine_sparse",
    "save_index",
    "load_index",
]

# Sparse vectors are plain dicts: concept id -> nonnegative weight, zeros implicit.
SparseVector = dict

WEIGHTINGS = ("tf", "tfidf")

# Without stopword removal, raw-tf concept vectors are dominated by function
# words and similarities saturate near 1.
DEFAULT_STOPWORDS = frozenset(
    """a an and are as at be by for from has have he her his i in is it its
    my not of on or our she that the their them they this to was we were will
    with you your""".split()
)


class EsaError(Exception):
    """Raised for empty knowledge bases or invalid sparse-vector arithmetic."""


@dataclass(eq=False)
class EsaIndex:
    """A knowledge base's concept titles and its tokens x concepts weight matrix,
    held as arrays: row i, for tokens[i], is indices/data[indptr[i]:indptr[i+1]] (CSR),
    and df[i] counts the articles that hold tokens[i]. `rows` maps a token to its i."""

    concepts: list[str]  # concept id -> title
    tokens: list[str]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    df: np.ndarray  # int64
    weighting: str = "tfidf"

    def __post_init__(self):
        self.rows = dict(zip(self.tokens, range(len(self.tokens))))

    @property
    def doc_count(self) -> int:
        return len(self.concepts)

    def row(self, i: int) -> SparseVector:
        """Row i, for tokens[i], as {concept id: weight}."""
        a, b = self.indptr[i:i + 2]
        return dict(zip(self.indices[a:b].tolist(), self.data[a:b].tolist()))

    @property
    def inverted(self) -> dict[str, SparseVector]:
        """Every row by its token, built on each read; no scoring path reads it."""
        return {token: self.row(i) for token, i in self.rows.items()}

    def __eq__(self, other):
        if not isinstance(other, EsaIndex):
            return NotImplemented
        return ((self.concepts, self.tokens, self.weighting)
                == (other.concepts, other.tokens, other.weighting)
                and all(map(np.array_equal, (self.indptr, self.indices, self.data, self.df),
                            (other.indptr, other.indices, other.data, other.df))))


def build_esa_index(
    kb_docs: list[tuple[str, str]],
    weighting: str = "tfidf",
    stopwords: frozenset[str] | None = DEFAULT_STOPWORDS,
    min_weight: float = 0.0,
) -> EsaIndex:
    """Build the inverted token -> concept-weight index from (title, text) articles.

    tf weighting stores raw in-article counts; tfidf multiplies by
    ln(doc_count / df) and drops tokens present in every article.
    Articles with no tokens are skipped with a warning.
    """
    if weighting not in WEIGHTINGS:
        raise EsaError(f"unknown weighting {weighting!r}")
    if not kb_docs:
        raise EsaError("empty knowledge base")
    stop = stopwords or frozenset()

    concepts: list[str] = []
    article_tfs: list[Counter] = []
    for title, text in kb_docs:
        counts = Counter(t for t in tokenize(text) if t not in stop)
        if not counts:
            logger.warning("knowledge-base article %r has no tokens, skipped", title)
            continue
        concepts.append(title)
        article_tfs.append(counts)
    if not concepts:
        raise EsaError("empty knowledge base (all articles skipped)")

    # Rows in order of first occurrence; one (token, article) pair per count.
    tokens = list(dict.fromkeys(chain.from_iterable(article_tfs)))
    row_of = dict(zip(tokens, range(len(tokens))))
    pairs = sum(map(len, article_tfs))
    row = np.fromiter(map(row_of.__getitem__, chain.from_iterable(article_tfs)),
                      dtype=np.int64, count=pairs)
    cid = np.repeat(np.arange(len(concepts)), [len(c) for c in article_tfs])
    tf = np.fromiter(chain.from_iterable(c.values() for c in article_tfs),
                     dtype=np.float64, count=pairs)
    df = np.bincount(row, minlength=len(tokens))
    if weighting == "tf":
        weight = tf
    else:  # math.log, once per distinct df: numpy's log may differ in the last bit
        logs = {d: math.log(len(concepts) / d) for d in set(df.tolist())}
        weight = tf * np.array([logs[d] for d in df.tolist()])[row]
    keep = (weight > 0.0) & (weight >= min_weight)
    order = np.argsort(row[keep], kind="stable")  # keeps each row's concept ids ascending
    return EsaIndex(
        concepts=concepts, tokens=tokens,
        indptr=np.concatenate(([0], np.cumsum(np.bincount(row[keep], minlength=len(tokens))))),
        indices=cid[keep][order], data=weight[keep][order],
        df=df, weighting=weighting,
    )


def esa_word_vector(index: EsaIndex, token: str) -> SparseVector | None:
    """Stored concept vector for a token, or None for out-of-vocabulary tokens."""
    i = index.rows.get(token)
    return None if i is None else index.row(i)


def cosine_sparse(u: SparseVector, v: SparseVector) -> float:
    """Sparse dot over shared keys / product of norms; in [0,1] for nonnegative weights."""
    nu = math.sqrt(sum(w * w for w in u.values()))
    nv = math.sqrt(sum(w * w for w in v.values()))
    if nu == 0.0 or nv == 0.0:
        raise EsaError("cosine of a zero sparse vector is undefined")
    if len(u) > len(v):
        u, v = v, u
    dot = sum(w * v[k] for k, w in u.items() if k in v)
    return dot / (nu * nv)


def save_index(index: EsaIndex, path: str | Path) -> None:
    """Serialize deterministically: header, concept table, then sorted token rows.

    A record is one tab-separated line, so a title holding a tab or line break
    cannot be stored and raises EsaError before anything is written."""
    for title in index.concepts:
        if any(c in title for c in "\t\r\n"):
            raise EsaError(f"concept title {title!r} holds a tab or line break; "
                           f"an ESA index file cannot store it")
    df = index.df.tolist()
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"ESA1\t{index.doc_count}\t{index.weighting}\n")
        for title in index.concepts:
            f.write(f"C\t{title}\n")
        for token, i in sorted(index.rows.items()):
            cells = " ".join(f"{cid}:{w!r}" for cid, w in sorted(index.row(i).items()))
            f.write(f"T\t{token}\t{df[i]}\t{cells}\n")


_CELL = np.dtype([("id", np.int64), ("weight", np.float64)])
# An index's cache entry (see `cache`): its fields are the int64s concepts, tokens,
# nnz, weighting (its place in WEIGHTINGS), token bytes and title bytes; its sections
# are indptr, indices, data and df, in the parse's dtypes, then each token and each
# concept title with a "\n".
_VERSION = b"newscoherence index 2\n"


def _check_cells(ids: np.ndarray, weights: np.ndarray, widths, doc_count: int) -> None:
    """The rule for the cells of rows that hold widths[i] cells each: raises
    ValueError for an id out of range, a non-finite or negative weight, or an id
    twice in one row."""
    if len(ids) and not (ids.min() >= 0 and ids.max() < doc_count):
        raise ValueError(f"concept id out of range 0..{doc_count - 1}")
    if not np.isfinite(weights).all():
        raise ValueError("non-finite weight")
    if (weights < 0).any():
        raise ValueError("negative weight")
    keys = np.repeat(np.arange(len(widths)), widths) * doc_count + ids
    # Rows whose ids rise, as `save_index` writes them, need no sort.
    if (np.diff(keys) <= 0).any() and (np.diff(np.sort(keys)) == 0).any():
        raise ValueError("concept id twice in one row")


def _cells(rows: bytes, widths: list[int], doc_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Concept ids and weights of the space-separated `id:weight` cells of UTF-8
    rows, one row per line, which must hold widths[i] cells each; parsed by one
    numpy call, one cell per line. Raises ValueError for a malformed cell or one
    that breaks `_check_cells`."""
    cells = (np.loadtxt(io.BytesIO(rows.replace(b" ", b"\n")), dtype=_CELL, delimiter=":",
                        comments=None, ndmin=1, encoding="utf-8")
             if rows.strip(b" \n") else np.empty(0, _CELL))  # loadtxt warns on no data
    ids, weights = cells["id"].copy(), cells["weight"].copy()
    if len(ids) != sum(widths):  # loadtxt skips the empty lines of doubled spaces
        raise ValueError("empty cell")
    _check_cells(ids, weights, widths, doc_count)
    return ids, weights


def _entry_body(index: EsaIndex, writer: cache.Writer) -> list[int]:
    """Write through `writer` what the cache entry of `index` holds after its head,
    and return the fields of its head."""
    tokens, titles = cache.lines(index.tokens), cache.lines(index.concepts)
    return writer.seal([index.doc_count, len(index.tokens), len(index.indices),
                        WEIGHTINGS.index(index.weighting), len(tokens), len(titles)],
                       [index.indptr, index.indices, index.data, index.df, tokens, titles])


def _load_entry(e, fields: list[int]) -> EsaIndex | None:
    """The index that entry file `e` holds, `e` read up to the end of its head, whose
    fields are `fields`. None where its CRC-32 shows it damaged or it holds what a
    parse would reject."""
    doc_count, n, nnz, weighting, token_bytes, title_bytes, _ = fields
    found = cache.unseal(e, fields, [(np.int64, n + 1), (np.int64, nnz), (np.float64, nnz),
                                     (np.int64, n), (bytes, token_bytes), (bytes, title_bytes)])
    if found is None or weighting >= len(WEIGHTINGS):
        return None
    indptr, indices, data, df = found[:4]
    tokens, concepts = (texts.decode("utf-8").split("\n")[:-1] for texts in found[4:])
    widths = np.diff(indptr)
    if indptr[0] != 0 or indptr[-1] != nnz or (df < 0).any() or (widths < 0).any():
        return None
    _check_cells(indices, data, widths, doc_count)
    index = EsaIndex(concepts=concepts, tokens=tokens, indptr=indptr, indices=indices,
                     data=data, df=df, weighting=WEIGHTINGS[weighting])
    return index if len(index.rows) == n else None  # else a token is there twice


def load_index(path: str | Path) -> EsaIndex:
    """Read an index file that `save_index` wrote. Records are split line by line;
    the cells of all rows are parsed at once, and on any fault each row is parsed
    again alone, by the same parser, to name the first bad line.

    The file is read through the parse cache (`cache.load`): a later load of the
    same regular file whose bytes have the same size and CRC-32 reads the index
    from its entry."""
    p = Path(path)
    return cache.load(p, _VERSION, 7, _load_entry, functools.partial(_parse, p))


def _parse(p: Path, f, writer: cache.Writer) -> tuple[EsaIndex, list[int] | None]:
    """The index of file `p`, parsed from its open file `f`, and the head fields of
    the entry written through `writer` (None for none)."""
    concepts: list[str] = []
    linenos: dict[str, int] = {}  # token -> the line of its row
    df: list[int] = []
    widths: list[int] = []
    # Every row's cell text, one row per line: one large buffer, not a string per row.
    rows = bytearray()
    lines = text_lines(f, p, EsaError, writer)
    header = next(lines, (1, ""))[1].split("\t")
    if len(header) != 3 or header[0] != "ESA1":
        raise EsaError(f"{p} line 1: not an ESA index file")
    try:
        doc_count = int(header[1])
    except ValueError as e:
        raise EsaError(f"{p} line 1: bad concept count: {e}") from e
    weighting = header[2]
    if weighting not in WEIGHTINGS:
        raise EsaError(f"{p} line 1: unknown weighting {weighting!r}")
    for lineno, line in lines:
        parts = line.split("\t")
        width = {"C": 2, "T": 4}.get(parts[0])
        if width is None:
            raise EsaError(f"{p} line {lineno}: unknown record type {parts[0]!r}")
        try:
            if len(parts) != width:
                raise ValueError(f"expected {width} tab-separated fields, got {len(parts)}")
            if parts[0] == "C":
                concepts.append(parts[1])
                continue
            token, token_df = parts[1], int(parts[2])
            if not 0 <= token_df < 1 << 63:  # the int64 of a cache entry
                raise ValueError(f"df {token_df} outside 0..{(1 << 63) - 1}")
        except ValueError as e:
            raise EsaError(f"{p} line {lineno}: malformed {parts[0]!r} record: {e}") from e
        if token in linenos:
            raise EsaError(f"{p} line {lineno}: duplicate token {token!r}")
        linenos[token] = lineno
        df.append(token_df)
        widths.append(parts[3].count(" ") + 1 if parts[3] else 0)
        rows += parts[3].encode() + b"\n"
    if doc_count != len(concepts):
        raise EsaError(f"{p} line 1: header declares {doc_count} concepts, "
                       f"the file has {len(concepts)}")
    try:
        indices, data = _cells(rows, widths, doc_count)
    except ValueError:
        for lineno, width, row in zip(linenos.values(), widths, rows.split(b"\n")):
            try:
                _cells(row, [width], doc_count)
            except ValueError as e:
                raise EsaError(f"{p} line {lineno}: malformed 'T' record: {e}") from e
        raise  # no row is malformed alone: the fault is in this loader
    index = EsaIndex(concepts=concepts, tokens=list(linenos),
                     indptr=np.concatenate(([0], np.cumsum(widths, dtype=np.int64))),
                     indices=indices, data=data, df=np.array(df, dtype=np.int64),
                     weighting=weighting)
    return index, _entry_body(index, writer) if writer.ok else None
