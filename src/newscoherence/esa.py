"""Explicit-semantic-analysis index: sparse concept-space word vectors from a knowledge base."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import tokenize
from .embeddings import text_lines

logger = logging.getLogger(__name__)

__all__ = [
    "EsaIndex",
    "EsaError",
    "DEFAULT_STOPWORDS",
    "build_esa_index",
    "esa_word_vector",
    "sentence_matrix",
    "sparse_rows",
    "cosine_sparse",
    "save_index",
    "load_index",
]

# Sparse vectors are plain dicts: concept id -> nonnegative weight, zeros implicit.
SparseVector = dict
# Sparse matrices are CSR arrays (indptr, indices, data); row i is slice indptr[i]:indptr[i+1].
Csr = tuple[np.ndarray, np.ndarray, np.ndarray]

# Without stopword removal, raw-tf concept vectors are dominated by function
# words and similarities saturate near 1.
DEFAULT_STOPWORDS = frozenset(
    """a an and are as at be by for from has have he her his i in is it its
    my not of on or our she that the their them they this to was we were will
    with you your""".split()
)


class EsaError(Exception):
    """Raised for empty knowledge bases or invalid sparse-vector arithmetic."""


@dataclass
class EsaIndex:
    concepts: list[str]  # concept id -> title
    inverted: dict[str, dict[int, float]]
    doc_count: int
    df: dict[str, int]
    weighting: str = "tfidf"
    _matrix: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.doc_count != len(self.concepts):
            raise EsaError("doc_count must equal the number of concepts")

    def token_matrix(self) -> tuple[dict[str, int], Csr]:
        """Token -> row map and the tokens x concepts CSR arrays of `inverted`.

        Built at first use and cached, so `inverted` must not change afterwards.
        """
        if self._matrix is None:
            rows = {token: i for i, token in enumerate(self.inverted)}
            matrix = sparse_rows(list(self.inverted.values()))
            self._matrix = (rows, matrix)
        return self._matrix


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
    if weighting not in ("tf", "tfidf"):
        raise EsaError(f"unknown weighting {weighting!r}")
    if not kb_docs:
        raise EsaError("empty knowledge base")
    stop = stopwords or frozenset()

    concepts: list[str] = []
    article_tfs: list[dict[str, int]] = []
    for title, text in kb_docs:
        tokens = [t for t in tokenize(text) if t not in stop]
        if not tokens:
            logger.warning("knowledge-base article %r has no tokens, skipped", title)
            continue
        counts: dict[str, int] = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        concepts.append(title)
        article_tfs.append(counts)
    if not concepts:
        raise EsaError("empty knowledge base (all articles skipped)")

    doc_count = len(concepts)
    df: dict[str, int] = {}
    for counts in article_tfs:
        for token in counts:
            df[token] = df.get(token, 0) + 1

    inverted: dict[str, dict[int, float]] = {token: {} for token in df}
    for cid, counts in enumerate(article_tfs):
        for token, tf in counts.items():
            if weighting == "tf":
                w = float(tf)
            else:
                w = tf * math.log(doc_count / df[token])
            if w > 0.0 and w >= min_weight:
                inverted[token][cid] = w

    return EsaIndex(
        concepts=concepts, inverted=inverted, doc_count=doc_count, df=df, weighting=weighting
    )


def esa_word_vector(index: EsaIndex, token: str) -> SparseVector | None:
    """Stored concept vector for a token, or None for out-of-vocabulary tokens."""
    return index.inverted.get(token)


def sparse_rows(vectors: list[SparseVector]) -> Csr:
    """Stack sparse vectors as the rows of CSR arrays; columns are concept ids."""
    indptr = np.cumsum([0] + [len(v) for v in vectors])
    indices = np.fromiter(chain.from_iterable(vectors), dtype=np.int64, count=indptr[-1])
    data = np.fromiter(chain.from_iterable(v.values() for v in vectors), dtype=np.float64,
                       count=indptr[-1])
    return indptr, indices, data


def sentence_matrix(index: EsaIndex, token_lists: list[list[str]]) -> Csr:
    """One CSR row per token list: the sum of its tokens' concept vectors, which
    points the way of their mean; out-of-vocabulary tokens add nothing.
    Each row holds only the concepts it touches, so the cost follows the
    nonzeros, not the index size. A sum past the float range is redone with its
    list's weights halved k times, 2**k > the list's length, which keeps the
    row's direction and is exact."""
    rows, (indptr, indices, data) = index.token_matrix()
    ids = [[rows[t] for t in tokens if t in rows] for tokens in token_lists]
    lengths = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids))
    flat = np.fromiter(chain.from_iterable(ids), dtype=np.int64, count=int(lengths.sum()))
    starts, widths = indptr[flat], indptr[flat + 1] - indptr[flat]
    # Gather every occurrence's row slice: element j of slice i sits at starts[i] + j.
    pos = np.arange(widths.sum()) + np.repeat(starts - np.cumsum(widths) + widths, widths)
    sentence = np.repeat(np.repeat(np.arange(len(ids)), lengths), widths)
    # Sum the entries of each (sentence, concept) cell, in sentence-major order.
    cells, cell = np.unique(sentence * index.doc_count + indices[pos], return_inverse=True)
    counts = np.bincount(cells // index.doc_count, minlength=len(ids))
    sums = np.bincount(cell, weights=data[pos])
    if not np.isfinite(sums).all():
        sums = np.bincount(cell, weights=np.ldexp(data[pos], -np.frexp(lengths)[1][sentence]))
    return np.concatenate(([0], np.cumsum(counts))), cells % index.doc_count, sums


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
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"ESA1\t{index.doc_count}\t{index.weighting}\n")
        for title in index.concepts:
            f.write(f"C\t{title}\n")
        for token in sorted(index.inverted):
            row = index.inverted[token]
            cells = " ".join(f"{cid}:{w!r}" for cid, w in sorted(row.items()))
            f.write(f"T\t{token}\t{index.df[token]}\t{cells}\n")


def load_index(path: str | Path) -> EsaIndex:
    p = Path(path)
    with open(p, "rb") as f:
        lines = text_lines(f, p, EsaError)
        header = next(lines, (1, ""))[1].split("\t")
        if len(header) != 3 or header[0] != "ESA1":
            raise EsaError(f"{p}: not an ESA index file")
        try:
            doc_count = int(header[1])
        except ValueError as e:
            raise EsaError(f"{p} line 1: bad concept count: {e}") from e
        weighting = header[2]
        concepts: list[str] = []
        inverted: dict[str, dict[int, float]] = {}
        df: dict[str, int] = {}
        for lineno, line in lines:
            parts = line.split("\t")
            width = {"C": 2, "T": 4}.get(parts[0])
            try:
                if width is not None and len(parts) != width:
                    raise ValueError(f"expected {width} tab-separated fields, got {len(parts)}")
                if parts[0] == "C":
                    concepts.append(parts[1])
                elif parts[0] == "T":
                    token, token_df, cells = parts[1], int(parts[2]), parts[3]
                    row: dict[int, float] = {}
                    if cells:
                        for cell in cells.split(" "):
                            cid, w = cell.split(":")
                            row[int(cid)] = float(w)
                    if row and not (min(row) >= 0 and max(row) < doc_count):
                        raise EsaError(f"{p} line {lineno}: concept id out of range "
                                       f"0..{doc_count - 1}")
                    if not all(map(math.isfinite, row.values())):
                        raise EsaError(f"{p} line {lineno}: non-finite weight")
                    inverted[token] = row
                    df[token] = token_df
                else:
                    raise EsaError(f"{p} line {lineno}: unknown record type {parts[0]!r}")
            except ValueError as e:
                raise EsaError(f"{p} line {lineno}: malformed {parts[0]!r} record: {e}") from e
    return EsaIndex(
        concepts=concepts, inverted=inverted, doc_count=doc_count, df=df, weighting=weighting
    )
