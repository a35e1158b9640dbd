"""Explicit-semantic-analysis index: sparse concept-space word vectors from a knowledge base."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

from .corpus import tokenize

logger = logging.getLogger(__name__)

__all__ = [
    "EsaIndex",
    "EsaError",
    "DEFAULT_STOPWORDS",
    "build_esa_index",
    "esa_word_vector",
    "mean_sparse",
    "cosine_sparse",
    "save_index",
    "load_index",
]

# Sparse vectors are plain dicts: concept id -> nonnegative weight, zeros implicit.
SparseVector = dict

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

    def __post_init__(self):
        if self.doc_count != len(self.concepts):
            raise EsaError("doc_count must equal the number of concepts")


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


def mean_sparse(vectors: list[SparseVector]) -> SparseVector:
    """Keywise sum divided by list length (multiset over token occurrences)."""
    if not vectors:
        raise EsaError("mean of an empty sparse-vector list")
    n = len(vectors)
    acc: dict[int, float] = {}
    for vec in vectors:
        for k, w in vec.items():
            acc[k] = acc.get(k, 0.0) + w
    return {k: s / n for k, s in acc.items() if s != 0.0}


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
    """Serialize deterministically: header, concept table, then sorted token rows."""
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
    with open(p, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
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
        for lineno, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split("\t")
            try:
                if parts[0] == "C":
                    concepts.append(parts[1])
                elif parts[0] == "T":
                    token, token_df, cells = parts[1], int(parts[2]), parts[3]
                    row: dict[int, float] = {}
                    if cells:
                        for cell in cells.split(" "):
                            cid, w = cell.split(":")
                            row[int(cid)] = float(w)
                    inverted[token] = row
                    df[token] = token_df
                else:
                    raise EsaError(f"{p} line {lineno}: unknown record type {parts[0]!r}")
            except (IndexError, ValueError) as e:
                raise EsaError(f"{p} line {lineno}: malformed {parts[0]!r} record: {e}") from e
    return EsaIndex(
        concepts=concepts, inverted=inverted, doc_count=doc_count, df=df, weighting=weighting
    )
