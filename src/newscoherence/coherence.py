"""Per-document coherence: mean pairwise similarity of sentence or entity vectors."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import embeddings as emb
from . import esa as esa_mod
from .corpus import Document, LabeledCorpus, Sentence
from .embeddings import EmbeddingTable
from .entitylink import entity_set
from .esa import EsaIndex

__all__ = [
    "CoherenceScore",
    "CoherenceError",
    "METHODS",
    "sentence_rep_embedding",
    "coherence_sentences",
    "coherence_entities",
    "score_corpus",
    "write_scores_csv",
    "read_scores_csv",
]

METHODS = ("embedding", "esa", "entity")


class CoherenceError(Exception):
    """Raised for method/resource mismatches."""


@dataclass
class CoherenceScore:
    doc_id: str
    method: str
    value: float  # NaN when status is "undefined"
    element_count: int
    pair_count: int
    status: str  # "ok" | "undefined"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _undefined(doc_id: str, method: str, element_count: int = 0) -> CoherenceScore:
    return CoherenceScore(
        doc_id=doc_id,
        method=method,
        value=float("nan"),
        element_count=element_count,
        pair_count=0,
        status="undefined",
    )


def sentence_rep_embedding(
    s: Sentence, table: EmbeddingTable, unique_tokens: bool = False
) -> np.ndarray | None:
    """Mean of the in-vocabulary token vectors (occurrence-weighted by default).

    None when no token is in-vocabulary or the mean is the zero vector.
    """
    tokens = sorted(set(s.tokens)) if unique_tokens else s.tokens
    vectors = [v for v in (table.lookup(t) for t in tokens) if v is not None]
    if not vectors:
        return None
    rep = emb.mean_vector(vectors)
    if not np.any(rep):
        return None
    return rep


def _score(doc_id: str, method: str, rows) -> CoherenceScore:
    """Mean pairwise cosine of the nonzero rows of a dense matrix or of CSR arrays.

    With u_i the K unit rows and S their sum, |S|^2 = sum_i |u_i|^2 + sum_{i != j} u_i.u_j,
    so the mean over the K(K-1) ordered pairs is (|S|^2 - sum_i |u_i|^2) / (K(K-1)),
    in O(K d). Undefined when fewer than two rows are nonzero. Each row is first
    scaled by the power of two that brings its largest component into [0.5, 1),
    so no square overflows or underflows whatever the row's magnitude; that scaling
    is exact, and the unit rows are the ones the unscaled rows give.
    """
    if isinstance(rows, tuple):
        indptr, cols, values = rows
        lengths = np.diff(indptr)
        peaks = np.zeros(len(lengths))
        filled = lengths > 0
        if filled.any():  # each filled row runs up to the next filled row's start
            peaks[filled] = np.maximum.reduceat(np.abs(values), indptr[:-1][filled])
        values = np.ldexp(values, -np.repeat(np.frexp(peaks)[1], lengths))
        sq = np.bincount(np.repeat(np.arange(len(lengths)), lengths), weights=values**2,
                         minlength=len(lengths))
    else:
        peaks = np.abs(rows).max(axis=1, initial=0.0)
        rows = np.ldexp(rows, -np.frexp(peaks)[1][:, None])
        sq = np.einsum("ij,ij->i", rows, rows)
    keep = sq > 0.0
    k = int(np.count_nonzero(keep))
    if k < 2:
        return _undefined(doc_id, method, element_count=k)
    scale = 1.0 / np.sqrt(sq[keep])
    if isinstance(rows, tuple):
        nonzero = np.repeat(keep, lengths)
        values = values[nonzero] * np.repeat(scale, lengths[keep])
        cols = cols[nonzero]
        if cols.max() >= len(cols):  # wider than its nonzeros: sum the columns that occur
            cols = np.unique(cols, return_inverse=True)[1]
        total = np.bincount(cols, weights=values)
    else:
        unit = rows[keep] * scale[:, None]
        values = unit.ravel()
        total = unit.sum(axis=0)
    value = float(total @ total - values @ values) / (k * (k - 1))
    return CoherenceScore(doc_id=doc_id, method=method, value=value, element_count=k,
                          pair_count=k * (k - 1) // 2, status="ok")


def _sentence_means(matrix: np.ndarray, ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row i is the mean of the `counts[i]` rows of `matrix` that `ids` lists next,
    added in that order; zeros when `counts[i]` is 0. A sum past the float range
    is redone with its rows halved k times, 2**k > count, which keeps the mean's
    direction and is exact."""
    means = np.zeros((len(counts), matrix.shape[1]))
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    spans = [(i, a, b) for i, (a, b) in enumerate(zip(bounds, bounds[1:])) if b > a]
    with np.errstate(over="ignore", invalid="ignore"):
        for i, a, b in spans:
            np.add.reduce(matrix.take(ids[a:b], axis=0), axis=0, out=means[i])
    if not np.isfinite(means).all():
        for i, a, b in spans:
            rows = np.ldexp(matrix.take(ids[a:b], axis=0), -(b - a).bit_length())
            np.add.reduce(rows, axis=0, out=means[i])
    means /= np.maximum(counts, 1)[:, None]
    return means


def _embedding_scores(docs: list[Document], table: EmbeddingTable,
                      unique_tokens: bool) -> list[CoherenceScore]:
    """Method "embedding" for every document: each distinct token is looked up
    once, and each document's tokens become one array of table rows."""
    vocab: set[str] = set()
    for doc in docs:
        for s in _sentences(doc):
            vocab.update(s.tokens)
    row_of = {t: -1 if (row := table.row(t)) is None else row for t in vocab}
    scores = []
    for doc in docs:
        token_lists = [sorted(set(s.tokens)) if unique_tokens else s.tokens for s in doc.sentences]
        lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=len(token_lists))
        ids = np.fromiter(map(row_of.__getitem__, chain.from_iterable(token_lists)),
                          dtype=np.intp, count=int(lengths.sum()))
        known = ids >= 0
        counts = np.bincount(np.repeat(np.arange(len(lengths)), lengths)[known],
                             minlength=len(lengths))
        scores.append(_score(doc.id, "embedding",
                             _sentence_means(table.matrix, ids[known], counts)))
    return scores


def _sentences(doc: Document) -> list[Sentence]:
    if doc.sentences is None:
        raise CoherenceError(f"document {doc.id!r} has not been segmented")
    return doc.sentences


def coherence_sentences(doc: Document, rep) -> CoherenceScore:
    """Mean pairwise cosine between sentence representations (method "embedding").

    Sentences with undefined or zero representations are dropped; fewer than
    two usable sentences makes the score undefined. `rep` maps a Sentence to a
    dense array or None.
    """
    reps = [r for r in (rep(s) for s in _sentences(doc)) if r is not None]
    rows = np.array(reps, dtype=np.float64) if reps else np.zeros((0, 0))
    return _score(doc.id, "embedding", rows)


def coherence_entities(
    doc: Document, entity_table: EmbeddingTable, multiset: bool = False
) -> CoherenceScore:
    """Mean pairwise cosine between the document's distinct linked-entity vectors.

    `multiset` scores over the mention multiset instead of distinct entities.
    """
    if doc.entity_mentions is None:
        raise CoherenceError(f"document {doc.id!r} has not been entity-linked")
    if multiset:
        ids = [m.entity_id for m in doc.entity_mentions]
    else:
        ids = entity_set(doc.entity_mentions)
    vectors = [v for v in (entity_table.lookup(i) for i in ids) if v is not None]
    rows = np.array(vectors, dtype=np.float64).reshape(len(vectors), entity_table.dim)
    return _score(doc.id, "entity", rows)


def score_corpus(
    corpus: LabeledCorpus,
    method: str,
    embedding_table: EmbeddingTable | None = None,
    esa_index: EsaIndex | None = None,
    entity_table: EmbeddingTable | None = None,
    unique_tokens: bool = False,
    entity_multiset: bool = False,
    workers: int = 1,
) -> list[CoherenceScore]:
    """One CoherenceScore per document, ordered by doc id.

    Method "entity" needs documents linked by `entitylink.link_corpus`; an
    unlinked one raises CoherenceError. Scoring runs in the calling thread.
    `workers` is accepted so that existing callers keep working; the output is
    the same for any value.
    """
    if method not in METHODS:
        raise CoherenceError(f"unknown method {method!r}")
    if method == "embedding" and embedding_table is None:
        raise CoherenceError("method 'embedding' requires an embedding table")
    if method == "esa" and esa_index is None:
        raise CoherenceError("method 'esa' requires an ESA index")
    if method == "entity" and entity_table is None:
        raise CoherenceError("method 'entity' requires an entity vector table")

    if method == "embedding":
        return sorted(_embedding_scores(corpus.documents, embedding_table, unique_tokens),
                      key=lambda s: s.doc_id)
    scores = []
    for doc in corpus.documents:
        if method == "esa":
            # A sum of token vectors has the direction of their mean.
            tokens = [set(s.tokens) if unique_tokens else s.tokens for s in _sentences(doc)]
            score = _score(doc.id, "esa", esa_mod.sentence_matrix(esa_index, tokens))
        else:
            score = coherence_entities(doc, entity_table, multiset=entity_multiset)
        scores.append(score)
    return sorted(scores, key=lambda s: s.doc_id)


def write_scores_csv(
    scores: list[CoherenceScore], labels: dict[str, str], path: str | Path
) -> None:
    """doc_id,label,method,value,element_count,pair_count,status with 6-decimal values."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["doc_id", "label", "method", "value", "element_count", "pair_count", "status"]
        )
        for s in scores:
            value = f"{s.value:.6f}" if s.ok else ""
            writer.writerow(
                [s.doc_id, labels.get(s.doc_id, ""), s.method, value,
                 s.element_count, s.pair_count, s.status]
            )


def read_scores_csv(path: str | Path) -> tuple[list[CoherenceScore], dict[str, str]]:
    scores: list[CoherenceScore] = []
    labels: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            value = float(row["value"]) if row["value"] else float("nan")
            scores.append(
                CoherenceScore(
                    doc_id=row["doc_id"],
                    method=row["method"],
                    value=value,
                    element_count=int(row["element_count"]),
                    pair_count=int(row["pair_count"]),
                    status=row["status"],
                )
            )
            labels[row["doc_id"]] = row["label"]
    return scores, labels
