"""Per-document coherence: mean pairwise similarity of sentence or entity vectors."""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .corpus import Document, Label, LabeledCorpus, Sentence, csv_records
from .embeddings import EmbeddingTable
from .entitylink import entity_set
from .esa import EsaIndex

__all__ = [
    "CoherenceScore",
    "CoherenceError",
    "METHODS",
    "SCORE_COLUMNS",
    "sentence_rep_embedding",
    "coherence_sentences",
    "coherence_entities",
    "score_corpus",
    "sentence_matrix",
    "corpus_vocab",
    "scores_csv",
    "read_scores_csv",
]

METHODS = ("embedding", "esa", "entity")
SCORE_COLUMNS = ("doc_id", "label", "method", "value", "element_count", "pair_count", "status")
Csr = tuple[np.ndarray, np.ndarray, np.ndarray]  # indptr, indices, data
# Gathered (occurrence, concept) entries that `sentence_matrix` sums at once. Each
# takes 40-110 B of scratch (the CSR side's sort the most), so a chunk's scratch
# stays under half a MB however many entries a document has. On 2 vCPUs, 2**11
# scored a wide index 10 % slower and 2**13 no faster, while holding more.
_CHUNK_ENTRIES = 1 << 12


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
    """Mean of the in-vocabulary token vectors (occurrence-weighted by default), as
    method "embedding" takes it; None when there is none or it is the zero vector."""
    [tokens] = _token_lists([s], unique_tokens)
    [rep] = _sentence_means([tokens], _row_map(table, tokens), table.matrix)
    return rep if np.any(rep) else None


def _token_lists(sentences: list[Sentence], unique_tokens: bool) -> list[list[str]]:
    """Each sentence's tokens: distinct and sorted with `unique_tokens`, else all."""
    return [sorted(set(s.tokens)) if unique_tokens else s.tokens for s in sentences]


def _row_map(table: EmbeddingTable, tokens: Iterable[str]) -> dict[str, int]:
    """Token -> its row in `table`, for each of `tokens` that the table has."""
    return {t: row for t in tokens if (row := table.row(t)) is not None}


def _score(doc_id: str, method: str, rows) -> CoherenceScore:
    """Mean pairwise cosine of the nonzero rows of a dense matrix or of CSR arrays.

    With u_i the K unit rows and S their sum, |S|^2 = sum_i |u_i|^2 + sum_{i != j} u_i.u_j,
    so the mean over the K(K-1) ordered pairs is (|S|^2 - sum_i |u_i|^2) / (K(K-1)),
    in O(K d). Undefined when fewer than two rows are nonzero. Each row is first
    scaled by the power of two that brings its largest component into [0.5, 1),
    so no square overflows or underflows whatever the row's magnitude; that scaling
    is exact, and the unit rows are the ones the unscaled rows give. The scaled
    rows are the one copy made of `rows`, which is left as it was.
    """
    if isinstance(rows, tuple):
        indptr, cols, values = rows
        lengths = np.diff(indptr)
        row = np.repeat(np.arange(len(lengths)), lengths)
        peaks = np.zeros(len(lengths))
        filled = lengths > 0
        if filled.any():  # each filled row runs up to the next filled row's start
            starts = indptr[:-1][filled]
            peaks[filled] = np.maximum(np.maximum.reduceat(values, starts),
                                       -np.minimum.reduceat(values, starts))
        unit = np.ldexp(values, -np.frexp(peaks)[1][row])
        sq = np.bincount(row, weights=np.square(unit), minlength=len(lengths))
    else:
        peaks = np.maximum(rows.max(axis=1, initial=0.0), -rows.min(axis=1, initial=0.0))
        unit = np.ldexp(rows, -np.frexp(peaks)[1][:, None])
        sq = np.einsum("ij,ij->i", unit, unit)
    keep = sq > 0.0
    k = int(np.count_nonzero(keep))
    if k < 2:
        return _undefined(doc_id, method, element_count=k)
    scale = 1.0 / np.sqrt(sq[keep])
    if isinstance(rows, tuple):
        if k < len(keep):
            nonzero = keep[row]
            unit, cols = unit[nonzero], cols[nonzero]
        unit *= np.repeat(scale, lengths[keep])
        total = np.bincount(cols, weights=unit)
    else:
        if k < len(keep):
            unit = unit[keep]
        unit *= scale[:, None]
        total = unit.sum(axis=0)
    values = unit.ravel()
    value = float(total @ total - values @ values) / (k * (k - 1))
    return CoherenceScore(doc_id=doc_id, method=method, value=value, element_count=k,
                          pair_count=k * (k - 1) // 2, status="ok")


def _occurrences(token_lists: list[list[str]],
                 row_of: dict[str, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sentence and the row that `row_of` gives of each token occurrence it
    knows, in occurrence order, and each sentence's count of them."""
    lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=len(token_lists))
    rows = np.fromiter(map(row_of.get, chain.from_iterable(token_lists), repeat(-1)),
                       dtype=np.intp, count=int(lengths.sum()))
    known = rows >= 0
    sentence = np.repeat(np.arange(len(lengths)), lengths)[known]
    return sentence, rows[known], np.bincount(sentence, minlength=len(lengths))


def _halvings(counts: np.ndarray) -> np.ndarray:
    """The least k with 2**k > count, per count. A sum past the float range is redone
    with its terms halved k times, which keeps it finite, exact and in its direction."""
    return np.frexp(counts)[1]


def _sentence_means(token_lists: list[list[str]], row_of: dict[str, int],
                    matrix: np.ndarray) -> np.ndarray:
    """Row i is the mean of the rows of `matrix` that `row_of` gives the tokens of
    `token_lists[i]`, added in token order; zeros when it has none."""
    sentence, ids, counts = _occurrences(token_lists, row_of)
    means = np.zeros((len(counts), matrix.shape[1]))
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    spans = [(i, a, b) for i, (a, b) in enumerate(zip(bounds, bounds[1:])) if b > a]
    with np.errstate(over="ignore", invalid="ignore"):
        for i, a, b in spans:
            np.add.reduce(matrix.take(ids[a:b], axis=0), axis=0, out=means[i])
    if not np.isfinite(means).all():
        halvings = _halvings(counts)
        for i, a, b in spans:
            rows = np.ldexp(matrix.take(ids[a:b], axis=0), -halvings[i])
            np.add.reduce(rows, axis=0, out=means[i])
    means /= np.maximum(counts, 1)[:, None]
    return means


def _slices(starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The positions starts[i] .. starts[i] + widths[i] - 1 of every slice i, in order."""
    return np.arange(widths.sum()) + np.repeat(starts - np.cumsum(widths) + widths, widths)


def sentence_matrix(index: EsaIndex,
                    token_lists: list[list[str]]) -> tuple[np.ndarray | Csr, np.ndarray]:
    """One row per token list: the sum of its tokens' ESA concept vectors, which
    points the way of their mean; out-of-index tokens add nothing. Returns the
    rows and the concept id of each of their C columns, the concepts the lists touch.

    Each token occurrence contributes its row's entries, E in all, and each cell
    is their sum in occurrence order. The rows are a dense K x C array when
    K x C <= E, else CSR arrays, so the output is never larger than the entries
    gathered. The entries are gathered and summed in chunks of whole sentences,
    each of at most _CHUNK_ENTRIES of them or one wider sentence, so the scratch
    follows the chunk and the output, not E."""
    indptr, indices, data = index.indptr, index.indices, index.data
    sentence, flat, counts = _occurrences(token_lists, index.rows)
    k = len(counts)
    # The document's distinct tokens, their rows' entries and the concepts those touch.
    tokens, occurrence = np.unique(flat, return_inverse=True)
    widths = indptr[tokens + 1] - indptr[tokens]
    pos = _slices(indptr[tokens], widths)
    columns, column = np.unique(indices[pos], return_inverse=True)
    weight, c = data[pos], len(columns)
    del pos  # the chunks read its entries' columns and weights alone
    # Each occurrence's entries: its token's slice of `pos`. Sentence i's
    # occurrences start at firsts[i] and its entries at done[i]; done[k] is E.
    spans = widths[occurrence]
    starts = (np.cumsum(widths) - widths)[occurrence]
    firsts = np.concatenate(([0], np.cumsum(counts)))
    done = np.concatenate(([0], np.cumsum(spans)))[firsts]
    dense = k * c <= done[-1]
    bounds = [0]  # each chunk's first sentence, then k
    while bounds[-1] < k:
        s = bounds[-1]
        t = int(np.searchsorted(done, done[s] + _CHUNK_ENTRIES, side="right")) - 1
        bounds.append(max(t, s + 1))

    def summed(halvings: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
        """Each cell's sum, and the cells when the rows are CSR; with `halvings`,
        each sentence's terms are halved that many times."""
        sums = np.empty(k * c) if dense else []
        cells = []
        for s, t in zip(bounds, bounds[1:]):
            a, b = firsts[s], firsts[t]
            entry = _slices(starts[a:b], spans[a:b])
            weights = weight[entry]
            if halvings is not None:
                weights = np.ldexp(weights, -np.repeat(halvings[sentence[a:b]], spans[a:b]))
            # Dense keys count from the block's row s, CSR keys from row 0.
            key = np.repeat((sentence[a:b] - (s if dense else 0)) * c, spans[a:b])
            key += column[entry]
            if dense:
                sums[s * c:t * c] = np.bincount(key, weights, (t - s) * c)
            else:  # chunk i's cells all sort before chunk i + 1's
                chunk_cells, key = np.unique(key, return_inverse=True)
                cells.append(chunk_cells)
                sums.append(np.bincount(key, weights))
        return (sums, None) if dense else (np.concatenate(sums), np.concatenate(cells))

    sums, cells = summed(None)
    if not np.isfinite(sums).all():
        sums, cells = summed(_halvings(counts))
    if dense:
        return sums.reshape(k, c), columns
    row_lengths = np.bincount(cells // c, minlength=k)
    return (np.concatenate(([0], np.cumsum(row_lengths))), cells % c, sums), columns


def corpus_vocab(docs: Iterable[Document]) -> set[str]:
    """Every sentence token of `docs`: the tokens method "embedding" looks up."""
    vocab: set[str] = set()
    for doc in docs:
        for s in _sentences(doc):
            vocab.update(s.tokens)
    return vocab


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
    return _score(doc.id, "entity", _entity_rows(doc, entity_table, multiset))


def _entity_rows(doc: Document, entity_table: EmbeddingTable, multiset: bool) -> np.ndarray:
    """The vectors of the document's linked entities that the table has."""
    if doc.entity_mentions is None:
        raise CoherenceError(f"document {doc.id!r} has not been entity-linked")
    ids = ([m.entity_id for m in doc.entity_mentions] if multiset
           else entity_set(doc.entity_mentions))
    return entity_table.matrix[[row for row in map(entity_table.row, ids) if row is not None]]


def score_corpus(
    corpus: LabeledCorpus,
    method: str,
    embedding_table: EmbeddingTable | None = None,
    esa_index: EsaIndex | None = None,
    entity_table: EmbeddingTable | None = None,
    unique_tokens: bool = False,
    entity_multiset: bool = False,
) -> list[CoherenceScore]:
    """One CoherenceScore per document, ordered by doc id.

    Method "entity" needs documents linked by `entitylink.link_corpus`; an
    unlinked one raises CoherenceError.
    """
    if method not in METHODS:
        raise CoherenceError(f"unknown method {method!r}")
    if method == "embedding" and embedding_table is None:
        raise CoherenceError("method 'embedding' requires an embedding table")
    if method == "esa" and esa_index is None:
        raise CoherenceError("method 'esa' requires an ESA index")
    if method == "entity" and entity_table is None:
        raise CoherenceError("method 'entity' requires an entity vector table")

    if method == "embedding":  # each distinct token is looked up once per corpus
        row_of = _row_map(embedding_table, corpus_vocab(corpus.documents))

    def rows(doc: Document):
        if method == "entity":
            return _entity_rows(doc, entity_table, entity_multiset)
        tokens = _token_lists(_sentences(doc), unique_tokens)
        if method == "embedding":
            return _sentence_means(tokens, row_of, embedding_table.matrix)
        return sentence_matrix(esa_index, tokens)[0]  # sums point the way of the means

    # No name holds a document's rows, so `_score` frees each copy as it makes the next.
    return sorted((_score(doc.id, method, rows(doc)) for doc in corpus.documents),
                  key=lambda s: s.doc_id)


def scores_csv(scores: list[CoherenceScore], labels: dict[str, str]) -> str:
    """doc_id,label,method,value,element_count,pair_count,status with 6-decimal
    values, as the text of a CSV file (lines end in \\r\\n)."""
    f = io.StringIO()
    writer = csv.writer(f)
    writer.writerow(SCORE_COLUMNS)
    for s in scores:
        value = f"{s.value:.6f}" if s.ok else ""
        writer.writerow([s.doc_id, labels.get(s.doc_id, ""), s.method, value,
                         s.element_count, s.pair_count, s.status])
    return f.getvalue()


def read_scores_csv(path: str | Path) -> tuple[list[CoherenceScore], dict[str, str]]:
    """The scores of a file that `scores_csv` wrote, and a doc id -> label map.

    Every row must hold the seven columns: one method for the whole file, a
    doc id seen once, the label fake or legitimate, a status "ok" with a value
    in [-1, 1] or "undefined" with none, and counts that are integers >= 0.
    Any other row raises CoherenceError naming its line."""
    scores: list[CoherenceScore] = []
    labels: dict[str, str] = {}
    for lineno, row in csv_records(path, SCORE_COLUMNS):
        where = f"{path} line {lineno}"
        if None in row or None in row.values():
            raise CoherenceError(f"{where}: the row has not one field per header column")
        doc_id, label, method, raw, elements, pairs, status = map(row.get, SCORE_COLUMNS)
        if method not in METHODS or scores and method != scores[0].method:
            raise CoherenceError(f"{where}: method {method!r}; a file holds one known method")
        if doc_id in labels:
            raise CoherenceError(f"{where}: duplicate doc_id {doc_id!r}")
        if label not in (Label.FAKE, Label.LEGITIMATE):
            raise CoherenceError(f"{where}: label {label!r} is neither fake nor legitimate")
        try:
            value = float(raw) if raw else math.nan
            counts = int(elements), int(pairs)
        except ValueError as e:
            raise CoherenceError(f"{where}: {e}") from e
        valid = (-1.0 <= value <= 1.0 if status == "ok"
                 else status == "undefined" and not raw)
        if not valid:
            raise CoherenceError(f"{where}: status {status!r} with value {raw!r}; "
                                 f"'ok' takes a value in [-1, 1], 'undefined' none")
        if min(counts) < 0:
            raise CoherenceError(f"{where}: a count is negative")
        scores.append(CoherenceScore(doc_id, method, value, *counts, status))
        labels[doc_id] = label
    return scores, labels
