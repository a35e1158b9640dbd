"""Per-document coherence: mean pairwise similarity of sentence or entity vectors."""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Document, Label, LabeledCorpus, Sentence, Sentences, Vocabulary, csv_records
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
# Word-vector cells that `_sentence_means` gathers at once: 64 KB of float64, 27 rows
# of a 300-d table. A halved pass holds a second such block. On `isot`, 2**14 peaked
# 0.16 MB higher, and 2**12 0.05 MB lower at about one gather per sentence.
_CHUNK_CELLS = 1 << 13


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
    vocab = Vocabulary()
    sentences = Sentences.of([s], vocab)
    _, rows, counts = _occurrences(sentences, *_id_maps(vocab, table.row, unique_tokens))
    [rep] = _sentence_means(rows, counts, table.matrix)
    return rep if np.any(rep) else None


def _id_maps(vocab: Vocabulary, row: Callable[[str], int | None],
             unique_tokens: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The row that `row` gives each id of `vocab`, -1 for none. With `unique_tokens`,
    the rows by rank instead, and each id's rank in the sorted order of the tokens."""
    rows = np.fromiter((-1 if (r := row(t)) is None else r for t in vocab.tokens),
                       dtype=np.intp, count=len(vocab.tokens))
    if not unique_tokens:
        return rows, None
    order = np.array(sorted(range(len(rows)), key=vocab.tokens.__getitem__), dtype=np.intp)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rows[order], rank


def _score(doc_id: str, method: str, rows) -> CoherenceScore:
    """Mean pairwise cosine of the nonzero rows of a dense matrix or of CSR arrays.

    With u_i the K unit rows and S their sum, |S|^2 = sum_i |u_i|^2 + sum_{i != j} u_i.u_j,
    so the mean over the K(K-1) ordered pairs is (|S|^2 - sum_i |u_i|^2) / (K(K-1)),
    in O(K d). Undefined when fewer than two rows are nonzero. Each row is first
    scaled by the power of two that brings its largest component into [0.5, 1),
    so no square overflows or underflows whatever the row's magnitude; that scaling
    is exact, and the unit rows are the ones the unscaled rows give. The rows are
    scaled in place, with no copy made: a caller hands over rows it has no more use for.
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
        unit = np.ldexp(values, -np.frexp(peaks)[1][row], out=values)
        sq = np.bincount(row, weights=np.square(unit), minlength=len(lengths))
    else:
        peaks = np.maximum(rows.max(axis=1, initial=0.0), -rows.min(axis=1, initial=0.0))
        unit = np.ldexp(rows, -np.frexp(peaks)[1][:, None], out=rows)
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


def _occurrences(sentences: Sentences, row_of: np.ndarray,
                 rank: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sentence and the row of each token occurrence that has one, in occurrence
    order, and each sentence's count of them: `_id_maps`' rows and ranks. With
    `rank`, each sentence's distinct ids count once, in the order of their ranks."""
    ids, lengths = sentences.ids, np.diff(sentences.starts)
    sentence = np.repeat(np.arange(len(lengths)), lengths)
    if rank is not None:  # sentence-major keys; `row_of` is by rank
        sentence, ids = np.divmod(np.unique(sentence * len(rank) + rank[ids]), len(rank))
    rows = row_of[ids]
    known = rows >= 0
    sentence = sentence[known]
    return sentence, rows[known], np.bincount(sentence, minlength=len(lengths))


def _halvings(counts: np.ndarray) -> np.ndarray:
    """The least k with 2**k > count, per count. A sum past the float range is redone
    with its terms halved k times, which keeps it finite, exact and in its direction."""
    return np.frexp(counts)[1]


def _chunks(done: np.ndarray, budget: int) -> list[int]:
    """Each chunk's first sentence, then the sentence count, where sentence i's
    entries end at done[i + 1] (done[0] is 0): a chunk holds whole sentences of at
    most `budget` entries in all, or one wider sentence."""
    bounds = [0]
    while bounds[-1] < len(done) - 1:
        s = bounds[-1]
        t = int(np.searchsorted(done, done[s] + budget, side="right")) - 1
        bounds.append(max(t, s + 1))
    return bounds


def _sentence_means(rows: np.ndarray, counts: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Row i is the mean of sentence i's `rows` of `matrix`, the counts[i] after
    those of the sentences before it, added in their order; zeros when it has none.
    The rows are gathered in chunks of whole sentences, each of at most _CHUNK_CELLS
    cells or one wider sentence, and each sentence's block is summed alone, as
    `np.add.reduce` sums it (`reduceat` adds in another order), so the scratch
    follows the chunk, not the document."""
    means = np.zeros((len(counts), matrix.shape[1]))
    firsts = np.concatenate(([0], np.cumsum(counts)))
    bounds = _chunks(firsts * matrix.shape[1], _CHUNK_CELLS)
    firsts = firsts.tolist()

    def summed(halvings: np.ndarray | None) -> None:
        """Each sentence's sum into `means`; with `halvings`, its terms halved that
        many times."""
        for s, t in zip(bounds, bounds[1:]):
            a = firsts[s]
            block = matrix.take(rows[a:firsts[t]], axis=0)
            if halvings is not None:
                block = np.ldexp(block, -np.repeat(halvings[s:t], counts[s:t])[:, None])
            for i in range(s, t):
                if firsts[i + 1] > firsts[i]:
                    np.add.reduce(block[firsts[i] - a:firsts[i + 1] - a], axis=0, out=means[i])

    with np.errstate(over="ignore", invalid="ignore"):
        summed(None)
    if not np.isfinite(means).all():
        summed(_halvings(counts))
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
    The lists are encoded as `score_corpus` encodes a hand-built document."""
    vocab = Vocabulary()
    sentences = Sentences.of([Sentence(i, "", tokens) for i, tokens in enumerate(token_lists)],
                             vocab)
    return _sentence_sums(index, *_occurrences(sentences, *_id_maps(vocab, index.rows.get, False)))


def _sentence_sums(index: EsaIndex, sentence: np.ndarray, flat: np.ndarray,
                   counts: np.ndarray) -> tuple[np.ndarray | Csr, np.ndarray]:
    """`sentence_matrix` of the index rows `flat`, which `sentence` gives to the
    sentences that `counts` counts them for.

    Each token occurrence contributes its row's entries, E in all, and each cell
    is their sum in occurrence order. The rows are a dense K x C array when
    K x C <= E, else CSR arrays, so the output is never larger than the entries
    gathered. The entries are gathered and summed in chunks of whole sentences,
    each of at most _CHUNK_ENTRIES of them or one wider sentence, so the scratch
    follows the chunk and the output, not E."""
    indptr, indices, data = index.indptr, index.indices, index.data
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
    bounds = _chunks(done, _CHUNK_ENTRIES)

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


def _sentences(doc: Document) -> Sequence[Sentence]:
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
    resource, what = {"embedding": (embedding_table, "an embedding table"),
                      "esa": (esa_index, "an ESA index"),
                      "entity": (entity_table, "an entity vector table")}[method]
    if resource is None:
        raise CoherenceError(f"method {method!r} requires {what}")

    docs = corpus.documents
    if method == "entity":
        def rows(i: int):
            return _entity_rows(docs[i], entity_table, entity_multiset)
    else:  # each distinct token is looked up once per vocabulary
        hand = Vocabulary()  # for hand-built sentence lists, all encoded before any lookup
        encoded = [Sentences.of(_sentences(doc), hand) for doc in docs]
        row = embedding_table.row if method == "embedding" else esa_index.rows.get
        id_maps = {id(v): _id_maps(v, row, unique_tokens)
                   for v in {id(e.vocab): e.vocab for e in encoded}.values()}

        def rows(i: int):
            occurrences = _occurrences(encoded[i], *id_maps[id(encoded[i].vocab)])
            if method == "embedding":
                return _sentence_means(*occurrences[1:], embedding_table.matrix)
            return _sentence_sums(esa_index, *occurrences)[0]  # sums point the way of the means

    # No name holds a document's rows, so `_score` scales them in place and frees them.
    return sorted((_score(doc.id, method, rows(i)) for i, doc in enumerate(docs)),
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
