"""Reference computations for the tests. Most are brute-force versions kept free
of the package's vector code paths: plain-Python double loops over ordered
pairs. The rest are routes the package no longer takes: dict-based ESA sentence
means, and the line-by-line vector-file loader that the numpy loader is
compared with."""

from __future__ import annotations

import logging
import math
from pathlib import Path

import numpy as np

from newscoherence.coherence import CoherenceScore, _score, _sentences
from newscoherence.embeddings import EmbeddingError, EmbeddingTable
from newscoherence.esa import EsaError, esa_word_vector, sparse_rows


def cosine_ref(u, v):
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv)


def mean_pairwise_ref(vectors):
    """Mean of sim over all ordered pairs i != j, literally as written."""
    k = len(vectors)
    sims = [
        cosine_ref(vectors[i], vectors[j])
        for i in range(k)
        for j in range(k)
        if i != j
    ]
    return sum(sims) / len(sims)


def sentence_coherence_ref(token_lists, word_vectors):
    """Document coherence from raw token lists and a plain dict of word vectors.

    Averages in-vocabulary token vectors per sentence (occurrence-weighted),
    drops empty/zero sentence representations, then takes the ordered-pair
    mean cosine. Returns None when fewer than 2 usable sentences remain.
    """
    reps = []
    for tokens in token_lists:
        vecs = [word_vectors[t] for t in tokens if t in word_vectors]
        if not vecs:
            continue
        dim = len(vecs[0])
        rep = [sum(v[d] for v in vecs) / len(vecs) for d in range(dim)]
        if all(x == 0.0 for x in rep):
            continue
        reps.append(rep)
    if len(reps) < 2:
        return None
    return mean_pairwise_ref(reps)


def entity_coherence_ref(entity_ids, entity_vectors):
    """Entity-set coherence: distinct ids in first-occurrence order."""
    seen = []
    for eid in entity_ids:
        if eid not in seen and eid in entity_vectors:
            seen.append(eid)
    vecs = [entity_vectors[e] for e in seen]
    if len(vecs) < 2:
        return None
    return mean_pairwise_ref(vecs)


def densify(sparse, dim):
    out = [0.0] * dim
    for k, w in sparse.items():
        out[k] = w
    return out


def mean_sparse_ref(vectors):
    """Keywise sum divided by list length (multiset over token occurrences)."""
    if not vectors:
        raise EsaError("mean of an empty sparse-vector list")
    n = len(vectors)
    acc = {}
    for vec in vectors:
        for k, w in vec.items():
            acc[k] = acc.get(k, 0.0) + w
    return {k: s / n for k, s in acc.items() if s != 0.0}


def sentence_rep_esa_ref(s, index, unique_tokens=False):
    """Mean of the known ESA token vectors as a dict; None when the result is empty."""
    tokens = sorted(set(s.tokens)) if unique_tokens else s.tokens
    vectors = [v for v in (esa_word_vector(index, t) for t in tokens) if v is not None]
    if not vectors:
        return None
    return mean_sparse_ref(vectors) or None


def coherence_sentences_sparse(doc, rep) -> CoherenceScore:
    """The package's kernel over dict sentence representations stacked as CSR rows:
    a second route to an ESA score, next to `esa.sentence_matrix`'s sums."""
    reps = [r for r in (rep(s) for s in _sentences(doc)) if r is not None]
    if not reps:
        return _score(doc.id, "embedding", np.zeros((0, 0)))
    return _score(doc.id, "esa", sparse_rows(reps))


_ref_logger = logging.getLogger("newscoherence.embeddings")


def load_vectors_text_ref(path, name=""):
    """The word2vec text loader as it was before the numpy parser: text mode, one
    `np.array` per line, components split at single spaces."""
    p = Path(path)
    with open(p, encoding="utf-8") as f:
        header = f.readline().split()
        if len(header) != 2:
            raise EmbeddingError(f"{p}: header must be 'count dim'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as e:
            raise EmbeddingError(f"{p}: non-numeric header: {e}") from e
        if dim <= 0:
            raise EmbeddingError(f"{p}: dimension must be positive")
        entries = {}
        lines = 0
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            lines += 1
            parts = line.rstrip("\n").split(" ")
            token = parts[0]
            comps = [c for c in parts[1:] if c]
            if len(comps) != dim:
                raise EmbeddingError(
                    f"{p} line {lineno}: expected {dim} components, got {len(comps)}"
                )
            try:
                vec = np.array(comps, dtype=np.float64)
            except ValueError as e:
                raise EmbeddingError(f"{p} line {lineno}: non-numeric component: {e}") from e
            if not np.all(np.isfinite(vec)):
                raise EmbeddingError(f"{p} line {lineno}: non-finite component")
            if token in entries:
                _ref_logger.warning("%s line %d: duplicate token %r overwritten", p, lineno, token)
            entries[token] = vec
    if lines != count:
        raise EmbeddingError(f"{p}: header declares {count} vectors, file has {lines}")
    return EmbeddingTable(dim=dim, entries=entries, name=name or p.stem)
