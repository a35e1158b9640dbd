"""Reference computations for the tests. Most are brute-force versions kept free
of the package's vector code paths: plain-Python double loops over ordered
pairs. The rest are routes the package no longer takes: dict-based ESA sentence
means, the line-by-line vector-file loader that the numpy loader is compared
with, the segmenter that lower-cased the whole text before each boundary, the
linker that re-tokenized each sentence and found it with `str.find`, and
per-sentence embedding means."""

from __future__ import annotations

import logging
import math
import re
from pathlib import Path

import numpy as np

from newscoherence import embeddings as emb
from newscoherence.coherence import CoherenceScore, _score, _sentences, coherence_sentences
from newscoherence.corpus import DEFAULT_ABBREVIATIONS, Sentence
from newscoherence.embeddings import EmbeddingError, EmbeddingTable
from newscoherence.entitylink import EntityLinkError, EntityMention
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


_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Sentence boundary: terminal punctuation, whitespace, then an uppercase
# letter, a digit, or an opening quote.
_BOUNDARY_RE = re.compile(r"[.!?][\"'”’)]*\s+(?=[\"'“‘A-Z0-9])")


def tokenize_ref(text: str) -> list[str]:
    """Split on non-alphanumeric characters, lowercase, keep digit runs."""
    return [m.group(0).lower() for m in _TOKEN_RE.finditer(text)]


def _ends_with_abbreviation_ref(prefix: str, abbreviations: tuple[str, ...]) -> bool:
    for abbr in abbreviations:
        if not prefix.lower().endswith(abbr.lower()):
            continue
        before = prefix[: len(prefix) - len(abbr)]
        if not before or not before[-1].isalnum():
            return True
    return False


def split_sentences_ref(
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
        if _ends_with_abbreviation_ref(text[: m.start() + 1], abbreviations):
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
        sentences.append(Sentence(index=len(sentences), text=piece, tokens=tokenize_ref(piece)))
    return sentences


def extract_entities_ref(doc, gaz, require_uppercase: bool = True) -> list[EntityMention]:
    """Greedy longest-match left-to-right over each sentence's token stream.

    Matched spans never overlap. With `require_uppercase`, only spans whose
    original surface starts with an uppercase letter or digit are candidates.
    """
    if doc.sentences is None:
        raise EntityLinkError(f"document {doc.id!r} has not been segmented")
    mentions: list[EntityMention] = []
    cursor = 0
    for sentence in doc.sentences:
        sent_start = doc.text.find(sentence.text, cursor)
        if sent_start < 0:
            # Title prepended as sentence 0 is not part of the body text.
            continue
        cursor = sent_start + len(sentence.text)
        spans = [
            (m.group(0), sent_start + m.start(), sent_start + m.end())
            for m in _TOKEN_RE.finditer(sentence.text)
        ]
        i = 0
        while i < len(spans):
            matched = False
            for length in range(min(gaz.max_phrase_len, len(spans) - i), 0, -1):
                window = spans[i : i + length]
                key = tuple(tok.lower() for tok, _, _ in window)
                entity_id = gaz.surfaces.get(key)
                if entity_id is None:
                    continue
                first_char = window[0][0][0]
                if require_uppercase and not (first_char.isupper() or first_char.isdigit()):
                    continue
                start, end = window[0][1], window[-1][2]
                mentions.append(
                    EntityMention(
                        surface=doc.text[start:end], start=start, end=end, entity_id=entity_id
                    )
                )
                i += length
                matched = True
                break
            if not matched:
                i += 1
    return mentions


def sentence_rep_embedding_ref(
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


def score_embedding_ref(docs, table: EmbeddingTable, unique_tokens: bool = False):
    """Method "embedding" one sentence at a time, as `score_corpus` once ran it."""
    scores = []
    for doc in docs:
        scores.append(coherence_sentences(
            doc, lambda s: sentence_rep_embedding_ref(s, table, unique_tokens)))
    return sorted(scores, key=lambda s: s.doc_id)
