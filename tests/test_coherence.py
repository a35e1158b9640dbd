from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import newscoherence
from newscoherence import coherence
from newscoherence.coherence import (
    CoherenceError,
    _score,
    coherence_entities,
    coherence_sentences,
    score_corpus,
    sentence_rep_embedding,
)
from newscoherence.corpus import Document, LabeledCorpus, Label, Sentence, segment_corpus
from newscoherence.entitylink import EntityMention
from newscoherence.esa import EsaIndex, build_esa_index, load_index, save_index

from conftest import make_doc, make_table
from oracle import (
    coherence_sentences_sparse,
    densify,
    entity_coherence_ref,
    mean_pairwise_ref,
    sentence_coherence_ref,
    score_embedding_ref,
    sentence_rep_esa_ref,
)

EXPECTED_MIXED = (0.0 + math.sqrt(2) / 2 + math.sqrt(2) / 2) / 3  # 0.4714045...


def _sent(tokens):
    return Sentence(index=0, text=" ".join(tokens), tokens=list(tokens))


class TestSentenceRepEmbedding:
    def test_mean_of_two(self, toy_table):
        rep = sentence_rep_embedding(_sent(["a", "b"]), toy_table)
        assert np.allclose(rep, [0.5, 0.5])

    def test_oov_undefined(self, toy_table):
        assert sentence_rep_embedding(_sent(["zzz"]), toy_table) is None

    def test_multiset_mean(self, toy_table):
        rep = sentence_rep_embedding(_sent(["a", "a", "b"]), toy_table)
        assert np.allclose(rep, [2 / 3, 1 / 3])

    def test_zero_mean_undefined(self):
        table = make_table({"p": [1.0, 0.0], "q": [-1.0, 0.0]})
        assert sentence_rep_embedding(_sent(["p", "q"]), table) is None

    def test_unique_tokens_flag(self, toy_table):
        rep = sentence_rep_embedding(_sent(["a", "a", "b"]), toy_table, unique_tokens=True)
        assert np.allclose(rep, [0.5, 0.5])


class TestSentenceRepEsa:
    index = build_esa_index([("A", "x x y"), ("B", "y z")], weighting="tf")

    def test_identity(self):
        assert sentence_rep_esa_ref(_sent(["x"]), self.index) == {0: 2.0}

    def test_all_unknown(self):
        assert sentence_rep_esa_ref(_sent(["qqq", "www"]), self.index) is None

    def test_mixed(self):
        rep = sentence_rep_esa_ref(_sent(["x", "y"]), self.index)
        assert rep == {0: pytest.approx(1.5), 1: pytest.approx(0.5)}

    def test_empty_vectors_give_undefined(self):
        index = build_esa_index([("A", "x"), ("B", "x")], weighting="tfidf")
        assert sentence_rep_esa_ref(_sent(["x"]), index) is None


def _doc_with_reps(vectors):
    """Document whose sentences map 1:1 onto the given 2-d representations."""
    table_entries = {f"w{i}": list(v) for i, v in enumerate(vectors)}
    text = ". ".join(f"W{i}" for i in range(len(vectors))) + "."
    doc = Document(id="d", label=Label.FAKE, text=text)
    segment_corpus(LabeledCorpus(documents=[doc]))
    table = make_table(table_entries)
    return doc, table


class TestCoherenceSentences:
    def test_identical_reps_score_one(self, toy_table):
        doc = make_doc("d", "A a. A a. A a.")
        score = coherence_sentences(
            doc, lambda s: sentence_rep_embedding(s, toy_table)
        )
        assert score.status == "ok"
        assert score.value == pytest.approx(1.0)
        assert score.pair_count == 3

    def test_orthogonal_pair_scores_zero(self):
        doc, table = _doc_with_reps([[1.0, 0.0], [0.0, 1.0]])
        score = coherence_sentences(doc, lambda s: sentence_rep_embedding(s, table))
        assert score.value == pytest.approx(0.0)

    def test_mixed_fixture(self):
        doc, table = _doc_with_reps([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        score = coherence_sentences(doc, lambda s: sentence_rep_embedding(s, table))
        assert score.value == pytest.approx(EXPECTED_MIXED, abs=1e-7)
        assert score.value == pytest.approx(0.4714045, abs=1e-6)

    def test_single_usable_sentence_undefined(self, toy_table):
        doc = make_doc("d", "A lone one.")
        score = coherence_sentences(doc, lambda s: sentence_rep_embedding(s, toy_table))
        assert score.status == "undefined"
        assert math.isnan(score.value)
        assert score.pair_count == 0

    def test_unsegmented_document_rejected(self, toy_table):
        doc = Document(id="d", label=Label.FAKE, text="A a.")
        with pytest.raises(CoherenceError):
            coherence_sentences(doc, lambda s: sentence_rep_embedding(s, toy_table))

    def test_status_iff_pair_count(self, toy_table):
        for text in ("A.", "A. B b.", "A a. B b. C c."):
            doc = make_doc("d", text)
            score = coherence_sentences(
                doc, lambda s: sentence_rep_embedding(s, toy_table)
            )
            assert (score.status == "ok") == (score.pair_count >= 1)
            assert (score.status == "ok") == (score.element_count >= 2)


class TestCoherenceEntities:
    table = make_table({"A": [1.0, 0.0], "B": [0.0, 1.0], "C": [1.0, 1.0]})

    def _doc(self, ids):
        doc = Document(id="d", label=Label.FAKE, text="irrelevant.")
        doc.sentences = []
        doc.entity_mentions = [EntityMention(i, 0, 1, i) for i in ids]
        return doc

    def test_orthogonal_entities(self):
        score = coherence_entities(self._doc(["A", "B"]), self.table)
        assert score.value == pytest.approx(0.0)

    def test_single_entity_undefined(self):
        score = coherence_entities(self._doc(["A"]), self.table)
        assert score.status == "undefined"

    def test_three_entity_fixture(self):
        score = coherence_entities(self._doc(["A", "C", "B"]), self.table)
        assert score.value == pytest.approx(0.4714045, abs=1e-6)

    def test_duplicate_mentions_deduplicated(self):
        dup = coherence_entities(self._doc(["A", "B", "A", "A"]), self.table)
        once = coherence_entities(self._doc(["A", "B"]), self.table)
        assert dup.value == once.value
        assert dup.element_count == 2

    def test_multiset_flag(self):
        score = coherence_entities(self._doc(["A", "A", "B"]), self.table, multiset=True)
        # pairs: (A,A)=1, (A,B)=0, (A,B)=0
        assert score.value == pytest.approx(1 / 3)

    def test_unlinked_document_rejected(self):
        doc = Document(id="d", label=Label.FAKE, text="x.")
        with pytest.raises(CoherenceError):
            coherence_entities(doc, self.table)


def _random_tokens(rng, vocab, n):
    return [rng.choice(vocab) for _ in range(n)]


class TestOracleEquivalence:
    def test_random_documents_match_double_loop(self, toy_table):
        rng = random.Random(11)
        vocab = ["a", "b", "c", "zzz"]
        word_vectors = {t: list(v) for t, v in toy_table.entries.items()}
        for _ in range(100):
            n_sents = rng.randint(2, 8)
            token_lists = [
                _random_tokens(rng, vocab, rng.randint(1, 5)) for _ in range(n_sents)
            ]
            doc = Document(id="d", label=Label.FAKE, text="")
            doc.sentences = [
                Sentence(index=i, text=" ".join(ts), tokens=ts)
                for i, ts in enumerate(token_lists)
            ]
            got = coherence_sentences(
                doc, lambda s: sentence_rep_embedding(s, toy_table)
            )
            want = sentence_coherence_ref(token_lists, word_vectors)
            if want is None:
                assert got.status == "undefined"
            else:
                assert got.value == pytest.approx(want, abs=1e-12)


class TestProperties:
    vec = st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=2
    ).filter(lambda v: any(abs(x) > 1e-6 for x in v))

    @given(st.lists(vec, min_size=2, max_size=8), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, reps, rnd):
        doc1, table1 = _doc_with_reps(reps)
        shuffled = list(reps)
        rnd.shuffle(shuffled)
        doc2, table2 = _doc_with_reps(shuffled)
        s1 = coherence_sentences(doc1, lambda s: sentence_rep_embedding(s, table1))
        s2 = coherence_sentences(doc2, lambda s: sentence_rep_embedding(s, table2))
        assert s1.value == pytest.approx(s2.value, abs=1e-12)

    @given(st.lists(vec, min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_ordered_equals_unordered(self, reps):
        doc, table = _doc_with_reps(reps)
        score = coherence_sentences(doc, lambda s: sentence_rep_embedding(s, table))
        arrays = [np.array(v) for v in reps]
        want = mean_pairwise_ref([list(a) for a in arrays])
        assert score.value == pytest.approx(want, abs=1e-12)

    @given(st.lists(vec, min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_duplication_bound(self, reps):
        doc1, table1 = _doc_with_reps(reps)
        s1 = coherence_sentences(doc1, lambda s: sentence_rep_embedding(s, table1))
        doc2, table2 = _doc_with_reps(reps + [reps[0]])
        s2 = coherence_sentences(doc2, lambda s: sentence_rep_embedding(s, table2))
        assert s2.value <= 1 + 1e-12


def _two_doc_corpus(toy_table):
    docs = [
        Document(id="doc-b", label=Label.FAKE, text="A a. B b."),
        Document(id="doc-a", label=Label.LEGITIMATE, text="A a. C c."),
    ]
    corpus = LabeledCorpus(documents=docs)
    segment_corpus(corpus)
    return corpus


class TestScoreCorpus:
    def test_both_scoreable(self, toy_table):
        corpus = _two_doc_corpus(toy_table)
        scores = score_corpus(corpus, "embedding", embedding_table=toy_table)
        assert len(scores) == 2
        assert all(s.ok for s in scores)
        assert [s.doc_id for s in scores] == ["doc-a", "doc-b"]

    def test_short_doc_undefined_others_ok(self, toy_table):
        corpus = _two_doc_corpus(toy_table)
        corpus.documents.append(Document(id="doc-c", label=Label.FAKE, text="A a."))
        segment_corpus(corpus)
        scores = score_corpus(corpus, "embedding", embedding_table=toy_table)
        by_id = {s.doc_id: s for s in scores}
        assert by_id["doc-c"].status == "undefined"
        assert by_id["doc-a"].ok and by_id["doc-b"].ok

    def test_missing_resource(self, toy_table):
        corpus = _two_doc_corpus(toy_table)
        with pytest.raises(CoherenceError):
            score_corpus(corpus, "embedding")
        with pytest.raises(CoherenceError):
            score_corpus(corpus, "esa")
        with pytest.raises(CoherenceError):
            score_corpus(corpus, "nonsense", embedding_table=toy_table)

    def test_entity_method_requires_linked_documents(self):
        # Linking needs the caller's gazetteer (with its aliases), so an
        # unlinked document is an error, not linked here by other rules.
        table = make_table({"Alpha": [1.0, 0.0], "Beta": [0.0, 1.0]})
        docs = [Document(id="d0", label=Label.FAKE, text="Alpha met Beta today.")]
        corpus = LabeledCorpus(documents=docs)
        segment_corpus(corpus)
        with pytest.raises(CoherenceError, match="'d0' has not been entity-linked"):
            score_corpus(corpus, "entity", entity_table=table)
        assert docs[0].entity_mentions is None

    def test_six_doc_corpus_matches_oracle(self, toy_table):
        rng = random.Random(5)
        vocab = ["a", "b", "c", "zzz"]
        docs = []
        token_lists_by_id = {}
        for d in range(6):
            token_lists = [
                _random_tokens(rng, vocab, rng.randint(2, 4)) for _ in range(rng.randint(2, 5))
            ]
            text = ". ".join(" ".join(ts).capitalize() for ts in token_lists) + "."
            doc = Document(id=f"d{d}", label=Label.FAKE, text=text)
            doc.sentences = [
                Sentence(index=i, text=" ".join(ts), tokens=ts)
                for i, ts in enumerate(token_lists)
            ]
            token_lists_by_id[doc.id] = token_lists
            docs.append(doc)
        corpus = LabeledCorpus(documents=docs)
        word_vectors = {t: list(v) for t, v in toy_table.entries.items()}
        for score in score_corpus(corpus, "embedding", embedding_table=toy_table):
            want = sentence_coherence_ref(token_lists_by_id[score.doc_id], word_vectors)
            if want is None:
                assert score.status == "undefined"
            else:
                assert score.value == pytest.approx(want, abs=1e-9)


def _esa_oracle(token_lists, index, unique_tokens):
    """Plain-Python ESA coherence: dense mean concept vector per sentence, then
    the ordered-pair double loop; None when under two usable sentences remain."""
    width = index.doc_count
    reps = []
    for tokens in token_lists:
        tokens = sorted(set(tokens)) if unique_tokens else tokens
        known = [densify(index.inverted[t], width) for t in tokens if t in index.inverted]
        if not known:
            continue
        rep = [sum(v[c] for v in known) / len(known) for c in range(width)]
        if all(x == 0.0 for x in rep):
            continue
        reps.append(rep)
    return mean_pairwise_ref(reps) if len(reps) >= 2 else None


class TestKernelMatchesOracle:
    """score_corpus for "esa" and "entity" against the double-loop oracle."""

    @pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
    @pytest.mark.parametrize("unique_tokens", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_esa(self, tmp_path, seed, unique_tokens, wide):
        rng = random.Random(seed)
        # A wide index has more concepts than a document's token rows have
        # nonzeros, so the kernel keeps only the concepts that occur.
        n_words, n_concepts = (400, 200) if wide else (12, rng.randint(2, 6))
        vocab = [f"w{i}" for i in range(n_words)]
        kb = [(f"C{c}", " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 10))))
              for c in range(n_concepts)]
        path = tmp_path / "kb.esa"
        save_index(build_esa_index(kb, weighting=rng.choice(["tf", "tfidf"])), path)
        with open(path, "a", encoding="utf-8") as f:
            f.write("T\tempty\t0\t\n")  # a known token with an empty row
        index = load_index(path)
        assert index.inverted["empty"] == {}
        words = vocab + ["empty", "oov"]
        docs, token_lists_by_id = [], {}
        for d in range(8):
            token_lists = [[rng.choice(words) for _ in range(rng.randint(1, 5))]
                           for _ in range(rng.randint(1, 6))]
            token_lists.append(["oov", "empty", "oov"])  # no concept weight at all
            doc = Document(id=f"d{d}", label=Label.FAKE, text="")
            doc.sentences = [Sentence(index=i, text=" ".join(ts), tokens=ts)
                             for i, ts in enumerate(token_lists)]
            token_lists_by_id[doc.id] = token_lists
            docs.append(doc)
        scores = score_corpus(LabeledCorpus(documents=docs), "esa", esa_index=index,
                              unique_tokens=unique_tokens)
        assert len(scores) == len(docs)
        by_id = {d.id: d for d in docs}
        for score in scores:
            want = _esa_oracle(token_lists_by_id[score.doc_id], index, unique_tokens)
            # The dict path: sentence_rep_esa_ref means stacked as CSR rows.
            via_dicts = coherence_sentences_sparse(
                by_id[score.doc_id], lambda s: sentence_rep_esa_ref(s, index, unique_tokens))
            assert score.method == "esa"
            # With no usable sentence there is no rep to tell the method by.
            assert via_dicts.method == ("esa" if via_dicts.element_count else "embedding")
            assert via_dicts.element_count == score.element_count
            if want is None:
                assert score.status == via_dicts.status == "undefined"
            else:
                assert score.value == pytest.approx(want, abs=1e-12)
                assert via_dicts.value == pytest.approx(want, abs=1e-12)
                k = score.element_count
                assert score.pair_count == k * (k - 1) // 2

    @pytest.mark.parametrize("seed", range(4))
    def test_entity(self, seed):
        rng = random.Random(seed)
        vectors = {f"E{i}": [rng.uniform(-1, 1) for _ in range(4)] for i in range(8)}
        vectors["Zero"] = [0.0] * 4
        table = make_table(vectors)
        nonzero = {e: v for e, v in vectors.items() if e != "Zero"}
        docs, ids_by_doc = [], {}
        for d in range(10):
            ids = [rng.choice([*vectors, "Unknown"]) for _ in range(rng.randint(0, 7))]
            doc = Document(id=f"d{d}", label=Label.FAKE, text="x.")
            doc.sentences = []
            doc.entity_mentions = [EntityMention(i, 0, 1, i) for i in ids]
            ids_by_doc[doc.id] = ids
            docs.append(doc)
        for score in score_corpus(LabeledCorpus(documents=docs), "entity", entity_table=table):
            want = entity_coherence_ref(ids_by_doc[score.doc_id], nonzero)
            if want is None:
                assert score.status == "undefined"
            else:
                assert score.value == pytest.approx(want, abs=1e-12)

    def test_near_collinear_rows_keep_precision(self):
        rng = random.Random(3)
        base = [rng.uniform(0.5, 1.5) for _ in range(50)]
        rows = [[x + 1e-5 * rng.uniform(-1, 1) for x in base] for _ in range(40)]
        table = make_table({f"E{i}": r for i, r in enumerate(rows)})
        doc = Document(id="d", label=Label.FAKE, text="x.")
        doc.entity_mentions = [EntityMention(f"E{i}", 0, 1, f"E{i}") for i in range(40)]
        score = coherence_entities(doc, table)
        want = mean_pairwise_ref(rows)
        assert 1e-11 < 1.0 - want < 1e-8
        assert score.value == pytest.approx(want, abs=1e-12)


def _docs(token_lists_per_doc):
    docs = []
    for d, token_lists in enumerate(token_lists_per_doc):
        doc = Document(id=f"d{d}", label=Label.FAKE, text="")
        doc.sentences = [Sentence(index=i, text=" ".join(ts), tokens=list(ts))
                         for i, ts in enumerate(token_lists)]
        docs.append(doc)
    return docs


# Query tokens: table tokens, their other casings (the case fallback), a token
# and its negation (zero means) and tokens out of vocabulary.
_QUERY = ["alpha", "Alpha", "ALPHA", "beta", "Beta", "gamma", "pos", "neg", "oov", "Oov"]


@st.composite
def _embedding_case(draw):
    dim = draw(st.integers(1, 4))
    vector = st.lists(st.floats(-4, 4, allow_subnormal=False), min_size=dim, max_size=dim)
    names = draw(st.lists(st.sampled_from(["alpha", "Alpha", "BETA", "Beta", "gamma", "Gamma"]),
                          unique=True, max_size=6))
    entries = {name: draw(vector) for name in names}
    entries["pos"] = draw(vector)
    entries["neg"] = [-x for x in entries["pos"]]
    sentence = st.lists(st.sampled_from(_QUERY), max_size=6)
    docs = draw(st.lists(st.lists(sentence, max_size=7), min_size=1, max_size=5))
    return entries, docs


class TestEmbeddingMatchesReference:
    """score_corpus for "embedding" against per-sentence means of looked-up vectors."""

    @seed(20191108)
    @given(_embedding_case(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_scores(self, case, unique_tokens):
        entries, token_lists_per_doc = case
        table = make_table(entries)
        docs = _docs(token_lists_per_doc)
        got = score_corpus(LabeledCorpus(documents=docs), "embedding", embedding_table=table,
                           unique_tokens=unique_tokens)
        want = score_embedding_ref(docs, table, unique_tokens)
        assert [(s.doc_id, s.status, s.element_count, s.pair_count) for s in got] == \
            [(s.doc_id, s.status, s.element_count, s.pair_count) for s in want]
        for a, b in zip(got, want):
            if a.ok:
                assert a.value == pytest.approx(b.value, abs=1e-12)


# Words of a segmented text: table tokens in other casings, out-of-table tokens, an
# underscore joint and a digit run. "The" opens each sentence and no table holds it.
_TEXT_WORDS = ["alpha", "Alpha", "beta", "BETA", "gamma", "oov", "x_y", "2020", "pos", "neg"]


@st.composite
def _segmented_case(draw):
    """A word table with components near 1e308, so sums overflow and are halved, and
    the text of sentences drawn from _TEXT_WORDS, some with no table token."""
    dim = draw(st.integers(1, 4))
    component = st.floats(-4, 4).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)
    if draw(st.booleans()):
        component |= st.sampled_from([1e308, -1e308, 1.7e308, -1.6e308, 8.9e307])
    vector = st.lists(component, min_size=dim, max_size=dim)
    names = draw(st.lists(st.sampled_from(["alpha", "Beta", "gamma", "x", "2020"]),
                          unique=True, max_size=5))
    entries = {name: draw(vector) for name in names}
    entries["pos"] = draw(vector)
    entries["neg"] = [-x for x in entries["pos"]]
    sentences = draw(st.lists(st.lists(st.sampled_from(_TEXT_WORDS), max_size=14),
                              min_size=1, max_size=12))
    return entries, " ".join(" ".join(["The", *words]) + "." for words in sentences)


def _esa_index_of(entries: dict[str, list[float]]) -> EsaIndex:
    """An index whose row for each lower-case token is the magnitudes of its vector."""
    rows = {t: [(c, abs(x)) for c, x in enumerate(v) if x] for t, v in entries.items()
            if t == t.lower()}
    width = len(next(iter(entries.values())))
    return EsaIndex(concepts=[f"C{c}" for c in range(width)], tokens=list(rows),
                    indptr=np.cumsum([0] + [len(r) for r in rows.values()]),
                    indices=np.array([c for r in rows.values() for c, _ in r], dtype=np.int64),
                    data=np.array([w for r in rows.values() for _, w in r], dtype=np.float64),
                    df=np.array([len(r) for r in rows.values()], dtype=np.int64),
                    weighting="tf")


class TestEncodedMatchesHandBuilt:
    """A segmented document scores, bit for bit, as the same sentences built by hand,
    at any gather chunk size; method "embedding" also as the one-sentence route
    and, while no sum leaves the float range, as the oracle's `np.mean` of each
    sentence's rows. Under `unique_tokens` it scores as the hand-built lists of
    each sentence's distinct tokens in sorted order."""

    @seed(20191108)
    @given(_segmented_case(), st.booleans(), st.sampled_from([None, 1, 7]))
    @example(({"alpha": [1e308, 1e308], "pos": [1.0, 2.0], "neg": [-1.0, -2.0]},
              "The alpha alpha pos. The oov. The alpha neg. The pos pos."), False, 1)
    @settings(max_examples=300, deadline=None)
    def test_same_bits(self, case, unique_tokens, budget):
        entries, text = case
        table, index = make_table(entries), _esa_index_of(entries)
        doc = Document(id="d", label=Label.FAKE, text=text)
        segment_corpus(LabeledCorpus(documents=[doc]))
        hand, distinct = (Document(id="d", label=Label.FAKE, text=text, sentences=[
            Sentence(s.index, s.text, tokens(s.tokens), s.start) for s in doc.sentences])
            for tokens in (list, lambda ts: sorted(set(ts))))

        def bits(score):
            return repr(score.value), score.element_count, score.pair_count, score.status

        def scored(d, method, unique=unique_tokens):
            [score] = score_corpus(LabeledCorpus(documents=[d]), method, embedding_table=table,
                                   esa_index=index, unique_tokens=unique)
            return bits(score)

        with pytest.MonkeyPatch.context() as mp:
            if budget:
                mp.setattr(coherence, "_CHUNK_CELLS", budget)
                mp.setattr(coherence, "_CHUNK_ENTRIES", budget)
            for method in ("embedding", "esa"):
                assert scored(doc, method) == scored(hand, method)
                if unique_tokens:
                    assert scored(doc, method) == scored(distinct, method, unique=False)
            embedding = scored(doc, "embedding")
        one = coherence_sentences(doc, lambda s: sentence_rep_embedding(s, table, unique_tokens))
        assert embedding == scored(doc, "embedding") == bits(one)
        if max(abs(x) for v in entries.values() for x in v) < 1e300:
            assert embedding == bits(score_embedding_ref([doc], table, unique_tokens)[0])


class TestGatherScratch:
    """Method "embedding" gathers a document's rows in chunks of whole sentences, so
    its scratch memory does not grow with the document."""

    def test_long_document_within_budget(self):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(500)]
        table = make_table({w: list(rng.standard_normal(300)) for w in words})
        text = " ".join(" ".join(["The", *rng.choice(words, size=19)]) + "."
                        for _ in range(100))
        doc = Document(id="d", label=Label.FAKE, text=text)
        segment_corpus(LabeledCorpus(documents=[doc]))
        assert len(doc.sentences) == 100 and len(doc.sentences.ids) == 2000
        tracemalloc.start()
        try:
            [score] = score_corpus(LabeledCorpus(documents=[doc]), "embedding",
                                   embedding_table=table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The whole document's rows would be 1900 x 300 x 8 B = 4.6 MB.
        assert score.ok and peak < 1_000_000, peak


class TestScoreLeavesItsRows:
    """`_score` scales the rows it is handed in place, so a caller that keeps its
    rows hands it copies: dense or CSR, the same rows score alike."""

    @pytest.mark.parametrize("zero_row", [False, True], ids=["all-nonzero", "a-zero-row"])
    def test_dense_and_csr_rows_unchanged(self, zero_row):
        dense = np.array([[3.0, -4.0, 0.0], [1e300, 2e300, -1e300],
                          [0.0, 0.0, 0.0] if zero_row else [1e-170, 0.0, -5e-170]])
        filled = dense != 0.0
        csr = (np.concatenate(([0], np.cumsum(filled.sum(axis=1)))),
               np.nonzero(filled)[1], dense[filled])
        scores = [_score("d", "esa", rows)
                  for rows in (dense.copy(), tuple(a.copy() for a in csr))]
        assert scores[0].element_count == scores[1].element_count == 3 - zero_row
        assert scores[0].value == pytest.approx(scores[1].value, abs=1e-15)


class TestExtremeMagnitudes:
    """Cosine does not depend on scale, so neither may a score: rows are scaled by
    powers of two before any square or sum can leave the float range."""

    SENTENCES = [["alpha"], ["beta"], ["alpha", "beta"]]
    ROUTES = {
        "score_corpus": lambda doc, table: score_corpus(
            LabeledCorpus(documents=[doc]), "embedding", embedding_table=table)[0],
        "sentence_rep": lambda doc, table: coherence_sentences(
            doc, lambda s: sentence_rep_embedding(s, table)),
    }

    # The score_corpus cases keep the ids they had before the route was a parameter.
    @pytest.mark.parametrize("route, scale", [
        pytest.param(route, scale, id=str(scale) if route == "score_corpus" else f"{route}-{scale}")
        for route in ROUTES for scale in [1.0, 1e200, 1e-170, 1e308]])
    def test_dense_sentences(self, route, scale):
        table = make_table({"alpha": [scale, scale], "beta": [scale, -scale]})
        score = self.ROUTES[route](_docs([self.SENTENCES])[0], table)
        assert score.ok and score.element_count == 3
        assert score.value == pytest.approx(EXPECTED_MIXED, abs=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-170, 1e308])
    def test_dense_entities(self, scale):
        table = make_table({"A": [scale, scale], "B": [scale, -scale], "C": [scale, 0.0]})
        doc = Document(id="d", label=Label.FAKE, text="x.")
        doc.entity_mentions = [EntityMention(e, 0, 1, e) for e in "ABC"]
        score = coherence_entities(doc, table)
        assert score.ok and score.value == pytest.approx(EXPECTED_MIXED, abs=1e-12)

    @pytest.mark.parametrize("weight", ["1e300", "3.5e300", "1e-170"])
    def test_esa_index(self, tmp_path, weight):
        path = tmp_path / "big.esa"
        path.write_text(f"ESA1\t2\ttf\nC\tA\nC\tB\nT\talpha\t2\t0:{weight} 1:{weight}\n"
                        f"T\tbeta\t1\t0:{weight}\nT\tgamma\t1\t1:{weight}\n")
        docs = _docs([[["beta"], ["gamma"], ["alpha"]], [["alpha", "beta"], ["gamma"]]])
        scores = score_corpus(LabeledCorpus(documents=docs), "esa", esa_index=load_index(path))
        assert [s.status for s in scores] == ["ok", "ok"]
        # (1, 0), (0, 1), (1, 1): cosines 0, 1/sqrt(2), 1/sqrt(2); then (2, 1) against (0, 1).
        assert scores[0].value == pytest.approx(EXPECTED_MIXED, abs=1e-12)
        assert scores[1].value == pytest.approx(1 / math.sqrt(5), abs=1e-12)

    def test_esa_sentence_sum_past_float_range(self, tmp_path):
        # alpha + beta is (2e308, 1e308): past the float range unless rescaled.
        path = tmp_path / "huge.esa"
        path.write_text("ESA1\t2\ttf\nC\tA\nC\tB\nT\talpha\t2\t0:1e308 1:1e308\n"
                        "T\tbeta\t1\t0:1e308\n")
        docs = _docs([[["alpha", "beta"], ["gamma"], ["beta"]]])
        [score] = score_corpus(LabeledCorpus(documents=docs), "esa", esa_index=load_index(path))
        # (2, 1) against (1, 0); the out-of-vocabulary sentence is dropped.
        assert score.ok and score.element_count == 2
        assert score.value == pytest.approx(2 / math.sqrt(5), abs=1e-12)


_ESA_UNIQUE_TOKENS_RUN = """
import json, random
from newscoherence.coherence import score_corpus
from newscoherence.corpus import Document, LabeledCorpus, Label, Sentence
from newscoherence.esa import build_esa_index
rng = random.Random(7)
vocab = [f"w{i}" for i in range(60)]
kb = [(f"C{c}", " ".join(rng.choice(vocab) for _ in range(80))) for c in range(8)]
docs = []
for d in range(6):
    doc = Document(id=f"d{d}", label=Label.FAKE, text="")
    doc.sentences = [Sentence(index=i, text="", tokens=[rng.choice(vocab) for _ in range(25)])
                     for i in range(5)]
    docs.append(doc)
scores = score_corpus(LabeledCorpus(documents=docs), "esa",
                      esa_index=build_esa_index(kb, weighting="tfidf"), unique_tokens=True)
print(json.dumps([repr(s.value) for s in scores]))
"""


class TestHashSeedIndependence:
    def test_esa_unique_tokens_scores_do_not_follow_hash_order(self):
        # A sentence's distinct tokens are summed in sorted order, not set order,
        # so every bit of a score is the same under any PYTHONHASHSEED.
        src = str(Path(newscoherence.__file__).parent.parent)
        runs = []
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p))
            proc = subprocess.run([sys.executable, "-c", _ESA_UNIQUE_TOKENS_RUN], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            runs.append(json.loads(proc.stdout))
        assert len(runs[0]) == 6
        assert runs[0] == runs[1] == runs[2]
