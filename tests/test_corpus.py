from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import logging
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from newscoherence import cache
from newscoherence import corpus as corpus_mod
from newscoherence.corpus import (
    DEFAULT_ABBREVIATIONS,
    CorpusError,
    Document,
    LabeledCorpus,
    Label,
    Sentence,
    Vocabulary,
    _ends_with_abbreviation,
    corpus_stats,
    load_csv,
    load_jsonl,
    segment_corpus,
    split_sentences,
    tokenize,
)

from conftest import write_jsonl
from oracle import _ends_with_abbreviation_ref, split_sentences_ref


class TestTokenize:
    def test_simple(self):
        assert tokenize("UK is due") == ["uk", "is", "due"]

    def test_hyphenated(self):
        assert tokenize("state-of-the-art") == ["state", "of", "the", "art"]

    def test_punctuation_only(self):
        assert tokenize("...") == []

    def test_digits_kept(self):
        assert tokenize("in 2020 we") == ["in", "2020", "we"]

    @given(st.text(max_size=200))
    def test_idempotent_on_own_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


class TestSplitSentences:
    def test_two_sentences(self):
        sents = split_sentences("A b. C d.")
        assert [s.text for s in sents] == ["A b.", "C d."]

    def test_abbreviation_guard(self):
        sents = split_sentences("Dr. Smith spoke. He left.")
        assert [s.text for s in sents] == ["Dr. Smith spoke.", "He left."]

    def test_empty(self):
        assert split_sentences("") == []

    def test_indexes_increase(self):
        sents = split_sentences("One. Two! Three?")
        assert [s.index for s in sents] == [0, 1, 2]
        assert all(s.text.strip() for s in sents)

    def test_no_split_before_lowercase(self):
        assert len(split_sentences("visit example. com for more")) == 1

    def test_us_abbreviation(self):
        sents = split_sentences("The U.S. Government acted. All agreed.")
        assert len(sents) == 2

    def test_split_before_quote(self):
        sents = split_sentences('He said no. "Fine." She left.')
        assert len(sents) == 3

    @pytest.mark.parametrize("text", ["Go to dr. Next", "Ask mr. Lee", "Ask MRS. Lee",
                                      "Walk down St. Main", "Mr. Lee left"])
    def test_abbreviation_merge_any_case(self, text):
        assert [s.text for s in split_sentences(text)] == [text]

    def test_abbreviation_must_be_a_whole_word(self):
        assert len(split_sentences("Go to odr. Next")) == 2

    words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
    # A sentence ending in an abbreviation ("... dr.") is deliberately not split
    # from the next one, so the last word of a generated sentence is never one.
    last_words = words.filter(
        lambda w: f"{w}." not in {a.lower() for a in DEFAULT_ABBREVIATIONS})

    @given(st.lists(st.tuples(st.lists(words, max_size=5), last_words),
                    min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_concatenation_roundtrip(self, sentence_words):
        sentences = [" ".join(ws + [last]).capitalize() + "." for ws, last in sentence_words]
        text = " ".join(sentences)
        assert len(split_sentences(text)) == len(sentences)


# Letters with odd cases: "İ" lower-cases to two characters, the first ASCII; the
# Kelvin sign to "k"; "Σ" by its neighbours; "ı" upper-cases to ASCII "I".
_ODD_LETTERS = "İıΣ\u212a"


@st.composite
def _abbreviated_text(draw):
    """Text built of default abbreviations in any case, also directly after an odd
    letter, words, quotes and sentence ends."""
    piece = st.one_of(
        st.tuples(st.sampled_from(["", "", *_ODD_LETTERS]),
                  st.sampled_from(DEFAULT_ABBREVIATIONS).flatmap(
                      lambda a: st.sampled_from([a, a.lower(), a.upper(), a.capitalize()]))
                  ).map("".join),
        st.text(alphabet="aZİıΣσςßé09_'\"”’)“‘.\u212a", min_size=1, max_size=6),
        st.sampled_from([". ", "! ", "? ", '." ', " ", "\n", ".\t", ".  ", " A", " Σ"]),
    )
    return "".join(draw(st.lists(piece, max_size=40)))


class TestSegmenterMatchesReference:
    """The segmenter against the one that lower-cased the whole prefix at each boundary."""

    @seed(20191108)
    @given(_abbreviated_text())
    @settings(max_examples=400, deadline=None)
    def test_same_sentences_and_tokens(self, text):
        got = split_sentences(text)
        want = split_sentences_ref(text)
        assert [(s.index, s.text, s.tokens) for s in got] == \
            [(s.index, s.text, s.tokens) for s in want]
        for s in got:
            assert text[s.start:s.start + len(s.text)] == s.text

    @staticmethod
    def _texts(text):
        got = [s.text for s in split_sentences(text)]
        assert got == [s.text for s in split_sentences_ref(text)]
        return got

    def test_sigma_reads_the_letters_before_the_tail(self):
        # "A.Σ." lower-cases to "a.ς." (a final sigma), no abbreviation. A "Σ" is a
        # letter, so "Mr." right after it is the tail of a word; after a space it is not.
        assert self._texts("A.Σ. Next one.") == ["A.Σ.", "Next one."]
        assert self._texts("ΣMr. Smith left.") == ["ΣMr.", "Smith left."]
        assert self._texts("Σ Mr. Smith left.") == ["Σ Mr. Smith left."]

    def test_abbreviation_longer_than_its_match(self):
        # "İ.e." lower-cases to the five characters "i\u0307.e.", which end in ".e."
        # but not in "i.e.".
        assert self._texts("İ.e. Next one.") == ["İ.e.", "Next one."]

    def test_guard_on_every_short_string(self):
        # Every string of up to 5 characters over the letters of "Mr.", "Mrs." and
        # "i.e.", a space and the odd letters: about 177 000 strings.
        alphabet = "Mrsie. " + _ODD_LETTERS
        for size in range(6):
            for chars in itertools.product(alphabet, repeat=size):
                s = "".join(chars)
                assert _ends_with_abbreviation(s, len(s)) == \
                    _ends_with_abbreviation_ref(s, DEFAULT_ABBREVIATIONS), s


class TestEncodedSegmentation:
    """`segment_corpus` keeps token ids, sentence starts and character ranges alone;
    the sentences read back from them are those `split_sentences` and the
    reference segmenter make, with a title as sentence 0."""

    @staticmethod
    def _fields(sentences, shift=0):
        return [(s.index + shift, s.text, s.tokens, s.start) for s in sentences]

    @seed(20191108)
    @given(_abbreviated_text(),
           st.one_of(st.none(), st.text(alphabet="aZİıΣσς09_ .", max_size=12)))
    @example("İstanbul met ΟΔΟΣ. The x_y 2020 vote, 12ab34 ΣΑΣ!", "ΟΔΟΣ_İ 42 ")
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, text, title):
        plain = Document(id="p", label=Label.FAKE, text=text, title=title)
        titled = Document(id="t", label=Label.FAKE, text=text, title=title)
        vocab = segment_corpus(LabeledCorpus(documents=[plain]))
        assert segment_corpus(LabeledCorpus(documents=[titled]),
                              include_title=True, vocab=vocab) is vocab
        want = split_sentences(text)
        ref = split_sentences_ref(text)
        assert self._fields(plain.sentences) == self._fields(want)
        assert [f[:3] for f in self._fields(want)] == [f[:3] for f in self._fields(ref)]
        head = [Sentence(index=0, text=title.strip(), tokens=tokenize(title))] if title else []
        assert self._fields(titled.sentences) == \
            self._fields(head) + self._fields(want, shift=len(head))
        # The ids are the tokens in order, each distinct token one vocabulary entry.
        encoded = plain.sentences
        assert [vocab.tokens[i] for i in encoded.ids.tolist()] == \
            [t for s in ref for t in s.tokens]
        assert encoded.starts.tolist() == [0, *itertools.accumulate(len(s.tokens) for s in ref)]
        assert [vocab.get(t) for t in vocab.tokens] == list(range(len(vocab.tokens)))
        assert len(set(vocab.tokens)) == len(vocab.tokens)

    def test_sentence_views_index_like_a_list(self):
        doc = Document(id="d", label=Label.FAKE, text="One two. Three four. Five.")
        segment_corpus(LabeledCorpus(documents=[doc]))
        listed = split_sentences(doc.text)
        assert doc.sentences[-1] == listed[-1] and doc.sentences[-3] == listed[0]
        assert list(doc.sentences) == listed
        with pytest.raises(IndexError):
            doc.sentences[3]


class TestLoadCsv:
    def test_two_rows(self, tmp_path):
        p = tmp_path / "fake.csv"
        p.write_text("title,text\nT1,Some text one.\nT2,Some text two.\n")
        corpus = load_csv(p, label=Label.FAKE)
        assert len(corpus.documents) == 2
        assert all(d.label == Label.FAKE for d in corpus.documents)
        assert corpus.documents[0].id == "fake-1"

    def test_empty_text_skipped(self, tmp_path):
        p = tmp_path / "fake.csv"
        p.write_text("title,text\nT1,Some text.\nT2,\n")
        corpus = load_csv(p, label=Label.FAKE)
        assert len(corpus.documents) == 1
        assert corpus.skipped == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_csv(tmp_path / "nope.csv", label=Label.FAKE)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("headline,body\nh,b\n")
        with pytest.raises(CorpusError, match="text"):
            load_csv(p, label=Label.FAKE)

    def test_column_mapping(self, tmp_path):
        p = tmp_path / "mapped.csv"
        p.write_text("headline,body\nHead,The body.\n")
        corpus = load_csv(p, label=Label.LEGITIMATE, text_column="body",
                          title_column="headline")
        assert corpus.documents[0].text == "The body."
        assert corpus.documents[0].title == "Head"

    def test_invalid_utf8(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"title,text\nT1,\xff\xfe bad\n")
        with pytest.raises(CorpusError, match="UTF-8"):
            load_csv(p, label=Label.FAKE)

    def test_count_invariant(self, tmp_path):
        p = tmp_path / "mix.csv"
        rows = ["title,text"] + [f"T{i},text {i}." if i % 3 else f"T{i}," for i in range(12)]
        p.write_text("\n".join(rows) + "\n")
        corpus = load_csv(p, label=Label.FAKE)
        assert len(corpus.documents) + corpus.skipped == 12

    def test_field_over_the_csv_default_limit(self, tmp_path):
        p = tmp_path / "long.csv"
        text = "A sentence of words. " * 7_000 + "End."  # 147 004 characters
        p.write_text(f"title,text\nT1,{text}\nT2,Short.\n")
        corpus = load_csv(p, label=Label.FAKE)
        assert [d.text for d in corpus.documents] == [text, "Short."]

    def test_stray_quote_names_its_line(self, tmp_path):
        """A quoted field that does not end at a delimiter would otherwise take in
        the records up to the next quote."""
        p = tmp_path / "stray.csv"
        p.write_text('title,text\na,"first text."\nb,"stray quote. Next one.\n'
                     'c,"third text."\nd,"fourth text."\n')
        with pytest.raises(CorpusError, match=r"stray\.csv line 4: malformed CSV: "
                                              r"',' expected after '\"'"):
            load_csv(p, label=Label.FAKE)

    def test_quotes_read_as_before(self, tmp_path):
        p = tmp_path / "quotes.csv"
        p.write_text('title,text\na,he said "hi" there.\nb,"she said ""no"", then left."\n')
        corpus = load_csv(p, label=Label.FAKE)
        assert [d.text for d in corpus.documents] == [
            'he said "hi" there.', 'she said "no", then left.']

    def test_unterminated_quote_names_its_line(self, tmp_path):
        p = tmp_path / "open.csv"
        p.write_text('title,text\na,"x"\nb,"never closed.\n')
        with pytest.raises(CorpusError, match=r"open\.csv line 3: malformed CSV: "):
            load_csv(p, label=Label.FAKE)

    def test_byte_order_mark_before_title_column(self, tmp_path):
        """ISOT's column order, saved as Excel's "CSV UTF-8": the title is kept."""
        p = tmp_path / "Fake.csv"
        p.write_bytes(b"\xef\xbb\xbftitle,text,subject,date\nThe Head,Some body.,News,2017\n")
        corpus = load_csv(p, label=Label.FAKE)
        segment_corpus(corpus, include_title=True)
        doc = corpus.documents[0]
        assert doc.title == "The Head" and doc.sentences[0].text == "The Head"

    def test_byte_order_mark_before_text_column(self, tmp_path):
        p = tmp_path / "Fake.csv"
        p.write_bytes(b"\xef\xbb\xbftext,title\nSome body.,The Head\n")
        corpus = load_csv(p, label=Label.FAKE)
        assert [(d.text, d.title) for d in corpus.documents] == [("Some body.", "The Head")]


class TestJsonl:
    def test_byte_order_mark_before_first_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_bytes(b"\xef\xbb\xbf" + json.dumps(
            {"id": "a", "label": "fake", "text": "x."}).encode() + b"\n")
        assert [d.id for d in load_jsonl(p).documents] == ["a"]

    def test_two_labels(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(
            json.dumps({"id": "a", "label": "fake", "text": "x."}) + "\n"
            + json.dumps({"id": "b", "label": "legitimate", "text": "y."}) + "\n"
        )
        corpus = load_jsonl(p)
        assert len(corpus.by_label(Label.FAKE)) == 1
        assert len(corpus.by_label(Label.LEGITIMATE)) == 1

    def test_duplicate_id_names_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        lines = [
            {"id": "a", "label": "fake", "text": "x."},
            {"id": "b", "label": "fake", "text": "y."},
            {"id": "a", "label": "fake", "text": "z."},
        ]
        p.write_text("\n".join(json.dumps(o) for o in lines) + "\n")
        with pytest.raises(CorpusError, match="line 3"):
            load_jsonl(p)

    def test_empty_text_skipped_with_a_warning_naming_its_line(self, tmp_path, caplog):
        p = tmp_path / "c.jsonl"
        lines = [
            {"id": "a", "label": "fake", "text": "x."},
            {"id": "b", "label": "fake", "text": " \n "},
        ]
        p.write_text("\n\n".join(json.dumps(o) for o in lines) + "\n")
        with caplog.at_level(logging.WARNING, logger="newscoherence.corpus"):
            corpus = load_jsonl(p)
        assert [d.id for d in corpus.documents] == ["a"] and corpus.skipped == 1
        assert [r.getMessage() for r in caplog.records] == [f"{p} line 3: empty text, skipped"]

    def test_unknown_label(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps({"id": "a", "label": "satire", "text": "x."}) + "\n")
        with pytest.raises(CorpusError, match="satire"):
            load_jsonl(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "label": "fake", "text": "x."}\n{oops\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_jsonl(p)

    @pytest.mark.parametrize("record, field", [
        ({"id": 7, "label": "fake", "text": "x."}, "'id'"),
        ({"id": "a", "label": ["fake"], "text": "x."}, "'label'"),
        ({"id": "a", "label": "fake", "text": None}, "'text'"),
        ({"id": "a", "label": "fake", "text": "x.", "title": 3}, "'title'"),
        (["a", "fake", "x."], "JSON object"),
    ])
    def test_wrong_field_type_names_line(self, tmp_path, record, field):
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps({"id": "b", "label": "fake", "text": "y."}) + "\n"
                     + json.dumps(record) + "\n")
        with pytest.raises(CorpusError, match=f"line 2: .*{field}"):
            load_jsonl(p)

    def test_null_title_allowed(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps({"id": "a", "label": "fake", "text": "x.", "title": None}) + "\n")
        assert load_jsonl(p).documents[0].title is None

    def test_round_trip(self, tmp_path):
        docs = [
            Document(id="a", label=Label.FAKE, text="One. Two.", title="T"),
            Document(id="b", label=Label.LEGITIMATE, text="Three."),
        ]
        corpus = LabeledCorpus(documents=docs, source="mem")
        out = tmp_path / "rt.jsonl"
        write_jsonl(corpus, out)
        loaded = load_jsonl(out)
        assert [(d.id, d.label, d.title, d.text) for d in loaded.documents] == [
            (d.id, d.label, d.title, d.text) for d in docs
        ]

    def test_write_key_order_stable(self, tmp_path):
        corpus = LabeledCorpus(
            documents=[Document(id="a", label=Label.FAKE, text="x", title="t")]
        )
        out = tmp_path / "o.jsonl"
        write_jsonl(corpus, out)
        assert out.read_text() == '{"id": "a", "label": "fake", "title": "t", "text": "x"}\n'


def _mini_corpus(sentence_counts, label=Label.FAKE):
    docs = []
    for i, n in enumerate(sentence_counts):
        text = " ".join(f"Sentence number {j} here." for j in range(n))
        docs.append(Document(id=f"d{i}", label=label, text=text))
    corpus = LabeledCorpus(documents=docs)
    segment_corpus(corpus)
    return corpus


class TestCorpusStats:
    def test_mean_sd_population(self):
        stats = corpus_stats(_mini_corpus([2, 4]))
        entry = stats[Label.FAKE]
        assert entry["article_count"] == 2
        assert entry["sentences_mean"] == pytest.approx(3.0)
        assert entry["sentences_sd"] == pytest.approx(1.0)

    def test_single_document_sd_zero(self):
        stats = corpus_stats(_mini_corpus([5]))
        assert stats[Label.FAKE]["sentences_sd"] == 0.0

    def test_sample_sd(self):
        stats = corpus_stats(_mini_corpus([2, 4]), sample_sd=True)
        assert stats[Label.FAKE]["sentences_sd"] == pytest.approx(2.0**0.5)

    def test_entities_absent_without_linking(self):
        stats = corpus_stats(_mini_corpus([2, 2]))
        assert stats[Label.FAKE]["entities_mean"] is None

    def test_empty_corpus(self):
        with pytest.raises(CorpusError):
            corpus_stats(LabeledCorpus(documents=[]))

    def test_requires_segmentation(self):
        corpus = LabeledCorpus(documents=[Document(id="d", label=Label.FAKE, text="X.")])
        with pytest.raises(CorpusError, match="segmentation"):
            corpus_stats(corpus)

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_counts_match_recount(self, sentence_counts):
        corpus = _mini_corpus(sentence_counts)
        stats = corpus_stats(corpus)[Label.FAKE]
        lens = [len(d.sentences) for d in corpus.documents]
        assert stats["article_count"] == len(lens)
        assert stats["sentences_mean"] == pytest.approx(sum(lens) / len(lens))


class TestIncludeTitle:
    def test_title_prepended_as_sentence_zero(self):
        doc = Document(id="d", label=Label.FAKE, text="Body one. Body two.", title="The Title")
        corpus = LabeledCorpus(documents=[doc])
        segment_corpus(corpus, include_title=True)
        assert doc.sentences[0].text == "The Title"
        assert len(doc.sentences) == 3
        assert [s.index for s in doc.sentences] == [0, 1, 2]

    def test_default_excludes_title(self):
        doc = Document(id="d", label=Label.FAKE, text="Body one. Body two.", title="The Title")
        corpus = LabeledCorpus(documents=[doc])
        segment_corpus(corpus)
        assert len(doc.sentences) == 2


class TestSharedTokens:
    """Equal tokens are one string object, however many times they occur."""

    def test_equal_tokens_are_one_object(self):
        docs = [Document(id="a", label=Label.FAKE, text="Budget vote. The BUDGET passed.",
                         title="Budget news"),
                Document(id="b", label=Label.FAKE, text="No budget today.")]
        segment_corpus(LabeledCorpus(documents=docs), include_title=True)
        found = [t for d in docs for s in d.sentences for t in s.tokens if t == "budget"]
        assert len(found) == 4  # the title, twice in the first body, once in the second
        assert all(t is found[0] for t in found)


def _csv(path, rows, header=("title", "text")) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _encoded(corpus) -> list:
    """Each document's ids, sentence starts and spans."""
    return [(d.sentences.ids.tolist(), d.sentences.starts.tolist(), d.sentences.spans.tolist())
            for d in corpus.documents]


class TestSentencesCache:
    """A corpus file's sentences are read from its cache entry while its documents'
    texts, and the titles segmented, are those the entry records: to the ids,
    starts, spans and vocabulary order that segmentation gives. Anything else, or a
    damaged entry, segments again and writes the entry again."""

    TEXT = "Alpha bravo met Mr. Smith. Bravo left!"
    ROWS = [("First title", TEXT), ("", "Charlie said 42 things. Alpha again.")]

    @staticmethod
    def _segmented(monkeypatch, load, include_title=False, vocab_words=("bravo", "zulu")):
        """(encoded documents, vocabulary tokens, documents segmented) of `load()`,
        segmented through a vocabulary that already holds `vocab_words`."""
        calls = []
        segment = corpus_mod._segment
        with monkeypatch.context() as m:
            m.setattr(corpus_mod, "_segment", lambda *a: calls.append(None) or segment(*a))
            vocab = Vocabulary()
            for word in vocab_words:
                vocab[word]
            c = load()
            segment_corpus(c, include_title=include_title, vocab=vocab)
        return _encoded(c), vocab.tokens, len(calls)

    @staticmethod
    def _fresh(monkeypatch, tmp_path, load, include_title=False):
        with monkeypatch.context() as m:
            blocker = tmp_path / "blocker"
            blocker.write_bytes(b"")
            m.setenv("XDG_CACHE_HOME", str(blocker / "cache"))  # no cache
            return TestSentencesCache._segmented(m, load, include_title)[:2]

    @seed(20191115)
    @given(docs=st.lists(st.tuples(_abbreviated_text(), st.none() | _abbreviated_text()),
                         max_size=5),
           jsonl=st.booleans(), include_title=st.booleans())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_cached_is_fresh_segmentation(self, tmp_path, vector_cache, monkeypatch,
                                          docs, jsonl, include_title):
        if jsonl:
            p = tmp_path / "c.jsonl"
            write_jsonl(LabeledCorpus(documents=[
                Document(id=f"d{i}", label=Label.FAKE, text=text, title=title)
                for i, (text, title) in enumerate(docs) if text.strip()]), p)
            load = functools.partial(load_jsonl, p)
        else:
            p = tmp_path / "c.csv"
            _csv(p, [(title or "", text) for text, title in docs])
            load = functools.partial(load_csv, p, Label.FAKE)
        first = self._segmented(monkeypatch, load, include_title)
        warm = self._segmented(monkeypatch, load, include_title)
        fresh = self._fresh(monkeypatch, tmp_path, load, include_title)
        assert first[:2] == warm[:2] == fresh and warm[2] == 0
        assert cache.entry(p, b"", 0).path.read_bytes().startswith(corpus_mod._VERSION)

    def test_entry_layout_is_pinned(self, tmp_path, vector_cache, monkeypatch):
        """The bytes of the entry after its version line and recorded path."""
        p = tmp_path / "c.csv"
        _csv(p, self.ROWS)
        self._segmented(monkeypatch, functools.partial(load_csv, p, Label.FAKE), True)
        data = cache.entry(p, b"", 0).path.read_bytes()
        source = os.fsencode(p.resolve())
        version = corpus_mod._VERSION
        at = len(version) + 8 + len(source)
        assert data[:at] == version + len(source).to_bytes(8, "little") + source
        assert hashlib.sha256(data[at:]).hexdigest() == \
            "97f6bd7f5e6298eb55f8ac54f85fdbf3f3930a8bb229b1f38248bc0cadf9a941", \
            "a change to what `_segment` gives must change the version line too"

    def _entry(self, tmp_path, monkeypatch, rows=None, header=("title", "text")):
        """A CSV of `rows`, segmented once with titles, and its entry's path."""
        p = tmp_path / "c.csv"
        _csv(p, self.ROWS if rows is None else rows, header)
        self._segmented(monkeypatch, functools.partial(load_csv, p, Label.FAKE), True)
        return p, cache.entry(p, b"", 0).path

    @pytest.mark.parametrize("change", ["edited text", "edited in memory", "no title",
                                        "other text column"])
    def test_other_strings_segment_again(self, tmp_path, vector_cache, monkeypatch, change):
        p, entry = self._entry(tmp_path, monkeypatch,
                               [(t, x, x.upper()) for t, x in self.ROWS], ("title", "text", "b"))
        before = entry.read_bytes()
        include_title, column = change != "no title", "b" if change == "other text column" else "text"

        def load():
            c = load_csv(p, Label.FAKE, column)
            if change == "edited in memory":
                c.documents[1].text = c.documents[1].text.replace("42", "43")
            return c

        if change == "edited text":
            p.write_text(p.read_text().replace("42", "43"))
        got = self._segmented(monkeypatch, load, include_title)
        assert got[2] == 2 and entry.read_bytes() != before  # segmented, and written again
        again = self._segmented(monkeypatch, load, include_title)
        assert again[2] == 0
        assert got[:2] == again[:2] == self._fresh(monkeypatch, tmp_path, load, include_title)

    @pytest.mark.parametrize("damage", [
        "truncated", "byte appended", "negative field", "field past the file",
        "other version", "token not UTF-8", "tokens not ending in a line end",
        "a token twice", "id past the token count", "ids out of first-occurrence order",
        "sentence counts that disagree", "counts that keep their sum",
        "token counts that disagree", "span outside its text", "span inside its text",
        "body span on the title"])
    def test_damaged_entry_segments_again(self, tmp_path, vector_cache, monkeypatch, damage):
        """A miss, that allocates nothing of a size that its fields claim past the file."""
        p, entry = self._entry(tmp_path, monkeypatch)
        load = functools.partial(load_csv, p, Label.FAKE)
        want, data = entry.read_bytes(), bytearray(entry.read_bytes())
        head = cache.entry(p, corpus_mod._VERSION, 4).head_size
        sentences, n_ids, token_bytes, _ = np.frombuffer(data[head - 32:head], "<i8")
        tokens = head  # where each section starts
        ids = tokens + token_bytes
        counts = ids + 4 * n_ids
        lengths = counts + 4 * len(self.ROWS)
        spans = lengths + 4 * sentences

        def put(at, value, dtype="<i4"):
            value = np.array(value, dtype).tobytes()
            data[at:at + len(value)] = value

        if damage == "truncated":
            del data[len(data) // 2:]
        elif damage == "byte appended":
            data += b"\0"
        elif damage == "negative field":  # the ids' bytes moved into the tokens'
            put(head - 24, [-1, token_bytes + 4 * (n_ids + 1)], "<i8")
        elif damage == "field past the file":
            put(head - 24, n_ids + (1 << 40), "<i8")
        elif damage == "other version":
            data[:len(corpus_mod._VERSION)] = corpus_mod._VERSION.replace(b" 2 ", b" 1 ")
        elif damage == "token not UTF-8":
            data[tokens] = 0xFF
        elif damage == "tokens not ending in a line end":
            data[ids - 1] = ord("x")
        elif damage == "a token twice":  # "first" and "title" have one length
            assert data[tokens:tokens + 12] == b"first\ntitle\n"
            data[tokens + 6:tokens + 11] = b"first"
        elif damage == "id past the token count":
            put(counts - 4, 99)
        elif damage == "ids out of first-occurrence order":
            put(ids, [1, 0])
        elif damage == "sentence counts that disagree":  # 4 and 2 of 5 sentences
            put(counts, 4)
        elif damage == "counts that keep their sum":  # 3 and 2 sentences as 4 and 1
            put(counts, [4, 1])
        elif damage == "token counts that disagree":  # the title's 2 tokens
            put(lengths, 3)
        elif damage == "span outside its text":
            put(spans + 24, len(self.TEXT) + 1, "<i8")  # sentence 1's end
        elif damage == "span inside its text":
            put(spans + 24, 3, "<i8")  # sentence 1's end
        elif damage == "body span on the title":
            put(spans, [0, 5], "<i8")
        entry.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            got = self._segmented(monkeypatch, load, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 24, peak
        assert got[2] == 2 and entry.read_bytes() == want  # segmented, and written again
        assert got[:2] == self._fresh(monkeypatch, tmp_path, load, True)

    @pytest.mark.parametrize("source", ["", "mem", "synthetic", "fifo", "directory"])
    def test_no_regular_file_opens_nothing(self, tmp_path, vector_cache, monkeypatch, source):
        """A corpus whose source is unset, or names no regular file, segments as
        when there is no cache, and never opens its source: a named pipe with no
        writer would wait."""
        if source == "fifo":
            source = tmp_path / "fifo"
            os.mkfifo(source)
        elif source == "directory":
            source = tmp_path
        monkeypatch.chdir(tmp_path)
        docs = [Document(id=f"d{i}", label=Label.FAKE, text=text, title=title or None)
                for i, (title, text) in enumerate(self.ROWS)]
        c = LabeledCorpus(documents=docs, source=str(source))
        vocab = segment_corpus(c, include_title=True)
        want = LabeledCorpus(documents=[Document(d.id, d.label, d.text, d.title) for d in docs])
        assert vocab.tokens == segment_corpus(want, include_title=True).tokens
        assert _encoded(c) == _encoded(want)
        assert not vector_cache.exists()
