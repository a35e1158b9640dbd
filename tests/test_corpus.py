from __future__ import annotations

import json

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from newscoherence.corpus import (
    DEFAULT_ABBREVIATIONS,
    CorpusError,
    Document,
    LabeledCorpus,
    Label,
    corpus_stats,
    load_csv,
    load_jsonl,
    segment_corpus,
    split_sentences,
    tokenize,
)

from conftest import write_jsonl
from oracle import split_sentences_ref


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


# Abbreviations with capital sigma (lower-cased by the letters before it), dotted
# capital I (two characters lower-cased), sharp s and accents, some over 15 long.
_ABBREVIATION = st.one_of(
    st.sampled_from(DEFAULT_ABBREVIATIONS),
    st.sampled_from(["Approx.Governmental.", "ΣΤΗΝ.", "İst.", "i\u0307.", "Straße.", "Σ."]),
    st.text(alphabet="abİıΣσςßé.!?'", min_size=1, max_size=20),
)


@st.composite
def _abbreviated_text(draw):
    """Text built of abbreviations in any case, words, quotes and sentence ends."""
    abbreviations = tuple(draw(st.lists(_ABBREVIATION, max_size=5)))
    piece = st.one_of(
        st.sampled_from(abbreviations or DEFAULT_ABBREVIATIONS).flatmap(
            lambda a: st.sampled_from([a, a.lower(), a.upper(), a.capitalize()])),
        st.text(alphabet="aZİıΣσςßé09_'\"”’)“‘.", min_size=1, max_size=6),
        st.sampled_from([". ", "! ", "? ", '." ', " ", "\n", ".\t", ".  ", " A", " Σ"]),
    )
    return "".join(draw(st.lists(piece, max_size=40))), abbreviations


class TestSegmenterMatchesReference:
    """The segmenter against the one that lower-cased the whole prefix at each boundary."""

    @seed(20191108)
    @given(_abbreviated_text())
    @settings(max_examples=400, deadline=None)
    def test_same_sentences_and_tokens(self, case):
        text, abbreviations = case
        got = split_sentences(text, abbreviations)
        want = split_sentences_ref(text, abbreviations)
        assert [(s.index, s.text, s.tokens) for s in got] == \
            [(s.index, s.text, s.tokens) for s in want]
        for s in got:
            assert text[s.start:s.start + len(s.text)] == s.text

    def test_sigma_reads_the_letters_before_the_tail(self):
        # "A.Σ." lower-cases to "a.ς." (a final sigma), "Σ." alone to "σ.".
        text = "A.Σ. Next one."
        assert len(split_sentences(text, ("σ.",))) == len(split_sentences_ref(text, ("σ.",))) == 2
        assert len(split_sentences("B Σ. Next one.", ("σ.",))) == 1

    def test_abbreviation_longer_than_its_match(self):
        # "İ." lower-cases to the three characters of "i\u0307.", and the letter
        # before the match is the "İ" itself, so "İ." is not an abbreviation.
        assert [s.text for s in split_sentences("İ. A", ("i\u0307.",))] == ["İ.", "A"]


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


class TestJsonl:
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
