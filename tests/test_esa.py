from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from newscoherence.embeddings import cosine
from newscoherence.esa import (
    EsaError,
    build_esa_index,
    cosine_sparse,
    esa_word_vector,
    load_index,
    save_index,
)

from oracle import densify, mean_sparse_ref

KB = [("A", "x x y"), ("B", "y z")]


class TestBuildIndex:
    def test_tf_counts(self):
        index = build_esa_index(KB, weighting="tf")
        assert esa_word_vector(index, "x") == {0: 2.0}
        assert esa_word_vector(index, "y") == {0: 1.0, 1: 1.0}

    def test_tfidf(self):
        index = build_esa_index(KB, weighting="tfidf")
        assert esa_word_vector(index, "y") == {}
        assert esa_word_vector(index, "x") == {0: pytest.approx(2 * math.log(2))}

    def test_empty_kb(self):
        with pytest.raises(EsaError):
            build_esa_index([])

    def test_all_articles_empty(self):
        with pytest.raises(EsaError):
            build_esa_index([("A", "..."), ("B", "")])

    def test_empty_article_skipped_with_warning(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="newscoherence.esa"):
            index = build_esa_index([("A", "x"), ("B", "..."), ("C", "y")], weighting="tf")
        assert index.doc_count == 2
        assert any("skipped" in r.message for r in caplog.records)

    def test_stopwords_removed_by_default(self):
        index = build_esa_index([("A", "the x"), ("B", "the y")], weighting="tf")
        assert esa_word_vector(index, "the") is None

    def test_df_matches_nonzero_rows_under_tf(self):
        index = build_esa_index([("A", "x y"), ("B", "y z"), ("C", "z z")], weighting="tf")
        for token, row in index.inverted.items():
            assert index.df[token] == len(row)

    def test_min_weight_pruning(self):
        index = build_esa_index(KB, weighting="tf", min_weight=2.0)
        assert esa_word_vector(index, "x") == {0: 2.0}
        assert esa_word_vector(index, "y") == {}

    def test_unknown_weighting(self):
        with pytest.raises(EsaError):
            build_esa_index(KB, weighting="bm25")


class TestWordVector:
    def test_known(self):
        index = build_esa_index(KB, weighting="tf")
        assert esa_word_vector(index, "z") == {1: 1.0}

    def test_unknown(self):
        index = build_esa_index(KB, weighting="tf")
        assert esa_word_vector(index, "qqq") is None

    def test_support_size(self):
        kb = [("A", "w a"), ("B", "w b"), ("C", "c c")]
        index = build_esa_index(kb, weighting="tf")
        assert len(esa_word_vector(index, "w")) == 2


class TestMeanSparse:
    def test_disjoint(self):
        assert mean_sparse_ref([{0: 1.0}, {1: 1.0}]) == {0: 0.5, 1: 0.5}

    def test_identity(self):
        v = {0: 2.0, 3: 1.5}
        assert mean_sparse_ref([v]) == v

    def test_overlap(self):
        assert mean_sparse_ref([{0: 2.0}, {0: 1.0, 1: 3.0}]) == {0: 1.5, 1: 1.5}

    def test_empty(self):
        with pytest.raises(EsaError):
            mean_sparse_ref([])


class TestCosineSparse:
    def test_disjoint_supports(self):
        assert cosine_sparse({0: 1.0}, {1: 1.0}) == 0.0

    def test_identical(self):
        v = {0: 1.0, 2: 3.0}
        assert cosine_sparse(v, v) == pytest.approx(1.0)

    def test_half_overlap(self):
        assert cosine_sparse({0: 1.0, 1: 1.0}, {1: 1.0, 2: 1.0}) == pytest.approx(0.5)

    def test_zero_norm(self):
        with pytest.raises(EsaError):
            cosine_sparse({}, {0: 1.0})


sparse = st.dictionaries(
    st.integers(min_value=0, max_value=49),
    st.floats(min_value=1e-3, max_value=1e3),
    min_size=1,
    max_size=10,
)


class TestDensifiedAgreement:
    @given(sparse, sparse)
    @settings(max_examples=200)
    def test_matches_dense_cosine(self, u, v):
        got = cosine_sparse(u, v)
        want = cosine(np.array(densify(u, 50)), np.array(densify(v, 50)))
        assert got == pytest.approx(want, abs=1e-12)


class TestInvariants:
    def test_tf_token_count_conservation(self):
        kb = [("A", "x x y z w"), ("B", "y z q"), ("C", "q q q")]
        index = build_esa_index(kb, weighting="tf", stopwords=None)
        from newscoherence.corpus import tokenize
        for cid, (_, text) in enumerate(kb):
            total = sum(row.get(cid, 0.0) for row in index.inverted.values())
            assert total == len(tokenize(text))

    def test_serialization_deterministic_and_roundtrips(self, tmp_path):
        kb = [("Art One", "x x y"), ("Art Two", "y z w"), ("Art Three", "w q")]
        index = build_esa_index(kb, weighting="tfidf")
        p1, p2 = tmp_path / "i1.esa", tmp_path / "i2.esa"
        save_index(index, p1)
        save_index(build_esa_index(kb, weighting="tfidf"), p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_index(p1)
        assert loaded.doc_count == index.doc_count
        assert loaded.weighting == index.weighting
        assert loaded.concepts == index.concepts
        assert loaded.df == index.df
        for token, row in index.inverted.items():
            assert loaded.inverted[token] == pytest.approx(row)


class TestLoadIndexErrors:
    @pytest.mark.parametrize("text, line", [
        ("ESA1\tx\ttfidf\n", "line 1"),
        ("ESA1\t1\ttf\nC\tA\nT\tx\n", "line 3"),
        ("ESA1\t1\ttf\nC\tA\nT\tx\t1\t0:zz\n", "line 3"),
        ("ESA1\t1\ttf\nC\tA\nT\tx\t1\t0:1.0\tjunk\n", "line 3"),
        ("ESA1\t1\ttf\nC\tA\tB\n", "line 2"),
        ("ESA1\t1\ttf\nC\n", "line 2"),
    ], ids=["count-not-integer", "t-row-missing-fields", "bad-cell", "t-row-extra-field",
            "c-row-extra-field", "c-row-no-title"])
    def test_malformed_index_names_line(self, tmp_path, text, line):
        p = tmp_path / "bad.esa"
        p.write_text(text)
        with pytest.raises(EsaError, match=f"bad.esa {line}"):
            load_index(p)


class TestLoadIndexBytes:
    @pytest.mark.parametrize("data, line", [
        (b"ESA1\t1\ttf\nC\t\xff\xfe\n", "line 2"),
        (b"ESA1\t1\ttf\nC\tA\nT\tx\t1\t1:2.0\n", "line 3"),
        (b"ESA1\t1\ttf\nC\tA\nT\tx\t1\t-1:2.0\n", "line 3"),
        (b"ESA1\t1\ttf\nC\tA\nT\tx\t1\t0:nan\n", "line 3"),
        (b"ESA1\t1\ttf\nC\tA\nT\tx\t1\t0:inf\n", "line 3"),
    ], ids=["non-utf8", "concept-id-past-end", "negative-concept-id", "nan-weight",
            "inf-weight"])
    def test_malformed_bytes_name_line(self, tmp_path, data, line):
        p = tmp_path / "bad.esa"
        p.write_bytes(data)
        with pytest.raises(EsaError, match=f"bad.esa {line}"):
            load_index(p)

    def test_bare_cr_ends_a_line(self, tmp_path):
        p = tmp_path / "cr.esa"
        p.write_bytes(b"ESA1\t1\ttf\rC\tA\rT\tx\t1\t0:2.0\r")
        index = load_index(p)
        assert index.concepts == ["A"] and index.inverted == {"x": {0: 2.0}}

    def test_crlf_line_ends_read_like_lf(self, tmp_path):
        lf, crlf = tmp_path / "lf.esa", tmp_path / "crlf.esa"
        save_index(build_esa_index([("Art One", "x x y"), ("Art Two", "y z w")]), lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert load_index(crlf) == load_index(lf)


class TestTitleRoundTrip:
    """A concept title comes back from save_index/load_index as it went in, or
    save_index refuses it: a record is one tab-separated line."""

    @pytest.mark.parametrize("title", ["a\tb", "a\nb", "a\rb", "a\r\nb"])
    def test_title_with_tab_or_line_break_rejected(self, tmp_path, title):
        index = build_esa_index([(title, "x x y"), ("B", "y z")])
        path = tmp_path / "kb.esa"
        with pytest.raises(EsaError, match="concept title"):
            save_index(index, path)
        assert not path.exists()

    @pytest.mark.parametrize("title", ["a b", "a\x85b", "a\u2028b", "caf\u00e9", ""])
    def test_other_titles_round_trip(self, tmp_path, title):
        index = build_esa_index([(title, "x x y"), ("B", "y z")])
        path = tmp_path / "kb.esa"
        save_index(index, path)
        assert load_index(path).concepts == [title, "B"]
