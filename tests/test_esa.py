from __future__ import annotations

import hashlib
import math
import re
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

import numpy as np

from newscoherence import coherence
from newscoherence.coherence import sentence_matrix
from newscoherence.embeddings import cosine
from newscoherence.esa import (
    EsaError,
    EsaIndex,
    build_esa_index,
    cosine_sparse,
    esa_word_vector,
    load_index,
    save_index,
)

from oracle import densify, load_index_ref, mean_sparse_ref, sentence_matrix_ref, sparse_rows
from test_cli import _esa_text, _mangled

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
        df = dict(zip(index.tokens, index.df.tolist()))
        for token, row in index.inverted.items():
            assert df[token] == len(row)

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
        assert dict(zip(loaded.tokens, loaded.df.tolist())) == \
            dict(zip(index.tokens, index.df.tolist()))
        for token, row in index.inverted.items():
            assert loaded.inverted[token] == pytest.approx(row)

    # The second file holds its tokens out of order and each row's ids descending:
    # the writer sorts both, so its bytes pin each sort.
    @pytest.mark.parametrize("source, digest", [
        (None, "e82f0b0f42c1e01b033bbc7ac167151e63d33c259347bd0172389987dadacaf6"),
        ("ESA1\t3\ttf\nC\tA\nC\tB\nC\tC\nT\tz\t2\t2:1.5 0:0.25\nT\tb\t0\t\n"
         "T\ta\t3\t2:3.0 1:2.0 0:1e-05\n",
         "900e590dda0cccd654154440fc0587cce9f41c982af9dc5bb38804de0bd3b864"),
    ], ids=["built", "loaded-unsorted"])
    def test_saved_bytes_are_pinned(self, tmp_path, source, digest):
        if source is None:
            index = build_esa_index(KB)
        else:
            (tmp_path / "in.esa").write_text(source)
            index = load_index(tmp_path / "in.esa")
        save_index(index, tmp_path / "out.esa")
        assert hashlib.sha256((tmp_path / "out.esa").read_bytes()).hexdigest() == digest


class TestLoadIndexErrors:
    @pytest.mark.parametrize("text, line", [
        ("ESA1\tx\ttfidf\n", "line 1"),
        ("ESA1\t1\ttf\nC\tA\nT\tx\n", "line 3"),
        ("ESA1\t1\ttf\nC\tA\nT\tx\t1\t0:zz\n", "line 3"),
        ("ESA1\t1\ttf\nC\tA\nT\tx\t1\t0:1.0\tjunk\n", "line 3"),
        ("ESA1\t1\ttf\nC\tA\tB\n", "line 2"),
        ("ESA1\t1\ttf\nC\n", "line 2"),
        ("ESA1\t1\ttf\nC\tA\nT\tx\t1\t0:1.0\nT\tx\t1\t0:2.0\n", "line 4"),
        ("ESA1\t2\ttf\nC\tA\nC\tB\nT\tx\t1\t0:1.0 1:1.0\nT\ty\t1\t1:1.0 1:2.0\n", "line 5"),
        ("ESA1\t1\ttf\nC\tA\nT\tx\t1\t0:-1.0\n", "line 3"),
        ("ESA1\t1\ttf\nC\tA\nT\tx\t-1\t0:1.0\n", "line 3"),
        ("ESA1\t1\ttf\nC\tA\nT\tx\t1\t0:1.0\nT\ty\t9223372036854775808\t\n", "line 4"),
        ("ESA1\t1\tbogus\nC\tA\n", "line 1"),
        ("ESA1\t2\ttf\nC\tA\n", "line 1"),
        ("ESA1\t1\ttf\nC\tA\nT\tx\t1\t0:1_0\n", "line 3"),
        ("ESA1\t1\ttf\nC\tA\nT\tx\t1\t\u0660:1.0\n", "line 3"),
        ("ESA1\t1\ttf\nC\tA\nT\tx\t1\t0:1.0 \n", "line 3"),
        ("ESA1\t1\ttf\nC\tA\nT\tx\t1\t \n", "line 3"),
        ("ESA1\t2\ttf\nC\tA\nC\tB\nT\tx\t1\t0:1.0\nT\ty\t1\t\nT\tz\t1\t1:1.0\n"
         "T\tw\t1\t0:1.0  1:1.0\nT\tv\t1\t2:1.0\n", "line 7"),
        ("", "line 1"),
    ], ids=["count-not-integer", "t-row-missing-fields", "bad-cell", "t-row-extra-field",
            "c-row-extra-field", "c-row-no-title", "duplicate-token", "duplicate-concept-id",
            "negative-weight", "negative-df", "df-past-int64", "unknown-weighting",
            "concept-count-mismatch", "underscore-in-number", "non-ascii-digit",
            "trailing-space", "space-only-cells", "first-of-two-bad-rows", "empty-file"])
    def test_malformed_index_names_line(self, tmp_path, text, line):
        p = tmp_path / "bad.esa"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(EsaError, match=f"bad.esa {line}:"):
            load_index(p)


    @pytest.mark.parametrize("cells", ["0:1.0 ", "0:1.0  1:1.0", " 0:1.0"])
    def test_a_stray_space_is_an_empty_cell(self, tmp_path, cells):
        p = tmp_path / "bad.esa"
        p.write_text(f"ESA1\t2\ttf\nC\tA\nC\tB\nT\tx\t1\t1:1.0\nT\ty\t1\t{cells}\n")
        with pytest.raises(EsaError, match="bad.esa line 5: malformed 'T' record: empty cell"):
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


class TestInvertedView:
    """`inverted` is a token -> {concept id: weight} dict of the CSR rows, built on
    each read: writing to it changes nothing in the index."""

    def test_view_over_csr_arrays(self):
        index = build_esa_index(KB, weighting="tf")
        rows = {"x": {0: 2.0}, "y": {0: 1.0, 1: 1.0}, "z": {1: 1.0}}
        assert index.inverted == rows
        assert [index.row(i) for i in range(len(index.tokens))] == list(rows.values())
        assert len(index.indices) == len(index.data) == 4
        assert index.indptr.tolist() == [0, 1, 3, 4]
        assert "x" in index.inverted and "qqq" not in index.inverted
        written = index.inverted
        written["x"] = {}
        written["qqq"] = {0: 1.0}
        assert index.inverted == rows

    def test_rows_are_built_on_each_read(self):
        index = build_esa_index(KB, weighting="tf")
        row = index.inverted["y"]
        row[0] = 99.0
        assert index.inverted["y"] == {0: 1.0, 1: 1.0}
        assert index.inverted["y"] is not index.inverted["y"]

    def test_index_holds_arrays_not_per_nonzero_objects(self):
        index = build_esa_index(KB, weighting="tf")
        assert {name: type(v).__name__ for name, v in vars(index).items()} == {
            "concepts": "list", "tokens": "list", "indptr": "ndarray", "indices": "ndarray",
            "data": "ndarray", "df": "ndarray", "weighting": "str", "rows": "dict"}
        assert index.indices.dtype == np.int64 and index.data.dtype == np.float64
        assert index.df.dtype == np.int64 and index.df.tolist() == [1, 2, 1]

    def test_equality(self, tmp_path):
        save_index(build_esa_index(KB), tmp_path / "kb.esa")
        assert load_index(tmp_path / "kb.esa") == load_index(tmp_path / "kb.esa")
        assert build_esa_index(KB, weighting="tf") != build_esa_index(KB, weighting="tfidf")


def _index(rows: dict[str, dict[int, float]], n_concepts: int) -> EsaIndex:
    """An index holding `rows` as they are given, in their order."""
    indptr, indices, data = sparse_rows(list(rows.values()))
    return EsaIndex(concepts=[f"C{i}" for i in range(n_concepts)], tokens=list(rows),
                    indptr=indptr, indices=indices, data=data,
                    df=np.array([len(r) for r in rows.values()], dtype=np.int64))


def _full(matrix, columns, k: int, width: int) -> np.ndarray:
    """Sentence rows from `sentence_matrix` as a dense K x width array over concept ids."""
    full = np.zeros((k, width))
    if isinstance(matrix, tuple):
        indptr, cols, values = matrix
        full[np.repeat(np.arange(k), np.diff(indptr)), columns[cols]] = values
    else:
        full[:, columns] = matrix
    return full


_WEIGHT = st.one_of(st.floats(1e-3, 1e3), st.floats(1e307, 1.7e308), st.just(0.0))


@st.composite
def _rows_and_sentences(draw):
    """A small index, some rows empty, and token lists over its tokens and an
    out-of-vocabulary one; weights near 1e308 make some sentence sums overflow."""
    n = draw(st.integers(1, 8))
    names = draw(st.lists(st.sampled_from([f"w{i}" for i in range(10)]), unique=True,
                          min_size=1, max_size=10))
    rows = {t: draw(st.dictionaries(st.integers(0, n - 1), _WEIGHT, max_size=n)) for t in names}
    sentence = st.lists(st.sampled_from([*names, "oov"]), max_size=8)
    return rows, n, draw(st.lists(sentence, max_size=8))


class TestSentenceMatrixMatchesOracle:
    """Each sentence row, dense or CSR, equals bit for bit the sums of the sort-based
    CSR route: both add a cell's entries in occurrence order, whatever the chunks
    the entries are summed in."""

    @seed(20191108)
    @given(_rows_and_sentences(), st.booleans(),
           st.sampled_from([coherence._CHUNK_ENTRIES, 1, 5]))
    # CSR rows in two chunks of 5 and 3 entries, the first of which overflows.
    @example(({"a": {0: 1e308}, "b": {1: 1.0}, "c": {2: 1.0}}, 3,
              [["b", "c"], ["a", "a"], ["b"], ["c"], ["b"], ["c"]]), False, 5)
    @settings(max_examples=400, deadline=None)
    def test_rows_equal_oracle_sums(self, case, unique_tokens, budget):
        rows, n, token_lists = case
        if unique_tokens:
            token_lists = [sorted(set(ts)) for ts in token_lists]
        index = _index(rows, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coherence, "_CHUNK_ENTRIES", budget)
            matrix, columns = sentence_matrix(index, token_lists)
        k = len(token_lists)
        got = _full(matrix, columns, k, n)
        want = _full(sentence_matrix_ref(index, token_lists), np.arange(n), k, n)
        assert got.tobytes() == want.tobytes()
        touched = {c for ts in token_lists for t in ts for c in rows.get(t, ())}
        assert columns.tolist() == sorted(touched)

    def test_dense_block_when_no_larger_than_the_entries(self):
        index = _index({"a": {0: 1.0, 1: 2.0}, "b": {1: 3.0}}, 3)
        matrix, columns = sentence_matrix(index, [["a", "b"], ["a"]])  # K*C = 4 <= E = 5
        assert columns.tolist() == [0, 1]
        assert matrix.tolist() == [[1.0, 5.0], [1.0, 2.0]]

    def test_csr_when_the_block_would_be_larger(self):
        index = _index({"a": {0: 1.0}, "b": {1: 2.0}, "c": {2: 3.0}}, 3)
        matrix, columns = sentence_matrix(index, [["a"], ["b", "oov"], ["c"]])  # 9 > 3
        assert isinstance(matrix, tuple) and columns.tolist() == [0, 1, 2]
        assert [a.tolist() for a in matrix] == [[0, 1, 2, 3], [0, 1, 2], [1.0, 2.0, 3.0]]

    def test_no_known_token(self):
        matrix, columns = sentence_matrix(_index({"a": {}}, 1), [["a", "oov"], []])
        assert matrix.shape == (2, 0) and columns.size == 0

    @pytest.mark.parametrize("side", ["dense", "csr"])
    def test_scratch_follows_the_chunk_not_the_entries(self, side):
        """200 000 entries in 40 or 50 chunks: beside twice the output (the CSR
        side concatenates its chunks' cells), the peak stays within 192 bytes per
        entry of one chunk, which covers the chunk's gathers and sort and, here,
        the document's per-token arrays."""
        if side == "dense":  # 40 sentences x 20 occurrences of 2 tokens of 250 cells
            rows = {t: dict(zip(range(250), np.linspace(1.0, 2.0, 250) + i))
                    for i, t in enumerate("ab")}
            token_lists = [["a", "b"] * 10] * 40
        else:  # sentence i holds token i 40 times, its 100 cells its own
            rows = {f"t{i}": dict.fromkeys(range(100 * i, 100 * (i + 1)), 1.5)
                    for i in range(50)}
            token_lists = [[f"t{i}"] * 40 for i in range(50)]
        index = _index(rows, 5000)
        tracemalloc.start()
        try:
            matrix, _ = sentence_matrix(index, token_lists)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(matrix, tuple) == (side == "csr")
        output = sum(a.nbytes for a in matrix) if side == "csr" else matrix.nbytes
        assert peak <= 2 * output + 192 * coherence._CHUNK_ENTRIES, (peak, output)


class TestLoadIndexMatchesOracle:
    """Random ESA1 bytes: the loader raises EsaError naming a line, or reads what
    the line-by-line reader reads; what that reader rejects, the loader rejects."""

    @seed(20191108)
    @given(data=_mangled(_esa_text()))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_index_or_an_error_naming_a_line(self, tmp_path, data):
        path = tmp_path / "fuzz.esa"
        path.write_bytes(data)
        try:
            want = load_index_ref(path)
        except EsaError:
            want = None
        try:
            got = load_index(path)
        except EsaError as e:
            assert re.match(rf"{re.escape(str(path))} line [0-9]+: ", str(e))
            return
        assert want is not None
        assert (got.concepts, got.doc_count, got.weighting, got.tokens) == \
            (want.concepts, want.doc_count, want.weighting, list(want.inverted))
        assert dict(zip(got.tokens, got.df.tolist())) == want.df
        assert got.inverted == want.inverted
