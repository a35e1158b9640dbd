from __future__ import annotations

import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from newscoherence.embeddings import (
    EmbeddingError,
    cosine,
    load_vectors_text,
    mean_vector,
    save_vectors_text,
)

from conftest import make_table
from oracle import load_vectors_text_ref


class TestLoadVectorsText:
    def test_basic(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("2 3\na 1 0 0\nb 0 1 0\n")
        table = load_vectors_text(p)
        assert table.dim == 3
        assert len(table) == 2
        assert np.allclose(table.lookup("a"), [1, 0, 0])

    def test_wrong_component_count(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("1 3\na 1 0\n")
        with pytest.raises(EmbeddingError, match="line 2"):
            load_vectors_text(p)

    def test_header_count_mismatch(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("3 2\na 1 0\nb 0 1\n")
        with pytest.raises(EmbeddingError, match="declares 3"):
            load_vectors_text(p)

    def test_non_numeric_component(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("1 2\na 1 zzz\n")
        with pytest.raises(EmbeddingError, match="line 2"):
            load_vectors_text(p)

    def test_duplicate_token_last_wins(self, tmp_path, caplog):
        p = tmp_path / "v.txt"
        p.write_text("2 2\na 1 0\na 0 1\n")
        with caplog.at_level(logging.WARNING, logger="newscoherence.embeddings"):
            table = load_vectors_text(p)
        assert np.allclose(table.lookup("a"), [0, 1])
        assert sum("duplicate" in r.message for r in caplog.records) == 1

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        table = make_table({f"w{i}": list(rng.normal(size=4)) for i in range(20)})
        p = tmp_path / "rt.txt"
        save_vectors_text(table, p)
        loaded = load_vectors_text(p)
        for token, vec in table.entries.items():
            assert np.max(np.abs(loaded.lookup(token) - vec)) < 1e-9

    def test_entries_are_rows_of_one_matrix(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("3 2\na 1 0\nb 0 1\na 2 2\n")
        table = load_vectors_text(p)
        bases = {id(v.base) for v in table.entries.values()}
        assert len(bases) == 1 and next(iter(table.entries.values())).base.shape == (3, 2)
        assert list(table.entries) == ["a", "b"]
        assert table.lookup("a").tolist() == [2.0, 2.0]

    def test_header_only_file_loads_without_warning(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("0 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = load_vectors_text(p)
        assert len(table) == 0 and table.dim == 3

    @pytest.mark.parametrize("body", ["", "a 1 2\n"])
    def test_huge_header_dim_is_a_data_error(self, tmp_path, body):
        p = tmp_path / "v.txt"
        p.write_text("1 3000000000000000000\n" + body)
        with pytest.raises(EmbeddingError, match="declares 1|line 2"):
            load_vectors_text(p)

    @pytest.mark.parametrize("line", ["a", "a ", "a \t", "a 1", "a 1 2 3", "a 1 inf", "a 1 1e999"])
    def test_malformed_row_names_its_line(self, tmp_path, line):
        p = tmp_path / "v.txt"
        p.write_text("3 2\nb 1 2\n\n" + line + "\nc 1 zzz\n")
        with pytest.raises(EmbeddingError, match="v.txt line 4:"):
            load_vectors_text(p)

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_bytes(b"2 2\na 1 0\n\xffb 0 1\n")
        with pytest.raises(EmbeddingError, match="v.txt line 3: invalid UTF-8"):
            load_vectors_text(p)

    def test_lone_carriage_return_ends_a_line(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_bytes(b"2 2\ra 1 0\r\nb 0 1\r")
        assert load_vectors_text(p).lookup("b").tolist() == [0.0, 1.0]


_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.6e}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-0.0", "0", "+.5", "1.", "1E+05", "-2.5e-3", "1e-400", "1e500",
                     "inf", "-Infinity", "nan", "zzz", "1.2.3", "--1", "0x10", "e5"]),
)
# Any text but the space that ends a token and the line ends; a few repeat.
_TOKEN = st.one_of(st.sampled_from(["a", "b", "UK", "uk", "é", "日本"]),
                   st.text(st.characters(codec="utf-8", exclude_characters=" \r\n"), max_size=5))


@st.composite
def _vector_files(draw):
    """word2vec text with runs of spaces, blank lines, any line end, duplicate and
    unicode tokens, and now and then a bad cell, row length or header count."""
    dim = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "  "])))
            continue
        n = dim if draw(st.integers(0, 9)) else draw(st.integers(0, dim + 1))
        line = draw(_TOKEN) + draw(st.sampled_from(["", " "]))
        for _ in range(n):
            line += " " * draw(st.integers(1, 3)) + draw(_CELL)
        lines.append(line + draw(st.sampled_from(["", " ", "  "])))
    rows = sum(1 for line in lines if line.strip())
    count = rows if draw(st.integers(0, 4)) else draw(st.integers(0, rows + 1))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = f"{count} {dim}" + "".join(draw(ends) + line for line in lines)
    return text + draw(st.sampled_from(["", "\n", "\r\n"]))


class TestLoaderMatchesReference:
    """The numpy loader against the line-by-line loader it replaced."""

    def _outcome(self, loader, path):
        """(rows as bytes, or the line an error names) and the warnings logged."""
        logger = logging.getLogger("newscoherence.embeddings")
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger.addHandler(handler)
        try:
            table = loader(path)
            result = [(t, v.tobytes()) for t, v in table.entries.items()], table.dim
        except EmbeddingError as e:
            line = re.search(r"line \d+", str(e))
            result = line.group(0) if line else str(e)
        finally:
            logger.removeHandler(handler)
        return result, [r.getMessage() for r in records]

    @seed(20191108)
    @given(_vector_files())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_rows_warnings_and_error_lines(self, tmp_path, text):
        p = tmp_path / "v.txt"
        p.write_bytes(text.encode("utf-8"))
        assert self._outcome(load_vectors_text, p) == self._outcome(load_vectors_text_ref, p)

    def test_underscore_digit_separator_now_rejected(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("1 2\na 1_0 2\n")
        assert load_vectors_text_ref(p).lookup("a").tolist() == [10.0, 2.0]
        with pytest.raises(EmbeddingError, match="line 2"):
            load_vectors_text(p)

    def test_tab_between_components_now_whitespace(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("1 2\na 1\t2\n")
        with pytest.raises(EmbeddingError, match="line 2"):
            load_vectors_text_ref(p)
        assert load_vectors_text(p).lookup("a").tolist() == [1.0, 2.0]


class TestLookup:
    def test_exact(self, toy_table):
        assert np.allclose(toy_table.lookup("a"), [1, 0])

    def test_absent(self, toy_table):
        assert toy_table.lookup("zzz") is None

    def test_case_fallback(self):
        table = make_table({"UK": [3.0, 4.0]})
        assert np.allclose(table.lookup("uk"), [3, 4])

    def test_exact_match_wins_over_fallback(self):
        table = make_table({"UK": [1.0, 0.0], "uk": [0.0, 1.0]})
        assert np.allclose(table.lookup("uk"), [0, 1])
        assert np.allclose(table.lookup("UK"), [1, 0])

    def test_first_casing_wins_fallback(self):
        table = make_table({"Apple": [1.0, 0.0], "apple": [0.0, 1.0], "APPLE": [1.0, 1.0],
                            "kiwi": [2.0, 0.0], "KIWI": [0.0, 2.0]})
        assert table.lookup("aPPle").tolist() == [1.0, 0.0]  # "Apple" came first
        assert table.lookup("Kiwi").tolist() == [2.0, 0.0]  # "kiwi" came first
        assert table.lookup("apple").tolist() == [0.0, 1.0]  # an exact match
        assert table.lookup("pear") is None


class TestMeanVector:
    def test_two(self):
        m = mean_vector([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.allclose(m, [0.5, 0.5])

    def test_identity(self):
        v = np.array([2.0, -1.0])
        assert np.allclose(mean_vector([v]), v)

    def test_multiset(self):
        m = mean_vector([np.array([1.0, 0.0])] * 2 + [np.array([0.0, 1.0])])
        assert np.allclose(m, [2 / 3, 1 / 3])

    def test_empty(self):
        with pytest.raises(EmbeddingError):
            mean_vector([])

    def test_mixed_dims(self):
        with pytest.raises(EmbeddingError):
            mean_vector([np.array([1.0]), np.array([1.0, 2.0])])


# Magnitude floor keeps squared norms from underflowing to zero in float64.
finite_vec = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=8
).filter(lambda v: max(abs(x) for x in v) > 1e-100)


class TestCosine:
    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_scaling_invariance(self):
        assert cosine(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)

    def test_analytic(self):
        got = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(0.7071067811865475, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(EmbeddingError):
            cosine(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    def test_mixed_dims(self):
        with pytest.raises(EmbeddingError):
            cosine(np.array([1.0]), np.array([1.0, 0.0]))

    @given(finite_vec, finite_vec)
    @settings(max_examples=200)
    def test_symmetry_and_bound(self, u, v):
        n = min(len(u), len(v))
        a, b = np.array(u[:n]), np.array(v[:n])
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        assert cosine(a, b) == cosine(b, a)
        assert abs(cosine(a, b)) <= 1 + 1e-12

    @given(finite_vec)
    @settings(max_examples=100)
    def test_scale_invariance_property(self, u):
        a = np.array(u)
        b = a[::-1].copy()
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        base = cosine(a, b)
        for alpha in (0.5, 2.0, 10.0):
            assert cosine(alpha * a, b) == pytest.approx(base, abs=1e-12)
