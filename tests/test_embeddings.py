from __future__ import annotations

import codecs
import errno
import functools
import hashlib
import io
import logging
import math
import os
import re
import subprocess
import threading
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from newscoherence import cache, embeddings, esa
from newscoherence.corpus import tokenize
from newscoherence.embeddings import (
    EmbeddingError,
    cosine,
    load_vectors_text,
    text_lines,
)
from newscoherence.esa import EsaError, build_esa_index, load_index, save_index

from conftest import make_table, save_vectors_text, synthetic_kb
from oracle import load_vectors_text_ref, lookup, mean_vector, text_lines_ref
from test_cli import _esa_text, _mangled


class TestLoadVectorsText:
    def test_basic(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("2 3\na 1 0 0\nb 0 1 0\n")
        table = load_vectors_text(p)
        assert table.dim == 3
        assert len(table) == 2
        assert np.allclose(lookup(table, "a"), [1, 0, 0])

    def test_wrong_component_count(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("1 3\na 1 0\n")
        with pytest.raises(EmbeddingError, match="line 2"):
            load_vectors_text(p)

    def test_header_count_mismatch(self, tmp_path):
        p = tmp_path / "v.txt"
        # The file's size bounds the rows a huge count reserves: no MemoryError.
        for count in (3, 10**15, -1):
            p.write_text(f"{count} 2\na 1 0\nb 0 1\n")
            for keep in (None, ["a"]):
                with pytest.raises(EmbeddingError, match=f"declares {count} vectors, file has 2"):
                    load_vectors_text(p, keep=keep)

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
        assert np.allclose(lookup(table, "a"), [0, 1])
        assert sum("duplicate" in r.message for r in caplog.records) == 1

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        table = make_table({f"w{i}": list(rng.normal(size=4)) for i in range(20)})
        p = tmp_path / "rt.txt"
        save_vectors_text(table, p)
        loaded = load_vectors_text(p)
        for token, vec in table.entries.items():
            assert np.max(np.abs(lookup(loaded, token) - vec)) < 1e-9

    def test_entries_are_rows_of_one_matrix(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("3 2\na 1 0\nb 0 1\na 2 2\n")
        table = load_vectors_text(p)
        bases = {id(v.base) for v in table.entries.values()}
        assert len(bases) == 1 and next(iter(table.entries.values())).base.shape == (3, 2)
        assert list(table.entries) == ["a", "b"]
        assert lookup(table, "a").tolist() == [2.0, 2.0]

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
        """Also where a line below it, in the same block of rows, is not UTF-8."""
        p = tmp_path / "v.txt"
        for below in (b"c 1 zzz\n", b"\xffc 1 2\n"):
            p.write_bytes(b"3 2\nb 1 2\n\n" + line.encode() + b"\n" + below)
            with pytest.raises(EmbeddingError, match="v.txt line 4:"):
                load_vectors_text(p)

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_bytes(b"2 2\na 1 0\n\xffb 0 1\n")
        with pytest.raises(EmbeddingError, match="v.txt line 3: invalid UTF-8"):
            load_vectors_text(p)

    def test_byte_order_mark_is_skipped(self, tmp_path, vector_cache, monkeypatch):
        """At the file's start only, by a parse and by a hit of its entry alike."""
        p = tmp_path / "v.txt"
        p.write_bytes(codecs.BOM_UTF8 + "2 2\na 1 2\n\ufeffb 3 4\n".encode())
        index = tmp_path / "i.esa"
        index.write_bytes(codecs.BOM_UTF8 + b"ESA1\t1\ttf\nC\tA\nT\tb\t1\t0:4\n")
        for _ in range(2):
            table = load_vectors_text(p)
            assert list(table.rows) == ["a", "\ufeffb"] and table.matrix.tolist() == [[1, 2], [3, 4]]
            assert load_index(index).inverted == {"b": {0: 4.0}}
            parses = _parses(monkeypatch), _parses(monkeypatch, "index")
        assert parses == ([], []) and len(_entries(vector_cache)) == 2

    def test_lone_carriage_return_ends_a_line(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_bytes(b"2 2\ra 1 0\r\nb 0 1\r")
        assert lookup(load_vectors_text(p), "b").tolist() == [0.0, 1.0]

    def test_bad_row_on_a_pipe_is_named_without_a_second_open(self, tmp_path):
        """A pipe can be read once: the bad row is named from the rows in hand."""
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        errors = []

        def load():
            try:
                load_vectors_text(fifo)
            except EmbeddingError as e:
                errors.append(str(e))

        reader = threading.Thread(target=load, daemon=True)
        writer = threading.Thread(target=fifo.write_bytes, args=(b"2 2\na 1 0\nb 1 zzz\n",),
                                  daemon=True)
        reader.start()
        writer.start()
        writer.join(10)
        reader.join(10)
        hung = reader.is_alive()
        if hung:  # a second open of the pipe waits for a writer: be one, and fail
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(10)
        assert not hung and len(errors) == 1 and "fifo line 3: non-numeric" in errors[0]


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
    @given(text=_vector_files(), bad=st.none() | st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_rows_warnings_and_error_lines(self, tmp_path, text, bad):
        data = text.encode("utf-8")
        if bad is not None:  # a byte that is not UTF-8, anywhere
            bad %= len(data) + 1
            data = data[:bad] + b"\xff" + data[bad:]
        p = tmp_path / "v.txt"
        p.write_bytes(data)
        assert self._outcome(load_vectors_text, p) == self._outcome(load_vectors_text_ref, p)

    def test_underscore_digit_separator_now_rejected(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("1 2\na 1_0 2\n")
        assert lookup(load_vectors_text_ref(p), "a").tolist() == [10.0, 2.0]
        with pytest.raises(EmbeddingError, match="line 2"):
            load_vectors_text(p)

    def test_tab_between_components_now_whitespace(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("1 2\na 1\t2\n")
        with pytest.raises(EmbeddingError, match="line 2"):
            load_vectors_text_ref(p)
        assert lookup(load_vectors_text(p), "a").tolist() == [1.0, 2.0]


def _loaded(load, path):
    """(rows, matrix bytes) or the error message, and the warnings logged, in order."""
    logger = logging.getLogger("newscoherence.embeddings")
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger.addHandler(handler)
    try:
        table = load(path)
        result = list(table.rows.items()), table.matrix.tobytes(), table.dim
    except EmbeddingError as e:
        result = str(e)
    finally:
        logger.removeHandler(handler)
    return result, [r.getMessage() for r in records]


class TestBlockSize:
    """A table parses to the same rows, warnings and errors at any block size: its
    faults and duplicates land on every block boundary."""

    @seed(20191111)
    @given(text=_vector_files(), keep=st.none() | st.lists(_TOKEN, max_size=6),
           bad=st.none() | st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_block_size_gives_the_same_outcome(self, tmp_path, monkeypatch, text, keep,
                                                   bad):
        data = text.encode("utf-8")
        if bad is not None:  # a byte that is not UTF-8, anywhere
            bad %= len(data) + 1
            data = data[:bad] + b"\xff" + data[bad:]
        p = tmp_path / "v.txt"
        p.write_bytes(data)
        load = functools.partial(load_vectors_text, keep=keep)
        outcomes = []
        for rows in (64, 1, 2, 3):
            monkeypatch.setattr(embeddings, "_BLOCK_ROWS", rows)
            outcomes.append(_loaded(load, p))
        assert all(outcome == outcomes[0] for outcome in outcomes)


class TestTextLines:
    """`text_lines`, which decodes a read at a time, splits and decodes as the
    line-by-line reader did, for any read size: line ends and multi-byte characters
    split across reads."""

    @seed(20191112)
    @given(pieces=st.lists(st.sampled_from([b"a", b" 1", b"\n", b"\r", b"\r\n", b"\xff",
                                            codecs.BOM_UTF8,
                                            "é".encode(), "日".encode()[:2], b""]), max_size=30),
           read=st.integers(1, 9))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_read_size_gives_the_same_lines(self, monkeypatch, pieces, read):
        data = b"".join(pieces)
        monkeypatch.setattr(embeddings, "_READ_BYTES", read)
        lines, error = [], None
        try:
            for lineno, line in text_lines(io.BytesIO(data), "f"):
                assert lineno == len(lines) + 1
                lines.append(line)
        except EmbeddingError as e:
            error = str(e).removeprefix("f ")
        assert (lines, error) == text_lines_ref(data)


# Case and case-only variants that lower() maps in unusual ways: "İ" lowers to
# two characters, "ẞ" to "ß", the Kelvin sign to "k"; "ς" and "σ" share "Σ".
_CASED = ["a", "A", "uk", "UK", "Uk", "apple", "Apple", "APPLE", "aPPle", "İ", "i̇", "I",
          "i", "ı", "Σ", "σ", "ς", "ΣΑΣ", "σας", "ß", "ẞ", "SS", "ss", "straße", "STRASSE",
          "\u212a", "k", "K", "日本", "é", "É"]
_ABSENT = ["zzz", "ZZZ", "Ω", "ω"]  # never in a drawn table


class TestHeldRows:
    """`keep` holds fewer rows; each `keep` token still finds what the full table has."""

    @staticmethod
    def _write(tmp_path, tokens):
        p = tmp_path / "v.txt"
        rows = "".join(f"{t} {i} {i % 3 - 1.5}\n" for i, t in enumerate(tokens))
        p.write_bytes(f"{len(tokens)} 2\n{rows}".encode("utf-8"))
        return p

    @seed(20191109)
    @given(tokens=st.lists(st.sampled_from(_CASED), max_size=12),
           keep=st.lists(st.sampled_from(_CASED + _ABSENT), max_size=8))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_keep_tokens_look_up_as_in_the_full_table(self, tmp_path, tokens, keep):
        p = self._write(tmp_path, tokens)
        full, held = load_vectors_text(p), load_vectors_text(p, keep=keep)
        for t in keep:
            want, got = lookup(full, t), lookup(held, t)
            assert (got is None) == (want is None), t
            assert want is None or got.tobytes() == want.tobytes(), t
        assert set(held.rows) <= set(full.rows) and len(held.matrix) <= len(full.matrix)

    @seed(20191110)
    @given(text=_vector_files(), keep=st.lists(_TOKEN, max_size=6))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_rows_not_held_are_still_checked(self, tmp_path, text, keep):
        """The same errors and warnings as the full load; on success, the full
        table's rows whose token has the lower case of a `keep` token."""
        p = tmp_path / "v.txt"
        p.write_bytes(text.encode("utf-8"))
        outcome = TestLoaderMatchesReference()._outcome
        full, full_warnings = outcome(load_vectors_text, p)
        keeping = functools.partial(load_vectors_text, keep=keep)
        held, held_warnings = outcome(keeping, p)
        assert held_warnings == full_warnings
        if isinstance(full, str):
            assert held == full
        else:
            lower = {t.lower() for t in keep}
            assert held == ([(t, v) for t, v in full[0] if t.lower() in lower], full[1])

    def test_held_token_is_the_corpus_token(self, tmp_path):
        tokens = tokenize("Apple pie and pear")
        p = self._write(tmp_path, ["apple", "Apple", "pear", "kiwi"])
        held = load_vectors_text(p, keep=tokens)
        assert list(held.rows) == ["apple", "Apple", "pear"]
        keys = {k: k for k in held.rows}
        assert keys["apple"] is tokens[0] and keys["pear"] is tokens[3]

    def test_keep_is_keyword_only(self, tmp_path):
        """A second positional argument is an error, not a `keep` whose characters
        would be the held tokens."""
        p = self._write(tmp_path, ["x", "y"])
        with pytest.raises(TypeError):
            load_vectors_text(p, "x")

    def test_unused_rows_leave_the_table(self, tmp_path):
        p = self._write(tmp_path, ["Apple", "pear", "apple", "APPLE", "kiwi"])
        held = load_vectors_text(p, keep=["aPPle"])
        assert list(held.rows) == ["Apple", "apple", "APPLE"] and len(held) == 3
        assert held.matrix.shape == (3, 2) and lookup(held, "aPPle").tolist() == [0.0, -1.5]
        assert load_vectors_text(p, keep=[]).matrix.shape == (0, 2)

    def test_rows_across_blocks(self, tmp_path):
        """Hundreds of rows, parsed in several blocks, each block holding some."""
        tokens = [f"w{i % 150}" if i % 7 else f"W{i}" for i in range(400)]
        p = self._write(tmp_path, tokens)
        ref = load_vectors_text_ref(p)
        assert [(t, v.tobytes()) for t, v in load_vectors_text(p).entries.items()] == [
            (t, v.tobytes()) for t, v in ref.entries.items()]
        keep = [f"w{i}" for i in range(0, 400, 3)]
        held = load_vectors_text(p, keep=keep)
        assert list(held.rows) == [t for t in ref.rows if t.lower() in keep]
        for t in keep:
            want = lookup(ref, t)
            assert (lookup(held, t) is None) == (want is None)
            assert want is None or lookup(held, t).tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [400, 10**15])
    def test_pipe_holds_every_row(self, tmp_path, count):
        """A pipe's size shows none of its rows: the buffer grows as they arrive."""
        tokens = [f"w{i % 150}" if i % 7 else f"W{i}" for i in range(400)]
        p = self._write(tmp_path, tokens)
        text = p.read_bytes().replace(b"400 2", f"{count} 2".encode(), 1)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        for keep in (None, [f"w{i}" for i in range(0, 400, 3)]):
            writer = threading.Thread(target=fifo.write_bytes, args=(text,))
            writer.start()
            try:
                if count == len(tokens):
                    held, want = load_vectors_text(fifo, keep=keep), load_vectors_text(p, keep=keep)
                    assert list(held.rows.items()) == list(want.rows.items()) and len(held) > 0
                    assert held.matrix.tobytes() == want.matrix.tobytes()
                else:
                    with pytest.raises(EmbeddingError, match=f"declares {count} vectors, file has 400"):
                        load_vectors_text(fifo, keep=keep)
            finally:
                writer.join()


def _parses(monkeypatch, kind: str = "table") -> list:
    """A list that gets an item for each parse of a table, or each parse of index
    cells, that this process makes."""
    calls = []
    module, name = (embeddings, "_parse_table") if kind == "table" else (esa, "_cells")
    parse = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return parse(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _entries(cache) -> list:
    return sorted(cache.iterdir()) if cache.exists() else []


def _index_loaded(path):
    """The index, or the error message."""
    try:
        return load_index(path)
    except EsaError as e:
        return str(e)


def _damaged_index(p, damage) -> None:
    """Rewrite the cache entry of index file `p` from its index as `damage` changes
    it, with the size and CRC-32 of `p`."""
    index = load_index(p)
    damage(index)
    with cache.Writer(cache.entry(p, esa._VERSION, 7)) as writer:
        for _ in writer.read([p.read_bytes()]):  # sums the size and CRC-32 of `p`
            pass
        writer.publish(p.stat().st_size, esa._entry_body(index, writer))


def _set(name, at, value):
    return lambda index: getattr(index, name).__setitem__(at, value)


# An index entry whose version line is another kind's or version's, whose bytes
# are not those its CRC-32 was summed over, or whose index breaks a rule a parse
# keeps. The index is TestCache.INDEX.
_INDEX_DAMAGES = {
    "index truncated": None,
    "index byte appended": None,
    "index negative field": None,
    "index field past the file": None,
    "index weight changed": None,
    "index table line": embeddings._VERSION,
    "index other version": b"newscoherence index 1\n",
    "index id out of range": _set("indices", 0, 3),
    "index negative weight": _set("data", 0, -1.0),
    "index nan weight": _set("data", 0, np.nan),
    "index indptr not ending at nnz": _set("indptr", -1, 2),
    "index id twice in a row": _set("indices", 1, 2),
    "index negative df": _set("df", 0, -1),
    "index token twice": _set("tokens", 1, "x"),
}


class TestCache:
    """A table or an index parsed once is read from its cache entry while its bytes
    stay the same: to the same table and warnings, or the same index. Any fault of
    the cache parses again."""

    # "Apple" twice, blank line 5; "Pear" is the first token with the lower case "pear".
    ROWS = "7 2\napple 1 2\nApple 3 4\nPear 5 6\n\nApple 7 8\nkiwi 0 1\nUK 2 2\nuk 1 1\n"
    # Row "x" holds its ids out of order, row "y" none; the third title is empty.
    INDEX = "ESA1\t3\ttfidf\nC\tA\nC\tB\nC\t\nT\tx\t2\t2:1.5 0:0.25\nT\ty\t1\t\nT\tz\t1\t1:2.0\n"

    def _table(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text(self.ROWS)
        return p

    def _index(self, tmp_path):
        p = tmp_path / "i.esa"
        p.write_text(self.INDEX)
        return p

    @pytest.mark.parametrize("keep", [None, ["apple", "pear", "Uk", "fig"], ["fig"]])
    def test_hit_is_the_parsed_table(self, tmp_path, vector_cache, monkeypatch, keep):
        p = self._table(tmp_path)
        parses = _parses(monkeypatch)
        miss, hit = (load_vectors_text(p, keep=keep) for _ in range(2))
        assert len(parses) == 1 and len(_entries(vector_cache)) == 1
        monkeypatch.setenv("XDG_CACHE_HOME", str(p))  # under a regular file: no cache
        want = load_vectors_text(p, keep=keep)
        assert len(parses) == 2
        for table in (miss, hit):
            assert table.matrix.shape == want.matrix.shape
            assert table.matrix.tobytes() == want.matrix.tobytes()
            assert list(table.rows.items()) == list(want.rows.items())
            assert len(table) == len(want) and table.dim == want.dim
            for token in ("APPLE", "pear", "PEAR", "uK", "fig"):
                assert table.row(token) == want.row(token)
        monkeypatch.setenv("XDG_CACHE_HOME", str(vector_cache.parent))
        empty = tmp_path / "empty.txt"
        empty.write_text("0 3\n")  # a header alone: an entry with no tokens
        miss, hit = (load_vectors_text(empty, keep=keep) for _ in range(2))
        assert len(parses) == 3 and len(_entries(vector_cache)) == 2
        assert len(hit) == len(miss) == 0 and hit.dim == miss.dim == 3
        assert hit.matrix.shape == miss.matrix.shape

    @pytest.mark.parametrize("source", ["file", "built"])
    def test_hit_is_the_parsed_index(self, tmp_path, vector_cache, monkeypatch, source):
        p = self._index(tmp_path)
        if source == "built":
            save_index(build_esa_index(synthetic_kb()), p)
        parses = _parses(monkeypatch, "index")
        miss, hit = (load_index(p) for _ in range(2))
        assert len(parses) == 1 and len(_entries(vector_cache)) == 1
        monkeypatch.setenv("XDG_CACHE_HOME", str(p))  # under a regular file: no cache
        want = load_index(p)
        assert len(parses) == 2
        for index in (miss, hit):
            assert index == want and index.rows == want.rows
            for got, expected in zip((index.indptr, index.indices, index.data),
                                     (want.indptr, want.indices, want.data)):
                assert got.dtype == expected.dtype and got.flags.writeable

    @seed(20191114)
    @given(text=_mangled(_esa_text()))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_index_loads_from_its_entry_as_it_parses(self, tmp_path, vector_cache,
                                                         monkeypatch, text):
        p = tmp_path / "i.esa"
        p.write_bytes(text)
        first, second = _index_loaded(p), _index_loaded(p)
        monkeypatch.setenv("XDG_CACHE_HOME", str(p))
        assert first == second == _index_loaded(p)
        monkeypatch.setenv("XDG_CACHE_HOME", str(vector_cache.parent))

    def test_entry_layout_is_pinned(self, tmp_path, vector_cache):
        """The bytes of each entry after its version line and recorded path: a change
        to either layout must change its version line too."""
        for p, load, version, digest in [
                (self._table(tmp_path), load_vectors_text, embeddings._VERSION,
                 "713d0f5c31f822ffda6a841030ff0d172966b43764127178dbe87bdf45813a31"),
                (self._index(tmp_path), load_index, esa._VERSION,
                 "a5c1c8a9603d7b51d31b646fcc07283dd60776dc4a36e506df82a9c49ab81f3e")]:
            load(p)
            data = cache.entry(p, b"", 0).path.read_bytes()
            source = os.fsencode(p.resolve())
            at = len(version) + 8 + len(source)
            assert data[:at] == version + len(source).to_bytes(8, "little") + source
            assert hashlib.sha256(data[at:]).hexdigest() == digest

    def test_hit_warns_as_the_parse(self, tmp_path, vector_cache, monkeypatch):
        p = self._table(tmp_path)
        miss, hit = (_loaded(load_vectors_text, p) for _ in range(2))
        assert hit == miss
        assert hit[1] == [f"{p} line 6: duplicate token 'Apple' overwritten"]
        # A hit that holds no "Apple" row still names it.
        parses = _parses(monkeypatch)
        hit = _loaded(functools.partial(load_vectors_text, keep=["kiwi"]), p)
        assert not parses and hit[0][0] == [("kiwi", 0)] and hit[1] == miss[1]

    def test_warm_hit_holds_no_unkept_token(self, tmp_path, vector_cache, monkeypatch):
        """A hit makes no lasting object for a token whose row it does not hold, and
        reads the token section a slice at a time: a 200 000-token table, whose section
        is 1.4 MB, loaded for three of them peaks below 1 MB."""
        p = tmp_path / "v.txt"
        p.write_text("200000 1\n" + "".join(f"w{i} {i}\n" for i in range(200_000)))
        keep = ["w1", "w2", "W3"]
        load_vectors_text(p, keep=keep)
        parses = _parses(monkeypatch)
        tracemalloc.start()
        try:
            table = load_vectors_text(p, keep=keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not parses and list(table.rows) == ["w1", "w2", "w3"]
        assert table.matrix.tolist() == [[1.0], [2.0], [3.0]]
        assert peak < 1_000_000, peak

    @seed(20191113)
    @given(text=_vector_files(), keep=st.none() | st.lists(_TOKEN, max_size=6),
           hit_keep=st.none() | st.lists(_TOKEN, max_size=6), read=st.integers(1, 9))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_table_loads_from_its_entry_as_it_parses(self, tmp_path, vector_cache,
                                                         monkeypatch, text, keep, hit_keep,
                                                         read):
        """Parsed and written for one `keep`, read back for another, its tokens
        decoded `read` bytes at a time, against parses with no cache."""
        p = tmp_path / "v.txt"
        p.write_bytes(text.encode("utf-8"))
        load, hit_load = (functools.partial(load_vectors_text, keep=k) for k in (keep, hit_keep))
        first = _loaded(load, p)
        with monkeypatch.context() as m:
            parses = _parses(m)
            m.setattr(embeddings, "_READ_BYTES", read)
            hit = _loaded(hit_load, p)
        assert not parses or isinstance(first[0], str)  # a table that parses is a hit
        monkeypatch.setenv("XDG_CACHE_HOME", str(p))
        assert first == _loaded(load, p) and hit == _loaded(hit_load, p)
        monkeypatch.setenv("XDG_CACHE_HOME", str(vector_cache.parent))

    def test_same_size_edit_is_parsed_again(self, tmp_path, vector_cache, monkeypatch):
        """The entry is checked by the bytes, not by the size and modification time.
        The edit turns the last 4 into a 5."""
        for kind, text, row, edited in [
                ("table", "2 2\na 1 2\nb 3 4\n",
                 lambda p: lookup(load_vectors_text(p), "b").tolist(), [3.0, 5.0]),
                ("index", "ESA1\t1\ttf\nC\tA\nT\tb\t1\t0:4\n",
                 lambda p: load_index(p).inverted["b"], {0: 5.0})]:
            p = tmp_path / kind
            p.write_text(text)
            row(p)
            entry = cache.entry(p, b"", 0).path
            before, st_before = entry.read_bytes(), p.stat()
            with open(p, "r+b") as f:
                f.seek(-2, os.SEEK_END)
                f.write(b"5")
            os.utime(p, ns=(st_before.st_atime_ns, st_before.st_mtime_ns))
            assert (p.stat().st_size, p.stat().st_mtime_ns) == (st_before.st_size,
                                                                 st_before.st_mtime_ns)
            parses = _parses(monkeypatch, kind)
            assert row(p) == edited and len(parses) == 1 and entry.read_bytes() != before
            assert row(p) == edited and len(parses) == 1
        assert len(_entries(vector_cache)) == 2

    @pytest.mark.parametrize("damage", ["truncated", "byte appended", "negative field",
                                        "field past the file", "other version", "inf in a row",
                                        "held row changed", "unheld row changed, then held",
                                        "token not UTF-8", "token renamed",
                                        "tokens not ending in a line end",
                                        "duplicate line changed", *_INDEX_DAMAGES])
    def test_damaged_entry_is_parsed_again(self, tmp_path, vector_cache, monkeypatch, damage):
        """A miss, that allocates nothing of a size that its fields claim past the file."""
        kind = "index" if damage in _INDEX_DAMAGES else "table"
        p, load, version = ((self._index(tmp_path), load_index, esa._VERSION) if kind == "index"
                            else (self._table(tmp_path), functools.partial(_loaded, load_vectors_text),
                                  embeddings._VERSION))
        want = load(p)
        [entry] = _entries(vector_cache)
        change = _INDEX_DAMAGES.get(damage)
        if callable(change):
            _damaged_index(p, change)
        data = bytearray(entry.read_bytes())
        n = 7 if kind == "index" else 5  # fields: the last two sizes are of bytes sections
        head = cache.entry(p, version, n).head_size
        fields = np.frombuffer(data, "<i8", n, head - 8 * n).copy()
        if damage.endswith("truncated"):
            del data[len(data) // 2:]
        elif damage.endswith("byte appended"):
            data += b"\0"
        elif damage.endswith("negative field"):  # bytes of one section moved into the next
            fields[-3:-1] = -4, fields[-2] + fields[-3] + 4
        elif damage.endswith("field past the file"):
            fields[-2] += 1 << 40
        elif damage == "other version":
            data[:len(version)] = b"newscoherence table 3\n"
        elif damage == "inf in a row":  # the first row's first component
            data[head:head + 8] = np.float64(np.inf).tobytes()
        elif damage == "held row changed":  # the first row's first component, 1 as 9
            assert data[head:head + 8] == np.float64(1).tobytes()
            data[head:head + 8] = np.float64(9).tobytes()
        elif damage == "unheld row changed, then held":  # kiwi's 1 as 5
            assert data[head + 4 * 16 + 8:head + 5 * 16] == np.float64(1).tobytes()
            data[head + 4 * 16 + 8:head + 5 * 16] = np.float64(5).tobytes()
        elif damage == "token not UTF-8":  # the first token's first byte
            data[head + 7 * 2 * 8] = 0xFF
        elif damage == "token renamed":  # "apple" as "bpple"
            at = head + 7 * 2 * 8
            assert data[at:at + 6] == b"apple\n"
            data[at] = ord("b")
        elif damage == "index weight changed":  # data[0], after indptr's 4 and indices' 3
            at = head + 8 * (4 + 3)
            assert data[at:at + 8] == np.float64(1.5).tobytes()
            data[at:at + 8] = np.float64(7.0).tobytes()
        elif damage == "tokens not ending in a line end":  # before 7 row CRC-32s, "6 Apple\n"
            assert data[-37:-36] == b"\n" and data[-8:] == b"6 Apple\n"
            data[-37] = ord("x")
        elif damage == "duplicate line changed":  # "6 Apple" as "9 Apple"
            data[-8] = ord("9")
        elif isinstance(change, bytes):
            data[:len(version)] = change
        if damage.endswith(("negative field", "field past the file")):
            data[head - 8 * n:head] = fields.tobytes()
        entry.write_bytes(bytes(data))
        parses = _parses(monkeypatch, kind)
        if damage == "unheld row changed, then held":  # a hit while the row is not held
            pear = load_vectors_text(p, keep=["pear"])
            assert not parses and pear.matrix.tolist() == [[5.0, 6.0]]
        tracemalloc.start()
        try:
            assert load(p) == want and len(parses) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 24, peak
        assert load(p) == want and len(parses) == 1  # written again

    def test_failed_write_leaves_no_entry(self, tmp_path, vector_cache, monkeypatch, caplog):
        def full(fd, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        p = tmp_path / "v.txt"
        p.write_text("2 2\na 1 2\nb 3 4\n")
        index = self._index(tmp_path)
        monkeypatch.setattr(cache, "write_all", full)
        with caplog.at_level(logging.DEBUG):
            assert lookup(load_vectors_text(p), "b").tolist() == [3.0, 4.0]
            assert load_index(index).inverted["x"] == {2: 1.5, 0: 0.25}
        assert not caplog.records and _entries(vector_cache) == []

    @pytest.mark.parametrize("text", ["2 2\na 1 2\nb 3 zzz\n", "3 2\na 1 2\nb 3 4\n",
                                      "ESA1\t1\ttf\nC\tA\nT\tb\t1\t0:4\nT\tc\t1\t1:4\n",
                                      "ESA1\t2\ttf\nC\tA\nT\tb\t1\t0:4\n"])
    def test_faulty_table_is_never_cached(self, tmp_path, vector_cache, text):
        p = tmp_path / "v.txt"
        p.write_text(text)
        load, error = ((load_index, EsaError) if text.startswith("ESA1")
                       else (load_vectors_text, EmbeddingError))
        for _ in range(2):
            with pytest.raises(error, match=f"^{re.escape(str(p))}"):
                load(p)
        assert _entries(vector_cache) == []

    def test_no_entry_sums_no_crc(self, tmp_path, monkeypatch):
        """Where no entry can be written, a parse sums no CRC-32 of its input."""
        crc32, calls = zlib.crc32, []
        monkeypatch.setattr(zlib, "crc32", lambda *args: calls.append(None) or crc32(*args))
        table, index = self._table(tmp_path), self._index(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", str(table))  # under a regular file: no cache
        assert len(load_vectors_text(table)) == 6 and len(load_index(index).tokens) == 3
        assert calls == []

    def test_pipe_is_never_cached(self, tmp_path, vector_cache):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        for text, rows in [(b"2 2\na 1 2\nb 3 4\n", lambda p: len(load_vectors_text(p))),
                           (b"ESA1\t1\ttf\nC\tA\nT\tb\t1\t0:4\nT\tc\t1\t\n",
                            lambda p: len(load_index(p).tokens))]:
            writer = threading.Thread(target=fifo.write_bytes, args=(text,))
            writer.start()
            try:
                assert rows(fifo) == 2
            finally:
                writer.join()
        assert not vector_cache.exists()

    def test_entry_is_on_disk_before_it_is_published(self, tmp_path, vector_cache, monkeypatch):
        """The temporary file is flushed by fsync, then renamed into place: a crash
        leaves no entry whose rows were never written."""
        calls = []  # (call, inode of the file it acts on)
        fsync, replace = os.fsync, os.replace

        def synced(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def renamed(src, dst):
            calls.append(("replace", os.stat(src).st_ino))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", synced)
        monkeypatch.setattr(os, "replace", renamed)
        load_vectors_text(self._table(tmp_path))
        load_index(self._index(tmp_path))
        inodes = [entry.stat().st_ino for entry in _entries(vector_cache)]
        assert len(calls) == 4 and sorted(ino for _, ino in calls) == sorted(inodes * 2)
        assert [name for name, _ in calls] == ["fsync", "replace"] * 2
        assert calls[0][1] == calls[1][1] and calls[2][1] == calls[3][1]

    def test_publish_sweeps_what_is_stale(self, tmp_path, vector_cache):
        """A publish removes the entries of files that are gone, and the temporary
        files of processes that have ended; a hit removes nothing."""
        gone, live = tmp_path / "gone.txt", self._table(tmp_path)
        gone.write_text("1 1\na 1\n")
        load_vectors_text(gone)
        load_vectors_text(live)
        gone_entry, live_entry = (cache.entry(p, b"", 0).path for p in (gone, live))
        ended = subprocess.Popen(["true"])
        ended.wait()
        unsourced = vector_cache / "0123456789abcdef"  # recorded no path
        unsourced.write_bytes(b"newscoherence 1\n" + bytes(48))
        # A table entry in the first layout, which recorded no path: its version line,
        # the int64s size (40), CRC-32, rows, dim, token bytes and duplicates, then the
        # rows and tokens. Read as a path's length and bytes, its head names no file.
        pathless = vector_cache / "0123456789abcdee"
        pathless.write_bytes(b"newscoherence 1\n"
                             + np.array([40, zlib.crc32(b"table"), 2, 2, 6, 0], "<i8").tobytes()
                             + np.arange(4.0).tobytes() + b"ab\ncd\n")
        stale = [gone_entry, unsourced, pathless,
                 vector_cache / f"{gone_entry.name}.{ended.pid}-1"]
        other = [vector_cache / f"{gone_entry.name}.{os.getpid()}-1",
                 vector_cache / "fedcba9876543210", vector_cache / "notes"]
        for path in stale[3:] + other:
            path.write_bytes(b"of another program")
        gone.unlink()
        load_vectors_text(live)  # a hit
        assert all(path.exists() for path in stale + other)
        load_index(self._index(tmp_path))  # a miss
        assert not any(path.exists() for path in stale)
        assert len(_entries(vector_cache)) == 5 and live_entry.exists()
        assert all(path.exists() for path in other)


class TestLookup:
    def test_exact(self, toy_table):
        assert np.allclose(lookup(toy_table, "a"), [1, 0])

    def test_absent(self, toy_table):
        assert lookup(toy_table, "zzz") is None

    def test_case_fallback(self):
        table = make_table({"UK": [3.0, 4.0]})
        assert np.allclose(lookup(table, "uk"), [3, 4])

    def test_exact_match_wins_over_fallback(self):
        table = make_table({"UK": [1.0, 0.0], "uk": [0.0, 1.0]})
        assert np.allclose(lookup(table, "uk"), [0, 1])
        assert np.allclose(lookup(table, "UK"), [1, 0])

    def test_first_casing_wins_fallback(self):
        table = make_table({"Apple": [1.0, 0.0], "apple": [0.0, 1.0], "APPLE": [1.0, 1.0],
                            "kiwi": [2.0, 0.0], "KIWI": [0.0, 2.0]})
        assert lookup(table, "aPPle").tolist() == [1.0, 0.0]  # "Apple" came first
        assert lookup(table, "Kiwi").tolist() == [2.0, 0.0]  # "kiwi" came first
        assert lookup(table, "apple").tolist() == [0.0, 1.0]  # an exact match
        assert lookup(table, "pear") is None

    def test_first_casing_under_duplicates(self, tmp_path, vector_cache, monkeypatch):
        """A cased token between two copies of its lower case: the lower case comes
        first, so it is its own fallback, and the later copy's row wins."""
        p = tmp_path / "v.txt"
        p.write_text("3 2\napple 1 0\nApple 0 1\napple 2 2\n")
        want = load_vectors_text_ref(p)
        parses = _parses(monkeypatch)  # the first load parses; each later one hits
        for keep in (None, ["aPPle"]):
            for table in (load_vectors_text(p, keep=keep) for _ in range(2)):
                for token, row in [("apple", [2, 2]), ("Apple", [0, 1]), ("APPLE", [2, 2]),
                                   ("aPPle", [2, 2])]:
                    assert lookup(table, token).tolist() == lookup(want, token).tolist() == row
        assert len(parses) == 1


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
    @example([1.0, 0.0], [3.122936908090662e-157, 0.0, 1.0])  # squares below 2**-1022
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
