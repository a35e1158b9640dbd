from __future__ import annotations

import errno
import functools
import io
import logging
import math
import os
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from newscoherence import embeddings
from newscoherence.corpus import tokenize
from newscoherence.embeddings import (
    EmbeddingError,
    cosine,
    load_vectors_text,
    text_lines,
)

from conftest import make_table, on_cpus, save_vectors_text
from oracle import load_vectors_text_ref, lookup, mean_vector, text_lines_ref


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


def _loaded_on(monkeypatch, cpus: int, path, keep=None):
    """`_loaded` with this process allowed `cpus` CPUs."""
    on_cpus(monkeypatch, cpus)
    return _loaded(functools.partial(load_vectors_text, keep=keep), path)


class TestShards:
    """Processes on any number of CPUs parse a table to the same rows, warnings
    and errors."""

    @seed(20191111)
    @given(text=_vector_files(), keep=st.none() | st.lists(_TOKEN, max_size=6),
           bad=st.none() | st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_cpus_give_the_same_outcome(self, tmp_path, forks, monkeypatch, text, keep, bad):
        data = text.encode("utf-8")
        if bad is not None:  # a byte that is not UTF-8, anywhere
            bad %= len(data) + 1
            data = data[:bad] + b"\xff" + data[bad:]
        p = tmp_path / "v.txt"
        p.write_bytes(data)
        one, two, three = (_loaded_on(monkeypatch, n, p, keep) for n in (1, 2, 3))
        assert two == one and three == one

    # Eight rows, then a bad row, a bad byte or a wrong count for the parse to find.
    _ROWS = "".join(f"w{i % 5} {i} 1\n" for i in range(8)).encode()
    CASES = {
        "success": b"8 2\n" + _ROWS,
        "bad row in a child's shard": b"9 2\n" + _ROWS + b"x 1 zzz\n",
        "bad row in the parent's shard": b"9 2\nx 1 zzz\n" + _ROWS,
        "not UTF-8": b"9 2\n" + _ROWS[:-20] + b"\xff" + _ROWS[-20:],
        "header count": b"9 2\n" + _ROWS,
    }

    @pytest.mark.parametrize("case", CASES)
    def test_no_child_outlives_a_load(self, tmp_path, forks, monkeypatch, case):
        p = tmp_path / "v.txt"
        p.write_bytes(self.CASES[case])
        one = _loaded_on(monkeypatch, 1, p)
        three = _loaded_on(monkeypatch, 3, p)
        assert three == one and len(forks) == 2
        assert isinstance(one[0], str) == (case != "success")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fails", [{1, 2}, {2}])
    def test_a_failed_fork_parses_its_shard_here(self, tmp_path, forks, monkeypatch, fails):
        p = tmp_path / "v.txt"
        p.write_bytes(self.CASES["success"])
        calls = []
        fork = os.fork

        def failing():
            calls.append(None)
            if len(calls) in fails:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", failing)
        three = _loaded_on(monkeypatch, 3, p)
        assert three == _loaded_on(monkeypatch, 1, p) and len(calls) == 2
        assert len(forks) == 2 - len(fails)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_process_beside_another_thread(self, tmp_path, forks):
        p = tmp_path / "v.txt"
        p.write_bytes(self.CASES["success"])
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, daemon=True)
        other.start()
        try:
            table = load_vectors_text(p)
        finally:
            stop.set()
            other.join(10)
        assert not forks and not other.is_alive() and len(table) == 5

    def test_one_process_for_a_small_table(self, tmp_path, monkeypatch):
        on_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a small table"))
        p = tmp_path / "v.txt"
        p.write_bytes(self.CASES["success"])
        assert len(load_vectors_text(p)) == 5

    def test_one_process_on_one_cpu(self, tmp_path, forks, monkeypatch):
        on_cpus(monkeypatch, 1)
        p = tmp_path / "v.txt"
        p.write_bytes(self.CASES["success"])
        assert len(load_vectors_text(p)) == 5 and not forks


class TestTextLines:
    """The block reader splits and decodes as the line-by-line reader did, for any
    read size: line ends and multi-byte characters split across reads."""

    @seed(20191112)
    @given(pieces=st.lists(st.sampled_from([b"a", b" 1", b"\n", b"\r", b"\r\n", b"\xff",
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
