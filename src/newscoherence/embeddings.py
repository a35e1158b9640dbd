"""Dense vector tables in the word2vec text interchange format, plus cosine similarity."""

from __future__ import annotations

import codecs
import functools
import io
import logging
import mmap
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import cache

logger = logging.getLogger(__name__)

# Rows per np.loadtxt call: few enough that a block's matrix is small next to the table.
_BLOCK_ROWS = 64
# Bytes per read of a text file.
_READ_BYTES = 1 << 14
# A table's cache entry (see `cache`): its fields are the int64s count, dim, token
# bytes and duplicate bytes. Every row, float64 in file order, comes before the
# sections, outside the entry's CRC-32, so that a hit reads only the rows it holds.
# The sections are each token and a "\n"; each row's CRC-32 (uint32); and for each
# duplicate token, its line, a space, the token and a "\n".
_VERSION = b"newscoherence table 4\n"

__all__ = [
    "EmbeddingTable",
    "EmbeddingError",
    "load_vectors_text",
    "text_lines",
    "cosine",
]


class EmbeddingError(Exception):
    """Raised for malformed vector files or invalid vector arithmetic."""


def _case_fallback(rows: dict[str, int]) -> dict[str, str]:
    """Lower case -> the first token with that lower case, where the two differ.

    Pre-trained tables mix casing conventions. A lower case missing here is
    itself the first token with that lower case, or no token has it.
    """
    if all(token == token.lower() for token in rows):  # no dict over a lower-case table
        return {}
    first: dict[str, str] = {}
    for token in rows:
        first.setdefault(token.lower(), token)
    return {low: token for low, token in first.items() if low != token}


class EmbeddingTable:
    """Immutable token -> float64 vector map (words or entity ids): the rows of
    one V x dim `matrix` and a token -> row map, `rows`."""

    def __init__(self, dim: int, entries: dict[str, np.ndarray]):
        if dim <= 0:
            raise EmbeddingError("dimension must be positive")
        for token, vec in entries.items():
            if vec.shape != (dim,):
                raise EmbeddingError(
                    f"vector for {token!r} has length {vec.shape[0]}, table dim is {dim}"
                )
        self.dim = dim
        # An empty table's matrix is 0 x 0: numpy has no 0 x dim shape for a huge dim.
        self.matrix = (np.array(list(entries.values()), dtype=np.float64) if entries
                       else np.empty((0, 0)))
        self.rows = dict(zip(entries, range(len(entries))))
        self._lower = _case_fallback(self.rows)

    @classmethod
    def from_matrix(cls, dim: int, matrix: np.ndarray, rows: dict[str, int]) -> EmbeddingTable:
        """A table over the rows of `matrix`, which it keeps without copying."""
        table = cls(dim, {})
        table.matrix, table.rows, table._lower = matrix, rows, _case_fallback(rows)
        return table

    @functools.cached_property
    def entries(self) -> dict[str, np.ndarray]:
        """Token -> vector, as row views of `matrix`."""
        return {token: self.matrix[row] for token, row in self.rows.items()}

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, token: str) -> bool:
        return self.row(token) is not None

    def row(self, token: str) -> int | None:
        """Row of `token` in `matrix`: exact match first, then the table's
        original-cased variant."""
        row = self.rows.get(token)
        if row is None:
            low = token.lower()
            row = self.rows.get(self._lower.get(low, low))
        return row


def text_lines(f, p: Path, error: type[Exception] = EmbeddingError,
               summed: cache.Writer | None = None) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of a binary file, split at "\\n", "\\r\\n" or
    "\\r" as text mode splits it; decoded a read at a time, up to its last line end.
    A UTF-8 byte-order mark at the file's start is skipped. A line that is not UTF-8
    raises `error` naming it, once the lines above it are given. Every byte read
    passes through `summed`."""
    chunks = iter(functools.partial(f.read, _READ_BYTES), b"")
    lineno, pending = 0, []  # the bytes read since the last line end
    for data in chain(summed.read(chunks) if summed else chunks, [None]):
        if data is None:  # the end of the file
            data, pending = b"".join(pending), []
        else:
            # Not at a last "\r", which may start a "\r\n".
            end = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
            if not end:
                pending.append(data)
                continue
            pending.append(data[:end])
            data, pending = b"".join(pending), [data[end:]]
        if not lineno:  # the file's start: no line is given before its first line end
            data = data.removeprefix(codecs.BOM_UTF8)
        if not data:
            continue
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            # Decoded one at a time, each with its "\n", to name the bad one.
            for chunk in io.BytesIO(data):
                for raw in chunk.splitlines() if b"\r" in chunk else (chunk,):
                    try:
                        line = raw.decode("utf-8").rstrip("\n")
                    except UnicodeDecodeError as e:
                        raise error(f"{p} line {lineno + 1}: invalid UTF-8: {e}") from None
                    lineno += 1
                    yield lineno, line
            raise
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = text.split("\n")
        if text.endswith("\n"):
            lines.pop()
        yield from enumerate(lines, lineno + 1)
        lineno += len(lines)


def _header(p: Path, line: str) -> tuple[int, int]:
    header = line.split()
    if len(header) != 2:
        raise EmbeddingError(f"{p}: header must be 'count dim'")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError as e:
        raise EmbeddingError(f"{p}: non-numeric header: {e}") from e
    if dim <= 0:
        raise EmbeddingError(f"{p}: dimension must be positive")
    return count, dim


def _parse(rests: list[str], dim: int) -> np.ndarray:
    """One float64 row per components text (one at least), checked for length and
    finiteness."""
    matrix = np.loadtxt(rests, dtype=np.float64, ndmin=2, comments=None)
    if matrix.shape[1] != dim:
        raise EmbeddingError(f"expected {dim} components, got {matrix.shape[1]}")
    if not np.isfinite(matrix).all():
        raise EmbeddingError("non-finite component")
    return matrix


class _BadRow(Exception):
    """A malformed row: its position in its block and what is wrong."""


def _parse_block(rests: list[str], dim: int) -> np.ndarray:
    """The rows of `rests`, components texts, in one parse. If it fails, each row is
    parsed alone, and the first malformed one raises _BadRow."""
    if all(map(str.strip, rests)):  # else loadtxt would skip a row
        try:
            return _parse(rests, dim)
        except (ValueError, EmbeddingError):
            pass
    for j, rest in enumerate(rests):
        found = len(rest.split())  # str.split and loadtxt split at the same whitespace
        if found != dim:
            raise _BadRow(j, f"expected {dim} components, got {found}")
        try:
            _parse([rest], dim)
        except ValueError as e:
            raise _BadRow(j, f"non-numeric component: {e}") from e
        except EmbeddingError as e:
            raise _BadRow(j, str(e)) from e
    raise RuntimeError("a block of vector rows failed to parse, but none of its rows does")


def _row_buffer(rows: int, dim: int) -> np.ndarray:
    """An uninitialised rows x dim float64 array whose pages are resident only once
    written. An anonymous map, not np.empty: numpy asks the kernel for 2 MB pages
    for a large array, and each one a written row touches would be resident whole."""
    if not rows:
        return np.empty((0, 0))
    return np.ndarray((rows, dim), buffer=mmap.mmap(-1, rows * dim * 8, access=mmap.ACCESS_COPY))


def _held(tokens: list[str], wanted: set[str] | None) -> list[int] | range:
    """Positions in `tokens` of the rows a table holds: those whose token has the
    lower case of a `wanted` token, every one where `wanted` is None."""
    if wanted is None:
        return range(len(tokens))
    return [j for j, low in enumerate(map(str.lower, tokens)) if low in wanted]


def _warn_duplicate(p: Path, lineno: int, token: str) -> None:
    logger.warning("%s line %d: duplicate token %r overwritten", p, lineno, token)


def _blocks(lines: Iterator[tuple[int, str]]) -> Iterator[tuple[list[int], list[str], list[str]]]:
    """The rows of `lines`, its lines that are not blank, _BLOCK_ROWS at a time: their
    line numbers, tokens (up to the first space) and components texts. Where a line
    is not UTF-8, the rows above it come before its error."""
    linenos, tokens, rests = block = [], [], []
    try:
        for lineno, line in lines:
            if line.strip():
                token, _, rest = line.partition(" ")
                linenos.append(lineno)
                tokens.append(token)
                rests.append(rest)
                if len(rests) == _BLOCK_ROWS:
                    yield block
                    linenos, tokens, rests = block = [], [], []
    except EmbeddingError:
        if rests:
            yield block
        raise
    if rests:
        yield block


def _load_entry(p: Path, wanted: set[str] | None, e: BinaryIO, fields: list[int]):
    """The table of file `p` that entry file `e` holds, `e` read up to the end of its
    head, whose fields are `fields`: (dim, buffer, held tokens), with the rows a parse
    would hold, once it has warned of duplicates as the parse did. None where its
    CRC-32s show it damaged. Only the held rows are read, and only the tokens and
    CRC-32s of held rows are kept."""
    count, dim, nbytes, dup_bytes, _ = fields
    rows_at = e.tell()
    runs: list[int] = []  # the first and end row of each run of consecutive held rows
    bounds = None  # `runs` as an array, once every token is read
    tokens, crcs = [], []  # of the held rows
    rest, at, k = b"", 0, 0  # the bytes after the last "\n" read; tokens and CRC-32s read

    def take_tokens(data: bytes) -> None:  # decoded up to its last "\n"; an error is a miss
        nonlocal rest, at
        end = data.rfind(b"\n") + 1
        if not end:
            rest += data
            return
        # Each token ends in a "\n", and holds no "\r" as written.
        part = (rest + data[:end - 1]).decode("utf-8").split("\n")
        rest = data[end:]
        taken = _held(part, wanted)
        for row in (at + j for j in taken):
            if runs and runs[-1] == row:  # the last run's end
                runs[-1] += 1
            else:
                runs.extend((row, row + 1))
        tokens.extend(part[j] for j in taken)
        at += len(part)

    def take_crcs(data: np.ndarray) -> None:
        nonlocal bounds, k
        if not k:  # every token is read: the runs are known
            bounds = np.array(runs)
        held = np.searchsorted(bounds, np.arange(k, k + len(data)), "right") % 2 == 1
        crcs.append(data[held])  # of the rows inside a run
        k += len(data)

    found = cache.unseal(e, fields, [(bytes, nbytes, take_tokens), ("<u4", count, take_crcs),
                                     (bytes, dup_bytes)], _READ_BYTES, rows=8 * count * dim)
    if found is None:
        return None
    # A row at least where the table has one, so that a table holding none is 0 x dim
    # as parsed.
    buf = _row_buffer(max(len(tokens), min(count, 1)), dim)
    if not cache.read_rows(e, rows_at, runs, buf, np.concatenate([np.empty(0, "<u4"), *crcs])):
        return None
    *duplicates, _ = found[2].decode("utf-8").split("\n")
    for duplicate in duplicates:
        lineno, _, token = duplicate.partition(" ")
        _warn_duplicate(p, int(lineno), token)
    return dim, buf, tokens


def _table(dim: int, buf: np.ndarray, tokens: list[str],
           wanted: set[str] | None) -> EmbeddingTable:
    """The table of the held rows, whose `tokens` are those of the first rows of
    `buf`; a later duplicate wins."""
    # Held for `keep`, a row is keyed by the corpus's own string. A table loaded whole
    # interns nothing: it may be far larger than a corpus vocabulary, and CPython 3.12
    # never frees an interned string.
    row_of = {token if wanted is None else sys.intern(token): j
              for j, token in enumerate(tokens)}
    return EmbeddingTable.from_matrix(dim, buf[:len(tokens)], row_of)


def _parse_table(p: Path, wanted: set[str] | None, f: BinaryIO, writer: cache.Writer):
    """(dim, buffer, held tokens) of table file `p`, parsed from its open file
    `f`, and the head fields of the entry written through `writer` (None for none).

    Each block of rows is checked, warns of its duplicates, writes the rows it holds
    to the buffer, which grows as needed, and goes to `writer`. A malformed row, or a
    line that is not UTF-8, raises once the rows above it have warned.
    """
    lines = text_lines(f, p, EmbeddingError, writer)
    count, dim = _header(p, next(lines, (1, ""))[1])
    limit = max(count, 0)  # rows held
    # A row takes at least 2·dim bytes, so a regular file's size bounds what its
    # header can reserve. A file whose size does not show its rows (a pipe, or a
    # file still being written) grows the buffer as its rows arrive.
    buf = _row_buffer(min(limit, os.fstat(f.fileno()).st_size // (2 * dim)), dim)
    tokens, held = [], []  # the tokens of every row, and of the rows in `buf`
    seen: set[str] = set()
    duplicates, crcs = [], bytearray()  # each duplicate's line and token; each row's CRC-32
    for linenos, names, rests in _blocks(lines):
        try:
            matrix, bad = _parse_block(rests, dim), len(rests)
        except _BadRow as e:
            matrix, (bad, what) = None, e.args
        at = len(tokens)
        for lineno, token in zip(linenos[:bad], names):
            if token in seen:
                duplicates.append(f"{lineno} {token}")
                _warn_duplicate(p, lineno, token)
            seen.add(token)
            tokens.append(token)
        if matrix is None:
            raise EmbeddingError(f"{p} line {linenos[bad]}: {what}")
        if writer.ok:
            writer.write(matrix)
            crcs += cache.row_checksums(matrix).tobytes()
        if taken := _held(tokens[at:limit], wanted):
            k = len(held)
            if k + len(taken) > len(buf):
                grown = _row_buffer(min(limit, max(2 * len(buf), k + len(taken))), dim)
                if k:  # else `buf` may be 0 x 0
                    grown[:k] = buf[:k]
                buf = grown
            buf[k:k + len(taken)] = matrix if len(taken) == len(rests) else matrix[taken]
            held += [names[j] for j in taken]
    if len(tokens) != count:
        raise EmbeddingError(f"{p}: header declares {count} vectors, file has {len(tokens)}")
    fields = None
    if writer.ok:  # after the rows
        section, dups = cache.lines(tokens), cache.lines(duplicates)
        fields = writer.seal([len(tokens), dim, len(section), len(dups)],
                             [section, crcs, dups])
    return (dim, buf, held), fields


def load_vectors_text(path: str | Path, *, keep: Iterable[str] | None = None) -> EmbeddingTable:
    """Parse the word2vec text format: header `count dim`, then `token v1 .. v_dim` lines.

    The token runs up to the first space; the components are separated by any
    whitespace. The file must be UTF-8. Later duplicates of a token overwrite
    earlier ones with a warning. The table keeps the matrix the rows are parsed into.

    With `keep`, every row is still parsed and checked, but the table holds only
    the rows whose token has the lower case of a `keep` token: every casing of
    it, in file order. So `row` finds for each `keep` token what it finds in
    the full table. The lower cases of `keep` and the held tokens are interned,
    so a held token is the very string that `corpus.tokenize` gives for it.

    The file is read through the parse cache (`cache.load`): a later load of the
    same regular file whose bytes have the same size and CRC-32 reads the rows it
    holds from its entry, and warns the same.
    """
    p = Path(path)
    wanted = None if keep is None else {sys.intern(t.lower()) for t in keep}
    return _table(*cache.load(p, _VERSION, 5, functools.partial(_load_entry, p, wanted),
                              functools.partial(_parse_table, p, wanted)), wanted)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """dot(u,v) / (|u| |v|), accumulated in float64. Zero-norm inputs are an error."""
    if u.shape != v.shape:
        raise EmbeddingError("mixed dimensions in cosine")
    # Each scaled by a power of two, which is exact, to a largest component in
    # [0.5, 1): no square is subnormal, so the norm of a tiny vector keeps its bits.
    u, v = (np.ldexp(x, -np.frexp(np.abs(x).max(initial=0.0))[1])
            for x in (np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)))
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise EmbeddingError("cosine of a zero vector is undefined")
    return float(np.dot(u, v)) / (nu * nv)
