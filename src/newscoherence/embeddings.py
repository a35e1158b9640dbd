"""Dense vector tables in the word2vec text interchange format, plus cosine similarity."""

from __future__ import annotations

import bisect
import functools
import io
import logging
import mmap
import os
import stat
import sys
from array import array
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path
from typing import BinaryIO, NamedTuple

import numpy as np

from . import cache

logger = logging.getLogger(__name__)

# Rows per np.loadtxt call: few enough that a block's matrix is small next to the table.
_BLOCK_ROWS = 64
# Bytes per read of a text file.
_READ_BYTES = 1 << 14
# A table's cache entry (see `cache.Entry`): its head, whose fields are the int64s
# count, dim, token bytes and duplicates; every row, float64 in file order; each
# token and a "\n"; and a (line, row) int64 pair per duplicate token.
_VERSION = b"newscoherence table 2\n"

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
    first: dict[str, str] = {}
    for token in rows:
        first.setdefault(token.lower(), token)
    return {low: token for low, token in first.items() if low != token}


class EmbeddingTable:
    """Immutable token -> float64 vector map (words or entity ids): the rows of
    one V x dim `matrix` and a token -> row map, `rows`."""

    def __init__(self, dim: int, entries: dict[str, np.ndarray], name: str = ""):
        if dim <= 0:
            raise EmbeddingError("dimension must be positive")
        for token, vec in entries.items():
            if vec.shape != (dim,):
                raise EmbeddingError(
                    f"vector for {token!r} has length {vec.shape[0]}, table dim is {dim}"
                )
        self.dim = dim
        self.name = name
        # An empty table's matrix is 0 x 0: numpy has no 0 x dim shape for a huge dim.
        self.matrix = (np.array(list(entries.values()), dtype=np.float64) if entries
                       else np.empty((0, 0)))
        self.rows = dict(zip(entries, range(len(entries))))
        self._lower = _case_fallback(self.rows)

    @classmethod
    def from_matrix(cls, dim: int, matrix: np.ndarray, rows: dict[str, int],
                    name: str = "") -> EmbeddingTable:
        """A table over the rows of `matrix`, which it keeps without copying."""
        table = cls(dim, {}, name)
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


def _line_blocks(chunks: Iterable[bytes], faults: list[tuple[int, str]]) -> Iterator[list[str]]:
    """The lines of a file read as `chunks` of bytes, split at "\\n", "\\r\\n" or
    "\\r" as text mode splits them: a list at a time, each up to the last line end
    read. At the first line that is not UTF-8 they stop, and (its number, what is
    wrong) is appended to `faults`."""
    lineno, pending = 0, []  # the bytes read since the last line end
    for data in chain(chunks, [None]):
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
        if not data:
            continue
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            good = []  # decoded one at a time, each with its "\n", to name the bad one
            for chunk in io.BytesIO(data):
                for raw in chunk.splitlines() if b"\r" in chunk else (chunk,):
                    try:
                        good.append(raw.decode("utf-8").rstrip("\n"))
                    except UnicodeDecodeError as e:
                        if good:
                            yield good
                        faults.append((lineno + len(good) + 1, f"invalid UTF-8: {e}"))
                        return
            raise
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = text.split("\n")
        if text.endswith("\n"):
            lines.pop()
        lineno += len(lines)
        yield lines


def _read_chunks(f) -> Iterator[bytes]:
    return iter(functools.partial(f.read, _READ_BYTES), b"")


def text_lines(f, p: Path, error: type[Exception] = EmbeddingError,
               summed: cache.Checksum | None = None):
    """(line number, text) of each line of a binary file, split at "\\n", "\\r\\n" or
    "\\r" as text mode splits it. A line that is not UTF-8 raises `error` naming it.
    Every byte read passes through `summed`."""
    faults: list[tuple[int, str]] = []
    lineno = 0
    chunks = _read_chunks(f)
    for lines in _line_blocks(summed.read(chunks) if summed else chunks, faults):
        for line in lines:
            lineno += 1
            yield lineno, line
    if faults:
        raise error(f"{p} line {faults[0][0]}: {faults[0][1]}")


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
    """A malformed row: its line and what is wrong."""


def _parse_block(rests: list[str], linenos, dim: int) -> np.ndarray:
    """The rows of `rests`, the components texts of lines `linenos`, in one parse.
    If it fails, each row is parsed alone, and the first malformed one raises _BadRow."""
    if all(map(str.strip, rests)):  # else loadtxt would skip a row
        try:
            return _parse(rests, dim)
        except (ValueError, EmbeddingError):
            pass
    for lineno, rest in zip(linenos, rests):
        found = len(rest.split())  # str.split and loadtxt split at the same whitespace
        if found != dim:
            raise _BadRow(lineno, f"expected {dim} components, got {found}")
        try:
            _parse([rest], dim)
        except ValueError as e:
            raise _BadRow(lineno, f"non-numeric component: {e}") from e
        except EmbeddingError as e:
            raise _BadRow(lineno, str(e)) from e
    raise RuntimeError("a block of vector rows failed to parse, but none of its rows does")


def _row_buffer(rows: int, dim: int) -> np.ndarray:
    """An uninitialised rows x dim float64 array whose pages are resident only once
    written. An anonymous map, not np.empty: numpy asks the kernel for 2 MB pages
    for a large array, and each one a written row touches would be resident whole."""
    if not rows:
        return np.empty((0, 0))
    return np.ndarray((rows, dim), buffer=mmap.mmap(-1, rows * dim * 8, access=mmap.ACCESS_COPY))


class _Tee(cache.Checksum):
    """A new cache entry: the size and CRC-32 of the bytes the parse reads, and each
    row it parses, written to file `fd`. A failed write clears `ok`, and no entry is
    made."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd, self.ok = fd, True

    def write(self, rows: np.ndarray) -> None:
        if self.ok:
            try:
                cache.write_all(self.fd, rows)
            except OSError:  # no space left, say
                self.ok = False


class _Parsed(NamedTuple):
    """What parsing the rows of a table found."""

    tokens: list[str]              # the token of each row above the first malformed line
    linenos: array                 # the line of each of those rows
    held: array                    # positions in `tokens` of the rows written to the buffer
    fault: tuple[int, str] | None  # (line, what is wrong) of the first malformed line


def _taken(tokens: Iterable[str], wanted: set[str] | None) -> list[int]:
    """Positions of the `tokens` whose rows a table holds: those with the lower case
    of a `wanted` token, every one where `wanted` is None."""
    return [j for j, token in enumerate(tokens) if wanted is None or token.lower() in wanted]


def _parse_rows(blocks: Iterable[list[str]], faults: list[tuple[int, str]], dim: int,
                count: int, wanted: set[str] | None, buf: np.ndarray,
                lineno: int = 0, tee: _Tee | None = None) -> tuple[_Parsed, np.ndarray]:
    """Parse and check the rows of `blocks`, lists of lines the first of which is
    line `lineno` + 1, up to the first malformed line, _BLOCK_ROWS rows per parse.
    `faults` holds the first line that `blocks` could not read, once they end.

    Of its first `count` rows, those `_taken` for `wanted` are written to `buf`,
    which grows as needed; every parsed row goes to `tee`. Returns what was found,
    and the buffer.
    """
    tokens: list[str] = []
    linenos, held = array("q"), array("q")
    rests: list[str] = []  # the components texts of the last rows read, not yet parsed

    def parse(n: int) -> None:  # the first n of `rests`
        nonlocal buf, rests
        first = len(tokens) - len(rests)
        for at in range(first, first + n, _BLOCK_ROWS):  # `at`: a block's first row
            size = min(_BLOCK_ROWS, first + n - at)
            matrix = _parse_block(rests[at - first:at - first + size], linenos[at:at + size], dim)
            if tee:
                tee.write(matrix)
            taken = _taken(tokens[at:min(at + size, count)], wanted)
            if taken:
                k = len(held)
                if k + len(taken) > len(buf):
                    grown = _row_buffer(min(count, max(2 * len(buf), k + len(taken))), dim)
                    if k:  # else `buf` may be 0 x 0
                        grown[:k] = buf[:k]
                    buf = grown
                buf[k:k + len(taken)] = matrix if len(taken) == size else matrix[taken]
                held.extend(at + j for j in taken)
        rests = rests[n:]

    try:
        for lines in blocks:
            for line in lines:
                lineno += 1
                if line.strip():
                    token, _, rest = line.partition(" ")
                    tokens.append(token)
                    linenos.append(lineno)
                    rests.append(rest)
            if len(rests) >= _BLOCK_ROWS:
                parse(len(rests) - len(rests) % _BLOCK_ROWS)
        parse(len(rests))
        fault = faults[0] if faults else None
    except _BadRow as e:
        fault = e.args
    if fault:  # keep only the rows above it
        del tokens[bisect.bisect_left(linenos, fault[0]):]
        del linenos[len(tokens):]
    return _Parsed(tokens, linenos, held, fault), buf


def _load_entry(entry: cache.Entry, f: BinaryIO, size: int, wanted: set[str] | None):
    """Table file `f`, of `size` bytes, as its cache `entry` holds it, with the rows a
    parse would hold: (dim, buffer, held rows, tokens, duplicates). None where the
    entry is missing, of another kind or version, for other bytes or damaged, or a
    held row is not finite. Only the held rows are read."""
    try:
        with open(entry.path, "rb", buffering=0) as e:
            fields = entry.fields(e, f, size)
            if fields is None:
                return None
            count, dim, nbytes, ndup = fields
            tokens_at = entry.head_size + count * dim * 8
            if (min(count, nbytes, ndup) < 0 or dim <= 0
                    or os.fstat(e.fileno()).st_size != tokens_at + nbytes + 16 * ndup):
                return None
            e.seek(tokens_at)
            tokens = e.read(nbytes).decode("utf-8").split("\n")
            duplicates = np.frombuffer(e.read(16 * ndup), "<i8").reshape(-1, 2).tolist()
            if tokens.pop() or len(tokens) != count or any(
                    not 0 <= row < count for _, row in duplicates):
                return None
            held = _taken(tokens, wanted)
            buf = _row_buffer(min(count, size // (2 * dim)), dim)
            starts = [j for j in range(len(held)) if not j or held[j] != held[j - 1] + 1]
            for j, k in zip(starts, starts[1:] + [len(held)]):  # a run of consecutive rows
                e.seek(entry.head_size + held[j] * dim * 8)
                if not cache.read_into(e, buf[j:k]):
                    return None
            # Finite iff the least and greatest are: no rows x dim mask is made.
            if held and not np.isfinite([buf[:len(held)].min(), buf[:len(held)].max()]).all():
                return None
            return dim, buf, held, tokens, duplicates
    except (OSError, ValueError):  # UnicodeDecodeError too
        return None


def _open_entry(entry: cache.Entry) -> _Tee | None:
    """A _Tee that writes to the temporary file of a new cache `entry`, after its
    head. None if the file cannot be made."""
    try:
        fd = os.open(entry.temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    except OSError:
        return None
    tee = _Tee(fd)
    try:
        os.lseek(fd, entry.head_size, os.SEEK_SET)
    except OSError:
        _close_entry(entry, tee)
        return None
    return tee


def _close_entry(entry: cache.Entry, tee: _Tee) -> None:
    """Close the file of `tee`, and remove the entry's temporary file if it was not
    published."""
    os.close(tee.fd)
    entry.temp.unlink(missing_ok=True)


def _save_entry(entry: cache.Entry, tee: _Tee, size: int, dim: int,
                tokens: list[str], duplicates: list[tuple[int, int]]) -> None:
    """Publish the cache `entry` of a table of `size` bytes whose rows the parse wrote
    through `tee`: after the rows come the tokens and the duplicates, then the head.
    Nothing is published if a write failed or the parse did not read the file."""
    if not tee.ok or tee.size != size:
        return
    try:
        names = cache.lines(tokens)
        cache.write_all(tee.fd, names)
        cache.write_all(tee.fd, np.array(duplicates, dtype="<i8"))
        os.lseek(tee.fd, 0, os.SEEK_SET)
        cache.write_all(tee.fd, entry.head(size, tee.crc, [len(tokens), dim, len(names),
                                                           len(duplicates)]))
        entry.publish(tee.fd)
    except OSError:  # no space left, say: the run goes on without an entry
        pass


def _warn_duplicates(p: Path, duplicates: list[tuple[int, int]], tokens: list[str]) -> None:
    for lineno, row in duplicates:
        logger.warning("%s line %d: duplicate token %r overwritten", p, lineno, tokens[row])


def _table(dim: int, buf: np.ndarray, held, tokens: list[str], wanted: set[str] | None,
           name: str) -> EmbeddingTable:
    """The table of the `held` rows of `tokens`, which are the first rows of `buf`;
    a later duplicate wins."""
    # Held for `keep`, a row is keyed by the corpus's own string. A table loaded whole
    # interns nothing: it may be far larger than a corpus vocabulary, and CPython 3.12
    # never frees an interned string.
    row_of = {tokens[i] if wanted is None else sys.intern(tokens[i]): j
              for j, i in enumerate(held)}
    return EmbeddingTable.from_matrix(dim, buf[:len(held)], row_of, name)


def load_vectors_text(path: str | Path, name: str = "",
                      keep: Iterable[str] | None = None) -> EmbeddingTable:
    """Parse the word2vec text format: header `count dim`, then `token v1 .. v_dim` lines.

    The token runs up to the first space; the components are separated by any
    whitespace. The file must be UTF-8. Later duplicates of a token overwrite
    earlier ones with a warning. The table keeps the matrix the rows are parsed into.

    With `keep`, every row is still parsed and checked, but the table holds only
    the rows whose token has the lower case of a `keep` token: every casing of
    it, in file order. So `row` finds for each `keep` token what it finds in
    the full table. The lower cases of `keep` and the held tokens are interned,
    so a held token is the very string that `corpus.tokenize` gives for it.

    A regular file that parses without a fault is cached (`cache.entry`): a later
    load of the same path whose bytes have the same size and CRC-32 reads the rows
    it holds from there, and warns the same. Any fault of the cache is passed over,
    and the file parsed.
    """
    p = Path(path)
    wanted = None if keep is None else {sys.intern(t.lower()) for t in keep}
    with open(p, "rb") as f:
        st = os.fstat(f.fileno())
        entry = cache.entry(p, _VERSION, 4) if stat.S_ISREG(st.st_mode) else None
        if entry is not None:
            if cached := _load_entry(entry, f, st.st_size, wanted):
                dim, buf, held, tokens, duplicates = cached
                _warn_duplicates(p, duplicates, tokens)
                return _table(dim, buf, held, tokens, wanted, name or p.stem)
            f.seek(0)
        tee = _open_entry(entry) if entry is not None else None
        try:
            faults: list[tuple[int, str]] = []
            chunks = _read_chunks(f)
            blocks = _line_blocks(tee.read(chunks) if tee else chunks, faults)
            first = next(blocks, [""])
            if faults:
                raise EmbeddingError(f"{p} line {faults[0][0]}: {faults[0][1]}")
            count, dim = _header(p, first[0])
            limit = max(count, 0)  # rows held
            # A row takes at least 2·dim bytes, so a regular file's size bounds what its
            # header can reserve. A file whose size does not show its rows (a pipe, or a
            # file still being written) grows the buffer as its rows arrive.
            buf = _row_buffer(min(limit, st.st_size // (2 * dim)), dim)
            parsed, buf = _parse_rows(chain([first[1:]], blocks), faults, dim, limit, wanted,
                                      buf, 1, tee)
            seen: set[str] = set()
            duplicates: list[tuple[int, int]] = []  # (line, row)
            for row, (lineno, token) in enumerate(zip(parsed.linenos, parsed.tokens)):
                if token in seen:
                    duplicates.append((lineno, row))
                seen.add(token)
            _warn_duplicates(p, duplicates, parsed.tokens)
            if parsed.fault:
                raise EmbeddingError(f"{p} line {parsed.fault[0]}: {parsed.fault[1]}")
            if len(parsed.tokens) != count:
                raise EmbeddingError(f"{p}: header declares {count} vectors, "
                                     f"file has {len(parsed.tokens)}")
            if tee:
                _save_entry(entry, tee, st.st_size, dim, parsed.tokens, duplicates)
            return _table(dim, buf, parsed.held, parsed.tokens, wanted, name or p.stem)
        finally:
            if tee:
                _close_entry(entry, tee)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """dot(u,v) / (|u| |v|), accumulated in float64. Zero-norm inputs are an error."""
    if u.shape != v.shape:
        raise EmbeddingError("mixed dimensions in cosine")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise EmbeddingError("cosine of a zero vector is undefined")
    return float(np.dot(u, v)) / (nu * nv)
