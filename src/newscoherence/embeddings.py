"""Dense vector tables in the word2vec text interchange format, plus cosine similarity."""

from __future__ import annotations

import bisect
import functools
import io
import logging
import mmap
import os
import pickle
import signal
import stat
import sys
import threading
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
# Bytes of vector table per process below which a fork costs more than it saves. A
# fork costs some 6 ms (2 vCPUs): two processes parsed a 300-d table of 2 MiB in
# 34 ms against 41 ms in one, and a table of 1 MiB in 25 ms against 21 ms.
_MIN_SHARD_BYTES = 1 << 20
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


def _pread_chunks(fd: int, start: int, end: int) -> Iterator[bytes]:
    """Bytes [start, end) of file `fd`, read by pread: that leaves alone the file
    offset, which a forked process shares."""
    return (os.pread(fd, min(_READ_BYTES, end - at), at) for at in range(start, end, _READ_BYTES))


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
    """A shard's part of a new cache entry: the size and CRC-32 of the bytes the shard
    reads, and each row it parses, written to file `fd`. A failed write clears `ok`,
    and no entry is made."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd, self.ok = fd, True

    def write(self, rows: np.ndarray) -> None:
        if self.ok:
            try:
                cache.write_all(self.fd, rows)
            except OSError:  # no space left, say
                self.ok = False


class _Shard(NamedTuple):
    """What parsing a run of lines found. Line numbers count from its first line."""

    lines: int                     # lines read, blank ones included
    tokens: list[str]              # the token of each row above the first malformed line
    linenos: array                 # the line of each of those rows
    held: array                    # positions in `tokens` of the rows written to the buffer
    fault: tuple[int, str] | None  # (line, what is wrong) of the first malformed line
    tee: _Tee | None               # where its bytes were summed and its rows written


def _taken(tokens: Iterable[str], wanted: set[str] | None) -> list[int]:
    """Positions of the `tokens` whose rows a table holds: those with the lower case
    of a `wanted` token, every one where `wanted` is None."""
    return [j for j, token in enumerate(tokens) if wanted is None or token.lower() in wanted]


def _parse_rows(blocks: Iterable[list[str]], faults: list[tuple[int, str]], dim: int,
                count: int, wanted: set[str] | None, buf: np.ndarray,
                lineno: int = 0, tee: _Tee | None = None) -> tuple[_Shard, np.ndarray]:
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
    return _Shard(lineno, tokens, linenos, held, fault, tee), buf


def _send(out: BinaryIO, fd: int, span: tuple[int, int], dim: int, count: int,
          wanted: set[str] | None, tee: _Tee | None) -> None:
    """Parse bytes [start, end) of file `fd` and write to `out` its _Shard, pickled,
    then the bytes of its held rows."""
    start, end = span
    buf = _row_buffer(min(count, (end - start) // (2 * dim)), dim)
    faults: list[tuple[int, str]] = []
    chunks = _pread_chunks(fd, start, end)
    blocks = _line_blocks(tee.read(chunks) if tee else chunks, faults)
    shard, buf = _parse_rows(blocks, faults, dim, count, wanted, buf, tee=tee)
    pickle.dump(shard, out, pickle.HIGHEST_PROTOCOL)
    out.write(buf[:len(shard.held)])


def _spans(fd: int, size: int) -> list[tuple[int, int]]:
    """Byte ranges of a regular file, one per process that parses it: no more than
    the CPUs this process may run on, and none under _MIN_SHARD_BYTES. Each range
    but the last ends just after a "\\n". A process with other threads is not
    forked: a lock one of them holds would stay held in the child."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return [(0, size)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    shards = min(cpus or 1, size // max(_MIN_SHARD_BYTES, 1))
    cuts = [0]
    for k in range(1, shards):
        at = k * size // shards
        while window := os.pread(fd, min(1 << 16, size - at), at):
            if (i := window.find(b"\n")) >= 0:
                cuts.append(max(cuts[-1], at + i + 1))
                break
            at += len(window)
    cuts = sorted(set(cuts + [size]))
    return list(zip(cuts, cuts[1:])) or [(0, size)]


def _fork(fd: int, span: tuple[int, int], dim: int, count: int, wanted: set[str] | None,
          tee: _Tee | None) -> tuple[int | None, BinaryIO]:
    """Parse `span` of `fd` in a forked process: its pid, and the pipe it `_send`s
    through. If no process can be made, the span is parsed here: no pid, and a
    stream of the same bytes."""
    r, w = os.pipe()
    pid = -1
    try:
        pid = os.fork()
        if pid == 0:  # the child, which never logs
            os.close(r)
            with open(w, "wb") as out:
                _send(out, fd, span, dim, count, wanted, tee)
            os._exit(0)
    except OSError:  # from the fork: no process was made
        pass
    finally:
        if pid == 0:  # whatever went wrong, the child never returns into its caller
            os._exit(1)
    os.close(w)
    if pid != -1:
        return pid, open(r, "rb")
    os.close(r)
    out = io.BytesIO()
    _send(out, fd, span, dim, count, wanted, tee)
    out.seek(0)
    return None, out


def _receive(stream: BinaryIO, buf: np.ndarray, held: int) -> _Shard | None:
    """A _Shard from `stream`, or None if the stream ends before all of it. Its held
    rows go into `buf` after the `held` rows there, if they fit; if not, the file
    has more rows than its header declares."""
    try:
        shard = pickle.load(stream)
    except (EOFError, pickle.UnpicklingError):
        return None
    n = len(shard.held)
    if n and held + n <= len(buf) and not cache.read_into(stream, buf[held:held + n]):
        return None
    return shard


def _lost(p: Path, pid: int | None) -> Exception:
    """The error for the process `pid` that ended without sending all its rows of
    table `p`, once it is reaped. A signal that ended it (the out-of-memory killer's,
    say) is a data error; a process that exited by itself, or no process, is a bug."""
    try:
        status = os.waitpid(pid, 0)[1] if pid is not None else 0
    except ChildProcessError:  # reaped already: SIGCHLD is ignored
        status = 0
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        return EmbeddingError(f"{p}: a parser process was killed by signal {sig} "
                              f"({signal.strsignal(sig)})")
    return RuntimeError(f"{p}: a parser process ended without its rows")


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


def _open_entry(entry: cache.Entry, shards: int) -> list[_Tee | None]:
    """A _Tee for each of a table's `shards`, for a new cache `entry`: the first
    writes to the entry's temporary file, after its head; each other to an
    unlinked file of its own. All None if a file cannot be made."""
    tmp, tees = entry.temp, []
    try:
        for k in range(shards):
            name = f"{tmp}.{k}" if k else tmp
            tees.append(_Tee(os.open(name, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666)))
            if k:
                os.unlink(name)
        os.lseek(tees[0].fd, entry.head_size, os.SEEK_SET)
        return tees
    except OSError:
        _close_entry(entry, tees)
        return [None] * shards


def _close_entry(entry: cache.Entry | None, tees: list[_Tee | None]) -> None:
    """Close the files of `tees`, and remove the entry's temporary file if it was not
    published."""
    for tee in tees:
        if tee is not None:
            os.close(tee.fd)
    if tees and tees[0] is not None:
        entry.temp.unlink(missing_ok=True)


def _save_entry(entry: cache.Entry, tees: list[_Tee], size: int, dim: int,
                tokens: list[str], duplicates: list[tuple[int, int]]) -> None:
    """Publish the cache `entry` of a table of `size` bytes whose shards, in file
    order, wrote their rows through `tees`: the other shards' files are copied on
    after the first's rows, then come the tokens, the duplicates and the head.
    Nothing is published if a shard's write failed or they did not read the file."""
    if not all(tee.ok for tee in tees) or sum(tee.size for tee in tees) != size:
        return
    crc = 0
    for tee in tees:
        crc = cache.crc32_combine(crc, tee.crc, tee.size)
    out = tees[0].fd
    try:
        for tee in tees[1:]:
            os.lseek(tee.fd, 0, os.SEEK_SET)
            while data := os.read(tee.fd, cache.COPY_BYTES):
                cache.write_all(out, data)
        names = cache.lines(tokens)
        cache.write_all(out, names)
        cache.write_all(out, np.array(duplicates, dtype="<i8"))
        os.lseek(out, 0, os.SEEK_SET)
        cache.write_all(out, entry.head(size, crc, [len(tokens), dim, len(names),
                                                    len(duplicates)]))
        entry.publish(out)
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

    A regular file is parsed in as many processes as `_spans` cuts it into, all but
    the first forked, to the same table, warnings and errors. A regular file that
    parses without a fault is cached (`cache.entry`): a later load of the same path
    whose bytes have the same size and CRC-32 reads the rows it holds from there,
    and warns the same. Any fault of the cache is passed over, and the file parsed.
    """
    p = Path(path)
    wanted = None if keep is None else {sys.intern(t.lower()) for t in keep}
    children: list[tuple[int | None, BinaryIO]] = []
    with open(p, "rb") as f:
        fd = f.fileno()
        st = os.fstat(fd)
        regular = stat.S_ISREG(st.st_mode)
        entry = cache.entry(p, _VERSION, 4) if regular else None
        if entry is not None:
            if cached := _load_entry(entry, f, st.st_size, wanted):
                dim, buf, held, tokens, duplicates = cached
                _warn_duplicates(p, duplicates, tokens)
                return _table(dim, buf, held, tokens, wanted, name or p.stem)
            f.seek(0)
        spans = _spans(fd, st.st_size) if regular else [(0, 0)]
        tees = _open_entry(entry, len(spans)) if entry is not None else [None] * len(spans)
        try:
            faults: list[tuple[int, str]] = []
            chunks = _read_chunks(f) if len(spans) == 1 else _pread_chunks(fd, *spans[0])
            blocks = _line_blocks(tees[0].read(chunks) if tees[0] else chunks, faults)
            first = next(blocks, [""])
            if faults:
                raise EmbeddingError(f"{p} line {faults[0][0]}: {faults[0][1]}")
            count, dim = _header(p, first[0])
            limit = max(count, 0)  # rows held
            # A row takes at least 2·dim bytes, so a regular file's size bounds what its
            # header can reserve. A file whose size does not show its rows (a pipe, or a
            # file still being written) grows the buffer as its rows arrive.
            buf = _row_buffer(min(limit, st.st_size // (2 * dim)), dim)
            for span, tee in zip(spans[1:], tees[1:]):
                children.append(_fork(fd, span, dim, limit, wanted, tee))
            shard, buf = _parse_rows(chain([first[1:]], blocks), faults, dim, limit, wanted,
                                     buf, 1, tees[0])
            seen: set[str] = set()
            tokens: list[str] = []
            held = array("q")  # the rows of `tokens` in `buf`, in order
            duplicates: list[tuple[int, int]] = []  # (line, row)
            written: list[_Tee] = []
            lines = 0
            for k in range(len(spans)):
                if k:  # the shards after the first, in file order
                    pid, stream = children[k - 1]
                    shard = _receive(stream, buf, len(held))
                    if shard is None:
                        children[k - 1] = None, stream  # reaped by _lost, not killed below
                        raise _lost(p, pid)
                for row, (lineno, token) in enumerate(zip(shard.linenos, shard.tokens),
                                                      len(tokens)):
                    if token in seen:
                        duplicates.append((lines + lineno, row))
                    seen.add(token)
                held.extend(len(tokens) + i for i in shard.held)
                tokens += shard.tokens
                if shard.fault:
                    break
                lines += shard.lines
                written.append(shard.tee)
            # Still inside the try: a child that has sent its rows exits meanwhile.
            _warn_duplicates(p, duplicates, tokens)
            if shard.fault:
                raise EmbeddingError(f"{p} line {lines + shard.fault[0]}: {shard.fault[1]}")
            parsed = len(tokens)
            if parsed != count:
                raise EmbeddingError(f"{p}: header declares {count} vectors, file has {parsed}")
            if tees[0]:
                _save_entry(entry, written, st.st_size, dim, tokens, duplicates)
            return _table(dim, buf, held, tokens, wanted, name or p.stem)
        finally:
            for pid, stream in children:
                stream.close()
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    try:
                        os.waitpid(pid, 0)
                    except ChildProcessError:  # reaped already: SIGCHLD is ignored
                        pass
            _close_entry(entry, tees)


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
