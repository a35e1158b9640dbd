"""The parse cache: one entry per input file (a vector table, an ESA index or a
corpus) that holds what parsing it gave, read in place of the parse while the
size and CRC-32 of the file, or for a corpus those of the strings segmentation
reads, are the ones the entry records.

Entries live in $XDG_CACHE_HOME/newscoherence, else ~/.cache/newscoherence, named
by the input's resolved path. Each starts with a head: a version line that names
its kind, the int64 length of the resolved path and its bytes, then the int64s the
input's size, its CRC-32 and the fields of its kind, which give the sizes of the
kind's sections, the body. The last field seals the entry: a CRC-32 of the other
fields and of every section, in order (`Writer.seal`, `unseal`). Only a table's
rows lie outside it, before the sections, so that a hit reads only the rows it
holds; a section holds each row's own CRC-32 (`read_rows`). An entry is written to
a temporary file, flushed to disk and renamed into place.

`load` is the one place this policy lives: which inputs are cached, when an entry
is read in place of a parse, and when a parse publishes one."""

from __future__ import annotations

import functools
import os
import re
import stat
import threading
import zlib
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import BinaryIO

import numpy as np

# Bytes per read or write when an entry is checked, read or written: below the
# 128 KiB from which glibc maps a buffer, since freeing one raises that threshold and
# later arrays of that size stay on the heap (seen as +0.1 MB peak RSS at 256 KiB).
COPY_BYTES = 1 << 16
_PREFIX = b"newscoherence "
_ENTRY = re.compile(r"[0-9a-f]{16}")
_TEMP = re.compile(r"[0-9a-f]{16}\.(\d+)-\d+")  # see `Writer.temp`


def checksum_of(chunks: Iterable[bytes]) -> tuple[int, int]:
    """The size and CRC-32 of the bytes of `chunks`, one after another."""
    size = crc = 0
    for data in chunks:
        size += len(data)
        crc = zlib.crc32(data, crc)
    return size, crc


def read_into(stream: BinaryIO, array: np.ndarray) -> bool:
    """Fill `array` from `stream`, COPY_BYTES at most per read; False if it ends first."""
    view = memoryview(array).cast("B")
    while view:
        got = stream.readinto(view[:COPY_BYTES])
        if not got:
            return False
        view = view[got:]
    return True


def row_checksums(rows: np.ndarray) -> np.ndarray:
    """The CRC-32 of each row of a C-contiguous 2-d array, as uint32s: the section
    that seals a table's rows."""
    return np.fromiter(map(zlib.crc32, rows), "<u4", len(rows))


def unseal(e: BinaryIO, fields: list[int], sections: list[tuple], step: int = COPY_BYTES,
           rows: int = 0) -> list | None:
    """The sections of entry file `e`, read from the end of its head, whose fields
    are `fields`; None where a field is negative, the file does not end where the
    sections end, or they do not give the sealing CRC-32. `rows` bytes of rows come
    first, outside it and not read here (see `read_rows`).

    Each section is (dtype, count): `count` items of a numpy dtype, or bytes where
    dtype is `bytes`, read into a new array or bytearray once the size is known good.
    With a third item, `take`, `take` is handed the section instead, `step` bytes at
    a time (whole items, one at least), and None stands in its place."""
    widths = [1 if dtype is bytes else np.dtype(dtype).itemsize for dtype, *_ in sections]
    end = e.tell() + rows + sum(w * count for w, (_, count, *_) in zip(widths, sections))
    if min(fields) < 0 or os.fstat(e.fileno()).st_size != end:
        return None
    e.seek(rows, os.SEEK_CUR)
    crc, found = zlib.crc32(np.array(fields[:-1], "<i8")), []
    for width, (dtype, count, *take) in zip(widths, sections):
        if not take:
            found.append(bytearray(count) if dtype is bytes else np.empty(count, dtype))
            if not read_into(e, found[-1]):
                return None
            crc = zlib.crc32(found[-1], crc)
            continue
        found.append(None)
        most = max(step // width, 1) * width
        for left in range(count * width, 0, -most):
            data = e.read(min(left, most))
            crc = zlib.crc32(data, crc)
            take[0](data if dtype is bytes else np.frombuffer(data, dtype))
    return found if crc == fields[-1] else None


def read_rows(e: BinaryIO, at: int, runs: list[int], out: np.ndarray,
              crcs: np.ndarray) -> bool:
    """Whether the rows of each run (`runs` being a flat list of first and end rows)
    of the rows section at offset `at` of entry file `e` fill `out`, in order, and
    give the CRC-32s `crcs`."""
    j = 0
    for first, end in zip(runs[::2], runs[1::2]):
        e.seek(at + first * out.strides[0])
        if not read_into(e, out[j:j + end - first]):
            return False
        j += end - first
    return np.array_equal(row_checksums(out[:j]), crcs)


def lines(texts: list[str]) -> bytes:
    """Each text and a "\\n", UTF-8: with no string made per text."""
    return "\n".join([*texts, ""]).encode("utf-8")


def write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


class Entry:
    """The cache entry of the input file whose resolved path is `source`: file
    `path`, of kind `version` (its version line), with `fields` int64s of that kind
    in its head, which takes `head_size` bytes."""

    def __init__(self, path: Path, source: bytes, version: bytes, fields: int):
        self.path = path
        self._prefix = version + len(source).to_bytes(8, "little") + source
        self.head_size = len(self._prefix) + 8 * (2 + fields)

    def head(self, size: int, crc: int, fields: list[int]) -> bytes:
        """The head for an input of `size` bytes and CRC-32 `crc`."""
        return self._prefix + np.array([size, crc, *fields], dtype="<i8").tobytes()

    def fields(self, e: BinaryIO, f: BinaryIO, size: int,
               digest: Callable[[], Iterable[bytes]] | None = None) -> list[int] | None:
        """The fields of its kind in the head of entry file `e`, read from its start,
        if `e` is of this version and source and records the size and CRC-32 of file
        `f`, of `size` bytes, or with `digest`, of the bytes `digest()` gives: only
        then is `f` read, or `digest` called. None otherwise."""
        head = e.read(self.head_size)
        if len(head) != self.head_size or not head.startswith(self._prefix):
            return None
        recorded, crc, *fields = np.frombuffer(head, "<i8", offset=len(self._prefix)).tolist()
        if digest is None:  # the bytes of `f`, from its start
            if recorded != size:
                return None
            digest = functools.partial(iter, functools.partial(f.read, COPY_BYTES), b"")
        return fields if checksum_of(digest()) == (recorded, crc) else None


def entry(p: Path, version: bytes, fields: int) -> Entry | None:
    """The `Entry` of input file `p`, of kind `version` with `fields` int64s in its
    head: one per resolved path, so two names of one file share it. None where the
    cache directory cannot be made."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # unset, empty or relative, which XDG says to ignore
        root = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(root):  # no home directory
        return None
    directory = Path(root, "newscoherence")
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)  # as XDG asks
        source = os.fsencode(p.resolve())
    except (OSError, RuntimeError):  # RuntimeError: a symbolic link loop
        return None
    name = f"{zlib.crc32(source):08x}{zlib.adler32(source):08x}"
    return Entry(directory / name, source, version, fields)


class Writer:
    """A new cache `entry`, made in a temporary file of this thread: the size and
    CRC-32 of the bytes that pass through `read`, and the bytes given to `write`,
    after room for the head. With no entry, or once the file cannot be made or
    written, it sums and writes nothing, and `ok` is False."""

    def __init__(self, entry: Entry | None):
        self.entry, self.fd, self.size, self.crc = entry, None, 0, 0
        if entry is None:
            return
        self.temp = entry.path.with_name(
            f"{entry.path.name}.{os.getpid()}-{threading.get_ident()}")
        try:
            self.fd = os.open(self.temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            os.lseek(self.fd, entry.head_size, os.SEEK_SET)
        except OSError:
            self.close()

    @property
    def ok(self) -> bool:
        return self.fd is not None

    def __enter__(self) -> Writer:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def read(self, chunks: Iterable[bytes]) -> Iterator[bytes]:
        for data in chunks:
            if self.ok:
                self.size += len(data)
                self.crc = zlib.crc32(data, self.crc)
            yield data

    def write(self, data) -> None:
        if self.ok:
            try:
                write_all(self.fd, data)
            except OSError:  # no space left, say: the run goes on without an entry
                self.close()

    def seal(self, sizes: list[int], sections: Iterable) -> list[int]:
        """Write `sections`, each bytes or a contiguous array, and return the head
        fields of their entry: `sizes`, then the CRC-32 that seals them (see
        `unseal`)."""
        crc = zlib.crc32(np.array(sizes, "<i8"))
        for data in sections:
            self.write(data)
            crc = zlib.crc32(data, crc)
        return [*sizes, crc]

    def publish(self, size: int, fields: list[int]) -> None:
        """Write the head and rename the entry into place, if what passed through
        `read` was all `size` bytes of the input and every write was made; then
        `sweep` the directory."""
        if not self.ok or self.size != size:
            return
        try:
            os.lseek(self.fd, 0, os.SEEK_SET)
            write_all(self.fd, self.entry.head(size, self.crc, fields))
            os.fsync(self.fd)  # else a crash may leave an entry of the right size but zeroed
            os.replace(self.temp, self.entry.path)
            sweep(self.entry.path.parent)
        except OSError:  # no space left, say: the run goes on without an entry
            pass

    def close(self) -> None:
        """Close the file, and remove it if it was not published."""
        if self.ok:
            os.close(self.fd)
            self.fd = None
            self.temp.unlink(missing_ok=True)


def load(p: Path, version: bytes, fields: int, hit: Callable, parse: Callable,
         digest: Callable[[], Iterable[bytes]] | None = None):
    """What input file `p` gives, read through its cache entry of kind `version`, whose
    head holds `fields` int64s of that kind.

    The entry records a size and CRC-32: of the bytes of `p`, or with `digest`, of
    the bytes `digest()` gives, which stand for all that the result follows from;
    `p` is then opened but never read here. If `p` is a regular file whose entry
    records them, the result is `hit(e, values)`: `e` is the entry file, read up to
    the end of its head, and `values` are the fields its head holds. A `hit` that
    returns None or raises OSError or ValueError (a damaged entry) is a miss. On a
    miss it is what `parse(f, writer)` gives, `f` being `p` open at its start:
    `parse` returns that and the fields of the entry it wrote through `writer`, or
    None for no entry. Without `digest`, the entry is published only if the parse
    read the whole file."""
    with open(p, "rb") as f:
        st = os.fstat(f.fileno())
        target = entry(p, version, fields) if stat.S_ISREG(st.st_mode) else None
        if target is not None:
            try:
                with open(target.path, "rb", buffering=0) as e:
                    head = target.fields(e, f, st.st_size, digest)
                    if head is not None and (found := hit(e, head)) is not None:
                        return found
            except (OSError, ValueError):  # UnicodeDecodeError too
                pass
            f.seek(0)
        with Writer(target) as writer:
            if digest is not None and writer.ok:
                writer.size, writer.crc = checksum_of(digest())
            found, head = parse(f, writer)
            if head is not None:
                writer.publish(st.st_size if digest is None else writer.size, head)
        return found


def _stale(path: Path) -> bool:
    """Whether entry `path` caches a file that is no longer a regular file, or
    records no file at all. An entry of an unknown layout is never stale."""
    with open(path, "rb") as e:
        version = e.readline(64)
        if not version.startswith(_PREFIX) or not version.endswith(b"\n"):
            return False
        length = int.from_bytes(e.read(8), "little")
        if length > 1 << 16:  # no path is that long: a damaged entry
            return True
        source = e.read(length)
    try:
        return not stat.S_ISREG(os.stat(source).st_mode)
    except (FileNotFoundError, NotADirectoryError, ValueError):  # ValueError: a NUL byte
        return True


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)  # delivers nothing: only checks that the pid exists
    except ProcessLookupError:
        return False
    except PermissionError:  # another user's
        pass
    return True


def sweep(directory: Path) -> None:
    """Remove from the cache `directory` each stale entry and each temporary file
    of a process that is no longer running."""
    for name in os.listdir(directory):
        path = directory / name
        try:
            if m := _TEMP.fullmatch(name):
                if not _running(int(m[1])):
                    path.unlink(missing_ok=True)
            elif _ENTRY.fullmatch(name) and _stale(path):
                path.unlink(missing_ok=True)
        except (OSError, ValueError, OverflowError):  # gone meanwhile, say: left as it is
            pass
