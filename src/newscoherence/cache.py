"""The parse cache: one entry per input file (a vector table or an ESA index) that
holds what parsing it gave, read in place of the parse while the file's size and
CRC-32 are the ones the entry records.

Entries live in $XDG_CACHE_HOME/newscoherence, else ~/.cache/newscoherence, named
by the input's resolved path. Each starts with a head: a version line that names
its kind, the int64 length of the resolved path and its bytes, then the int64s the
input's size, its CRC-32 and the fields of its kind. An entry is written to a
temporary file, flushed to disk and renamed into place."""

from __future__ import annotations

import os
import re
import stat
import threading
import zlib
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import BinaryIO

import numpy as np

# Bytes per read or write when an entry is checked, read or written: below the
# 128 KiB from which glibc maps a buffer, since freeing one raises that threshold and
# later arrays of that size stay on the heap (seen as +0.1 MB peak RSS at 256 KiB).
COPY_BYTES = 1 << 16
# The version line of vector-table entries from before the path was recorded.
_UNSOURCED = b"newscoherence 1\n"
_PREFIX = b"newscoherence "
_ENTRY = re.compile(r"[0-9a-f]{16}")
_TEMP = re.compile(r"[0-9a-f]{16}\.(\d+)-\d+")  # see `Entry.temp`


class Checksum:
    """The size and CRC-32 of the bytes that pass through `read`."""

    def __init__(self):
        self.size = self.crc = 0

    def read(self, chunks: Iterable[bytes]) -> Iterator[bytes]:
        for data in chunks:
            self.size += len(data)
            self.crc = zlib.crc32(data, self.crc)
            yield data


def checksum(f: BinaryIO) -> tuple[int, int]:
    """The size and CRC-32 of file `f`, read from its start."""
    f.seek(0)
    chunk = bytearray(COPY_BYTES)
    size = crc = 0
    while got := f.readinto(chunk):
        crc = zlib.crc32(memoryview(chunk)[:got], crc)
        size += got
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

    @property
    def temp(self) -> Path:
        """Where this thread writes the entry before it is published."""
        return self.path.with_name(f"{self.path.name}.{os.getpid()}-{threading.get_ident()}")

    def head(self, size: int, crc: int, fields: list[int]) -> bytes:
        """The head for an input of `size` bytes and CRC-32 `crc`."""
        return self._prefix + np.array([size, crc, *fields], dtype="<i8").tobytes()

    def fields(self, e: BinaryIO, f: BinaryIO, size: int) -> list[int] | None:
        """The fields of its kind in the head of entry file `e`, read from its start,
        if `e` is of this version and source and records the size and CRC-32 of file
        `f`, of `size` bytes: only then is `f` read. None otherwise."""
        head = e.read(self.head_size)
        if len(head) != self.head_size or not head.startswith(self._prefix):
            return None
        recorded, crc, *fields = np.frombuffer(head, "<i8", offset=len(self._prefix)).tolist()
        if recorded != size or checksum(f) != (size, crc):
            return None
        return fields

    def publish(self, fd: int) -> None:
        """Flush the temporary file that `fd` wrote whole to disk, rename it into
        place and `sweep` the directory. Raises OSError if it cannot."""
        os.fsync(fd)  # else a crash may leave an entry of the right size but zeroed
        os.replace(self.temp, self.path)
        sweep(self.path.parent)


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


def _stale(path: Path) -> bool:
    """Whether entry `path` caches a file that is no longer a regular file, or
    records no file at all. An entry of an unknown layout is never stale."""
    with open(path, "rb") as e:
        version = e.readline(64)
        if version == _UNSOURCED:
            return True
        if not version.startswith(_PREFIX) or not version.endswith(b"\n"):
            return False
        length = int.from_bytes(e.read(8), "little")
        if length > 1 << 16:  # no path is that long: a damaged entry
            return True
        source = e.read(length)
    try:
        return not stat.S_ISREG(os.stat(source).st_mode)
    except (FileNotFoundError, NotADirectoryError):
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
