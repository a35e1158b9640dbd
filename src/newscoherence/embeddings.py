"""Dense vector tables in the word2vec text interchange format, plus cosine similarity."""

from __future__ import annotations

import functools
import logging
import mmap
import os
from collections.abc import Iterable
from itertools import islice
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

# Rows per np.loadtxt call: few enough that a block's matrix is small next to the table.
_BLOCK_ROWS = 64

__all__ = [
    "EmbeddingTable",
    "EmbeddingError",
    "load_vectors_text",
    "save_vectors_text",
    "text_lines",
    "mean_vector",
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

    def lookup(self, token: str) -> np.ndarray | None:
        """Vector of `token`, found as `row` finds it."""
        row = self.row(token)
        return None if row is None else self.matrix[row]


def text_lines(f, p: Path, error: type[Exception] = EmbeddingError):
    """(line number, text) of each line of a binary file, split at "\\n", "\\r\\n" or
    "\\r" as text mode splits it. A line that is not UTF-8 raises `error` naming it."""
    lineno = 0
    for chunk in f:
        # Most chunks hold one line ending in "\n"; splitlines would copy each of them.
        for raw in chunk.splitlines() if b"\r" in chunk else (chunk,):
            lineno += 1
            try:
                line = raw.decode("utf-8").rstrip("\n")
            except UnicodeDecodeError as e:
                raise error(f"{p} line {lineno}: invalid UTF-8: {e}") from e
            yield lineno, line


def _header(p: Path, lines) -> tuple[int, int]:
    header = next(lines, (1, ""))[1].split()
    if len(header) != 2:
        raise EmbeddingError(f"{p}: header must be 'count dim'")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError as e:
        raise EmbeddingError(f"{p}: non-numeric header: {e}") from e
    if dim <= 0:
        raise EmbeddingError(f"{p}: dimension must be positive")
    return count, dim


def _rows(lines):
    """(line number, token, components text) of each non-blank line; the token ends
    at the first space."""
    for lineno, line in lines:
        if line.strip():
            token, _, rest = line.partition(" ")
            yield lineno, token, rest


def _parse(rests: list[str], dim: int) -> np.ndarray:
    """One float64 row per components text (one at least), checked for length and
    finiteness."""
    matrix = np.loadtxt(rests, dtype=np.float64, ndmin=2, comments=None)
    if matrix.shape[1] != dim:
        raise EmbeddingError(f"expected {dim} components, got {matrix.shape[1]}")
    if not np.isfinite(matrix).all():
        raise EmbeddingError("non-finite component")
    return matrix


def _raise_first_bad_line(p: Path, dim: int) -> None:
    """Re-read the file one row at a time and raise for its first malformed line,
    warning first for the duplicates above it, as a line-by-line loader would."""
    seen: set[str] = set()
    with open(p, "rb") as f:
        lines = text_lines(f, p)
        next(lines)
        for lineno, token, rest in _rows(lines):
            found = len(rest.split())  # str.split and loadtxt split at the same whitespace
            if found != dim:
                raise EmbeddingError(f"{p} line {lineno}: expected {dim} components, got {found}")
            try:
                _parse([rest], dim)
            except ValueError as e:
                raise EmbeddingError(f"{p} line {lineno}: non-numeric component: {e}") from e
            except EmbeddingError as e:
                raise EmbeddingError(f"{p} line {lineno}: {e}") from e
            if token in seen:
                logger.warning("%s line %d: duplicate token %r overwritten", p, lineno, token)
            seen.add(token)


def _row_buffer(rows: int, dim: int) -> np.ndarray:
    """An uninitialised rows x dim float64 array whose pages are resident only once
    written. An anonymous map, not np.empty: numpy asks the kernel for 2 MB pages
    for a large array, and each one a written row touches would be resident whole."""
    if not rows:
        return np.empty((0, 0))
    return np.ndarray((rows, dim), buffer=mmap.mmap(-1, rows * dim * 8, access=mmap.ACCESS_COPY))


def load_vectors_text(path: str | Path, name: str = "",
                      keep: Iterable[str] | None = None) -> EmbeddingTable:
    """Parse the word2vec text format: header `count dim`, then `token v1 .. v_dim` lines.

    The token runs up to the first space; the components are separated by any
    whitespace. The file must be UTF-8. Later duplicates of a token overwrite
    earlier ones with a warning. The table keeps the matrix the rows are parsed into.

    With `keep`, every row is still parsed and checked, but the table holds only
    the rows whose token has the lower case of a `keep` token: every casing of
    it, in file order. So `row` and `lookup` find for each `keep` token what
    they find in the full table.
    """
    p = Path(path)
    wanted = None if keep is None else {t.lower() for t in keep}
    seen: set[str] = set()
    row_of: dict[str, int] = {}
    duplicates: list[tuple[int, str]] = []
    parsed = held = 0
    with open(p, "rb") as f:
        lines = text_lines(f, p)
        count, dim = _header(p, lines)
        # A row takes at least 2·dim bytes, so a regular file's size bounds what its
        # header can reserve. A file whose size does not show its rows (a pipe, or a
        # file still being written) grows the buffer as its rows arrive.
        buf = _row_buffer(max(0, min(count, os.fstat(f.fileno()).st_size // (2 * dim))), dim)
        source = _rows(lines)
        try:
            while block := list(islice(source, _BLOCK_ROWS)):
                taken = []  # positions in `block` of the rows held
                for i, (lineno, token, rest) in enumerate(block):
                    if not rest.strip():  # loadtxt would skip the row
                        raise EmbeddingError(f"{p} line {lineno}: no components")
                    if token in seen:
                        duplicates.append((lineno, token))
                    seen.add(token)
                    # A row past the header's count is not held: the count check
                    # below reports it once every row is checked.
                    if (wanted is None or token.lower() in wanted) and parsed + i < count:
                        row_of[token] = held + len(taken)
                        taken.append(i)
                matrix = _parse([rest for _, _, rest in block], dim)
                if taken:
                    if held + len(taken) > len(buf):
                        grown = _row_buffer(min(count, max(2 * len(buf), held + len(taken))), dim)
                        if held:  # else `buf` may be 0 x 0
                            grown[:held] = buf[:held]
                        buf = grown
                    rows = matrix if len(taken) == len(block) else matrix[taken]
                    buf[held:held + len(rows)] = rows
                parsed, held = parsed + len(block), held + len(taken)
        except (ValueError, EmbeddingError):
            _raise_first_bad_line(p, dim)
            raise  # no line is malformed: the fault is in this loader
    for lineno, token in duplicates:
        logger.warning("%s line %d: duplicate token %r overwritten", p, lineno, token)
    if parsed != count:
        raise EmbeddingError(f"{p}: header declares {count} vectors, file has {parsed}")
    return EmbeddingTable.from_matrix(dim, buf[:held], row_of, name or p.stem)


def save_vectors_text(table: EmbeddingTable, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{len(table.entries)} {table.dim}\n")
        for token, vec in table.entries.items():
            f.write(token + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def mean_vector(vectors: list[np.ndarray]) -> np.ndarray:
    """Componentwise arithmetic mean of same-dimension vectors (multiset semantics)."""
    if not vectors:
        raise EmbeddingError("mean of an empty vector list")
    dim = vectors[0].shape[0]
    if any(v.shape[0] != dim for v in vectors):
        raise EmbeddingError("mixed dimensions in mean_vector")
    return np.mean(np.asarray(vectors, dtype=np.float64), axis=0)


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
