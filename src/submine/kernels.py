"""Embedding containers, cosine similarity kernels, and CSV I/O.

A kernel is indexed by row position in the embeddings it was built from:
the mining pipeline builds it over the kept items only, so its indices are
kept positions, not scene ids, and the losses build only the columns of
their class and unknown sets (`cosine_columns`).  Index sets are checked
where they are made from outside values; a set derived from valid sets
(`minus`, `union`, `sorted`) is not checked again.  Every
`SimilarityKernel` equals its transpose bit for bit, made so once where it
is made (`_symmetrize`), so its row v is its column v; README's memory
bullet gives what a kernel costs to build.  The CSV codec at the end serves
every CSV the CLI reads or writes, and `write_text` is the one writer of
every file the program writes.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import os
import stat
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

# Label conventions: >= 1 known class id, 0 unknown, -1 background.
UNKNOWN_LABEL = 0
BACKGROUND_LABEL = -1

TRANSFORMS = ("raw-cosine", "clip-at-zero", "affine-shift")

# Seeds are u64, one Philox key word of a scene's streams; the audit's
# sample takes seeds from the same range.
SEED_MAX = (1 << 64) - 1

# Entries of the kernel blocks one numpy call reads, and of the scratch each
# block needs.
_BLOCK = 1 << 14

# Largest array, in bytes, a run builds: a kept x kept kernel of 16,384 kept
# items, a loss's n x |C| kernel with its adjoint, or a generated scene's
# embeddings; 2 GiB.
MAX_KERNEL_BYTES = 1 << 31


def check_number(name: str, value, lo: float = -math.inf, hi: float = math.inf, integer: bool = False):
    """`value` when it is a number in [lo, hi], else an error that starts with
    `name`: TypeError for a non-number; ValueError for a bool, a value out of
    range and, unless `integer`, a NaN, an infinity or an int beyond float64.
    With `integer` only an int passes, so 2.0 does not.  Every config class
    checks its numbers with it."""
    kind = "an integer" if integer else "a number"
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be {kind}, not {type(value).__name__}")
    if isinstance(value, bool):
        raise ValueError(f"{name} must be {kind}, not a bool, got {value!r}")
    try:
        ok = isinstance(value, numbers.Integral) if integer else math.isfinite(value)
    except OverflowError:  # an int beyond float64
        ok = False
    if ok and lo <= value <= hi:
        return value
    kind = kind if integer else "a finite number"
    bounds = f" in [{lo}, {hi}]" if hi < math.inf else f" >= {lo}" if lo > -math.inf else ""
    raise ValueError(f"{name} must be {kind}{bounds}, got {value!r}")


def check_budget(nbytes: int, need: str) -> None:
    """Refuse `nbytes` above MAX_KERNEL_BYTES, read at call time, before
    anything is allocated: the ValueError reads `need`, then the budget."""
    if nbytes > MAX_KERNEL_BYTES:
        raise ValueError(f"{need}, above the {MAX_KERNEL_BYTES:,}-byte budget")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class EmbeddingSet:
    """A batch of d-dimensional item embeddings with optional metadata.

    data: (n, d) float array, one row per item.
    labels: optional (n,) int array; >= 1 known class, 0 unknown, -1 background.
    objectness: optional (n,) float array in [0, 1].
    """

    data: np.ndarray
    labels: np.ndarray | None = None
    objectness: np.ndarray | None = None

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"embeddings must be 2-d, got shape {data.shape}")
        if data.shape[1] < 1:
            raise ValueError("embeddings need at least one feature column")
        if not np.all(np.isfinite(data)):
            raise ValueError("embeddings contain non-finite values")
        object.__setattr__(self, "data", _readonly(data))
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (data.shape[0],):
                raise ValueError("labels length does not match embeddings")
            object.__setattr__(self, "labels", _readonly(labels))
        if self.objectness is not None:
            obj = np.asarray(self.objectness, dtype=np.float64)
            if obj.shape != (data.shape[0],):
                raise ValueError("objectness length does not match embeddings")
            if not np.all(np.isfinite(obj)) or obj.min() < 0.0 or obj.max() > 1.0:
                raise ValueError("objectness scores must lie in [0, 1]")
            object.__setattr__(self, "objectness", _readonly(obj))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def _index(i) -> int:
    """i as an int, if it is an integer of any width but not a bool."""
    if isinstance(i, numbers.Integral) and not isinstance(i, bool):
        return int(i)
    raise TypeError(f"indices must be integers, got {i!r}")


@dataclass(frozen=True, order=True)
class IndexSet:
    """An immutable set of distinct item indices, kept in insertion order.

    The indices are ints of any width, numpy's included, or an integer
    array; a float or a bool is a TypeError, a negative or repeated index a
    ValueError."""

    indices: tuple[int, ...]
    _members: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        idx = self.indices
        idx = tuple(idx.tolist()) if isinstance(idx, np.ndarray) else tuple(idx)
        if not set(map(type, idx)) <= {int}:
            idx = tuple(map(_index, idx))
        if idx and min(idx) < 0:
            raise ValueError("indices must be non-negative")
        members = frozenset(idx)
        if len(members) != len(idx):
            raise ValueError("duplicate indices in set")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "_members", members)

    @classmethod
    def of(cls, items: IndexSet | Iterable[int] | np.ndarray) -> "IndexSet":
        """items as a set: an IndexSet unchanged, else a checked new one."""
        if isinstance(items, IndexSet):
            return items
        return cls(items if isinstance(items, np.ndarray) else tuple(items))

    @classmethod
    def _valid(cls, idx: tuple[int, ...]) -> "IndexSet":
        """The set of idx, distinct non-negative ints, without the checks."""
        s = cls.__new__(cls)
        object.__setattr__(s, "indices", idx)
        object.__setattr__(s, "_members", frozenset(idx))
        return s

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __contains__(self, item: object) -> bool:
        return item in self._members

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp)

    def union(self, other: "IndexSet") -> "IndexSet":
        return IndexSet._valid(
            self.indices + tuple(itertools.filterfalse(self._members.__contains__, other.indices)))

    def minus(self, other: "IndexSet") -> "IndexSet":
        return IndexSet._valid(tuple(itertools.filterfalse(other._members.__contains__, self.indices)))

    def intersects(self, other: "IndexSet") -> bool:
        return not self._members.isdisjoint(other._members)

    def sorted(self) -> "IndexSet":
        return IndexSet._valid(tuple(sorted(self.indices)))

    def check_bounds(self, n: int) -> None:
        if self.indices and max(self.indices) >= n:
            i = next(i for i in self.indices if i >= n)
            raise ValueError(f"index {i} out of range for {n} items")


EMPTY_SET = IndexSet(())


def _unit_rows(data: np.ndarray, row: str = "row", ids=None) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `data` scaled to unit norm, and their norms.

    Raises ValueError naming the first zero-norm row: "zero-norm {row} {i}",
    with i its entry in `ids` when given, else its position.
    """
    norms = np.linalg.norm(data, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if len(zero):
        raise ValueError(f"zero-norm {row} {zero[0] if ids is None else ids[zero[0]]}")
    return data / norms[:, None], norms


def apply_transform(s, transform: str, in_place: bool = False):
    """Map raw cosine values through the configured range transform.

    raw-cosine: identity on [-1, 1].
    clip-at-zero: max(s, 0).
    affine-shift: (s + 1) / 2.
    in_place transforms the float array s itself and returns it.
    """
    out = s if in_place else None
    if transform == "raw-cosine":
        return s
    if transform == "clip-at-zero":
        return np.maximum(s, 0.0, out=out)
    if transform == "affine-shift":
        return np.divide(np.add(s, 1.0, out=out), 2.0, out=out)
    raise ValueError(f"unknown transform {transform!r}")


def row_blocks(rows: int, width: int) -> list[slice]:
    """Slices that cut `rows` rows of a block `width` entries wide into row
    blocks of about `_BLOCK` entries, each at least one row."""
    step = max(1, _BLOCK // max(width, 1))
    return [slice(i, i + step) for i in range(0, rows, step)]


def _halves(m: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The upper triangle of a square m in row blocks of about `_BLOCK`
    entries, each with its mirror image: views (m[i:j, i:], m[i:, i:j].T)."""
    for r in row_blocks(len(m), len(m)):
        yield m[r, r.start :], m[r.start :, r].T


def _symmetrize(m: np.ndarray) -> None:
    """Make the square, finite m equal its transpose bit for bit, in place, a
    row block at a time: entries that differ from their mirror image in any
    bit, signed zeros included, are set to their average, (x + y) / 2.  Only
    those are written, so no equal pair can overflow.  Entries more than
    1e-12 apart raise ValueError."""
    for a, b in _halves(m):
        apart = a.view(np.uint64) != b.view(np.uint64)
        if apart.any():
            x, y = a[apart], b[apart]
            if np.abs(x - y).max() > 1e-12:
                raise ValueError("kernel matrix is not symmetric")
            a[apart] = b[apart] = (x + y) / 2.0
        del apart  # before the next block's mask is made


def _check_kernel(m: np.ndarray, transform: str, epsilon: float) -> None:
    """The checks every kernel passes, in this order, but symmetry, which
    `_symmetrize` makes; none builds an n x n temporary.  One min and one max
    find non-finite entries and the range."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"kernel matrix must be square, got {m.shape}")
    lo, hi = (m.min(), m.max()) if m.size else (0.0, 0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("kernel matrix contains non-finite values")
    if transform not in TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}")
    if transform in ("clip-at-zero", "affine-shift") and (lo < -1e-12 or hi > 1.0 + 1e-12):
        raise ValueError("transformed kernel entries must lie in [0, 1]")
    check_number("epsilon", epsilon, 0)


@dataclass(frozen=True)
class SimilarityKernel:
    """Symmetric pairwise similarity matrix with its transform and diagonal shift.

    epsilon is the diagonal regularizer used by log-det objectives; it is
    stored here but only added to the diagonal at evaluation time.  The
    constructor checks a C-ordered float64 copy of `matrix`: square, finite,
    within [0, 1] for the clip and shift transforms, and then symmetric to
    1e-12.  It stores the copy read-only with each entry that differs from
    its mirror image replaced by their average, so `matrix` equals its
    transpose bit for bit.
    """

    matrix: np.ndarray
    transform: str = "raw-cosine"
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.float64, order="C")
        _check_kernel(m, self.transform, self.epsilon)
        _symmetrize(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _adopt(cls, m: np.ndarray, transform: str, epsilon: float) -> "SimilarityKernel":
        """A kernel over the C-ordered float64 buffer m itself, not a copy:
        the caller hands m over, already equal to its transpose bit for bit.
        m passes every check but symmetry, which is not checked again."""
        _check_kernel(m, transform, epsilon)
        m.flags.writeable = False
        kernel = cls.__new__(cls)
        for name, value in (("matrix", m), ("transform", transform), ("epsilon", epsilon)):
            object.__setattr__(kernel, name, value)
        return kernel

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def cosine_kernel(
    embeddings: EmbeddingSet,
    transform: str = "raw-cosine",
    epsilon: float = 0.0,
) -> SimilarityKernel:
    """Pairwise cosine similarities of all rows, optionally range-transformed:
    entry for entry apply_transform(clip((G + G.T) / 2, -1, 1)) with the
    diagonal pinned to 1.0, which every transform maps to itself, so
    roundoff cannot leak into log-det factorizations.  It is built in place
    in the one n x n buffer the kernel holds; the clip, the transform and
    the pin act entry by entry, so the kernel stays exactly symmetric.
    """
    if transform not in TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}")
    unit = _unit_rows(embeddings.data)[0]
    m = unit @ unit.T
    del unit
    _symmetrize(m)
    np.clip(m, -1.0, 1.0, out=m)
    apply_transform(m, transform, in_place=True)
    np.fill_diagonal(m, 1.0)
    return SimilarityKernel._adopt(m, transform, epsilon)


def cosine_columns(
    data: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw cosines of every row of `data` with the rows `cols`.

    Returns the n x |cols| matrix, clipped to [-1, 1] with each item of
    `cols` given its diagonal entry of 1, and the unit rows and norms of
    all n rows.  A zero-norm row anywhere in `data` is an error.
    """
    unit, norms = _unit_rows(data)
    s = unit @ unit[cols].T
    np.clip(s, -1.0, 1.0, out=s)
    s[cols, np.arange(len(cols))] = 1.0
    return s, unit, norms


# ---------------------------------------------------------------------------
# CSV interchange: header f0,...,f{d-1}[,label][,objectness]; '#' lines are
# comments.  Every CSV the program writes is built by `_csv_text`, which never
# quotes a cell: string cells must hold no comma.


def _csv_text(header: list[str], *columns, comment: str | None = None) -> str:
    """A CSV file's text: an optional '# comment' line, the header, the rows.

    Each column holds one entry per row: a string cell, written as it is, or
    a row of a float array, whose entries are written with repr(float(x)) so
    re-runs are byte-identical.
    """
    parts = []
    for col in columns:
        if isinstance(col, np.ndarray):
            rows = np.asarray(col, dtype=np.float64).tolist()
            col = [",".join(map(repr, r)) if isinstance(r, list) else repr(r) for r in rows]
        parts.append(col)
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*parts)))
    return "\n".join(lines) + "\n"


def write_embeddings_csv(
    embeddings: EmbeddingSet, path: str | Path, header_comment: str | None = None
) -> None:
    header = [f"f{j}" for j in range(embeddings.d)]
    columns: list = [embeddings.data]
    if embeddings.labels is not None:
        header.append("label")
        columns.append(list(map(str, embeddings.labels.tolist())))
    if embeddings.objectness is not None:
        header.append("objectness")
        columns.append(embeddings.objectness)
    write_text(path, _csv_text(header, *columns, comment=header_comment))


def write_text(path: str | Path, text: str) -> None:
    """Write text to path as `Path.write_text(text, newline="")` does, but
    over the old bytes, then cut a regular file to length.  Opening without
    O_TRUNC spares a rerun the flush ext4 makes on close() of a file that was
    truncated (auto_da_alloc), tens of ms per file.  Like the old write it is
    neither atomic nor fsynced: a crash or a full disk mid-write leaves the
    old bytes past the written prefix."""
    opener = lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)  # noqa: E731
    with open(path, "w", newline="", opener=opener) as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _rows(lines: Iterable[str]) -> Iterator[str]:
    """The lines that are neither blank nor comments."""
    for line in lines:
        first = next(csv.reader([line]))[0] if line[0] == '"' else line
        if line != "\n" and first.lstrip()[:1] != "#":
            yield line


_CELLS = dict(delimiter=",", quotechar='"', comments=None, dtype=np.float64, ndmin=2)


def _reads(cells: list[str]) -> bool:
    """Whether numpy's float parser reads every cell, each quoted so that no
    comma or quote in it splits it."""
    try:
        np.loadtxt([",".join('"' + c.replace('"', '""') + '"' for c in cells)], **_CELLS)
    except ValueError:
        return False
    return True


def _undecodable(path, e: UnicodeDecodeError) -> ValueError:
    """The error for a file that does not decode, naming the file and the
    first bad byte: a text file's decoder counts positions from its chunk."""
    return ValueError(f"{path}: not {e.encoding} text ({e.reason}: 0x{e.object[e.start]:02x})")


def _fault(path: Path, header: list[str]) -> str | None:
    """The first ragged row or bad cell, in the rows the csv module splits.
    A row is checked whole first: one parse per cell costs microseconds."""
    with path.open() as fh:
        rows = list(csv.reader(_rows(fh)))[1:]
    for i, r in enumerate(rows, 1):
        if len(r) != len(header):
            return f"{path}: row has {len(r)} fields, expected {len(header)}"
        if not _reads(r):
            name, cell = next((n, c) for n, c in zip(header, r) if not _reads([c]))
            return f"{path}: {name} cell {cell.strip()!r} in data row {i} is not a number"
    return None


def read_embeddings_csv(path: str | Path) -> EmbeddingSet:
    """Read a CSV in the layout `write_embeddings_csv` writes, as README's
    CSV section describes: one `np.loadtxt` call splits and converts the
    lines that are neither blank nor comments, and labels are truncated
    toward zero.  Every error names the file, and a bad cell, label or
    feature its data row and column.
    """
    path = Path(path)
    try:
        with path.open() as fh:
            lines = _rows(fh)
            head, first = next(lines, None), next(lines, None)
            if first is None:
                raise ValueError(f"{path}: no data rows")
            header = [c.strip() for c in next(csv.reader([head]))]
            for tail in (["label", "objectness"], ["label"], ["objectness"], []):
                d = len(header) - len(tail)
                if d >= 1 and header == [f"f{j}" for j in range(d)] + tail:
                    break
            else:
                raise ValueError(f"{path}: malformed header {header!r}")
            try:
                table = np.loadtxt(itertools.chain([first], lines), **_CELLS)
                if table.shape[1] != len(header):
                    raise ValueError(f"rows have {table.shape[1]} fields, expected {len(header)}")
            except ValueError as e:
                raise ValueError(_fault(path, header) or f"{path}: {e}") from None
    except UnicodeDecodeError as e:
        raise _undecodable(path, e) from None
    labels = table[:, d] if "label" in tail else None
    if labels is not None:
        bad = np.flatnonzero(~((labels >= -(2.0**63)) & (labels < 2.0**63)))
        if len(bad):
            raise ValueError(
                f"{path}: label {float(labels[bad[0]])!r} in data row {bad[0] + 1} "
                "is not a finite int64"
            )
        labels = labels.astype(np.int64)
    try:
        return EmbeddingSet(
            table[:, :d],
            labels=labels,
            objectness=table[:, -1] if "objectness" in tail else None,
        )
    except ValueError:
        bad = np.argwhere(~np.isfinite(table[:, :d]))
        if len(bad):
            i, j = bad[0]
            raise ValueError(
                f"{path}: {header[j]} value {float(table[i, j])!r} in data row {i + 1} "
                "is not finite"
            ) from None
        raise
