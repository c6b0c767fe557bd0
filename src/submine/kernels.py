"""Embedding containers, cosine similarity kernels, and CSV I/O.

Everything downstream works on a symmetric similarity matrix built from
row-normalized embeddings.  A kernel is indexed by row position in the
embeddings it was built from: the mining pipeline builds it over the kept
items only, so its indices are kept positions, not scene ids.  The training
losses read only the columns of their class and unknown sets, which
`cosine_columns` builds.  Index sets are small immutable tuples.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

# Label conventions: >= 1 known class id, 0 unknown, -1 background.
UNKNOWN_LABEL = 0
BACKGROUND_LABEL = -1

TRANSFORMS = ("raw-cosine", "clip-at-zero", "affine-shift")


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


@dataclass(frozen=True, order=True)
class IndexSet:
    """An immutable set of distinct item indices, kept in insertion order."""

    indices: tuple[int, ...]
    _members: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.indices)
        if any(i < 0 for i in idx):
            raise ValueError("indices must be non-negative")
        members = frozenset(idx)
        if len(members) != len(idx):
            raise ValueError("duplicate indices in set")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "_members", members)

    @classmethod
    def of(cls, items: Iterable[int]) -> "IndexSet":
        return cls(tuple(items))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __contains__(self, item: object) -> bool:
        return item in self._members

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp)

    def union(self, other: "IndexSet") -> "IndexSet":
        return IndexSet(self.indices + tuple(i for i in other.indices if i not in self._members))

    def minus(self, other: "IndexSet") -> "IndexSet":
        return IndexSet(tuple(i for i in self.indices if i not in other._members))

    def intersects(self, other: "IndexSet") -> bool:
        return not self._members.isdisjoint(other._members)

    def sorted(self) -> "IndexSet":
        return IndexSet(tuple(sorted(self.indices)))

    def check_bounds(self, n: int) -> None:
        for i in self.indices:
            if i >= n:
                raise ValueError(f"index {i} out of range for {n} items")


EMPTY_SET = IndexSet(())


def _unit_rows(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `data` scaled to unit norm, and their norms.

    Raises ValueError naming the first zero-norm row.
    """
    norms = np.linalg.norm(data, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if len(zero):
        raise ValueError(f"zero-norm row {zero[0]}")
    return data / norms[:, None], norms


def row_normalize(embeddings: EmbeddingSet) -> EmbeddingSet:
    """Scale every row to unit Euclidean norm.  Zero rows are an error."""
    return EmbeddingSet(
        _unit_rows(embeddings.data)[0],
        labels=embeddings.labels,
        objectness=embeddings.objectness,
    )


def apply_transform(s, transform: str):
    """Map raw cosine values through the configured range transform.

    raw-cosine: identity on [-1, 1].
    clip-at-zero: max(s, 0).
    affine-shift: (s + 1) / 2.
    """
    if transform == "raw-cosine":
        return s
    if transform == "clip-at-zero":
        return np.maximum(s, 0.0)
    if transform == "affine-shift":
        return (s + 1.0) / 2.0
    raise ValueError(f"unknown transform {transform!r}")


@dataclass(frozen=True)
class SimilarityKernel:
    """Symmetric pairwise similarity matrix with its transform and diagonal shift.

    epsilon is the diagonal regularizer used by log-det objectives; it is
    stored here but only added to the diagonal at evaluation time.
    """

    matrix: np.ndarray
    transform: str = "raw-cosine"
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"kernel matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("kernel matrix contains non-finite values")
        if m.size and np.abs(m - m.T).max() > 1e-12:
            raise ValueError("kernel matrix is not symmetric")
        if self.transform not in TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}")
        if self.transform in ("clip-at-zero", "affine-shift") and m.size:
            if m.min() < -1e-12 or m.max() > 1.0 + 1e-12:
                raise ValueError("transformed kernel entries must lie in [0, 1]")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be non-negative")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors (error on zero vectors)."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine of zero-norm vector")
    return float(np.dot(a, b) / (na * nb))


def cosine_kernel(
    embeddings: EmbeddingSet,
    transform: str = "raw-cosine",
    epsilon: float = 0.0,
) -> SimilarityKernel:
    """Pairwise cosine similarities of all rows, optionally range-transformed.

    The Gram matrix is symmetrized and its diagonal pinned to the transform
    of 1.0 so roundoff cannot leak into downstream log-det factorizations.
    """
    unit = row_normalize(embeddings).data
    gram = unit @ unit.T
    gram = np.clip((gram + gram.T) / 2.0, -1.0, 1.0)
    mat = np.asarray(apply_transform(gram, transform), dtype=np.float64)
    np.fill_diagonal(mat, float(apply_transform(1.0, transform)))
    return SimilarityKernel(mat, transform=transform, epsilon=epsilon)


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
# comments.  Floats are written with repr() so re-runs are byte-identical.


def _fmt(x: float) -> str:
    return repr(float(x))


def write_embeddings_csv(
    embeddings: EmbeddingSet, path: str | Path, header_comment: str | None = None
) -> None:
    path = Path(path)
    cols = [f"f{j}" for j in range(embeddings.d)]
    if embeddings.labels is not None:
        cols.append("label")
    if embeddings.objectness is not None:
        cols.append("objectness")
    with path.open("w", newline="") as fh:
        if header_comment is not None:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for i in range(embeddings.n):
            row = [_fmt(v) for v in embeddings.data[i]]
            if embeddings.labels is not None:
                row.append(str(int(embeddings.labels[i])))
            if embeddings.objectness is not None:
                row.append(_fmt(embeddings.objectness[i]))
            writer.writerow(row)


def read_embeddings_csv(path: str | Path) -> EmbeddingSet:
    path = Path(path)
    with path.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    header = [c.strip() for c in rows[0]]
    d = sum(1 for c in header if c.startswith("f") and c[1:].isdigit())
    expected = [f"f{j}" for j in range(d)]
    if d == 0 or header[:d] != expected:
        raise ValueError(f"{path}: malformed header {header!r}")
    extras = header[d:]
    has_label = "label" in extras
    has_obj = "objectness" in extras
    if extras != [c for c in ("label", "objectness") if (c == "label" and has_label) or (c == "objectness" and has_obj)]:
        raise ValueError(f"{path}: malformed header {header!r}")
    data, labels, objectness = [], [], []
    for r in rows[1:]:
        if len(r) != len(header):
            raise ValueError(f"{path}: row has {len(r)} fields, expected {len(header)}")
        vals = [float(x) for x in r]
        data.append(vals[:d])
        pos = d
        if has_label:
            labels.append(int(vals[pos]))
            pos += 1
        if has_obj:
            objectness.append(vals[pos])
    return EmbeddingSet(
        np.asarray(data),
        labels=np.asarray(labels) if has_label else None,
        objectness=np.asarray(objectness) if has_obj else None,
    )
