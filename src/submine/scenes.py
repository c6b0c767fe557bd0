"""Seeded synthetic scenes: clustered embeddings with labels and objectness.

Every cluster draws from its own counter-based PRNG stream (Philox keyed by
(seed, stream tag)), so adding or resizing one cluster never perturbs the
draws of another and scenes are reproducible across platforms.  Layout is
fixed: known items first (class by class), then unknowns, then backgrounds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .discovery import MAX_KERNEL_BYTES
from .kernels import BACKGROUND_LABEL, UNKNOWN_LABEL, EmbeddingSet, IndexSet

# Stream tags; known class c uses tag c, so keep these out of reach.
_TAG_UNKNOWN = 1 << 20
_TAG_BACKGROUND = (1 << 20) + 1
_TAG_SEP_KNOWN = (1 << 20) + 2
_TAG_SEP_UNKNOWN = (1 << 20) + 3
# Seeds are u64, one Philox key word.
_SEED_END = 1 << 64


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, tag], dtype=np.uint64)))


def _check_integer(name: str, value, lo: int, end: float = math.inf) -> None:
    """Refuse a value that is not an integer in [lo, end), naming the key: a
    number raises ValueError, anything else TypeError."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"must be an integer, not {type(value).__name__}")
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and lo <= value < end):
        raise ValueError(f"{name} must be an integer in [{lo}, {end}), got {value!r}")


@dataclass(frozen=True)
class SceneSpec:
    """Geometry and size knobs for one synthetic scene.

    cluster_means lists the known class centers followed by the unknown
    cluster center (so it needs at least two entries).  The background cloud
    is a broad normal blob; its objectness band deliberately overlaps the
    filter threshold region so the objectness filter stays non-trivial.
    A scene whose n_total x d float64 embeddings exceed
    `discovery.MAX_KERNEL_BYTES` is refused before anything is drawn.
    """

    seed: int = 0
    d: int = 2
    n_total: int = 500
    n_known: int = 10
    n_unknown: int = 60
    cluster_means: tuple[tuple[float, ...], ...] = ((6.5, 0.0), (2.05, 5.64))
    cluster_stddev: float = 1.4
    background_mean: tuple[float, ...] = (-2.82, -1.03)
    background_stddev: float = 2.8
    objectness_known: tuple[float, float] = (0.7, 1.0)
    objectness_unknown: tuple[float, float] = (0.3, 0.8)
    objectness_background: tuple[float, float] = (0.0, 0.3)

    def __post_init__(self) -> None:
        _check_integer("seed", self.seed, 0, _SEED_END)
        for name, lo in (("d", 1), ("n_total", 0), ("n_known", 1), ("n_unknown", 0)):
            _check_integer(name, getattr(self, name), lo)
        nbytes = 8 * self.n_total * self.d  # float64 embeddings
        if nbytes > MAX_KERNEL_BYTES:
            raise ValueError(
                f"n_total x d = {self.n_total} x {self.d} embeddings need {nbytes:,} bytes, "
                f"above the {MAX_KERNEL_BYTES:,}-byte budget"
            )
        if len(self.cluster_means) < 2:
            raise ValueError("need at least one known center and one unknown center")
        means = tuple(tuple(float(x) for x in m) for m in self.cluster_means)
        for m in means:
            if len(m) != self.d:
                raise ValueError(f"cluster mean of length {len(m)} does not match d={self.d}")
        object.__setattr__(self, "cluster_means", means)
        bg = tuple(float(x) for x in self.background_mean)
        if len(bg) != self.d:
            raise ValueError(f"background mean of length {len(bg)} does not match d={self.d}")
        object.__setattr__(self, "background_mean", bg)
        if self.cluster_stddev < 0.0 or self.background_stddev < 0.0:
            raise ValueError("stddev must be non-negative")
        if self.n_total < self.n_known + self.n_unknown:
            raise ValueError("n_total smaller than known plus unknown items")
        for lo, hi in (
            self.objectness_known,
            self.objectness_unknown,
            self.objectness_background,
        ):
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError("objectness bands must satisfy 0 <= lo <= hi <= 1")

    @property
    def n_classes(self) -> int:
        return len(self.cluster_means) - 1

    @property
    def n_background(self) -> int:
        return self.n_total - self.n_known - self.n_unknown


def _split_counts(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def gen_scene(spec: SceneSpec) -> EmbeddingSet:
    """One scene from the given SceneSpec: data, labels, objectness scores."""
    counts = _split_counts(spec.n_known, spec.n_classes)
    # Per cluster, in layout order: stream tag, count, mean, stddev, objectness band, label.
    clusters = [
        (c, counts[c], spec.cluster_means[c], spec.cluster_stddev, spec.objectness_known, c + 1)
        for c in range(spec.n_classes)
    ] + [
        (_TAG_UNKNOWN, spec.n_unknown, spec.cluster_means[-1], spec.cluster_stddev,
         spec.objectness_unknown, UNKNOWN_LABEL),
        (_TAG_BACKGROUND, spec.n_background, spec.background_mean, spec.background_stddev,
         spec.objectness_background, BACKGROUND_LABEL),
    ]
    blocks, labels, scores = [], [], []
    for tag, count, mean, stddev, (lo, hi), label in clusters:
        rng = _stream(spec.seed, tag)
        blocks.append(np.asarray(mean) + stddev * rng.standard_normal((count, spec.d)))
        labels += [label] * count
        scores.append(rng.uniform(lo, hi, size=count))
    return EmbeddingSet(
        np.vstack(blocks),
        labels=np.asarray(labels, dtype=np.int64),
        objectness=np.concatenate(scores),
    )


@dataclass(frozen=True)
class SeparationCase:
    """One angular-separation case: same clusters, unknown center rotated."""

    angle: float
    embeddings: EmbeddingSet
    known: IndexSet
    unknown: IndexSet

    @property
    def all_items(self) -> IndexSet:
        return IndexSet.of(range(self.embeddings.n))


def gen_separation_cases(seed: int = 0, n_cases: int = 3) -> list[SeparationCase]:
    """Cases with growing angular separation between known and unknown clusters.

    The known cluster and both noise draws are shared bit-for-bit across
    cases; only the unknown center moves along a circle of fixed radius, so
    any change between cases is attributable to the separation alone.  The
    geometry is fixed: 10 known and 100 unknown items in d = 128, which
    keeps the full Gram matrix nonsingular (d >= 110) as log-determinant
    cross terms need; radius 6, noise stddev 0.4, and case j's angle
    pi/7.2 + j pi/4.5, which stays below pi for up to 4 cases.
    """
    _check_integer("seed", seed, 0, _SEED_END)
    d, n_known, n_unknown, radius, stddev = 128, 10, 100, 6.0, 0.4
    base_angle, angle_step = math.pi / 7.2, math.pi / 4.5
    if n_cases < 1:
        raise ValueError("need at least one case")
    if base_angle + (n_cases - 1) * angle_step >= math.pi:
        raise ValueError("angles must stay inside (0, pi)")
    known_noise = stddev * _stream(seed, _TAG_SEP_KNOWN).standard_normal((n_known, d))
    unknown_noise = stddev * _stream(seed, _TAG_SEP_UNKNOWN).standard_normal((n_unknown, d))
    k_center = np.zeros(d)
    k_center[0] = radius
    known_pts = k_center + known_noise
    cases = []
    for j in range(n_cases):
        angle = base_angle + j * angle_step
        u_center = np.zeros(d)
        u_center[:2] = radius * math.cos(angle), radius * math.sin(angle)
        data = np.vstack([known_pts, u_center + unknown_noise])
        labels = np.asarray([1] * n_known + [UNKNOWN_LABEL] * n_unknown)
        cases.append(
            SeparationCase(
                angle=angle,
                embeddings=EmbeddingSet(data, labels=labels),
                known=IndexSet.of(range(n_known)),
                unknown=IndexSet.of(range(n_known, n_known + n_unknown)),
            )
        )
    return cases
