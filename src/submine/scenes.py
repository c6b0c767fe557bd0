"""Seeded synthetic scenes: clustered embeddings with labels and objectness.

Every cluster draws from its own counter-based PRNG stream (Philox keyed by
(seed, stream tag)), so adding or resizing one cluster never perturbs the
draws of another and scenes are reproducible across platforms.  Layout is
fixed: known items first (class by class), then unknowns, then backgrounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    BACKGROUND_LABEL, SEED_MAX, UNKNOWN_LABEL, EmbeddingSet, IndexSet, check_budget, check_number,
)

# Stream tags; known class c uses tag c, so keep these out of reach.
_TAG_UNKNOWN = 1 << 20
_TAG_BACKGROUND = (1 << 20) + 1
_TAG_SEP_KNOWN = (1 << 20) + 2
_TAG_SEP_UNKNOWN = (1 << 20) + 3


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, tag], dtype=np.uint64)))


def _floats(name: str, values, d: int | None = None, lo=-math.inf, hi=math.inf, depth=1) -> tuple:
    """The list `values` as a tuple of floats in [lo, hi], d of them if d is given, or
    at depth 2 a tuple of such tuples; an error names its place: cluster_means[1][0]."""
    try:
        items = tuple(values)
    except TypeError:
        raise TypeError(f"{name} must be a list, not {type(values).__name__}") from None
    if depth > 1:
        return tuple(_floats(f"{name}[{i}]", v, d, lo, hi) for i, v in enumerate(items))
    if d is not None and len(items) != d:
        raise ValueError(f"{name} of length {len(items)} does not match d={d}")
    return tuple(float(check_number(f"{name}[{i}]", v, lo, hi)) for i, v in enumerate(items))


@dataclass(frozen=True)
class SceneSpec:
    """Geometry and size knobs for one synthetic scene.

    cluster_means lists the known class centers followed by the unknown
    cluster center (so it needs at least two entries).  The background cloud
    is a broad normal blob; its objectness band deliberately overlaps the
    filter threshold region so the objectness filter stays non-trivial.
    A scene whose n_total x d float64 embeddings exceed
    `kernels.MAX_KERNEL_BYTES` is refused before anything is drawn.
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
        check_number("seed", self.seed, 0, SEED_MAX, integer=True)
        for name, lo in (("d", 1), ("n_total", 0), ("n_known", 1), ("n_unknown", 0)):
            check_number(name, getattr(self, name), lo, integer=True)
        for name in ("cluster_stddev", "background_stddev"):
            check_number(name, getattr(self, name), 0)
        nbytes = 8 * self.n_total * self.d  # float64 embeddings
        check_budget(nbytes, f"n_total x d = {self.n_total} x {self.d} embeddings need {nbytes:,} bytes")
        if self.n_total < self.n_known + self.n_unknown:
            raise ValueError("n_total smaller than n_known plus n_unknown")
        for name, depth in (("cluster_means", 2), ("background_mean", 1)):
            object.__setattr__(self, name, _floats(name, getattr(self, name), self.d, depth=depth))
        if len(self.cluster_means) < 2:
            raise ValueError("cluster_means needs at least one known center and one unknown center")
        for name in ("objectness_known", "objectness_unknown", "objectness_background"):
            band = _floats(name, getattr(self, name), lo=0, hi=1)
            if len(band) != 2 or band[0] > band[1]:
                raise ValueError(f"{name} must be a band [lo, hi] with 0 <= lo <= hi <= 1, got {band}")

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
    check_number("seed", seed, 0, SEED_MAX, integer=True)
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
