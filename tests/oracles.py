"""Brute-force reference implementations, independent of the package's code
paths. Tests compare package output against these.
"""

from __future__ import annotations

import numpy as np

from mixtext.imaging import (
    BINARIZE_THRESHOLD,
    DEFAULT_DESKEW_RANGE,
    DEFAULT_DESKEW_STEP,
    RasterImage,
    SkewEstimate,
    rotate,
)


def dp_distance(a: str, b: str) -> int:
    """Full-matrix Levenshtein."""
    rows = len(a) + 1
    cols = len(b) + 1
    dist = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        dist[i][0] = i
    for j in range(cols):
        dist[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dist[i][j] = min(
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
                dist[i - 1][j - 1] + cost,
            )
    return dist[-1][-1]


def multiset_prf(pred: list[str], target: list[str]) -> tuple[float, float, float]:
    """Precision/recall/F over word multisets, counted by explicit removal."""
    remaining = list(target)
    tp = 0
    for word in pred:
        if word in remaining:
            remaining.remove(word)
            tp += 1
    precision = tp / len(pred) if pred else 0.0
    recall = tp / len(target) if target else 0.0
    f_score = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f_score


def mean_vector(vectors: list[np.ndarray], dim: int) -> np.ndarray:
    if not vectors:
        return np.zeros(dim)
    return np.sum(vectors, axis=0) / len(vectors)


def plain_cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu = float(np.sqrt(np.sum(u * u)))
    nv = float(np.sqrt(np.sum(v * v)))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(min(1.0, max(-1.0, np.sum(u * v) / (nu * nv))))


def context_choice(prev: str, current: list[str], following: list[str], lookup) -> str:
    """Re-derive the context nomination from scratch: enumerate every bi-gram
    pair, compute every cosine, take the row of the global maximum.

    Structurally tied entries (think identical candidate words) may differ by
    a few ULPs between independent float computations, so "greater" uses a
    tolerance well below any genuine similarity gap.
    """
    pc_vectors = [
        mean_vector([lookup(prev.casefold()), lookup(c.casefold())], None) for c in current
    ]
    cn_vectors = [
        mean_vector([lookup(c.casefold()), lookup(n.casefold())], None)
        for c in current
        for n in following
    ]
    best_value = None
    best_row = 0
    for i, pc in enumerate(pc_vectors):
        for cn in cn_vectors:
            value = plain_cosine(pc, cn)
            if best_value is None or value > best_value + 1e-9:
                best_value = value
                best_row = i
    return current[best_row]


def rotating_skew(
    img: RasterImage,
    search_range_degrees: float = DEFAULT_DESKEW_RANGE,
    step_degrees: float = DEFAULT_DESKEW_STEP,
) -> SkewEstimate:
    """Correcting angle that maximizes horizontal projection-profile variance,
    found by rotating the whole raster at every grid angle (the method
    `mixtext.imaging.estimate_skew` replaced).

    The image is binarized at the fixed threshold; for every angle on the
    search grid the foreground is rotated and its per-row pixel counts
    histogrammed, and the angle whose profile has the largest variance wins.
    Rotating the image by the returned angle aligns its text lines. A blank
    image scores (0, 0). Ties prefer the smaller absolute angle.
    """
    if not 0 < step_degrees <= search_range_degrees <= 45:
        raise ValueError(
            f"need 0 < step ({step_degrees}) <= range ({search_range_degrees}) <= 45"
        )
    if not np.any(img.to_array() < BINARIZE_THRESHOLD):
        return SkewEstimate(0.0, 0.0)

    steps = int((search_range_degrees + 1e-9) / step_degrees)
    grid = [i * step_degrees for i in range(-steps, steps + 1) if -45.0 < i * step_degrees <= 45.0]
    best: tuple[float, float, float] | None = None  # (score, -|angle|, -angle)
    best_angle = 0.0
    best_score = 0.0
    for angle in grid:
        rotated = img if angle == 0 else rotate(img, angle)
        foreground = rotated.to_array() < BINARIZE_THRESHOLD
        profile = foreground.sum(axis=1)
        occupied = np.nonzero(profile)[0]
        if len(occupied) == 0:
            score = 0.0
        else:
            score = float(profile[occupied[0] : occupied[-1] + 1].var())
        key = (score, -abs(angle), -angle)
        if best is None or key > best:
            best = key
            best_angle, best_score = angle, score
    return SkewEstimate(best_angle, best_score)
