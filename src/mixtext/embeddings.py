"""Word, bi-gram, and document embeddings plus cosine similarity.

Two backends: `file` loads a word-vector text file (OOV words map to the
zero vector); `hash` derives a deterministic unit vector from each word's
bytes, which keeps similarity tests hermetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .docmodel import read_text
from .fnv import fnv1a64

BACKEND_FILE = "file"
BACKEND_HASH = "hash"
DEFAULT_HASH_DIM = 16

_MASK = 0xFFFFFFFFFFFFFFFF


class EmbeddingError(ValueError):
    """Bad word-vector file or mismatched vector shapes."""


@dataclass(frozen=True)
class EmbeddingModel:
    dim: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    backend: str = BACKEND_FILE

    def __post_init__(self):
        if self.dim <= 0:
            raise EmbeddingError(f"dimension must be positive, got {self.dim}")
        if self.backend not in (BACKEND_FILE, BACKEND_HASH):
            raise EmbeddingError(f"unknown backend {self.backend!r}")
        for word, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise EmbeddingError(f"vector for {word!r} has shape {vec.shape}, want ({self.dim},)")

    def lookup(self, word: str) -> np.ndarray:
        """Vector for a word; the empty string is always the zero vector."""
        if word == "":
            return np.zeros(self.dim)
        vec = self.vectors.get(word)
        if vec is not None:
            return vec
        if self.backend == BACKEND_HASH:
            return _hash_vector(word, self.dim)
        return np.zeros(self.dim)


def hash_model(dim: int = DEFAULT_HASH_DIM) -> EmbeddingModel:
    return EmbeddingModel(dim=dim, vectors={}, backend=BACKEND_HASH)


def load_model(path: str | Path) -> EmbeddingModel:
    """Parse a `word v1 .. vd` text file; a leading `N d` header is skipped."""
    rows = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if rows and _looks_like_header(rows[0]):
        rows = rows[1:]
    if not rows:
        raise EmbeddingError(f"{path}: no vectors found")
    vectors: dict[str, np.ndarray] = {}
    dim = None
    for lineno, row in enumerate(rows, 1):
        parts = row.split()
        word, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise EmbeddingError(f"{path}: first line has no vector components")
        elif len(values) != dim:
            raise EmbeddingError(
                f"{path}: line {lineno} has {len(values)} components, expected {dim}"
            )
        try:
            vec = np.array([float(v) for v in values])
        except ValueError as exc:
            raise EmbeddingError(f"{path}: line {lineno}: {exc}") from None
        vec.setflags(write=False)
        vectors[word] = vec
    assert dim is not None
    return EmbeddingModel(dim=dim, vectors=vectors, backend=BACKEND_FILE)


def _looks_like_header(line: str) -> bool:
    parts = line.split()
    if len(parts) != 2:
        return False
    try:
        int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return True


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


@lru_cache(maxsize=65536)
def _hash_vector(word: str, dim: int) -> np.ndarray:
    """Deterministic unit vector: FNV-1a seeds a splitmix64 stream."""
    state = fnv1a64(word.encode("utf-8"))
    values = np.empty(dim)
    for i in range(dim):
        state, out = _splitmix64(state)
        values[i] = (out >> 11) / float(1 << 53) * 2.0 - 1.0
    norm = float(np.linalg.norm(values))
    if norm == 0.0:
        values[0] = 1.0
        norm = 1.0
    values /= norm
    values.setflags(write=False)
    return values


def embed_bigram(model: EmbeddingModel, w1: str, w2: str) -> np.ndarray:
    """Element-wise mean of the two word vectors."""
    return (model.lookup(w1) + model.lookup(w2)) / 2.0


def embed_document(model: EmbeddingModel, words) -> np.ndarray:
    """Element-wise mean over all word vectors; empty input is the zero vector."""
    words = list(words)
    if not words:
        return np.zeros(model.dim)
    total = np.zeros(model.dim)
    for word in words:
        total += model.lookup(word)
    return total / len(words)


def cosine(u, v) -> float:
    """Cosine similarity, defined as 0 when either vector has zero norm."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    # scaling each vector by its largest component keeps the squares inside
    # the norms from underflowing (or overflowing); cosine ignores the scale
    u = _unit_max(u)
    v = _unit_max(v)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _unit_max(x: np.ndarray) -> np.ndarray:
    peak = np.abs(x).max(initial=0.0)
    return x / peak if peak > 0.0 else x
