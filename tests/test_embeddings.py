import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from mixtext.embeddings import (
    EmbeddingError,
    EmbeddingModel,
    cosine,
    embed_bigram,
    embed_document,
    hash_model,
    load_model,
)


def reference_hash_vector(word: str, dim: int) -> np.ndarray:
    """Independent re-derivation of the hash backend: FNV-1a seed, splitmix64
    stream, components in [-1, 1), normalized."""
    state = 0xCBF29CE484222325
    for byte in word.encode("utf-8"):
        state = ((state ^ byte) * 0x100000001B3) % 2**64
    values = []
    for _ in range(dim):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        z = z ^ (z >> 31)
        values.append((z >> 11) / 2**53 * 2.0 - 1.0)
    arr = np.array(values)
    return arr / np.linalg.norm(arr)


def basis_model():
    return EmbeddingModel(
        dim=2,
        vectors={"cat": np.array([1.0, 0.0]), "dog": np.array([0.0, 1.0])},
    )


def test_load_model(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("cat 1 0\ndog 0 1\n", encoding="utf-8")
    m = load_model(path)
    assert m.dim == 2
    assert set(m.vectors) == {"cat", "dog"}
    assert np.allclose(m.lookup("cat"), [1.0, 0.0])


def test_load_model_header_skipped(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("2 2\ncat 1 0\ndog 0 1\n", encoding="utf-8")
    m = load_model(path)
    assert m.dim == 2 and len(m.vectors) == 2


def test_load_model_dimension_mismatch(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("cat 1 0\ndog 0 1 1\n", encoding="utf-8")
    with pytest.raises(EmbeddingError):
        load_model(path)


def test_load_model_empty_file(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmbeddingError):
        load_model(path)


def test_bigram_is_mean():
    m = basis_model()
    assert np.allclose(embed_bigram(m, "cat", "dog"), [0.5, 0.5])


def test_bigram_oov_is_zero_under_file_backend():
    m = basis_model()
    assert np.allclose(embed_bigram(m, "emu", "yak"), [0.0, 0.0])


def test_bigram_of_word_with_itself():
    m = basis_model()
    assert np.allclose(embed_bigram(m, "cat", "cat"), m.lookup("cat"))


def test_document_mean():
    m = basis_model()
    assert np.allclose(embed_document(m, ["cat", "dog"]), [0.5, 0.5])


def test_document_empty_is_zero():
    assert np.allclose(embed_document(basis_model(), []), [0.0, 0.0])


def test_document_single_word():
    m = basis_model()
    assert np.allclose(embed_document(m, ["cat"]), [1.0, 0.0])


def test_cosine_orthogonal():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_self():
    assert cosine([3.0, 4.0], [3.0, 4.0]) == pytest.approx(1.0, abs=1e-12)


def test_cosine_closed_form():
    assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)


def test_cosine_zero_norm_convention():
    assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0


def test_cosine_length_mismatch():
    with pytest.raises(ValueError):
        cosine([1.0], [1.0, 2.0])


finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


@given(
    u=st.lists(finite, min_size=3, max_size=3),
    v=st.lists(finite, min_size=3, max_size=3),
    alpha=st.floats(min_value=0.01, max_value=50),
    beta=st.floats(min_value=0.01, max_value=50),
)
# squares of components this small underflow inside a plain Euclidean norm
@example(u=[0, 0, 1.18e-158], v=[0, 0, 1], alpha=0.125, beta=1.0)
def test_cosine_scale_invariance(u, v, alpha, beta):
    u = np.array(u)
    v = np.array(v)
    # the premise is that scaling only rounds: no nonzero component of the
    # inputs or of their scaled copies is subnormal or underflows to 0
    for x in (u, v, alpha * u, beta * v):
        assume(np.all((x == 0) | (np.abs(x) >= sys.float_info.min)))
    assert cosine(alpha * u, beta * v) == pytest.approx(cosine(u, v), abs=1e-9)


def test_hash_backend_fixed_vectors():
    m = hash_model(dim=8)
    for word in ("cat", "c4t", "move", "a"):
        expected = reference_hash_vector(word, 8)
        assert np.allclose(m.lookup(word), expected, atol=1e-12)
        assert np.linalg.norm(m.lookup(word)) == pytest.approx(1.0, abs=1e-12)


def test_hash_backend_deterministic_across_instances():
    a = hash_model(dim=16).lookup("word")
    b = hash_model(dim=16).lookup("word")
    assert np.array_equal(a, b)


def test_hash_backend_distinguishes_words():
    m = hash_model(dim=16)
    assert not np.allclose(m.lookup("cat"), m.lookup("cot"))


def test_empty_string_embeds_to_zero_everywhere():
    assert np.allclose(hash_model(8).lookup(""), np.zeros(8))
    assert np.allclose(basis_model().lookup(""), np.zeros(2))


def test_stored_vectors_override_hash():
    m = EmbeddingModel(dim=2, vectors={"cat": np.array([1.0, 0.0])}, backend="hash")
    assert np.allclose(m.lookup("cat"), [1.0, 0.0])


def test_model_validates_vector_shapes():
    with pytest.raises(EmbeddingError):
        EmbeddingModel(dim=3, vectors={"cat": np.array([1.0, 0.0])})
