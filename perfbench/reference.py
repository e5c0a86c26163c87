"""Reference answers for the planted corpus, computed without mixtext.lexicon
or mixtext.nomination.

Every expected options list and final word the benchmark checks comes from
here: spell-check outcomes are proved from the dictionary alphabet or by
enumerating one-edit neighbours, and context nomination is re-implemented
from its documented definition (FNV-1a seeded splitmix64 hash vectors,
bi-gram means, cosine matrix, first-row tie-break).
"""

from __future__ import annotations

import numpy as np

UNK = "<UNK>"
GARBLE_LETTERS = "qxz"
MAX_EDIT = 2
TIE_EPSILON = 1e-9
HASH_DIM = 16

_MASK = 0xFFFFFFFFFFFFFFFF
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class Lexicon:
    """A dictionary as the reference sees it: words, frequencies, and the
    largest number of garble letters any word holds."""

    def __init__(self, words, frequencies=None):
        self.words = frozenset(words)
        self.casefolded = frozenset(w.lower() for w in self.words)
        self.frequencies = dict(frequencies or {})
        self.max_garble_letters = max(
            (sum(ch in GARBLE_LETTERS for ch in w) for w in self.words), default=0
        )
        self.garble_heavy = [
            w for w in self.words if sum(ch in GARBLE_LETTERS for ch in w) > 0
        ]

    def passes(self, word: str) -> bool:
        return word in self.words or word.lower() in self.casefolded


def edit_distance(a: str, b: str) -> int:
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def has_no_correction(garble: str, lexicon: Lexicon) -> bool:
    """True when no dictionary word lies within MAX_EDIT of a garble made of
    q/x/z only.

    An alignment can match at most as many characters as the word holds
    garble letters, so the distance is at least len(garble) minus that
    count; only words that could beat the bound are checked exactly.
    """
    assert garble and set(garble) <= set(GARBLE_LETTERS), garble
    if len(garble) - lexicon.max_garble_letters > MAX_EDIT:
        return True
    for word in lexicon.garble_heavy:
        if abs(len(word) - len(garble)) > MAX_EDIT:
            continue
        if len(garble) - sum(ch in GARBLE_LETTERS for ch in word) > MAX_EDIT:
            continue
        if edit_distance(garble, word) <= MAX_EDIT:
            return False
    return True


def _edits1(word: str) -> set[str]:
    splits = [(word[:i], word[i:]) for i in range(len(word) + 1)]
    deletes = {left + right[1:] for left, right in splits if right}
    replaces = {left + c + right[1:] for left, right in splits if right for c in _LETTERS}
    inserts = {left + c + right for left, right in splits for c in _LETTERS}
    return deletes | replaces | inserts


def one_edit_correction(word: str, lexicon: Lexicon) -> str | None:
    """Correction of a word that fails the check but has a dictionary word
    one edit away: the closest candidates are exactly the one-edit
    neighbours in the dictionary, ordered by -frequency then spelling.
    Returns None when the word passes or has no one-edit neighbour."""
    if lexicon.passes(word):
        return None
    candidates = _edits1(word) & lexicon.words
    if not candidates:
        return None
    return min(candidates, key=lambda w: (-lexicon.frequencies.get(w, 0), w))


# --- rule nomination ---------------------------------------------------------


def options_members(options: tuple) -> list[str]:
    a, b, c, d = options
    if c is None:
        return [a]
    if d == c and c != UNK:
        return [a, b, c]
    return [a, b, c, d]


def nominate_rule(options: tuple) -> str:
    a, b, c, d = options
    members = options_members(options)
    if len(members) == 1:
        return a
    if len(members) == 3:
        return c
    if d != UNK:
        return d
    if b != UNK:
        return b
    return a


# --- context nomination with the hash embedding -------------------------------


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def _hash_vector(word: str, cache: dict) -> np.ndarray:
    if word == "":
        return np.zeros(HASH_DIM)
    vec = cache.get(word)
    if vec is not None:
        return vec
    state = _fnv1a64(word.encode("utf-8"))
    values = np.empty(HASH_DIM)
    for i in range(HASH_DIM):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        values[i] = ((z ^ (z >> 31)) >> 11) / float(1 << 53) * 2.0 - 1.0
    norm = float(np.linalg.norm(values))
    if norm == 0.0:
        values[0] = 1.0
        norm = 1.0
    values /= norm
    cache[word] = values
    return values


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def nominate_context(options_seq: list[tuple]) -> list[str]:
    """Left-to-right context nomination over one page's options lists."""
    cache: dict = {}

    def bigram(w1: str, w2: str) -> np.ndarray:
        return (_hash_vector(w1.casefold(), cache) + _hash_vector(w2.casefold(), cache)) / 2.0

    words: list[str] = []
    previous = ""
    for idx, options in enumerate(options_seq):
        current = options_members(options)
        following = options_members(options_seq[idx + 1]) if idx + 1 < len(options_seq) else [""]
        row_vectors = [bigram(previous, cur) for cur in current]
        col_vectors = [bigram(cur, nxt) for cur in current for nxt in following]
        best_row, best_value = 0, None
        for i, rv in enumerate(row_vectors):
            for cv in col_vectors:
                value = _cosine(rv, cv)
                if best_value is None or value > best_value + TIE_EPSILON:
                    best_value, best_row = value, i
        previous = current[best_row]
        words.append(previous)
    return words
