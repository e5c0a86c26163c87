"""Tokenization, dictionary lookups, and the spell-check chain that gates
handwriting recognition and validates its output.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections.abc import Collection
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .docmodel import UNK, TextFileError, read_text
from .metrics import bit_vector_distance, levenshtein, pattern_masks

LEADING_PUNCT = set("(\"'([{")
TRAILING_PUNCT = set(".,;:!?\"')]}")
LANE_BITS = 64
SIGNATURE_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def tokenize(text: str) -> list[str]:
    """Split on whitespace, then detach boundary punctuation as own tokens.

    Leading characters in LEADING_PUNCT and trailing characters in
    TRAILING_PUNCT peel off iteratively; internal apostrophes and hyphens
    stay put. Angle brackets are stripped entirely, which is what makes the
    UNK sentinel impossible to produce from real text.
    """
    tokens: list[str] = []
    for chunk in text.split():
        chunk = chunk.replace("<", "").replace(">", "")
        lead: list[str] = []
        while chunk and chunk[0] in LEADING_PUNCT:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail: list[str] = []
        while chunk and chunk[-1] in TRAILING_PUNCT:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return tokens


class Dictionary:
    """Immutable word list with frequencies, held as one table: `frequencies`
    maps each word, in the order first given, to its count, 0 when none is
    given; a count for a word not in the list is dropped. `words` is that
    table's keys view."""

    def __init__(self, words, frequencies=None):
        self.frequencies = dict.fromkeys(words, 0)
        for word, count in (frequencies or {}).items():
            if word in self.frequencies:
                self.frequencies[word] = count
        self.words = self.frequencies.keys()
        # the lowercase forms of the words that do not lowercase to themselves
        self._lowered = frozenset(low for w in self.words if (low := w.lower()) != w)
        self._length_index: LengthIndex | None = None
        self._length_index_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.frequencies)

    def contains(self, word: str) -> bool:
        """Case-insensitive membership: whether the word's lowercase form is
        the lowercase form of a dictionary word. A word that lowercases to
        itself stands for its own form in the table; the other words' forms
        are in `_lowered`."""
        low = word.lower()
        return low in self._lowered or (low in self.frequencies and low.lower() == low)

    def length_index(self) -> LengthIndex:
        """The words sorted by length for correction, built on the first
        miss rather than at load, and once even when threads ask together."""
        if self._length_index is None:
            with self._length_index_lock:
                if self._length_index is None:
                    self._length_index = LengthIndex(self.words)
        return self._length_index


class LengthIndex:
    """The words sorted by length, with aligned arrays: their `lengths`, their
    `codes` (row t holds character t of every word as a dense code, and the
    spare code `len(dense)` past a word's end) and their `signatures`. The
    words of a length window are one slice, and one numpy kernel run.

    A word's uint64 signature has bit `code & 63` set for each of its
    characters. A character of the query whose bit no word character sets
    must be substituted or deleted, and the same holds the other way round,
    so `max(popcount(q & ~w), popcount(w & ~q))` never exceeds the edit
    distance (the bag-distance filter of Bartolini, Ciaccia and Patella,
    SPIRE 2002); bits shared by several characters only weaken it."""

    def __init__(self, words: Collection[str]):
        self.dense = {ord(ch): i for i, ch in enumerate(sorted(set("".join(words))))}
        self.words = sorted(words, key=len)
        width = len(self.words[-1]) if self.words else 0
        # starts[n] is the first word of length n or more
        starts = [bisect_left(self.words, n, key=len) for n in range(width + 2)]
        self.lengths = np.repeat(np.arange(width + 1), np.diff(starts))
        spare = len(self.dense)
        self.codes = np.full((width, len(self.words)), spare, dtype=np.min_scalar_type(spare))
        for length, (a, b) in enumerate(zip(starts, starts[1:])):
            text = "".join(self.words[a:b]).translate(self.dense).encode("utf-32-le", "surrogatepass")
            self.codes[:length, a:b] = np.frombuffer(text, dtype="<u4").reshape(b - a, length).T
        self.signatures = np.zeros(len(self.words), dtype=np.uint64)
        for row, first in zip(self.codes, starts[1:]):
            self.signatures[first:] |= SIGNATURE_BITS[row[first:] & 63]

    def signature(self, word: str) -> np.uint64:
        """The word's signature bits, a character no dictionary word holds
        taking the bit of the spare code `len(dense)`."""
        bits = 0
        for ch in word:
            bits |= 1 << (self.dense.get(ord(ch), len(self.dense)) & 63)
        return np.uint64(bits)

    def near(self, word: str, slack: int) -> tuple[np.ndarray, np.ndarray]:
        """The positions in `words` of the words within slack of the word's
        length whose signature bound is within slack, and their distances to
        it. A word of 1 to 64 characters is the pattern of one uint64 lane a
        candidate, read at its length; others go through `levenshtein`."""
        first = np.searchsorted(self.lengths, len(word) - slack)
        signatures = self.signatures[first : np.searchsorted(self.lengths, len(word) + slack, "right")]
        q = self.signature(word)
        keep = first + np.flatnonzero(_within(q & ~signatures, slack) & _within(signatures & ~q, slack))
        if not (0 < len(word) <= LANE_BITS and len(keep)):
            return keep, np.array([levenshtein(word, self.words[i]) for i in keep.tolist()])
        # a character that no dictionary word holds goes to the spare last slot
        table = np.zeros(len(self.dense) + 1, dtype=np.uint64)
        for ch, bits in pattern_masks(word).items():
            table[self.dense.get(ord(ch), -1)] = bits
        ends = self.lengths[keep]
        ones = np.full(len(keep), 2**64 - 1, dtype=np.uint64)
        return keep, bit_vector_distance(table[self.codes[: ends.max(), keep]], len(word), ones, ends)


def _within(bits: np.ndarray, count: int) -> np.ndarray:
    """Whether each uint64 has at most `count` bits set: clear the lowest set
    bit `count` times and see what is left."""
    for _ in range(count):
        bits = bits & (bits - np.uint64(1))
    return bits == 0


def load_dictionary(path: str | Path, frequency_path: str | Path | None = None) -> Dictionary:
    """Read a one-word-per-line dictionary, optionally with word<TAB>count
    frequencies. Words are stripped on both files; a count for a word that is
    not in the dictionary is checked and then ignored."""
    dictionary = Dictionary(filter(None, map(str.strip, read_text(path).splitlines())))
    if frequency_path is not None:
        table = dictionary.frequencies
        for lineno, line in enumerate(read_text(frequency_path).splitlines(), 1):
            if not line.strip():
                continue
            word, _, number = line.partition("\t")
            try:
                count = int(number)
            except ValueError:
                raise TextFileError(f"{frequency_path}:{lineno}: not word<TAB>count") from None
            word = word.strip()
            if word in table:
                table[word] = count
    return dictionary


@dataclass(frozen=True)
class SpellResult:
    """Outcome of checking one word: passed means corrected equals the input."""

    corrected: str
    passed: bool
    checker_id: str


def spell_check(
    word: str,
    dictionary: Dictionary,
    max_edit: int = 2,
    checker_id: str = "builtin",
) -> SpellResult:
    """Dictionary check with bounded edit-distance correction.

    Known words pass unchanged. Unknown words are corrected to the nearest
    dictionary word within max_edit, ties broken by smaller distance, then
    higher corpus frequency, then lexicographic order; with no candidate the
    correction is the UNK sentinel. Single punctuation characters always
    pass, as do digit-bearing tokens.
    """
    if max_edit not in (1, 2):
        raise ValueError(f"max_edit must be 1 or 2, got {max_edit}")
    if len(word) == 1 and not word.isalnum():
        return SpellResult(word, True, checker_id)
    if any(ch.isdigit() for ch in word):
        return SpellResult(word, True, checker_id)
    if dictionary.contains(word):
        return SpellResult(word, True, checker_id)

    index = dictionary.length_index()
    keep, distances = index.near(word, max_edit)
    close = distances <= max_edit
    keys = [
        (distance, -dictionary.frequencies[index.words[i]], index.words[i])
        for i, distance in zip(keep[close].tolist(), distances[close].tolist())
    ]
    return SpellResult(min(keys, default=(0, 0, UNK))[2], False, checker_id)


@dataclass(frozen=True)
class SpellChecker:
    """One configured checker in the chain."""

    dictionary: Dictionary
    max_edit: int = 2
    checker_id: str = "builtin"

    def check(self, word: str) -> SpellResult:
        return spell_check(word, self.dictionary, self.max_edit, self.checker_id)


def spell_chain(word: str, checkers) -> SpellResult:
    """Run checkers in order: first pass wins, else first real correction,
    else the UNK result."""
    checkers = list(checkers)
    if not checkers:
        raise ValueError("spell_chain needs at least one checker")
    results = []
    for checker in checkers:
        result = checker.check(word)
        if result.passed:
            return result
        results.append(result)
    for result in results:
        if result.corrected != UNK:
            return result
    return results[0]


def dictionary_score(words, dictionary: Dictionary) -> float:
    """Fraction of alphabetic tokens (length >= 2) found in the dictionary."""
    qualifying = [w for w in words if len(w) >= 2 and w.isalpha()]
    if not qualifying:
        return 0.0
    hits = sum(1 for w in qualifying if dictionary.contains(w))
    return hits / len(qualifying)
