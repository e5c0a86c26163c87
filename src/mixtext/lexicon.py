"""Tokenization, dictionary lookups, and the spell-check chain that gates
handwriting recognition and validates its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .docmodel import UNK, TextFileError, read_text
from .metrics import levenshtein

LEADING_PUNCT = set("(\"'([{")
TRAILING_PUNCT = set(".,;:!?\"')]}")


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
    """Immutable word list with a lowercase index and optional frequencies."""

    def __init__(self, words, frequencies=None):
        self.words = frozenset(words)
        self.casefold_index = frozenset(w.lower() for w in self.words)
        self.frequencies = dict(frequencies) if frequencies else {}
        by_length: dict[int, list[str]] = {}
        for w in self.words:
            by_length.setdefault(len(w), []).append(w)
        self._by_length = by_length

    def __len__(self) -> int:
        return len(self.words)

    def contains(self, word: str) -> bool:
        """Case-insensitive membership; the index holds every word in lower case."""
        return word.lower() in self.casefold_index

    def words_near_length(self, length: int, slack: int):
        for n in range(max(0, length - slack), length + slack + 1):
            yield from self._by_length.get(n, ())


def load_dictionary(path: str | Path, frequency_path: str | Path | None = None) -> Dictionary:
    """Read a one-word-per-line dictionary, optionally with word<TAB>count frequencies."""
    words = [line.strip() for line in read_text(path).splitlines()]
    frequencies = {}
    if frequency_path is not None:
        for lineno, line in enumerate(read_text(frequency_path).splitlines(), 1):
            if not line.strip():
                continue
            word, _, count = line.partition("\t")
            try:
                frequencies[word] = int(count)
            except ValueError:
                raise TextFileError(f"{frequency_path}:{lineno}: not word<TAB>count") from None
    return Dictionary((w for w in words if w), frequencies)


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
    bypass_digits: bool = True,
) -> SpellResult:
    """Dictionary check with bounded edit-distance correction.

    Known words pass unchanged. Unknown words are corrected to the nearest
    dictionary word within max_edit, ties broken by smaller distance, then
    higher corpus frequency, then lexicographic order; with no candidate the
    correction is the UNK sentinel. Single punctuation characters always
    pass, as do digit-bearing tokens unless bypass_digits is off.
    """
    if max_edit not in (1, 2):
        raise ValueError(f"max_edit must be 1 or 2, got {max_edit}")
    if len(word) == 1 and not word.isalnum():
        return SpellResult(word, True, checker_id)
    if bypass_digits and any(ch.isdigit() for ch in word):
        return SpellResult(word, True, checker_id)
    if dictionary.contains(word):
        return SpellResult(word, True, checker_id)

    best: tuple[int, int, str] | None = None
    for candidate in dictionary.words_near_length(len(word), max_edit):
        dist = levenshtein(word, candidate, max_edit)
        if dist is None:
            continue
        key = (dist, -dictionary.frequencies.get(candidate, 0), candidate)
        if best is None or key < best:
            best = key
    if best is None:
        return SpellResult(UNK, False, checker_id)
    return SpellResult(best[2], False, checker_id)


@dataclass(frozen=True)
class SpellChecker:
    """One configured checker in the chain."""

    dictionary: Dictionary
    max_edit: int = 2
    checker_id: str = "builtin"
    bypass_digits: bool = True

    def check(self, word: str) -> SpellResult:
        return spell_check(word, self.dictionary, self.max_edit, self.checker_id, self.bypass_digits)


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
