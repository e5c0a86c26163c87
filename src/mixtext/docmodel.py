"""Core document data types shared by the whole pipeline."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

# Sentinel emitted by spell checking when no correction exists. Tokenization
# strips angle brackets, so no real token can collide with it.
UNK = "<UNK>"


class InvariantError(ValueError):
    """A value violates one of the documented shape rules."""


class TextFileError(ValueError):
    """An input text file is not UTF-8, or one of its lines is malformed."""


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file; other bytes raise TextFileError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TextFileError(f"{path}: not UTF-8 text ({exc})") from None


@dataclass(frozen=True)
class WordBox:
    """A recognized word plus its pixel bounding box and page position."""

    text: str
    bbox: tuple[int, int, int, int]  # (x0, y0, x1, y1), origin top-left, x1/y1 exclusive
    line_index: int
    word_index: int
    confidence: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "bbox", tuple(self.bbox))
        x0, y0, x1, y1 = self.bbox
        if not (x0 < x1 and y0 < y1):
            raise InvariantError(f"degenerate bbox {self.bbox!r}")
        if self.line_index < 0 or self.word_index < 0:
            raise InvariantError("line_index and word_index must be non-negative")

    @property
    def position(self) -> tuple[int, int]:
        return (self.line_index, self.word_index)


@dataclass(frozen=True)
class OptionsList:
    """Per-word candidate set: machine OCR output (a), its spell check (b),
    handwriting output (c), and its spell check (d).

    Construction is permissive; :func:`options_size` validates the shape.
    """

    a: str
    b: str | None = None
    c: str | None = None
    d: str | None = None


def options_size(options: OptionsList) -> int:
    """Logical size of an options list: 1, 3, or 4.

    Size 1: the machine-printed word passed spell checking (b == a, no
    handwriting pass ran). Size 3: the handwriting output passed its spell
    check (d == c, not the UNK sentinel). Size 4: it did not (d differs
    from c, or the handwriting stage itself failed and both hold UNK).

    Raises InvariantError for any other shape.
    """
    a, b, c, d = options.a, options.b, options.c, options.d
    if c is None and d is None:
        if b == a and b is not None:
            return 1
        raise InvariantError(f"size-1 shape requires b == a, got {options!r}")
    if c is None or d is None:
        raise InvariantError(f"c and d must be stored together, got {options!r}")
    if b is None or (b == a and b != UNK):
        raise InvariantError(
            f"handwriting options present although machine word passed gating: {options!r}"
        )
    if d == c and c != UNK:
        return 3
    return 4


def options_members(options: OptionsList) -> list[str]:
    """The distinct candidate words, in A, B, C, D order.

    Size 1 collapses to [a], size 3 to [a, b, c] (d duplicates c), size 4
    keeps all four slots.
    """
    return [options.a, options.b, options.c, options.d][: options_size(options)]


@dataclass(frozen=True)
class Transcription:
    """Ordered words with line structure; used for predictions and targets."""

    lines: tuple[tuple[str, ...], ...]
    source_id: str = ""

    def __post_init__(self):
        norm = tuple(tuple(line) for line in self.lines)
        object.__setattr__(self, "lines", norm)
        for line in norm:
            for word in line:
                if word == "":
                    raise InvariantError("empty word in transcription")

    def word_count(self) -> int:
        return sum(len(line) for line in self.lines)

    def to_text(self) -> str:
        """One line per entry, words space-separated, trailing newline."""
        if not self.lines:
            return ""
        return "\n".join(" ".join(line) for line in self.lines) + "\n"

    @classmethod
    def from_text(cls, text: str, source_id: str = "") -> "Transcription":
        return cls(tuple(tuple(ln.split()) for ln in text.splitlines()), source_id)

    @classmethod
    def read(cls, path: Path) -> "Transcription":
        """A transcription file; its stem is the source id."""
        return cls.from_text(read_text(path), path.stem)


def flatten(t: Transcription) -> list[str]:
    """All words in (line, word) order."""
    return [word for line in t.lines for word in line]


def unflatten(words: list[str], line_lengths: list[int], source_id: str = "") -> Transcription:
    """Rebuild line structure from a flat word list; inverse of flatten."""
    if any(n < 0 for n in line_lengths):
        raise InvariantError(f"negative line length in {line_lengths}")
    if sum(line_lengths) != len(words):
        raise InvariantError(
            f"line lengths sum to {sum(line_lengths)}, got {len(words)} words"
        )
    lines = []
    pos = 0
    for n in line_lengths:
        lines.append(tuple(words[pos:pos + n]))
        pos += n
    return Transcription(tuple(lines), source_id)


@dataclass(frozen=True)
class PageRecord:
    """Everything the pipeline derived for one page; checkpointable as JSON."""

    source_id: str
    image_path: str
    word_boxes: tuple[WordBox, ...]
    options: dict[tuple[int, int], OptionsList]
    final: Transcription

    def __post_init__(self):
        object.__setattr__(self, "word_boxes", tuple(self.word_boxes))
        positions = [wb.position for wb in self.word_boxes]
        if len(set(positions)) != len(positions):
            raise InvariantError("duplicate (line_index, word_index) in page")
        known = set(positions)
        for key in self.options:
            if key not in known:
                raise InvariantError(f"options key {key} has no word box")
        if self.final.word_count() != len(self.word_boxes):
            raise InvariantError(
                f"final has {self.final.word_count()} words for {len(self.word_boxes)} boxes"
            )

    def to_json(self) -> str:
        """The checkpoint: the dataclass fields, options keyed `"line,word"`."""
        doc = asdict(self)
        doc["options"] = {f"{li},{wi}": o for (li, wi), o in sorted(doc["options"].items())}
        return json.dumps(doc, ensure_ascii=False, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PageRecord":
        """Inverse of to_json; a key that names no field raises TypeError."""
        doc = json.loads(text)
        return cls(**{
            **doc,
            "word_boxes": [WordBox(**w) for w in doc["word_boxes"]],
            "options": {
                tuple(map(int, key.split(","))): OptionsList(**o)
                for key, o in doc["options"].items()
            },
            "final": Transcription(**doc["final"]),
        })
