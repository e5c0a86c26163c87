"""Ground-truth builder for forms mixing a printed section with handwritten
lines: tokenize the printed paragraph, then append the handwritten tokens in
page order.
"""

from __future__ import annotations

from .docmodel import Transcription
from .lexicon import tokenize

PRINTED_MARKER = "[printed]"
HANDWRITTEN_MARKER = "[handwritten]"


class LabelFormatError(ValueError):
    """A form file is missing one of its section markers."""


def build_mixed_label(printed_paragraph: str, handwritten_lines, source_id: str = "") -> Transcription:
    """Merge the tokenized printed section with handwritten token lines.

    The printed paragraph splits into lines at its hard newlines; every
    printed and handwritten label must run through the same tokenizer, so
    word boundaries agree between targets and normalized predictions.
    """
    lines: list[tuple[str, ...]] = []
    for raw_line in printed_paragraph.splitlines():
        tokens = tokenize(raw_line)
        if tokens:
            lines.append(tuple(tokens))
    for tokens in handwritten_lines:
        tokens = tuple(tokens)
        if tokens:
            lines.append(tokens)
    return Transcription(tuple(lines), source_id)


def parse_iam_ascii(form_text: str) -> tuple[str, list[list[str]]]:
    """Split a form file into its printed paragraph and handwritten token lines.

    Layout: header lines, a printed-section marker line, the printed
    paragraph, a handwritten-section marker line, then one record per
    handwritten line (tokens separated by `|` or whitespace). Blank lines
    between sections are tolerated.
    """
    lines = form_text.splitlines()
    markers: dict[str, int] = {}
    for idx, line in enumerate(lines):
        markers.setdefault(line.strip(), idx)
    if PRINTED_MARKER not in markers:
        raise LabelFormatError(f"missing printed-section marker {PRINTED_MARKER!r}")
    if HANDWRITTEN_MARKER not in markers:
        raise LabelFormatError(f"missing handwritten-section marker {HANDWRITTEN_MARKER!r}")
    printed_start = markers[PRINTED_MARKER] + 1
    handwritten_start = markers[HANDWRITTEN_MARKER]
    if handwritten_start < printed_start:
        raise LabelFormatError("handwritten section precedes printed section")

    printed_block = lines[printed_start:handwritten_start]
    while printed_block and not printed_block[0].strip():
        printed_block.pop(0)
    while printed_block and not printed_block[-1].strip():
        printed_block.pop()
    printed_paragraph = "\n".join(printed_block)

    handwritten: list[list[str]] = []
    for record in lines[handwritten_start + 1:]:
        if "|" in record:
            tokens = [tok.strip() for tok in record.split("|") if tok.strip()]
        else:
            tokens = record.split()
        if tokens:
            handwritten.append(tokens)
    return printed_paragraph, handwritten
