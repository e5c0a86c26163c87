"""hOCR parsing: word texts and bounding boxes out of OCR engine markup.

Only `ocrx_word` granularity is consumed; words are grouped by their
enclosing `ocr_line` (in document order) to assign (line_index, word_index).
"""

from __future__ import annotations

import xml.parsers.expat
from contextlib import suppress
from dataclasses import dataclass, field
from xml.etree import ElementTree
from xml.sax.saxutils import escape, quoteattr

from .docmodel import WordBox


class HocrParseError(ValueError):
    """Malformed hOCR markup; carries the byte offset of the failure."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte {byte_offset})")
        self.byte_offset = byte_offset


class NoBboxError(ValueError):
    """A title attribute holds no usable bbox property."""


@dataclass
class HocrPage:
    """Parsed page: word boxes plus the raw title fields behind each of them."""

    page_bbox: tuple[int, int, int, int]
    words: list[WordBox]
    raw_title_fields: list[dict[str, str]] = field(default_factory=list)
    skipped_no_bbox: int = 0


def parse_title_fields(title: str) -> dict[str, str]:
    """Split an hOCR title attribute into its semicolon-separated properties."""
    fields: dict[str, str] = {}
    for part in title.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, rest = part.partition(" ")
        fields[key] = rest.strip()
    return fields


def parse_bbox_title(title: str) -> tuple[int, int, int, int]:
    """Extract the four bbox integers from a title attribute."""
    raw = parse_title_fields(title).get("bbox")
    if raw is None:
        raise NoBboxError(f"no bbox property in {title!r}")
    parts = raw.split()
    if len(parts) < 4:
        raise NoBboxError(f"bbox property too short in {title!r}")
    try:
        x0, y0, x1, y1 = (int(p) for p in parts[:4])
    except ValueError:
        raise NoBboxError(f"non-integer bbox in {title!r}") from None
    if min(x0, y0, x1, y1) < 0:
        raise NoBboxError(f"negative bbox coordinate in {title!r}")
    return (x0, y0, x1, y1)


def parse_hocr(document: str) -> HocrPage:
    """Parse hOCR markup into a page of word boxes, in one walk of its tree.

    An `ocr_line` takes the next line index when it is reached. A word takes
    its innermost line or, outside any line, the slot of its innermost
    `ocr_par`, or else the page's one implicit slot; a slot takes the next
    line index at its first word. Words with empty trimmed text are dropped;
    words whose title lacks a bbox are skipped and tallied. The first
    `ocr_page` with a bbox gives the page bbox, expanded to cover every word.
    """
    try:
        root = ElementTree.fromstring(document)
    except ElementTree.ParseError as exc:
        raise HocrParseError(str(exc), _error_offset(document)) from None

    page_bbox: tuple[int, int, int, int] | None = None
    words: list[WordBox] = []
    titles: list[dict[str, str]] = []
    skipped = 0
    next_line = 0
    word_counts: dict[int, int] = {}
    # (element, innermost ocr_line index, innermost ocr_par slot); a slot is a
    # one-item list holding its line index once its first word is reached
    stack: list[tuple[ElementTree.Element, int | None, list]] = [(root, None, [None])]
    while stack:
        element, line, slot = stack.pop()
        classes = element.get("class", "").split()
        if "ocr_page" in classes and page_bbox is None:
            with suppress(NoBboxError):
                page_bbox = parse_bbox_title(element.get("title", ""))
        if "ocr_line" in classes:
            line, next_line = next_line, next_line + 1
        elif "ocr_par" in classes:
            slot = [None]
        elif "ocrx_word" in classes:
            if line is None:
                if slot[0] is None:
                    slot[0], next_line = next_line, next_line + 1
                line = slot[0]
            text = "".join(element.itertext()).strip()
            if not text:
                continue
            title = element.get("title", "")
            try:
                bbox = parse_bbox_title(title)
            except NoBboxError:
                skipped += 1
                continue
            fields = parse_title_fields(title)
            try:
                confidence = max(0.0, min(1.0, float(fields["x_wconf"]) / 100.0))
            except (KeyError, ValueError):
                confidence = None
            word_index = word_counts.get(line, 0)
            word_counts[line] = word_index + 1
            words.append(WordBox(text, bbox, line, word_index, confidence))
            titles.append(fields)
            continue
        stack.extend((child, line, slot) for child in reversed(element))

    boxes = [wb.bbox for wb in words] + ([page_bbox] if page_bbox else [])
    return HocrPage(_covering_box(boxes), words, titles, skipped)


def _error_offset(document: str) -> int:
    """Byte offset, never negative, of the first error that expat finds with
    ElementTree's rules: namespaces are resolved, and an entity reference
    that only an unread external DTD could define is an error."""
    parser = xml.parsers.expat.ParserCreate(namespace_separator="}")
    skipped: list[int] = []

    def skipped_entity(_name: str, is_parameter: bool) -> None:
        if not is_parameter:
            skipped.append(parser.CurrentByteIndex)

    parser.SkippedEntityHandler = skipped_entity
    try:
        parser.Parse(document, True)
    except xml.parsers.expat.ExpatError:
        pass
    return max(0, skipped[0] if skipped else parser.ErrorByteIndex)


def _covering_box(boxes: list[tuple[int, int, int, int]]) -> tuple[int, int, int, int]:
    """The smallest box holding every box; (0, 0, 1, 1) when there are none."""
    if not boxes:
        return (0, 0, 1, 1)
    x0s, y0s, x1s, y1s = zip(*boxes)
    return (min(x0s), min(y0s), max(x1s), max(y1s))


def render_hocr(words: list[WordBox], page_bbox: tuple[int, int, int, int] | None = None) -> str:
    """Minimal hOCR skeleton for the given word boxes (tests and mocks)."""
    if page_bbox is None:
        page_bbox = _covering_box([wb.bbox for wb in words])
    lines: dict[int, list[WordBox]] = {}
    for wb in words:
        lines.setdefault(wb.line_index, []).append(wb)
    parts = [
        "<?xml version='1.0' encoding='UTF-8'?>",
        "<html><body>",
        f"<div class='ocr_page' title='bbox {page_bbox[0]} {page_bbox[1]} {page_bbox[2]} {page_bbox[3]}'>",
        "<p class='ocr_par'>",
    ]
    for line_index in sorted(lines):
        parts.append("<span class='ocr_line'>")
        for wb in sorted(lines[line_index], key=lambda w: w.word_index):
            title = "bbox {} {} {} {}".format(*wb.bbox)
            if wb.confidence is not None:
                title += f"; x_wconf {round(wb.confidence * 100)}"
            parts.append(
                f"<span class='ocrx_word' title={quoteattr(title)}>{escape(wb.text)}</span>"
            )
        parts.append("</span>")
    parts.extend(["</p>", "</div>", "</body></html>"])
    return "\n".join(parts)
