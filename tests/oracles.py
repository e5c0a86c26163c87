"""Brute-force reference implementations, independent of the package's code
paths. Tests compare package output against these.
"""

from __future__ import annotations

import math
import xml.parsers.expat

import numpy as np

from mixtext.docmodel import WordBox
from mixtext.hocr import (
    HocrPage,
    HocrParseError,
    NoBboxError,
    parse_bbox_title,
    parse_title_fields,
)
from mixtext.imaging import (
    BINARIZE_THRESHOLD,
    DEFAULT_DESKEW_RANGE,
    DEFAULT_DESKEW_STEP,
    ImageFormatError,
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


def median3_by_sort(arr: np.ndarray) -> np.ndarray:
    """3x3 median with edge padding: `np.median` over the stack of the nine
    shifted views."""
    padded = np.pad(arr, 1, mode="edge")
    stack = np.stack(
        [padded[dy : dy + arr.shape[0], dx : dx + arr.shape[1]] for dy in range(3) for dx in range(3)]
    )
    return np.median(stack, axis=0).astype(np.uint8)


def unfilter_by_loop(raw: bytes, height: int, stride: int, bpp: int) -> bytearray:
    """Undo PNG's per-row filters byte by byte, row after row (the loop
    `mixtext.imaging._unfilter_scanlines` replaced)."""
    out = bytearray(height * stride)
    prev_row = bytearray(stride)
    for row in range(height):
        base = row * (stride + 1)
        ftype = raw[base]
        line = bytearray(raw[base + 1 : base + 1 + stride])
        if ftype == 1:  # Sub
            for i in range(bpp, stride):
                line[i] = (line[i] + line[i - bpp]) & 0xFF
        elif ftype == 2:  # Up
            for i in range(stride):
                line[i] = (line[i] + prev_row[i]) & 0xFF
        elif ftype == 3:  # Average
            for i in range(stride):
                left = line[i - bpp] if i >= bpp else 0
                line[i] = (line[i] + (left + prev_row[i]) // 2) & 0xFF
        elif ftype == 4:  # Paeth
            for i in range(stride):
                left = line[i - bpp] if i >= bpp else 0
                up = prev_row[i]
                up_left = prev_row[i - bpp] if i >= bpp else 0
                p = left + up - up_left
                pa, pb, pc = abs(p - left), abs(p - up), abs(p - up_left)
                if pa <= pb and pa <= pc:
                    pred = left
                elif pb <= pc:
                    pred = up
                else:
                    pred = up_left
                line[i] = (line[i] + pred) & 0xFF
        elif ftype != 0:
            raise ImageFormatError(f"unknown PNG filter type {ftype}")
        out[row * stride : (row + 1) * stride] = line
        prev_row = line
    return out


def rotate_bilinear_whole(img: RasterImage, angle_degrees: float) -> RasterImage:
    """Bilinear rotation with white fill, computed over the whole enlarged
    canvas at once (the body `mixtext.imaging._rotate_bilinear` replaced)."""
    a = math.radians(angle_degrees % 360.0)
    cos_a, sin_a = math.cos(a), math.sin(a)
    w, h = img.width, img.height
    out_w = int(math.ceil(abs(w * cos_a) + abs(h * sin_a)))
    out_h = int(math.ceil(abs(h * cos_a) + abs(w * sin_a)))

    yo, xo = np.ogrid[0:out_h, 0:out_w]
    dxo = xo - (out_w - 1) / 2.0
    dyo = yo - (out_h - 1) / 2.0
    # Inverse map: rotate output offsets by -angle back into source space.
    src_x = dxo * cos_a - dyo * sin_a + (w - 1) / 2.0
    src_y = dxo * sin_a + dyo * cos_a + (h - 1) / 2.0

    x0 = np.floor(src_x).astype(np.int64)
    y0 = np.floor(src_y).astype(np.int64)
    fx = src_x - x0
    fy = src_y - y0
    # the page inside a one-pixel white ring: a tap off the page reads the ring
    ringed = np.pad(img.to_array().astype(np.float64), 1, constant_values=255.0)
    acc = np.zeros((out_h, out_w), dtype=np.float64)
    for oy, wy in ((0, 1 - fy), (1, fy)):
        for ox, wx in ((0, 1 - fx), (1, fx)):
            acc += wx * wy * ringed[np.clip(y0 + oy, -1, h) + 1, np.clip(x0 + ox, -1, w) + 1]
    return RasterImage.from_array(acc)


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


class _HocrBuilder:
    """Expat callback state: tracks open lines/words and collects word boxes.

    Words outside any ocr_line fall back to their enclosing ocr_par (each par
    acts as one line), and failing that to a single page-level implicit line.
    """

    def __init__(self):
        self.words: list[WordBox] = []
        self.titles: list[dict[str, str]] = []
        self.page_bbox: tuple[int, int, int, int] | None = None
        self.skipped = 0
        self.depth = 0
        self.line_stack: list[tuple[int, int]] = []  # (element depth, line index)
        self.par_stack: list[list] = []  # [element depth, lazily allocated index]
        self.next_line_index = 0
        self.word_counts: dict[int, int] = {}
        self.implicit_line: int | None = None
        self.word_depth = 0
        self.word_chunks: list[str] = []
        self.word_title = ""
        self.word_line = 0

    def start(self, name: str, attrs: dict[str, str]) -> None:
        self.depth += 1
        if self.word_depth:
            self.word_depth += 1
            return
        classes = attrs.get("class", "").split()
        if "ocr_page" in classes and self.page_bbox is None:
            try:
                self.page_bbox = parse_bbox_title(attrs.get("title", ""))
            except NoBboxError:
                pass
        if "ocr_line" in classes:
            self.line_stack.append((self.depth, self.next_line_index))
            self.next_line_index += 1
        elif "ocr_par" in classes:
            self.par_stack.append([self.depth, None])
        elif "ocrx_word" in classes:
            self.word_depth = 1
            self.word_chunks = []
            self.word_title = attrs.get("title", "")
            self.word_line = self._current_line()

    def chars(self, data: str) -> None:
        if self.word_depth:
            self.word_chunks.append(data)

    def end(self, name: str) -> None:
        if self.word_depth:
            self.word_depth -= 1
            if self.word_depth == 0:
                self._close_word()
        elif self.line_stack and self.line_stack[-1][0] == self.depth:
            self.line_stack.pop()
        elif self.par_stack and self.par_stack[-1][0] == self.depth:
            self.par_stack.pop()
        self.depth -= 1

    def _current_line(self) -> int:
        if self.line_stack:
            return self.line_stack[-1][1]
        if self.par_stack:
            par = self.par_stack[-1]
            if par[1] is None:
                par[1] = self.next_line_index
                self.next_line_index += 1
            return par[1]
        if self.implicit_line is None:
            self.implicit_line = self.next_line_index
            self.next_line_index += 1
        return self.implicit_line

    def _close_word(self) -> None:
        text = "".join(self.word_chunks).strip()
        if not text:
            return
        try:
            bbox = parse_bbox_title(self.word_title)
        except NoBboxError:
            self.skipped += 1
            return
        fields = parse_title_fields(self.word_title)
        confidence = None
        if "x_wconf" in fields:
            try:
                confidence = max(0.0, min(1.0, float(fields["x_wconf"]) / 100.0))
            except ValueError:
                confidence = None
        line = self.word_line
        word_index = self.word_counts.get(line, 0)
        self.word_counts[line] = word_index + 1
        self.words.append(WordBox(text, bbox, line, word_index, confidence))
        self.titles.append(fields)


def expat_parse_hocr(document: str) -> HocrPage:
    """Parse hOCR markup into a page of word boxes, event by event through
    expat callbacks (the parser `mixtext.hocr.parse_hocr` replaced).

    Words with empty trimmed text are dropped; words whose title lacks a
    bbox are skipped and tallied. The page bbox is taken from the first
    `ocr_page` element and expanded to cover every word box.
    """
    builder = _HocrBuilder()
    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.end
    parser.CharacterDataHandler = builder.chars
    try:
        parser.Parse(document, True)
    except xml.parsers.expat.ExpatError as exc:
        raise HocrParseError(str(exc), parser.ErrorByteIndex) from None

    page_bbox = builder.page_bbox
    for wb in builder.words:
        x0, y0, x1, y1 = wb.bbox
        if page_bbox is None:
            page_bbox = wb.bbox
        else:
            page_bbox = (
                min(page_bbox[0], x0),
                min(page_bbox[1], y0),
                max(page_bbox[2], x1),
                max(page_bbox[3], y1),
            )
    if page_bbox is None:
        page_bbox = (0, 0, 1, 1)
    return HocrPage(page_bbox, builder.words, builder.titles, builder.skipped)
