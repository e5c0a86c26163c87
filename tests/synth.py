"""Synthetic page builders shared by pipeline, CLI, and acceptance tests.

Pages are drawn as black word rectangles on white; the rectangles double as
text-line structure for deskew tests and as crop targets whose fingerprints
key the mock recognizers. Each rectangle carries a unique white-dot code so
no two word crops share a fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mixtext.docmodel import UNK, Transcription, WordBox
from mixtext.hocr import render_hocr
from mixtext.imaging import RasterImage, crop_word, estimate_skew, rotate, save_pgm
from mixtext.lexicon import Dictionary, SpellChecker, spell_chain
from mixtext.pipeline import PipelineConfig
from mixtext.recognizers import (
    HANDWRITTEN,
    MACHINE_PRINTED,
    MOCK,
    RecognizerSpec,
    image_fingerprint,
)

WORD_W = 18
WORD_H = 10
GAP_X = 6
GAP_Y = 8
MARGIN = 12

# words drawn from the bundled dictionary fixture, recycled for page truths
VOCAB = [
    "a", "move", "to", "stop", "the", "house", "report", "member", "order",
    "point", "time", "work", "word", "line", "page", "hand", "paper", "water",
    "light", "sound", "power", "plant", "earth", "music", "story", "field",
]


def layout_boxes(line_sizes: list[int], stagger: int = 0) -> list[WordBox]:
    """Word boxes for `line_sizes[i]` words on line i, in a regular grid.

    A nonzero `stagger` shifts line i right by `i * stagger` pixels modulo the
    word pitch, so words on neighbouring lines no longer line up in columns.
    """
    boxes = []
    for line_index, count in enumerate(line_sizes):
        y0 = MARGIN + line_index * (WORD_H + GAP_Y)
        shift = (line_index * stagger) % (WORD_W + GAP_X)
        for word_index in range(count):
            x0 = MARGIN + shift + word_index * (WORD_W + GAP_X)
            boxes.append(
                WordBox(
                    text=f"w{line_index}-{word_index}",
                    bbox=(x0, y0, x0 + WORD_W, y0 + WORD_H),
                    line_index=line_index,
                    word_index=word_index,
                )
            )
    return boxes


def draw_page(boxes: list[WordBox], code_offset: int = 0) -> RasterImage:
    """White page with a coded black rectangle per word box.

    The two-dot code keeps every crop's fingerprint distinct; pass a
    corpus-unique `code_offset` per page so crops never collide across pages
    (codes stay injective for offset + index < 196).
    """
    width = max(wb.bbox[2] for wb in boxes) + MARGIN
    height = max(wb.bbox[3] for wb in boxes) + MARGIN
    arr = np.full((height, width), 255, dtype=np.uint8)
    for index, wb in enumerate(boxes):
        word_id = code_offset + index
        assert word_id < 196
        x0, y0, x1, y1 = wb.bbox
        arr[y0:y1, x0:x1] = 0
        arr[y0 + 2, x0 + 2 + word_id % 14] = 255
        arr[y0 + 6, x0 + 2 + word_id // 14] = 255
    return RasterImage.from_array(arr)


def page_with_words(
    lines: list[list[str]], stagger: int = 0
) -> tuple[RasterImage, list[WordBox]]:
    """Page image plus word boxes carrying the given texts."""
    boxes = layout_boxes([len(line) for line in lines], stagger)
    img = draw_page(boxes)
    texts = [word for line in lines for word in line]
    boxes = [
        WordBox(text, wb.bbox, wb.line_index, wb.word_index, wb.confidence)
        for text, wb in zip(texts, boxes, strict=True)
    ]
    return img, boxes


def machine_mock(script: dict[str, str]) -> RecognizerSpec:
    return RecognizerSpec(kind=MACHINE_PRINTED, backend=MOCK, mock_script=script)


def handwriting_mock(script: dict[str, str]) -> RecognizerSpec:
    return RecognizerSpec(kind=HANDWRITTEN, backend=MOCK, mock_script=script)


def script_page(img: RasterImage, boxes: list[WordBox]) -> dict[str, str]:
    """Mock-script entry mapping this image to hOCR for these boxes."""
    return {image_fingerprint(img): render_hocr(boxes)}


def script_crops(
    img: RasterImage,
    boxes: list[WordBox],
    outputs: dict[tuple[int, int], str],
    pad_pixels: int,
) -> dict[str, str]:
    """Mock-script entries keyed by the padded crop of each listed word."""
    script = {}
    for wb in boxes:
        if wb.position in outputs:
            crop = crop_word(img, wb, pad_pixels)
            script[image_fingerprint(crop)] = outputs[wb.position]
    return script


# --- preprocessing scenarios ---------------------------------------------------


def rotation_scenario(root: Path, presented_angle: int):
    """Page presented at a cardinal rotation; only the correcting rotation is
    scripted to yield dictionary words.

    Wrong rotations read as long garbage runs (rotated-text recognition
    produces dense nonsense) an order of magnitude longer than the label, so
    normalized accuracy against the label lands below 0.1.
    """
    lines = [["a", "move", "to"], ["stop", "the", "house"]]
    img, boxes = page_with_words(lines)
    presented = rotate(img, presented_angle)
    garbage = "".join("qzx"[i % 3] for i in range(40))
    garbage_words = [
        WordBox(garbage, (2 + 10 * i, 2, 10 + 10 * i, 8), 0, i) for i in range(6)
    ]
    script: dict[str, str] = {}
    for candidate in (0, 90, 180, 270):
        candidate_img = rotate(presented, candidate) if candidate else presented
        if (presented_angle + candidate) % 360 == 0:
            script.update(script_page(candidate_img, boxes))
        else:
            script.update(script_page(candidate_img, garbage_words))
    path = root / f"rot{presented_angle}.pgm"
    save_pgm(presented, path)
    label = " ".join(word for line in lines for word in line)
    return path, script, lines, label


def deskew_scenario(root: Path):
    """Slightly tilted page: the deskewed fingerprint reads fully, the raw
    tilted fingerprint reads truncated (words fall out of the OCR pass)."""
    lines = [["a", "move", "to"], ["stop", "the", "house"], ["report", "member", "order"]]
    img, boxes = page_with_words(lines)
    skewed = rotate(img, 2.0)
    estimate = estimate_skew(skewed)
    fixed = rotate(skewed, estimate.angle_degrees)
    truncated = boxes[:4]
    script = {**script_page(fixed, boxes), **script_page(skewed, truncated)}
    path = root / "skewed.pgm"
    save_pgm(skewed, path)
    label = " ".join(word for line in lines for word in line)
    return path, script, label


def sideways_skew_scenario(root: Path, skew: float, presented_angle: int):
    """Page tilted by `skew` and then presented at a cardinal rotation; only
    the planted corrections (deskew by -skew, then undo the presentation)
    are scripted, so a wrong deskew angle leaves no rotation that reads."""
    lines = [[VOCAB[(6 * i + j) % len(VOCAB)] for j in range(6)] for i in range(4)]
    # staggered so that, sideways, the words do not line up into rows of ink
    img, boxes = page_with_words(lines, stagger=7)
    presented = rotate(rotate(img, skew), presented_angle)
    upright = rotate(rotate(presented, -skew), -presented_angle)
    path = root / f"skew{skew}-rot{presented_angle}.pgm"
    save_pgm(presented, path)
    return path, script_page(upright, boxes), lines


def padding_scenario(root: Path):
    """One gated word whose padded crop reads correctly and whose bare crop
    reads as a different dictionary word."""
    lines = [["a", "qzqzq", "to"]]
    img, boxes = page_with_words(lines)
    machine_script = script_page(img, boxes)
    hand_script = {
        **script_crops(img, boxes, {(0, 1): "move"}, pad_pixels=10),
        **script_crops(img, boxes, {(0, 1): "cove"}, pad_pixels=0),
    }
    path = root / "padded.pgm"
    save_pgm(img, path)
    return path, machine_script, hand_script, "a move to"


# --- planted-error corpus ----------------------------------------------------

# per word: planted options-list size, plus the size-4 flavor
SIZE1 = "size1"
SIZE3 = "size3"
SIZE4_CORRECTABLE = "size4-correctable"
SIZE4_UNK = "size4-unk"

PAGE_PLANS = {
    "page-0": {SIZE1: 23, SIZE3: 5, SIZE4_CORRECTABLE: 3, SIZE4_UNK: 3},
    "page-1": {SIZE1: 21, SIZE3: 6, SIZE4_CORRECTABLE: 3, SIZE4_UNK: 3},
    "page-2": {SIZE1: 21, SIZE3: 5, SIZE4_CORRECTABLE: 4, SIZE4_UNK: 3},
}
WORDS_PER_LINE = 6


@dataclass
class PlantedCorpus:
    input_dir: Path
    labels_dir: Path
    config: PipelineConfig
    truths: dict[str, list[str]] = field(default_factory=dict)  # stem -> flat words
    kinds: dict[tuple[str, tuple[int, int]], str] = field(default_factory=dict)
    expected_sizes: dict[str, int] = field(default_factory=dict)  # kind -> count


def _garble(counter: int) -> str:
    # q/z/x strings stay far from every fixture dictionary word
    digits = []
    n = counter
    for _ in range(5):
        digits.append("qzx"[n % 3])
        n //= 3
    return "".join(digits)


def _twist(word: str, checker: SpellChecker) -> str:
    # a one-edit corruption the checker provably corrects back to the word
    variants = [word + "q", word + "z", "q" + word, word[:-1] + "q", "x" + word]
    for twisted in variants:
        result = checker.check(twisted)
        if not result.passed and result.corrected == word:
            return twisted
    raise AssertionError(f"no reversible twist found for {word!r}")


def build_planted_corpus(root: Path, english: Dictionary, pad_pixels: int = 10) -> PlantedCorpus:
    """Three pages with exactly 65/16/19 planted options-list proportions.

    The builder replays the pipeline's own deterministic preprocessing to
    key the mock scripts, then asserts every plant really gates the way the
    plan says it should.
    """
    input_dir = root / "input"
    labels_dir = root / "labels"
    input_dir.mkdir(parents=True, exist_ok=True)
    labels_dir.mkdir(parents=True, exist_ok=True)
    checker = SpellChecker(english, max_edit=2)

    machine_script: dict[str, str] = {}
    hand_script: dict[str, str] = {}
    corpus = PlantedCorpus(input_dir, labels_dir, PipelineConfig())
    garble_counter = 0
    vocab_cursor = 0
    crop_keys: list[str] = []

    for page_index, (stem, plan) in enumerate(PAGE_PLANS.items()):
        kinds: list[str] = []
        for kind, count in plan.items():
            kinds.extend([kind] * count)
        # deterministic interleave so plants spread across lines
        kinds = [kinds[(i * 7) % len(kinds)] for i in range(len(kinds))]
        total = len(kinds)
        line_sizes = [WORDS_PER_LINE] * (total // WORDS_PER_LINE)
        if total % WORDS_PER_LINE:
            line_sizes.append(total % WORDS_PER_LINE)

        truths = []
        machine_texts = []
        hand_outputs: dict[tuple[int, int], str] = {}
        plain_boxes = layout_boxes(line_sizes)
        for wb, kind in zip(plain_boxes, kinds, strict=True):
            truth = VOCAB[vocab_cursor % len(VOCAB)]
            vocab_cursor += 1
            truths.append(truth)
            assert checker.check(truth).passed, f"{truth} missing from dictionary"
            if kind == SIZE1:
                machine_texts.append(truth)
                continue
            garble = _garble(garble_counter)
            garble_counter += 1
            assert not checker.check(garble).passed
            machine_texts.append(garble)
            if kind == SIZE3:
                hand_outputs[wb.position] = truth
            elif kind == SIZE4_CORRECTABLE:
                hand_outputs[wb.position] = _twist(truth, checker)
            else:
                noise = _garble(garble_counter)
                garble_counter += 1
                assert spell_chain(noise, [checker]).corrected == UNK
                hand_outputs[wb.position] = noise
            corpus.kinds[(stem, wb.position)] = kind

        boxes = [
            WordBox(text, wb.bbox, wb.line_index, wb.word_index)
            for text, wb in zip(machine_texts, plain_boxes, strict=True)
        ]
        img = draw_page(boxes, code_offset=page_index * 40)
        save_pgm(img, input_dir / f"{stem}.pgm")

        # replay the pipeline preprocessing (enhance off, deskew on) so the
        # mock fingerprints line up with what transcribe_page will compute
        processed = img
        estimate = estimate_skew(processed)
        if estimate.angle_degrees:
            processed = rotate(processed, estimate.angle_degrees)
        machine_script.update(script_page(processed, boxes))
        page_crops = script_crops(processed, boxes, hand_outputs, pad_pixels)
        crop_keys.extend(page_crops)
        hand_script.update(page_crops)

        lines = []
        cursor = 0
        for size in line_sizes:
            lines.append(tuple(truths[cursor : cursor + size]))
            cursor += size
        label = Transcription(tuple(lines), stem)
        (labels_dir / f"{stem}.txt").write_text(label.to_text(), encoding="utf-8")
        corpus.truths[stem] = truths
        for kind, count in plan.items():
            corpus.expected_sizes[kind] = corpus.expected_sizes.get(kind, 0) + count

    assert len(set(crop_keys)) == len(crop_keys), "crop fingerprints collided"
    corpus.config = PipelineConfig(
        machine_printed=machine_mock(machine_script),
        handwritten=handwriting_mock(hand_script),
        dictionary_path=str(Path(__file__).parent / "data" / "words_en.txt"),
        pad_pixels=pad_pixels,
        enhance=False,
        deskew=True,
        rotate_select=True,
        nomination="rule",
    )
    return corpus
