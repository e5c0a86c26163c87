"""Seeded synthetic corpus for the benchmark workloads.

Run as a script to write one piece of a workload's corpus:

    python3 perfbench/corpus.py --workload gated_forms --seed 1 --root DIR --shared
    python3 perfbench/corpus.py --workload gated_forms --seed 1 --root DIR --batch 0

`--shared` writes the dictionary files every batch uses; `--batch N` writes
batch N: page images, labels, recognizer scripts, and `expected.json` with
the options list and final words each page must produce. The same workload,
seed and batch always give byte-identical files.

Pages are white with one black rectangle per word; white dots inside each
rectangle encode the word's id, so no two word crops look alike. The
recognizer scripts are keyed by `image_fingerprint` (mock engines) or by a
digest of the PGM the external engine receives, computed on images that were
preprocessed with the *planted* skew and rotation, never with the program's
own `estimate_skew`. A page that the program deskews or rotates wrongly
therefore misses its script and fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import struct
import sys
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import (
    UNK,
    Lexicon,
    has_no_correction,
    nominate_context,
    nominate_rule,
    one_edit_correction,
)

SIZE1, SIZE3, SIZE4_CORRECTABLE, SIZE4_UNK = "size1", "size3", "size4c", "size4u"
DICT_ALPHABET = "abcdefghijklmnoprstuvwy"  # no q, x or z: garbles stay uncorrectable
DICT_SIZE = 100_000
# Word-length histogram of the synthetic dictionary, shaped like an English
# word list (share per mille of DICT_SIZE for lengths 2..15).
LENGTH_PER_MILLE = {2: 3, 3: 15, 4: 45, 5: 85, 6: 125, 7: 145, 8: 145, 9: 130,
                    10: 105, 11: 75, 12: 50, 13: 35, 14: 25, 15: 17}
GARBLE_LENGTH = 5
# Lengths of the words that a size-4 correctable plant twists, cycled per
# page so each page's spell-check misses cost the same across seeds.
TWIST_LENGTHS = (5, 6, 7, 8, 6, 7)
SMALL_DICTIONARY = Path("tests") / "data" / "words_en.txt"
PAD_PIXELS = 10


@dataclass(frozen=True)
class Layout:
    width: int
    height: int
    lines: int
    words_per_line: int
    margin_x: int
    margin_y: int
    line_pitch: int
    word_height: int
    max_word_width: int
    gap: int


A4_100DPI = Layout(827, 1169, 30, 10, 73, 74, 34, 14, 56, 6)
A5_FORM_100DPI = Layout(583, 827, 10, 6, 40, 60, 64, 16, 64, 11)


@dataclass(frozen=True)
class Workload:
    name: str
    layout: Layout
    plan: dict  # options-list kind -> words per page
    pages_per_batch: int
    image_format: str  # "png" or "pgm"
    dictionary: str  # "synthetic" (100k, with frequencies) or "small"
    deskew: bool
    rotate_select: bool
    nomination: str
    external: bool


WORKLOADS = {
    w.name: w
    for w in (
        # one upright and one sideways page per batch: the rotation cycle
        # 0/90/180/270 advances one step per page
        Workload("scan_pages", A4_100DPI,
                 {SIZE1: 294, SIZE3: 4, SIZE4_CORRECTABLE: 1, SIZE4_UNK: 1},
                 2, "png", "synthetic", True, True, "rule", False),
        Workload("gated_forms", A5_FORM_100DPI,
                 {SIZE1: 39, SIZE3: 10, SIZE4_CORRECTABLE: 6, SIZE4_UNK: 5},
                 2, "pgm", "synthetic", False, False, "rule", False),
        Workload("external_engines", A5_FORM_100DPI,
                 {SIZE1: 39, SIZE3: 10, SIZE4_CORRECTABLE: 6, SIZE4_UNK: 5},
                 8, "pgm", "small", False, True, "context", True),
    )
}


def _mixtext():
    """The program's public imaging and recognizer helpers, imported late so
    this module loads without the program on the path."""
    from mixtext import hocr, imaging, recognizers

    return imaging, recognizers, hocr


# --- dictionary --------------------------------------------------------------


def synthetic_dictionary(seed: int) -> tuple[list[str], dict[str, int]]:
    """DICT_SIZE distinct random words over DICT_ALPHABET with the fixed
    length histogram, plus Zipf-shaped frequencies."""
    rng = np.random.default_rng([seed, 0xD1C7])
    letters = np.frombuffer(DICT_ALPHABET.encode("ascii"), dtype=np.uint8)
    words: list[str] = []
    for length, per_mille in LENGTH_PER_MILLE.items():
        want = DICT_SIZE * per_mille // 1000
        chosen: dict[str, None] = {}
        while len(chosen) < want:
            blob = letters[rng.integers(0, len(letters), size=want * length)].tobytes().decode("ascii")
            for i in range(0, len(blob), length):
                chosen[blob[i : i + length]] = None
                if len(chosen) == want:
                    break
        words.extend(chosen)
    ranks = rng.permutation(len(words))
    frequencies = {w: max(1, 1_000_000 // (int(r) + 1)) for w, r in zip(words, ranks)}
    return words, frequencies


def write_shared(workload: Workload, seed: int, root: Path) -> None:
    shared = root / "shared"
    shared.mkdir(parents=True, exist_ok=True)
    if workload.dictionary == "synthetic":
        words, frequencies = synthetic_dictionary(seed)
        (shared / "words.txt").write_text("\n".join(words) + "\n", encoding="utf-8")
        (shared / "frequencies.tsv").write_text(
            "".join(f"{w}\t{frequencies[w]}\n" for w in words), encoding="utf-8"
        )


def dictionary_paths(workload: Workload, root: Path) -> tuple[Path, Path | None]:
    if workload.dictionary == "synthetic":
        return root / "shared" / "words.txt", root / "shared" / "frequencies.tsv"
    return SMALL_DICTIONARY, None


def load_lexicon(workload: Workload, root: Path) -> Lexicon:
    words_path, freq_path = dictionary_paths(workload, root)
    words = [w.strip() for w in words_path.read_text(encoding="utf-8").splitlines() if w.strip()]
    frequencies = {}
    if freq_path is not None:
        for line in freq_path.read_text(encoding="utf-8").splitlines():
            word, _, count = line.partition("\t")
            frequencies[word] = int(count)
    return Lexicon(words, frequencies)


# --- plants ------------------------------------------------------------------


class Planter:
    """Draws truth words and builds provably behaving corruptions of them."""

    def __init__(self, lexicon: Lexicon):
        self.lexicon = lexicon
        self.rng = random.Random(0)  # reseeded per page
        by_length: dict[int, list[str]] = {}
        for w in sorted(lexicon.words):
            if w.isalpha() and w.islower() and len(w) >= 2:
                by_length.setdefault(len(w), []).append(w)
        self.by_length = by_length
        self.plain = [w for n in range(3, 11) for w in by_length.get(n, ())]

    def truth(self) -> str:
        return self.rng.choice(self.plain)

    def garble(self) -> str:
        while True:
            g = "".join(self.rng.choice("qxz") for _ in range(GARBLE_LENGTH))
            if has_no_correction(g, self.lexicon):
                return g

    def twisted(self, length: int) -> tuple[str, str]:
        """(truth, one-edit corruption that corrects back to the truth)."""
        pool = self.by_length.get(length) or self.plain
        while True:
            truth = self.rng.choice(pool)
            for twist in (truth + "q", "q" + truth, truth[:-1] + "q", "x" + truth, truth + "z"):
                if one_edit_correction(twist, self.lexicon) == truth:
                    return truth, twist


def plan_page(workload: Workload, planter: Planter, rng: random.Random) -> list[dict]:
    """Per word in reading order: kind, truth, machine reading A, and the
    handwriting reading C (None for size-1 words)."""
    kinds = [kind for kind, count in workload.plan.items() for _ in range(count)]
    assert len(kinds) == workload.layout.lines * workload.layout.words_per_line
    rng.shuffle(kinds)
    words = []
    twists = 0
    for kind in kinds:
        if kind == SIZE1:
            t = planter.truth()
            words.append({"kind": kind, "truth": t, "a": t, "c": None})
        elif kind == SIZE3:
            t = planter.truth()
            words.append({"kind": kind, "truth": t, "a": planter.garble(), "c": t})
        elif kind == SIZE4_CORRECTABLE:
            t, twist = planter.twisted(TWIST_LENGTHS[twists % len(TWIST_LENGTHS)])
            twists += 1
            words.append({"kind": kind, "truth": t, "a": planter.garble(), "c": twist})
        else:
            words.append({"kind": kind, "truth": planter.truth(), "a": planter.garble(),
                          "c": planter.garble()})
    return words


def expected_options(word: dict, lexicon: Lexicon) -> list:
    a, c = word["a"], word["c"]
    if word["kind"] == SIZE1:
        assert lexicon.passes(a)
        return [a, a, None, None]
    assert not lexicon.passes(a) and has_no_correction(a, lexicon)
    if word["kind"] == SIZE3:
        assert lexicon.passes(c)
        return [a, UNK, c, c]
    if word["kind"] == SIZE4_CORRECTABLE:
        d = one_edit_correction(c, lexicon)
        assert d == word["truth"]
        return [a, UNK, c, d]
    assert not lexicon.passes(c) and has_no_correction(c, lexicon)
    return [a, UNK, c, UNK]


# --- drawing -----------------------------------------------------------------


def word_boxes(layout: Layout, words: list[dict], rng: random.Random) -> list[tuple]:
    """(x0, y0, x1, y1, line, index) per word. Lines are left-aligned and
    words flow with widths following word length and random gaps, so word
    edges do not line up into columns across lines, as in running text."""
    boxes = []
    x = 0
    for n, word in enumerate(words):
        line, index = divmod(n, layout.words_per_line)
        if index == 0:
            x = layout.margin_x + rng.randrange(0, 7)
        width = min(layout.max_word_width, 24 + 5 * len(word["truth"]))
        y0 = layout.margin_y + line * layout.line_pitch
        assert x + width <= layout.width - layout.margin_x, "line overflows the page"
        boxes.append((x, y0, x + width, y0 + layout.word_height, line, index))
        x += width + rng.randrange(layout.gap, 2 * layout.gap + 1)
    return boxes


def draw_page(layout: Layout, boxes: list[tuple], id_base: int) -> np.ndarray:
    arr = np.full((layout.height, layout.width), 255, dtype=np.uint8)
    for n, (x0, y0, x1, y1, _, _) in enumerate(boxes):
        arr[y0:y1, x0:x1] = 0
        word_id = id_base + n
        for bit in range(14):  # the id in white 3x3 dots, which survive enhance's median
            if word_id >> bit & 1:
                row, col = divmod(bit, 7)
                arr[y0 + 2 + 6 * row : y0 + 5 + 6 * row, x0 + 2 + 4 * col : x0 + 5 + 4 * col] = 255
    return arr


def encode_png(arr: np.ndarray) -> bytes:
    """8-bit gray PNG whose rows use Sub, Up or Paeth, each row taking the
    filter with the smallest sum of absolute residuals, as adaptive
    encoders do."""
    a = arr.astype(np.int16)
    h, w = a.shape
    left = np.zeros_like(a)
    left[:, 1:] = a[:, :-1]
    up = np.zeros_like(a)
    up[1:] = a[:-1]
    up_left = np.zeros_like(a)
    up_left[1:, 1:] = a[:-1, :-1]
    p = left + up - up_left
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - up_left)
    paeth_pred = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, up_left))
    residuals = np.stack([(a - left) & 0xFF, (a - up) & 0xFF, (a - paeth_pred) & 0xFF])
    cost = np.where(residuals > 127, 256 - residuals, residuals).sum(axis=2)
    choice = cost.argmin(axis=0)
    filter_types = np.array([1, 2, 4], dtype=np.int16)[choice]
    rows = residuals[choice, np.arange(h)]
    raw = np.concatenate([filter_types[:, None], rows], axis=1).astype(np.uint8).tobytes()

    def chunk(kind: bytes, body: bytes) -> bytes:
        return struct.pack(">I", len(body)) + kind + body + struct.pack(">I", zlib.crc32(kind + body))

    header = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header)
            + chunk(b"IDAT", zlib.compress(raw, 6)) + chunk(b"IEND", b""))


# --- geometry of the program's rotations --------------------------------------


def map_rotate(points: np.ndarray, w: int, h: int, angle: float) -> tuple[np.ndarray, int, int]:
    """Where `mixtext.imaging.rotate(img, angle)` moves (x, y) points, and the
    output size."""
    norm = angle % 360.0
    x, y = points[:, 0], points[:, 1]
    if norm in (0.0, 90.0, 180.0, 270.0):
        for _ in range(int(norm) // 90):  # one counterclockwise quarter turn
            x, y, w, h = y, (w - 1) - x, h, w
        return np.stack([x, y], axis=1), w, h
    a = math.radians(norm)
    cos_a, sin_a = math.cos(a), math.sin(a)
    out_w = int(math.ceil(abs(w * cos_a) + abs(h * sin_a)))
    out_h = int(math.ceil(abs(h * cos_a) + abs(w * sin_a)))
    dx, dy = x - (w - 1) / 2.0, y - (h - 1) / 2.0
    xo = cos_a * dx + sin_a * dy + (out_w - 1) / 2.0
    yo = -sin_a * dx + cos_a * dy + (out_h - 1) / 2.0
    return np.stack([xo, yo], axis=1), out_w, out_h


def _corners(boxes: list[tuple]) -> np.ndarray:
    pts = []
    for x0, y0, x1, y1, _, _ in boxes:
        pts += [(x0, y0), (x1 - 1, y0), (x0, y1 - 1), (x1 - 1, y1 - 1)]
    return np.array(pts, dtype=np.float64)


def _boxes_from_corners(pts: np.ndarray, boxes: list[tuple], w: int, h: int) -> list[tuple]:
    out = []
    for n, (_, _, _, _, line, index) in enumerate(boxes):
        quad = pts[4 * n : 4 * n + 4]
        x0 = max(0, int(math.floor(quad[:, 0].min())))
        y0 = max(0, int(math.floor(quad[:, 1].min())))
        x1 = min(w, int(math.ceil(quad[:, 0].max())) + 1)
        y1 = min(h, int(math.ceil(quad[:, 1].max())) + 1)
        out.append((x0, y0, x1, y1, line, index))
    return out


# --- recognizer scripts --------------------------------------------------------


def _word_box(box: tuple, text: str):
    from mixtext.docmodel import WordBox

    x0, y0, x1, y1, line, index = box
    return WordBox(text, (x0, y0, x1, y1), line, index)


def garbage_hocr(render_hocr, seed_text: str) -> str:
    """What a page engine reads from text at the wrong rotation: long runs of
    q/x/z that score zero against any dictionary."""
    from mixtext.docmodel import WordBox

    rng = random.Random(seed_text)
    words = [
        WordBox("".join(rng.choice("qxz") for _ in range(40)), (2 + 10 * i, 2, 10 + 10 * i, 8), 0, i)
        for i in range(6)
    ]
    return render_hocr(words)


def pgm_digest(imaging, img, work_dir: Path) -> str:
    """Digest of the PGM bytes an external engine receives for this image."""
    path = work_dir / "digest.pgm"
    imaging.save_pgm(img, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()[:32]


class Scripts:
    """Recognizer outputs keyed by image, for mock or external engines."""

    def __init__(self, workload: Workload, root: Path, batch_dir: Path, work_dir: Path):
        self.external = workload.external
        self.engine_dir = root / "engine"
        self.batch_dir = batch_dir
        self.work_dir = work_dir
        self.machine: dict[str, str] = {}
        self.hand: dict[str, str] = {}

    def key(self, img) -> str:
        imaging, recognizers, _ = _mixtext()
        if self.external:
            return pgm_digest(imaging, img, self.work_dir)
        return recognizers.image_fingerprint(img)

    def add(self, table: dict, img, output: str) -> None:
        key = self.key(img)
        if key in table:
            raise AssertionError(f"two script images share key {key}")
        table[key] = output

    def write(self) -> None:
        if self.external:
            # one directory for all batches, so the engine command never changes
            engine = self.engine_dir
            engine.mkdir(parents=True, exist_ok=True)
            for key, hocr_text in self.machine.items():
                (engine / f"{key}.hocr").write_text(hocr_text, encoding="utf-8")
            for key, word in self.hand.items():
                (engine / f"{key}.txt").write_text(word + "\n", encoding="utf-8")
            return
        for name, table in (("machine", self.machine), ("hand", self.hand)):
            (self.batch_dir / f"{name}.json").write_text(
                json.dumps(table, sort_keys=True, indent=0), encoding="utf-8"
            )


# --- batches -----------------------------------------------------------------


def page_geometry(workload: Workload, seed: int, page_number: int) -> tuple[float, int]:
    """Planted (skew in degrees, presented cardinal rotation) of a page."""
    if workload.name != "scan_pages":
        return 0.0, 0
    rng = random.Random(f"geometry-{seed}-{page_number}")
    skew = rng.randint(-14, 14) * 0.5
    rotation = 90 * ((seed + page_number) % 4)
    return skew, rotation


def write_batch(workload: Workload, seed: int, batch: int, root: Path) -> None:
    imaging, _, hocr = _mixtext()
    lexicon = load_lexicon(workload, root)
    batch_dir = root / f"batch-{batch:03d}"
    for sub in ("input", "labels"):
        (batch_dir / sub).mkdir(parents=True, exist_ok=True)
    expected: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(dir=root) as work_dir:
        scripts = Scripts(workload, root, batch_dir, Path(work_dir))
        planter = Planter(lexicon)
        for slot in range(workload.pages_per_batch):
            page_number = batch * workload.pages_per_batch + slot
            stem = f"b{batch:03d}p{slot:02d}"
            rng = random.Random(f"page-{workload.name}-{seed}-{page_number}")
            planter.rng = rng
            words = plan_page(workload, planter, rng)
            boxes = word_boxes(workload.layout, words, rng)
            upright = draw_page(workload.layout, boxes, id_base=(page_number % 40) * 400)
            skew, rotation = page_geometry(workload, seed, page_number)
            presented, final_img, final_boxes = _present(imaging, workload, upright, boxes,
                                                         skew, rotation, scripts, words, hocr)
            for box, word in zip(final_boxes, words):
                if word["c"] is not None:
                    crop = imaging.crop_word(final_img, _word_box(box, word["a"]), PAD_PIXELS)
                    scripts.add(scripts.hand, crop, word["c"])
            suffix = workload.image_format
            if suffix == "png":
                (batch_dir / "input" / f"{stem}.png").write_bytes(encode_png(presented.to_array()))
            else:
                imaging.save_pgm(presented, batch_dir / "input" / f"{stem}.pgm")

            options = [expected_options(word, lexicon) for word in words]
            tuples = [tuple(o) for o in options]
            if workload.nomination == "rule":
                finals = [nominate_rule(o) for o in tuples]
            else:
                finals = nominate_context(tuples)
            per_line = workload.layout.words_per_line
            expected[stem] = {
                "skew": skew,
                "rotation": rotation,
                "sideways": rotation in (90, 270),
                "kinds": [w["kind"] for w in words],
                "options": {f"{b[4]},{b[5]}": o for b, o in zip(final_boxes, options)},
                "final": [finals[i : i + per_line] for i in range(0, len(finals), per_line)],
            }
            truths = [w["truth"] for w in words]
            label = "\n".join(" ".join(truths[i : i + per_line])
                              for i in range(0, len(truths), per_line)) + "\n"
            (batch_dir / "labels" / f"{stem}.txt").write_text(label, encoding="utf-8")
        scripts.write()
    (batch_dir / "expected.json").write_text(
        json.dumps(expected, sort_keys=True, indent=1), encoding="utf-8"
    )


def _present(imaging, workload, upright_arr, boxes, skew, rotation, scripts, words, hocr):
    """Build the presented page and the scripts for every rotation candidate.

    Returns (presented image, upright processed image the word crops come
    from, word boxes in that image)."""
    layout = workload.layout
    img = imaging.RasterImage.from_array(upright_arr)
    pts, w, h = _corners(boxes), layout.width, layout.height
    if skew:
        img = imaging.rotate(img, skew)
        pts, w, h = map_rotate(pts, w, h, skew)
        ox, oy = (w - layout.width) // 2, (h - layout.height) // 2
        arr = img.to_array()[oy : oy + layout.height, ox : ox + layout.width]
        img = imaging.RasterImage.from_array(np.ascontiguousarray(arr))
        pts = pts - np.array([ox, oy])
        w, h = layout.width, layout.height
    if rotation:
        img = imaging.rotate(img, rotation)
        pts, w, h = map_rotate(pts, w, h, rotation)
    presented = img

    # the pipeline's preprocessing, with the planted angles standing in for
    # what deskew and rotation selection should find
    processed = imaging.enhance(presented)
    if workload.deskew and skew:
        processed = imaging.rotate(processed, -skew)
        pts, w, h = map_rotate(pts, w, h, -skew)
    assert (w, h) == (processed.width, processed.height)
    correcting = (360 - rotation) % 360
    candidates = (0, 90, 180, 270) if workload.rotate_select else (0,)
    final_img = final_boxes = None
    for candidate in candidates:
        view = imaging.rotate(processed, candidate) if candidate else processed
        if candidate == correcting:
            cpts, cw, ch = map_rotate(pts, w, h, candidate)
            assert (cw, ch) == (view.width, view.height)
            final_img = view
            final_boxes = _boxes_from_corners(cpts, boxes, cw, ch)
            hocr_words = [_word_box(b, word["a"]) for b, word in zip(final_boxes, words)]
            scripts.add(scripts.machine, view, hocr.render_hocr(hocr_words))
        else:
            scripts.add(scripts.machine, view,
                        garbage_hocr(hocr.render_hocr, f"{candidate}-{len(scripts.machine)}"))
    assert final_img is not None
    return presented, final_img, final_boxes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--shared", action="store_true")
    group.add_argument("--batch", type=int)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    root = Path(args.root)
    if args.shared:
        write_shared(workload, args.seed, root)
    else:
        write_batch(workload, args.seed, args.batch, root)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.exit(main())
