"""Raster operations for the pipeline: load/save, contrast enhancement,
projection-profile deskew, rotation, word cropping with white padding, and
the one way to run an external engine on an image.

Images are 8-bit grayscale, 0 = black ink, 255 = white background.
"""

from __future__ import annotations

import math
import subprocess
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .docmodel import WordBox

BINARIZE_THRESHOLD = 128  # fixed ink threshold for projection profiles
DEFAULT_DESKEW_RANGE = 15.0
DEFAULT_DESKEW_STEP = 0.5
DEFAULT_PAD_PIXELS = 10

_ROTATE_BAND_ROWS = 64  # output rows a bilinear rotation computes at once

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

T = TypeVar("T")


class ImageFormatError(ValueError):
    """Unsupported or corrupt image data."""


class GeometryError(ValueError):
    """A crop or box falls outside the image bounds."""


class EnhancementError(RuntimeError):
    """An external enhancement command failed."""


@dataclass(frozen=True, eq=False)
class RasterImage:
    """Immutable grayscale raster: a read-only, C-contiguous uint8 array of
    shape (height, width), copied from the array it is built from."""

    array: np.ndarray

    def __post_init__(self):
        arr = self.array
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.uint8 and arr.ndim == 2 and arr.size):
            kind = getattr(arr, "dtype", type(arr).__name__)
            raise ImageFormatError(f"expected a non-empty 2-d uint8 array, got {kind} {np.shape(arr)}")
        arr = np.array(arr, order="C")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def width(self) -> int:
        return self.array.shape[1]

    @property
    def height(self) -> int:
        return self.array.shape[0]

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "RasterImage":
        """Round computed pixel values to the nearest uint8."""
        return cls(np.clip(np.rint(arr), 0, 255).astype(np.uint8))

    def to_array(self) -> np.ndarray:
        """The stored array itself, read-only; no copy is made."""
        return self.array


@dataclass(frozen=True)
class SkewEstimate:
    """Correcting rotation angle and the profile-variance score behind it."""

    angle_degrees: float
    score: float

    def __post_init__(self):
        if not (-45.0 < self.angle_degrees <= 45.0):
            raise ValueError(f"skew angle {self.angle_degrees} outside (-45, 45]")


def load_image(path: str | Path) -> RasterImage:
    """Decode a PGM (P5) or PNG (8-bit gray/RGB) file to a grayscale raster."""
    data = Path(path).read_bytes()
    if data[:2] == b"P5":
        return _decode_pgm(data)
    if data[:8] == _PNG_SIGNATURE:
        return _decode_png(data)
    raise ImageFormatError(f"{path}: not a supported image format")


def save_pgm(img: RasterImage, path: str | Path) -> None:
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + memoryview(img.to_array()))


def _decode_pgm(data: bytes) -> RasterImage:
    # Header tokens are whitespace separated; '#' starts a comment to EOL.
    pos = 2
    tokens: list[int] = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageFormatError("truncated PGM header")
        try:
            tokens.append(int(data[start:pos]))
        except ValueError:
            raise ImageFormatError(f"bad PGM header token {data[start:pos]!r}") from None
    width, height, maxval = tokens
    if width <= 0 or height <= 0 or not 0 < maxval < 256:
        raise ImageFormatError(f"bad PGM header {width}x{height} maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise ImageFormatError("PGM raster shorter than header promises")
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if maxval != 255:
        arr = (arr.astype(np.uint16) * 255 // maxval).astype(np.uint8)
    return RasterImage(arr)


def _decode_png(data: bytes) -> RasterImage:
    pos = 8
    width = height = color_type = None
    idat = bytearray()
    while pos + 8 <= len(data):
        length = int.from_bytes(data[pos : pos + 4], "big")
        ctype = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        crc = data[pos + 8 + length : pos + 12 + length]
        if len(body) != length or len(crc) != 4:
            raise ImageFormatError("truncated PNG chunk")
        if zlib.crc32(body, zlib.crc32(ctype)) != int.from_bytes(crc, "big"):
            raise ImageFormatError(f"PNG {ctype.decode('latin-1')} chunk CRC mismatch")
        if ctype == b"IHDR":
            if length != 13:
                raise ImageFormatError(f"PNG IHDR chunk of {length} bytes, not 13")
            width = int.from_bytes(body[0:4], "big")
            height = int.from_bytes(body[4:8], "big")
            if width == 0 or height == 0:
                raise ImageFormatError(f"PNG IHDR gives an empty {width}x{height} image")
            bit_depth, color_type, _, _, interlace = body[8:13]
            if bit_depth != 8 or color_type not in (0, 2) or interlace != 0:
                raise ImageFormatError(
                    "only non-interlaced 8-bit grayscale or RGB PNG is supported"
                )
        elif ctype == b"IDAT":
            idat.extend(body)
        elif ctype == b"IEND":
            break
        pos += 12 + length
    if width is None or not idat:
        raise ImageFormatError("PNG missing IHDR or IDAT")
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise ImageFormatError(f"PNG deflate stream corrupt: {exc}") from None
    channels = 1 if color_type == 0 else 3
    stride = width * channels
    if len(raw) != (stride + 1) * height:
        raise ImageFormatError("PNG pixel data has wrong length")
    arr = _unfilter_scanlines(raw, height, stride, channels).reshape(height, width, channels)
    if channels == 1:
        return RasterImage(arr[:, :, 0])
    rgb = arr.astype(np.uint32)
    # at most (77 + 150 + 29) * 255 >> 8 == 255, so exact in uint8
    lum = (77 * rgb[:, :, 0] + 150 * rgb[:, :, 1] + 29 * rgb[:, :, 2]) >> 8
    return RasterImage(lum.astype(np.uint8))


def _unfilter_scanlines(raw: bytes, height: int, stride: int, bpp: int) -> np.ndarray:
    """Undo PNG's per-row filters, one anti-diagonal of pixels at a time.

    A byte's predictors are the bytes one pixel left, up and up-left of it,
    so pixel d - r of every row r (anti-diagonal d) depends only on diagonals
    d - 1 and d - 2, and each diagonal is one vector step (Lamport's
    wavefront, "The parallel execution of DO loops", CACM 1974). Sheared
    views put diagonal d of the filtered rows and of the output at index d.
    An int16 table holds, with row r at r + 1 so that row -1 reads 0, five
    slots: zeros, the last two diagonals (alternating), and the Average and
    Paeth predictors; each row takes its predictor from it by its filter.
    """
    filtered = np.frombuffer(raw, dtype=np.uint8)
    filters = filtered[:: stride + 1, None]
    bad = np.flatnonzero(filters > 4)
    if bad.size:
        raise ImageFormatError(f"unknown PNG filter type {filters[bad[0], 0]} in row {bad[0]}")
    width = stride // bpp
    shape = (height + width - 1, height, bpp)
    src = as_strided(filtered[1:], shape, (bpp, stride + 1 - bpp, 1), writeable=False)
    out = np.empty((height, stride), dtype=np.uint8)
    dst = as_strided(out, shape, (bpp, stride - bpp, 1))
    table = np.zeros((5, height + 1, bpp), dtype=np.int16)
    # by d % 2 and filter type: the slot and row of each byte's predictor
    slots = np.array([[0, 2, 2, 3, 4], [0, 1, 1, 3, 4]])[:, filters] * table[0].size
    picks = slots + np.arange(bpp, (height + 1) * bpp).reshape(height, bpp) - bpp * (filters == 2)
    average, paeth = table[3], table[4]
    for d in range(shape[0]):
        lo, hi = max(0, d - width + 1), min(height, d + 1)
        last, before = table[2 - d % 2], table[1 + d % 2]
        left, up, up_left = last[lo + 1 : hi + 1], last[lo:hi], before[lo:hi]
        average[lo + 1 : hi + 1] = (left + up) >> 1
        pa, pb, pc = abs(up - up_left), abs(left - up_left), abs(left + up - 2 * up_left)
        near = np.where(pb <= pc, up, up_left)
        paeth[lo + 1 : hi + 1] = np.where(pa <= np.minimum(pb, pc), left, near)
        pred = table.take(picks[d % 2, lo:hi])
        before[lo + 1 : hi + 1] = dst[d, lo:hi] = (src[d, lo:hi] + pred) & 0xFF
    return out


def enhance(
    img: RasterImage,
    command: Sequence[str] | None = None,
    timeout: float | None = None,
) -> RasterImage:
    """Contrast enhancement; dimensions never change.

    Built-in path: percentile contrast stretch (2nd percentile to 0, 98th to
    255, linear in between) followed by 3x3 median filtering. When `command`
    is given, the image is round-tripped through that external program
    instead ({in}/{out} placeholders name PGM files).
    """
    if command is not None:
        out = run_external(
            command, img, timeout, "out.pgm", lambda path, _: load_image(path), EnhancementError
        )
        if (out.width, out.height) != (img.width, img.height):
            raise EnhancementError("enhancement command changed image dimensions")
        return out
    return RasterImage(_median3(_stretch(img.to_array())))


def _stretch(arr: np.ndarray) -> np.ndarray:
    hist = np.bincount(arr.ravel(), minlength=256)
    cum = np.cumsum(hist)
    n = arr.size
    lo = int(np.searchsorted(cum, 0.02 * n))
    hi = int(np.searchsorted(cum, 0.98 * n))
    if hi <= lo:
        return arr
    values = np.arange(256, dtype=np.float64)
    lut = np.clip(np.rint((values - lo) * 255.0 / (hi - lo)), 0, 255).astype(np.uint8)
    return lut[arr]


# Paeth's 19 compare-exchanges that leave the median of 9 values in slot 4
# ("Median finding on a 3x3 grid", Graphics Gems, 1990).
_MEDIAN9_NETWORK = (
    (1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5), (7, 8), (0, 3),
    (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7), (4, 2), (6, 4), (4, 2),
)


def _median3(arr: np.ndarray) -> np.ndarray:
    """3x3 median with edge padding, by the exchange network on the nine
    shifted views of the page."""
    padded = np.pad(arr, 1, mode="edge")
    h, w = arr.shape
    p = [padded[dy : dy + h, dx : dx + w] for dy in range(3) for dx in range(3)]
    for i, j in _MEDIAN9_NETWORK:
        p[i], p[j] = np.minimum(p[i], p[j]), np.maximum(p[i], p[j])
    return p[4]


def run_external(
    argv_template: Sequence[str],
    img: RasterImage,
    timeout: float | None,
    out_name: str,
    read: Callable[[str, bytes], T],
    error: type[Exception],
) -> T:
    """Run an external engine on `img` and return what `read` makes of its output.

    The image is written as a PGM into a fresh temporary directory; `{in}` in
    the argv template names that file and `{out}` names `out_name` beside it.
    `read(out_path, stdout)` runs before the directory is removed. Raises
    `error` when the program cannot start, times out, exits nonzero, or its
    output cannot be read (`read` raises OSError or ValueError).
    """
    with tempfile.TemporaryDirectory(prefix="mixtext-") as tmp:
        in_path = str(Path(tmp) / "in.pgm")
        out_path = str(Path(tmp) / out_name)
        save_pgm(img, in_path)
        argv = [arg.replace("{in}", in_path).replace("{out}", out_path) for arg in argv_template]
        try:
            proc = subprocess.run(argv, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise error(f"{argv[0]} timed out after {timeout}s") from exc
        except OSError as exc:
            raise error(f"could not run {argv}: {exc}") from exc
        if proc.returncode != 0:
            raise error(f"{argv[0]} exited {proc.returncode}: {proc.stderr[:200]!r}")
        try:
            return read(out_path, proc.stdout)
        except (OSError, ValueError) as exc:
            raise error(f"unusable output from {argv[0]}: {exc}") from exc


def estimate_skew(
    img: RasterImage,
    search_range_degrees: float = DEFAULT_DESKEW_RANGE,
    step_degrees: float = DEFAULT_DESKEW_STEP,
) -> SkewEstimate:
    """Correcting angle that maximizes projection-profile variance.

    The ink pixels (below the fixed threshold) are taken once, with their
    coordinates centred on the image. For every angle on the search grid
    they are projected onto the rotated row axis and the rotated column
    axis, each projection is binned to whole pixels, and the angle scores
    the larger variance of the two profiles, each trimmed to its occupied
    span (Postl's projection-profile method, on both axes so that text
    presented at any cardinal rotation finds the same angle). Rotating the
    image by the returned angle aligns its text lines. A blank image scores
    (0, 0). Ties prefer the smaller absolute angle.
    """
    if not 0 < step_degrees <= search_range_degrees <= 45:
        raise ValueError(
            f"need 0 < step ({step_degrees}) <= range ({search_range_degrees}) <= 45"
        )
    ys, xs = np.nonzero(img.to_array() < BINARIZE_THRESHOLD)
    if len(xs) == 0:
        return SkewEstimate(0.0, 0.0)
    dx = xs - (img.width - 1) / 2.0
    dy = ys - (img.height - 1) / 2.0

    steps = int((search_range_degrees + 1e-9) / step_degrees)
    grid = [i * step_degrees for i in range(-steps, steps + 1) if -45.0 < i * step_degrees <= 45.0]
    best: tuple[float, float, float] | None = None  # (score, -|angle|, -angle)
    best_angle = 0.0
    best_score = 0.0
    for angle in grid:
        # row and column offsets that `rotate` gives each ink point on its canvas
        a = math.radians(angle)
        cos_a, sin_a = math.cos(a), math.sin(a)
        score = max(
            _profile_variance(-sin_a * dx + cos_a * dy),
            _profile_variance(cos_a * dx + sin_a * dy),
        )
        key = (score, -abs(angle), -angle)
        if best is None or key > best:
            best = key
            best_angle, best_score = angle, score
    return SkewEstimate(best_angle, best_score)


def _profile_variance(offsets: np.ndarray) -> float:
    """Variance of the whole-pixel histogram of the offsets, from the first
    occupied bin to the last.

    A half or quarter turn of the image negates or swaps the projections,
    which reverses or swaps the profiles; the sums are exact integers, so the
    score does not change by rounding (barring a point that projects exactly
    onto a bin edge at a nonzero angle).
    """
    bins = np.floor(offsets).astype(np.int64)
    profile = np.bincount(bins - bins.min())
    length = len(profile)
    count = len(offsets)
    return (length * int(profile @ profile) - count * count) / (length * length)


def rotate(img: RasterImage, angle_degrees: float) -> RasterImage:
    """Rotate counterclockwise (as displayed) by the given angle.

    Multiples of 90 degrees are exact pixel permutations; anything else is
    bilinear with white fill on a canvas enlarged to hold the rotated bounds.
    """
    norm = angle_degrees % 360.0
    if norm in (0.0, 90.0, 180.0, 270.0):
        return RasterImage(np.rot90(img.to_array(), k=int(norm) // 90))
    return _rotate_bilinear(img, angle_degrees)


def _rotate_bilinear(img: RasterImage, angle_degrees: float) -> RasterImage:
    a = math.radians(angle_degrees % 360.0)
    cos_a, sin_a = math.cos(a), math.sin(a)
    w, h = img.width, img.height
    out_w = int(math.ceil(abs(w * cos_a) + abs(h * sin_a)))
    out_h = int(math.ceil(abs(h * cos_a) + abs(w * sin_a)))

    dxo = np.arange(out_w) - (out_w - 1) / 2.0
    # the page inside a one-pixel white ring: a tap off the page reads the ring
    ringed = np.pad(img.to_array(), 1, constant_values=255).ravel()
    out = np.empty((out_h, out_w), dtype=np.uint8)
    for top in range(0, out_h, _ROTATE_BAND_ROWS):
        dyo = (np.arange(top, min(top + _ROTATE_BAND_ROWS, out_h)) - (out_h - 1) / 2.0)[:, None]
        # Inverse map: rotate output offsets by -angle back into source space.
        src_x = dxo * cos_a - dyo * sin_a + (w - 1) / 2.0
        src_y = dxo * sin_a + dyo * cos_a + (h - 1) / 2.0
        x0 = np.floor(src_x).astype(np.int64)
        y0 = np.floor(src_y).astype(np.int64)
        fx = src_x - x0
        fy = src_y - y0
        acc = np.zeros(src_x.shape)
        for oy, wy in ((0, 1 - fy), (1, fy)):
            row = (np.clip(y0 + oy, -1, h) + 1) * (w + 2) + 1
            for ox, wx in ((0, 1 - fx), (1, fx)):
                acc += wx * wy * ringed[row + np.clip(x0 + ox, -1, w)]
        out[top : top + len(dyo)] = np.clip(np.rint(acc), 0, 255)
    return RasterImage(out)


def crop_word(img: RasterImage, box: WordBox, pad_pixels: int = DEFAULT_PAD_PIXELS) -> RasterImage:
    """Crop a word box and surround it with a white ring of `pad_pixels`."""
    if pad_pixels < 0:
        raise GeometryError(f"negative padding {pad_pixels}")
    x0, y0, x1, y1 = box.bbox
    if x0 < 0 or y0 < 0 or x1 > img.width or y1 > img.height:
        raise GeometryError(f"box {box.bbox} outside {img.width}x{img.height} image")
    crop = img.to_array()[y0:y1, x0:x1]
    return RasterImage(np.pad(crop, pad_pixels, mode="constant", constant_values=255))
