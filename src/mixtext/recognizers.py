"""Pluggable recognition backends: page-level machine print and word-level
handwriting, each either a deterministic fingerprint-keyed mock or an
external command.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from pathlib import Path

from .hocr import HocrPage, parse_hocr
from .imaging import RasterImage, run_external

log = logging.getLogger(__name__)

MACHINE_PRINTED = "machine_printed"
HANDWRITTEN = "handwritten"
MOCK = "mock"
EXTERNAL = "external"
DEFAULT_TIMEOUT = 30.0


class RecognizerError(RuntimeError):
    """An external engine failed, timed out, or produced no usable output."""


class ScriptedMissError(RecognizerError):
    """A mock recognizer saw an image it has no scripted output for."""


def image_fingerprint(img: RasterImage) -> str:
    """Stable identity of an image: dimensions plus a 64-bit BLAKE2b digest
    of its pixels."""
    return f"{img.width}x{img.height}:{hashlib.blake2b(img.to_array(), digest_size=8).hexdigest()}"


@dataclass(frozen=True)
class RecognizerSpec:
    """A recognizer handle: what it recognizes and how it is backed.

    Mock scripts map image fingerprints to canned output (hOCR markup for
    page recognizers, a transcription line for word recognizers), so any
    change to preprocessing shows up as a scripted miss.
    """

    kind: str
    backend: str
    argv_template: tuple[str, ...] | None = None
    mock_script: dict[str, str] | None = None
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if self.kind not in (MACHINE_PRINTED, HANDWRITTEN):
            raise ValueError(f"unknown recognizer kind {self.kind!r}")
        if self.backend not in (MOCK, EXTERNAL):
            raise ValueError(f"unknown recognizer backend {self.backend!r}")
        if self.backend == EXTERNAL and not self.argv_template:
            raise ValueError("external backend needs an argv_template")
        if self.backend == MOCK and self.mock_script is None:
            raise ValueError("mock backend needs a mock_script")
        if self.argv_template is not None:
            object.__setattr__(self, "argv_template", tuple(self.argv_template))


def recognize_page(spec: RecognizerSpec, img: RasterImage) -> HocrPage:
    """Run page-level machine-printed recognition, yielding hOCR word boxes."""
    if spec.kind != MACHINE_PRINTED:
        raise ValueError(f"recognize_page needs a {MACHINE_PRINTED} spec, got {spec.kind}")
    if spec.backend == MOCK:
        return parse_hocr(_mock_lookup(spec, img))
    return run_external(spec.argv_template, img, spec.timeout, "out", _read_hocr, RecognizerError)


def recognize_word(spec: RecognizerSpec, word_img: RasterImage) -> str:
    """Run word-level handwriting recognition on a cropped, padded word image.

    Multi-token engine output is collapsed to its first whitespace-delimited
    token; the crop holds a single word by construction.
    """
    if spec.kind != HANDWRITTEN:
        raise ValueError(f"recognize_word needs a {HANDWRITTEN} spec, got {spec.kind}")
    if spec.backend == MOCK:
        raw = _mock_lookup(spec, word_img)
    else:
        raw = run_external(
            spec.argv_template, word_img, spec.timeout, "out", _read_stdout, RecognizerError
        )
    tokens = raw.split()
    if len(tokens) > 1:
        log.debug("collapsing multi-token recognition %r to %r", raw, tokens[0])
    return tokens[0] if tokens else ""


def _mock_lookup(spec: RecognizerSpec, img: RasterImage) -> str:
    fp = image_fingerprint(img)
    assert spec.mock_script is not None
    try:
        return spec.mock_script[fp]
    except KeyError:
        raise ScriptedMissError(f"no scripted output for image {fp}") from None


def _read_hocr(out_base: str, _stdout: bytes) -> HocrPage:
    # the page engine appends ".hocr" to the {out} base name
    return parse_hocr(Path(out_base + ".hocr").read_text(encoding="utf-8"))


def _read_stdout(_out_base: str, stdout: bytes) -> str:
    return stdout.decode("utf-8", errors="replace")
