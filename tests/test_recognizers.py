import re
import sys

import numpy as np
import pytest

from mixtext.docmodel import WordBox
from mixtext.hocr import render_hocr
from mixtext.imaging import RasterImage
from mixtext.recognizers import (
    EXTERNAL,
    HANDWRITTEN,
    MACHINE_PRINTED,
    MOCK,
    RecognizerError,
    RecognizerSpec,
    ScriptedMissError,
    image_fingerprint,
    recognize_page,
    recognize_word,
)


def img(width=6, height=4, value=255):
    return RasterImage(np.full((height, width), value, dtype=np.uint8))


def test_fingerprint_is_stable_and_sensitive():
    a = img(value=0)
    assert image_fingerprint(a) == image_fingerprint(img(value=0))
    assert image_fingerprint(a) != image_fingerprint(img(value=1))
    assert image_fingerprint(img(2, 3)) != image_fingerprint(img(3, 2))
    assert image_fingerprint(a).startswith("6x4:")


def test_fingerprint_format_and_single_changes():
    pixels = np.arange(6, dtype=np.uint8)
    base = RasterImage(pixels.reshape(2, 3))
    assert re.fullmatch(r"3x2:[0-9a-f]{16}", image_fingerprint(base))
    one_pixel = pixels.copy()
    one_pixel[4] += 1
    assert image_fingerprint(RasterImage(one_pixel.reshape(2, 3))) != image_fingerprint(base)
    swapped = RasterImage(pixels.reshape(3, 2))
    assert image_fingerprint(swapped) != image_fingerprint(base)
    assert image_fingerprint(swapped).split(":")[1] == image_fingerprint(base).split(":")[1]


def test_mock_page_recognition():
    page_img = img()
    words = [
        WordBox("A", (0, 0, 2, 2), 0, 0),
        WordBox("move", (3, 0, 5, 2), 0, 1),
    ]
    spec = RecognizerSpec(
        kind=MACHINE_PRINTED,
        backend=MOCK,
        mock_script={image_fingerprint(page_img): render_hocr(words)},
    )
    page = recognize_page(spec, page_img)
    assert [w.text for w in page.words] == ["A", "move"]


def test_mock_blank_page():
    page_img = img()
    spec = RecognizerSpec(
        kind=MACHINE_PRINTED,
        backend=MOCK,
        mock_script={image_fingerprint(page_img): render_hocr([])},
    )
    assert recognize_page(spec, page_img).words == []


def test_mock_fingerprint_miss():
    spec = RecognizerSpec(kind=MACHINE_PRINTED, backend=MOCK, mock_script={})
    with pytest.raises(ScriptedMissError):
        recognize_page(spec, img())


def test_mock_word_recognition():
    crop = img(3, 3, 10)
    spec = RecognizerSpec(
        kind=HANDWRITTEN,
        backend=MOCK,
        mock_script={image_fingerprint(crop): "move"},
    )
    assert recognize_word(spec, crop) == "move"


def test_mock_word_empty_output():
    crop = img(3, 3, 10)
    spec = RecognizerSpec(
        kind=HANDWRITTEN, backend=MOCK, mock_script={image_fingerprint(crop): ""}
    )
    assert recognize_word(spec, crop) == ""


def test_word_output_collapses_to_first_token():
    crop = img(3, 3, 10)
    spec = RecognizerSpec(
        kind=HANDWRITTEN,
        backend=MOCK,
        mock_script={image_fingerprint(crop): "two words here\n"},
    )
    assert recognize_word(spec, crop) == "two"


def test_kind_mismatch_rejected():
    page_spec = RecognizerSpec(kind=MACHINE_PRINTED, backend=MOCK, mock_script={})
    word_spec = RecognizerSpec(kind=HANDWRITTEN, backend=MOCK, mock_script={})
    with pytest.raises(ValueError):
        recognize_word(page_spec, img())
    with pytest.raises(ValueError):
        recognize_page(word_spec, img())


def test_spec_invariants():
    with pytest.raises(ValueError):
        RecognizerSpec(kind="page", backend=MOCK, mock_script={})
    with pytest.raises(ValueError):
        RecognizerSpec(kind=MACHINE_PRINTED, backend=EXTERNAL)
    with pytest.raises(ValueError):
        RecognizerSpec(kind=MACHINE_PRINTED, backend=MOCK)


PAGE_SCRIPT = """
import sys
hocr = (
    "<html><body><span class='ocr_line'>"
    "<span class='ocrx_word' title='bbox 0 0 10 10'>ran</span>"
    "</span></body></html>"
)
with open(sys.argv[2] + ".hocr", "w") as f:
    f.write(hocr)
"""


def test_external_page_recognizer():
    spec = RecognizerSpec(
        kind=MACHINE_PRINTED,
        backend=EXTERNAL,
        argv_template=(sys.executable, "-c", PAGE_SCRIPT, "{in}", "{out}"),
    )
    page = recognize_page(spec, img())
    assert [w.text for w in page.words] == ["ran"]


def test_external_word_recognizer_reads_stdout():
    spec = RecognizerSpec(
        kind=HANDWRITTEN,
        backend=EXTERNAL,
        argv_template=(sys.executable, "-c", "print('move and more')", "{in}", "{out}"),
    )
    assert recognize_word(spec, img()) == "move"


def test_external_nonzero_exit():
    # a plain failure, a kill by a signal, and output written before failing
    for script in (
        "import sys; sys.exit(2)",
        "import os, signal; os.kill(os.getpid(), signal.SIGKILL)",
        "print('move'); raise SystemExit(3)",
    ):
        spec = RecognizerSpec(
            kind=HANDWRITTEN,
            backend=EXTERNAL,
            argv_template=(sys.executable, "-c", script, "{in}", "{out}"),
        )
        with pytest.raises(RecognizerError):
            recognize_word(spec, img())
    # a page engine that writes its hOCR and then exits nonzero
    spec = RecognizerSpec(
        kind=MACHINE_PRINTED,
        backend=EXTERNAL,
        argv_template=(sys.executable, "-c", PAGE_SCRIPT + "sys.exit(1)\n", "{in}", "{out}"),
    )
    with pytest.raises(RecognizerError):
        recognize_page(spec, img())


def test_external_missing_output_file():
    # exit 0 but no usable {out}.hocr: none at all, empty, not UTF-8, cut off mid-tag
    write = "import sys; open(sys.argv[2] + '.hocr', 'wb').write({!r})"
    for script in (
        "pass",
        write.format(b""),
        write.format(b"<html><body>\xff\xfe</body></html>"),
        write.format(b"<html><body><span class='ocr_line'><span class='ocrx_word' title='bbox 0 0 1"),
    ):
        spec = RecognizerSpec(
            kind=MACHINE_PRINTED,
            backend=EXTERNAL,
            argv_template=(sys.executable, "-c", script, "{in}", "{out}"),
        )
        with pytest.raises(RecognizerError):
            recognize_page(spec, img())


def test_external_timeout():
    spec = RecognizerSpec(
        kind=HANDWRITTEN,
        backend=EXTERNAL,
        argv_template=(sys.executable, "-c", "import time; time.sleep(60)", "{in}", "{out}"),
        timeout=0.5,
    )
    with pytest.raises(RecognizerError):
        recognize_word(spec, img())


def test_external_receives_the_image(tmp_path):
    script = (
        "import sys\n"
        "data = open(sys.argv[1], 'rb').read()\n"
        "print('white' if data.endswith(b'\\xff' * 24) else 'other')\n"
    )
    spec = RecognizerSpec(
        kind=HANDWRITTEN,
        backend=EXTERNAL,
        argv_template=(sys.executable, "-c", script, "{in}", "{out}"),
    )
    assert recognize_word(spec, img()) == "white"
