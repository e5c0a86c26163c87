from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import expat_parse_hocr

from mixtext.docmodel import WordBox
from mixtext.hocr import (
    HocrParseError,
    NoBboxError,
    parse_bbox_title,
    parse_hocr,
    render_hocr,
)

PAGE = """<?xml version="1.0" encoding="UTF-8"?>
<html><body>
<div class='ocr_page' title='bbox 0 0 2480 3508'>
<p class='ocr_par'>
<span class='ocr_line' title='bbox 390 430 1200 500'>
  <span class='ocrx_word' title='bbox 393 441 619 495; x_wconf 93'>Gaitskell</span>
</span>
</p>
</div>
</body></html>
"""


def test_parse_single_word():
    page = parse_hocr(PAGE)
    assert len(page.words) == 1
    word = page.words[0]
    assert word.text == "Gaitskell"
    assert word.bbox == (393, 441, 619, 495)
    assert word.line_index == 0
    assert word.word_index == 0
    assert word.confidence == pytest.approx(0.93)
    assert page.page_bbox == (0, 0, 2480, 3508)
    assert page.raw_title_fields[0]["bbox"] == "393 441 619 495"


def test_parse_empty_body():
    page = parse_hocr("<html><body></body></html>")
    assert page.words == []


def test_line_and_word_indexes():
    words = [
        WordBox("a", (0, 0, 10, 10), 0, 0),
        WordBox("b", (12, 0, 20, 10), 0, 1),
        WordBox("c", (0, 12, 10, 20), 1, 0),
        WordBox("d", (12, 12, 20, 20), 1, 1),
    ]
    page = parse_hocr(render_hocr(words))
    assert [(w.line_index, w.word_index) for w in page.words] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]


def test_entities_decoded():
    doc = (
        "<html><body><div class='ocr_page' title='bbox 0 0 100 100'>"
        "<span class='ocr_line'>"
        "<span class='ocrx_word' title='bbox 1 1 50 20'>604&#39;an</span>"
        "<span class='ocrx_word' title='bbox 1 30 50 49'>A&amp;B</span>"
        "</span></div></body></html>"
    )
    page = parse_hocr(doc)
    assert [w.text for w in page.words] == ["604'an", "A&B"]


def test_empty_text_words_dropped():
    doc = (
        "<html><body><span class='ocr_line'>"
        "<span class='ocrx_word' title='bbox 0 0 5 5'>  </span>"
        "<span class='ocrx_word' title='bbox 6 0 11 5'>kept</span>"
        "</span></body></html>"
    )
    page = parse_hocr(doc)
    assert [w.text for w in page.words] == ["kept"]
    assert page.words[0].word_index == 0
    assert page.skipped_no_bbox == 0


def test_word_without_bbox_tallied():
    doc = (
        "<html><body><span class='ocr_line'>"
        "<span class='ocrx_word' title='x_wconf 91'>lost</span>"
        "<span class='ocrx_word' title='bbox 6 0 11 5'>kept</span>"
        "</span></body></html>"
    )
    page = parse_hocr(doc)
    assert [w.text for w in page.words] == ["kept"]
    assert page.skipped_no_bbox == 1


def test_nested_markup_inside_word():
    doc = (
        "<html><body><span class='ocr_line'>"
        "<span class='ocrx_word' title='bbox 0 0 20 10'><strong>bold</strong>ish</span>"
        "</span></body></html>"
    )
    page = parse_hocr(doc)
    assert page.words[0].text == "boldish"


def test_word_outside_any_line_gets_implicit_line():
    doc = (
        "<html><body><p class='ocr_par'>"
        "<span class='ocrx_word' title='bbox 0 0 5 5'>loose</span>"
        "</p></body></html>"
    )
    page = parse_hocr(doc)
    assert page.words[0].line_index == 0


def test_each_paragraph_is_its_own_fallback_line():
    doc = (
        "<html><body>"
        "<p class='ocr_par'><span class='ocrx_word' title='bbox 0 0 5 5'>one</span></p>"
        "<p class='ocr_par'><span class='ocrx_word' title='bbox 0 6 5 11'>two</span></p>"
        "</body></html>"
    )
    page = parse_hocr(doc)
    assert [(w.line_index, w.word_index) for w in page.words] == [(0, 0), (1, 0)]


def test_page_bbox_expands_to_cover_words():
    doc = (
        "<html><body><div class='ocr_page' title='bbox 0 0 10 10'>"
        "<span class='ocr_line'>"
        "<span class='ocrx_word' title='bbox 5 5 50 20'>wide</span>"
        "</span></div></body></html>"
    )
    page = parse_hocr(doc)
    assert page.page_bbox == (0, 0, 50, 20)


def test_malformed_markup_reports_byte_offset():
    for doc in ("<html><body><span></body></html>", ""):
        with pytest.raises(HocrParseError) as excinfo:
            parse_hocr(doc)
        assert excinfo.value.byte_offset >= 0
        assert "byte" in str(excinfo.value)


def test_parse_bbox_title_direct():
    assert parse_bbox_title("bbox 0 0 100 50") == (0, 0, 100, 50)


def test_parse_bbox_title_after_other_property():
    assert parse_bbox_title("x_wconf 93; bbox 5 6 7 8") == (5, 6, 7, 8)


def test_parse_bbox_title_missing():
    with pytest.raises(NoBboxError):
        parse_bbox_title("x_wconf 93")


def test_parse_bbox_title_short():
    with pytest.raises(NoBboxError):
        parse_bbox_title("bbox 1 2 3")


def test_parse_bbox_title_negative():
    with pytest.raises(NoBboxError):
        parse_bbox_title("bbox -1 0 5 5")


word_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Po"), max_codepoint=0x2FF),
    min_size=1,
    max_size=8,
).filter(lambda s: s.strip() == s and s.strip() != "")


@settings(max_examples=60, deadline=None)
@given(line_sizes=st.lists(st.integers(1, 4), min_size=0, max_size=4), data=st.data())
def test_render_parse_round_trip(line_sizes, data):
    words = []
    for line, count in enumerate(line_sizes):
        for pos in range(count):
            x0 = pos * 30
            y0 = line * 20
            words.append(
                WordBox(
                    data.draw(word_text),
                    (x0, y0, x0 + 20, y0 + 10),
                    line,
                    pos,
                    confidence=data.draw(st.one_of(st.none(), st.sampled_from([0.5, 0.93]))),
                )
            )
    page = parse_hocr(render_hocr(words))
    assert page.words == words
    assert parse_hocr(render_hocr(page.words)).words == words


# Differential test against the expat-callback parser that parse_hocr replaced.

bbox_title = st.builds(
    lambda x0, y0, w, h: f"bbox {x0} {y0} {x0 + w} {y0 + h}",
    st.integers(0, 60),
    st.integers(0, 60),
    st.integers(1, 30),
    st.integers(1, 30),
)
odd_wconf = st.sampled_from(["93", "0", "-5", "150", "abc", "", "nan", "inf", "-inf", "1e3", "9.5"])
title = st.one_of(
    st.just(""),
    bbox_title,
    st.builds(lambda box, conf: f"{box}; x_wconf {conf}", bbox_title, odd_wconf),
    st.builds(lambda conf, box: f"x_wconf {conf}; {box}", odd_wconf, bbox_title),
    st.sampled_from(["x_wconf 91", "bbox 1 2 3", "bbox -1 0 5 5", "bbox a b c d"]),
)
loose_text = st.lists(
    st.sampled_from(["a", "Zq", " ", "\n", "\t", "é", "中", "\U0001F600", "&amp;", "&#39;", "&lt;"]),
    max_size=4,
).map("".join)
inside_word = st.one_of(
    loose_text,
    st.builds("<strong>{}</strong>".format, loose_text),
    st.builds("<span class='ocr_line'>{}</span>".format, loose_text),
    st.builds("<span class='ocrx_word' title='bbox 0 0 9 9'>{}</span>".format, loose_text),
)
word = st.builds(
    lambda title, parts: f"<span class='ocrx_word' title={quoteattr(title)}>{''.join(parts)}</span>",
    title,
    st.lists(inside_word, max_size=3),
)
container_class = st.sampled_from(
    ["", "ocr_page", "ocr_par", "ocr_line", "ocr_carea", "ocr_textfloat", "ocr_par ocr_line",
     "ocr_line ocrx_word", "ocr_page ocr_par"]
)


def container(tag, cls, title, children):
    attrs = (f" class='{cls}'" if cls else "") + (f" title={quoteattr(title)}" if title else "")
    return f"<{tag}{attrs}>{''.join(children)}</{tag}>"


hocr_tree = st.recursive(
    st.one_of(word, loose_text),
    lambda children: st.builds(
        container,
        st.sampled_from(["div", "p", "span"]),
        container_class,
        title,
        st.lists(children, max_size=4),
    ),
    max_leaves=24,
)
hocr_document = st.builds(
    lambda decl, body: f"{decl}<html><body>{body}</body></html>",
    st.sampled_from(["", "<?xml version='1.0' encoding='UTF-8'?>\n"]),
    hocr_tree,
)


def outcome(parse, doc):
    try:
        return parse(doc)
    except HocrParseError as exc:
        return ("HocrParseError", max(0, exc.byte_offset))


@settings(max_examples=300, deadline=None)
@given(doc=hocr_document, data=st.data())
def test_parse_matches_expat_oracle(doc, data):
    page = parse_hocr(doc)
    assert page == expat_parse_hocr(doc)
    # a cut-off document fails at the same byte as in the oracle (clamped to 0)
    cut = doc[: data.draw(st.integers(0, len(doc) - 1))]
    assert outcome(parse_hocr, cut) == outcome(expat_parse_hocr, cut)


def test_tesseract_xhtml_and_deep_nesting_match_expat_oracle():
    words = "".join(
        f"<span class='ocrx_word' id='word_1_{i}' title='bbox {10 * i} 5 {10 * i + 8} 20; "
        f"x_wconf {90 + i}'>w{i}</span> "
        for i in range(3)
    )
    tesseract = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<!DOCTYPE html PUBLIC "-//W3C//DTD XHTML 1.0 Transitional//EN"\n'
        '    "http://www.w3.org/TR/xhtml1/DTD/xhtml1-transitional.dtd">\n'
        '<html xmlns="http://www.w3.org/1999/xhtml" xml:lang="en" lang="en">\n'
        "<head><meta name='ocr-system' content='tesseract' /></head><body>\n"
        "<div class='ocr_page' id='page_1' title='image \"x.pgm\"; bbox 0 0 400 300; ppageno 0'>"
        "<div class='ocr_carea' title='bbox 10 5 38 20'><p class='ocr_par' lang='eng'>"
        f"<span class='ocr_line' title='bbox 10 5 38 20; baseline 0 -3'>{words}</span>"
        f"<span class='ocr_textfloat' title='bbox 10 25 38 40'>{words}</span>"
        "</p></div></div></body></html>\n"
    )
    depth = 20_000
    deep = (
        "<div class='ocr_par'>" * depth
        + "<span class='ocrx_word' title='bbox 1 2 3 4'>deep</span>"
        + "</div>" * depth
    )
    for doc in (tesseract, deep):
        page = parse_hocr(doc)
        assert page.words and page == expat_parse_hocr(doc)
    assert [(w.line_index, w.word_index) for w in parse_hocr(tesseract).words] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]


def test_namespace_and_dtd_entity_errors_report_their_byte_offset():
    # ElementTree refuses an undeclared prefix and an entity that only an
    # unread external DTD could define; the offset points at each
    doctype = '<!DOCTYPE html PUBLIC "-//W3C//DTD XHTML 1.0 Strict//EN" "xhtml1-strict.dtd">'
    word = "<span class='ocrx_word' title='bbox 0 0 5 5'>{}</span>"
    for doc, bad in (
        (doctype + "<html><body>" + word.format("é&nbsp;b") + "</body></html>", "&nbsp;"),
        ("<html><body>" + word.format("é") + "<o:p></o:p></body></html>", "<o:p>"),
    ):
        with pytest.raises(HocrParseError) as excinfo:
            parse_hocr(doc)
        assert excinfo.value.byte_offset == len(doc[: doc.index(bad)].encode())
