import json
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixtext.docmodel import (
    UNK,
    InvariantError,
    OptionsList,
    PageRecord,
    Transcription,
    WordBox,
    flatten,
    options_members,
    options_size,
    unflatten,
)

words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x2FF),
    min_size=1,
    max_size=8,
)


def test_flatten_order():
    t = Transcription((("a", "b"), ("c",)))
    assert flatten(t) == ["a", "b", "c"]


def test_flatten_empty():
    assert flatten(Transcription(())) == []


def test_flatten_singleton():
    assert flatten(Transcription((("x",),))) == ["x"]


@given(st.lists(st.lists(words, max_size=5), max_size=5))
def test_flatten_unflatten_round_trip(lines):
    t = Transcription(tuple(tuple(line) for line in lines), "doc")
    lengths = [len(line) for line in t.lines]
    assert unflatten(flatten(t), lengths, "doc") == t


def test_unflatten_length_mismatch():
    with pytest.raises(InvariantError):
        unflatten(["a", "b"], [1])
    with pytest.raises(InvariantError):
        unflatten(["a", "b"], [-1, 3])


def test_options_size_one():
    assert options_size(OptionsList(a="the", b="the")) == 1


def test_options_size_three():
    assert options_size(OptionsList(a="t4e", b="the", c="the", d="the")) == 3


def test_options_size_four():
    assert options_size(OptionsList(a="t4e", b="the", c="thc", d="the")) == 4


def test_options_size_failed_handwriting_is_four():
    # failed handwriting calls store the UNK pair; d == c but the word never
    # passed a spell check, so the list must fall through the size-4 rules
    assert options_size(OptionsList(a="t4e", b="the", c=UNK, d=UNK)) == 4


def test_options_size_malformed_shapes():
    with pytest.raises(InvariantError):
        options_size(OptionsList(a="the", b="tha"))  # b != a without c/d
    with pytest.raises(InvariantError):
        options_size(OptionsList(a="the", b="the", d="the"))  # d without c
    with pytest.raises(InvariantError):
        options_size(OptionsList(a="the", b="the", c="the"))  # c without d
    with pytest.raises(InvariantError):
        options_size(OptionsList(a="the", b="the", c="the", d="the"))  # passed gating
    with pytest.raises(InvariantError):
        options_size(OptionsList(a="the"))  # b missing entirely


def test_options_members_by_size():
    assert options_members(OptionsList(a="x", b="x")) == ["x"]
    assert options_members(OptionsList(a="x", b="y", c="z", d="z")) == ["x", "y", "z"]
    assert options_members(OptionsList(a="x", b="y", c="z", d="w")) == ["x", "y", "z", "w"]


@given(a=words, b=words, c=words, d=words)
def test_options_size_partition(a, b, c, d):
    # every accepted shape falls in exactly one of the three size classes
    for options in (
        OptionsList(a=a, b=a),
        OptionsList(a=a, b=b, c=c, d=c),
        OptionsList(a=a, b=b, c=c, d=d),
    ):
        try:
            size = options_size(options)
        except InvariantError:
            continue
        if size == 1:
            assert options.b == options.a and options.c is None
        elif size == 3:
            assert options.d == options.c and options.c != UNK
        else:
            assert size == 4
            assert options.d != options.c or options.c == UNK


def test_transcription_rejects_empty_word():
    with pytest.raises(InvariantError):
        Transcription((("a", ""),))


def test_transcription_text_round_trip():
    t = Transcription((("A", "move"), ("to", "stop", ".")), "page-1")
    text = t.to_text()
    assert text == "A move\nto stop .\n"
    assert Transcription.from_text(text, "page-1") == t


def test_word_box_invariants():
    with pytest.raises(InvariantError):
        WordBox("x", (5, 5, 5, 10), 0, 0)
    with pytest.raises(InvariantError):
        WordBox("x", (0, 0, 1, 1), -1, 0)


def _boxes():
    return (
        WordBox("A", (0, 0, 10, 10), 0, 0),
        WordBox("move", (12, 0, 30, 10), 0, 1),
    )


def _final():
    return Transcription((("A", "move"),), "p")


def test_page_record_rejects_unknown_options_key():
    with pytest.raises(InvariantError):
        PageRecord("p", "p.pgm", _boxes(), {(5, 5): OptionsList(a="x", b="x")}, _final())


def test_page_record_rejects_duplicate_positions():
    dup = (_boxes()[0], WordBox("B", (40, 0, 50, 10), 0, 0))
    with pytest.raises(InvariantError):
        PageRecord("p", "p.pgm", dup, {}, _final())


def test_page_record_final_word_count():
    with pytest.raises(InvariantError):
        PageRecord("p", "p.pgm", _boxes(), {}, final=Transcription((("A",),)))


def test_page_record_json_round_trip():
    boxes = _boxes()
    record = PageRecord(
        source_id="p",
        image_path="p.pgm",
        word_boxes=boxes,
        options={
            (0, 0): OptionsList(a="A", b="A"),
            (0, 1): OptionsList(a="m0ve", b="move", c="move", d="move"),
        },
        final=Transcription((("A", "move"),), "p"),
    )
    assert PageRecord.from_json(record.to_json()) == record


def _field_names(cls) -> list[str]:
    return [f.name for f in fields(cls)]


def _mixed_record() -> PageRecord:
    return PageRecord(
        source_id="p",
        image_path="in/p.pgm",
        word_boxes=(WordBox("A", (0, 0, 10, 10), 0, 0, 91.5), WordBox("m0vé", (12, 0, 30, 10), 0, 1)),
        options={
            (0, 1): OptionsList(a="m0vé", b=UNK, c="move", d="move"),
            (0, 0): OptionsList(a="A", b="A"),
        },
        final=Transcription((("A", "move"),), "p"),
    )


def test_checkpoint_keys_are_the_dataclass_fields():
    doc = json.loads(_mixed_record().to_json())
    assert list(doc) == _field_names(PageRecord)
    assert [list(w) for w in doc["word_boxes"]] == [_field_names(WordBox)] * 2
    assert list(doc["options"]) == ["0,0", "0,1"]  # "line,word", in position order
    assert [list(o) for o in doc["options"].values()] == [_field_names(OptionsList)] * 2
    assert list(doc["final"]) == _field_names(Transcription)


def test_checkpoint_in_the_earlier_layout_loads():
    # written field by field, `final` with source_id first; a checkpoint
    # whose word box lacks `confidence` takes the dataclass default
    box = {"text": "A", "bbox": [0, 0, 10, 10], "line_index": 0, "word_index": 0}
    doc = {
        "source_id": "p",
        "image_path": "in/p.pgm",
        "word_boxes": [
            {**box, "confidence": 91.5},
            {"text": "m0vé", "bbox": [12, 0, 30, 10], "line_index": 0, "word_index": 1},
        ],
        "options": {
            "0,0": {"a": "A", "b": "A", "c": None, "d": None},
            "0,1": {"a": "m0vé", "b": UNK, "c": "move", "d": "move"},
        },
        "final": {"source_id": "p", "lines": [["A", "move"]]},
    }
    text = json.dumps(doc, ensure_ascii=False, indent=2)
    assert PageRecord.from_json(text) == _mixed_record()
    # every record has a final transcription: a null one makes the checkpoint unreadable
    doc["final"] = None
    with pytest.raises(TypeError):
        PageRecord.from_json(json.dumps(doc))


@pytest.mark.parametrize("where", ["top", "word_box", "options", "final"])
def test_checkpoint_with_an_unknown_key_is_refused(where):
    doc = json.loads(_mixed_record().to_json())
    target = {
        "top": doc,
        "word_box": doc["word_boxes"][1],
        "options": doc["options"]["0,1"],
        "final": doc["final"],
    }[where]
    target["trace"] = {}
    with pytest.raises(TypeError):
        PageRecord.from_json(json.dumps(doc))
