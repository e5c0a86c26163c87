import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from mixtext.docmodel import UNK, Transcription, flatten, options_size
from mixtext.imaging import enhance, rotate, save_pgm
from mixtext.metrics import lev_accuracy, options_stats
from mixtext.pipeline import (
    CheckerConfig,
    ConfigError,
    PageError,
    PipelineConfig,
    load_resources,
    read_config,
    run_corpus,
    select_rotation,
    transcribe_page,
)
from mixtext.recognizers import EXTERNAL, HANDWRITTEN, MACHINE_PRINTED, RecognizerSpec

from synth import (
    deskew_scenario,
    handwriting_mock,
    machine_mock,
    padding_scenario,
    page_with_words,
    rotation_scenario,
    script_crops,
    script_page,
    sideways_skew_scenario,
)

DICT_PATH = "tests/data/words_en.txt"


def base_config(machine, hand=None, **overrides) -> PipelineConfig:
    params = dict(
        machine_printed=machine,
        handwritten=hand,
        dictionary_path=DICT_PATH,
        enhance=False,
        deskew=False,
        rotate_select=False,
    )
    params.update(overrides)
    return PipelineConfig(**params)


class CountingScript(dict):
    """Mock script that counts lookups, for invocation assertions."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


# --- configuration ------------------------------------------------------------


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        PipelineConfig(rotation_candidates=()).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(rotation_candidates=(45,)).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(nomination="vote").validate()
    with pytest.raises(ConfigError):
        PipelineConfig(pad_pixels=-1).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(deskew_step=0).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(parallelism=0).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(dictionary_path=DICT_PATH, max_edit=5).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(embedding_dim=0)
    # the config validates itself, so a bad replace fails at once
    valid_cfg = PipelineConfig()
    with pytest.raises(ConfigError):
        replace(valid_cfg, parallelism=0)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"pad_pixel": 3})
    # malformed values are config errors too, not raw exceptions
    external = {"kind": "machine_printed", "backend": "external"}
    for doc in (
        {"rotation_candidates": ["x"]},
        {"machine_printed": "tesseract"},
        {"machine_printed": {**external, "argv_template": "tesseract {in} {out} hocr"}},
        {"machine_printed": {**external, "argv_template": ["ocr", "{in}"], "timout": 5}},
        {"checker_chain": [{"dictionary_path": DICT_PATH, "checker": "main"}]},
        {"checker_chain": [{"dictionary_path": DICT_PATH, "max_edit": 7}]},
        {"checker_chain": [{"dictionary_path": 5}]},
        {"checker_chain": [{"dictionary_path": DICT_PATH, "frequency_path": 5}]},
        {"checker_chain": [{"dictionary_path": DICT_PATH, "checker_id": 3}]},
        {"machine_printed": {"kind": "handwritten", "backend": "mock", "mock_script": {}}},
        {"handwritten": {"kind": "machine_printed", "backend": "mock", "mock_script": {}}},
        {"embedding_backend": "file"},
    ):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(doc)


def test_config_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"pad_pixels": 4, "nomination": "context", "rotation_candidates": [0, 180]}),
        encoding="utf-8",
    )
    cfg = PipelineConfig.from_dict(read_config(path))
    assert cfg.pad_pixels == 4
    assert cfg.nomination == "context"
    assert cfg.rotation_candidates == (0, 180)


def test_config_from_file_bad_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(read_config(path))


def test_load_resources_needs_dictionary():
    with pytest.raises(ConfigError):
        load_resources(PipelineConfig())


def test_checker_chain_config(tmp_path):
    second = tmp_path / "extra.txt"
    second.write_text("zonkey\n", encoding="utf-8")
    cfg = PipelineConfig.from_dict(
        {
            "checker_chain": [
                {"dictionary_path": DICT_PATH, "checker_id": "main"},
                {"dictionary_path": str(second), "checker_id": "extra", "max_edit": 1},
            ]
        }
    )
    resources = load_resources(cfg)
    assert [c.checker_id for c in resources.checkers] == ["main", "extra"]
    # the first dictionary also backs rotation scoring
    assert resources.dictionary.contains("the")


def test_legacy_dictionary_fields_form_one_checker(tmp_path):
    legacy = load_resources(PipelineConfig(dictionary_path=DICT_PATH, max_edit=1))
    assert [(c.checker_id, c.max_edit) for c in legacy.checkers] == [("builtin", 1)]
    assert legacy.dictionary is legacy.checkers[0].dictionary
    # the chain comes one way: the top-level fields beside an explicit chain are refused
    chain = (CheckerConfig(DICT_PATH, checker_id="other"),)
    with pytest.raises(ConfigError, match="dictionary_path beside checker_chain"):
        PipelineConfig(dictionary_path=DICT_PATH, checker_chain=chain)


@pytest.mark.parametrize(
    "fields, keys",
    [
        ({"frequency_path": "freq.tsv"}, "frequency_path without dictionary_path"),
        ({"max_edit": 1}, "max_edit without dictionary_path"),
        ({"frequency_path": "freq.tsv", "checker_chain": [{"dictionary_path": DICT_PATH}]},
         "frequency_path beside checker_chain"),
        ({"max_edit": 1, "checker_chain": [{"dictionary_path": DICT_PATH}]},
         "max_edit beside checker_chain"),
        ({"dictionary_path": 5}, "dictionary_path must be a string"),
        ({"dictionary_path": ""}, "dictionary_path must not be empty"),
        ({"dictionary_path": DICT_PATH, "frequency_path": 5}, "frequency_path must be a string"),
        ({"dictionary_path": DICT_PATH, "max_edit": 3}, "max_edit must be 1 or 2"),
    ],
)
def test_top_level_spell_check_fields_are_read_or_refused(fields, keys):
    with pytest.raises(ConfigError, match=keys):
        PipelineConfig.from_dict(fields)


def test_spell_check_chain_comes_one_way():
    entry = CheckerConfig(DICT_PATH, "freq.tsv", 1)
    top = PipelineConfig(dictionary_path=DICT_PATH, frequency_path="freq.tsv", max_edit=1)
    assert top.spell_check_chain == (entry,)
    assert PipelineConfig(checker_chain=(entry,)).spell_check_chain == (entry,)
    assert PipelineConfig().spell_check_chain == ()


# --- single page flow ---------------------------------------------------------


def make_page(tmp_path, lines, stem="page"):
    img, boxes = page_with_words(lines)
    path = tmp_path / f"{stem}.pgm"
    save_pgm(img, path)
    return img, boxes, path


def test_all_printed_happy_path(tmp_path):
    lines = [["a", "move"], ["to", "stop"]]
    img, boxes, path = make_page(tmp_path, lines)
    hand_script = CountingScript()
    cfg = base_config(machine_mock(script_page(img, boxes)), handwriting_mock(hand_script))
    record = transcribe_page(path, cfg)
    assert all(options_size(o) == 1 for o in record.options.values())
    assert record.final.lines == (("a", "move"), ("to", "stop"))
    assert record.source_id == "page"
    assert hand_script.lookups == 0  # gating passed everywhere


def test_planted_handwriting_words(tmp_path):
    lines = [["a", "qzqzq", "to"], ["zxzxz", "stop"]]
    truths = {(0, 1): "move", (1, 0): "the"}
    img, boxes, path = make_page(tmp_path, lines)
    hand_script = CountingScript(script_crops(img, boxes, truths, pad_pixels=10))
    cfg = base_config(machine_mock(script_page(img, boxes)), handwriting_mock(hand_script))
    record = transcribe_page(path, cfg)
    sizes = {pos: options_size(o) for pos, o in record.options.items()}
    assert sizes == {(0, 0): 1, (0, 1): 3, (0, 2): 1, (1, 0): 3, (1, 1): 1}
    assert flatten(record.final) == ["a", "move", "to", "the", "stop"]
    assert hand_script.lookups == 2  # exactly the gated words


def test_handwriting_failing_spell_check(tmp_path):
    lines = [["a", "qzqzq"]]
    img, boxes, path = make_page(tmp_path, lines)
    # handwriting output one edit from "move": spell check corrects, size 4
    hand_script = script_crops(img, boxes, {(0, 1): "moveq"}, pad_pixels=10)
    cfg = base_config(machine_mock(script_page(img, boxes)), handwriting_mock(hand_script))
    record = transcribe_page(path, cfg)
    options = record.options[(0, 1)]
    assert options_size(options) == 4
    assert options.c == "moveq" and options.d == "move"
    assert flatten(record.final) == ["a", "move"]


def external_hand(program: str) -> RecognizerSpec:
    argv_template = (sys.executable, "-c", program, "{in}", "{out}")
    return RecognizerSpec(kind=HANDWRITTEN, backend=EXTERNAL, argv_template=argv_template)


def test_handwriting_miss_degrades_to_unk_pair(tmp_path):
    lines = [["a", "qzqzq"]]
    img, boxes, path = make_page(tmp_path, lines)
    page = script_page(img, boxes)
    # the gated word's box reaches past the right edge, so it cannot be cropped
    x0, y0, _, y1 = boxes[1].bbox
    past_edge = script_page(img, [boxes[0], replace(boxes[1], bbox=(x0, y0, img.width + 40, y1))])
    unused = CountingScript()
    for machine_script, hand in (
        (page, handwriting_mock({})),  # no scripted output for the crop
        (page, external_hand("import os, signal; os.kill(os.getpid(), signal.SIGKILL)")),
        (page, external_hand("print('move'); raise SystemExit(3)")),  # output, then failure
        (past_edge, handwriting_mock(unused)),
    ):
        cfg = base_config(machine_mock(machine_script), hand)
        record = transcribe_page(path, cfg)
        options = record.options[(0, 1)]
        assert (options.c, options.d) == (UNK, UNK)
        assert options_size(options) == 4
        # rule fallback: D is UNK, B is UNK (garble uncorrectable), so A stays
        assert flatten(record.final) == ["a", "qzqzq"]
    assert unused.lookups == 0


def test_no_handwritten_recognizer_configured(tmp_path):
    lines = [["a", "qzqzq"]]
    img, boxes, path = make_page(tmp_path, lines)
    cfg = base_config(machine_mock(script_page(img, boxes)), hand=None)
    record = transcribe_page(path, cfg)
    assert options_size(record.options[(0, 1)]) == 4


def test_empty_handwriting_output_treated_as_failure(tmp_path):
    lines = [["qzqzq"]]
    img, boxes, path = make_page(tmp_path, lines)
    hand_script = script_crops(img, boxes, {(0, 0): ""}, pad_pixels=10)
    cfg = base_config(machine_mock(script_page(img, boxes)), handwriting_mock(hand_script))
    record = transcribe_page(path, cfg)
    assert (record.options[(0, 0)].c, record.options[(0, 0)].d) == (UNK, UNK)


def test_unreadable_image_is_page_error(tmp_path):
    path = tmp_path / "broken.pgm"
    path.write_bytes(b"P5 garbage")
    cfg = base_config(machine_mock({}))
    with pytest.raises(PageError):
        transcribe_page(path, cfg)


def test_missing_machine_recognizer_is_config_error(tmp_path):
    _, _, path = make_page(tmp_path, [["a"]])
    with pytest.raises(ConfigError):
        transcribe_page(path, PipelineConfig(dictionary_path=DICT_PATH))


def test_empty_page_produces_empty_transcription(tmp_path):
    img, boxes, path = make_page(tmp_path, [["a"]])
    cfg = base_config(machine_mock({list(script_page(img, boxes))[0]: "<html><body></body></html>"}))
    record = transcribe_page(path, cfg)
    assert record.word_boxes == ()
    assert record.final.word_count() == 0


def test_context_strategy_end_to_end(tmp_path):
    lines = [["a", "qzqzq", "to"]]
    img, boxes, path = make_page(tmp_path, lines)
    hand_script = script_crops(img, boxes, {(0, 1): "move"}, pad_pixels=10)
    cfg = base_config(
        machine_mock(script_page(img, boxes)),
        handwriting_mock(hand_script),
        nomination="context",
    )
    record = transcribe_page(path, cfg)
    assert len(flatten(record.final)) == 3
    assert flatten(record.final)[0] == "a"


# --- rotation selection -------------------------------------------------------


@pytest.mark.parametrize("angle", [0, 90, 180, 270])
def test_rotation_selection_restores_page(tmp_path, angle):
    path, script, lines, _ = rotation_scenario(tmp_path, angle)
    cfg = base_config(machine_mock(script), rotate_select=True)
    record = transcribe_page(path, cfg)
    assert record.final.lines == tuple(tuple(line) for line in lines)


def test_rotation_disabled_reads_garbage(tmp_path):
    path, script, _, label = rotation_scenario(tmp_path, 180)
    cfg = base_config(machine_mock(script), rotate_select=False)
    record = transcribe_page(path, cfg)
    prediction = " ".join(flatten(record.final))
    assert lev_accuracy(prediction, label) < 0.1
    assert not set(flatten(record.final)) & set(label.split())


def test_rotation_tie_breaks_to_smaller_angle(tmp_path, english):
    img, boxes = page_with_words([["qzq", "zxz"]])  # nothing scores
    script = {}
    for candidate in (0, 90, 180, 270):
        rotated = rotate(img, candidate) if candidate else img
        script.update(script_page(rotated, boxes))
    cfg = base_config(machine_mock(script), rotate_select=True)
    resources = load_resources(cfg)
    angle, _, page = select_rotation(img, cfg, resources)
    assert angle == 0


def test_rotation_all_failures_is_page_error(tmp_path, english):
    img, _ = page_with_words([["a"]])
    cfg = base_config(machine_mock({}), rotate_select=True)
    resources = load_resources(cfg)
    with pytest.raises(PageError):
        select_rotation(img, cfg, resources)


@pytest.mark.parametrize("rotate_select", [True, False])
def test_malformed_hocr_at_every_rotation_is_page_error(tmp_path, rotate_select):
    _, _, path = make_page(tmp_path, [["a", "move"]])
    malformed = "import sys; open(sys.argv[2] + '.hocr', 'w').write('<html><body><span')"
    engine = RecognizerSpec(
        kind=MACHINE_PRINTED,
        backend=EXTERNAL,
        argv_template=(sys.executable, "-c", malformed, "{in}", "{out}"),
    )
    with pytest.raises(PageError):
        transcribe_page(path, base_config(engine, rotate_select=rotate_select))


# --- preprocessing toggles ----------------------------------------------------


def test_deskew_improves_accuracy(tmp_path):
    path, script, label = deskew_scenario(tmp_path)
    with_deskew = transcribe_page(path, base_config(machine_mock(script), deskew=True))
    without = transcribe_page(path, base_config(machine_mock(script), deskew=False))
    acc_on = lev_accuracy(" ".join(flatten(with_deskew.final)), label)
    acc_off = lev_accuracy(" ".join(flatten(without.final)), label)
    assert acc_on == 1.0
    assert acc_on >= acc_off
    assert acc_off < 1.0


def test_skewed_sideways_page_reads_fully(tmp_path):
    path, script, lines = sideways_skew_scenario(tmp_path, 3.5, 90)
    cfg = base_config(machine_mock(script), deskew=True, rotate_select=True)
    record = transcribe_page(path, cfg)
    assert record.final.lines == tuple(tuple(line) for line in lines)


def test_padding_improves_accuracy(tmp_path):
    path, machine_script, hand_script, label = padding_scenario(tmp_path)
    padded = transcribe_page(
        path, base_config(machine_mock(machine_script), handwriting_mock(hand_script), pad_pixels=10)
    )
    bare = transcribe_page(
        path, base_config(machine_mock(machine_script), handwriting_mock(hand_script), pad_pixels=0)
    )
    acc_padded = lev_accuracy(" ".join(flatten(padded.final)), label)
    acc_bare = lev_accuracy(" ".join(flatten(bare.final)), label)
    assert acc_padded == 1.0
    assert acc_padded >= acc_bare
    assert acc_bare < 1.0


def test_enhance_toggle_composes(tmp_path):
    lines = [["a", "move"]]
    img, boxes = page_with_words(lines)
    enhanced = enhance(img)
    script = script_page(enhanced, boxes)

    raw_path = tmp_path / "raw" / "page.pgm"
    raw_path.parent.mkdir()
    save_pgm(img, raw_path)
    pre_path = tmp_path / "pre" / "page.pgm"
    pre_path.parent.mkdir()
    save_pgm(enhanced, pre_path)

    with_stage = transcribe_page(raw_path, base_config(machine_mock(script), enhance=True))
    pre_enhanced = transcribe_page(pre_path, base_config(machine_mock(script), enhance=False))
    assert with_stage.final == pre_enhanced.final
    assert with_stage.options == pre_enhanced.options
    assert with_stage.word_boxes == pre_enhanced.word_boxes


def test_external_enhancement_failure_falls_back(tmp_path, caplog):
    lines = [["a", "move"]]
    img, boxes = page_with_words(lines)
    script = script_page(enhance(img), boxes)  # keyed on the built-in result
    path = tmp_path / "page.pgm"
    save_pgm(img, path)
    # a nonzero exit, and an exit 0 that leaves something other than an image
    for program in ("import sys; sys.exit(1)", "import sys; open(sys.argv[2], 'w').write('junk')"):
        cfg = base_config(
            machine_mock(script),
            enhance=True,
            enhancement_command=(sys.executable, "-c", program, "{in}", "{out}"),
        )
        caplog.clear()
        with caplog.at_level("WARNING"):
            record = transcribe_page(path, cfg)
        assert flatten(record.final) == ["a", "move"]
        assert any("enhancement failed" in message for message in caplog.messages)


def test_external_enhancement_success_is_used(tmp_path):
    lines = [["a", "move"]]
    img, boxes = page_with_words(lines)
    script = script_page(img, boxes)  # identity command returns the raw image
    path = tmp_path / "page.pgm"
    save_pgm(img, path)
    cfg = base_config(
        machine_mock(script),
        enhance=True,
        enhancement_command=(
            sys.executable,
            "-c",
            "import shutil, sys; shutil.copy(sys.argv[1], sys.argv[2])",
            "{in}",
            "{out}",
        ),
    )
    record = transcribe_page(path, cfg)
    assert flatten(record.final) == ["a", "move"]


# --- corpus runs ----------------------------------------------------------------


def test_planted_corpus_end_to_end(tmp_path, planted):
    corpus = planted
    result = run_corpus(corpus.input_dir, corpus.config, tmp_path / "out", corpus.labels_dir)
    assert not result.failures
    assert options_stats(result.pages) == (0.65, 0.16, 0.19)
    assert result.report.document_count() == 3
    for stem in corpus.truths:
        assert (tmp_path / "out" / f"{stem}.txt").exists()
        assert (tmp_path / "out" / f"{stem}.json").exists()
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "report.txt").exists()
    # corpus means recomputable from per-doc values
    for name, mean in result.report.corpus.items():
        values = [scores.scalar(name) for scores in result.report.per_doc.values()]
        assert mean == pytest.approx(sum(values) / len(values))


def test_corpus_collects_page_failures(tmp_path, planted):
    import shutil

    input_copy = tmp_path / "input"
    shutil.copytree(planted.input_dir, input_copy)
    (input_copy / "broken.pgm").write_bytes(b"P5 nope")
    result = run_corpus(input_copy, planted.config, tmp_path / "out", planted.labels_dir)
    assert set(result.failures) == {"broken"}
    assert len(result.pages) == 3


def test_page_named_like_the_report_is_refused(tmp_path, planted, caplog):
    # the evaluation report owns report.txt/report.json: a page of that name
    # fails, naming the reserved stem, instead of losing its outputs
    import shutil

    input_copy = tmp_path / "input"
    shutil.copytree(planted.input_dir, input_copy)
    (input_copy / f"{sorted(planted.truths)[0]}.pgm").rename(input_copy / "report.pgm")
    out = tmp_path / "out"
    result = run_corpus(input_copy, planted.config, out, planted.labels_dir)
    assert set(result.failures) == {"report"}
    assert "'report' is reserved" in result.failures["report"]
    assert len(result.pages) == 2 and result.report.document_count() == 2
    assert (out / "report.json").read_text(encoding="utf-8") == result.report.to_json()
    # the page fails before any work: resumed, the other pages come from their
    # checkpoints, so no engine runs, and report.json is never read as a page
    machine, hand = planted.config.machine_printed, planted.config.handwritten
    counting = replace(
        planted.config,
        machine_printed=replace(machine, mock_script=CountingScript(machine.mock_script)),
        handwritten=replace(hand, mock_script=CountingScript(hand.mock_script)),
    )
    caplog.clear()
    again = run_corpus(input_copy, counting, out, planted.labels_dir, resume=True)
    assert set(again.failures) == {"report"} and len(again.pages) == 2
    assert counting.machine_printed.mock_script.lookups == 0
    assert counting.handwritten.mock_script.lookups == 0
    assert "unreadable checkpoint" not in caplog.text


def test_corpus_without_labels_has_no_report(tmp_path, planted):
    corpus = planted
    result = run_corpus(corpus.input_dir, corpus.config, tmp_path / "out")
    assert result.report is None
    assert not (tmp_path / "out" / "report.json").exists()


def test_corpus_empty_directory(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    cfg = base_config(machine_mock({}))
    result = run_corpus(empty, cfg, tmp_path / "out", tmp_path / "empty")
    assert result.pages == [] and result.failures == {}
    assert result.report is not None and result.report.document_count() == 0


def test_corpus_resume_reuses_checkpoints(tmp_path, planted):
    corpus = planted
    out = tmp_path / "out"
    first = run_corpus(corpus.input_dir, corpus.config, out, corpus.labels_dir)
    assert not first.failures
    # resume must trust the checkpoint, not recompute: plant a marker
    stem = next(iter(corpus.truths))
    record = next(p for p in first.pages if p.source_id == stem)
    marked = record.to_json().replace(f'"source_id": "{stem}"', '"source_id": "marked"', 1)
    (out / f"{stem}.json").write_text(marked, encoding="utf-8")
    again = run_corpus(corpus.input_dir, corpus.config, out, corpus.labels_dir, resume=True)
    assert any(page.source_id == "marked" for page in again.pages)


def test_corpus_text_written_before_checkpoint(tmp_path, planted, monkeypatch):
    # a crash while writing the first page's text must not leave a checkpoint
    # that a resumed run trusts without ever writing the text
    corpus = planted
    out = tmp_path / "out"
    to_text = Transcription.to_text
    crashes = [RuntimeError("crash while writing text")]

    def crash_once(self):
        try:
            crash = crashes.pop()  # atomic, so only one worker thread crashes
        except IndexError:
            return to_text(self)
        raise crash

    monkeypatch.setattr(Transcription, "to_text", crash_once)
    first = run_corpus(corpus.input_dir, corpus.config, out)
    assert len(first.failures) == 1
    again = run_corpus(corpus.input_dir, corpus.config, out, resume=True)
    assert not again.failures
    for record in again.pages:
        text = (out / f"{record.source_id}.txt").read_text(encoding="utf-8")
        assert text == record.final.to_text()


@pytest.mark.parametrize("fault", ["torn write", "failed rename"])
def test_corpus_rerun_crash_keeps_earlier_outputs_whole(tmp_path, planted, monkeypatch, fault):
    # a rerun that fails while rewriting a page's text must leave the earlier
    # text whole beside the checkpoint that --resume trusts, and no temp file
    corpus = planted
    out = tmp_path / "out"
    run_corpus(corpus.input_dir, corpus.config, out)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    stem = sorted(corpus.truths)[0]
    if fault == "torn write":
        write_text = Path.write_text

        def torn(self, data, *args, **kwargs):
            if self.name.startswith(f"{stem}.txt"):
                write_text(self, data[: len(data) // 2], *args, **kwargs)
                raise OSError("disk full")
            return write_text(self, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", torn)
    else:
        rename = Path.replace

        def failing(self, target):
            if Path(target).name == f"{stem}.txt":
                raise OSError("rename failed")
            return rename(self, target)

        monkeypatch.setattr(Path, "replace", failing)
    again = run_corpus(corpus.input_dir, corpus.config, out)
    assert set(again.failures) == {stem}
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_corpus_resume_recomputes_unreadable_checkpoints(tmp_path, planted):
    corpus = planted
    out = tmp_path / "out"
    first = run_corpus(corpus.input_dir, corpus.config, out)
    expected = {p.source_id: p.to_json() for p in first.pages}
    truncated, missing_key, bad_box = sorted(expected)
    text = expected[truncated]
    (out / f"{truncated}.json").write_text(text[: len(text) // 2], encoding="utf-8")
    doc = json.loads(expected[missing_key])
    del doc["options"]
    (out / f"{missing_key}.json").write_text(json.dumps(doc), encoding="utf-8")
    doc = json.loads(expected[bad_box])
    doc["word_boxes"][0]["bbox"] = [5, 5, 5, 5]  # InvariantError: degenerate box
    (out / f"{bad_box}.json").write_text(json.dumps(doc), encoding="utf-8")
    again = run_corpus(corpus.input_dir, corpus.config, out, resume=True)
    assert not again.failures
    assert {p.source_id: p.to_json() for p in again.pages} == expected
    for stem, record_json in expected.items():
        assert (out / f"{stem}.json").read_text(encoding="utf-8") == record_json


def test_corpus_resume_recomputes_checkpoint_without_final(tmp_path, planted, caplog):
    # a checkpoint with no final transcription is unreadable, so a resumed
    # run transcribes its page again and the report covers it
    corpus = planted
    out = tmp_path / "out"
    first = run_corpus(corpus.input_dir, corpus.config, out, corpus.labels_dir)
    expected = {p.source_id: p.to_json() for p in first.pages}
    stem = sorted(expected)[0]
    doc = json.loads(expected[stem])
    doc["final"] = None
    (out / f"{stem}.json").write_text(json.dumps(doc), encoding="utf-8")
    caplog.clear()
    again = run_corpus(corpus.input_dir, corpus.config, out, corpus.labels_dir, resume=True)
    assert not again.failures
    assert f"{stem}: unreadable checkpoint" in caplog.text
    assert {p.source_id: p.to_json() for p in again.pages} == expected
    assert again.report.to_json() == first.report.to_json()
    assert again.report.document_count() == len(expected)


def test_corpus_resume_recomputes_checkpoints_with_unknown_keys(tmp_path, planted, caplog):
    # a checkpoint holds exactly the record's fields: an unknown key at any
    # depth makes it unreadable, so the page is transcribed again
    corpus = planted
    out = tmp_path / "out"
    first = run_corpus(corpus.input_dir, corpus.config, out)
    expected = {p.source_id: p.to_json() for p in first.pages}
    for stem, where in zip(sorted(expected), ("word_boxes", "options", "final"), strict=True):
        doc = json.loads(expected[stem])
        nested = {
            "word_boxes": doc["word_boxes"][0],
            "options": next(iter(doc["options"].values())),
            "final": doc["final"],
        }[where]
        nested["trace"] = {"stage": "unknown"}
        (out / f"{stem}.json").write_text(json.dumps(doc), encoding="utf-8")
    caplog.clear()
    again = run_corpus(corpus.input_dir, corpus.config, out, resume=True)
    assert not again.failures
    assert caplog.text.count("unreadable checkpoint") == 3
    assert {p.source_id: p.to_json() for p in again.pages} == expected
    for stem, record_json in expected.items():
        assert (out / f"{stem}.json").read_text(encoding="utf-8") == record_json


def test_parallel_matches_serial(tmp_path, planted):
    from dataclasses import replace

    corpus = planted
    parallel = run_corpus(
        corpus.input_dir, corpus.config, tmp_path / "out-par", corpus.labels_dir
    )
    serial = run_corpus(
        corpus.input_dir,
        replace(corpus.config, parallelism=1),
        tmp_path / "out-ser",
        corpus.labels_dir,
    )
    par_map = {p.source_id: p.to_json() for p in parallel.pages}
    ser_map = {p.source_id: p.to_json() for p in serial.pages}
    assert par_map == ser_map
