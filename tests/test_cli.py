import json
from dataclasses import fields
from pathlib import Path

import pytest

from mixtext.cli import _build_parser, _load_config, main
from mixtext.docmodel import PageRecord, Transcription
from mixtext.pipeline import PipelineConfig

DICT_PATH = "tests/data/words_en.txt"


def config_json(cfg) -> str:
    def spec_doc(spec):
        if spec is None:
            return None
        return {
            "kind": spec.kind,
            "backend": spec.backend,
            "argv_template": list(spec.argv_template) if spec.argv_template else None,
            "mock_script": spec.mock_script,
            "timeout": spec.timeout,
        }

    return json.dumps(
        {
            "machine_printed": spec_doc(cfg.machine_printed),
            "handwritten": spec_doc(cfg.handwritten),
            "dictionary_path": cfg.dictionary_path,
            "pad_pixels": cfg.pad_pixels,
            "nomination": cfg.nomination,
            "enhance": cfg.enhance,
            "deskew": cfg.deskew,
            "rotate_select": cfg.rotate_select,
        }
    )


@pytest.fixture()
def planted_config_file(tmp_path, planted):
    path = tmp_path / "config.json"
    path.write_text(config_json(planted.config), encoding="utf-8")
    return path


def test_transcribe_prints_text(tmp_path, planted, planted_config_file, capsys):
    image = sorted(planted.input_dir.glob("*.pgm"))[0]
    code = main(["--config", str(planted_config_file), "transcribe", str(image)])
    out = capsys.readouterr().out
    assert code == 0
    truth = planted.truths[image.stem]
    words = out.split()
    assert len(words) == len(truth)
    # size-1 plants put the truth straight through machine recognition
    matches = sum(got == want for got, want in zip(words, truth))
    assert matches >= planted.expected_sizes["size1"] // 3


def test_transcribe_writes_outputs(tmp_path, planted, planted_config_file):
    image = sorted(planted.input_dir.glob("*.pgm"))[0]
    out_dir = tmp_path / "out"
    code = main(
        ["--config", str(planted_config_file), "transcribe", str(image), "--out", str(out_dir)]
    )
    assert code == 0
    assert (out_dir / f"{image.stem}.txt").exists()
    record = PageRecord.from_json((out_dir / f"{image.stem}.json").read_text(encoding="utf-8"))
    assert record.source_id == image.stem


def test_config_via_environment(planted, planted_config_file, monkeypatch, capsys):
    monkeypatch.setenv("TMIXT_CONFIG", str(planted_config_file))
    image = sorted(planted.input_dir.glob("*.pgm"))[0]
    assert main(["transcribe", str(image)]) == 0


def test_missing_config_is_exit_2(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "absent.json"), "transcribe", "x.pgm"])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    # a config file holding a malformed value is a config error too
    path = tmp_path / "config.json"
    machine = {"machine_printed": {"kind": "machine_printed", "backend": "mock", "mock_script": {}}}
    for doc in (
        {"rotation_candidates": ["x"]},
        {"machine_printed": "tesseract"},
        {"checker_chain": [{"dictionary": DICT_PATH}]},
        {"parallelism": "four"},
        {**machine, "dictionary_path": 5},
        {**machine, "checker_chain": [{"dictionary_path": 5}]},
        {**machine, "checker_chain": [{"dictionary_path": DICT_PATH, "max_edit": 7}]},
        {**machine, "dictionary_path": DICT_PATH, "embedding_backend": "file"},
        {
            "machine_printed": {"kind": "handwritten", "backend": "mock", "mock_script": {}},
            "dictionary_path": DICT_PATH,
        },
    ):
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["--config", str(path), "transcribe", "x.pgm"])
        assert code == 2
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value", [("--dictionary-path", DICT_PATH), ("--frequency-path", "f.tsv"), ("--max-edit", "1")]
)
def test_top_level_spell_check_flag_beside_a_checker_chain_is_exit_2(tmp_path, capsys, flag, value):
    # the spell-check chain comes one way; a flag it would not read is refused
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"checker_chain": [{"dictionary_path": DICT_PATH}]}), encoding="utf-8")
    pred = tmp_path / "pred"
    pred.mkdir()
    assert main(["--config", str(path), "evaluate", str(pred), str(pred)]) == 0
    capsys.readouterr()
    assert main(["--config", str(path), "evaluate", str(pred), str(pred), flag, value]) == 2
    err = capsys.readouterr().err
    key = flag[2:].replace("-", "_")
    assert err.startswith(f"config error: {key} beside checker_chain") and "dictionary_path" in err


def test_evaluate_with_a_non_string_dictionary_path_is_exit_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dictionary_path": 5}), encoding="utf-8")
    pred = tmp_path / "pred"
    pred.mkdir()
    assert main(["--config", str(path), "evaluate", str(pred), str(pred)]) == 2
    assert "config error: checker dictionary_path must be a string" in capsys.readouterr().err


def test_invalid_flag_value_is_exit_2(planted_config_file, capsys):
    code = main(
        ["--config", str(planted_config_file), "transcribe", "x.pgm", "--nomination", "vote"]
    )
    assert code == 2
    for flag, value in (
        ("--rotation-candidates", "0,x"),
        ("--enhancement-command", "'unclosed"),
        ("--embedding-dim", "0"),
    ):
        code = main(["--config", str(planted_config_file), "transcribe", "x.pgm", flag, value])
        assert code == 2
    capsys.readouterr()
    code = main(["--config", str(planted_config_file), "evaluate", "p", "l", "--embedding-dim", "0"])
    assert code == 2
    assert "config error: embedding_dim" in capsys.readouterr().err


def test_bad_recognizer_json_flag_is_exit_2(capsys):
    code = main(["transcribe", "x.pgm", "--machine-printed", "{broken"])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_timeout_reaches_recognizers_without_their_own(tmp_path):
    hand = {"kind": "handwritten", "backend": "external", "argv_template": ["hw", "{in}"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"timeout": 7.0, "handwritten": hand}), encoding="utf-8")
    machine = {"kind": "machine_printed", "backend": "external", "argv_template": ["ocr", "{in}"]}
    own = {**machine, "timeout": 2.0}
    for flags, machine_timeout, timeout in (
        (["--machine-printed", json.dumps(machine)], 7.0, 7.0),
        (["--machine-printed", json.dumps(machine), "--timeout", "5"], 5.0, 5.0),
        (["--machine-printed", json.dumps(own), "--timeout", "5"], 2.0, 5.0),
    ):
        argv = ["--config", str(path), "transcribe", "x.pgm", *flags]
        cfg = _load_config(_build_parser().parse_args(argv))
        assert cfg.timeout == timeout
        assert cfg.machine_printed.timeout == machine_timeout
        assert cfg.handwritten.timeout == timeout


def test_no_flags_switch_their_stage_off(monkeypatch):
    monkeypatch.delenv("TMIXT_CONFIG", raising=False)
    stages = ("enhance", "deskew", "rotate_select")
    for flag, off in zip(("--no-enhance", "--no-deskew", "--no-rotate"), stages, strict=True):
        cfg = _load_config(_build_parser().parse_args(["transcribe", "x.pgm", flag]))
        assert {stage: getattr(cfg, stage) for stage in stages} == {
            stage: stage != off for stage in stages
        }


# one non-default value for each config flag of `transcribe`, `run` and `evaluate`
CONFIG_FLAGS = {
    "--machine-printed": json.dumps({"kind": "machine_printed", "backend": "mock", "mock_script": {}}),
    "--handwritten": json.dumps({"kind": "handwritten", "backend": "mock", "mock_script": {}}),
    "--dictionary-path": "words.txt",
    "--frequency-path": "frequencies.tsv",
    "--embedding-path": "vectors.txt",
    "--embedding-dim": "8",
    "--pad-pixels": "3",
    "--deskew-range": "10",
    "--deskew-step": "1",
    "--rotation-candidates": "0,180",
    "--nomination": "context",
    "--enhancement-command": "enhance {in} {out}",
    "--no-enhance": None,
    "--no-deskew": None,
    "--no-rotate": None,
    "--parallelism": "2",
    "--timeout": "5",
    "--max-edit": "1",
}


def test_every_config_field_but_the_chain_has_a_flag(monkeypatch):
    # the README promises a flag for every setting; checker_chain is file-only
    monkeypatch.delenv("TMIXT_CONFIG", raising=False)
    parser = _build_parser()
    subcommands = next(a.choices for a in parser._actions if a.dest == "command")
    for command in ("transcribe", "run", "evaluate"):
        actions = subcommands[command]._actions
        flags = {s for a in actions for s in a.option_strings if s.startswith("--")}
        assert flags - {"--help", "--out", "--labels", "--resume"} == set(CONFIG_FLAGS)
    default = PipelineConfig()
    # embedding_dim is refused beside embedding_path, so each goes without the other once
    for left_out in ("--embedding-dim", "--embedding-path"):
        argv = ["transcribe", "x.pgm"]
        for flag, value in CONFIG_FLAGS.items():
            if flag != left_out:
                argv += [flag] if value is None else [flag, value]
        cfg = _load_config(parser.parse_args(argv))
        unset = [f.name for f in fields(cfg) if getattr(cfg, f.name) == getattr(default, f.name)]
        assert unset == ["checker_chain", left_out[2:].replace("-", "_")]


def test_readme_example_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Config file", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    cfg = PipelineConfig.from_dict(json.loads(example))
    assert cfg.machine_printed is not None and cfg.dictionary_path is not None


def test_run_without_machine_recognizer_is_exit_2(tmp_path, planted, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dictionary_path": DICT_PATH}), encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main(["--config", str(path), "run", str(planted.input_dir), "--out", str(out_dir)])
    assert code == 2
    assert "no machine_printed recognizer" in capsys.readouterr().err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_unreadable_image_is_exit_1(tmp_path, planted_config_file, capsys):
    missing = tmp_path / "absent.pgm"
    code = main(["--config", str(planted_config_file), "transcribe", str(missing)])
    assert code == 1


def test_run_corpus_cli(tmp_path, planted, planted_config_file, capsys):
    out_dir = tmp_path / "out"
    code = main(
        [
            "--config",
            str(planted_config_file),
            "run",
            str(planted.input_dir),
            "--out",
            str(out_dir),
            "--labels",
            str(planted.labels_dir),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "pages: 3 ok, 0 failed" in out
    assert "Levenshtein accuracy" in out
    assert (out_dir / "report.json").exists()


def test_run_partial_failure_is_exit_1(tmp_path, planted, planted_config_file, capsys):
    import shutil

    input_copy = tmp_path / "input"
    shutil.copytree(planted.input_dir, input_copy)
    (input_copy / "broken.pgm").write_bytes(b"P5 nope")
    code = main(
        [
            "--config",
            str(planted_config_file),
            "run",
            str(input_copy),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "broken" in capsys.readouterr().err


def test_run_empty_directory_is_exit_0(tmp_path, planted_config_file, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(
        ["--config", str(planted_config_file), "run", str(empty), "--out", str(tmp_path / "out")]
    )
    assert code == 0


def test_evaluate_cli(tmp_path, capsys):
    pred = tmp_path / "pred"
    label = tmp_path / "label"
    pred.mkdir()
    label.mkdir()
    (pred / "doc.txt").write_text("a move to stop\n", encoding="utf-8")
    (label / "doc.txt").write_text("a move to stop\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main(["evaluate", str(pred), str(label), "--out", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Documents evaluated: 1" in out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["per_doc"]["doc"]["lev_accuracy"] == 1.0


def test_evaluate_skips_the_report(tmp_path, capsys):
    # a run's output directory holds report.txt next to the page texts
    pred = tmp_path / "pred"
    label = tmp_path / "label"
    pred.mkdir()
    label.mkdir()
    for directory in (pred, label):
        (directory / "doc.txt").write_text("a move to stop\n", encoding="utf-8")
        (directory / "report.txt").write_text("Documents evaluated: 1\n", encoding="utf-8")
    assert main(["evaluate", str(pred), str(label)]) == 0
    assert "Documents evaluated: 1" in capsys.readouterr().out


def test_pages_without_a_label_are_skipped(tmp_path, planted, planted_config_file, caplog, capsys):
    import shutil

    labels = tmp_path / "labels"
    shutil.copytree(planted.labels_dir, labels)
    unlabelled, *labelled = sorted(planted.truths)
    (labels / f"{unlabelled}.txt").unlink()
    out = tmp_path / "out"
    argv = ["--config", str(planted_config_file), "run", str(planted.input_dir), "--out", str(out)]
    assert main([*argv, "--labels", str(labels)]) == 0
    assert "pages: 3 ok, 0 failed" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert sorted(report["per_doc"]) == labelled
    # evaluate skips the same page of the run's output
    eval_path = tmp_path / "eval.json"
    assert main(["evaluate", str(out), str(labels), "--out", str(eval_path)]) == 0
    assert "Documents evaluated: 2" in capsys.readouterr().out
    evaluated = json.loads(eval_path.read_text(encoding="utf-8"))
    assert evaluated["corpus"] == report["corpus"]  # the same two documents, scored alike
    assert caplog.text.count(unlabelled) == 2


def _vector_corpus(tmp_path):
    """A vector file of two orthogonal words, and prediction and label
    directories whose `swapped` document has one word in place of the other."""
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("move 1 0\nstop 0 1\n", encoding="utf-8")
    pred = tmp_path / "pred"
    label = tmp_path / "label"
    for directory, swapped in ((pred, "move"), (label, "stop")):
        directory.mkdir()
        (directory / "same.txt").write_text("move stop\n", encoding="utf-8")
        (directory / "swapped.txt").write_text(f"{swapped}\n", encoding="utf-8")
    return vectors, pred, label


def test_evaluate_with_a_vector_file(tmp_path, capsys):
    vectors, pred, label = _vector_corpus(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"embedding_path": str(vectors)}), encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main(["--config", str(config), "evaluate", str(pred), str(label), "--out", str(report_path)])
    assert code == 0
    per_doc = json.loads(report_path.read_text(encoding="utf-8"))["per_doc"]
    assert per_doc["same"]["doc_similarity"] == pytest.approx(1.0)
    assert per_doc["swapped"]["doc_similarity"] == 0.0  # orthogonal vectors
    # an embedding_path that is not a string is refused before any scoring
    config.write_text(json.dumps({"embedding_path": 5}), encoding="utf-8")
    assert main(["--config", str(config), "evaluate", str(pred), str(label)]) == 2
    assert "config error: embedding_path" in capsys.readouterr().err


def test_embedding_path_flag_alone_selects_the_vector_file(tmp_path, monkeypatch):
    monkeypatch.delenv("TMIXT_CONFIG", raising=False)
    vectors, pred, label = _vector_corpus(tmp_path)
    report_path = tmp_path / "report.json"
    argv = ["evaluate", str(pred), str(label), "--out", str(report_path)]
    assert main([*argv, "--embedding-path", str(vectors)]) == 0
    per_doc = json.loads(report_path.read_text(encoding="utf-8"))["per_doc"]
    assert per_doc["swapped"]["doc_similarity"] == 0.0  # the file's vectors, not the hash model's


def test_embedding_dim_beside_embedding_path_is_exit_2(tmp_path, monkeypatch, capsys):
    # the vector file sets the dimension, so an embedding_dim beside it is refused, not ignored
    monkeypatch.delenv("TMIXT_CONFIG", raising=False)
    vectors, pred, label = _vector_corpus(tmp_path)
    argv = ["evaluate", str(pred), str(label), "--embedding-path", str(vectors)]
    assert main([*argv, "--embedding-dim", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: embedding_dim beside embedding_path")


def test_malformed_vector_file_is_exit_1(tmp_path, planted, capsys):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("move 1 0\nstop 0 1 1\n", encoding="utf-8")
    config = tmp_path / "config.json"
    doc = {**json.loads(config_json(planted.config)), "embedding_path": str(vectors)}
    config.write_text(json.dumps(doc), encoding="utf-8")
    for command in (
        ["evaluate", str(planted.labels_dir), str(planted.labels_dir)],
        ["run", str(planted.input_dir), "--out", str(tmp_path / "out")],
    ):
        assert main(["--config", str(config), *command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 2 has 3 components, expected 2" in err
    # a vector file that is not UTF-8 is named in one line, by every command that loads it
    vectors.write_bytes(b"move 1 0\n\xff\xfe 0 1\n")
    image = sorted(planted.input_dir.glob("*.pgm"))[0]
    for command in (
        ["evaluate", str(planted.labels_dir), str(planted.labels_dir)],
        ["run", str(planted.input_dir), "--out", str(tmp_path / "out2")],
        ["transcribe", str(image)],
    ):
        assert main(["--config", str(config), *command]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {vectors}: not UTF-8 text") and err.count("\n") == 1


def test_bad_dictionary_or_frequency_file_is_exit_1(tmp_path, planted, capsys):
    words = tmp_path / "words.txt"
    frequencies = tmp_path / "frequencies.tsv"
    doc = json.loads(config_json(planted.config))
    config = tmp_path / "config.json"
    image = sorted(planted.input_dir.glob("*.pgm"))[0]
    cases = (
        (b"alpha\n\xe9t\xe9\n", None, f"error: {words}: not UTF-8 text"),
        (b"alpha\nbeta\n", b"alpha\t3\nbeta\n", f"error: {frequencies}:2: not word<TAB>count"),
        (b"alpha\nbeta\n", b"alpha\t3\n\nbeta\tx\n", f"error: {frequencies}:3: not word<TAB>count"),
        (b"alpha\nbeta\n", b"\xffalpha\t3\n", f"error: {frequencies}: not UTF-8 text"),
    )
    for word_bytes, frequency_bytes, message in cases:
        words.write_bytes(word_bytes)
        config_doc = {**doc, "dictionary_path": str(words)}
        if frequency_bytes is not None:
            frequencies.write_bytes(frequency_bytes)
            config_doc["frequency_path"] = str(frequencies)
        config.write_text(json.dumps(config_doc), encoding="utf-8")
        for command in (
            ["transcribe", str(image)],
            ["run", str(planted.input_dir), "--out", str(tmp_path / "out")],
        ):
            assert main(["--config", str(config), *command]) == 1
            err = capsys.readouterr().err
            assert err.startswith(message) and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


def test_unreadable_prediction_or_label_is_exit_1(tmp_path, capsys):
    pred = tmp_path / "pred"
    label = tmp_path / "label"
    for directory in (pred, label):
        directory.mkdir()
        (directory / "doc.txt").write_text("a move to stop\n", encoding="utf-8")
    for bad in (pred / "doc.txt", label / "doc.txt"):
        bad.write_bytes(b"a move \xff stop\n")
        assert main(["evaluate", str(pred), str(label)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text") and err.count("\n") == 1
        bad.write_text("a move to stop\n", encoding="utf-8")
    assert main(["evaluate", str(pred), str(label)]) == 0


def test_missing_directory_is_exit_1(tmp_path, planted, planted_config_file, capsys):
    missing = tmp_path / "missing"
    out = tmp_path / "out"
    run = ["--config", str(planted_config_file), "run"]
    for argv in (
        ["build-labels", "--iam-dir", str(missing), "--out", str(out)],
        ["report", str(missing)],
        ["evaluate", str(missing), str(planted.labels_dir)],
        ["evaluate", str(planted.labels_dir), str(missing)],
        [*run, str(missing), "--out", str(out)],
        [*run, str(planted.input_dir), "--out", str(out), "--labels", str(missing)],
        [*run, str(planted.input_dir), "--out", str(out), "--labels", str(planted_config_file)],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(missing) in err or str(planted_config_file) in err
        # nothing is built, and no page is transcribed, before the check
        assert not out.exists()


def test_build_labels_cli(tmp_path, data_dir, capsys):
    forms = tmp_path / "forms"
    forms.mkdir()
    form_text = (data_dir / "iam_form_minimal.txt").read_text(encoding="utf-8")
    (forms / "a01-000u.txt").write_text(form_text, encoding="utf-8")
    out = tmp_path / "labels"
    code = main(["build-labels", "--iam-dir", str(forms), "--out", str(out)])
    assert code == 0
    label_text = (out / "a01-000u.txt").read_text(encoding="utf-8")
    assert label_text.startswith("A MOVE to stop Mr .")
    sidecar = json.loads((out / "a01-000u.json").read_text(encoding="utf-8"))
    assert sidecar["total_tokens"] == 28
    assert sidecar["handwritten_tokens"] == 14


@pytest.mark.parametrize("command", ["evaluate", "build-labels"])
def test_cli_rewrite_that_fails_keeps_the_earlier_files(
    tmp_path, data_dir, monkeypatch, capsys, command
):
    # a rewrite whose rename fails leaves the earlier report or labels whole,
    # and no temp file beside them
    pred, label, forms, out = (tmp_path / name for name in ("pred", "label", "forms", "out"))
    for directory in (pred, label, forms):
        directory.mkdir()
    (pred / "doc.txt").write_text("a move to stop\n", encoding="utf-8")
    (label / "doc.txt").write_text("a move to stop\n", encoding="utf-8")
    form = forms / "a01-000u.txt"
    form.write_text((data_dir / "iam_form_minimal.txt").read_text(encoding="utf-8"), encoding="utf-8")
    if command == "evaluate":
        argv = ["evaluate", str(pred), str(label), "--out", str(out / "report.json")]
        out.mkdir()
    else:
        argv = ["build-labels", "--iam-dir", str(forms), "--out", str(out)]
    assert main(argv) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    (pred / "doc.txt").write_text("a move to go\n", encoding="utf-8")
    form.write_text(form.read_text(encoding="utf-8").replace("MOVE", "MOOD"), encoding="utf-8")

    def failing(self, target):
        raise OSError("rename failed")

    monkeypatch.setattr(Path, "replace", failing)
    assert main(argv) == 1
    assert "rename failed" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_build_labels_bad_form_is_exit_1(tmp_path, capsys):
    forms = tmp_path / "forms"
    forms.mkdir()
    (forms / "bad.txt").write_text("no markers here\n", encoding="utf-8")
    code = main(["build-labels", "--iam-dir", str(forms), "--out", str(tmp_path / "labels")])
    assert code == 1
    assert "bad.txt" in capsys.readouterr().err


def test_build_labels_counts_a_form_that_is_not_utf8(tmp_path, data_dir, capsys):
    forms = tmp_path / "forms"
    forms.mkdir()
    form_bytes = (data_dir / "iam_form_minimal.txt").read_bytes()
    (forms / "a01-000u.txt").write_bytes(form_bytes)
    (forms / "a01-001u.txt").write_bytes(form_bytes.replace(b"MOVE", b"M\xd6VE"))
    out = tmp_path / "labels"
    assert main(["build-labels", "--iam-dir", str(forms), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # the path is named once: the error already holds it
    assert err.startswith(f"{forms / 'a01-001u.txt'}: ") and "not UTF-8 text" in err
    assert err.count("a01-001u.txt") == 1 and err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == ["a01-000u.json", "a01-000u.txt"]


def test_report_cli(tmp_path, planted, planted_config_file, capsys):
    out_dir = tmp_path / "out"
    main(
        [
            "--config",
            str(planted_config_file),
            "run",
            str(planted.input_dir),
            "--out",
            str(out_dir),
        ]
    )
    capsys.readouterr()
    code = main(["report", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "pages: 3" in out
    assert "words: 100" in out
    assert "(65.0%)" in out and "(16.0%)" in out and "(19.0%)" in out
    # a cut-off checkpoint and a JSON file that is no page record are named,
    # the readable records still summarized, and the exit code is 1
    record_text = next(p for p in sorted(out_dir.glob("*.json")) if p.stem != "report").read_text()
    (out_dir / "cut.json").write_text(record_text[: len(record_text) // 2], encoding="utf-8")
    assert main(["evaluate", str(out_dir), str(out_dir), "--out", str(out_dir / "eval.json")]) == 0
    capsys.readouterr()
    code = main(["report", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert "pages: 3" in captured.out and "words: 100" in captured.out
    assert "cut.json" in captured.err and "eval.json" in captured.err


def test_report_skips_the_evaluation_report(tmp_path, planted, planted_config_file, capsys):
    out_dir = tmp_path / "out"
    argv = ["--config", str(planted_config_file), "run", str(planted.input_dir), "--out", str(out_dir)]
    assert main([*argv, "--labels", str(planted.labels_dir)]) == 0
    assert (out_dir / "report.json").is_file()
    capsys.readouterr()
    assert main(["report", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert "pages: 3" in captured.out and "words: 100" in captured.out
    assert captured.err == ""


def test_report_lists_pages_without_words(tmp_path, planted, planted_config_file, capsys):
    out_dir = tmp_path / "out"
    argv = ["--config", str(planted_config_file), "run", str(planted.input_dir), "--out", str(out_dir)]
    assert main(argv) == 0
    blank = PageRecord("blank", "blank.pgm", (), {}, Transcription(()))
    (out_dir / "blank.json").write_text(blank.to_json(), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "pages: 4" in out and "words: 100" in out
    assert out.endswith("pages with no words: blank\n")


def test_flag_overrides_config(tmp_path, planted, planted_config_file):
    # context nomination via flag; still transcribes every word
    image = sorted(planted.input_dir.glob("*.pgm"))[0]
    out_dir = tmp_path / "out"
    code = main(
        [
            "--config",
            str(planted_config_file),
            "transcribe",
            str(image),
            "--nomination",
            "context",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    record = PageRecord.from_json((out_dir / f"{image.stem}.json").read_text(encoding="utf-8"))
    assert record.final.word_count() == len(planted.truths[image.stem])
