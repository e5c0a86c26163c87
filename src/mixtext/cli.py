"""Command-line interface.

Subcommands: transcribe a single page, run a corpus, evaluate predictions
against labels, build merged ground-truth labels, and summarize page
records. Exit codes: 0 success, 1 partial page failures, unreadable page
records, or an unusable input file or directory, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shlex
import sys
from pathlib import Path

from .docmodel import PageRecord, TextFileError, Transcription, read_text
from .embeddings import EmbeddingError
from .metrics import options_histogram
from .mixed_labels import LabelFormatError, build_mixed_label, parse_iam_ascii
from .pipeline import (
    CHECKPOINT_ERRORS,
    ConfigError,
    PageError,
    PipelineConfig,
    _write_atomically,
    embedding_model_from_config,
    evaluate,
    page_files,
    read_config,
    run_corpus,
    transcribe_page,
    write_page_outputs,
)

CONFIG_ENV_VAR = "TMIXT_CONFIG"


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PageError, LabelFormatError, EmbeddingError, TextFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixtext",
        description="Transcribe scanned pages mixing machine-printed and handwritten text.",
    )
    parser.add_argument("--config", help=f"config file (default: ${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transcribe", help="transcribe a single page image")
    p.add_argument("image")
    p.add_argument("--out", help="directory for the .txt and .json outputs")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_transcribe)

    p = sub.add_parser("run", help="transcribe a directory of page images")
    p.add_argument("input_dir")
    p.add_argument("--out", required=True)
    p.add_argument("--labels", help="directory of label .txt files for evaluation")
    p.add_argument("--resume", action="store_true", help="reuse existing page checkpoints")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("evaluate", help="score prediction files against labels")
    p.add_argument("pred_dir")
    p.add_argument("label_dir")
    p.add_argument("--out", help="write the JSON report here")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("build-labels", help="build merged ground-truth transcriptions")
    p.add_argument("--iam-dir", required=True, help="directory of form .txt files")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_build_labels)

    p = sub.add_parser("report", help="summarize page-record checkpoints")
    p.add_argument("records_dir")
    p.set_defaults(handler=_cmd_report)
    return parser


_FIELD_FLAGS = [
    ("--nomination", "nomination", str),
    ("--pad-pixels", "pad_pixels", int),
    ("--deskew-range", "deskew_range", float),
    ("--deskew-step", "deskew_step", float),
    ("--dictionary-path", "dictionary_path", str),
    ("--frequency-path", "frequency_path", str),
    ("--embedding-path", "embedding_path", str),
    ("--embedding-dim", "embedding_dim", int),
    ("--parallelism", "parallelism", int),
    ("--timeout", "timeout", float),
    ("--max-edit", "max_edit", int),
]


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    for flag, dest, kind in _FIELD_FLAGS:
        p.add_argument(flag, dest=dest, type=kind, default=None)
    p.add_argument("--rotation-candidates", default=None, help="comma-separated, e.g. 0,180")
    p.add_argument("--enhancement-command", default=None, help="command with {in}/{out} placeholders")
    p.add_argument("--machine-printed", default=None, help="recognizer spec as JSON")
    p.add_argument("--handwritten", default=None, help="recognizer spec as JSON")
    p.add_argument("--no-enhance", action="store_true")
    p.add_argument("--no-deskew", action="store_true")
    p.add_argument("--no-rotate", action="store_true")


def _load_config(args) -> PipelineConfig:
    """Merge the flags into the config file's raw values, then convert once."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    doc = read_config(path) if path else {}
    for _, dest, _ in _FIELD_FLAGS:
        if getattr(args, dest) is not None:
            doc[dest] = getattr(args, dest)
    if args.rotation_candidates:
        doc["rotation_candidates"] = args.rotation_candidates.split(",")
    if args.enhancement_command:
        try:
            doc["enhancement_command"] = shlex.split(args.enhancement_command)
        except ValueError as exc:
            raise ConfigError(f"bad --enhancement-command: {exc}") from None
    for flag in ("machine_printed", "handwritten"):
        raw = getattr(args, flag)
        if raw is not None:
            try:
                doc[flag] = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--{flag.replace('_', '-')} is not valid JSON: {exc}") from None
    for flag, key in (("no_enhance", "enhance"), ("no_deskew", "deskew"), ("no_rotate", "rotate_select")):
        if getattr(args, flag):
            doc[key] = False
    return PipelineConfig.from_dict(doc)


def _cmd_transcribe(args) -> int:
    cfg = _load_config(args)
    record = transcribe_page(args.image, cfg)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_page_outputs(record, out)
    sys.stdout.write(record.final.to_text())
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    result = run_corpus(args.input_dir, cfg, args.out, args.labels, args.resume)
    print(f"pages: {len(result.pages)} ok, {len(result.failures)} failed")
    for stem, message in sorted(result.failures.items()):
        print(f"  {stem}: {message}", file=sys.stderr)
    if result.report is not None:
        print(result.report.render_text(), end="")
    return 1 if result.failures else 0


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    predictions = ((p.stem, Transcription.read(p), {}) for p in page_files(args.pred_dir, ".txt"))
    report = evaluate(predictions, args.label_dir, embedding_model_from_config(cfg))
    if args.out:
        _write_atomically(Path(args.out), report.to_json())
    print(report.render_text(), end="")
    return 0


def _cmd_build_labels(args) -> int:
    forms = sorted(p for p in Path(args.iam_dir).iterdir() if p.suffix == ".txt")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0
    for form_path in forms:
        try:
            printed, handwritten = parse_iam_ascii(read_text(form_path))
        except (LabelFormatError, TextFileError) as exc:
            # a TextFileError names its file already
            where = "" if isinstance(exc, TextFileError) else f"{form_path.name}: "
            print(f"{where}{exc}", file=sys.stderr)
            failures += 1
            continue
        label = build_mixed_label(printed, handwritten, form_path.stem)
        _write_atomically(out / form_path.name, label.to_text())
        handwritten_tokens = sum(len(line) for line in handwritten)
        sidecar = {
            "source_id": form_path.stem,
            "printed_tokens": label.word_count() - handwritten_tokens,
            "handwritten_tokens": handwritten_tokens,
            "total_tokens": label.word_count(),
        }
        _write_atomically(out / f"{form_path.stem}.json", json.dumps(sidecar, indent=2))
    return 1 if failures else 0


def _cmd_report(args) -> int:
    records = []
    unreadable = 0
    for record_path in page_files(args.records_dir, ".json"):
        try:
            records.append(PageRecord.from_json(record_path.read_text(encoding="utf-8")))
        except CHECKPOINT_ERRORS as exc:
            print(f"{record_path}: not a page record ({type(exc).__name__}: {exc})", file=sys.stderr)
            unreadable += 1
    sizes = options_histogram(o for record in records for o in record.options.values())
    words = sum(sizes.values())
    print(f"pages: {len(records)}")
    print(f"words: {words}")
    shares = (f"{k} -> {sizes[k]} ({sizes[k] / (words or 1):.1%})" for k in (1, 3, 4))
    print("options sizes: " + ", ".join(shares))
    flagged = [r.source_id for r in records if not r.word_boxes]
    if flagged:
        print("pages with no words: " + ", ".join(sorted(flagged)))
    return 1 if unreadable else 0


if __name__ == "__main__":
    sys.exit(main())
