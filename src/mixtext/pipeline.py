"""End-to-end page transcription: preprocessing, page-level recognition,
spell-check gating into word-level handwriting recognition, nomination, and
corpus runs with evaluation reports.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

from .docmodel import UNK, OptionsList, PageRecord, Transcription, flatten
from .embeddings import DEFAULT_HASH_DIM, EmbeddingModel, hash_model, load_model
from .imaging import (
    DEFAULT_DESKEW_RANGE,
    DEFAULT_DESKEW_STEP,
    DEFAULT_PAD_PIXELS,
    EnhancementError,
    GeometryError,
    ImageFormatError,
    RasterImage,
    crop_word,
    enhance,
    estimate_skew,
    load_image,
    rotate,
)
from .hocr import HocrPage
from .lexicon import Dictionary, SpellChecker, dictionary_score, load_dictionary, spell_chain
from .metrics import EvalPair, EvaluationReport, build_report, options_histogram
from .nomination import RULE, STRATEGIES, resolve_document
from .recognizers import (
    DEFAULT_TIMEOUT,
    HANDWRITTEN,
    MACHINE_PRINTED,
    RecognizerError,
    RecognizerSpec,
    recognize_page,
    recognize_word,
)

log = logging.getLogger(__name__)

CARDINAL_ANGLES = (0, 90, 180, 270)
IMAGE_SUFFIXES = (".pgm", ".png")
# the stem of the evaluation report in an output directory; no page may use it
REPORT_STEM = "report"
# what reading a truncated, foreign or invalid page-record checkpoint raises
CHECKPOINT_ERRORS = (AttributeError, KeyError, TypeError, ValueError)
DEFAULT_MAX_EDIT = 2


class ConfigError(ValueError):
    """The pipeline configuration is unusable."""


class PageError(RuntimeError):
    """A page could not be processed at all; word-level failures never raise."""


@dataclass(frozen=True)
class CheckerConfig:
    """One spell-checker entry of the chain, as it appears in config files."""

    dictionary_path: str
    frequency_path: str | None = None
    max_edit: int = DEFAULT_MAX_EDIT
    checker_id: str = "builtin"

    def __post_init__(self) -> None:
        for name in ("dictionary_path", "frequency_path", "checker_id"):
            value = getattr(self, name)
            if not isinstance(value, str) and not (value is None and name == "frequency_path"):
                raise ConfigError(f"checker {name} must be a string, got {value!r}")
        if not self.dictionary_path:
            raise ConfigError("checker dictionary_path must not be empty")
        if self.max_edit not in (1, 2):
            raise ConfigError(f"checker max_edit must be 1 or 2, got {self.max_edit!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of a run; a bad value raises ConfigError, also on `replace`."""

    machine_printed: RecognizerSpec | None = None
    handwritten: RecognizerSpec | None = None
    dictionary_path: str | None = None
    frequency_path: str | None = None
    checker_chain: tuple[CheckerConfig, ...] = ()
    embedding_path: str | None = None
    embedding_dim: int = DEFAULT_HASH_DIM
    pad_pixels: int = DEFAULT_PAD_PIXELS
    deskew_range: float = DEFAULT_DESKEW_RANGE
    deskew_step: float = DEFAULT_DESKEW_STEP
    rotation_candidates: tuple[int, ...] = CARDINAL_ANGLES
    nomination: str = RULE
    enhancement_command: tuple[str, ...] | None = None
    enhance: bool = True
    deskew: bool = True
    rotate_select: bool = True
    parallelism: int = 4
    timeout: float = DEFAULT_TIMEOUT
    max_edit: int = DEFAULT_MAX_EDIT

    def __post_init__(self) -> None:
        try:
            self.validate()
        except TypeError as exc:  # e.g. a string where a number belongs
            raise ConfigError(f"config value of the wrong type: {exc}") from None

    def validate(self) -> None:
        if not self.rotation_candidates:
            raise ConfigError("rotation_candidates must not be empty")
        bad = [a for a in self.rotation_candidates if a not in CARDINAL_ANGLES]
        if bad:
            raise ConfigError(f"rotation_candidates outside {CARDINAL_ANGLES}: {bad}")
        if self.nomination not in STRATEGIES:
            raise ConfigError(f"unknown nomination strategy {self.nomination!r}")
        if not isinstance(self.embedding_path, (str, type(None))):
            raise ConfigError(f"embedding_path must be a string, got {self.embedding_path!r}")
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be at least 1, got {self.embedding_dim}")
        if self.embedding_path is not None and self.embedding_dim != DEFAULT_HASH_DIM:
            raise ConfigError("embedding_dim beside embedding_path: the vector file sets the dimension")
        if self.pad_pixels < 0:
            raise ConfigError(f"pad_pixels must be non-negative, got {self.pad_pixels}")
        if not 0 < self.deskew_step <= self.deskew_range <= 45:
            raise ConfigError(
                f"need 0 < deskew_step ({self.deskew_step}) <= deskew_range "
                f"({self.deskew_range}) <= 45"
            )
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be at least 1, got {self.parallelism}")
        if self.timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {self.timeout}")
        # a top-level spell-check field that the chain would not read is refused
        if self.checker_chain or self.dictionary_path is None:
            stray = [k for k in ("dictionary_path", "frequency_path") if getattr(self, k) is not None]
            stray += ["max_edit"] * (self.max_edit != DEFAULT_MAX_EDIT)
            if stray:
                where = "beside checker_chain" if self.checker_chain else "without dictionary_path"
                raise ConfigError(
                    f"{', '.join(stray)} {where}: give the spell-check chain one way, as "
                    "checker_chain or as the top-level dictionary_path, frequency_path and max_edit"
                )
        self.spell_check_chain  # its CheckerConfig checks the top-level values
        for kind, spec in ((MACHINE_PRINTED, self.machine_printed), (HANDWRITTEN, self.handwritten)):
            if spec is not None and spec.kind != kind:
                raise ConfigError(f"the {kind} recognizer has kind {spec.kind!r}")

    @property
    def spell_check_chain(self) -> tuple[CheckerConfig, ...]:
        """`checker_chain`, or the one entry that the top-level dictionary_path,
        frequency_path and max_edit make; empty when neither is given."""
        if self.dictionary_path is None:
            return self.checker_chain
        return (CheckerConfig(self.dictionary_path, self.frequency_path, self.max_edit),)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """The one converter from raw values (a config file's object plus any flag
        overrides); recognizer entries without a `timeout` take the config's."""
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(doc)
        timeout = kwargs.get("timeout", DEFAULT_TIMEOUT)
        converters = {
            "machine_printed": lambda entry: _recognizer_from_dict(entry, timeout),
            "handwritten": lambda entry: _recognizer_from_dict(entry, timeout),
            "checker_chain": lambda entries: tuple(CheckerConfig(**e) for e in entries),
            "rotation_candidates": lambda angles: tuple(int(a) for a in angles),
            "enhancement_command": _strings,
        }
        for key, convert in converters.items():
            if kwargs.get(key) is not None:
                try:
                    kwargs[key] = convert(kwargs[key])
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad {key}: {exc}") from None
        return cls(**kwargs)


def read_config(path: str | Path) -> dict:
    """The raw JSON object of a config file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _recognizer_from_dict(entry: dict, timeout: float) -> RecognizerSpec:
    spec = {"timeout": timeout, **entry}
    if spec.get("argv_template") is not None:
        spec["argv_template"] = _strings(spec["argv_template"])
    return RecognizerSpec(**spec)


def _strings(value) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"expected a list of strings, got {value!r}")
    return tuple(value)


@dataclass
class Resources:
    """Shared read-only state loaded once per run."""

    checkers: tuple[SpellChecker, ...]
    model: EmbeddingModel

    @property
    def dictionary(self) -> Dictionary:
        """The first checker's dictionary, which scores rotations."""
        return self.checkers[0].dictionary


def embedding_model_from_config(cfg: PipelineConfig) -> EmbeddingModel:
    """The vectors of `embedding_path` when it is set, else the hash model."""
    if cfg.embedding_path is not None:
        return load_model(cfg.embedding_path)
    return hash_model(cfg.embedding_dim)


def load_resources(cfg: PipelineConfig) -> Resources:
    """Load the spell-check chain's dictionaries and the embedding model."""
    chain = cfg.spell_check_chain
    if not chain:
        raise ConfigError("transcription needs dictionary_path or a checker_chain")
    checkers = tuple(
        SpellChecker(load_dictionary(e.dictionary_path, e.frequency_path), e.max_edit, e.checker_id)
        for e in chain
    )
    return Resources(checkers=checkers, model=embedding_model_from_config(cfg))


def select_rotation(
    img: RasterImage, cfg: PipelineConfig, resources: Resources
) -> tuple[int, RasterImage, HocrPage]:
    """Recognize every candidate cardinal rotation (only 0 when rotation
    selection is off) and return the angle, rotated image and page whose words
    score best against the dictionary; ties go to the smaller angle."""
    best: tuple[float, int, RasterImage, HocrPage] | None = None
    errors: list[str] = []
    candidates = cfg.rotation_candidates if cfg.rotate_select else (0,)
    for angle in sorted(set(candidates)):
        candidate = rotate(img, angle) if angle else img
        try:
            page = recognize_page(cfg.machine_printed, candidate)
        except RecognizerError as exc:
            errors.append(f"{angle}deg: {exc}")
            continue
        score = dictionary_score([wb.text for wb in page.words], resources.dictionary)
        if best is None or score > best[0]:
            best = (score, angle, candidate, page)
    if best is None:
        raise PageError("recognition failed at every rotation: " + "; ".join(errors))
    return best[1:]


def transcribe_page(
    path: str | Path, cfg: PipelineConfig, resources: Resources | None = None
) -> PageRecord:
    """Full single-page flow from image file to nominated transcription.

    Word-level handwriting failures degrade that word's options to the UNK
    pair; only unreadable images or total recognition failure raise.
    """
    if cfg.machine_printed is None:
        raise ConfigError("no machine_printed recognizer configured")
    if resources is None:
        resources = load_resources(cfg)
    source_id = Path(path).stem
    try:
        img = load_image(path)
    except (OSError, ImageFormatError) as exc:
        raise PageError(f"{path}: {exc}") from exc

    if cfg.enhance:
        try:
            img = enhance(img, cfg.enhancement_command, cfg.timeout)
        except EnhancementError as exc:
            log.warning("%s: external enhancement failed (%s); using built-in", source_id, exc)
            img = enhance(img)
    if cfg.deskew:
        estimate = estimate_skew(img, cfg.deskew_range, cfg.deskew_step)
        if estimate.angle_degrees:
            img = rotate(img, estimate.angle_degrees)
    _, img, page = select_rotation(img, cfg, resources)
    if not page.words:
        log.warning("page %s produced no word boxes", source_id)

    ordered = sorted(page.words, key=lambda wb: wb.position)
    options = {wb.position: _word_options(wb, img, cfg, resources) for wb in ordered}
    counts: Counter = Counter(wb.line_index for wb in ordered)
    line_lengths = [counts[line] for line in sorted(counts)]
    final = resolve_document(
        [options[wb.position] for wb in ordered],
        cfg.nomination,
        resources.model,
        line_lengths,
        source_id,
    )
    return PageRecord(
        source_id=source_id,
        image_path=str(path),
        word_boxes=tuple(ordered),
        options=options,
        final=final,
    )


def _word_options(
    wb, img: RasterImage, cfg: PipelineConfig, resources: Resources
) -> OptionsList:
    a = wb.text
    machine_result = spell_chain(a, resources.checkers)
    if machine_result.passed:
        return OptionsList(a=a, b=machine_result.corrected)
    c = d = UNK
    if cfg.handwritten is not None:
        try:
            crop = crop_word(img, wb, cfg.pad_pixels)
            raw = recognize_word(cfg.handwritten, crop)
        except (RecognizerError, GeometryError) as exc:
            log.warning("word %s at %s failed handwriting recognition: %s", a, wb.position, exc)
        else:
            if raw:
                c = raw
                d = spell_chain(c, resources.checkers).corrected
    return OptionsList(a=a, b=machine_result.corrected, c=c, d=d)


@dataclass
class CorpusResult:
    """Outcome of a corpus run: page records, per-page failures, optional report."""

    pages: list[PageRecord]
    failures: dict[str, str]
    report: EvaluationReport | None = None


def write_page_outputs(record: PageRecord, out: Path) -> None:
    """Write `<stem>.txt`, then the `<stem>.json` checkpoint that a resumed run
    trusts, so that no checkpoint exists without its text. The report's stem
    is refused."""
    _refuse_reserved_stem(record.source_id)
    _write_atomically(out / f"{record.source_id}.txt", record.final.to_text())
    _write_atomically(out / f"{record.source_id}.json", record.to_json())


def _write_atomically(path: Path, text: str) -> None:
    """Write beside the path, then rename over it: a crash leaves no part-file."""
    temp = path.with_name(path.name + ".tmp")
    try:
        temp.write_text(text, encoding="utf-8")
        temp.replace(path)
    finally:
        temp.unlink(missing_ok=True)


def _refuse_reserved_stem(stem: str) -> None:
    if stem == REPORT_STEM:
        raise PageError(f"page name {REPORT_STEM!r} is reserved for the evaluation report")


def page_files(directory: str | Path, suffix: str) -> list[Path]:
    """The page outputs in a directory with this suffix, sorted, leaving out the
    report's; a missing directory raises FileNotFoundError."""
    return sorted(
        p for p in Path(directory).iterdir() if p.suffix == suffix and p.stem != REPORT_STEM
    )


def evaluate(predictions, labels_dir: str | Path, model: EmbeddingModel) -> EvaluationReport:
    """Score `(stem, transcription, options histogram)` predictions against the
    `<stem>.txt` label files; a prediction without a label is logged and skipped."""
    labels = {path.stem: path for path in page_files(labels_dir, ".txt")}
    pairs = []
    for stem, predicted, histogram in predictions:
        if stem not in labels:
            log.warning("no label for %s; skipping", stem)
            continue
        target = Transcription.read(labels[stem])
        pairs.append(EvalPair(stem, tuple(flatten(predicted)), tuple(flatten(target)), histogram))
    return build_report(pairs, model)


def run_corpus(
    input_dir: str | Path,
    cfg: PipelineConfig,
    out_dir: str | Path,
    labels_dir: str | Path | None = None,
    resume: bool = False,
) -> CorpusResult:
    """Transcribe every image in a directory, writing per-page text and JSON
    checkpoints; with labels, also build the evaluation report. On resume, a
    readable checkpoint is trusted, and any other is recomputed."""
    if cfg.machine_printed is None:
        raise ConfigError("no machine_printed recognizer configured")
    resources = load_resources(cfg)
    paths = sorted(
        p for p in Path(input_dir).iterdir() if p.suffix.lower() in IMAGE_SUFFIXES
    )
    if labels_dir is not None and not Path(labels_dir).is_dir():
        raise NotADirectoryError(f"labels {labels_dir} is not a directory")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def process(path: Path) -> PageRecord:
        _refuse_reserved_stem(path.stem)  # before its checkpoint or any engine call
        record_path = out / f"{path.stem}.json"
        if resume and record_path.exists():
            try:
                return PageRecord.from_json(record_path.read_text(encoding="utf-8"))
            except CHECKPOINT_ERRORS as exc:
                log.warning("%s: unreadable checkpoint (%s); transcribing again", path.stem, exc)
        record = transcribe_page(path, cfg, resources)
        write_page_outputs(record, out)
        return record

    results: dict[str, PageRecord] = {}
    failures: dict[str, str] = {}
    with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
        futures = {pool.submit(process, p): p for p in paths}
        for future, path in futures.items():
            try:
                results[path.stem] = future.result()
            except Exception as exc:  # page isolation: one failure must not stop the run
                failures[path.stem] = str(exc)
                log.error("page %s failed: %s", path.stem, exc)

    report = None
    if labels_dir is not None:
        predictions = (
            (stem, record.final, options_histogram(record.options.values()))
            for stem, record in sorted(results.items())
        )
        report = evaluate(predictions, labels_dir, resources.model)
        _write_atomically(out / f"{REPORT_STEM}.json", report.to_json())
        _write_atomically(out / f"{REPORT_STEM}.txt", report.render_text())
    return CorpusResult(pages=list(results.values()), failures=failures, report=report)
