"""Transcription scoring: edit distance, bag-of-words, document similarity,
options-list statistics, and corpus-level reports.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field

from .docmodel import options_size
from .embeddings import EmbeddingModel, cosine, embed_document

HISTOGRAM_METRICS = ("lev_accuracy", "doc_similarity")
SCALAR_FIELDS = ("lev_accuracy", "doc_similarity", "precision", "recall", "f_score")


def pattern_masks(pattern: str) -> dict[str, int]:
    """For each character of the pattern, the bits of the positions it holds."""
    masks: dict[str, int] = {}
    for i, ch in enumerate(pattern):
        masks[ch] = masks.get(ch, 0) | 1 << i
    return masks


def bit_vector_distance(columns, length: int, ones, ends=None):
    """Edit distance from a pattern of `length` >= 1 characters to a text, by
    Myers' bit-vector recurrence (JACM 1999) in Hyyrö's 2001 formulation for
    whole strings. Each column is, for one text character, the bits of the
    pattern positions that hold it (`pattern_masks`).

    `ones` holds the low `length` bits set: a Python int, for one text, or an
    array of numpy uint64 lanes, one text a lane (length <= 64). Bits above
    the pattern never reach those below it, so only bit length-1 is read; the
    mask keeps an int from growing, and in a lane a -1 step wraps while the
    sum stays exact.

    With `ends`, one text length a lane, a lane stops counting after its own
    last column, so that texts of different lengths share one run (Hyyrö,
    Fredriksson and Navarro's multiple-string packing, JEA 2005).
    """
    pv, mv, distance = ones, ones & 0, (ones & 0) + length
    top = length - 1
    for t, eq in enumerate(columns, 1):
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        step = (ph >> top & 1) - (mh >> top & 1)
        distance += step if ends is None else step * (ends >= t)
        ph = ph << 1 | 1  # row 0, the distance from the empty pattern, grows by one
        pv = (mh << 1 | ~(xv | ph)) & ones
        mv = ph & xv
    return distance


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance over Unicode scalar values.

    The longer string is the pattern, held in one int, and the shorter one is
    the text of `bit_vector_distance`.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    masks = pattern_masks(a)
    return bit_vector_distance((masks.get(ch, 0) for ch in b), len(a), (1 << len(a)) - 1)


def lev_accuracy(pred: str, target: str) -> float:
    """1 minus edit distance normalized by the longer string; empty/empty is 1."""
    longest = max(len(pred), len(target))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(pred, target) / longest


def bow_prf(pred, target) -> tuple[float, float, float]:
    """Bag-of-words precision, recall, and F-score over word multisets."""
    pred = list(pred)
    target = list(target)
    overlap = Counter(pred) & Counter(target)
    tp = sum(overlap.values())
    precision = tp / len(pred) if pred else 0.0
    recall = tp / len(target) if target else 0.0
    f_score = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return (precision, recall, f_score)


def doc_similarity(pred, target, model: EmbeddingModel) -> float:
    """Cosine similarity of the mean word embeddings of the two documents."""
    return cosine(embed_document(model, pred), embed_document(model, target))


def options_histogram(options_lists) -> Counter:
    """How many of the options lists have each size."""
    return Counter(options_size(options) for options in options_lists)


def options_stats(pages) -> tuple[float, float, float]:
    """Fractions of words whose options lists have size 1, 3, and 4."""
    counts = options_histogram(o for page in pages for o in page.options.values())
    total = sum(counts.values()) or 1
    return (counts[1] / total, counts[3] / total, counts[4] / total)


@dataclass(frozen=True)
class DocScores:
    """Per-document metric results."""

    lev_accuracy: float
    doc_similarity: float
    precision: float
    recall: float
    f_score: float
    options_histogram: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        # kept in size order, so that the report lists it that way
        object.__setattr__(self, "options_histogram", dict(sorted(self.options_histogram.items())))

    def scalar(self, name: str) -> float:
        return getattr(self, name)


@dataclass(frozen=True)
class EvalPair:
    """One evaluated document: flattened prediction and target word lists."""

    source_id: str
    predicted: tuple[str, ...]
    target: tuple[str, ...]
    options_histogram: dict[int, int] = field(default_factory=dict)


def score_document(pred_words, target_words, model: EmbeddingModel,
                   options_histogram=None) -> DocScores:
    """All per-document metrics; character comparison joins words by spaces."""
    pred_words = list(pred_words)
    target_words = list(target_words)
    precision, recall, f_score = bow_prf(pred_words, target_words)
    return DocScores(
        lev_accuracy=lev_accuracy(" ".join(pred_words), " ".join(target_words)),
        doc_similarity=doc_similarity(pred_words, target_words, model),
        precision=precision,
        recall=recall,
        f_score=f_score,
        options_histogram=options_histogram or {},
    )


def _decile(value: float) -> int:
    # [0,10) .. [80,90) half-open, final [90,100] closed; negatives clamp to 0.
    if value >= 1.0:
        return 9
    if value <= 0.0:
        return 0
    return min(9, int(value * 10 + 1e-9))


@dataclass(frozen=True)
class EvaluationReport:
    """Per-document scores, corpus means, and decile accuracy histograms."""

    per_doc: dict[str, DocScores]
    corpus: dict[str, float]
    options_totals: dict[int, int]
    accuracy_histogram: dict[str, list[int]]

    def document_count(self) -> int:
        return len(self.per_doc)

    def to_json(self) -> str:
        """The report's dataclass fields, documents and option sizes in key order."""
        doc = asdict(self)
        doc["per_doc"] = dict(sorted(doc["per_doc"].items()))
        doc["options_totals"] = dict(sorted(doc["options_totals"].items()))
        return json.dumps(doc, ensure_ascii=False, indent=2)

    def render_text(self) -> str:
        """Aligned plain-text tables: corpus means, then accuracy ranges."""
        out = [f"Documents evaluated: {self.document_count()}", ""]
        labels = {
            "lev_accuracy": "Levenshtein accuracy",
            "doc_similarity": "Document similarity",
            "precision": "Precision",
            "recall": "Recall",
            "f_score": "F-score",
        }
        out.append(f"{'Metric':<24}{'Mean':>8}")
        for name in SCALAR_FIELDS:
            value = self.corpus.get(name, 0.0)
            out.append(f"{labels[name]:<24}{100 * value:>7.2f}%")
        out.append("")
        sizes = ", ".join(f"{k}: {self.options_totals.get(k, 0)}" for k in (1, 3, 4))
        out.append(f"Options list sizes  {sizes}")
        out.append("")
        out.append(f"{'Accuracy range':<16}{'Levenshtein':>12}{'Similarity':>12}")
        for i in range(10):
            hi_bracket = "]" if i == 9 else ")"
            label = f"[{10 * i}%, {10 * (i + 1)}%{hi_bracket}"
            lev_n = self.accuracy_histogram["lev_accuracy"][i]
            sim_n = self.accuracy_histogram["doc_similarity"][i]
            out.append(f"{label:<16}{lev_n:>12}{sim_n:>12}")
        return "\n".join(out) + "\n"


def build_report(pairs, model: EmbeddingModel) -> EvaluationReport:
    """Score every (prediction, target) pair and aggregate corpus statistics."""
    per_doc: dict[str, DocScores] = {}
    for pair in pairs:
        per_doc[pair.source_id] = score_document(
            pair.predicted, pair.target, model, pair.options_histogram
        )
    corpus = {}
    for name in SCALAR_FIELDS:
        values = [scores.scalar(name) for scores in per_doc.values()]
        corpus[name] = sum(values) / len(values) if values else 0.0
    options_totals: Counter = Counter()
    histogram = {name: [0] * 10 for name in HISTOGRAM_METRICS}
    for scores in per_doc.values():
        options_totals.update(scores.options_histogram)
        for name in HISTOGRAM_METRICS:
            histogram[name][_decile(scores.scalar(name))] += 1
    return EvaluationReport(
        per_doc=per_doc,
        corpus=corpus,
        options_totals=dict(options_totals),
        accuracy_histogram=histogram,
    )
