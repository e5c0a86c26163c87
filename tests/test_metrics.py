import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixtext.docmodel import OptionsList, PageRecord, Transcription, WordBox
from mixtext.embeddings import EmbeddingModel, hash_model
from mixtext.metrics import (
    DocScores,
    EvalPair,
    EvaluationReport,
    bow_prf,
    build_report,
    doc_similarity,
    lev_accuracy,
    levenshtein,
    options_stats,
    score_document,
)

from oracles import dp_distance, mean_vector, multiset_prf, plain_cosine

short_text = st.text(max_size=12)
word_lists = st.lists(st.sampled_from(["a", "b", "c", "dog", "cat"]), max_size=8)


def test_levenshtein_insertions_only():
    assert levenshtein("", "abc") == 3


def test_levenshtein_kitten_sitting():
    assert dp_distance("kitten", "sitting") == 3
    assert levenshtein("kitten", "sitting") == 3


def test_levenshtein_identity():
    assert levenshtein("same", "same") == 0


def test_levenshtein_unicode_scalars():
    assert levenshtein("naïve", "naive") == 1
    assert levenshtein("😄", "😦") == 1


@settings(max_examples=200)
@given(a=short_text, b=short_text)
def test_levenshtein_matches_dp_oracle(a, b):
    assert levenshtein(a, b) == dp_distance(a, b)


@settings(max_examples=200)
@given(a=st.text("abc", max_size=8), b=st.text("abc", max_size=8))
def test_levenshtein_small_alphabet_matches_dp_oracle(a, b):
    # a small alphabet keeps many pairs a few edits apart
    assert levenshtein(a, b) == dp_distance(a, b)


mixed_chars = st.sampled_from("abcAé😀𝔘")


@st.composite
def edit_pairs(draw):
    """A string of a length around a bit-vector word boundary, or short, and
    either a few edits of it or an independent string."""
    size = draw(st.sampled_from([0, 1, 5, 63, 64, 65, 129, 140]))
    a = draw(st.lists(mixed_chars, min_size=size, max_size=size).map("".join))
    if draw(st.booleans()):
        return a, draw(st.text(mixed_chars, max_size=size + 3))
    b = list(a)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(b)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        if kind == "insert":
            b.insert(at, draw(mixed_chars))
        elif b:
            at = min(at, len(b) - 1)
            if kind == "delete":
                del b[at]
            else:
                b[at] = draw(mixed_chars)
    return a, "".join(b)


@settings(max_examples=300, deadline=None)
@given(pair=edit_pairs(), swap=st.booleans())
def test_levenshtein_bit_vector_matches_dp_oracle(pair, swap):
    # empty, non-ASCII and astral strings, and patterns either side of 64 and 128 bits
    a, b = reversed(pair) if swap else pair
    assert levenshtein(a, b) == dp_distance(a, b)


@given(a=short_text, b=short_text, c=short_text)
def test_levenshtein_metric_axioms(a, b, c):
    assert levenshtein(a, b) == levenshtein(b, a)
    assert (levenshtein(a, b) == 0) == (a == b)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


def test_lev_accuracy_identical():
    assert lev_accuracy("abc", "abc") == 1.0


def test_lev_accuracy_total_miss():
    assert lev_accuracy("", "abc") == 0.0


def test_lev_accuracy_kitten():
    assert lev_accuracy("kitten", "sitting") == pytest.approx(1 - 3 / 7)


def test_lev_accuracy_both_empty_convention():
    assert lev_accuracy("", "") == 1.0


@given(a=short_text, b=short_text)
def test_lev_accuracy_bounds(a, b):
    acc = lev_accuracy(a, b)
    assert 0.0 <= acc <= 1.0
    assert (acc == 1.0) == (a == b)


def test_bow_identical():
    assert bow_prf(["a", "b"], ["a", "b"]) == (1.0, 1.0, 1.0)


def test_bow_multiset_counting():
    p, r, f = bow_prf(["a", "b", "b"], ["a", "b", "c"])
    assert (p, r, f) == pytest.approx((2 / 3, 2 / 3, 2 / 3))


def test_bow_disjoint():
    assert bow_prf(["a"], ["b"]) == (0.0, 0.0, 0.0)


def test_bow_empty_sides():
    assert bow_prf([], ["a"]) == (0.0, 0.0, 0.0)
    assert bow_prf(["a"], []) == (0.0, 0.0, 0.0)


@settings(max_examples=150)
@given(pred=word_lists, target=word_lists)
def test_bow_matches_multiset_oracle(pred, target):
    assert bow_prf(pred, target) == pytest.approx(multiset_prf(pred, target))


@given(pred=word_lists, target=word_lists, seed=st.randoms())
def test_bow_permutation_invariant(pred, target, seed):
    shuffled_pred = list(pred)
    shuffled_target = list(target)
    seed.shuffle(shuffled_pred)
    seed.shuffle(shuffled_target)
    assert bow_prf(shuffled_pred, shuffled_target) == pytest.approx(bow_prf(pred, target))


@given(pred=word_lists, target=word_lists)
def test_bow_swap_symmetry(pred, target):
    p1, r1, f1 = bow_prf(pred, target)
    p2, r2, f2 = bow_prf(target, pred)
    assert (p1, r1) == pytest.approx((r2, p2))
    assert f1 == pytest.approx(f2)


def test_doc_similarity_identical():
    m = EmbeddingModel(dim=2, vectors={"cat": np.array([1.0, 0.0]), "dog": np.array([0.0, 1.0])})
    assert doc_similarity(["cat", "dog"], ["cat", "dog"], m) == pytest.approx(1.0, abs=1e-9)


def test_doc_similarity_orthogonal():
    m = EmbeddingModel(dim=2, vectors={"cat": np.array([1.0, 0.0]), "dog": np.array([0.0, 1.0])})
    assert doc_similarity(["cat"], ["dog"], m) == 0.0


def test_doc_similarity_matches_recomputation():
    m = hash_model(dim=10)
    pred = ["a", "move", "to", "stop", "the"]
    target = ["a", "move", "to", "stop", "gap"]
    expected = plain_cosine(
        mean_vector([m.lookup(w) for w in pred], 10),
        mean_vector([m.lookup(w) for w in target], 10),
    )
    assert doc_similarity(pred, target, m) == pytest.approx(expected, abs=1e-9)


def _page(sizes: list[int], source_id: str = "p") -> PageRecord:
    boxes = []
    options = {}
    for i, size in enumerate(sizes):
        wb = WordBox(f"w{i}", (i * 10, 0, i * 10 + 5, 5), 0, i)
        boxes.append(wb)
        if size == 1:
            options[wb.position] = OptionsList(a=wb.text, b=wb.text)
        elif size == 3:
            options[wb.position] = OptionsList(a=wb.text, b="other", c="fix", d="fix")
        else:
            options[wb.position] = OptionsList(a=wb.text, b="other", c="fix", d="fixed")
    final = Transcription((tuple(wb.text for wb in boxes),))
    return PageRecord(source_id, f"{source_id}.pgm", tuple(boxes), options, final)


def test_options_stats_exact_proportions():
    pages = [
        _page([1] * 30 + [3] * 6 + [4] * 4, "p1"),
        _page([1] * 20 + [3] * 5 + [4] * 10, "p2"),
        _page([1] * 15 + [3] * 5 + [4] * 5, "p3"),
    ]
    assert options_stats(pages) == (0.65, 0.16, 0.19)


def test_options_stats_all_size_one():
    assert options_stats([_page([1, 1, 1])]) == (1.0, 0.0, 0.0)


def test_options_stats_empty_corpus():
    assert options_stats([]) == (0.0, 0.0, 0.0)


def test_report_single_perfect_doc(model):
    pairs = [EvalPair("doc", ("a", "move"), ("a", "move"), {1: 2})]
    report = build_report(pairs, model)
    assert report.corpus["lev_accuracy"] == 1.0
    assert report.corpus["precision"] == 1.0
    assert report.accuracy_histogram["lev_accuracy"][9] == 1
    assert sum(report.accuracy_histogram["lev_accuracy"]) == report.document_count()


def test_report_means_and_bins(model):
    # accuracies 0.85 and 0.55 against 20-char targets: distances 3 and 9
    target = "aaaaaaaaaaaaaaaaaaaa"
    pred_hi = "aaaaaaaaaaaaaaaaabbb"
    pred_lo = "aaaaaaaaaaabbbbbbbbb"
    assert lev_accuracy(pred_hi, target) == pytest.approx(0.85)
    assert lev_accuracy(pred_lo, target) == pytest.approx(0.55)
    pairs = [
        EvalPair("hi", (pred_hi,), (target,)),
        EvalPair("lo", (pred_lo,), (target,)),
    ]
    report = build_report(pairs, model)
    assert report.corpus["lev_accuracy"] == pytest.approx(0.70)
    assert report.accuracy_histogram["lev_accuracy"][8] == 1
    assert report.accuracy_histogram["lev_accuracy"][5] == 1


def test_report_empty_corpus(model):
    report = build_report([], model)
    assert report.document_count() == 0
    assert report.corpus["lev_accuracy"] == 0.0
    assert sum(report.accuracy_histogram["lev_accuracy"]) == 0


def test_report_corpus_means_recomputable(model):
    pairs = [
        EvalPair("a", ("x", "y"), ("x", "z"), {1: 1, 4: 1}),
        EvalPair("b", ("q",), ("q",), {1: 1}),
    ]
    report = build_report(pairs, model)
    for name in ("lev_accuracy", "precision", "recall", "f_score", "doc_similarity"):
        values = [scores.scalar(name) for scores in report.per_doc.values()]
        assert report.corpus[name] == pytest.approx(sum(values) / len(values))
    assert report.options_totals == {1: 2, 4: 1}


def test_report_serialization(model):
    pairs = [EvalPair("doc", ("a",), ("a",), {1: 1})]
    report = build_report(pairs, model)
    doc = json.loads(report.to_json())
    assert doc["per_doc"]["doc"]["lev_accuracy"] == 1.0
    text = report.render_text()
    assert "Levenshtein accuracy" in text
    assert "[90%, 100%]" in text


def test_report_json_layout():
    # documents, histograms and totals in key order, whatever order they were
    # built in; scores in field order; size keys as strings
    report = EvaluationReport(
        per_doc={
            "b": DocScores(0.5, 0.25, 1.0, 0.75, 0.8, {4: 1, 1: 2}),
            "ä": DocScores(1.0, 1.0, 1.0, 1.0, 1.0, {3: 1, 1: 5}),
        },
        corpus={"lev_accuracy": 0.75, "doc_similarity": 0.625, "precision": 1.0, "recall": 0.875},
        options_totals={4: 1, 1: 7, 3: 1},
        accuracy_histogram={"lev_accuracy": [0] * 9 + [2], "doc_similarity": [1] + [0] * 8 + [1]},
    )
    scores = ("lev_accuracy", "doc_similarity", "precision", "recall", "f_score")
    expected = {
        "per_doc": {
            "b": {
                **dict(zip(scores, (0.5, 0.25, 1.0, 0.75, 0.8))),
                "options_histogram": {"1": 2, "4": 1},
            },
            "ä": {**dict.fromkeys(scores, 1.0), "options_histogram": {"1": 5, "3": 1}},
        },
        "corpus": {"lev_accuracy": 0.75, "doc_similarity": 0.625, "precision": 1.0, "recall": 0.875},
        "options_totals": {"1": 7, "3": 1, "4": 1},
        "accuracy_histogram": {"lev_accuracy": [0] * 9 + [2], "doc_similarity": [1] + [0] * 8 + [1]},
    }
    assert report.to_json() == json.dumps(expected, ensure_ascii=False, indent=2)


def test_score_document_space_joined():
    m = hash_model(4)
    scores = score_document(["ab", "cd"], ["ab", "cd"], m)
    assert scores.lev_accuracy == 1.0
    scores = score_document(["ab", "cd"], ["abcd"], m)
    # "ab cd" vs "abcd": one deletion of the space, length 5
    assert scores.lev_accuracy == pytest.approx(1 - 1 / 5)
