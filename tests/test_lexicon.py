import gc
import random
import string
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dp_distance

from mixtext import lexicon
from mixtext.docmodel import UNK, TextFileError
from mixtext.lexicon import (
    Dictionary,
    SpellChecker,
    SpellResult,
    dictionary_score,
    load_dictionary,
    spell_chain,
    spell_check,
    tokenize,
)


def nearest_by_scan(word: str, dictionary: Dictionary, max_edit: int) -> str:
    """Brute-force oracle: full DP distance against every dictionary word."""
    best = None
    for candidate in sorted(dictionary.words):
        d = dp_distance(word, candidate)
        if d > max_edit:
            continue
        key = (d, -dictionary.frequencies.get(candidate, 0), candidate)
        if best is None or key < best:
            best = key
    return best[2] if best else UNK


# --- tokenize ---------------------------------------------------------------


def test_tokenize_punctuation_detached():
    assert tokenize("Hello, world!") == ["Hello", ",", "world", "!"]


def test_tokenize_internal_punctuation_kept():
    assert tokenize("don't stop-gap") == ["don't", "stop-gap"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_leading_and_stacked_trailing():
    assert tokenize("(hello world.)") == ["(", "hello", "world", ".", ")"]


def test_tokenize_strips_angle_brackets():
    assert tokenize("<UNK> a<b>c") == ["UNK", "abc"]


def test_tokenize_lone_punctuation():
    assert tokenize("... '") == [".", ".", ".", "'"]


@given(st.text(max_size=40))
def test_tokenize_tokens_never_blank(text):
    tokens = tokenize(text)
    assert all(tok and not any(ch.isspace() for ch in tok) for tok in tokens)


@given(st.text(max_size=40))
def test_tokenize_preserves_non_bracket_characters(text):
    kept = "".join(ch for ch in text if not ch.isspace() and ch not in "<>")
    assert "".join(tokenize(text)) == kept


# --- spell_check ------------------------------------------------------------


def test_exact_hit_passes():
    d = Dictionary({"the", "cat"})
    result = spell_check("the", d)
    assert result.passed and result.corrected == "the"


def test_casefolded_hit_passes():
    d = Dictionary({"the"})
    result = spell_check("The", d)
    assert result.passed and result.corrected == "The"


# final and medial sigma, a capital whose lowercase form is two characters
# (İ), sharp s, a titlecase digraph, a ligature, a combining dot that a sigma
# looks through, and an astral letter in both cases
case_chars = st.sampled_from("aAsSΣσςİiẞßǅǆǄﬃ̇𐐀𐐨")


@settings(max_examples=300, deadline=None)
@given(
    words=st.lists(st.text(case_chars, max_size=5), max_size=8),
    query=st.text(case_chars, max_size=5),
)
def test_contains_matches_the_lowercase_vocabulary(words, query):
    d = Dictionary(words)
    vocabulary = {w.lower() for w in words}
    recased = [f(w) for w in words for f in (str.lower, str.upper, str.swapcase, str.title)]
    for q in [query, *recased]:
        assert d.contains(q) == (q.lower() in vocabulary), q


def test_teh_corrects_to_nearest():
    d = Dictionary({"the", "tea"})
    # plain Levenshtein: teh->the needs two substitutions, teh->tea one
    assert dp_distance("teh", "the") == 2
    assert dp_distance("teh", "tea") == 1
    result = spell_check("teh", d)
    assert not result.passed
    assert result.corrected == "tea"
    assert result.corrected == nearest_by_scan("teh", d, 2)


def test_no_candidate_within_reach():
    d = Dictionary({"the", "cat", "dog"})
    assert all(dp_distance("xqzv", w) > 2 for w in d.words)
    result = spell_check("xqzv", d)
    assert not result.passed
    assert result.corrected == UNK


def test_frequency_breaks_distance_ties():
    d = Dictionary({"cat", "cot"}, frequencies={"cot": 10, "cat": 2})
    assert spell_check("cxt", d).corrected == "cot"


def test_lexicographic_final_tie_break():
    d = Dictionary({"cot", "cat"})
    assert spell_check("cxt", d).corrected == "cat"


def test_max_edit_one_is_stricter():
    d = Dictionary({"the"})
    assert spell_check("thx", d, max_edit=1).corrected == "the"
    assert spell_check("txx", d, max_edit=1).corrected == UNK
    assert spell_check("txx", d, max_edit=2).corrected == "the"


def test_punctuation_always_passes():
    d = Dictionary({"the"})
    for token in (",", ".", "!", "?", ";"):
        assert spell_check(token, d).passed


def test_digit_tokens_pass_by_default():
    d = Dictionary({"the"})
    assert spell_check("604", d).passed
    assert spell_check("a01-000u", d).passed


def test_bad_max_edit():
    with pytest.raises(ValueError):
        spell_check("x", Dictionary({"x"}), max_edit=3)


small_words = st.text(alphabet="abcdet", min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(word=small_words, vocab=st.sets(small_words, min_size=1, max_size=12))
def test_spell_check_matches_brute_force(word, vocab):
    d = Dictionary(vocab)
    got = spell_check(word, d)
    if word.lower() in {w.lower() for w in vocab}:
        assert got.passed and got.corrected == word
    else:
        assert got.corrected == nearest_by_scan(word, d, 2)
        if got.corrected != UNK:
            assert dp_distance(word, got.corrected) <= 2


vocab_chars = st.sampled_from("abABé𝔘😀")


@st.composite
def near_miss(draw, words, alphabet=vocab_chars):
    """A vocabulary word with up to three edits, or a word of its own."""
    if draw(st.booleans()):
        return draw(st.text(alphabet, max_size=8))
    chars = list(draw(st.sampled_from(sorted(words))))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(chars)))
        if draw(st.booleans()) or not chars:
            chars.insert(at, draw(alphabet))
        else:
            chars[min(at, len(chars) - 1)] = draw(alphabet)
    return "".join(chars)


@st.composite
def vocabularies(draw):
    """Mixed-case, mixed-length words, some longer than a 64-bit lane, with
    frequencies that tie."""
    short = draw(st.sets(st.text(vocab_chars, min_size=1, max_size=6), min_size=1, max_size=12))
    long = draw(st.sets(st.text(vocab_chars, min_size=62, max_size=66), max_size=3))
    words = short | long
    counts = st.sampled_from([1, 1, 5])
    frequencies = draw(st.dictionaries(st.sampled_from(sorted(words)), counts))
    return words, frequencies


@settings(max_examples=200, deadline=None)
@given(data=st.data(), vocab=vocabularies(), max_edit=st.sampled_from([1, 2]))
def test_spell_check_lanes_match_brute_force(data, vocab, max_edit):
    words, frequencies = vocab
    d = Dictionary(words, frequencies)
    word = data.draw(near_miss(words))
    got = spell_check(word, d, max_edit)
    if d.contains(word) or (len(word) == 1 and not word.isalnum()):
        assert got.passed and got.corrected == word
    else:
        assert got.corrected == nearest_by_scan(word, d, max_edit)


# 80 letters, more than a signature has bits, so that characters share bits;
# the dictionaries below hold all of them, and never the last four
wide_chars = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZαβγδεζηθικλμνξοπρστυφχψω"
    "éß𝔘😀"
)
absent_chars = "жщ𝔙🙂"
query_chars = st.sampled_from(wide_chars + absent_chars)


@st.composite
def wide_vocabularies(draw):
    """Words that together hold every character of wide_chars, plus some
    drawn at random, with frequencies that tie."""
    order = draw(st.permutations(wide_chars))
    cuts = sorted(draw(st.sets(st.integers(1, len(order) - 1), min_size=8, max_size=20)))
    words = {"".join(order[i:j]) for i, j in zip([0] + cuts, cuts + [len(order)])}
    words |= draw(st.sets(st.text(st.sampled_from(wide_chars), min_size=1, max_size=7), max_size=10))
    frequencies = draw(st.dictionaries(st.sampled_from(sorted(words)), st.sampled_from([1, 1, 5])))
    return words, frequencies


def test_dense_codes_follow_code_point_order():
    index = lexicon.LengthIndex(frozenset({"zeta", "Éa", "ab", "𝔘b", "-x"}))
    assert list(index.dense) == sorted(index.dense)
    assert list(index.dense.values()) == list(range(len(index.dense)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), vocab=wide_vocabularies(), slack=st.sampled_from([1, 2]))
def test_signature_bound_never_exceeds_distance(data, vocab, slack):
    words, _ = vocab
    index = lexicon.LengthIndex(frozenset(words))
    assert len(index.dense) > 64
    word = data.draw(near_miss(words, query_chars))
    q = int(index.signature(word))
    kept = {index.words[i] for i in index.near(word, slack)[0]}
    assert sorted(index.words) == sorted(words)
    for w, length, s in zip(index.words, index.lengths.tolist(), index.signatures.tolist()):
        assert length == len(w)
        bound = max(bin(q & ~s).count("1"), bin(s & ~q).count("1"))
        assert bound <= dp_distance(word, w)
        assert (w in kept) == (abs(length - len(word)) <= slack and bound <= slack)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), vocab=wide_vocabularies(), max_edit=st.sampled_from([1, 2]))
def test_spell_check_on_a_wide_alphabet_matches_brute_force(data, vocab, max_edit):
    words, frequencies = vocab
    d = Dictionary(words, frequencies)
    word = data.draw(near_miss(words, query_chars))
    got = spell_check(word, d, max_edit)
    if d.contains(word) or (len(word) == 1 and not word.isalnum()):
        assert got.passed and got.corrected == word
    else:
        assert got.corrected == nearest_by_scan(word, d, max_edit)


def test_signature_filter_skips_lanes(english, monkeypatch):
    lanes = []
    filtered = []
    kernel = lexicon.bit_vector_distance
    within = lexicon._within

    def counting(columns, length, ones, ends=None):
        lanes.append(len(ones))
        return kernel(columns, length, ones, ends)

    def counting_within(bits, count):
        filtered.append(len(bits))
        return within(bits, count)

    monkeypatch.setattr(lexicon, "bit_vector_distance", counting)
    monkeypatch.setattr(lexicon, "_within", counting_within)
    d = Dictionary(english.words)
    # absent characters all share the spare bit, a bound of 1, so the miss is
    # long enough that every word of its length window has 3 or more distinct
    # characters
    assert spell_check("жжжжжжжжжж", d).corrected == UNK
    assert sum(lanes) == 0
    lanes.clear()
    filtered.clear()
    assert spell_check("dictionery", d).corrected == "dictionary"
    window = sum(1 for w in english.words if abs(len(w) - len("dictionery")) <= 2)
    # one filter (its two bounds) over the whole length window, one kernel call
    assert filtered == [window, window]
    assert len(lanes) == 1
    assert 0 < sum(lanes) < window


@pytest.mark.parametrize("words", [(), ("word", "x" * 80)], ids=["empty", "outside"])
@pytest.mark.parametrize("word", ["", "a", "q" * 70], ids=["blank", "a", "70q"])
@pytest.mark.parametrize("max_edit", [1, 2])
def test_miss_with_no_word_in_its_length_window_is_unk(words, word, max_edit):
    result = spell_check(word, Dictionary(words), max_edit)
    assert result == SpellResult(UNK, False, "builtin")


@settings(max_examples=80, deadline=None)
@given(word=small_words, vocab=st.sets(small_words, min_size=1, max_size=12))
def test_spell_check_idempotent_on_pass(word, vocab):
    d = Dictionary(vocab)
    first = spell_check(word, d)
    if first.corrected != UNK:
        again = spell_check(first.corrected, d)
        assert again.passed


def test_threads_share_one_lazily_built_index(english, monkeypatch):
    words = sorted(english.words)
    queries = [w[:-1] + "q" for w in words[::97]] + ["zzxq", "thw", "dictionery"]
    expected = [spell_check(q, Dictionary(english.words)).corrected for q in queries]
    builds = []
    build = lexicon.LengthIndex.__init__

    def counting(self, *args):
        builds.append(threading.get_ident())
        build(self, *args)

    monkeypatch.setattr(lexicon.LengthIndex, "__init__", counting)
    fresh = Dictionary(english.words)
    start = threading.Barrier(8)
    results: dict[int, list[str]] = {}

    def check_all(n):
        start.wait()
        results[n] = [spell_check(q, fresh).corrected for q in queries]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=check_all, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {n: expected for n in range(8)}
    assert len(builds) == 1


# --- spell_chain ------------------------------------------------------------


def _checker(words, checker_id, **kwargs):
    return SpellChecker(Dictionary(words), checker_id=checker_id, **kwargs)


def test_chain_first_pass_wins():
    chain = [_checker({"move"}, "first"), _checker({"move", "cove"}, "second")]
    result = spell_chain("move", chain)
    assert result.passed and result.checker_id == "first"


def test_chain_falls_through_to_second():
    chain = [_checker({"zebra"}, "first"), _checker({"move"}, "second")]
    result = spell_chain("move", chain)
    assert result.passed and result.checker_id == "second"


def test_chain_first_correction_when_none_pass():
    chain = [_checker({"zebra"}, "first"), _checker({"cove"}, "second")]
    result = spell_chain("move", chain)
    assert not result.passed
    assert result.corrected == "cove"
    assert result.checker_id == "second"


def test_chain_all_unk():
    chain = [_checker({"zebra"}, "first"), _checker({"quartz"}, "second")]
    result = spell_chain("pneumonia", chain)
    assert result.corrected == UNK and not result.passed


def test_chain_requires_a_checker():
    with pytest.raises(ValueError):
        spell_chain("word", [])


# --- dictionary_score -------------------------------------------------------


def test_dictionary_score_counts_alpha_tokens():
    d = Dictionary({"the", "cat"})
    assert dictionary_score(["the", "cat", "zzq"], d) == pytest.approx(2 / 3)


def test_dictionary_score_empty():
    assert dictionary_score([], Dictionary({"the"})) == 0.0


def test_dictionary_score_all_hits():
    d = Dictionary({"the", "cat"})
    assert dictionary_score(["The", "cat"], d) == 1.0


def test_dictionary_score_ignores_short_and_nonalpha():
    d = Dictionary({"the", "a"})
    # "a" too short, "12ab" not alphabetic, "," not alphabetic
    assert dictionary_score(["a", "12ab", ","], d) == 0.0


@given(st.permutations(["the", "cat", "zzq", "dog", "!"]))
def test_dictionary_score_order_invariant(perm):
    d = Dictionary({"the", "cat", "dog"})
    assert dictionary_score(perm, d) == dictionary_score(["the", "cat", "zzq", "dog", "!"], d)


# --- loading ----------------------------------------------------------------


def test_load_dictionary(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("alpha\nbeta\n\ngamma\n", encoding="utf-8")
    freq = tmp_path / "freq.txt"
    freq.write_text("alpha\t10\nbeta\t3\n", encoding="utf-8")
    d = load_dictionary(words, freq)
    assert d.words == {"alpha", "beta", "gamma"}
    assert d.frequencies == {"alpha": 10, "beta": 3, "gamma": 0}


def test_frequency_words_are_stripped_like_dictionary_words(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text(" cat \ncot\n", encoding="utf-8")
    freq = tmp_path / "freq.txt"
    freq.write_text("cat\t2\ncot \t5\n", encoding="utf-8")
    d = load_dictionary(words, freq)
    assert d.frequencies == {"cat": 2, "cot": 5}
    assert spell_check("cxt", d).corrected == "cot"  # the higher count wins the tie


def test_frequency_lines_for_unknown_words(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("alpha\nbeta\nalpha\n", encoding="utf-8")
    freq = tmp_path / "freq.txt"
    freq.write_text("alpha\t1\nomega\t9\n", encoding="utf-8")
    d = load_dictionary(words, freq)
    # a count for a word that is not in the dictionary is ignored
    assert d.frequencies == {"alpha": 1, "beta": 0}
    assert not d.contains("omega")
    # but its line is still checked
    freq.write_text("alpha\t1\n\nomega\tmany\n", encoding="utf-8")
    with pytest.raises(TextFileError, match=r"freq\.txt:3: not word<TAB>count"):
        load_dictionary(words, freq)


def test_loaded_dictionary_holds_each_word_once(tmp_path):
    rng = random.Random(20)
    words = list(dict.fromkeys(
        "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 12))) for _ in range(20_000)
    ))
    words_path = tmp_path / "words.txt"
    words_path.write_text("\n".join(words) + "\n", encoding="utf-8")
    freq_path = tmp_path / "freq.txt"
    freq_path.write_text(
        "".join(f"{w}\t{1_000_000 // rank}\n" for rank, w in enumerate(words, 1)), encoding="utf-8"
    )
    load_dictionary(words_path, freq_path)  # any one-time caches fill outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        d = load_dictionary(words_path, freq_path)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(d) == len(words)
    # one string, one table slot and one count a word come to about 85 bytes;
    # a second store of the words and a lowercase copy bring it past 400
    assert retained / len(words) < 150
    keys = {id(w) for w in d.frequencies}
    index = d.length_index()
    assert len(index.words) == len(keys) and all(id(w) in keys for w in index.words)


def test_fixture_dictionary_loads(english):
    assert len(english) > 1000
    assert english.contains("the")
    assert english.contains("The")
