"""The compiled tokenizer against a brute-force longest-match oracle.

The oracle is the straightforward algorithm: split on whitespace and the
separators character by character, then at every position probe every phrase
length from the language's longest form down to one, and rank ambiguous hits
by POS priority and row on every hit.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from lexisent import scoring
from lexisent.lexicon import POS_PRIORITY, LanguageCode, Lexicon, LexiconEntry, PosTag
from lexisent.scoring import score_batch
from lexisent.translator import (
    Token,
    WORD_PATTERN,
    normalize_sentence,
    tokenize,
)

from test_scoring import zero_baseline

FR = LanguageCode.FRENCH
EN = LanguageCode.ENGLISH

SEPARATORS = set('.,!?;:"()')


def oracle_words(normalized: str) -> list[tuple[str, int, int]]:
    words = []
    start = None
    for i, ch in enumerate(normalized):
        if ch.isspace() or ch in SEPARATORS:
            if start is not None:
                words.append((normalized[start:i], start, i))
                start = None
        elif start is None:
            start = i
    if start is not None:
        words.append((normalized[start:], start, len(normalized)))
    return words


def regex_words(normalized: str) -> list[tuple[str, int, int]]:
    """Each ``WORD_PATTERN`` match as (word, start, end), as the tokenizer splits."""
    return [(m.group(), m.start(), m.end()) for m in WORD_PATTERN.finditer(normalized)]


def oracle_tokenize(sentence: str, language: LanguageCode, lexicon: Lexicon) -> list[Token]:
    words = oracle_words(normalize_sentence(sentence))
    index = lexicon.index[language]
    max_len = max([len(form.split()) for form in index] + [1])
    tokens = []
    i = 0
    while i < len(words):
        match_len, matched = 0, ()
        for length in range(min(max_len, len(words) - i), 0, -1):
            ids = index.get(" ".join(w for w, _, _ in words[i : i + length]), ())
            if ids:
                match_len, matched = length, ids
                break
        if match_len == 0:
            word, start, end = words[i]
            tokens.append(Token(word, None, (start, end)))
            i += 1
            continue
        surface = " ".join(w for w, _, _ in words[i : i + match_len])
        span = (words[i][1], words[i + match_len - 1][2])
        ranked = sorted(matched, key=lambda i: (POS_PRIORITY[lexicon.entries[i].pos], i))
        tokens.append(Token(surface, ranked[0], span, tuple(ranked[1:])))
        i += match_len
    return tokens


# Few words, so that phrases share first words and one phrase is often the
# prefix of another.
PHRASE_WORDS = ["go", "wa", "tšhaba", "le", "été"]
# Forms a sentence word can never equal: un-trimmed, doubled spaces, tabs.
ODD_FORMS = ["go ", " go", "go  wa", "go\twa", "le wa "]

phrase = st.lists(st.sampled_from(PHRASE_WORDS), min_size=1, max_size=4).map(" ".join)


@st.composite
def lexicons(draw) -> Lexicon:
    """Entries whose forms are drawn phrases, their prefixes and odd forms."""
    phrases = draw(st.lists(phrase, max_size=6))
    forms = sorted(
        {" ".join(p.split(" ")[:k]) for p in phrases for k in range(1, p.count(" ") + 2)}
        | set(ODD_FORMS)
    )
    entries = st.builds(
        lambda french, english, pos: LexiconEntry(
            forms={FR: french, EN: english}, pos=pos, shared_score=0.0,
            per_language_scores={},
        ),
        french=st.sampled_from(forms),
        english=st.sampled_from(forms),
        pos=st.sampled_from(list(PosTag)),
    )
    return Lexicon(draw(st.lists(entries, max_size=14)))


# Unknown words, case to fold, and NFD text that NFC-normalizes to "été".
other_words = st.sampled_from(["zzz", "Go", "ÉTÉ", "e\u0301te\u0301", "motho"])
separator = st.sampled_from(
    [" ", "  ", ", ", "!", " (", ") ", "\u00a0", "\u2003", "\t", '"', "\u3000."]
)


def draw_sentence(data, lexicon: Lexicon) -> str:
    """Known forms, phrases and unknown words joined by drawn separators."""
    forms = sorted({f for e in lexicon.entries for f in e.forms.values()}) or ["go"]
    chunks = data.draw(st.lists(st.one_of(st.sampled_from(forms), phrase, other_words),
                                max_size=6))
    words = " ".join(chunks).split(" ")
    separators = data.draw(st.lists(separator, min_size=len(words), max_size=len(words)))
    return "".join(w + sep for w, sep in zip(words, separators))


@given(lexicons(), st.data())
@settings(max_examples=300, deadline=None)
def test_tokenize_equals_brute_force_longest_match(lexicon, data):
    sentence = draw_sentence(data, lexicon)
    for language in (FR, EN):
        assert tokenize(sentence, language, lexicon) == oracle_tokenize(sentence, language, lexicon)


def test_ambiguous_tie_break_matches_oracle_beyond_nine_entries():
    lexicon = Lexicon([
        LexiconEntry(forms={FR: f"f{i}", EN: "same"}, pos=PosTag.VERBE, shared_score=0.0,
                     per_language_scores={})
        for i in range(12)
    ])
    assert tokenize("same", EN, lexicon) == oracle_tokenize("same", EN, lexicon)


@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=60))
@settings(max_examples=300, deadline=None)
def test_regex_splitter_equals_character_loop(text):
    assert regex_words(text) == oracle_words(text)


def test_regex_splitter_equals_character_loop_on_every_code_point():
    text = "a".join(chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF)
    assert regex_words(text) == oracle_words(text)


def test_regex_splitter_on_unicode_whitespace():
    text = "a\u00a0b\u2003c\u3000d\x1ce\u200bf"
    # U+200B (zero width space) is not whitespace to str.isspace(), so it stays.
    assert [w for w, _, _ in regex_words(text)] == ["a", "b", "c", "d", "e\u200bf"]
    assert regex_words(text) == oracle_words(text)


def test_score_batch_tokenizes_each_sentence_once(monkeypatch, paper_lexicon):
    calls = []
    original = scoring.tokenize

    def counting(sentence, language, lexicon):
        calls.append(sentence)
        return original(sentence, language, lexicon)

    monkeypatch.setattr(scoring, "tokenize", counting)
    rows = [("I want food.", EN), ("Go tšhaba go wa.", LanguageCode.SEPEDI), ("", EN)]
    report = score_batch(rows, paper_lexicon, zero_baseline)
    assert calls == [sentence for sentence, _ in rows]
    assert len(report.rows) == 3


def test_score_batch_equals_score_sentence_per_mode(paper_lexicon):
    rows = [("I want food.", EN), ("Go tšhaba go wa.", LanguageCode.SEPEDI)]
    report = score_batch(rows, paper_lexicon, zero_baseline)
    for (sentence, language), row in zip(rows, report.rows):
        for mode in scoring.ScoreMode:
            scored = scoring.score_sentence(sentence, language, paper_lexicon, mode)
            m = mode.value
            assert (row[f"total_score_{m}"], row[f"sentiment_{m}"]) == (
                scored.total_score, scored.polarity.value)
            assert row[f"word_scores_{m}"] == scoring.format_word_scores(scored.word_scores)


# Integral, non-integral and signed-zero scores, so equal scores of the two
# modes and the format cache's 0.0/-0.0 key are both exercised.
WALK_SCORES = [0.0, -0.0, 1.0, -2.0, 0.1, 2.5, 7.0 / 3.0, -9.0]


@st.composite
def scored_lexicons(draw) -> Lexicon:
    """:func:`lexicons` with drawn shared and per-language scores."""
    entries = draw(lexicons()).entries
    score = st.sampled_from(WALK_SCORES)
    return Lexicon([
        entry._replace(shared_score=draw(score),
                       per_language_scores=draw(st.dictionaries(
                           st.sampled_from(list(LanguageCode)), score, max_size=3)))
        for entry in entries
    ])


def reference_word_scores(tokens, column) -> tuple[tuple[str, float], ...]:
    return tuple((t.surface, 0.0 if t.entry_id is None else column[t.entry_id])
                 for t in tokens)


@given(scored_lexicons(), st.data())
@settings(max_examples=100, deadline=None)
def test_score_batch_walk_equals_per_mode_scoring(lexicon, data):
    count = data.draw(st.integers(min_value=0, max_value=4))
    sentences = [draw_sentence(data, lexicon) for _ in range(count)]
    rows = [(sentence, language) for sentence in sentences for language in (FR, EN)]
    report = score_batch(rows, lexicon, zero_baseline)
    for (sentence, language), row in zip(rows, report.rows):
        tokens = tokenize(sentence, language, lexicon)
        for mode, column in ((scoring.ScoreMode.AVG, lexicon.mean),
                             (scoring.ScoreMode.V2, lexicon.effective[language])):
            scored = scoring.score_sentence(sentence, language, lexicon, mode)
            m = mode.value
            assert (row[f"total_score_{m}"], row[f"sentiment_{m}"]) == (
                scored.total_score, scored.polarity.value)
            assert row[f"word_scores_{m}"] == scoring.format_word_scores(scored.word_scores)
            assert scored.word_scores == reference_word_scores(tokens, column)
            assert scored.total_score == math.fsum(score for _, score in scored.word_scores)
