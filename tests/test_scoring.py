from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexisent
from lexisent.lexicon import (
    LanguageCode, Lexicon, LexiconEntry, Polarity, PosTag, serialize_lexicon,
)
from lexisent.scoring import (
    COMPARISON_COLUMNS,
    ENGLISH_VALENCES,
    ScoreMode,
    builtin_english_baseline,
    comparison_csv_rows,
    format_word_scores,
    score_batch,
    score_sentence,
)
from lexisent.translator import translate, word_tokens

EN = LanguageCode.ENGLISH
AF = LanguageCode.AFRIKAANS
NSO = LanguageCode.SEPEDI
ZU = LanguageCode.ZULU


def zero_baseline(sentence: str) -> tuple[float, Polarity]:
    """A baseline that abstains: compound 0.0, neutral, for every sentence."""
    return 0.0, Polarity.NEUTRAL


def word_lexicon(words: dict[str, float], language=EN, shared=None) -> Lexicon:
    """Single-language lexicon of one-word forms with equal shared/specific scores."""
    return Lexicon([
        LexiconEntry(
            forms={LanguageCode.FRENCH: f"fr-{w}", language: w},
            pos=PosTag.MOT,
            shared_score=shared if shared is not None else s,
            per_language_scores={language: s},
        )
        for w, s in words.items()
    ])


class TestScoreSentence:
    def test_avg_mode_published_row(self, paper_lexicon):
        scored = score_sentence("I want food.", EN, paper_lexicon, ScoreMode.AVG)
        assert scored.word_scores == (("i", 0.0), ("want", 3.5), ("food", 3.0))
        assert scored.total_score == pytest.approx(6.5, abs=1e-9)
        assert scored.polarity is Polarity.POSITIVE

    def test_v2_mode_published_row(self, paper_lexicon):
        scored = score_sentence("I want food.", EN, paper_lexicon, ScoreMode.V2)
        assert scored.total_score == pytest.approx(7.0, abs=1e-9)

    def test_two_modes_differ_like_published_tables(self, paper_lexicon):
        avg = score_sentence("I am happy today.", EN, paper_lexicon, ScoreMode.AVG)
        v2 = score_sentence("I am happy today.", EN, paper_lexicon, ScoreMode.V2)
        assert avg.total_score == pytest.approx(3.0 + 4.5 + 5.0 / 3.0, abs=1e-9)
        assert v2.total_score == pytest.approx(10.5, abs=1e-9)

    def test_negative_sepedi_sentence(self, paper_lexicon):
        scored = score_sentence("Go tšhaba go wa.", NSO, paper_lexicon, ScoreMode.V2)
        assert scored.total_score == pytest.approx(-1.0, abs=1e-9)
        assert scored.polarity is Polarity.NEGATIVE

    def test_mixed_signs_sum_not_average(self, paper_lexicon):
        scored = score_sentence("O rata go letela tše mpe.", NSO, paper_lexicon, ScoreMode.V2)
        assert scored.word_scores == (("o rata", 9.0), ("go letela", 1.0), ("tše mpe", -9.0))
        assert scored.total_score == pytest.approx(1.0, abs=1e-9)
        assert scored.polarity is Polarity.POSITIVE

    def test_total_may_exceed_single_word_bound(self, paper_lexicon):
        scored = score_sentence(
            "Ngiyabathanda abantu abazinakekelayo", ZU, paper_lexicon, ScoreMode.V2
        )
        assert scored.total_score == pytest.approx(11.75, abs=1e-9)

    def test_empty_sentence(self, paper_lexicon):
        scored = score_sentence("", EN, paper_lexicon, ScoreMode.AVG)
        assert scored.word_scores == ()
        assert scored.total_score == 0.0
        assert scored.polarity is Polarity.NEUTRAL

    def test_unknown_words_score_zero(self, paper_lexicon):
        scored = score_sentence("qwerty asdf", EN, paper_lexicon, ScoreMode.V2)
        assert scored.total_score == 0.0
        assert scored.polarity is Polarity.NEUTRAL

    def test_mode_given_by_value_scores_that_mode(self, paper_lexicon):
        for mode in ScoreMode:
            by_value = score_sentence("I am happy today.", EN, paper_lexicon, mode.value)
            assert by_value == score_sentence("I am happy today.", EN, paper_lexicon, mode)
            assert by_value.mode is mode

    def test_unknown_mode_raises(self, paper_lexicon):
        with pytest.raises(ValueError):
            score_sentence("I want food.", EN, paper_lexicon, "bogus")


class TestModeEquivalence:
    def test_equal_scores_make_modes_agree(self):
        lex = Lexicon([
            LexiconEntry(
                forms={LanguageCode.FRENCH: f"fr{i}", EN: w},
                pos=PosTag.MOT,
                shared_score=s,
                per_language_scores={lang: s for lang in LanguageCode},
            )
            for i, (w, s) in enumerate({"up": 2.0, "down": -3.0, "flat": 0.0}.items())
        ])
        avg = score_sentence("up down flat", EN, lex, ScoreMode.AVG)
        v2 = score_sentence("up down flat", EN, lex, ScoreMode.V2)
        assert avg.word_scores == v2.word_scores
        assert avg.total_score == v2.total_score
        assert avg.polarity is v2.polarity


words_st = st.lists(
    st.sampled_from(["up", "down", "flat", "high", "low", "zzz"]), min_size=0, max_size=8
)

SCORED = {"up": 2.0, "down": -3.0, "flat": 0.0, "high": 4.5, "low": -1.5}


@given(words_st, words_st)
@settings(max_examples=80, deadline=None)
def test_additivity_without_cross_boundary_phrases(left, right):
    lex = word_lexicon(SCORED)
    s1 = score_sentence(" ".join(left), EN, lex, ScoreMode.V2)
    s2 = score_sentence(" ".join(right), EN, lex, ScoreMode.V2)
    joined = score_sentence(" ".join(left + right), EN, lex, ScoreMode.V2)
    assert joined.total_score == pytest.approx(s1.total_score + s2.total_score, abs=1e-12)


@given(words_st)
@settings(max_examples=80, deadline=None)
def test_global_negation_flips_polarity(words):
    sentence = " ".join(words)
    lex = word_lexicon(SCORED)
    negated = word_lexicon({w: -s for w, s in SCORED.items()})
    plain = score_sentence(sentence, EN, lex, ScoreMode.V2)
    flipped = score_sentence(sentence, EN, negated, ScoreMode.V2)
    assert flipped.total_score == pytest.approx(-plain.total_score, abs=1e-12)
    swap = {Polarity.POSITIVE: Polarity.NEGATIVE,
            Polarity.NEGATIVE: Polarity.POSITIVE,
            Polarity.NEUTRAL: Polarity.NEUTRAL}
    assert flipped.polarity is swap[plain.polarity]


class TestBaseline:
    def test_no_valence_hits(self):
        compound, polarity = builtin_english_baseline("go tšhaba go wa")
        assert compound == 0.0
        assert polarity is Polarity.NEUTRAL

    def test_empty_sentence(self):
        assert builtin_english_baseline("") == (0.0, Polarity.NEUTRAL)

    def test_words_split_as_the_tokenizer_splits_them(self):
        # NFC maps the Greek question mark U+037E to ";", which separates words.
        sentence = "good\u037ebad"
        assert word_tokens(sentence) == ["good", "bad"]
        assert builtin_english_baseline(sentence) == builtin_english_baseline("good bad")
        assert builtin_english_baseline(sentence)[1] is Polarity.NEGATIVE

    def test_normalization_formula(self):
        # Hand oracle: three hits of valence 2.7 sum to 8.1 before squashing.
        expected = 8.1 / math.sqrt(8.1**2 + 15.0)
        compound, polarity = builtin_english_baseline("happy happy happy")
        assert compound == pytest.approx(expected, abs=1e-12)
        assert compound == pytest.approx(0.902, abs=5e-4)
        assert polarity is Polarity.POSITIVE

    def test_negative_sentence(self):
        compound, polarity = builtin_english_baseline("this is bad and awful")
        assert compound < -0.05
        assert polarity is Polarity.NEGATIVE

    @given(st.lists(st.sampled_from(sorted(ENGLISH_VALENCES) + ["zzz", "go"]),
                    min_size=0, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_compound_bounded(self, words):
        compound, _ = builtin_english_baseline(" ".join(words))
        assert -1.0 <= compound <= 1.0


class TestScoreBatch:
    def test_baseline_equal_to_v2_gives_full_agreement(self, paper_lexicon):
        rows = [("I want food.", EN), ("Go tšhaba go wa.", NSO)]

        def v2_as_baseline(sentence):
            for s, lang in rows:
                if s == sentence:
                    scored = score_sentence(s, lang, paper_lexicon, ScoreMode.V2)
                    return scored.total_score, scored.polarity
            raise AssertionError(sentence)

        report = score_batch(rows, paper_lexicon, v2_as_baseline)
        assert report.agreement == 1.0

    def test_disagreeing_baseline_gives_zero_agreement(self, paper_lexicon):
        # Four positive sentences against a baseline answering neutral x3, negative x1.
        rows = [("Ek vertrou haar", AF)] * 3 + [("Bestuur na die stad.", AF)]
        answers = iter([Polarity.NEUTRAL] * 3 + [Polarity.NEGATIVE])

        def stub(sentence):
            return 0.0, next(answers)

        report = score_batch(rows, paper_lexicon, stub)
        assert all(r["sentiment_v2"] == Polarity.POSITIVE.value for r in report.rows)
        assert report.agreement == 0.0

    def test_non_english_rows_all_neutral_under_builtin(self, paper_lexicon):
        sentences = [
            "Go tšhaba go wa.", "Go letela ngwedi.", "Ke motho le go tšhaba kotlo.",
            "O rata go letela tše mpe.", "Go tšhaba go wa.", "Go tšhaba go wa.",
            "Go letela ngwedi.", "O rata go letela tše mpe.", "Go tšhaba go wa.",
        ]
        report = score_batch(
            [(s, NSO) for s in sentences], paper_lexicon, builtin_english_baseline
        )
        assert len(report.rows) == 9
        assert all(r["baseline_compound"] == 0.0 for r in report.rows)
        assert all(r["baseline_sentiment"] == Polarity.NEUTRAL.value for r in report.rows)

    def test_rows_are_the_comparison_columns_as_plain_values(self, paper_lexicon):
        rows = [("I want food.", EN), ("Go tšhaba go wa.", NSO), ("xyz", EN), ("", AF)]
        report = score_batch(rows, paper_lexicon, builtin_english_baseline)
        assert len(report.rows) == len(rows)
        for row in report.rows:
            assert tuple(row) == COMPARISON_COLUMNS
            # Exact types: a str-valued enum member is an instance of str.
            assert all(type(value) in (str, float) for value in row.values()), row

    def test_counts_sum_to_row_count(self, paper_lexicon):
        rows = [("I want food.", EN), ("Go tšhaba go wa.", NSO), ("xyz", EN)]
        report = score_batch(rows, paper_lexicon, zero_baseline)
        for counts in report.polarity_counts.values():
            assert sum(counts.values()) == len(rows)


class TestSerialization:
    def test_word_scores_format(self):
        assert format_word_scores((("i", 0.0), ("want", 3.5))) == "i:0; want:3.5"

    def test_csv_layout_and_decimal_style(self, paper_lexicon):
        report = score_batch([("I want food.", EN)], paper_lexicon, zero_baseline)
        rows = comparison_csv_rows(report)
        assert rows[0][2:] == [
            "total_score_avg", "word_scores_avg", "sentiment_avg",
            "total_score_v2", "word_scores_v2", "sentiment_v2",
            "baseline_compound", "baseline_sentiment",
        ]
        assert rows[1][2] == "6.500000"
        assert rows[1][5] == "7.000000"
        assert rows[1][8] == "0.0000"


# Reads a lexicon CSV from stdin with numpy blocked, then scores and translates.
NUMPY_BLOCKED = """
import json, sys
sys.modules["numpy"] = None
from lexisent.lexicon import LanguageCode, Polarity, parse_lexicon
from lexisent.scoring import score_batch
from lexisent.translator import translate
def zero_baseline(sentence):
    return 0.0, Polarity.NEUTRAL
lexicon = parse_lexicon(sys.stdin.read())
rows = [(sentence, LanguageCode(language)) for sentence, language in json.loads(sys.argv[1])]
report = score_batch(rows, lexicon, zero_baseline)
translated = translate(rows[0][0], rows[0][1], LanguageCode.FRENCH, lexicon)
print(json.dumps([[[r["total_score_avg"], r["total_score_v2"]] for r in report.rows],
                  translated.translated_text]))
"""


def test_lexicon_scoring_and_translate_run_without_numpy(paper_lexicon):
    rows = [("I want food.", "english"), ("Go tšhaba go wa.", "sepedi")]
    src = str(Path(lexisent.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED, json.dumps(rows)],
        input=serialize_lexicon(paper_lexicon).decode("utf-8"), capture_output=True,
        text=True, encoding="utf-8", env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    totals, translated = json.loads(done.stdout)
    parsed = [(sentence, LanguageCode(language)) for sentence, language in rows]
    report = score_batch(parsed, paper_lexicon, zero_baseline)
    assert totals == [[r["total_score_avg"], r["total_score_v2"]] for r in report.rows]
    assert translated == translate(rows[0][0], EN, LanguageCode.FRENCH,
                                   paper_lexicon).translated_text
