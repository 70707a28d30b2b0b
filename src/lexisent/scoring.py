"""Sentence sentiment scoring from lexicon word scores, plus a small English baseline.

Two scoring modes exist: ``avg`` scores each word by the mean of its entry's
per-language scores, ``v2`` by the score for the sentence's own language.
Sentence totals are plain sums of word scores (they may leave [-9, 9]).

One walk over a sentence's tokens scores both modes and formats each mode's
word scores (``form:score; form:score``) once; :func:`score_batch` and
:func:`score_sentence` both go through it.

:func:`score_batch` builds each sentence's comparison row once: a dict whose
keys are the ten :data:`COMPARISON_COLUMNS`. The totals and the baseline
compound are floats, the word scores are their ``form:score`` text, and the
language and the three sentiments are their ``.value`` strings.
:func:`comparison_csv_rows` formats the rows of ``comparison.csv`` from those
dicts; ``comparison.json`` holds only the batch's agreement and polarity
counts (:meth:`ComparisonReport.to_json_dict`).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

from .lexicon import LanguageCode, Lexicon, Polarity, format_score
from .translator import Token, tokenize, word_tokens


class ScoreMode(str, Enum):
    AVG = "avg"
    V2 = "v2"


class ScoredSentence(NamedTuple):
    sentence: str
    language: LanguageCode
    mode: ScoreMode
    word_scores: tuple[tuple[str, float], ...]
    total_score: float
    polarity: Polarity


BaselineScorer = Callable[[str], tuple[float, Polarity]]


class _ModeScores(NamedTuple):
    """One mode's scores of one sentence, one per token; ``text`` is
    ``format_word_scores`` of the tokens' surfaces paired with ``scores``."""

    scores: list[float]
    total: float
    text: str


def _score_modes(
    tokens: list[Token],
    mean: list[float],
    own: list[float],
    formatted: dict[float, str],
) -> tuple[_ModeScores, _ModeScores]:
    """Both modes' scores of ``tokens`` in one walk: ``mean`` holds the avg
    column and ``own`` the v2 column of the sentence's language, lists by
    entry position. Unknown tokens score 0. ``formatted`` caches
    :func:`format_score` by score, so a caller that passes one dict formats
    each distinct score once."""
    avg_scores, v2_scores, avg_pieces, v2_pieces = [], [], [], []
    for surface, entry_id, _ in tokens:
        if entry_id is None:
            avg = v2 = 0.0
        else:
            avg, v2 = mean[entry_id], own[entry_id]
        text = formatted.get(avg)
        if text is None:
            text = formatted[avg] = format_score(avg)
        avg_piece = f"{surface}:{text}"
        if v2 == avg:  # equal scores format alike, 0.0 and -0.0 included
            v2_piece = avg_piece
        else:
            text = formatted.get(v2)
            if text is None:
                text = formatted[v2] = format_score(v2)
            v2_piece = f"{surface}:{text}"
        avg_scores.append(avg)
        v2_scores.append(v2)
        avg_pieces.append(avg_piece)
        v2_pieces.append(v2_piece)
    return (
        _ModeScores(avg_scores, math.fsum(avg_scores), "; ".join(avg_pieces)),
        _ModeScores(v2_scores, math.fsum(v2_scores), "; ".join(v2_pieces)),
    )


def score_sentence(
    sentence: str, language: LanguageCode, lexicon: Lexicon, mode: ScoreMode
) -> ScoredSentence:
    """Tokenize and score one sentence; unknown tokens score 0.

    ``mode`` is a :class:`ScoreMode` or its value; any other raises
    ``ValueError``."""
    mode = ScoreMode(mode)
    tokens = tokenize(sentence, language, lexicon)
    avg, v2 = _score_modes(tokens, lexicon.mean, lexicon.effective[language], {})
    scores = avg if mode is ScoreMode.AVG else v2
    return ScoredSentence(
        sentence=sentence,
        language=language,
        mode=mode,
        word_scores=tuple(zip([token.surface for token in tokens], scores.scores)),
        total_score=scores.total,
        polarity=Polarity.from_score(scores.total),
    )


def format_word_scores(word_scores: tuple[tuple[str, float], ...]) -> str:
    """Serialize word scores as ``form:score; form:score``, the text that
    :func:`score_batch` stores in each row's ``word_scores_avg`` and
    ``word_scores_v2``."""
    return "; ".join(f"{form}:{format_score(score)}" for form, score in word_scores)


# Valence list for the built-in baseline: a small set of common English
# sentiment words with conventional intensities in [-4, 4]. This is a minimal
# stand-in for rule-based compound scorers, not a reimplementation of one.
ENGLISH_VALENCES: dict[str, float] = {
    "amazing": 2.8,
    "angry": -2.3,
    "awful": -2.0,
    "bad": -2.5,
    "beautiful": 2.9,
    "best": 3.2,
    "better": 1.9,
    "boring": -1.3,
    "calm": 1.3,
    "care": 2.2,
    "caring": 2.2,
    "cruel": -2.6,
    "danger": -2.4,
    "dead": -3.3,
    "evil": -3.4,
    "excellent": 2.7,
    "fail": -2.5,
    "fear": -2.2,
    "fun": 2.3,
    "glad": 2.0,
    "good": 1.9,
    "great": 3.1,
    "happy": 2.7,
    "hate": -2.7,
    "hurt": -2.4,
    "joy": 2.8,
    "kind": 2.4,
    "like": 1.5,
    "love": 3.2,
    "nice": 1.8,
    "pain": -2.5,
    "perfect": 2.7,
    "poor": -2.1,
    "sad": -2.1,
    "scared": -2.2,
    "terrible": -2.1,
    "thank": 1.9,
    "thanks": 1.9,
    "trust": 2.3,
    "ugly": -2.6,
    "war": -2.9,
    "weak": -1.9,
    "win": 2.8,
    "wonderful": 2.7,
    "worst": -3.1,
    "wrong": -2.1,
}

#: Compound scores beyond +/-0.05 classify as positive/negative.
BASELINE_THRESHOLD = 0.05

# Normalization constant for mapping a raw valence sum into [-1, 1].
_NORMALIZATION_ALPHA = 15.0


def builtin_english_baseline(sentence: str) -> tuple[float, Polarity]:
    """Sum valences of known English words and squash into a compound score.

    The raw sum x maps to x / sqrt(x^2 + 15), so the compound always lies in
    [-1, 1]; sentences with no valence hits (any non-English input) score 0.
    Words are split by :func:`~lexisent.lexicon.word_tokens`, as the tokenizer
    splits them.
    """
    total = 0.0
    for word in word_tokens(sentence):
        total += ENGLISH_VALENCES.get(word, 0.0)
    compound = total / math.sqrt(total * total + _NORMALIZATION_ALPHA)
    if compound > BASELINE_THRESHOLD:
        return compound, Polarity.POSITIVE
    if compound < -BASELINE_THRESHOLD:
        return compound, Polarity.NEGATIVE
    return compound, Polarity.NEUTRAL


class ComparisonReport(NamedTuple):
    #: One dict per sentence, keyed by :data:`COMPARISON_COLUMNS`.
    rows: list[dict[str, str | float]]
    agreement: float
    polarity_counts: dict[str, dict[Polarity, int]]

    def to_json_dict(self) -> dict:  # what comparison.json holds: no rows
        return {
            "agreement": self.agreement,
            "polarity_counts": {
                scorer: {p.value: c for p, c in counts.items()}
                for scorer, counts in self.polarity_counts.items()
            },
        }


def score_batch(
    rows: list[tuple[str, LanguageCode]],
    lexicon: Lexicon,
    baseline: BaselineScorer,
    formatted: dict[float, str] | None = None,
) -> ComparisonReport:
    """Score every sentence under both modes plus the baseline.

    Each sentence is tokenized once and one walk over its tokens scores both
    modes; each distinct score is formatted once per batch. ``formatted``
    caches :func:`format_score` by score; a caller that scores many batches of
    one lexicon passes the same dict to each, so each distinct score is
    formatted once in all.

    Agreement is the fraction of rows where the v2 polarity matches the
    baseline's (vacuously 1.0 on empty input). Output rows keep input order.
    """
    mean, effective = lexicon.mean, lexicon.effective
    if formatted is None:
        formatted = {}
    out: list[dict[str, str | float]] = []
    counts = {
        scorer: {p: 0 for p in Polarity} for scorer in ("avg", "v2", "baseline")
    }
    agree = 0
    for sentence, language in rows:
        avg, v2 = _score_modes(
            tokenize(sentence, language, lexicon), mean, effective[language], formatted
        )
        avg_polarity = Polarity.from_score(avg.total)
        v2_polarity = Polarity.from_score(v2.total)
        compound, baseline_polarity = baseline(sentence)
        counts["avg"][avg_polarity] += 1
        counts["v2"][v2_polarity] += 1
        counts["baseline"][baseline_polarity] += 1
        if v2_polarity is baseline_polarity:
            agree += 1
        out.append({
            "sentence": sentence,
            "language": language.value,
            "total_score_avg": avg.total,
            "word_scores_avg": avg.text,
            "sentiment_avg": avg_polarity.value,
            "total_score_v2": v2.total,
            "word_scores_v2": v2.text,
            "sentiment_v2": v2_polarity.value,
            "baseline_compound": compound,
            "baseline_sentiment": baseline_polarity.value,
        })
    agreement = agree / len(rows) if rows else 1.0
    return ComparisonReport(rows=out, agreement=agreement, polarity_counts=counts)


COMPARISON_COLUMNS = (
    "sentence",
    "language",
    "total_score_avg",
    "word_scores_avg",
    "sentiment_avg",
    "total_score_v2",
    "word_scores_v2",
    "sentiment_v2",
    "baseline_compound",
    "baseline_sentiment",
)


def comparison_csv_rows(report: ComparisonReport) -> list[list[str]]:
    """Rows for the comparison table; totals use 6 decimals, compounds 4."""
    rows = [list(COMPARISON_COLUMNS)]
    for r in report.rows:
        rows.append(
            [
                r["sentence"],
                r["language"],
                f"{r['total_score_avg']:.6f}",
                r["word_scores_avg"],
                r["sentiment_avg"],
                f"{r['total_score_v2']:.6f}",
                r["word_scores_v2"],
                r["sentiment_v2"],
                f"{r['baseline_compound']:.4f}",
                r["baseline_sentiment"],
            ]
        )
    return rows
