"""Exploratory statistics over a lexicon: distributions, correlations, quartiles.

Quartiles are Hyndman & Fan's (1996) type 7, numpy's default ``linear``
method, computed in plain Python so that ``lexicon stats`` runs without numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .lexicon import LanguageCode, Lexicon, Polarity, PosTag, float_sum

#: Histogram bin centers: one unit-width bin per integer score.
HISTOGRAM_CENTERS = tuple(range(-9, 10))


def score_bin(value: float) -> int:
    """Index of the unit-width bin centered on the nearest integer (half rounds up)."""
    return int(math.floor(value + 0.5)) + 9


def pearson(xs: list[float], ys: list[float]) -> float | None:
    """Pearson r of two equal-length samples; None when undefined (n < 2 or
    zero variance in either sample). Clamped into [-1, 1]."""
    n = len(xs)
    if n < 2:
        return None
    mean_x = float_sum(xs) / n
    mean_y = float_sum(ys) / n
    sxx = syy = sxy = 0.0  # each sum adds left to right, as float_sum does
    for x, y in zip(xs, ys):
        dx, dy = x - mean_x, y - mean_y
        sxx += dx ** 2
        syy += dy ** 2
        sxy += dx * dy
    if sxx <= 0.0 or syy <= 0.0:
        return None
    r = sxy / (math.sqrt(sxx) * math.sqrt(syy))
    return max(-1.0, min(1.0, r))


def _five_number(scores: list[float]) -> tuple[float, float, float, float, float]:
    """Min, quartiles and max of ``scores`` (at least one): Hyndman-Fan type 7.

    The steps and their float operations are numpy's ``linear`` method, so
    each value equals ``np.percentile(scores, [0, 25, 50, 75, 100])`` bit for
    bit, unless it falls on a tie of ``0.0`` and ``-0.0``: numpy's partition
    picks either sign there, while ``sorted`` is stable, so equal scores keep
    their row order.
    """
    ordered = sorted(scores)
    last = len(ordered) - 1
    summary = []
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        index = last * q
        if index >= last:  # numpy takes the last value twice, and gamma from index -1
            a = b = ordered[-1]
            g = index + 1
        else:
            lo = math.floor(index)
            a, b = ordered[lo], ordered[lo + 1]
            g = index - lo
        summary.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))
    return tuple(summary)


class EdaReport(NamedTuple):
    entry_count: int
    polarity_counts: dict[Polarity, int]
    pos_by_polarity: dict[PosTag, dict[Polarity, int]]
    per_language_histograms: dict[LanguageCode, list[int]]
    cross_language_correlation: dict[LanguageCode, dict[LanguageCode, float | None]]
    per_pos_five_number: dict[PosTag, tuple[float, float, float, float, float]]

    def to_json_dict(self) -> dict:
        return {
            "entry_count": self.entry_count,
            "polarity_counts": {p.value: c for p, c in self.polarity_counts.items()},
            "pos_by_polarity": {
                pos.value: {p.value: c for p, c in row.items()}
                for pos, row in self.pos_by_polarity.items()
            },
            "histogram_bin_centers": list(HISTOGRAM_CENTERS),
            "per_language_histograms": {
                lang.value: counts for lang, counts in self.per_language_histograms.items()
            },
            "cross_language_correlation": {
                a.value: {b.value: r for b, r in row.items()}
                for a, row in self.cross_language_correlation.items()
            },
            "per_pos_five_number": {
                pos.value: {
                    "min": f[0], "q1": f[1], "median": f[2], "q3": f[3], "max": f[4]
                }
                for pos, f in self.per_pos_five_number.items()
            },
        }


def compute_eda(lexicon: Lexicon) -> EdaReport:
    """Summarize the lexicon the way the analysis notebooks would.

    Polarity counts and the POS breakdown classify the shared score. The
    per-language histograms and the correlation matrix use only per-language
    scores that are explicitly present; pairs with fewer than two joint
    observations (or a constant column) are reported as absent, not as 0; so
    is a language's correlation with itself when its present scores hold
    fewer than two distinct values. The per-POS five-number summary is
    described at :func:`_five_number`.

    The counts are tallied by score, so each distinct score is classified and
    binned once per call; the correlations and quartiles read every score in
    row order.
    """
    if len(lexicon) == 0:
        raise ValueError("cannot summarize an empty lexicon")

    pos_scores: dict[PosTag, list[float]] = {pos: [] for pos in PosTag}
    for pos, score in zip(lexicon.pos, lexicon.shared_scores):
        pos_scores[pos].append(score)
    pos_tallies = {pos: Counter(scores) for pos, scores in pos_scores.items()}
    polarity_of = {
        score: Polarity.from_score(score)
        for score in set().union(*pos_tallies.values())
    }
    polarity_counts = {p: 0 for p in Polarity}
    pos_by_polarity = {pos: {p: 0 for p in Polarity} for pos in PosTag}
    for pos, tally in pos_tallies.items():
        row = pos_by_polarity[pos]
        for score, count in tally.items():
            polarity = polarity_of[score]
            row[polarity] += count
            polarity_counts[polarity] += count

    columns = lexicon.present
    tallies = {language: Counter(column.values()) for language, column in columns.items()}
    bin_of = {score: score_bin(score) for score in set().union(*tallies.values())}
    histograms: dict[LanguageCode, list[int]] = {}
    for language, tally in tallies.items():
        counts = [0] * len(HISTOGRAM_CENTERS)
        for score, count in tally.items():
            counts[bin_of[score]] += count
        histograms[language] = counts

    correlation: dict[LanguageCode, dict[LanguageCode, float | None]] = {
        a: {} for a in LanguageCode
    }
    languages = list(LanguageCode)
    for i, a in enumerate(languages):
        column_a = columns[a]
        correlation[a][a] = 1.0 if len(tallies[a]) >= 2 else None
        for b in languages[i + 1 :]:
            column_b = columns[b]
            both = list(filter(column_b.__contains__, column_a))
            correlation[a][b] = correlation[b][a] = pearson(
                [column_a[eid] for eid in both], [column_b[eid] for eid in both]
            )

    five_number = {pos: _five_number(scores) for pos, scores in pos_scores.items() if scores}

    return EdaReport(
        entry_count=len(lexicon),
        polarity_counts=polarity_counts,
        pos_by_polarity=pos_by_polarity,
        per_language_histograms=histograms,
        cross_language_correlation=correlation,
        per_pos_five_number=five_number,
    )
