from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexisent.eda import HISTOGRAM_CENTERS, _five_number, compute_eda, pearson, score_bin
from lexisent.lexicon import LanguageCode, Lexicon, LexiconEntry, Polarity, PosTag

FR = LanguageCode.FRENCH
ZU = LanguageCode.ZULU


def entry_with(scores: dict[LanguageCode, float], shared=1.0, pos=PosTag.MOT, fr="mot"):
    return LexiconEntry(
        forms={FR: fr}, pos=pos, shared_score=shared, per_language_scores=scores
    )


def brute_force_pearson(xs, ys):
    # Direct textbook formula, independent of the implementation under test.
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.sqrt(sum((x - mx) ** 2 for x in xs)) * math.sqrt(
        sum((y - my) ** 2 for y in ys)
    )
    return num / den


def test_pearson_on_four_point_hand_dataset():
    fr_scores = [1.0, 2.0, 3.0, 4.0]
    zu_scores = [1.0, 2.0, 3.0, 5.0]
    expected = brute_force_pearson(fr_scores, zu_scores)
    assert pearson(fr_scores, zu_scores) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.9827, abs=5e-5)

    lex = Lexicon([
        entry_with({FR: f, ZU: z}, fr=f"mot{i}")
        for i, (f, z) in enumerate(zip(fr_scores, zu_scores))
    ])
    report = compute_eda(lex)
    assert report.cross_language_correlation[FR][ZU] == pytest.approx(expected, abs=1e-12)
    assert report.cross_language_correlation[ZU][FR] == pytest.approx(expected, abs=1e-12)


def test_identical_columns_correlate_to_one():
    lex = Lexicon([
        entry_with({lang: float(i) for lang in LanguageCode}, shared=float(i), fr=f"mot{i}")
        for i in range(1, 5)
    ])
    report = compute_eda(lex)
    for a in LanguageCode:
        for b in LanguageCode:
            assert report.cross_language_correlation[a][b] == pytest.approx(1.0, abs=1e-12)


def test_self_correlation_is_exactly_one():
    lex = Lexicon([entry_with({FR: 1.0}, fr="a"), entry_with({FR: 5.0}, fr="b")])
    assert compute_eda(lex).cross_language_correlation[FR][FR] == 1.0


def test_insufficient_pairs_reported_absent():
    lex = Lexicon([entry_with({FR: 1.0}, fr="a"), entry_with({ZU: 2.0}, fr="b")])
    report = compute_eda(lex)
    assert report.cross_language_correlation[FR][ZU] is None
    assert report.cross_language_correlation[FR][FR] is None  # single observation


def test_constant_column_correlation_undefined():
    lex = Lexicon([
        entry_with({FR: 2.0, ZU: 1.0}, fr="a"),
        entry_with({FR: 2.0, ZU: 3.0}, fr="b"),
    ])
    assert compute_eda(lex).cross_language_correlation[FR][ZU] is None


def test_constant_column_self_correlation_undefined():
    # 0.0 and -0.0 are one value, so French is constant too.
    for french in ((2.0, 2.0), (0.0, -0.0)):
        lex = Lexicon([
            entry_with({FR: french[0], ZU: 1.0}, fr="a"),
            entry_with({FR: french[1], ZU: 3.0}, fr="b"),
        ])
        report = compute_eda(lex)
        assert report.cross_language_correlation[FR][FR] is None
        assert report.cross_language_correlation[ZU][ZU] == 1.0


def test_polarity_counts_sum_and_pos_rows(paper_lexicon):
    report = compute_eda(paper_lexicon)
    assert sum(report.polarity_counts.values()) == len(paper_lexicon)
    for pos in PosTag:
        row_total = sum(report.pos_by_polarity[pos].values())
        expected = sum(1 for e in paper_lexicon.entries if e.pos is pos)
        assert row_total == expected


def test_histogram_bins():
    assert len(HISTOGRAM_CENTERS) == 19
    assert score_bin(-9.0) == 0
    assert score_bin(9.0) == 18
    assert score_bin(0.0) == 9
    assert score_bin(2.5) == 12  # half-up: [2.5, 3.5) belongs to center 3
    assert score_bin(2.49) == 11


def test_histogram_counts_present_scores_only():
    lex = Lexicon([
        entry_with({FR: 2.6}, fr="a"),
        entry_with({FR: -9.0, ZU: 9.0}, fr="b"),
    ])
    report = compute_eda(lex)
    assert sum(report.per_language_histograms[FR]) == 2
    assert report.per_language_histograms[FR][0] == 1
    assert sum(report.per_language_histograms[ZU]) == 1
    assert report.per_language_histograms[ZU][18] == 1


def test_five_number_summary():
    lex = Lexicon([entry_with({}, shared=float(v), fr=f"m{v}") for v in (1, 2, 3, 4)])
    report = compute_eda(lex)
    assert report.per_pos_five_number[PosTag.MOT] == (1.0, 1.75, 2.5, 3.25, 4.0)
    assert PosTag.VERBE not in report.per_pos_five_number


# Any float of the score range, quarter steps (which repeat), and both zeros.
SCORES = st.one_of(
    st.floats(-9.0, 9.0),
    st.integers(-36, 36).map(lambda k: k / 4),
    st.sampled_from([0.0, -0.0]),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(SCORES, min_size=1, max_size=40))
def test_five_number_is_numpy_percentile(scores):
    expected = np.percentile(np.asarray(scores, dtype=float), [0, 25, 50, 75, 100]).tolist()
    found = _five_number(scores)
    assert found == tuple(expected)
    signs = {math.copysign(1.0, s) for s in scores if s == 0.0}
    if len(signs) < 2:  # no tie of 0.0 and -0.0, whose order numpy leaves open
        assert [v.hex() for v in found] == [v.hex() for v in expected]


def test_five_number_keeps_the_row_order_of_signed_zeros():
    # The same three scores in two row orders; q3 interpolates halfway
    # between the last two, so its sign follows the row order.
    assert [v.hex() for v in _five_number([0.0, -0.0, -0.0])] == [
        (0.0).hex(), (0.0).hex(), (0.0).hex(), (-0.0).hex(), (0.0).hex()]
    assert [v.hex() for v in _five_number([-0.0, 0.0, -0.0])] == [(0.0).hex()] * 5


def test_empty_lexicon_rejected():
    with pytest.raises(ValueError):
        compute_eda(Lexicon([]))


def test_json_dict_round_trips_keys(paper_lexicon):
    data = compute_eda(paper_lexicon).to_json_dict()
    assert data["entry_count"] == len(paper_lexicon)
    assert set(data["polarity_counts"]) == {p.value for p in Polarity}
    assert set(data["cross_language_correlation"]) == {l.value for l in LanguageCode}
