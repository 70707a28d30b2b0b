from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexisent import contextual as ctx
from lexisent.attribution import (
    AttributionMap,
    corpus_integrated_gradients,
    heatmap_csv,
    heatmap_svg,
    integrated_gradients,
    normalized_colors,
    summary_rows,
)
from lexisent.lexicon import LanguageCode, Polarity
from lexisent.settings import SettingError

from conftest import encode
from test_batched_kernels import EDGE_SENTENCES, path_integrated_gradients, random_model
from test_contextual import small_model, toy_corpus

EN = LanguageCode.ENGLISH


def linear_score_fn(w):
    def score(points):
        return np.sum(w * points, axis=(1, 2)), np.broadcast_to(w, points.shape).copy()

    return score


class TestCore:
    @pytest.mark.parametrize("steps", [1, 3, 50])
    def test_linear_model_is_exact(self, steps):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(4, 3))
        x = rng.normal(size=(4, 3))
        attributions, f_x, f_b, delta = path_integrated_gradients(
            linear_score_fn(w), x, np.zeros_like(x), steps=steps
        )
        assert np.allclose(attributions, w * x, atol=1e-12)
        assert abs(delta) < 1e-12 * max(1.0, abs(f_x))
        assert f_b == 0.0

    def test_zero_input_zero_baseline(self):
        w = np.ones((2, 2))
        attributions, _, _, delta = path_integrated_gradients(
            linear_score_fn(w), np.zeros((2, 2)), np.zeros((2, 2)), steps=4
        )
        assert np.all(attributions == 0.0)
        assert delta == 0.0

    def test_invalid_steps(self):
        model = random_model(0, 2, window=1)
        with pytest.raises(SettingError, match="^steps must be at least 1, got 0$") as caught:
            corpus_integrated_gradients(model, EDGE_SENTENCES, steps=0)
        assert caught.value.setting == "steps"

    def test_cubic_delta_falls_as_one_over_steps_squared(self):
        def score(points):
            return np.sum(points ** 3, axis=(1, 2)), 3.0 * points ** 2

        x = np.full((1, 3), 1.5)
        deltas = []
        for steps in (8, 32, 128, 512):
            _, _, _, delta = path_integrated_gradients(score, x, np.zeros_like(x), steps=steps)
            deltas.append(abs(delta))
        assert deltas == sorted(deltas, reverse=True)
        # the gradient is quadratic along the path, so the trapezoid error is exactly C/steps^2
        assert deltas[0] == pytest.approx(64 ** 2 * deltas[3], rel=1e-6)


@pytest.fixture(scope="module")
def trained():
    corpus = toy_corpus(n_per_class=15)
    model, train, val = small_model(corpus=corpus, epochs=12, learning_rate=0.5)
    return model, train


class TestIntegratedGradients:
    def test_map_fields_and_totals(self, trained):
        model, train = trained
        amap = integrated_gradients(model, train[0], steps=32)
        assert len(amap.per_token) == len(train[0].tokens)
        assert amap.total_attribution == pytest.approx(
            sum(v for _, v in amap.per_token), abs=1e-12
        )
        assert amap.convergence_delta == pytest.approx(
            amap.total_attribution - (amap.score_input - amap.score_baseline), abs=1e-12
        )
        assert 0.0 <= amap.confidence <= 1.0
        assert amap.predicted_class in list(Polarity)
        assert amap.steps == 32
        assert amap.to_json_dict()["scheme"] == "trapezoid"

    def test_defaults_to_predicted_class(self, trained):
        model, train = trained
        amap = integrated_gradients(model, train[1])
        assert amap.target_class is amap.predicted_class
        forced = integrated_gradients(model, train[1], target_class=Polarity.NEUTRAL)
        assert forced.target_class is Polarity.NEUTRAL

    def test_delta_decreases_with_steps(self, trained):
        model, train = trained
        deltas = [abs(integrated_gradients(model, train[2], steps=m).convergence_delta)
                  for m in (8, 32, 128, 512)]
        assert deltas == sorted(deltas, reverse=True)
        # 1/m decay: going 8 -> 512 must shrink |delta| by >= 64x / 2 slack
        assert deltas[3] <= deltas[0] * (8 / 512) * 2 + 1e-12

    def test_identical_tokens_in_window_get_equal_attribution(self, trained):
        model, _ = trained
        sentence = ctx.parse_marked("good [TARGET] thing [/TARGET] good")
        amap = integrated_gradients(model, sentence, steps=64)
        assert amap.per_token[0][1] == pytest.approx(amap.per_token[2][1], abs=1e-12)

    def test_model_untouched_by_attribution(self, trained):
        model, train = trained
        before = ctx.save_context_model(model)
        integrated_gradients(model, train[3], steps=128)
        integrated_gradients(model, train[4], steps=16)
        assert ctx.save_context_model(model) == before


def coordinate_attributions(model, amap):
    """The (tokens, embedding) attributions that ``amap`` sums per token,
    recomputed by the oracle integral, and a round-off bound on each token's
    sum.

    A token's attribution is sum over e, c of x_e W_ec g_c / n (the reference
    point x' is 0), with n = 1 for the target and the used window slots for a
    context token, and |g_c| <= 1. So ``terms`` bounds the magnitude of its 3E
    products, each of which rounds at most 3E + 3 times. The mean gradient g
    comes from the path logits, whose round-off is at most (2E + 5) eps
    ``logit_size`` on either side, and g moves by no more than its logits do.
    """
    sentence = amap.sentence
    ids, target_index = encode(model.vocabulary, sentence.tokens), sentence.target_index
    x = model.embeddings[ids]
    class_index = ctx.CLASS_ORDER.index(amap.target_class)
    attributions, *_ = path_integrated_gradients(
        lambda points: model.log_prob_and_input_grad(points, target_index, class_index),
        x, np.zeros_like(x), amap.steps,
    )
    e = model.embedding_dim
    context = model.window_positions(len(ids), target_index)
    row_sums = np.abs(model.weights).sum(axis=1)
    per_coordinate = np.zeros_like(x)
    per_coordinate[target_index] = row_sums[:e]
    if context:
        per_coordinate[context] = row_sums[e:] / len(context)
    terms = (np.abs(x) * per_coordinate).sum(axis=1)
    features = np.concatenate([x[target_index], x[context].mean(axis=0) if context
                               else np.zeros(e)])
    logit_size = np.abs(features) @ np.abs(model.weights)
    logit_size = float((logit_size + np.abs(model.bias)).max())
    eps = np.finfo(np.float64).eps
    bound = 2 * eps * terms * (3 * e + 3 + (2 * e + 5) * logit_size)
    return attributions, bound


# Words of the toy corpus, and one it never saw.
WORDS = st.sampled_from(["good", "happy", "bad", "awful", "table", "stone", "thing", "zebra"])


class TestCompleteness:
    @given(
        before=st.lists(WORDS, max_size=4),
        target=st.lists(WORDS, min_size=1, max_size=2),
        after=st.lists(WORDS, max_size=4),
        steps=st.integers(1, 64),
        target_class=st.sampled_from([None, *Polarity]),
    )
    @settings(max_examples=60, deadline=None)
    def test_delta_is_the_completeness_residual(self, trained, before, target, after, steps,
                                                target_class):
        """Each token's attribution is the sum of its coordinates' attributions,
        and sum(per-token attributions) - (F(x) - F(x')) is the reported delta,
        both to round-off."""
        model, _ = trained
        sentence = ctx.parse_marked(" ".join([*before, "[TARGET]", *target, "[/TARGET]", *after]))
        amap = integrated_gradients(model, sentence, target_class=target_class, steps=steps)
        coords, bound = coordinate_attributions(model, amap)
        values = np.array([value for _, value in amap.per_token])
        assert np.all(np.abs(values - coords.sum(axis=1)) <= bound)
        residual = math.fsum(values) - (amap.score_input - amap.score_baseline)
        # The reported delta adds the same n token values in another order, with
        # an error of at most (n - 1) * eps/2 * sum|values| (Higham, "Accuracy
        # and Stability of Numerical Algorithms", 2nd ed., eq. 4.4), and each
        # subtraction rounds once more.
        eps = np.finfo(np.float64).eps
        tolerance = eps * (len(values) * np.abs(values).sum()
                           + 2 * (abs(amap.score_input) + abs(amap.score_baseline)))
        assert abs(residual - amap.convergence_delta) <= tolerance


class TestHeatmap:
    def make_map(self, values):
        # rendering only needs tokens + values, so build the map directly
        tokens = tuple(f"w{i}" for i in range(len(values)))
        sent = ctx.TargetSentence(
            text=" ".join(tokens), tokens=tokens, target_index=0, label=None
        )
        return AttributionMap(
            sentence=sent,
            target_class=Polarity.POSITIVE,
            predicted_class=Polarity.POSITIVE,
            confidence=0.9,
            per_token=tuple(zip(tokens, values)),
            total_attribution=float(sum(values)),
            convergence_delta=0.0,
            steps=8,
            score_input=1.0,
            score_baseline=0.0,
        )

    def test_normalization_extremes(self):
        colors = normalized_colors([0.9, 0.5, 0.0])
        assert colors[0] == 1.0
        assert colors[2] == 0.0

    def test_single_token_mid_scale(self):
        assert normalized_colors([0.7]) == [0.5]

    def test_all_equal_mid_scale(self):
        assert normalized_colors([0.3, 0.3, 0.3]) == [0.5, 0.5, 0.5]

    def test_csv_and_svg_output(self):
        amap = self.make_map([0.9, 0.5, 0.0])
        lines = heatmap_csv(amap).splitlines()
        assert lines[0] == "token,attribution,color"
        assert lines[1].startswith("w0,0.9,1.0")
        svg_text = heatmap_svg(amap)
        assert svg_text.startswith("<svg")
        assert "w0" in svg_text and "</svg>" in svg_text

    def test_summary_rows_layout(self, trained):
        model, train = trained
        maps = [integrated_gradients(model, s, steps=8) for s in train[:3]]
        rows = summary_rows(maps)
        assert rows[0] == [
            "marked_sentence", "predicted_sentiment", "confidence",
            "attribution", "convergence_delta",
        ]
        assert len(rows) == 4
        assert rows[1][0] == train[0].text
