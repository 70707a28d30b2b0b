"""Integrated Gradients over the contextual model's input embeddings.

Attribution of coordinate i is x_i times the average gradient of the class
score along the straight path from the zero embedding x' = 0 to the input x.
The class score is the model's log-probability for the chosen class; the
residual between the summed attributions and F(x) - F(0) is the convergence
delta, which shrinks as the number of integration steps grows. The average is
taken by the trapezoid rule over ``steps + 1`` evenly spaced path points, so
the delta falls as 1/steps^2.

The model's logits are affine in its input embeddings: ``h`` is the target
embedding next to the mean of the window's embeddings, and ``z = h W + b``, so
at x' = 0 they are ``b``. On the straight path the logits therefore run along
a line, ``z(t) = b + t (z - b)``, and the gradient of F at every path point
is one fixed linear map of the 3-vector ``e_c - softmax(z(t))``. The
trapezoid sum of the gradients is that map applied once to the weighted mean
``g`` of those 3-vectors, so a token's attribution is ``(x_i @ W_part) . g``,
where ``W_part`` holds the rows of ``W`` that read the target (for the
target) or the window mean (for a context token, whose value is then divided
by the number of used window slots); tokens outside the window get 0.
Only the forward pass for ``z`` reads embeddings, once per sentence; the path
itself is 3-way softmaxes, so its cost depends neither on sentence length nor
on embedding size, and ``steps`` adds only those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import contextual
from .contextual import CLASS_ORDER, ContextModel, TargetSentence, _log_sum_exp
from .lexicon import Polarity, csv_text, json_text
from .numeric import softmax
from .settings import DEFAULT_STEPS, SettingError


@dataclass(frozen=True)
class AttributionMap:
    sentence: TargetSentence
    target_class: Polarity
    predicted_class: Polarity
    confidence: float
    per_token: tuple[tuple[str, float], ...]
    total_attribution: float
    convergence_delta: float
    steps: int
    score_input: float  # F(x)
    score_baseline: float  # F(x')

    @property
    def target_attribution(self) -> float:
        return self.per_token[self.sentence.target_index][1]

    def to_json_dict(self) -> dict:
        return {
            "marked_sentence": self.sentence.text,
            "target": self.sentence.target,
            "target_class": self.target_class.value,
            "predicted_class": self.predicted_class.value,
            "confidence": self.confidence,
            "per_token": [[token, value] for token, value in self.per_token],
            "target_attribution": self.target_attribution,
            "total_attribution": self.total_attribution,
            "convergence_delta": self.convergence_delta,
            "steps": self.steps,
            "baseline_kind": "zero",
            "scheme": "trapezoid",
            "score_input": self.score_input,
            "score_baseline": self.score_baseline,
        }


#: Most (rows, path points, 3) logits held at once, so that a large ``steps``
#: costs time but not memory.
PATH_ELEMENTS = 1 << 18


def _mean_gradient(z: np.ndarray, bias: np.ndarray, class_index: np.ndarray,
                   steps: int) -> np.ndarray:
    """``sum_k w_k (e_c - softmax(b + t_k (z - b))) / steps`` per row, (rows, 3).

    The trapezoid rule: t_k = k/steps for k = 0..steps, with the two endpoint
    weights halved, so the weights sum to ``steps``. It is exact for linear
    score functions at any step count. The path points go through in blocks
    of at most :data:`PATH_ELEMENTS` logits.
    """
    rows = len(z)
    direction = z - bias
    block = max(1, PATH_ELEMENTS // (3 * rows))
    total = np.zeros((rows, 3))
    for start in range(0, steps + 1, block):
        k = np.arange(start, min(start + block, steps + 1))
        weights = np.ones(len(k))
        weights[(k == 0) | (k == steps)] = 0.5
        logits = bias + (k / steps)[None, :, None] * direction[:, None]
        total += np.einsum("k,rkc->rc", weights, softmax(logits))
    mean = total / -steps
    mean[np.arange(rows), class_index] += 1.0
    return mean


def corpus_integrated_gradients(
    model: ContextModel,
    sentences: list[TargetSentence],
    target_class: Polarity | None = None,
    steps: int = DEFAULT_STEPS,
) -> list[AttributionMap]:
    """Per-token attributions for each sentence, in order; post-hoc, the model
    is read-only.

    The attributed class defaults to each sentence's predicted class. Token
    attribution is the sum over that token's embedding coordinates. Sentences
    go through in chunks of :data:`~lexisent.contextual.PREDICT_CHUNK`, with
    one forward pass per chunk.
    """
    if steps < 1:
        raise SettingError("steps", f"must be at least 1, got {steps}")
    w_target, w_context = np.split(model.weights, [model.embedding_dim])
    packed = model.pack(sentences)
    window = packed.context.shape[1] // 2  # the packed window, at most the model's
    chunk = contextual.PREDICT_CHUNK
    maps = []
    for first, part in zip(range(0, len(sentences), chunk), packed.chunks(chunk)):
        target = model.embeddings[part.targets]
        context = model.embeddings[part.context]
        _, z = model.forward(target, context, part.mask)
        proba = softmax(z)
        predicted = np.argmax(proba, axis=1)
        if target_class is None:
            class_index = predicted
        else:
            class_index = np.full(len(part), CLASS_ORDER.index(target_class))
        g = _mean_gradient(z, model.bias, class_index, steps)
        rows = np.arange(len(part))
        f_x = z[rows, class_index] - _log_sum_exp(z)
        f_base = model.bias[class_index] - _log_sum_exp(model.bias)
        on_target = np.einsum("rc,rc->r", target @ w_target, g)
        used = np.maximum(part.mask.sum(axis=1), 1)
        on_context = np.einsum("rjc,rc->rj", context @ w_context, g) / used[:, None]
        on_context[~part.mask] = 0.0
        total = on_target + on_context.sum(axis=1)
        delta = total - (f_x - f_base)
        columns = zip(sentences[first : first + chunk], on_target.tolist(), on_context.tolist(),
                      predicted.tolist(), class_index.tolist(), proba.tolist(), total.tolist(),
                      delta.tolist(), f_x.tolist(), f_base.tolist())
        for s, on_t, on_c, p, c, row_proba, row_total, row_delta, row_f_x, row_f_base in columns:
            t = s.target_index
            left, right = min(t, window), min(len(s.tokens) - 1 - t, window)
            values = [0.0] * len(s.tokens)
            values[t - left : t] = on_c[window - left : window]
            values[t] = on_t
            values[t + 1 : t + 1 + right] = on_c[window : window + right]
            maps.append(AttributionMap(
                sentence=s,
                target_class=CLASS_ORDER[c],
                predicted_class=CLASS_ORDER[p],
                confidence=row_proba[p],
                per_token=tuple(zip(s.tokens, values)),
                total_attribution=row_total,
                convergence_delta=row_delta,
                steps=steps,
                score_input=row_f_x,
                score_baseline=row_f_base,
            ))
    return maps


def integrated_gradients(
    model: ContextModel,
    sentence: TargetSentence,
    target_class: Polarity | None = None,
    steps: int = DEFAULT_STEPS,
) -> AttributionMap:
    """:func:`corpus_integrated_gradients` of one sentence."""
    (amap,) = corpus_integrated_gradients(model, [sentence], target_class, steps)
    return amap


def normalized_colors(values: list[float]) -> list[float]:
    """Min-max normalize to [0, 1]; constant rows map to mid-scale 0.5."""
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.5] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def heatmap_csv(amap: AttributionMap) -> str:
    colors = normalized_colors([value for _, value in amap.per_token])
    rows = [["token", "attribution", "color"]]
    rows += [[token, repr(value), repr(color)]
             for (token, value), color in zip(amap.per_token, colors)]
    return csv_text(rows)


def heatmap_svg(amap: AttributionMap) -> str:
    from .svg import token_heatmap

    values = [value for _, value in amap.per_token]
    return token_heatmap(
        tokens=[token for token, _ in amap.per_token],
        colors=normalized_colors(values),
        values=values,
        title=f"attributions toward {amap.target_class.value} "
        f"(delta {amap.convergence_delta:.4g})",
    )


def attribution_json(amap: AttributionMap) -> str:
    return json_text(amap.to_json_dict())


SUMMARY_COLUMNS = (
    "marked_sentence",
    "predicted_sentiment",
    "confidence",
    "attribution",
    "convergence_delta",
)


def summary_rows(maps: list[AttributionMap]) -> list[list[str]]:
    """Batch summary table: one row per sentence, target-token attribution."""
    rows = [list(SUMMARY_COLUMNS)]
    for amap in maps:
        rows.append(
            [
                amap.sentence.text,
                amap.predicted_class.value,
                f"{amap.confidence:.4f}",
                f"{amap.target_attribution:.6g}",
                f"{amap.convergence_delta:.6g}",
            ]
        )
    return rows
