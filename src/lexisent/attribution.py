"""Integrated Gradients over the contextual model's input embeddings.

Attribution of coordinate i is (x_i - x'_i) times the average gradient of the
class score along the straight path from the baseline x' to the input x. The
class score is the model's log-probability for the chosen class; the residual
between the summed attributions and F(x) - F(x') is the convergence delta,
which shrinks as the number of integration steps grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contextual import CLASS_ORDER, ContextModel, TargetSentence
from .lexicon import Polarity, csv_text, json_text
from .settings import BASELINE_KINDS, DEFAULT_SCHEME, DEFAULT_STEPS, SCHEMES, SettingError

#: score_fn(points (P, T, E)) -> (values (P,), gradients w.r.t. each point (P, T, E))
ScoreFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def path_integrated_gradients(
    score_fn: ScoreFn,
    x: np.ndarray,
    baseline: np.ndarray,
    steps: int,
    scheme: str = DEFAULT_SCHEME,
) -> tuple[np.ndarray, float, float, float]:
    """Core integral: returns (attributions, F(x), F(baseline), delta).

    ``right`` evaluates gradients at k/steps for k = 1..steps (a right-endpoint
    Riemann sum); ``trapezoid`` averages endpoint pairs, halving the endpoint
    weights. Both are exact for linear score functions at any step count.
    Every path point, ``x`` and ``baseline`` go to ``score_fn`` in one call.
    """
    if steps < 1:
        raise SettingError("steps", f"must be at least 1, got {steps}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    diff = x - baseline
    if scheme == "right":
        ks = np.arange(1, steps + 1)
        weights = np.ones(steps)
    else:
        ks = np.arange(0, steps + 1)
        weights = np.ones(steps + 1)
        weights[[0, -1]] = 0.5
    points = baseline + (ks / steps)[:, None, None] * diff
    values, grads = score_fn(np.concatenate([points, x[None], baseline[None]]))
    mean_grad = (weights[:, None, None] * grads[: len(ks)]).sum(axis=0) / steps
    attributions = diff * mean_grad
    f_x, f_baseline = float(values[-2]), float(values[-1])
    delta = float(attributions.sum() - (f_x - f_baseline))
    return attributions, f_x, f_baseline, delta


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
    baseline_kind: str
    scheme: str
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
            "baseline_kind": self.baseline_kind,
            "scheme": self.scheme,
            "score_input": self.score_input,
            "score_baseline": self.score_baseline,
        }


def integrated_gradients(
    model: ContextModel,
    sentence: TargetSentence,
    target_class: Polarity | None = None,
    steps: int = DEFAULT_STEPS,
    baseline_kind: str = "zero",
    scheme: str = DEFAULT_SCHEME,
) -> AttributionMap:
    """Per-token attributions for one sentence; post-hoc, the model is read-only.

    The attributed class defaults to the model's prediction. Token attribution
    is the sum over that token's embedding coordinates; the baseline is either
    the zero embedding or the padding token's embedding at every position.
    """
    ids, target_index = model.encode(sentence)
    x = model.embeddings[ids].copy()
    if baseline_kind == "zero":
        baseline = np.zeros_like(x)
    elif baseline_kind == "pad":
        baseline = np.tile(model.embeddings[model.vocabulary.pad_id], (len(ids), 1))
    else:
        raise ValueError(f"unknown baseline {baseline_kind!r}; expected one of {BASELINE_KINDS}")

    (predicted_index,), (proba,) = model.predict_batch([sentence])
    predicted = CLASS_ORDER[predicted_index]
    chosen = predicted if target_class is None else target_class
    class_index = CLASS_ORDER.index(chosen)

    def score_fn(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return model.log_prob_and_input_grad(points, target_index, class_index)

    attributions, f_x, f_baseline, delta = path_integrated_gradients(
        score_fn, x, baseline, steps, scheme
    )
    per_token = tuple(
        (token, float(attributions[i].sum())) for i, token in enumerate(sentence.tokens)
    )
    return AttributionMap(
        sentence=sentence,
        target_class=chosen,
        predicted_class=predicted,
        confidence=float(proba[predicted_index]),
        per_token=per_token,
        total_attribution=float(attributions.sum()),
        convergence_delta=delta,
        steps=steps,
        baseline_kind=baseline_kind,
        scheme=scheme,
        score_input=f_x,
        score_baseline=f_baseline,
    )


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
