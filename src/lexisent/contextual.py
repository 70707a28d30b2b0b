"""Target-word contextual sentiment: marked sentences, a small differentiable
classifier over target and context embeddings, class-weighted training.

The classifier embeds every token, concatenates the target embedding with the
mean embedding of the tokens inside a window around the target, and applies a
linear layer to produce three polarity logits. All gradients (parameters and
input embeddings) are analytic, which keeps training deterministic. The
attribution module does not use the input gradient: since the logits are
affine in the embeddings, it integrates the 3-way softmax along the straight
line between the baseline's and the input's logits.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import artifact
from .artifact import checked_array, checked_names, is_int
from .lexicon import (LanguageCode, Lexicon, LexiconFormatError, Polarity,
                      context_dependent_forms, csv_text, float_sum, table_rows, unknown_value)
from .numeric import rng_for, softmax
from .settings import SettingError
from .translator import word_tokens

log = logging.getLogger(__name__)

TARGET_OPEN = "[TARGET]"
TARGET_CLOSE = "[/TARGET]"

#: Class order used for labels, logits, weights, and reports.
CLASS_ORDER: tuple[Polarity, ...] = (Polarity.NEGATIVE, Polarity.NEUTRAL, Polarity.POSITIVE)

SPLIT_RATIOS = (0.7, 0.2, 0.1)


class MarkupError(ValueError):
    """Malformed target markers in a sentence."""


@dataclass(frozen=True)
class TargetSentence:
    text: str
    tokens: tuple[str, ...]  # normalized words; the target phrase is one token
    target_index: int
    label: Polarity | None = None

    @property
    def target(self) -> str:
        return self.tokens[self.target_index]


def parse_marked(text: str, label: Polarity | None = None) -> TargetSentence:
    """Parse one ``[TARGET] ... [/TARGET]`` sentence.

    Exactly one marker pair is allowed and the span must be non-empty; a
    multi-word span becomes a single target token.
    """
    opens = text.count(TARGET_OPEN)
    closes = text.count(TARGET_CLOSE)
    if opens != 1 or closes != 1:
        raise MarkupError(
            f"expected exactly one {TARGET_OPEN} ... {TARGET_CLOSE} pair, "
            f"found {opens} opening and {closes} closing markers"
        )
    open_at = text.index(TARGET_OPEN)
    close_at = text.index(TARGET_CLOSE)
    if close_at < open_at:
        raise MarkupError("closing marker appears before the opening marker")
    span = text[open_at + len(TARGET_OPEN) : close_at]
    target_words = word_tokens(span)
    if not target_words:
        raise MarkupError("empty target span")
    before = word_tokens(text[:open_at])
    after = word_tokens(text[close_at + len(TARGET_CLOSE) :])
    tokens = tuple(before) + (" ".join(target_words),) + tuple(after)
    return TargetSentence(
        text=text, tokens=tokens, target_index=len(before), label=label
    )


PAD, UNK = "<pad>", "<unk>"
SPECIAL_TOKENS = (PAD, UNK, TARGET_OPEN, TARGET_CLOSE)


@dataclass(frozen=True)
class Vocabulary:
    id_to_token: tuple[str, ...]

    pad_id = 0
    unknown_id = 1

    def __post_init__(self):
        object.__setattr__(self, "token_to_id", {t: i for i, t in enumerate(self.id_to_token)})

    def __len__(self) -> int:
        return len(self.id_to_token)


def build_vocabulary(sentences: list[TargetSentence]) -> Vocabulary:
    seen = sorted({token for s in sentences for token in s.tokens} - set(SPECIAL_TOKENS))
    return Vocabulary(SPECIAL_TOKENS + tuple(seen))


def compute_class_weights(labels: list[Polarity]) -> dict[Polarity, float]:
    """Inverse-frequency weights: N / (K * n_c); absent classes weigh 0."""
    counts = Counter(labels)
    return {p: len(labels) / (len(CLASS_ORDER) * counts[p]) if counts[p] else 0.0
            for p in CLASS_ORDER}


@dataclass
class TrainConfig:
    embedding_dim: int = 32
    window: int = 5
    batch_size: int = 32


def _largest_remainder(n: int, fractions: tuple[float, ...]) -> list[int]:
    base = [int(n * f) for f in fractions]
    remainders = [n * f - b for f, b in zip(fractions, base)]
    for _ in range(n - sum(base)):
        i = max(range(len(fractions)), key=lambda j: (remainders[j], -j))
        base[i] += 1
        remainders[i] = -1.0
    return base


def split_70_20_10(
    data: list[TargetSentence], seed: int
) -> tuple[list[TargetSentence], list[TargetSentence], list[TargetSentence]]:
    """Stratified 70:20:10 split; overall sizes match the exact ratios within
    one item, deterministic per seed, union equals the input."""
    if len(data) < 10:
        raise ValueError("need at least 10 sentences for a 70:20:10 split")
    _require_labels(data)
    targets = _largest_remainder(len(data), SPLIT_RATIOS)

    by_class: list[list[int]] = []
    for polarity in CLASS_ORDER:
        members = [i for i, s in enumerate(data) if s.label is polarity]
        if not members:
            log.warning("no %s sentences; splitting over the remaining classes",
                        polarity.value)
        by_class.append(members)

    alloc = [_largest_remainder(len(members), SPLIT_RATIOS) for members in by_class]
    # Nudge per-class allocations until the global sizes hit the targets.
    sums = [sum(a[p] for a in alloc) for p in range(3)]
    while sums != targets:
        src = next(p for p in range(3) if sums[p] > targets[p])
        dst = next(p for p in range(3) if sums[p] < targets[p])
        donor = max(range(len(alloc)), key=lambda c: (alloc[c][src], -c))
        alloc[donor][src] -= 1
        alloc[donor][dst] += 1
        sums[src] -= 1
        sums[dst] += 1

    rng = rng_for(seed, 70, 20, 10)
    parts: tuple[list[TargetSentence], ...] = ([], [], [])
    for members, (n_train, n_val, _) in zip(by_class, alloc):
        shuffled = [members[i] for i in rng.permutation(len(members))]
        parts[0].extend(data[i] for i in shuffled[:n_train])
        parts[1].extend(data[i] for i in shuffled[n_train : n_train + n_val])
        parts[2].extend(data[i] for i in shuffled[n_train + n_val :])
    return parts


def generate_dataset(
    lexicon: Lexicon,
    language: LanguageCode,
    n: int,
    seed: int,
    label_weights: tuple[float, float, float] = (0.4, 0.2, 0.4),
) -> list[TargetSentence]:
    """Template-generate ``n`` marked sentences around context-dependent targets.

    Each sentence places 1-3 context words on either side of the target, drawn
    from lexicon forms whose polarity (in ``language``) matches the intended
    label, so the label is recoverable from the context alone.
    ``label_weights`` orders (negative, neutral, positive); they must be
    finite, non-negative and not all 0, with a finite total.
    """
    total = float_sum(label_weights)
    if not (all(math.isfinite(w) and w >= 0 for w in label_weights) and total > 0):
        raise SettingError(
            "label_weights", f"must be finite, non-negative and not all 0, got {label_weights}"
        )
    if total == math.inf:
        raise SettingError("label_weights", f"have a total that overflows, got {label_weights}")
    targets = context_dependent_forms(lexicon, language)
    if not targets:
        raise ValueError(f"lexicon has no context-dependent {language.value} forms")
    effective = lexicon.effective[language]
    pools: dict[Polarity, list[str]] = {p: [] for p in CLASS_ORDER}
    for form, ids in lexicon.index[language].items():
        polarities = {Polarity.from_score(effective[i]) for i in ids}
        if len(polarities) == 1:
            pools[next(iter(polarities))].append(form)
    for polarity, weight in zip(CLASS_ORDER, label_weights):
        if weight > 0 and not pools[polarity]:
            raise ValueError(
                f"no unambiguous {polarity.value} {language.value} words to build contexts"
            )
        pools[polarity].sort()

    # The cumulative distribution that Generator.choice(3, p=...) builds on
    # every call; searching it for one uniform draw is that call's draw.
    cdf = np.array([w / total for w in label_weights]).cumsum()
    cdf /= cdf[-1]
    rng = rng_for(seed, 1000)
    # The words of each form drawn so far: the marked text's words, form by form.
    words: dict[str, list[str]] = {}

    def words_of(forms: list[str]) -> list[str]:
        for form in forms:
            if form not in words:
                words[form] = word_tokens(form)
        return [word for form in forms for word in words[form]]

    sentences = []
    for _ in range(n):
        label = CLASS_ORDER[int(cdf.searchsorted(rng.random(), side="right"))]
        pool = pools[label]
        target = targets[int(rng.integers(len(targets)))]
        before = [pool[int(rng.integers(len(pool)))] for _ in range(int(rng.integers(1, 4)))]
        after = [pool[int(rng.integers(len(pool)))] for _ in range(int(rng.integers(1, 4)))]
        text = " ".join(before + [TARGET_OPEN, target, TARGET_CLOSE] + after) + "."
        target_words = words_of([target])
        if target_words and text.count(TARGET_OPEN) == text.count(TARGET_CLOSE) == 1:
            before_words = words_of(before)
            tokens = (*before_words, " ".join(target_words), *words_of(after))
            sentences.append(TargetSentence(text, tokens, len(before_words), label))
        else:  # a form holding a marker, or a target with no words: parse_marked refuses it
            sentences.append(parse_marked(text, label=label))
    return sentences


def _log_sum_exp(z: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of logits (..., 3)."""
    m = z.max(axis=-1)
    return m + np.log(np.exp(z - m[..., None]).sum(axis=-1))


@dataclass(frozen=True)
class PackedSentences:
    """A sentence set as arrays, the input of :meth:`ContextModel.forward_ids`.

    Context slot ``j`` of a row holds the token ``window - j`` places left of
    the target for ``j < window`` and ``j - window + 1`` places right of it
    otherwise, so the slots run in sentence order. Slots past either end of
    the sentence hold the pad id and are masked out. ``window`` is the packed
    one, at most the model's (:meth:`ContextModel.pack`).
    """

    targets: np.ndarray  # (B,) token id of each target
    context: np.ndarray  # (B, 2 * window) token ids around the target
    mask: np.ndarray  # (B, 2 * window) bool, True where a slot holds a token
    labels: np.ndarray  # (B,) CLASS_ORDER index, -1 for an unlabeled sentence

    def __len__(self) -> int:
        return len(self.targets)

    def take(self, rows) -> PackedSentences:
        """The rows ``rows`` (an index array or a slice), in that order."""
        return PackedSentences(self.targets[rows], self.context[rows], self.mask[rows],
                               self.labels[rows])

    def chunks(self, size: int):
        for start in range(0, len(self), size):
            yield self.take(slice(start, start + size))


#: Sentences per forward pass in :meth:`ContextModel.predict_batch` and in
#: :func:`lexisent.attribution.corpus_integrated_gradients`; bounds the
#: (chunk, 2 * window, E) context array on large corpora.
PREDICT_CHUNK = 1024


@dataclass
class ContextModel:
    vocabulary: Vocabulary
    embeddings: np.ndarray  # (V, E)
    weights: np.ndarray  # (2E, 3)
    bias: np.ndarray  # (3,)
    window: int
    seed: int
    hyperparameters: dict = field(default_factory=dict)
    history: list[dict] = field(default_factory=list)

    @property
    def embedding_dim(self) -> int:
        return self.embeddings.shape[1]

    def window_positions(self, length: int, target_index: int) -> list[int]:
        lo = max(0, target_index - self.window)
        hi = min(length - 1, target_index + self.window)
        return [j for j in range(lo, hi + 1) if j != target_index]

    def pack(self, sentences: list[TargetSentence]) -> PackedSentences:
        """The sentences as arrays, with no Python loop per sentence: every
        token is encoded in one pass over the concatenated sentences, and
        each context slot gathers the token at its offset from the target
        where that position lies inside its sentence."""
        lengths = np.array([len(s.tokens) for s in sentences], dtype=np.intp)
        # Slots past the longest sentence would be masked in every row, so none is made.
        w = min(self.window, int(lengths.max(initial=1)) - 1)
        get, unknown = self.vocabulary.token_to_id.get, self.vocabulary.unknown_id
        ids = np.fromiter((get(t, unknown) for s in sentences for t in s.tokens),
                          dtype=np.intp, count=int(lengths.sum()))
        first = np.cumsum(lengths) - lengths  # position of each sentence's first token
        at = first + np.array([s.target_index for s in sentences], dtype=np.intp)
        offsets = np.concatenate([np.arange(-w, 0), np.arange(1, w + 1)])
        positions = at[:, None] + offsets
        mask = (positions >= first[:, None]) & (positions < (first + lengths)[:, None])
        context = np.full(positions.shape, self.vocabulary.pad_id, dtype=np.intp)
        context[mask] = ids[positions[mask]]
        labels = np.array([-1 if s.label is None else CLASS_ORDER.index(s.label)
                           for s in sentences], dtype=np.intp)
        return PackedSentences(ids[at], context, mask, labels)

    def forward(
        self, target: np.ndarray, context: np.ndarray, mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Features ``h`` (B, 2E) and logits ``z`` (B, 3) of B inputs.

        ``target`` (B, E) holds target embeddings, ``context`` (B, C, E) the
        embeddings in the window and ``mask`` (B, C) or (C,) the slots in use;
        ``h`` is the target embedding next to the mean of the used slots (zero
        when none is used).
        """
        count = np.maximum(mask.sum(axis=-1), 1)
        mean = context.sum(axis=1, where=mask[..., None]) / count[..., None]
        h = np.concatenate([target, mean], axis=1)
        return h, h @ self.weights + self.bias

    def forward_ids(self, packed: PackedSentences) -> tuple[np.ndarray, np.ndarray]:
        return self.forward(
            self.embeddings[packed.targets], self.embeddings[packed.context], packed.mask
        )

    def predict_batch(self, sentences: list[TargetSentence]) -> tuple[np.ndarray, np.ndarray]:
        packed = self.pack(sentences)
        proba = np.concatenate(
            [softmax(self.forward_ids(part)[1]) for part in packed.chunks(PREDICT_CHUNK)]
        )
        return np.argmax(proba, axis=1), proba

    def log_prob_and_input_grad(
        self, points: np.ndarray, target_index: int, class_index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Log-probability of a class at each of P inputs ``points`` (P, T, E)
        of one sentence, and its gradient w.r.t. each input: values (P,) and
        gradients (P, T, E). Model parameters are untouched.

        :mod:`lexisent.attribution` integrates in logit space and never calls
        this; it is the input gradient that the tests check that kernel
        against, and ``bench/tracing.py`` traces it by name."""
        context = self.window_positions(points.shape[1], target_index)
        _, z = self.forward(points[:, target_index], points[:, context],
                            np.ones(len(context), dtype=bool))
        values = z[:, class_index] - _log_sum_exp(z)
        dz = -softmax(z)
        dz[:, class_index] += 1.0
        dh = dz @ self.weights.T  # (P, 2E)
        grads = np.zeros_like(points)
        e = self.embedding_dim
        grads[:, target_index] += dh[:, :e]
        if context:
            grads[:, context] += dh[:, None, e:] / len(context)
        return values, grads


def _weighted_losses(z: np.ndarray, labels: np.ndarray, weight_vector: np.ndarray) -> np.ndarray:
    """Per-row class-weighted cross-entropy of logits ``z`` (B, 3)."""
    return weight_vector[labels] * (_log_sum_exp(z) - z[np.arange(len(z)), labels])


def loss_and_gradients(
    model: ContextModel,
    batch: PackedSentences,
    weight_vector: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean class-weighted cross-entropy over a labeled batch, plus analytic
    gradients. With all weights 1 this is exactly the unweighted mean
    cross-entropy.

    The embedding gradient is sparse: ``"embedding_rows"`` holds the sorted
    ids of the rows the batch touches (its targets and used context slots)
    and ``"embeddings"`` (len(rows), E) their gradients; every other row's
    gradient is 0. Each row sums its terms in the order the dense (V, E)
    gradient would, targets first, so both hold the same bits."""
    h, z = model.forward_ids(batch)
    rows = np.arange(len(batch))
    scale = 1.0 / len(batch)
    loss = float(_weighted_losses(z, batch.labels, weight_vector).sum()) * scale

    dz = softmax(z)
    dz[rows, batch.labels] -= 1.0
    dz *= (weight_vector[batch.labels] * scale)[:, None]
    dh = dz @ model.weights.T  # (B, 2E)
    e = model.embedding_dim
    rows_used, slots_used = np.nonzero(batch.mask)
    touched, slot = np.unique(
        np.concatenate([batch.targets, batch.context[rows_used, slots_used]]),
        return_inverse=True,
    )
    grad_embeddings = np.zeros((len(touched), e))
    np.add.at(grad_embeddings, slot[: len(batch)], dh[:, :e])
    share = dh[:, e:] / np.maximum(batch.mask.sum(axis=1), 1)[:, None]
    np.add.at(grad_embeddings, slot[len(batch) :], share[rows_used])
    return loss, {"embedding_rows": touched, "embeddings": grad_embeddings,
                  "weights": h.T @ dz, "bias": dz.sum(axis=0)}


def _mean_loss(
    model: ContextModel, packed: PackedSentences, weight_vector: np.ndarray, chunk: int
) -> float:
    """:func:`loss_and_gradients`' loss alone, ``chunk`` sentences per forward."""
    total = 0.0
    for part in packed.chunks(chunk):
        _, z = model.forward_ids(part)
        total += float(_weighted_losses(z, part.labels, weight_vector).sum())
    return total * (1.0 / len(packed))


def _require_labels(sentences: list[TargetSentence]) -> None:
    for s in sentences:
        if s.label is None:
            raise ValueError(f"unlabeled sentence: {s.text!r}")


#: A run has diverged, even while its loss is finite, once an epoch ends with
#: a train loss above this multiple of the untrained model's loss.
LOSS_EXPLOSION_FACTOR = 100


def train(
    config: TrainConfig,
    train_set: list[TargetSentence],
    val_set: list[TargetSentence],
    class_weights: dict[Polarity, float],
    epochs: int,
    learning_rate: float,
    seed: int,
) -> ContextModel:
    """Mini-batch gradient descent on the weighted cross-entropy.

    The vocabulary comes from the training set; per-epoch train/validation
    losses land in ``model.history``. Fully deterministic per seed. Raises
    :class:`ValueError` as soon as an epoch ends with a loss that is not
    finite, or with a train loss above :data:`LOSS_EXPLOSION_FACTOR` times
    the untrained model's, instead of returning a diverged model. Zero
    weights and bias give each class probability 1/3, so the untrained
    model's loss is ln 3 times the mean class weight of ``train_set``. A
    setting that cannot train a model raises :class:`~lexisent.settings.SettingError`.
    """
    minimums = (("embedding_dim", config.embedding_dim, 1), ("epochs", epochs, 1),
                ("window", config.window, 0), ("batch_size", config.batch_size, 1))
    for setting, value, least in minimums:
        if value < least:
            raise SettingError(setting, f"must be at least {least}, got {value}")
    if not (math.isfinite(learning_rate) and learning_rate >= 0):
        raise SettingError("learning_rate", f"must be a finite number >= 0, got {learning_rate}")
    if not train_set:
        raise ValueError("training set is empty")
    _require_labels(train_set)
    _require_labels(val_set)
    vocabulary = build_vocabulary(train_set)
    rng = rng_for(seed, 7)
    model = ContextModel(
        vocabulary=vocabulary,
        embeddings=rng.normal(0.0, 0.1, size=(len(vocabulary), config.embedding_dim)),
        weights=np.zeros((2 * config.embedding_dim, len(CLASS_ORDER))),
        bias=np.zeros(len(CLASS_ORDER)),
        window=config.window,
        seed=seed,
        hyperparameters={
            "embedding_dim": config.embedding_dim,
            "window": config.window,
            "batch_size": config.batch_size,
            "epochs": epochs,
            "learning_rate": learning_rate,
            "class_weights": {p.value: class_weights[p] for p in CLASS_ORDER},
        },
    )
    weight_vector = np.array([class_weights[p] for p in CLASS_ORDER], dtype=float)
    mean_weight = float_sum(class_weights[s.label] for s in train_set) / len(train_set)
    untrained = math.log(len(CLASS_ORDER)) * mean_weight
    packed_train = model.pack(train_set)
    packed_val = model.pack(val_set)

    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(packed_train))
        # A diverging run overflows here; the loss check below reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(order), config.batch_size):
                batch = packed_train.take(order[start : start + config.batch_size])
                _, grads = loss_and_gradients(model, batch, weight_vector)
                model.embeddings[grads["embedding_rows"]] -= learning_rate * grads["embeddings"]
                model.weights -= learning_rate * grads["weights"]
                model.bias -= learning_rate * grads["bias"]
            record = {
                "epoch": epoch,
                "train_loss": _mean_loss(model, packed_train, weight_vector, config.batch_size),
                "val_loss": None,
            }
            if val_set:
                record["val_loss"] = _mean_loss(model, packed_val, weight_vector, config.batch_size)
        for name in ("train_loss", "val_loss"):
            if record[name] is not None and not math.isfinite(record[name]):
                raise ValueError(
                    f"training diverged: epoch {epoch} {name.replace('_', ' ')} is "
                    f"{record[name]} at learning rate {learning_rate}"
                )
        if record["train_loss"] > LOSS_EXPLOSION_FACTOR * untrained:
            raise ValueError(
                f"training diverged: epoch {epoch} train loss {record['train_loss']} exceeds "
                f"{LOSS_EXPLOSION_FACTOR:g} times the untrained model's loss {untrained:.6g} "
                f"at learning rate {learning_rate}"
            )
        model.history.append(record)
    return model


def evaluate(
    model: ContextModel, test_set: list[TargetSentence]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """True and predicted class indices (:data:`CLASS_ORDER`) and the
    ``(n, 3)`` class probabilities of a labeled set."""
    if not test_set:
        raise ValueError("test set is empty")
    _require_labels(test_set)
    y_true = np.array([CLASS_ORDER.index(s.label) for s in test_set])
    y_pred, proba = model.predict_batch(test_set)
    return y_true, y_pred, proba


def accuracy(model: ContextModel, sentences: list[TargetSentence]) -> float:
    y_true, y_pred, _ = evaluate(model, sentences)
    return float(np.mean(y_pred == y_true))


# ---------------------------------------------------------------------------
# file formats


#: The corpus labels; an unlabeled corpus also accepts an empty one.
_LABELS: dict[str, Polarity] = {p.value: p for p in CLASS_ORDER}


def write_corpus(sentences: list[TargetSentence]) -> str:
    """TSV with one ``marked_sentence<TAB>label`` line per sentence. A text
    holding a tab, ``\\r`` or ``\\n``, which :func:`read_corpus` splits on, is
    refused."""
    lines = []
    for s in sentences:
        if "\t" in s.text or "\r" in s.text or "\n" in s.text:
            raise ValueError(f"marked sentence {s.text!r} holds a tab or a line break")
        label = s.label.value if s.label is not None else ""
        lines.append(f"{s.text}\t{label}")
    return "\n".join(lines) + ("\n" if lines else "")


def read_corpus(lines: Iterable[str], labeled: bool = False) -> list[TargetSentence]:
    """Parse a corpus TSV from its lines (line ends kept, as a file opened
    with ``newline=""`` gives them); with ``labeled`` an empty label is an
    error. The rows come from :func:`~lexisent.lexicon.table_rows`, with no
    header and cells split at the tab with no quoting. Errors raise
    :class:`~lexisent.lexicon.LexiconFormatError` naming the row and, for a
    byte-order mark, bad markup or a bad label, the column.
    """
    sentences = []
    rows = table_rows(lines, ("sentence", "label"), header=False, delimiter="\t",
                      quoting=csv.QUOTE_NONE)
    for row_no, (marked, label_text) in rows:  # cells are checked in file order
        if row_no == 1 and marked.startswith("\ufeff"):
            raise LexiconFormatError(
                "starts with a byte-order mark (U+FEFF); save the file as UTF-8 without one",
                row_no, "sentence")
        try:
            sentence = parse_marked(marked, _LABELS.get(label_text))
        except MarkupError as exc:
            raise LexiconFormatError(str(exc), row_no, "sentence") from None
        if label_text not in _LABELS and (label_text or labeled):
            raise LexiconFormatError(
                unknown_value("label", label_text, CLASS_ORDER), row_no, "label")
        sentences.append(sentence)
    return sentences


def history_csv(model: ContextModel) -> str:
    rows = [["epoch", "train_loss", "val_loss"]]
    for row in model.history:
        val = "" if row["val_loss"] is None else repr(float(row["val_loss"]))
        rows.append([str(row["epoch"]), repr(float(row["train_loss"])), val])
    return csv_text(rows)


MODEL_KIND = "contextual"


def save_context_model(model: ContextModel) -> str:
    return artifact.dumps(MODEL_KIND, model.seed, model.hyperparameters, {
        "vocabulary": list(model.vocabulary.id_to_token),
        "embeddings": model.embeddings.tolist(),
        "weights": model.weights.tolist(),
        "bias": model.bias.tolist(),
        "window": model.window,
    })


#: Fields of a saved contextual model, all required on load.
MODEL_FIELDS = ("vocabulary", "embeddings", "weights", "bias", "window", "seed",
                "hyperparameters")


def load_context_model(text: str) -> ContextModel:
    """A saved model, checked field by field after the envelope:
    ``vocabulary`` distinct strings that start with :data:`SPECIAL_TOKENS`,
    ``embeddings`` (V, E) for V vocabulary tokens, ``weights`` (2E, 3),
    ``bias`` (3,), ``window`` an int >= 0."""
    data = artifact.loads(text, "contextual", (MODEL_KIND,), MODEL_FIELDS)
    id_to_token = checked_names(data, "vocabulary")
    if id_to_token[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
        raise ValueError(f"field 'vocabulary' does not start with {SPECIAL_TOKENS}")
    window = data["window"]
    if not is_int(window) or window < 0:
        raise ValueError(f"field 'window' is {window!r}, expected an int >= 0")
    embeddings = checked_array(data, "embeddings", (len(id_to_token), "E"))
    return ContextModel(
        vocabulary=Vocabulary(id_to_token),
        embeddings=embeddings,
        weights=checked_array(data, "weights", (2 * embeddings.shape[1], len(CLASS_ORDER))),
        bias=checked_array(data, "bias", (len(CLASS_ORDER),)),
        window=window,
        seed=data["seed"],
        hyperparameters=data["hyperparameters"],
    )
