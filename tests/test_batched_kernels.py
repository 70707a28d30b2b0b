"""The batched contextual kernels against per-sentence reference loops.

The reference functions below are the loop implementations the batched code
replaced: one Python pass per sentence for packing and for the loss and its
gradients, one score-function call per path point for Integrated Gradients,
and the generic path integral over a score function's input gradients. The
batched code may only reassociate floating-point sums, so every comparison
holds to 1e-12. Packing and the sparse embedding update reassociate nothing
and are compared bit for bit: the first with the per-sentence loop, the
second with the dense (V, E) gradient that training subtracted before.
"""

from __future__ import annotations

import math
import tracemalloc
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexisent import attribution as attr
from lexisent import contextual as ctx
from lexisent.numeric import rng_for, softmax

from conftest import encode
from test_contextual import dense_gradients, toy_corpus

TOL = 1e-12

# ---------------------------------------------------------------------------
# per-sentence reference implementations


def ref_window_positions(length, target_index, window):
    lo = max(0, target_index - window)
    hi = min(length - 1, target_index + window)
    return [j for j in range(lo, hi + 1) if j != target_index]


def ref_logits(model, x, target_index):
    context = ref_window_positions(len(x), target_index, model.window)
    mean = x[context].mean(axis=0) if context else np.zeros(x.shape[1])
    return np.concatenate([x[target_index], mean]) @ model.weights + model.bias


def ref_softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def ref_log_sum_exp(z):
    m = float(z.max())
    return m + math.log(float(np.exp(z - m).sum()))


def ref_triples(model, sentences):
    return [
        (encode(model.vocabulary, s.tokens), s.target_index, ctx.CLASS_ORDER.index(s.label))
        for s in sentences
    ]


def ref_pack(model, sentences):
    """The per-sentence loop that :meth:`ContextModel.pack` replaced."""
    w = min(model.window, max((len(s.tokens) for s in sentences), default=1) - 1)
    targets = np.empty(len(sentences), dtype=np.intp)
    context = np.full((len(sentences), 2 * w), model.vocabulary.pad_id, dtype=np.intp)
    mask = np.zeros((len(sentences), 2 * w), dtype=bool)
    labels = np.full(len(sentences), -1, dtype=np.intp)
    for row, s in enumerate(sentences):
        ids, t = encode(model.vocabulary, s.tokens), s.target_index
        targets[row] = ids[t]
        left, right = ids[max(0, t - w) : t], ids[t + 1 : t + 1 + w]
        context[row, w - len(left) : w + len(right)] = np.concatenate([left, right])
        mask[row, w - len(left) : w + len(right)] = True
        if s.label is not None:
            labels[row] = ctx.CLASS_ORDER.index(s.label)
    return ctx.PackedSentences(targets, context, mask, labels)


def ref_dense_embedding_gradient(model, batch, weight_vector):
    """The dense (V, E) embedding gradient of a packed batch, built as
    :func:`ctx.loss_and_gradients` built it before it returned the touched
    rows alone."""
    _, z = model.forward_ids(batch)
    dz = softmax(z)
    dz[np.arange(len(batch)), batch.labels] -= 1.0
    dz *= (weight_vector[batch.labels] * (1.0 / len(batch)))[:, None]
    dh = dz @ model.weights.T
    e = model.embedding_dim
    grad = np.zeros_like(model.embeddings)
    np.add.at(grad, batch.targets, dh[:, :e])
    share = dh[:, e:] / np.maximum(batch.mask.sum(axis=1), 1)[:, None]
    rows_used, slots_used = np.nonzero(batch.mask)
    np.add.at(grad, batch.context[rows_used, slots_used], share[rows_used])
    return grad


def ref_loss_and_gradients(model, triples, weight_vector):
    grads = {
        "embeddings": np.zeros_like(model.embeddings),
        "weights": np.zeros_like(model.weights),
        "bias": np.zeros_like(model.bias),
    }
    e = model.embedding_dim
    total = 0.0
    scale = 1.0 / len(triples)
    for ids, target_index, label in triples:
        x = model.embeddings[ids]
        context = ref_window_positions(len(ids), target_index, model.window)
        mean = x[context].mean(axis=0) if context else np.zeros(e)
        h = np.concatenate([x[target_index], mean])
        z = h @ model.weights + model.bias
        w = weight_vector[label]
        total += w * (ref_log_sum_exp(z) - float(z[label]))
        dz = ref_softmax(z)
        dz[label] -= 1.0
        dz *= w * scale
        grads["weights"] += np.outer(h, dz)
        grads["bias"] += dz
        dh = model.weights @ dz
        grads["embeddings"][ids[target_index]] += dh[:e]
        if context:
            share = dh[e:] / len(context)
            for j in context:
                grads["embeddings"][ids[j]] += share
    return total * scale, grads


def ref_train(config, train_set, val_set, class_weights, epochs, learning_rate, seed):
    vocabulary = ctx.build_vocabulary(train_set)
    rng = rng_for(seed, 7)
    model = ctx.ContextModel(
        vocabulary=vocabulary,
        embeddings=rng.normal(0.0, 0.1, size=(len(vocabulary), config.embedding_dim)),
        weights=np.zeros((2 * config.embedding_dim, 3)),
        bias=np.zeros(3),
        window=config.window,
        seed=seed,
    )
    weight_vector = np.array([class_weights[p] for p in ctx.CLASS_ORDER])
    train_triples = ref_triples(model, train_set)
    val_triples = ref_triples(model, val_set)
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(train_triples))
        for start in range(0, len(order), config.batch_size):
            batch = [train_triples[i] for i in order[start : start + config.batch_size]]
            _, grads = ref_loss_and_gradients(model, batch, weight_vector)
            model.embeddings -= learning_rate * grads["embeddings"]
            model.weights -= learning_rate * grads["weights"]
            model.bias -= learning_rate * grads["bias"]
        train_loss, _ = ref_loss_and_gradients(model, train_triples, weight_vector)
        record = {"epoch": epoch, "train_loss": train_loss, "val_loss": None}
        if val_triples:
            record["val_loss"], _ = ref_loss_and_gradients(model, val_triples, weight_vector)
        model.history.append(record)
    return model


def ref_log_prob_and_input_grad(model, x, target_index, class_index):
    z = ref_logits(model, x, target_index)
    value = float(z[class_index] - ref_log_sum_exp(z))
    dz = -ref_softmax(z)
    dz[class_index] += 1.0
    dh = model.weights @ dz
    e = model.embedding_dim
    grad = np.zeros_like(x)
    grad[target_index] += dh[:e]
    context = ref_window_positions(len(x), target_index, model.window)
    if context:
        grad[context] += dh[e:] / len(context)
    return value, grad


#: score_fn(points (P, T, E)) -> (values (P,), gradients w.r.t. each point (P, T, E))
ScoreFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def path_integrated_gradients(
    score_fn: ScoreFn,
    x: np.ndarray,
    baseline: np.ndarray,
    steps: int,
) -> tuple[np.ndarray, float, float, float]:
    """Core integral of any score function: (attributions, F(x), F(baseline), delta).

    The trapezoid rule: gradients at k/steps for k = 0..steps, with the two
    endpoint weights halved. Every path point, ``x`` and ``baseline`` go to
    ``score_fn`` in one call.
    """
    assert steps >= 1
    diff = x - baseline
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


def ref_integrated_gradients(model, sentence, steps):
    """(per-token attributions, F(x), F(baseline), delta, predicted index),
    integrated from the zero embedding."""
    ids, target_index = encode(model.vocabulary, sentence.tokens), sentence.target_index
    x = model.embeddings[ids].copy()
    baseline = np.zeros_like(x)
    predicted = int(np.argmax(ref_softmax(ref_logits(model, x, target_index))))

    def score_fn(point):
        return ref_log_prob_and_input_grad(model, point, target_index, predicted)

    diff = x - baseline
    mean_grad = np.zeros_like(x)
    for k in range(0, steps + 1):
        weight = 0.5 if k in (0, steps) else 1.0
        mean_grad += weight * score_fn(baseline + (k / steps) * diff)[1]
    mean_grad /= steps
    attributions = diff * mean_grad
    f_x, f_baseline = score_fn(x)[0], score_fn(baseline)[0]
    delta = float(attributions.sum() - (f_x - f_baseline))
    return attributions.sum(axis=1), f_x, f_baseline, delta, predicted


# ---------------------------------------------------------------------------
# random models and sentences

WORDS = ("w0", "w1", "w2", "w3", "w4")


def random_model(seed, embedding_dim, window):
    rng = np.random.default_rng(seed)
    vocabulary = ctx.build_vocabulary([ctx.TargetSentence(" ".join(WORDS), WORDS, 0)])
    return ctx.ContextModel(
        vocabulary=vocabulary,
        embeddings=rng.normal(size=(len(vocabulary), embedding_dim)),
        weights=rng.normal(size=(2 * embedding_dim, 3)),
        bias=rng.normal(size=3),
        window=window,
        seed=seed,
    )


def sentence(tokens, target_index, label=ctx.CLASS_ORDER[0]):
    return ctx.TargetSentence(" ".join(tokens), tuple(tokens), target_index, label)


@st.composite
def sentences(draw):
    # "unseen" encodes to the unknown id; few words make repeated ids common.
    tokens = draw(st.lists(st.sampled_from(WORDS + ("unseen",)), min_size=1, max_size=12))
    last = len(tokens) - 1
    target = draw(st.one_of(st.just(0), st.just(last), st.integers(0, last)))
    return sentence(tokens, target, draw(st.sampled_from(ctx.CLASS_ORDER)))


@st.composite
def labeled_or_not(draw):
    s = draw(sentences())
    return s if draw(st.booleans()) else ctx.TargetSentence(s.text, s.tokens, s.target_index)


models = st.builds(
    random_model,
    seed=st.integers(0, 2**32 - 1),
    embedding_dim=st.integers(1, 4),
    window=st.integers(0, 4),
)
weight_vectors = st.lists(
    st.floats(0.0, 5.0, allow_nan=False), min_size=3, max_size=3
).map(np.array)

#: Sentences shorter than the window, a target at either edge, a single token
#: with no context, and one id repeated around the target.
EDGE_SENTENCES = [
    sentence(("w1",), 0),
    sentence(("w1", "w2"), 0, ctx.CLASS_ORDER[1]),
    sentence(("w1", "w2"), 1, ctx.CLASS_ORDER[2]),
    sentence(("w3", "w3", "w3", "w3", "w3", "w3", "w3"), 3),
    sentence(("w0", "unseen", "w2", "w0", "w4", "w1", "w2", "w3", "w0"), 8, ctx.CLASS_ORDER[1]),
    sentence(("w2", "w4", "unseen", "w2", "w1", "w2", "w0", "w3", "w4"), 0, ctx.CLASS_ORDER[2]),
]


def assert_same_packing(model, batch):
    packed, ref = model.pack(batch), ref_pack(model, batch)
    for name in ("targets", "context", "mask", "labels"):
        got, want = getattr(packed, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name


def assert_same_loss_and_gradients(model, batch, weight_vector):
    loss, grads = ctx.loss_and_gradients(model, model.pack(batch), weight_vector)
    grads = dense_gradients(model, grads)
    ref_loss, ref_grads = ref_loss_and_gradients(model, ref_triples(model, batch), weight_vector)
    assert loss == pytest.approx(ref_loss, rel=TOL, abs=TOL)
    for name in ("embeddings", "weights", "bias"):
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=TOL, atol=TOL)


# ---------------------------------------------------------------------------
# packing


class TestPack:
    def test_slots_run_in_sentence_order_and_mask_the_ends(self):
        model = random_model(0, 2, window=2)
        packed = model.pack([sentence(("w0", "w1", "w2", "w3"), 1),
                             sentence(("w4",), 0, None)])
        ids = dict(zip(WORDS, encode(model.vocabulary, WORDS).tolist()))
        pad = model.vocabulary.pad_id
        assert packed.targets.tolist() == [ids["w1"], ids["w4"]]
        assert packed.context.tolist() == [[pad, ids["w0"], ids["w2"], ids["w3"]],
                                           [pad, pad, pad, pad]]
        assert packed.mask.tolist() == [[False, True, True, True], [False] * 4]
        assert packed.labels.tolist() == [0, -1]

    def test_window_zero_has_no_context_slots(self):
        packed = random_model(0, 2, window=0).pack(EDGE_SENTENCES)
        assert packed.context.shape == packed.mask.shape == (len(EDGE_SENTENCES), 0)

    @given(st.integers(0, 6), st.lists(labeled_or_not(), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, window, batch):
        assert_same_packing(random_model(0, 2, window), batch)

    @pytest.mark.parametrize("window", [0, 1, 3, 50])
    def test_edge_sentences_and_the_empty_list_match_reference(self, window):
        for batch in ([], EDGE_SENTENCES[:1], EDGE_SENTENCES):
            assert_same_packing(random_model(1, 2, window), batch)

    def test_take_and_chunks_keep_rows(self):
        model = random_model(1, 3, window=3)
        packed = model.pack(EDGE_SENTENCES)
        picked = packed.take(np.array([4, 0, 4]))
        assert picked.targets.tolist() == packed.targets[[4, 0, 4]].tolist()
        assert picked.context.tolist() == packed.context[[4, 0, 4]].tolist()
        chunks = list(packed.chunks(4))
        assert [len(c) for c in chunks] == [4, 2]
        assert np.concatenate([c.labels for c in chunks]).tolist() == packed.labels.tolist()


# ---------------------------------------------------------------------------
# loss, gradients and prediction


class TestLossAndGradients:
    @pytest.mark.parametrize("window", [0, 1, 2, 5])
    def test_edge_sentences_match_reference(self, window):
        model = random_model(window, 3, window)
        assert_same_loss_and_gradients(model, EDGE_SENTENCES, np.array([0.5, 2.0, 1.0]))

    @given(models, st.lists(sentences(), min_size=1, max_size=8), weight_vectors)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, model, batch, weight_vector):
        assert_same_loss_and_gradients(model, batch, weight_vector)

    @given(models, st.lists(sentences(), min_size=1, max_size=8), weight_vectors,
           st.floats(0.0, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_an_update_moves_only_the_touched_rows(self, model, batch, weight_vector,
                                                   learning_rate):
        """Training's sparse step leaves every other row's bits alone and gives
        the touched rows the bits of the dense step ``E - lr * dense_grad``."""
        packed = model.pack(batch)
        _, grads = ctx.loss_and_gradients(model, packed, weight_vector)
        dense_grad = ref_dense_embedding_gradient(model, packed, weight_vector)
        assert dense_gradients(model, grads)["embeddings"].tobytes() == dense_grad.tobytes()
        dense = model.embeddings - learning_rate * dense_grad
        before = model.embeddings.copy()
        model.embeddings[grads["embedding_rows"]] -= learning_rate * grads["embeddings"]
        touched = np.zeros(len(before), dtype=bool)
        touched[grads["embedding_rows"]] = True
        assert model.embeddings[~touched].tobytes() == before[~touched].tobytes()
        assert model.embeddings.tobytes() == dense.tobytes()
        near = [t for s in batch for j, t in enumerate(s.tokens)
                if abs(j - s.target_index) <= model.window]
        assert grads["embedding_rows"].tolist() == sorted(set(encode(model.vocabulary, near)))

    @given(models, st.lists(sentences(), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_predict_batch_matches_reference(self, model, batch):
        predicted, proba = model.predict_batch(batch)
        for row, s in enumerate(batch):
            ids, target_index = encode(model.vocabulary, s.tokens), s.target_index
            expected = ref_softmax(ref_logits(model, model.embeddings[ids], target_index))
            np.testing.assert_allclose(proba[row], expected, rtol=TOL, atol=TOL)
        assert predicted.tolist() == np.argmax(proba, axis=1).tolist()

    def test_predict_batch_in_chunks_matches_one_pass(self, monkeypatch):
        model = random_model(5, 3, window=2)
        _, whole = model.predict_batch(EDGE_SENTENCES)
        monkeypatch.setattr(ctx, "PREDICT_CHUNK", 4)
        predicted, chunked = model.predict_batch(EDGE_SENTENCES)
        assert chunked.shape == (len(EDGE_SENTENCES), 3)
        np.testing.assert_allclose(chunked, whole, rtol=TOL, atol=TOL)
        assert predicted.tolist() == np.argmax(whole, axis=1).tolist()

    @pytest.mark.parametrize("window, batch_size", [(0, 5), (2, 3), (5, 8), (5, 64)])
    def test_training_matches_reference(self, window, batch_size):
        train, val, _ = ctx.split_70_20_10(toy_corpus(n_per_class=10, seed=window), seed=1)
        config = ctx.TrainConfig(embedding_dim=6, window=window, batch_size=batch_size)
        weights = ctx.compute_class_weights([s.label for s in train])
        model = ctx.train(config, train, val, weights, epochs=3, learning_rate=0.3, seed=4)
        ref = ref_train(config, train, val, weights, epochs=3, learning_rate=0.3, seed=4)
        for name in ("embeddings", "weights", "bias"):
            np.testing.assert_allclose(getattr(model, name), getattr(ref, name),
                                       rtol=1e-10, atol=TOL)
        for got, want in zip(model.history, ref.history, strict=True):
            assert got["epoch"] == want["epoch"]
            for key in ("train_loss", "val_loss"):
                assert got[key] == pytest.approx(want[key], rel=1e-10)


# ---------------------------------------------------------------------------
# Integrated Gradients


class TestIntegratedGradients:
    @given(models, sentences(), st.integers(1, 5), st.data())
    @settings(max_examples=100, deadline=None)
    def test_input_gradients_match_reference(self, model, s, n_points, data):
        ids, target_index = encode(model.vocabulary, s.tokens), s.target_index
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        points = model.embeddings[ids] + rng.normal(size=(n_points, len(ids), model.embedding_dim))
        class_index = data.draw(st.integers(0, 2))
        values, grads = model.log_prob_and_input_grad(points, target_index, class_index)
        assert values.shape == (n_points,) and grads.shape == points.shape
        for point, value, grad in zip(points, values, grads):
            ref_value, ref_grad = ref_log_prob_and_input_grad(model, point, target_index,
                                                              class_index)
            assert value == pytest.approx(ref_value, rel=TOL, abs=TOL)
            np.testing.assert_allclose(grad, ref_grad, rtol=TOL, atol=TOL)

    @given(model=models, batch=st.lists(sentences(), min_size=1, max_size=6),
           steps=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, model, batch, steps):
        maps = attr.corpus_integrated_gradients(model, batch, steps=steps)
        assert [amap.sentence for amap in maps] == batch
        for amap, s in zip(maps, batch):
            per_token, f_x, f_baseline, delta, predicted = ref_integrated_gradients(
                model, s, steps)
            assert amap.predicted_class is ctx.CLASS_ORDER[predicted]
            np.testing.assert_allclose([v for _, v in amap.per_token], per_token,
                                       rtol=TOL, atol=TOL)
            assert amap.score_input == pytest.approx(f_x, rel=TOL, abs=TOL)
            assert amap.score_baseline == pytest.approx(f_baseline, rel=TOL, abs=TOL)
            assert amap.convergence_delta == pytest.approx(delta, abs=TOL)

    def test_one_forward_pass_per_chunk(self, monkeypatch):
        model = random_model(3, 4, window=2)
        rows = []
        original = ctx.ContextModel.forward

        def counted(self, target, context, mask):
            rows.append(len(target))
            return original(self, target, context, mask)

        def no_gradients(*args):
            raise AssertionError("the kernel integrates in logit space")

        monkeypatch.setattr(ctx.ContextModel, "forward", counted)
        monkeypatch.setattr(ctx.ContextModel, "log_prob_and_input_grad", no_gradients)
        monkeypatch.setattr(ctx, "PREDICT_CHUNK", 4)
        for steps in (1, 50, 4096):
            rows.clear()
            attr.corpus_integrated_gradients(model, EDGE_SENTENCES, steps=steps)
            # the inputs of each chunk of 4 sentences; z' is the bias
            assert rows == [4, 2]

    def test_chunked_maps_equal_the_unchunked_maps(self, monkeypatch):
        model = random_model(7, 3, window=2)
        whole = attr.corpus_integrated_gradients(model, EDGE_SENTENCES, steps=20)
        monkeypatch.setattr(ctx, "PREDICT_CHUNK", 2)
        chunked = attr.corpus_integrated_gradients(model, EDGE_SENTENCES, steps=20)
        assert_same_maps(chunked, whole)

    def test_path_blocks_leave_the_maps_unchanged(self, monkeypatch):
        model = random_model(8, 3, window=3)
        whole = attr.corpus_integrated_gradients(model, EDGE_SENTENCES, steps=64)
        monkeypatch.setattr(attr, "PATH_ELEMENTS", 10)  # one path point per block
        assert_same_maps(attr.corpus_integrated_gradients(model, EDGE_SENTENCES, steps=64),
                         whole)

    def test_a_large_step_count_stays_in_bounded_memory(self):
        model = random_model(9, 4, window=2)
        steps = 2_000_000  # unblocked, one (steps, 3) logit array alone takes 48 MB
        tracemalloc.start()
        try:
            (amap,) = attr.corpus_integrated_gradients(model, EDGE_SENTENCES[4:5], steps=steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert abs(amap.convergence_delta) < 1e-9


def assert_same_maps(got, want):
    assert [m.sentence for m in got] == [m.sentence for m in want]
    for a, b in zip(got, want):
        assert (a.predicted_class, a.target_class) == (b.predicted_class, b.target_class)
        assert [token for token, _ in a.per_token] == [token for token, _ in b.per_token]
        np.testing.assert_allclose([v for _, v in a.per_token], [v for _, v in b.per_token],
                                   rtol=TOL, atol=TOL)
        for name in ("confidence", "total_attribution", "convergence_delta", "score_input",
                     "score_baseline"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=TOL, abs=TOL)
