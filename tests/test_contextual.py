from __future__ import annotations

import collections
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexisent import contextual as ctx
from lexisent import metrics as evalm
from lexisent.lexicon import (LanguageCode, Lexicon, LexiconEntry, LexiconFormatError, Polarity,
                              PosTag, context_dependent_forms, float_sum)
from lexisent.numeric import rng_for
from lexisent.settings import SettingError
from lexisent.translator import word_tokens

from conftest import encode

EN = LanguageCode.ENGLISH

NEG, NEU, POS = ctx.CLASS_ORDER

#: Class weights of 1 each: the plain, unweighted cross-entropy.
UNIFORM = {p: 1.0 for p in ctx.CLASS_ORDER}


def dense_gradients(model, grads):
    """``loss_and_gradients``' gradients with the embedding gradient as the
    dense (V, E) array, zero in the rows the batch does not touch."""
    embeddings = np.zeros_like(model.embeddings)
    embeddings[grads["embedding_rows"]] = grads["embeddings"]
    return {"embeddings": embeddings, "weights": grads["weights"], "bias": grads["bias"]}


class TestParseMarked:
    def test_example_sentence(self):
        s = ctx.parse_marked("[TARGET] earth [/TARGET] is the third planet from the sun.")
        assert s.target == "earth"
        assert s.target_index == 0
        assert s.tokens[1:] == ("is", "the", "third", "planet", "from", "the", "sun")
        assert len(s.tokens) - 1 == 7

    def test_target_in_the_middle(self):
        s = ctx.parse_marked("they will [TARGET] accuse [/TARGET] him tomorrow")
        assert s.target_index == 2
        assert s.tokens == ("they", "will", "accuse", "him", "tomorrow")

    def test_multiword_target_is_one_token(self):
        s = ctx.parse_marked("ba tla [TARGET] go wa [/TARGET] gape")
        assert s.target == "go wa"
        assert s.tokens == ("ba", "tla", "go wa", "gape")

    def test_no_markers(self):
        with pytest.raises(ctx.MarkupError):
            ctx.parse_marked("no markers here")

    def test_multiple_pairs(self):
        with pytest.raises(ctx.MarkupError):
            ctx.parse_marked("[TARGET] a [/TARGET] [TARGET] b [/TARGET]")

    def test_empty_span(self):
        with pytest.raises(ctx.MarkupError):
            ctx.parse_marked("[TARGET]   [/TARGET] something")

    def test_reversed_markers(self):
        with pytest.raises(ctx.MarkupError):
            ctx.parse_marked("[/TARGET] a [TARGET]")


class TestVocabulary:
    def test_specials_reserved_and_dense(self):
        sentences = [ctx.parse_marked("[TARGET] b [/TARGET] a c")]
        vocab = ctx.build_vocabulary(sentences)
        assert vocab.pad_id == 0 and vocab.unknown_id == 1
        assert vocab.id_to_token[:4] == ctx.SPECIAL_TOKENS
        assert sorted(encode(vocab, ("a", "b", "c"))) == [4, 5, 6]
        assert encode(vocab, ["never-seen"]).tolist() == [vocab.unknown_id]


class TestClassWeights:
    def test_inverse_frequency(self):
        labels = [POS] * 10 + [NEG] * 10 + [NEU] * 1
        weights = ctx.compute_class_weights(labels)
        assert weights[NEU] == pytest.approx(21 / (3 * 1))
        assert weights[POS] == pytest.approx(21 / (3 * 10))
        assert weights[NEG] == pytest.approx(21 / (3 * 10))

    def test_absent_class_weighs_zero(self):
        weights = ctx.compute_class_weights([POS, NEG])
        assert weights[NEU] == 0.0


def toy_corpus(n_per_class=12, seed=0):
    rng = np.random.default_rng(seed)
    pools = {
        POS: ["good", "happy", "great", "kind"],
        NEG: ["bad", "awful", "cruel", "grim"],
        NEU: ["table", "chair", "stone", "door"],
    }
    sentences = []
    for label, pool in pools.items():
        for _ in range(n_per_class):
            before = rng.choice(pool, size=rng.integers(1, 3))
            after = rng.choice(pool, size=rng.integers(1, 3))
            text = " ".join([*before, "[TARGET]", "thing", "[/TARGET]", *after])
            sentences.append(ctx.parse_marked(text, label=label))
    order = rng.permutation(len(sentences))
    return [sentences[i] for i in order]


class TestSplit:
    def test_1000_gives_700_200_100(self, ctx_lexicon):
        data = ctx.generate_dataset(ctx_lexicon, EN, 1000, seed=1)
        train, val, test = ctx.split_70_20_10(data, seed=3)
        assert (len(train), len(val), len(test)) == (700, 200, 100)

    def test_10_gives_7_2_1(self):
        data = toy_corpus(n_per_class=5)[:10]
        train, val, test = ctx.split_70_20_10(data, seed=0)
        assert (len(train), len(val), len(test)) == (7, 2, 1)

    def test_union_is_input_multiset(self):
        data = toy_corpus(n_per_class=9)
        train, val, test = ctx.split_70_20_10(data, seed=5)
        combined = collections.Counter(s.text for s in train + val + test)
        assert combined == collections.Counter(s.text for s in data)

    def test_deterministic(self):
        data = toy_corpus(n_per_class=10)
        a = ctx.split_70_20_10(data, seed=11)
        b = ctx.split_70_20_10(data, seed=11)
        assert [[s.text for s in part] for part in a] == [[s.text for s in part] for part in b]

    def test_stratified_by_label(self):
        data = toy_corpus(n_per_class=20)
        train, val, test = ctx.split_70_20_10(data, seed=2)
        for part, expected in ((train, 14), (val, 4), (test, 2)):
            counts = collections.Counter(s.label for s in part)
            for label in ctx.CLASS_ORDER:
                assert counts[label] == pytest.approx(expected, abs=1)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ctx.split_70_20_10(toy_corpus(n_per_class=3)[:9], seed=0)

    def test_unlabeled_sentence_rejected(self):
        data = toy_corpus(n_per_class=4)
        data[5] = ctx.parse_marked(data[5].text)
        with pytest.raises(ValueError, match="unlabeled sentence"):
            ctx.split_70_20_10(data, seed=0)


#: Lexicon forms mixing words with separators, spaces, letters that case
#: folding changes and combining marks that NFC composes.
FORMS = st.text(st.sampled_from(["a", "B", "e", "\u0301", "\u0308", "\u00df", "\u0130", "\u03a3",
                                 "\u1100", "\u1161", " ", "\u00a0", ".", ",", "'", "-"]),
                min_size=1, max_size=8)


def lexicon_of(scored_forms: list[tuple[str, float]]) -> Lexicon:
    """A lexicon of one English form and score per entry."""
    return Lexicon(LexiconEntry(forms={EN: form}, pos=PosTag.MOT, shared_score=score,
                                per_language_scores={EN: score})
                   for form, score in scored_forms)


def ref_generated(lexicon, language, n, seed, label_weights):
    """(text, label) of each sentence :func:`ctx.generate_dataset` makes, as
    it made them while it drew each label with ``Generator.choice``."""
    targets = context_dependent_forms(lexicon, language)
    effective = lexicon.effective[language]
    pools = {p: [] for p in ctx.CLASS_ORDER}
    for form, ids in lexicon.index[language].items():
        polarities = {Polarity.from_score(effective[i]) for i in ids}
        if len(polarities) == 1:
            pools[next(iter(polarities))].append(form)
    for pool in pools.values():
        pool.sort()
    total = float_sum(label_weights)
    probabilities = [w / total for w in label_weights]
    rng = rng_for(seed, 1000)
    out = []
    for _ in range(n):
        label = ctx.CLASS_ORDER[int(rng.choice(len(ctx.CLASS_ORDER), p=probabilities))]
        pool = pools[label]
        target = targets[int(rng.integers(len(targets)))]
        before = [pool[int(rng.integers(len(pool)))] for _ in range(int(rng.integers(1, 4)))]
        after = [pool[int(rng.integers(len(pool)))] for _ in range(int(rng.integers(1, 4)))]
        words = before + [ctx.TARGET_OPEN, target, ctx.TARGET_CLOSE] + after
        out.append((" ".join(words) + ".", label))
    return out


label_weights = st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-300, 1e300))] * 3).filter(
    lambda weights: 0 < float_sum(weights) < math.inf)


class TestGenerate:
    @given(st.integers(0, 2**64 - 1), label_weights)
    @settings(max_examples=100, deadline=None)
    def test_labels_are_drawn_as_generator_choice_draws_them(self, ctx_lexicon, seed, weights):
        corpus = ctx.generate_dataset(ctx_lexicon, EN, 40, seed=seed, label_weights=weights)
        assert [(s.text, s.label) for s in corpus] == ref_generated(ctx_lexicon, EN, 40, seed,
                                                                    weights)

    @pytest.mark.parametrize("weights", [(0.4, 0.2, 0.4), (1, 0, 0), (0, 1, 2), (1e-300, 1, 1)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_labels_match_generator_choice_at_fixed_weights(self, ctx_lexicon, seed, weights):
        corpus = ctx.generate_dataset(ctx_lexicon, EN, 200, seed=seed, label_weights=weights)
        assert [(s.text, s.label) for s in corpus] == ref_generated(ctx_lexicon, EN, 200, seed,
                                                                    weights)

    def test_counts_and_parseability(self, ctx_lexicon):
        data = ctx.generate_dataset(ctx_lexicon, EN, 200, seed=1)
        assert len(data) == 200
        for s in data:
            reparsed = ctx.parse_marked(s.text, label=s.label)
            assert reparsed.tokens == s.tokens
            assert s.target in ("accuse", "earth")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_sentence_is_its_parsed_text(self, ctx_lexicon, seed):
        for s in ctx.generate_dataset(ctx_lexicon, EN, 300, seed=seed):
            assert s == ctx.parse_marked(s.text, label=s.label)

    @given(forms=st.lists(FORMS, min_size=4, max_size=12, unique=True),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_sentence_is_its_parsed_text_on_any_lexicon(self, forms, seed):
        """Forms with separators, spaces, case folding and combining marks
        yield the tokens the parsed marked text has; a context form may have
        no words at all."""
        target = next((form for form in forms if word_tokens(form)), None)
        if target is None:
            return
        pools = [form for form in forms if form != target]
        lexicon = lexicon_of([(target, 3.0), (target, -3.0)]
                             + [(form, (3.0, 0.0, -3.0)[i % 3]) for i, form in enumerate(pools)])
        for s in ctx.generate_dataset(lexicon, EN, 40, seed=seed, label_weights=(1, 1, 1)):
            assert s == ctx.parse_marked(s.text, label=s.label)

    @pytest.mark.parametrize("target, context, message", [
        ("...", "good", "empty target span"),
        ("thing", "good [target]", "expected exactly one"),
        ("thing [/TARGET]", "good", "expected exactly one"),
    ], ids=["wordless-target", "marker-in-context", "marker-in-target"])
    def test_a_form_the_corpus_reader_refuses_is_refused(self, target, context, message):
        lexicon = lexicon_of([(target, 3.0), (target, -3.0), (context.upper(), 3.0)])
        with pytest.raises(ctx.MarkupError, match=message):
            ctx.generate_dataset(lexicon, EN, 5, seed=0, label_weights=(0, 0, 1))

    def test_empty(self, ctx_lexicon):
        assert ctx.generate_dataset(ctx_lexicon, EN, 0, seed=1) == []

    def test_deterministic(self, ctx_lexicon):
        a = ctx.generate_dataset(ctx_lexicon, EN, 50, seed=9)
        b = ctx.generate_dataset(ctx_lexicon, EN, 50, seed=9)
        assert [s.text for s in a] == [s.text for s in b]

    def test_label_distribution_configurable(self, ctx_lexicon):
        data = ctx.generate_dataset(
            ctx_lexicon, EN, 300, seed=4, label_weights=(1.0, 0.0, 1.0)
        )
        labels = {s.label for s in data}
        assert NEU not in labels and {NEG, POS} <= labels

    def test_no_context_dependent_forms(self, paper_lexicon):
        with pytest.raises(ValueError, match="context-dependent"):
            ctx.generate_dataset(paper_lexicon, LanguageCode.CILUBA, 10, seed=0)

    @pytest.mark.parametrize("weights", [
        (0.0, 0.0, 0.0), (-1.0, 1.0, 1.0), (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0),
    ])
    def test_label_weights_that_cannot_be_sampled_are_refused(self, ctx_lexicon, weights):
        with pytest.raises(SettingError, match="^label_weights must be finite, "
                                               "non-negative and not all 0, got ") as caught:
            ctx.generate_dataset(ctx_lexicon, EN, 10, seed=0, label_weights=weights)
        assert caught.value.setting == "label_weights"

    @pytest.mark.parametrize("weights", [(1e308, 1e308, 0.0), (1e308, 1e308, 1.0)])
    def test_label_weights_whose_total_overflows_are_refused(self, ctx_lexicon, weights):
        with pytest.raises(SettingError, match=r"^label_weights have a total that "
                                               r"overflows, got \(1e\+308, ") as caught:
            ctx.generate_dataset(ctx_lexicon, EN, 10, seed=0, label_weights=weights)
        assert caught.value.setting == "label_weights"

    def test_label_weights_with_the_largest_finite_total_are_sampled(self, ctx_lexicon):
        """Weights are not rescaled: a total just below overflow samples as
        the same weights scaled down do."""
        big = ctx.generate_dataset(ctx_lexicon, EN, 60, seed=3,
                                   label_weights=(4e307, 1e307, 1.2e308))
        small = ctx.generate_dataset(ctx_lexicon, EN, 60, seed=3, label_weights=(4, 1, 12))
        assert [s.label for s in big] == [s.label for s in small]


def small_model(seed=0, corpus=None, epochs=3, learning_rate=0.2, weights=None,
                config=None):
    corpus = corpus if corpus is not None else toy_corpus()
    train, val, _ = ctx.split_70_20_10(corpus, seed=seed)
    weights = weights or UNIFORM
    config = config or ctx.TrainConfig(embedding_dim=8, window=5, batch_size=8)
    model = ctx.train(config, train, val, weights, epochs=epochs,
                      learning_rate=learning_rate, seed=seed)
    return model, train, val


def logits(model, sentence):
    """The logits (3,) of one sentence, from the model's batch forward pass."""
    return model.forward_ids(model.pack([sentence]))[1][0]


class TestTrainSettings:
    @pytest.mark.parametrize("setting, value, problem", [
        ("embedding_dim", 0, "must be at least 1, got 0"),
        ("window", -1, "must be at least 0, got -1"),
        ("batch_size", 0, "must be at least 1, got 0"),
        ("epochs", 0, "must be at least 1, got 0"),
        ("learning_rate", -1.0, "must be a finite number >= 0, got -1.0"),
        ("learning_rate", math.nan, "must be a finite number >= 0, got nan"),
        ("learning_rate", math.inf, "must be a finite number >= 0, got inf"),
    ])
    def test_refused_settings_name_the_parameter(self, setting, value, problem):
        config = dict(embedding_dim=8, window=5, batch_size=8)
        kwargs = dict(epochs=1, learning_rate=0.1)
        (config if setting in config else kwargs)[setting] = value
        train, val, _ = ctx.split_70_20_10(toy_corpus(), seed=0)
        with pytest.raises(SettingError, match=f"^{setting} {problem}$") as caught:
            ctx.train(ctx.TrainConfig(**config), train, val, UNIFORM,
                      seed=0, **kwargs)
        assert caught.value.setting == setting

    def test_window_zero_trains_on_the_target_alone(self):
        model, _, _ = small_model(epochs=1, config=ctx.TrainConfig(8, window=0, batch_size=8))
        assert model.window == 0 and len(model.history) == 1


class TestGradients:
    def test_analytic_gradients_match_finite_differences(self):
        model, train, _ = small_model(epochs=1, learning_rate=0.1)
        weight_vector = np.array([0.5, 2.0, 1.0])
        batch = model.pack(train[:6])

        def loss():
            value, _ = ctx.loss_and_gradients(model, batch, weight_vector)
            return value

        grads = dense_gradients(model, ctx.loss_and_gradients(model, batch, weight_vector)[1])
        h = 1e-6
        for name, array in (
            ("embeddings", model.embeddings),
            ("weights", model.weights),
            ("bias", model.bias),
        ):
            grad = grads[name]
            flat = array.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + h
                up = loss()
                flat[i] = original - h
                down = loss()
                flat[i] = original
                numeric = (up - down) / (2 * h)
                analytic = grad.reshape(-1)[i]
                scale = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / scale < 1e-4, (name, i)

    def test_input_gradient_matches_finite_differences(self):
        model, train, _ = small_model(epochs=2)
        ids, target_index = encode(model.vocabulary, train[0].tokens), train[0].target_index
        x = model.embeddings[ids].copy()
        _, (grad,) = model.log_prob_and_input_grad(x[None], target_index, 2)
        h = 1e-6
        rng = np.random.default_rng(0)
        for _ in range(25):
            i = rng.integers(x.shape[0])
            j = rng.integers(x.shape[1])
            up, down = x.copy(), x.copy()
            up[i, j] += h
            down[i, j] -= h
            values, _ = model.log_prob_and_input_grad(np.stack([up, down]), target_index, 2)
            numeric = (values[0] - values[1]) / (2 * h)
            scale = max(abs(numeric), abs(grad[i, j]), 1e-8)
            assert abs(numeric - grad[i, j]) / scale < 1e-4


class TestTraining:
    def test_zero_learning_rate_leaves_parameters_unchanged(self):
        corpus = toy_corpus()
        model_a, _, _ = small_model(corpus=corpus, epochs=3, learning_rate=0.0)
        model_b, _, _ = small_model(corpus=corpus, epochs=1, learning_rate=0.0)
        assert np.array_equal(model_a.embeddings, model_b.embeddings)
        assert np.array_equal(model_a.weights, np.zeros_like(model_a.weights))
        assert np.array_equal(model_a.bias, np.zeros(3))

    def test_deterministic_per_seed(self):
        corpus = toy_corpus()
        a, _, _ = small_model(corpus=corpus, seed=6)
        b, _, _ = small_model(corpus=corpus, seed=6)
        assert np.array_equal(a.embeddings, b.embeddings)
        assert np.array_equal(a.weights, b.weights)
        assert a.history == b.history

    def test_uniform_weights_equal_plain_cross_entropy(self):
        model, train, _ = small_model(epochs=1)
        batch = model.pack(train)
        weighted, _ = ctx.loss_and_gradients(model, batch, np.ones(3))
        manual = 0.0
        for sentence, p in zip(train, model.predict_batch(train)[1]):
            manual -= np.log(p[ctx.CLASS_ORDER.index(sentence.label)])
        assert weighted == pytest.approx(manual / len(train), rel=1e-12)

    def test_duplicating_batch_leaves_gradient_unchanged(self):
        model, train, _ = small_model(epochs=1)
        weight_vector = np.array([1.0, 3.0, 1.0])
        loss_once, grads_once = ctx.loss_and_gradients(model, model.pack(train[:8]), weight_vector)
        loss_twice, grads_twice = ctx.loss_and_gradients(
            model, model.pack(train[:8] * 2), weight_vector
        )
        assert loss_twice == pytest.approx(loss_once, rel=1e-12)
        grads_once = dense_gradients(model, grads_once)
        grads_twice = dense_gradients(model, grads_twice)
        for key in grads_once:
            assert np.allclose(grads_once[key], grads_twice[key], atol=1e-12)

    def test_learns_separable_corpus(self, ctx_lexicon):
        corpus = ctx.generate_dataset(ctx_lexicon, EN, 300, seed=2)
        train, val, _ = ctx.split_70_20_10(corpus, seed=2)
        weights = ctx.compute_class_weights([s.label for s in train])
        model = ctx.train(
            ctx.TrainConfig(embedding_dim=16, window=5, batch_size=32),
            train, val, weights, epochs=25, learning_rate=0.5, seed=2,
        )
        assert ctx.accuracy(model, val) >= 0.9

    def test_history_records_losses(self):
        model, _, _ = small_model(epochs=4)
        assert [h["epoch"] for h in model.history] == [1, 2, 3, 4]
        assert all(h["val_loss"] is not None for h in model.history)
        csv_text = ctx.history_csv(model)
        assert csv_text.splitlines()[0] == "epoch,train_loss,val_loss"
        assert len(csv_text.splitlines()) == 5

    def test_diverging_run_raises_at_the_first_exploded_epoch(self, ctx_lexicon):
        corpus = ctx.generate_dataset(ctx_lexicon, EN, 300, seed=2)
        train, val, _ = ctx.split_70_20_10(corpus, seed=2)
        # Uniform weights: the untrained loss is ln 3. Epoch 1 ends at a finite
        # loss far above 100 times that, so training stops there.
        with pytest.raises(ValueError, match=r"diverged: epoch 1 train loss \d\.\d+e\+\d+ "
                                             r"exceeds 100 times the untrained model's loss "
                                             r"1\.09861 at learning rate 1000000\.0$"):
            ctx.train(ctx.TrainConfig(), train, val, UNIFORM,
                      epochs=6, learning_rate=1e6, seed=0)

    @pytest.mark.parametrize("name", ["train", "val"])
    def test_non_finite_loss_is_reported(self, monkeypatch, name):
        corpus = toy_corpus()
        train, val, _ = ctx.split_70_20_10(corpus, seed=0)
        assert len(train) != len(val)
        poisoned = len(train) if name == "train" else len(val)
        mean_loss = ctx._mean_loss
        monkeypatch.setattr(ctx, "_mean_loss", lambda model, packed, *rest: (
            float("inf") if len(packed) == poisoned else mean_loss(model, packed, *rest)))
        with pytest.raises(ValueError, match=f"epoch 1 {name} loss is inf"):
            ctx.train(ctx.TrainConfig(embedding_dim=4), train, val,
                      UNIFORM, epochs=2, learning_rate=0.1, seed=0)

    def test_unlabeled_training_sentence_rejected(self):
        train = toy_corpus(n_per_class=3) + [ctx.parse_marked("[TARGET] x [/TARGET] y")]
        with pytest.raises(ValueError, match="unlabeled sentence"):
            ctx.train(ctx.TrainConfig(), train, [], UNIFORM,
                      epochs=1, learning_rate=0.1, seed=0)

    def test_empty_train_set_rejected(self):
        with pytest.raises(ValueError):
            ctx.train(ctx.TrainConfig(), [], [], UNIFORM,
                      epochs=1, learning_rate=0.1, seed=0)


class TestWindowLocality:
    def test_tokens_outside_window_do_not_affect_logits(self):
        corpus = toy_corpus()
        model, _, _ = small_model(
            corpus=corpus, config=ctx.TrainConfig(embedding_dim=8, window=2, batch_size=8)
        )
        base = ctx.parse_marked("a b [TARGET] thing [/TARGET] c d e far1 far2")
        edited = ctx.parse_marked("a b [TARGET] thing [/TARGET] c d e far1 CHANGED")
        # positions far1/far2 sit 4-5 tokens right of the target, beyond window 2
        assert np.array_equal(logits(model, base), logits(model, edited))

    def test_tokens_inside_window_do_affect_logits(self):
        model, _, _ = small_model(
            config=ctx.TrainConfig(embedding_dim=8, window=2, batch_size=8)
        )
        base = ctx.parse_marked("good good [TARGET] thing [/TARGET] good")
        edited = ctx.parse_marked("good bad [TARGET] thing [/TARGET] good")
        assert not np.array_equal(logits(model, base), logits(model, edited))


class TestEvaluate:
    def test_always_right_on_single_class_test(self):
        corpus = toy_corpus(n_per_class=12)
        model, _, _ = small_model(corpus=corpus, epochs=10, learning_rate=0.5)
        positives = [s for s in corpus if s.label is POS]
        y_true, y_pred, proba = ctx.evaluate(model, positives)
        assert len(y_true) == len(y_pred) == len(positives)
        assert list(y_true) == [ctx.CLASS_ORDER.index(POS)] * len(positives)
        assert ctx.accuracy(model, positives) == float(np.mean(y_pred == y_true))

    def test_report_shape_and_roc_curves(self):
        corpus = toy_corpus(n_per_class=15)
        model, train, val = small_model(corpus=corpus, epochs=12, learning_rate=0.5)
        y_true, y_pred, proba = ctx.evaluate(model, val)
        assert proba.shape == (len(val), len(ctx.CLASS_ORDER))
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.array_equal(y_pred, np.argmax(proba, axis=1))
        assert list(y_true) == [ctx.CLASS_ORDER.index(s.label) for s in val]
        names = [p.value for p in ctx.CLASS_ORDER]
        cm = evalm.confusion([names[t] for t in y_true], [names[p] for p in y_pred], names)
        assert evalm.metrics(cm).classes == ("negative", "neutral", "positive")
        assert cm.total == len(val)
        assert len(evalm.roc_one_vs_rest(list(y_true), proba, names)) == 3

    def test_unlabeled_sentence_rejected(self):
        model, _, _ = small_model()
        with pytest.raises(ValueError, match="unlabeled"):
            ctx.evaluate(model, [ctx.parse_marked("[TARGET] x [/TARGET] y")])

    def test_empty_set_rejected(self):
        model, _, _ = small_model()
        with pytest.raises(ValueError, match="empty"):
            ctx.evaluate(model, [])


class TestModelSerialization:
    def test_round_trip_preserves_predictions(self):
        model, train, _ = small_model(epochs=5)
        clone = ctx.load_context_model(ctx.save_context_model(model))
        for sentence in train[:10]:
            assert np.array_equal(logits(model, sentence), logits(clone, sentence))
        assert ctx.save_context_model(clone) == ctx.save_context_model(model)

    def test_compact_and_indented_files_load_to_identical_parameters(self):
        model, train, _ = small_model(epochs=2)
        compact = ctx.save_context_model(model)
        data = json.loads(compact)
        assert compact == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
        indented = json.dumps(data, sort_keys=True, indent=2) + "\n"
        from_compact = ctx.load_context_model(compact)
        from_indented = ctx.load_context_model(indented)
        for name in ("embeddings", "weights", "bias"):
            assert np.array_equal(getattr(from_indented, name), getattr(model, name))
            assert np.array_equal(getattr(from_compact, name), getattr(model, name))
        assert from_indented.vocabulary == from_compact.vocabulary == model.vocabulary
        assert ctx.save_context_model(from_indented) == compact

    @pytest.mark.parametrize("bad_line, message, column", [
        ("[TARGET] x [/TARGET] y\tangry",
         "unknown label 'angry' (expected one of: negative, neutral, positive)", "label"),
        ("[TARGET] x y\tpositive", "expected exactly one [TARGET] ... [/TARGET] pair", "sentence"),
        ("[TARGET] x y\tangry", "expected exactly one [TARGET] ... [/TARGET] pair", "sentence"),
        ("[TARGET] x [/TARGET] y", "expected 2 columns, found 1", None),
        ("[TARGET] x [/TARGET] y\tneutral\tpositive", "expected 2 columns, found 3", None),
        ("", "expected 2 columns, found 0", None),
        ("  ", "expected 2 columns, found 1", None),
    ], ids=["bad-label", "bad-markup", "bad-markup-and-label", "one-cell", "three-cells",
            "blank", "whitespace"])
    def test_corpus_row_errors_name_the_row_and_column(self, bad_line, message, column):
        text = f"[TARGET] a [/TARGET] b\tneutral\n{bad_line}\n"
        with pytest.raises(LexiconFormatError) as caught:
            ctx.read_corpus(io.StringIO(text, newline=""))
        assert (caught.value.row, caught.value.column) == (2, column)
        where = f"row 2, column {column!r}" if column else "row 2"
        assert str(caught.value).startswith(f"[{where}] {message}")

    def test_a_corpus_that_starts_with_a_bom_is_refused(self):
        with pytest.raises(LexiconFormatError) as caught:
            ctx.read_corpus(io.StringIO("\ufeff[TARGET] good [/TARGET] day\tpositive\n"))
        assert str(caught.value) == (
            "[row 1, column 'sentence'] starts with a byte-order mark (U+FEFF); "
            "save the file as UTF-8 without one")

    def test_a_sentence_over_the_csv_field_limit_is_refused(self):
        text = "[TARGET] a [/TARGET] b\tneutral\n[TARGET] a [/TARGET] " + "b" * 140_000 + "\t\n"
        with pytest.raises(LexiconFormatError,
                           match=r"^\[row 2\] malformed CSV: field larger than field limit"):
            ctx.read_corpus(io.StringIO(text, newline=""))

    def test_labeled_corpus_needs_every_label(self):
        text = "[TARGET] a [/TARGET] b\tneutral\n[TARGET] e [/TARGET] f\tpositive\n" \
               "[TARGET] c [/TARGET] d\t\n"
        assert ctx.read_corpus(io.StringIO(text, newline=""))[2].label is None
        with pytest.raises(LexiconFormatError, match=(
                r"^\[row 3, column 'label'\] unknown label '' \(expected one of: negative, "
                r"neutral, positive\)$")):
            ctx.read_corpus(io.StringIO(text, newline=""), labeled=True)

    @pytest.mark.parametrize("separator", ["\t", "\n", "\r"])
    def test_corpus_refuses_a_text_that_would_not_read_back(self, separator):
        text = f"a{separator}b [TARGET] c [/TARGET]"
        sentence = ctx.parse_marked(text, Polarity.NEUTRAL)
        with pytest.raises(ValueError) as caught:
            ctx.write_corpus([sentence])
        assert str(caught.value) == f"marked sentence {text!r} holds a tab or a line break"

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_a_corpus_line_ends_only_at_cr_or_lf(self, tmp_path, separator):
        # A character that str.splitlines breaks at stays inside its sentence.
        path = tmp_path / "corpus.tsv"
        sentences = [ctx.parse_marked(f"[TARGET] a{separator}b [/TARGET] c", NEU),
                     ctx.parse_marked(f"[TARGET] d [/TARGET] e{separator}", POS)]
        path.write_text(ctx.write_corpus(sentences), encoding="utf-8", newline="")
        with open(path, encoding="utf-8", newline="") as lines:
            read = ctx.read_corpus(lines)
        assert read == sentences

    def test_corpus_round_trip(self, ctx_lexicon):
        data = ctx.generate_dataset(ctx_lexicon, EN, 25, seed=3)
        text = ctx.write_corpus(data)
        again = ctx.read_corpus(io.StringIO(text, newline=""))
        assert [s.text for s in again] == [s.text for s in data]
        assert [s.label for s in again] == [s.label for s in data]

    @given(st.lists(st.tuples(
        st.text(st.sampled_from(['"', "\x0b", "\x85", "\u2028", "\u2029", "é", "ß", "ŝ", "a",
                                 "x", " ", ","]), max_size=6),
        st.text(st.sampled_from(['"', "\u2028", "ñ", "o", " "]), min_size=1, max_size=4)
        .filter(lambda span: word_tokens(span)),
        st.sampled_from([None, *ctx.CLASS_ORDER]),
    ), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_written_corpus_reads_back(self, rows):
        sentences = [ctx.parse_marked(f"{before}[TARGET]{span}[/TARGET]{before}", label)
                     for before, span, label in rows]
        text = ctx.write_corpus(sentences)
        assert ctx.read_corpus(io.StringIO(text, newline="")) == sentences
        if all(s.label is not None for s in sentences):
            assert ctx.read_corpus(io.StringIO(text, newline=""), labeled=True) == sentences


class TestCheckedLoading:
    @pytest.fixture(scope="class")
    def saved(self):
        model, _, _ = small_model(epochs=1)
        return json.loads(ctx.save_context_model(model))

    def load(self, saved, **changes):
        data = copy.deepcopy(saved)
        for name, value in changes.items():
            if value is None:
                del data[name]
            else:
                data[name] = value
        return ctx.load_context_model(json.dumps(data))

    @pytest.mark.parametrize("name", ctx.MODEL_FIELDS)
    def test_missing_field_is_named(self, saved, name):
        with pytest.raises(ValueError, match=f"missing field '{name}' in the model"):
            self.load(saved, **{name: None})

    @pytest.mark.parametrize("name, cut, message", [
        ("embeddings", lambda a: a[:-1], r"'embeddings' has shape \(\d+, 8\), expected \(\d+, E\)"),
        ("embeddings", lambda a: [row[:-1] for row in a], r"'weights' has shape \(16, 3\), "
                                                            r"expected \(14, 3\)"),
        ("weights", lambda a: a[:-1], r"'weights' has shape \(15, 3\), expected \(16, 3\)"),
        ("weights", lambda a: [row[:2] for row in a], r"'weights' has shape \(16, 2\)"),
        ("bias", lambda a: a + [0.0], r"'bias' has shape \(4,\), expected \(3\)"),
        ("bias", lambda a: [a], r"'bias' has shape \(1, 3\)"),
        ("weights", lambda a: a[:-1] + [[1.0]], "'weights' is not an array of numbers"),
        ("bias", lambda a: ["x", 1.0, 2.0], "'bias' is not an array of numbers"),
    ])
    def test_wrong_shape_is_named(self, saved, name, cut, message):
        with pytest.raises(ValueError, match=message):
            self.load(saved, **{name: cut(saved[name])})

    @pytest.mark.parametrize("window", [-1, 1.5, "5", True])
    def test_window_must_be_a_non_negative_int(self, saved, window):
        with pytest.raises(ValueError, match="'window' is"):
            self.load(saved, window=window)

    def test_non_finite_parameters_refused(self, saved):
        bias = [float("nan")] + saved["bias"][1:]
        with pytest.raises(ValueError, match="'bias' holds values that are not finite"):
            self.load(saved, bias=bias)

    def test_vocabulary_must_start_with_the_special_tokens(self, saved):
        with pytest.raises(ValueError, match="'vocabulary' does not start with"):
            self.load(saved, vocabulary=saved["vocabulary"][1:] + ["extra"])
