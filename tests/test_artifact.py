"""The model-file envelope shared by the classical and the contextual models."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from lexisent import artifact, ml
from lexisent import contextual as ctx
from lexisent.ml.dataset import Dataset
from lexisent.ml.serialize import MODEL_FIELDS as CLASSICAL_FIELDS
from lexisent.settings import SettingError

KINDS = ml.MODEL_KINDS + (ctx.MODEL_KIND,)
FAMILY_FIELDS = {kind: CLASSICAL_FIELDS for kind in ml.MODEL_KINDS}
FAMILY_FIELDS[ctx.MODEL_KIND] = ctx.MODEL_FIELDS
LOADERS = {kind: ml.load_model for kind in ml.MODEL_KINDS}
LOADERS[ctx.MODEL_KIND] = ctx.load_context_model
SAVERS = {kind: ml.save_model for kind in ml.MODEL_KINDS}
SAVERS[ctx.MODEL_KIND] = ctx.save_context_model

TRAINERS = {
    "decision_tree": lambda data, seed: ml.train_decision_tree(data, max_depth=4, seed=seed),
    "random_forest": lambda data, seed: ml.train_random_forest(
        data, n_trees=3, max_depth=3, seed=seed),
    "gaussian_nb": lambda data, seed: ml.train_gaussian_nb(data),
    "linear_svm": lambda data, seed: ml.train_linear_svm(data, epochs=2, seed=seed),
}

finite = st.floats(-1e3, 1e3)


def matrix(draw, rows: int, cols: int) -> np.ndarray:
    return np.array(draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols)),
                    dtype=float).reshape(rows, cols)


@st.composite
def classical_models(draw, kind):
    """A model of ``kind`` trained on random rows, and probe rows. Draws the
    trainer refuses by design (features whose variance floor is subnormal, for
    Gaussian NB) are rejected."""
    n, d, k = draw(st.integers(2, 16)), draw(st.integers(1, 4)), draw(st.integers(2, 4))
    X = matrix(draw, n, d)
    y = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    names = tuple(draw(st.lists(st.text(max_size=4), min_size=k, max_size=k, unique=True)))
    data = Dataset(X=X, y=y, class_names=names,
                   provenance=tuple(f"r{i}" for i in range(n)))
    try:
        model = TRAINERS[kind](data, draw(st.integers(0, 2**31 - 1)))
    except SettingError:
        reject()
    return model, np.concatenate([X, matrix(draw, 4, d)])


@st.composite
def context_models(draw):
    """A contextual model with random parameters, and packed probe sentences."""
    e, window = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    words = draw(st.lists(st.text(min_size=1, max_size=4), unique=True, max_size=6))
    tokens = ctx.SPECIAL_TOKENS + tuple(w for w in words if w not in ctx.SPECIAL_TOKENS)
    model = ctx.ContextModel(
        vocabulary=ctx.Vocabulary(tokens),
        embeddings=matrix(draw, len(tokens), e),
        weights=matrix(draw, 2 * e, 3),
        bias=matrix(draw, 1, 3)[0],
        window=window,
        seed=draw(st.integers(0, 2**31 - 1)),
        hyperparameters={"window": window, "note": draw(st.text(max_size=3))},
    )
    sentences = []
    for _ in range(draw(st.integers(1, 4))):
        sentence = draw(st.lists(st.sampled_from(tokens + ("unseen",)), min_size=1,
                                 max_size=8))
        target = draw(st.integers(0, len(sentence) - 1))
        sentences.append(ctx.TargetSentence("", tuple(sentence), target))
    return model, model.pack(sentences)


def outputs(model, probe) -> np.ndarray:
    """Predictions of a classical model, logits of a contextual one."""
    if isinstance(model, ctx.ContextModel):
        return model.forward_ids(probe)[1]
    return model.predict(probe)


models = st.one_of(
    *[classical_models(kind) for kind in ml.MODEL_KINDS], context_models()
)


class TestRoundTripEveryKind:
    @settings(max_examples=150, deadline=None)
    @given(models, st.data())
    def test_save_load_save(self, model_and_probe, data):
        model, probe = model_and_probe
        kind = model.kind if not isinstance(model, ctx.ContextModel) else ctx.MODEL_KIND
        text = SAVERS[kind](model)
        clone = LOADERS[kind](text)
        assert SAVERS[kind](clone) == text
        assert np.array_equal(outputs(clone, probe), outputs(model, probe))

        saved = json.loads(text)
        assert saved["format_version"] == artifact.FORMAT_VERSION
        assert saved["kind"] == kind
        assert set(saved) == {"format_version", "kind", *FAMILY_FIELDS[kind]}
        name = data.draw(st.sampled_from(FAMILY_FIELDS[kind]))
        del saved[name]
        with pytest.raises(ValueError, match=f"^missing field '{name}' in the model$"):
            LOADERS[kind](json.dumps(saved))


@pytest.fixture(scope="module")
def saved():
    """One saved file of each kind, as parsed JSON."""
    rng = np.random.default_rng(3)
    data = Dataset(X=rng.normal(size=(30, 3)), y=np.arange(30) % 3, class_names=("a", "b", "c"),
                   provenance=tuple(f"r{i}" for i in range(30)))
    files = {kind: json.loads(ml.save_model(train(data, 1))) for kind, train in TRAINERS.items()}
    tokens = ctx.SPECIAL_TOKENS + ("good", "bad")
    model = ctx.ContextModel(ctx.Vocabulary(tokens), rng.normal(size=(len(tokens), 2)),
                             rng.normal(size=(4, 3)), rng.normal(size=3), window=2, seed=4)
    files[ctx.MODEL_KIND] = json.loads(ctx.save_context_model(model))
    return files


def load(kind, data):
    return LOADERS[kind](json.dumps(data))


class TestEnvelopeChecks:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("version", [1, 3, None, "2", True])
    def test_other_versions_are_refused_by_number(self, saved, kind, version):
        data = dict(saved[kind], format_version=version)
        if version is None:
            del data["format_version"]
        with pytest.raises(ValueError, match=rf"^unsupported model format version "
                                             rf"{version!r}, expected 2$"):
            load(kind, data)

    def test_version_1_contextual_file_is_refused(self, saved):
        data = dict(saved[ctx.MODEL_KIND], format_version=1)
        del data["kind"]  # how version 1 wrote contextual models
        with pytest.raises(ValueError, match="^unsupported model format version 1, expected 2$"):
            ctx.load_context_model(json.dumps(data))

    @pytest.mark.parametrize("kind", ml.MODEL_KINDS)
    def test_contextual_reader_names_the_classical_kind(self, saved, kind):
        with pytest.raises(ValueError, match=f"^expected a contextual model, found a {kind} "
                                             "model$"):
            ctx.load_context_model(json.dumps(saved[kind]))

    def test_classical_reader_names_the_contextual_kind(self, saved):
        with pytest.raises(ValueError, match=r"^expected a classical model \(decision_tree, "
                                             r"random_forest, gaussian_nb, linear_svm\), "
                                             "found a contextual model$"):
            ml.load_model(json.dumps(saved[ctx.MODEL_KIND]))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("value, found", [(None, "kind None"), (3, "kind 3"),
                                              ("svm", "a svm model")])
    def test_unknown_kind(self, saved, kind, value, found):
        data = dict(saved[kind], kind=value)
        if value is None:
            del data["kind"]
        with pytest.raises(ValueError, match=f"found {found}$"):
            load(kind, data)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [1.0, "1", True, None, [1]])
    def test_seed_must_be_an_int(self, saved, kind, seed):
        with pytest.raises(ValueError, match=r"^field 'seed' is .*, expected an int$"):
            load(kind, dict(saved[kind], seed=seed))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("value", [[], ["split"], "pos", None, 1])
    def test_hyperparameters_must_be_an_object(self, saved, kind, value):
        with pytest.raises(ValueError, match="^field 'hyperparameters' is not an object$"):
            load(kind, dict(saved[kind], hyperparameters=value))

    def test_checks_run_in_order(self, saved):
        """Version before kind, kind before fields, fields before their values."""
        data = {"format_version": 1, "kind": "contextual", "seed": "x"}
        with pytest.raises(ValueError, match="version 1"):
            ml.load_model(json.dumps(data))
        data["format_version"] = 2
        with pytest.raises(ValueError, match="found a contextual model"):
            ml.load_model(json.dumps(data))
        data["kind"] = "linear_svm"
        with pytest.raises(ValueError, match="missing field 'class_names', 'n_features', "
                                             "'hyperparameters', 'parameters' in the model"):
            ml.load_model(json.dumps(data))


class TestRepeatedNames:
    @pytest.mark.parametrize("kind", ml.MODEL_KINDS)
    def test_repeated_class_name_is_refused(self, saved, kind):
        data = dict(saved[kind], class_names=["a", "b", "a"])
        with pytest.raises(ValueError, match="^field 'class_names' repeats 'a'$"):
            load(kind, data)

    def test_repeated_vocabulary_token_is_refused(self, saved):
        data = saved[ctx.MODEL_KIND]
        tokens = data["vocabulary"][:-1] + [data["vocabulary"][-2]]
        with pytest.raises(ValueError, match="^field 'vocabulary' repeats 'good'$"):
            load(ctx.MODEL_KIND, dict(data, vocabulary=tokens))

    def test_check_distinct_names_the_first_repeat(self):
        artifact.check_distinct(["a", "b", "c"], "names")
        with pytest.raises(ValueError, match="^names repeats 'b'$"):
            artifact.check_distinct(["a", "b", "c", "c", "b"], "names")
