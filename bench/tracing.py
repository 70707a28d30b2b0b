"""Span tracing of the ``lexisent`` layers, installed from outside the package.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent) in memory. A function imported elsewhere with ``from ...
import`` is rebound in every ``lexisent`` module that holds it, so
``scoring.tokenize`` is traced as well as ``translator.tokenize``. Nothing
under ``src/`` changes; :func:`installed` restores the original functions on
exit.

Per-layer metrics are computed per traced pass from the spans, plus a few
counters taken from the traced calls' arguments and results after each span
has ended.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
import types
from dataclasses import dataclass, field
from typing import Callable

from generate import LANGUAGES


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Info kept for a span, computed from (args, kwargs, result) after it ends.
def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _tokenize(args, kwargs, result):
    language = _arg(args, kwargs, 1, "language").value
    lexical = [t for t in result if t.entry_id is not None]
    return {
        "language": language,
        "tokens": len(result),
        "lexical": len(lexical),
        "phrases": sum(1 for t in lexical if " " in t.surface),
        "ambiguous": sum(1 for t in lexical if t.alternatives),
    }


def _translate(args, kwargs, result):
    return {"tokens": len(result.tokens), "unknown": result.unknown_count}


def _score_batch(args, kwargs, result):
    return {"sentences": len(_arg(args, kwargs, 0, "rows"))}


def _clean(args, kwargs, result):
    return {"changes": result[1].change_count}


def _forest(args, kwargs, result):
    return {"trees": len(result.trees)}


def _svm(args, kwargs, result):
    data = _arg(args, kwargs, 0, "data")
    epochs = result.hyperparameters["epochs"]
    return {"updates": len(data) * epochs * len(data.class_names)}


def _save_model(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _ctx_train(args, kwargs, result):
    return {
        "batch_size": _arg(args, kwargs, 0, "config").batch_size,
        "train": len(_arg(args, kwargs, 1, "train_set")),
        "val": len(_arg(args, kwargs, 2, "val_set")),
        "epochs": _arg(args, kwargs, 4, "epochs"),
    }


def _ig(args, kwargs, result):
    return {"delta": result.convergence_delta}


@dataclass(frozen=True)
class Target:
    """One traced function: span name, module, attribute path, span info."""

    name: str
    module: str
    attribute: str
    info: Callable[[tuple, dict, object], dict] | None = None


TARGETS: tuple[Target, ...] = (
    Target("lexicon.parse", "lexisent.lexicon", "parse_lexicon", _rows),
    Target("lexicon.build", "lexisent.lexicon", "Lexicon.__init__"),
    Target("lexicon.clean", "lexisent.lexicon", "clean", _clean),
    Target("lexicon.validate", "lexisent.lexicon", "validate_lexicon"),
    Target("lexicon.serialize", "lexisent.lexicon", "serialize_lexicon"),
    Target("lexicon.context_dependent_forms", "lexisent.lexicon", "context_dependent_forms"),
    Target("translator.tokenize", "lexisent.translator", "tokenize", _tokenize),
    Target("translator.translate", "lexisent.translator", "translate", _translate),
    Target("translator.word_tokens", "lexisent.translator", "word_tokens"),
    Target("scoring.score_batch", "lexisent.scoring", "score_batch", _score_batch),
    Target("scoring.score_sentence", "lexisent.scoring", "score_sentence"),
    Target("scoring.baseline", "lexisent.scoring", "builtin_english_baseline"),
    Target("scoring.comparison_csv_rows", "lexisent.scoring", "comparison_csv_rows"),
    Target("eda.compute_eda", "lexisent.eda", "compute_eda"),
    Target("svg.charts", "lexisent.svg", "bar_chart"),
    Target("svg.charts", "lexisent.svg", "heatmap_grid"),
    Target("svg.charts", "lexisent.svg", "line_chart"),
    Target("svg.charts", "lexisent.svg", "roc_chart"),
    Target("svg.token_heatmap", "lexisent.svg", "token_heatmap"),
    Target("ml.featurize", "lexisent.ml.dataset", "featurize"),
    Target("ml.split", "lexisent.ml.dataset", "split"),
    Target("ml.dataset_csv", "lexisent.ml.dataset", "dataset_csv"),
    Target("ml.tree.train", "lexisent.ml.tree", "train_decision_tree"),
    Target("ml.tree.best_split", "lexisent.ml.tree", "best_split"),
    Target("ml.forest.train", "lexisent.ml.forest", "train_random_forest", _forest),
    Target("ml.forest.predict", "lexisent.ml.forest", "RandomForestModel.predict_proba"),
    Target("ml.naive_bayes.train", "lexisent.ml.naive_bayes", "train_gaussian_nb"),
    Target("ml.svm.train", "lexisent.ml.svm", "train_linear_svm", _svm),
    Target("ml.serialize.save", "lexisent.ml.serialize", "save_model", _save_model),
    Target("ml.serialize.load", "lexisent.ml.serialize", "load_model"),
    Target("metrics.confusion", "lexisent.metrics", "confusion"),
    Target("metrics.roc_one_vs_rest", "lexisent.metrics", "roc_one_vs_rest"),
    Target("contextual.generate_dataset", "lexisent.contextual", "generate_dataset"),
    Target("contextual.read_corpus", "lexisent.contextual", "read_corpus"),
    Target("contextual.train", "lexisent.contextual", "train", _ctx_train),
    Target("contextual.loss_and_gradients", "lexisent.contextual", "loss_and_gradients"),
    Target("contextual.predict_batch", "lexisent.contextual", "ContextModel.predict_batch"),
    Target("contextual.log_prob_and_input_grad", "lexisent.contextual",
           "ContextModel.log_prob_and_input_grad"),
    Target("contextual.save", "lexisent.contextual", "save_context_model"),
    Target("contextual.load", "lexisent.contextual", "load_context_model"),
    Target("attribution.integrated_gradients", "lexisent.attribution",
           "integrated_gradients", _ig),
    Target("attribution.attribution_json", "lexisent.attribution", "attribution_json"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    pass_id: int
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span store with the stack of currently open spans."""

    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    pass_id: int = 0

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.pass_id))
        self.stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self.stack.pop()

    def wrap(self, target: Target, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if target.info is not None:
                tracer.spans[index].info = target.info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.attribute)
        return traced

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,pass,name,parent,start,end\n")
            for i, s in enumerate(self.spans):
                handle.write(f"{i},{s.pass_id},{s.name},{s.parent},{s.start!r},{s.end!r}\n")


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *path, attribute = target.attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every target while the block runs, then restore the originals."""
    undo = []
    try:
        for target in TARGETS:
            owner, attribute = _resolve(target)
            original = getattr(owner, attribute)
            wrapper = tracer.wrap(target, original)
            holders = [owner]
            if isinstance(owner, types.ModuleType):
                holders = [
                    m for name, m in list(sys.modules.items())
                    if m is not None and (name == "lexisent" or name.startswith("lexisent."))
                ]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        undo.append((holder, name, original))
        yield tracer
    finally:
        for holder, name, original in reversed(undo):
            setattr(holder, name, original)


# ---------------------------------------------------------------------------
# arithmetic over spans


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


def busy_times(spans: list[Span]) -> dict[str, float]:
    """Per name, the summed duration of spans with no ancestor of that name."""
    busy: dict[str, float] = {}
    for s in spans:
        parent = s.parent
        while parent >= 0 and spans[parent].name != s.name:
            parent = spans[parent].parent
        if parent < 0:
            busy[s.name] = busy.get(s.name, 0.0) + s.duration
    return busy


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


# Targets traced for their call counts, not for a busy time of their own.
COUNTED_ONLY = frozenset({"scoring.score_sentence", "ml.tree.best_split",
                          "contextual.log_prob_and_input_grad"})


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], steps: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; layers a workload skips read 0.

    ``spans`` must be re-indexed to the pass (parents point into the list).
    """
    busy = busy_times(spans)
    own = self_times(spans)
    calls: dict[str, int] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    m: dict[str, float] = {}
    for name in dict.fromkeys(t.name for t in TARGETS):
        if name not in COUNTED_ONLY:
            m[f"{name}.busy_s"] = busy.get(name, 0.0)

    def infos(name):
        return [s.info for s in spans if s.name == name and s.info is not None]

    m["lexicon.parse.rows_per_s"] = _ratio(
        sum(i["rows"] for i in infos("lexicon.parse")), busy.get("lexicon.parse", 0.0))
    m["lexicon.clean.changes"] = sum(i["changes"] for i in infos("lexicon.clean"))

    tokenize = [s for s in spans if s.name == "translator.tokenize"]
    tokens = sum(s.info["tokens"] for s in tokenize)
    lexical = sum(s.info["lexical"] for s in tokenize)
    m["translator.tokenize.calls"] = len(tokenize)
    m["translator.tokens_per_s"] = _ratio(tokens, busy.get("translator.tokenize", 0.0))
    for language in LANGUAGES:
        mine = [s for s in tokenize if s.info["language"] == language]
        m[f"translator.tokens_per_s.{language}"] = _ratio(
            sum(s.info["tokens"] for s in mine), sum(s.duration for s in mine))
    m["translator.lexical_share"] = _ratio(lexical, tokens)
    m["translator.phrase_share"] = _ratio(sum(s.info["phrases"] for s in tokenize), lexical)
    m["translator.ambiguous_share"] = _ratio(sum(s.info["ambiguous"] for s in tokenize), lexical)
    translated = infos("translator.translate")
    m["translator.translate.unknown_share"] = _ratio(
        sum(i["unknown"] for i in translated), sum(i["tokens"] for i in translated))

    m["scoring.score_sentence.calls"] = calls.get("scoring.score_sentence", 0)
    scored = sum(i["sentences"] for i in infos("scoring.score_batch"))
    m["scoring.tokenize_per_sentence"] = _ratio(
        sum(1 for i, s in enumerate(spans)
            if s.name == "translator.tokenize" and has_ancestor(spans, i, "scoring.score_batch")),
        scored)

    m["ml.tree.best_split.calls"] = calls.get("ml.tree.best_split", 0)
    m["ml.forest.trees_per_s"] = _ratio(
        sum(i["trees"] for i in infos("ml.forest.train")), busy.get("ml.forest.train", 0.0))
    m["ml.svm.updates_per_s"] = _ratio(
        sum(i["updates"] for i in infos("ml.svm.train")), busy.get("ml.svm.train", 0.0))
    m["ml.serialize.bytes"] = sum(i["bytes"] for i in infos("ml.serialize.save"))

    m["contextual.loss_and_gradients.calls"] = calls.get("contextual.loss_and_gradients", 0)
    history = 0.0
    trained = 0
    for i, s in enumerate(spans):
        if s.name != "contextual.train" or s.info is None:
            continue
        info = s.info
        trained += info["train"] * info["epochs"]
        per_epoch = -(-info["train"] // info["batch_size"])
        period = per_epoch + 1 + (1 if info["val"] else 0)
        losses = [c for c in spans if c.name == "contextual.loss_and_gradients"
                  and c.parent == i]
        history += sum(c.duration for k, c in enumerate(losses) if k % period >= per_epoch)
    m["contextual.history_share"] = _ratio(history, busy.get("contextual.loss_and_gradients", 0.0))
    m["contextual.train_sentences_per_s"] = _ratio(trained, busy.get("contextual.train", 0.0))

    ig = infos("attribution.integrated_gradients")
    m["attribution.sentences_per_s"] = _ratio(
        len(ig), busy.get("attribution.integrated_gradients", 0.0))
    m["attribution.grad_calls_per_sentence"] = _ratio(
        sum(1 for i, s in enumerate(spans)
            if s.name == "contextual.log_prob_and_input_grad"
            and has_ancestor(spans, i, "attribution.integrated_gradients")),
        len(ig))
    deltas = [abs(i["delta"]) for i in ig]
    m["attribution.max_abs_delta"] = max(deltas, default=0.0)
    m["attribution.mean_abs_delta"] = _ratio(sum(deltas), len(deltas))

    for step in steps:
        mine = [i for i, s in enumerate(spans) if s.name == f"cli.{step}"]
        m[f"cli.{step}.wall_s"] = sum((spans[i].duration for i in mine), 0.0)
        m[f"cli.{step}.residual_s"] = sum((own[i] for i in mine), 0.0)
    return m


def pass_spans(spans: list[Span], pass_id: int) -> list[Span]:
    """The spans of one pass, with parent indexes rebased onto the sublist."""
    keep = [i for i, s in enumerate(spans) if s.pass_id == pass_id]
    where = {old: new for new, old in enumerate(keep)}
    return [
        Span(spans[i].name, spans[i].start, spans[i].end,
             where.get(spans[i].parent, -1), pass_id, spans[i].info)
        for i in keep
    ]
