"""Command-line entry point.

Subcommands: ``lexicon validate|clean|stats``, ``translate``, ``compare``,
``ml train|eval``, ``ctx generate|train|eval``, ``explain``.
Every run echoes its effective configuration and a manifest of produced files
into the output directory, so results are reproducible from disk. A command
returns its files instead of writing them; :func:`main` then builds
``run_config.json`` and ``manifest.json``, and only after that makes the
directory and writes every file. So a command that exits 1 or 2 writes
nothing, and only a failing write can leave a partial directory.

``compare`` and ``translate --in`` stream their large files: each returns
them as chunks of text that are scored or translated a block of rows at a
time while the file is written, so memory holds the parsed input and one
block, not every output row and the whole file text. Their inputs (the
lexicon and every sentence row) are still read and checked in full before a
command returns, so a refused run still writes nothing.

``compare`` scores each sentence in both modes (avg and v2) and against the
built-in English baseline. ``translate --in``, ``compare`` and ``explain
--corpus`` refuse an input that holds no sentences. ``explain --text`` writes
``attribution.*``, and ``explain --corpus`` writes ``attribution_NNNN.*`` per
sentence, however many it holds. ``ml train`` records its task, split and
test rows' SHA-256 in the model, and ``ml eval`` scores the same test split,
refusing a ``--seed``, ``--train-fraction`` or lexicon that gives another.
``ml train``, ``ml eval`` and ``ctx eval`` write the same evaluation files:
confusion matrix, metrics and one-vs-rest ROC curves. ``ml train`` and
``ctx train`` write ``model.json`` in model format 2, whose ``kind`` names the
model; files of any other format version are refused, so models saved by
older versions must be trained again. Exit codes: 0 success,
1 usage error, 2 data error; data errors name the file and, where there is
one, the row or line; a refused training setting names its flag.

Each subcommand imports only the modules it runs, so building the parser
loads no numpy, and ``lexicon validate|clean``, ``translate`` and ``compare``
run without it.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import math
import re
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator

from . import scoring
from . import translator as tr
from .lexicon import (
    LanguageCode,
    Polarity,
    clean,
    csv_text,
    json_text,
    json_value_text,
    parse_lexicon,
    require_normalized,
    serialize_lexicon,
    validate_lexicon,
)
from .settings import DEFAULT_STEPS, MODEL_KINDS, TASKS, SettingError

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems instead of argparse's 2
        raise _UsageError(message)


#: What a command returns: its output files, name to content in write order,
#: and its stderr summary line, if any. A content is text (written as UTF-8),
#: bytes, or an iterable of such chunks that is written one chunk at a time;
#: ``compare`` and ``translate --in`` return their large files that way, and
#: ``compare`` its summary as a function to call once its files are written,
#: since the agreement it prints is known only then.
Output = tuple[dict[str, str | bytes | Iterable[str | bytes]], str | Callable[[], str] | None]

#: Sentence rows that ``compare`` scores, and ``translate --in`` translates,
#: per block: a block's text is written before the next block is scored or
#: translated, so memory holds one block of output rows, not the whole file.
_BLOCK_ROWS = 256


def _effective_config(args: argparse.Namespace) -> dict:
    config = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command"):
            continue
        config[key] = value.value if hasattr(value, "value") else value
    return config


@contextmanager
def _errors_name(path: str):
    """Data errors raised inside name the file ``path``; a refused setting
    passes unchanged, since it names its flag."""
    try:
        yield
    except SettingError:
        raise
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {exc}") from None


def _parse_file(path: str, parse):
    """``parse`` applied to a UTF-8 file's text; its errors name the file.

    The text keeps its line ends, so CSV readers see quoted line breaks as
    written.
    """
    with _errors_name(path):
        return parse(Path(path).read_bytes().decode("utf-8"))


def _normalized_lexicon(text: str):
    """A lexicon for the commands that tokenize sentences against it."""
    lexicon = parse_lexicon(text)
    require_normalized(lexicon)
    return lexicon


_LANGUAGE_BY_VALUE: dict[str, LanguageCode] = {code.value: code for code in LanguageCode}


def _sentence_rows(text: str, header: tuple[str, ...]) -> list[list]:
    """The data rows of a CSV with ``header``: a sentence, then language cells
    parsed to :class:`LanguageCode`. Errors name the row (header = 0) and, for
    an unknown language, its column."""
    rows = []
    try:  # ``rows`` keeps the rows read before an error, so its length is the bad row
        rows.extend(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise ValueError(f"row {len(rows)}: malformed CSV: {exc}") from None
    if not rows or tuple(rows[0]) != header:  # a repr shows a BOM or a stray space
        found = rows[0] if rows else []
        raise ValueError(f"row 0: bad header {found!r}; expected {','.join(header)}")
    for row_no, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise ValueError(
                f"row {row_no}: expected {len(header)} columns, found {len(row)}"
            )
        for i in range(1, len(row)):
            code = _LANGUAGE_BY_VALUE.get(row[i])
            if code is None:
                try:
                    code = LanguageCode.parse(row[i])
                except ValueError as exc:
                    raise ValueError(f"row {row_no}: column {header[i]!r}: {exc}") from None
            row[i] = code
    return rows[1:]


def _language(flag: str, value: str) -> LanguageCode:
    """The language a flag names; an unknown one is refused, naming the flag."""
    try:
        return LanguageCode.parse(value)
    except ValueError as exc:
        raise SettingError(flag, str(exc)) from None


# ---------------------------------------------------------------------------
# lexicon subcommands


def cmd_lexicon_validate(args) -> Output:
    lexicon = _parse_file(args.infile, parse_lexicon)
    report = validate_lexicon(lexicon)
    text = json_text(report.to_json_dict())
    summary = f"{len(lexicon)} entries, {report.issue_count} issues"
    if args.out:
        return {"validation_report.json": text}, summary
    sys.stdout.write(text)
    return {}, summary


def cmd_lexicon_clean(args) -> Output:
    lexicon = _parse_file(args.infile, parse_lexicon)
    with _errors_name(args.infile):  # a French form that cleans to nothing
        cleaned, report = clean(lexicon)
    files = {
        "cleaned.csv": serialize_lexicon(cleaned),
        "cleaning_report.json": json_text(report.to_json_dict()),
    }
    return files, (
        f"{len(lexicon)} entries in, {len(cleaned)} out, {report.change_count} changes"
    )


def cmd_lexicon_stats(args) -> Output:
    from . import eda, svg

    lexicon = _parse_file(args.infile, parse_lexicon)
    with _errors_name(args.infile):  # an empty lexicon
        report = eda.compute_eda(lexicon)
    files = {"eda.json": json_text(report.to_json_dict())}

    polarities = [p.value for p in Polarity]
    files["polarity_counts.svg"] = svg.bar_chart(
        polarities,
        [report.polarity_counts[p] for p in Polarity],
        "entries per polarity (shared score)",
    )
    pos_rows = [p.value for p in report.pos_by_polarity]
    files["pos_by_polarity.svg"] = svg.heatmap_grid(
        pos_rows,
        polarities,
        [[float(report.pos_by_polarity[pos][p]) for p in Polarity]
         for pos in report.pos_by_polarity],
        "POS against polarity",
    )
    centers = list(eda.HISTOGRAM_CENTERS)
    series = [
        (lang.value, [(float(c), float(n)) for c, n in zip(centers, counts)])
        for lang, counts in report.per_language_histograms.items()
    ]
    files["score_densities.svg"] = svg.line_chart(
        series, "per-language score distribution", "score", "entries"
    )
    languages = list(LanguageCode)
    files["correlation_matrix.svg"] = svg.heatmap_grid(
        [l.value for l in languages],
        [l.value for l in languages],
        [[report.cross_language_correlation[a][b] for b in languages] for a in languages],
        "cross-language score correlation",
        fmt="{:.2f}",
    )
    return files, f"eda over {len(lexicon)} entries written to {Path(args.out)}"


# ---------------------------------------------------------------------------
# translation and scoring


def cmd_translate(args) -> Output:
    if (args.text is None) == (args.infile is None):
        raise _UsageError("provide exactly one of --text or --in")
    if args.text is not None:
        if not args.source or not args.target:
            raise _UsageError("--text requires --from and --to")
        if args.out is not None:
            raise _UsageError("--out applies only to --in; --text prints its translation")
    else:
        if args.source is not None or args.target is not None:
            raise _UsageError("--from and --to apply only to --text; --in reads them per row")
        if not args.infile or not args.out:
            raise _UsageError("batch mode requires --in and --out")
    if args.text is not None:
        source, target = _language("from", args.source), _language("to", args.target)
        result = tr.translate(args.text, source, target, _parse_file(args.lex, _normalized_lexicon))
        print(result.translated_text)
        return {}, (f"{result.unknown_count} unknown token(s)" if result.unknown_count else None)
    lexicon = _parse_file(args.lex, _normalized_lexicon)
    rows = _parse_file(
        args.infile,
        partial(_sentence_rows, header=("sentence", "source_language", "target_language")),
    )
    if not rows:
        raise ValueError(f"{args.infile}: no sentences")
    return (
        {"translations.csv": _translation_chunks(rows, lexicon)},
        f"translated {len(rows)} sentences",
    )


def _blocks(rows: list) -> Iterator[list]:
    """``rows`` in consecutive slices of :data:`_BLOCK_ROWS` rows."""
    return (rows[start:start + _BLOCK_ROWS] for start in range(0, len(rows), _BLOCK_ROWS))


def _translation_chunks(rows: list, lexicon) -> Iterator[str]:
    """``translations.csv``, one block of rows at a time."""
    yield csv_text([("sentence", "source_language", "target_language", "translated_text")])
    for block in _blocks(rows):
        yield csv_text([
            [s, a.value, b.value, tr.translate(s, a, b, lexicon).translated_text]
            for s, a, b in block
        ])


class _Comparison:
    """``compare``'s two files, scored one block of rows at a time while
    ``comparison.csv`` is written.

    ``comparison.json`` writes its summary (``agreement`` and
    ``polarity_counts``, summed over the blocks) before its ``rows``, but the
    summary is known only after the last block. So each block's JSON rows
    wait in an unnamed temporary file, which ``comparison.json`` copies after
    the summary.
    """

    def __init__(self, rows: list, lexicon):
        self.rows, self.lexicon = rows, lexicon
        self.agreed = 0
        self.counts = {scorer: dict.fromkeys(Polarity, 0) for scorer in ("avg", "v2", "baseline")}

    def chunks(self) -> Iterator[str | bytes | None]:
        """``comparison.csv``'s chunks, ``None``, then ``comparison.json``'s.

        One generator writes both files, so the temporary file is closed
        however the writing ends.
        """
        import tempfile  # only compare needs it, so importing the cli does not load it

        with tempfile.TemporaryFile() as spool:
            for i, block in enumerate(_blocks(self.rows)):
                report = scoring.score_batch(block, self.lexicon, scoring.builtin_english_baseline)
                self.agreed += sum(
                    r["sentiment_v2"] == r["baseline_sentiment"] for r in report.rows)
                for scorer, counts in report.polarity_counts.items():
                    for polarity, count in counts.items():
                        self.counts[scorer][polarity] += count
                # The rows as comparison.json's "rows" list holds them, without
                # the list's "[" and closing "\n  ]".
                rows = json_value_text(report.rows, 1)[1:-len("\n  ]")]
                spool.write((("," if i else "") + rows).encode("utf-8"))
                table = scoring.comparison_csv_rows(report)
                yield csv_text(table[1:] if i else table)  # the header once
            yield None

            summary = scoring.ComparisonReport([], self.agreed / len(self.rows), self.counts)
            text = json_text(summary.to_json_dict())  # "rows" sorts last: ... "rows": []\n}\n
            yield text[:-len("]\n}\n")]
            spool.seek(0)
            yield from iter(partial(spool.read, 1 << 16), b"")
            yield "\n  ]\n}\n"

    def summary(self) -> str:
        return (f"{len(self.rows)} sentences, "
                f"v2/baseline agreement {self.agreed / len(self.rows):.3f}")


def cmd_compare(args) -> Output:
    lexicon = _parse_file(args.lex, _normalized_lexicon)
    rows = _parse_file(args.infile, partial(_sentence_rows, header=("sentence", "language")))
    if not rows:  # an agreement over no sentences would read a vacuous 1.000
        raise ValueError(f"{args.infile}: no sentences")
    comparison = _Comparison(rows, lexicon)
    chunks = comparison.chunks()
    files = {"comparison.csv": iter(chunks.__next__, None), "comparison.json": chunks}
    return files, comparison.summary


# ---------------------------------------------------------------------------
# classical ml


def _train_ml_model(dataset, args):
    from . import ml

    if args.model == "decision_tree":
        return ml.train_decision_tree(
            dataset, max_depth=args.max_depth,
            min_samples_split=args.min_samples_split, seed=args.seed,
        )
    if args.model == "random_forest":
        return ml.train_random_forest(
            dataset, n_trees=args.n_trees, max_depth=args.max_depth,
            min_samples_split=args.min_samples_split, seed=args.seed,
            bootstrap=not args.no_bootstrap,
            feature_subsample=not args.no_feature_subsample,
        )
    if args.model == "gaussian_nb":
        return ml.train_gaussian_nb(dataset, var_smoothing=args.var_smoothing)
    return ml.train_linear_svm(dataset, lam=args.lam, epochs=args.epochs, seed=args.seed)


def _evaluation_files(model: str, y_true, proba, class_names) -> tuple[dict, float]:
    """The evaluation files of ``model``'s class probabilities, and its
    accuracy; each row's prediction is its most probable class. Class
    probabilities that are not finite are refused, naming ``model``."""
    import numpy as np

    from . import metrics as evalm
    from . import svg

    bad_rows = np.count_nonzero(~np.isfinite(proba).all(axis=1))
    if bad_rows:
        raise ValueError(
            f"{model}: the class probabilities of {bad_rows} of {len(proba)} rows are not finite"
        )
    y_pred = np.argmax(proba, axis=1)
    cm = evalm.confusion(
        [class_names[t] for t in y_true], [class_names[p] for p in y_pred], class_names
    )
    report = evalm.metrics(cm)
    curves = evalm.roc_one_vs_rest(list(y_true), proba, class_names)
    files = {
        "confusion.json": json_text(cm.to_json_dict()),
        "metrics.json": json_text(report.to_json_dict()),
        "metrics.txt": evalm.metrics_table(report),
    }
    for name, curve in sorted(curves.items()):
        rows = [["false_positive_rate", "true_positive_rate"]]
        rows += [[repr(x), repr(y)] for x, y in curve.points]
        files[f"roc_{name}.csv"] = csv_text(rows)
    if curves:
        files["roc.svg"] = svg.roc_chart(curves, "one-vs-rest ROC")
    return files, report.accuracy


def cmd_ml_train(args) -> Output:
    from . import ml

    lexicon = _parse_file(args.lex, parse_lexicon)
    dataset = ml.featurize(lexicon, task=args.task)
    train_set, test_set = ml.split(dataset, args.train_fraction, args.seed)
    if not len(test_set):
        raise ValueError(f"{args.lex}: test split is empty")
    model = _train_ml_model(train_set, args)
    model.hyperparameters["task"] = args.task
    model.hyperparameters["split"] = {"seed": args.seed, "train_fraction": args.train_fraction,
                                      "test_sha256": test_set.sha256()}
    files = {"model.json": ml.save_model(model), "dataset.csv": ml.dataset_csv(dataset)}
    evaluation, accuracy = _evaluation_files(
        f"{args.model} trained on {args.lex}", test_set.y, model.predict_proba(test_set.X),
        dataset.class_names,
    )
    return {**files, **evaluation}, (
        f"{args.model} trained on {len(train_set)}/{len(dataset)} vectors, "
        f"test accuracy {accuracy}"
    )


def _use_recorded_split(model, args) -> str | None:
    """Set ``args.seed`` and ``args.train_fraction`` to the split ``ml train``
    recorded in the model; flags given explicitly must match it. Returns the
    recorded ``test_sha256``, or None for a model trained before it was."""
    from .artifact import is_int

    recorded = model.hyperparameters.get("split", {})
    if "split" in model.hyperparameters and not (
        isinstance(recorded, dict)
        and is_int(recorded.get("seed"))
        and isinstance(recorded.get("train_fraction"), float)
        and 0 < recorded["train_fraction"] < 1
    ):
        raise ValueError(
            f"{args.model}: field 'split' of 'hyperparameters' is {recorded!r}, expected an "
            "object with an int 'seed' and a 'train_fraction' in (0, 1)"
        )
    digest = recorded.get("test_sha256")
    if digest is not None and not (isinstance(digest, str)
                                   and re.fullmatch("[0-9a-f]{64}", digest)):
        raise ValueError(f"{args.model}: field 'test_sha256' of 'split' is {digest!r}, "
                         "expected 64 lowercase hex digits")
    for key, flag in (("seed", "--seed"), ("train_fraction", "--train-fraction")):
        given = getattr(args, key)
        value = recorded.get(key, given)
        if value is None:
            raise ValueError(f"{args.model}: the model records no split {key}; pass {flag}")
        if given is not None and given != value:
            raise ValueError(
                f"{flag} {given} differs from {value}, the {key} {args.model} was trained with"
            )
        setattr(args, key, value)
    return digest


def cmd_ml_eval(args) -> Output:
    import numpy as np

    from . import ml

    model = _parse_file(args.model, ml.load_model)
    task = model.hyperparameters.get("task")
    if task not in TASKS:
        raise ValueError(f"{args.model}: the model records no known task (found {task!r})")
    test_sha256 = _use_recorded_split(model, args)
    lexicon = _parse_file(args.lex, parse_lexicon)
    dataset = ml.featurize(lexicon, task=task)
    if model.n_features != dataset.X.shape[1]:
        raise ValueError(
            f"{args.model}: the model takes {model.n_features} features, "
            f"the lexicon gives {dataset.X.shape[1]}"
        )
    _, test_set = ml.split(dataset, args.train_fraction, args.seed)
    if not len(test_set):
        raise ValueError(f"{args.lex}: test split is empty")
    if test_sha256 not in (None, test_set.sha256()):
        raise ValueError(f"--lex {args.lex}: its test rows differ from those {args.model} "
                         "recorded in training (entry ids, features or labels)")
    with np.errstate(over="ignore", invalid="ignore"):  # outputs that overflow are refused below
        proba = model.predict_proba(test_set.X)
    files, accuracy = _evaluation_files(args.model, test_set.y, proba, dataset.class_names)
    return files, f"test accuracy {accuracy:.4f}"


# ---------------------------------------------------------------------------
# contextual model


def cmd_ctx_generate(args) -> Output:
    from . import contextual as ctx

    try:
        weights = tuple(float(w) for w in args.label_weights.split(","))
    except ValueError:
        weights = ()
    if len(weights) != 3:
        raise _UsageError(
            f"--label-weights needs three comma-separated numbers, got {args.label_weights!r}"
        )
    if args.count < 1:
        raise _UsageError(f"-n/--count must be at least 1, got {args.count}")
    language = _language("language", args.language)
    lexicon = _parse_file(args.lex, _normalized_lexicon)
    # The lexicon may lack the forms to build from, or hold one that would
    # break the corpus's lines.
    with _errors_name(args.lex):
        sentences = ctx.generate_dataset(
            lexicon, language, args.count, args.seed, label_weights=weights
        )
        corpus = ctx.write_corpus(sentences)
    return {"corpus.tsv": corpus}, f"generated {len(sentences)} sentences"


def cmd_ctx_train(args) -> Output:
    from . import contextual as ctx

    corpus = _parse_file(args.corpus, partial(ctx.read_corpus, labeled=True))
    with _errors_name(args.corpus):  # nothing is written for a corpus that cannot be trained on
        train_set, val_set, test_set = ctx.split_70_20_10(corpus, args.seed)
        if args.uniform_weights:
            weights = ctx.uniform_class_weights()
        else:
            weights = ctx.compute_class_weights([s.label for s in train_set])
        config = ctx.TrainConfig(
            embedding_dim=args.embedding_dim, window=args.window, batch_size=args.batch_size
        )
        model = ctx.train(
            config, train_set, val_set, weights,
            epochs=args.epochs, learning_rate=args.learning_rate, seed=args.seed,
        )
    files = {
        "model.json": ctx.save_context_model(model),
        "loss.csv": ctx.history_csv(model),
        "train.tsv": ctx.write_corpus(train_set),
        "validation.tsv": ctx.write_corpus(val_set),
        "test.tsv": ctx.write_corpus(test_set),
    }
    val_acc = ctx.accuracy(model, val_set) if val_set else float("nan")
    return files, (
        f"trained {args.epochs} epochs on {len(train_set)} sentences, "
        f"validation accuracy {val_acc:.4f}"
    )


def cmd_ctx_eval(args) -> Output:
    import numpy as np

    from . import contextual as ctx

    model = _parse_file(args.model, ctx.load_context_model)
    corpus = _parse_file(args.corpus, partial(ctx.read_corpus, labeled=True))
    # An empty corpus is refused; outputs that overflow are refused below.
    with _errors_name(args.corpus), np.errstate(over="ignore", invalid="ignore"):
        y_true, _, proba = ctx.evaluate(model, corpus)
    files, accuracy = _evaluation_files(
        args.model, y_true, proba, [p.value for p in ctx.CLASS_ORDER]
    )
    return files, f"accuracy {accuracy:.4f} on {len(y_true)} sentences"


def cmd_explain(args) -> Output:
    import numpy as np

    from . import attribution as attr
    from . import contextual as ctx

    if (args.text is None) == (args.corpus is None):
        raise _UsageError("provide exactly one of --text or --corpus")
    model = _parse_file(args.model, ctx.load_context_model)
    if args.text is not None:
        sentences = [ctx.parse_marked(args.text)]
    else:
        sentences = _parse_file(args.corpus, ctx.read_corpus)
        if not sentences:
            raise ValueError(f"{args.corpus}: no sentences")
    target_class = Polarity(args.target_class) if args.target_class else None
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is refused below
        maps = attr.corpus_integrated_gradients(
            model, sentences, target_class=target_class, steps=args.steps)
    files = {}
    for i, amap in enumerate(maps, start=1):
        numbers = (amap.confidence, amap.total_attribution, amap.convergence_delta,
                   amap.score_input, amap.score_baseline, *(v for _, v in amap.per_token))
        if not all(map(math.isfinite, numbers)):
            raise ValueError(
                f"{args.model}: the attribution of {amap.sentence.text!r} is not finite")
        stem = "attribution" if args.text is not None else f"attribution_{i:04d}"
        files[f"{stem}.json"] = attr.attribution_json(amap)
        files[f"{stem}.csv"] = attr.heatmap_csv(amap)
        files[f"{stem}.svg"] = attr.heatmap_svg(amap)
    files["summary.csv"] = csv_text(attr.summary_rows(maps))
    largest = max((abs(amap.convergence_delta) for amap in maps), default=0.0)
    return files, (f"attributed {len(maps)} sentence(s), "
                   f"largest |convergence delta| {largest:.3g}")


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="lexisent", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name, func, parent, **kwargs):
        p = parent.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    lex = sub.add_parser("lexicon", help="validate, clean, or summarize a lexicon")
    lex_sub = lex.add_subparsers(dest="subcommand")
    p = add("validate", cmd_lexicon_validate, lex_sub)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p = add("clean", cmd_lexicon_clean, lex_sub)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p = add("stats", cmd_lexicon_stats, lex_sub)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = add("translate", cmd_translate, sub, help="word-by-word translation")
    p.add_argument("--lex", required=True)
    p.add_argument("--text", default=None)
    p.add_argument("--from", dest="source", default=None)
    p.add_argument("--to", dest="target", default=None)
    p.add_argument("--in", dest="infile", default=None,
                   help="CSV sentence,source_language,target_language")
    p.add_argument("--out", default=None)

    p = add("compare", cmd_compare, sub, help="sentence scoring against the baseline")
    p.add_argument("--lex", required=True)
    p.add_argument("--in", dest="infile", required=True, help="CSV sentence,language")
    p.add_argument("--out", required=True)

    mlp = sub.add_parser("ml", help="classical classifiers on lexicon features")
    ml_sub = mlp.add_subparsers(dest="subcommand")
    p = add("train", cmd_ml_train, ml_sub)
    p.add_argument("--lex", required=True)
    p.add_argument("--task", choices=TASKS, default="pos")
    p.add_argument("--model", choices=MODEL_KINDS, default="random_forest")
    p.add_argument("--out", required=True)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--min-samples-split", type=int, default=2)
    p.add_argument("--n-trees", type=int, default=100)
    p.add_argument("--no-bootstrap", action="store_true")
    p.add_argument("--no-feature-subsample", action="store_true")
    p.add_argument("--var-smoothing", type=float, default=1e-9)
    p.add_argument("--lam", type=float, default=1e-4)
    p.add_argument("--epochs", type=int, default=50)
    p = add("eval", cmd_ml_eval, ml_sub)
    p.add_argument("--model", required=True)
    p.add_argument("--lex", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--train-fraction", type=float, default=None,
                   help="must match the model's recorded split (the default)")
    p.add_argument("--seed", type=int, default=None,
                   help="must match the model's recorded split (the default)")

    ctxp = sub.add_parser("ctx", help="contextual target-word classifier")
    ctx_sub = ctxp.add_subparsers(dest="subcommand")
    p = add("generate", cmd_ctx_generate, ctx_sub)
    p.add_argument("--lex", required=True)
    p.add_argument("--language", required=True)
    p.add_argument("-n", "--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label-weights", default="0.4,0.2,0.4",
                   help="negative,neutral,positive sampling weights; a list that starts "
                        "with '-' must be written --label-weights=...")
    p.add_argument("--out", required=True)
    p = add("train", cmd_ctx_train, ctx_sub)
    p.add_argument("--corpus", required=True, help="TSV marked_sentence<TAB>label")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--embedding-dim", type=int, default=32)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--uniform-weights", action="store_true",
                   help="disable inverse-frequency class weighting")
    p = add("eval", cmd_ctx_eval, ctx_sub)
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)

    p = add("explain", cmd_explain, sub, help="integrated-gradients attributions")
    p.add_argument("--model", required=True)
    p.add_argument("--text", default=None, help="one marked sentence")
    p.add_argument("--corpus", default=None, help="TSV corpus to attribute in batch")
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                   help="integration steps along the path; each adds only a 3-way softmax "
                        "per sentence, so a large count costs little")
    p.add_argument("--target-class", choices=[pol.value for pol in Polarity], default=None)

    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    The cyclic garbage collector is paused while the command runs, since its
    passes over the many small objects a command builds find nothing to free.
    That holds because no command leaves cyclic garbage that grows with its
    input: reference counting frees what the command drops. The only cycles
    left behind are the 671 objects that each :func:`build_parser` call
    leaves (argparse's parsers and actions refer to each other), a count
    that does not depend on the input, so the pause stays safe. The caller's
    collector state comes back on return, and no collection is forced.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        files, summary = args.func(args)
        if files:  # run_config.json and manifest.json are built before the directory
            config = _effective_config(args)
            files["run_config.json"] = json_text(config)
            files["manifest.json"] = json_text(
                {"config": config, "files": sorted([*files, "manifest.json"])}
            )
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            for name, content in files.items():
                with open(out / name, "wb") as stream:
                    for chunk in (content,) if isinstance(content, (str, bytes)) else content:
                        stream.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SettingError as exc:  # name the flag the setting came from
        print(f"error: --{exc.setting.replace('_', '-')} {exc.problem}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if summary is not None:
        print(summary() if callable(summary) else summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
