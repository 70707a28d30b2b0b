"""One workload's CLI chain, run in-process in a fresh interpreter.

``run.py`` starts this file as a child process with the numpy/BLAS thread
count pinned to 1, so that all load comes from one process and one thread and
the child's peak RSS is the workload's own. The child runs a warm-up pass,
then timed passes until ``--seconds`` is used up, checks every pass's outputs
with :mod:`gate`, and writes its timings as JSON to ``--result``.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
record spans through :mod:`tracing` and yield the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

# Program seeds and sizes pinned by the benchmark. The forest and SVM run
# below the CLI defaults (100 trees, 50 epochs) so one pass takes seconds.
PROGRAM_SEED = 0
TRAIN_FRACTION = 0.8
N_TREES = 5
SVM_EPOCHS = 2
CTX_SENTENCES = {"full": 2000, "tiny": 120}
CTX_EPOCHS = 4
ML_MODELS = (("dt", "decision_tree"), ("rf", "random_forest"),
             ("nb", "gaussian_nb"), ("svm", "linear_svm"))

STEPS = {
    "score-translate": ("lexicon_clean", "compare", "translate"),
    "lexicon-curate": ("lexicon_validate", "lexicon_clean", "lexicon_stats"),
    "train-explain": tuple(f"ml_train_{s}" for s, _ in ML_MODELS)
    + ("ml_eval", "ctx_generate", "ctx_train", "ctx_eval", "explain"),
}
ALL_STEPS = tuple(dict.fromkeys(s for steps in STEPS.values() for s in steps))


def chain(workload: str, inputs: Path, out: Path, size: str) -> list[tuple[str, list[str]]]:
    """The workload's commands, as a user would chain them on the CLI."""
    if workload == "score-translate":
        cleaned = str(out / "lexicon_clean" / "cleaned.csv")
        return [
            ("lexicon_clean", ["lexicon", "clean", "--in", str(inputs / "lexicon.csv"),
                               "--out", str(out / "lexicon_clean")]),
            ("compare", ["compare", "--lex", cleaned, "--in", str(inputs / "corpus.csv"),
                         "--out", str(out / "compare")]),
            ("translate", ["translate", "--lex", cleaned, "--in", str(inputs / "translate.csv"),
                           "--out", str(out / "translate")]),
        ]
    if workload == "lexicon-curate":
        raw = str(inputs / "raw.csv")
        return [
            ("lexicon_validate", ["lexicon", "validate", "--in", raw,
                                  "--out", str(out / "lexicon_validate")]),
            ("lexicon_clean", ["lexicon", "clean", "--in", raw,
                               "--out", str(out / "lexicon_clean")]),
            ("lexicon_stats", ["lexicon", "stats",
                               "--in", str(out / "lexicon_clean" / "cleaned.csv"),
                               "--out", str(out / "lexicon_stats")]),
        ]
    lexicon = str(inputs / "lexicon.csv")
    split = ["--seed", str(PROGRAM_SEED), "--train-fraction", str(TRAIN_FRACTION)]
    steps = [
        (f"ml_train_{short}", ["ml", "train", "--lex", lexicon, "--task", "pos",
                               "--model", model, "--out", str(out / f"ml_train_{short}"),
                               "--n-trees", str(N_TREES), "--epochs", str(SVM_EPOCHS), *split])
        for short, model in ML_MODELS
    ]
    model = str(out / "ctx_train" / "model.json")
    test = str(out / "ctx_train" / "test.tsv")
    steps += [
        ("ml_eval", ["ml", "eval", "--model", str(out / "ml_train_rf" / "model.json"),
                     "--lex", lexicon, "--out", str(out / "ml_eval"), *split]),
        ("ctx_generate", ["ctx", "generate", "--lex", lexicon, "--language", "english",
                          "-n", str(CTX_SENTENCES[size]), "--seed", str(PROGRAM_SEED),
                          "--out", str(out / "ctx_generate")]),
        ("ctx_train", ["ctx", "train", "--corpus", str(out / "ctx_generate" / "corpus.tsv"),
                       "--epochs", str(CTX_EPOCHS), "--seed", str(PROGRAM_SEED),
                       "--out", str(out / "ctx_train")]),
        ("ctx_eval", ["ctx", "eval", "--model", model, "--corpus", test,
                      "--out", str(out / "ctx_eval")]),
        ("explain", ["explain", "--model", model, "--corpus", test,
                     "--out", str(out / "explain")]),
    ]
    return steps


def run_pass(workload: str, inputs: Path, out: Path, size: str,
             tracer: tracing.Tracer | None = None) -> dict:
    """Run the chain once.

    Returns each step's wall time, the same scaled to nominal machine speed
    by :mod:`reference`, and the failures.
    """
    from lexisent import cli

    times: dict[str, float] = {}
    scaled: dict[str, float] = {}
    failures: dict[str, list[str]] = {}
    sink = io.StringIO()
    before = reference.seconds()
    for step, argv in chain(workload, inputs, out, size):
        span = tracer.span(f"cli.{step}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except Exception:  # a crashing command is a failed operation, not a crashed run
            code = None
            failures.setdefault(step, []).append(traceback.format_exc(limit=3))
        times[step] = time.perf_counter() - start
        after = reference.seconds()
        scaled[step] = reference.scaled(times[step], before, after)
        before = after
        if code != 0:
            failures.setdefault(step, []).append(f"exit code {code}: {sink.getvalue()[-300:]}")
        sink.seek(0)
        sink.truncate()
    return {"wall": times, "steps": scaled, "chain_s": sum(scaled.values()),
            "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(STEPS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--golden", default=None, help="golden file to compare with")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    inputs, out = Path(args.inputs), Path(args.out)
    properties = json.loads((inputs / "properties.json").read_text(encoding="utf-8"))
    golden = json.loads(Path(args.golden).read_text(encoding="utf-8")) if args.golden else None
    tracer = tracing.Tracer() if args.trace else None
    steps = STEPS[args.workload]
    passes = []

    def one(kind: str) -> dict:
        if kind == "traced":
            tracer.pass_id = len(passes)
            with tracing.installed(tracer):
                result = run_pass(args.workload, inputs, out, args.size, tracer)
        else:
            result = run_pass(args.workload, inputs, out, args.size)
        found = gate.check(args.workload, out, inputs, properties, golden)
        for step, problems in found.items():
            result["failures"].setdefault(step, []).extend(problems)
        result["kind"] = kind
        passes.append(result)
        return result

    one("warmup")
    kinds = ("untraced", "traced") if args.trace else ("untraced",)
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for kind in kinds:
            one(kind)
        now = time.perf_counter()
        # Stop when another round like this one would end past the budget.
        if now + (now - round_start) - started > args.seconds:
            break

    report = {
        "passes": passes,
        "attempted": len(steps) * len(passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": gate.output_properties(args.workload, out),
    }
    if tracer is not None:
        report["layers"] = [
            tracing.layer_metrics(tracing.pass_spans(tracer.spans, i), ALL_STEPS)
            for i, p in enumerate(passes) if p["kind"] == "traced"
        ]
        if args.spans:
            tracer.write_csv(args.spans)
    Path(args.result).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
