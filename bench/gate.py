"""Correctness gate for one pass of a workload's CLI chain.

Two kinds of check, each attributed to the chain step whose outputs it reads:

* invariants, at any seed: row counts match the inputs, every
  ``total_score_*`` equals the sum of its word scores, cleaning and validation
  agree on what they found, saved models reproduce their reported accuracy,
  and every IG convergence delta stays within ``IG_DELTA_BOUND``;
* golden values, at the default seed and full size only: SHA-256 digests of
  the byte-exact outputs and test-split predictions, exact accuracies, and
  model weights, training losses and IG attributions, which may differ from
  the golden file by at most ``REL_TOLERANCE`` relative (``ABS_TOLERANCE``
  absolute near 0).

The tolerance admits floating-point reassociation, such as a vectorized sum
replacing a loop, but not changed behaviour: one more epoch, a different
step scheme or a different split moves these values by far more.

``python3 bench/gate.py --write-golden`` rewrites ``bench/golden/*.json`` from
the current program; do so only for a change meant to alter outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

DEFAULT_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REL_TOLERANCE = 1e-7
ABS_TOLERANCE = 1e-10
# Trapezoid IG at 50 steps leaves |delta| below 1e-6 on these inputs; a
# broken integral or gradient leaves deltas of the order of the score itself.
IG_DELTA_BOUND = 1e-3

BYTE_EXACT = {
    "score-translate": ("lexicon_clean/cleaned.csv", "lexicon_clean/cleaning_report.json",
                        "compare/comparison.csv", "translate/translations.csv"),
    "lexicon-curate": ("lexicon_validate/validation_report.json",
                       "lexicon_clean/cleaned.csv", "lexicon_clean/cleaning_report.json",
                       "lexicon_stats/eda.json"),
    "train-explain": (),
}
ML_STEPS = ("ml_train_dt", "ml_train_rf", "ml_train_nb", "ml_train_svm")


def _csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))[1:]


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _loss_value(cell: str) -> float:
    # ``history_csv`` writes repr() of numpy scalars, which numpy 2 renders
    # as "np.float64(0.5)". The number inside is what the gate checks.
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


def _word_score_sum(cell: str) -> float:
    return math.fsum(float(item.rsplit(":", 1)[1]) for item in cell.split("; ") if item)


class _Problems:
    """Failure messages grouped by chain step."""

    def __init__(self):
        self.by_step: dict[str, list[str]] = {}

    def add(self, step: str, message: str) -> None:
        self.by_step.setdefault(step, []).append(message)

    def expect(self, step: str, ok: bool, message: str) -> None:
        if not ok:
            self.add(step, message)


def _ml_predictions(out: Path, inputs: Path) -> dict[str, tuple[list[int], float]]:
    """Each saved model's test-split predictions and their accuracy."""
    from lexisent import ml
    from lexisent.lexicon import parse_lexicon

    from worker import PROGRAM_SEED, TRAIN_FRACTION

    dataset = ml.featurize(parse_lexicon((inputs / "lexicon.csv").read_bytes()), task="pos")
    _, test = ml.split(dataset, TRAIN_FRACTION, PROGRAM_SEED)
    result = {}
    for step in ML_STEPS:
        model = ml.load_model((out / step / "model.json").read_text(encoding="utf-8"))
        predicted = [int(p) for p in model.predict(test.X)]
        correct = sum(1 for p, t in zip(predicted, test.y) if p == t)
        result[step] = (predicted, correct / len(predicted))
    return result


def _invariants(workload: str, out: Path, inputs: Path, properties: dict) -> _Problems:
    problems = _Problems()
    if workload == "score-translate":
        entries = properties["lexicon"]["entries"]
        report = _json(out / "lexicon_clean" / "cleaning_report.json")
        cleaned = _csv(out / "lexicon_clean" / "cleaned.csv")
        problems.expect("lexicon_clean", len(cleaned) == entries - len(report["removed_duplicates"]),
                        f"cleaned rows {len(cleaned)} != {entries} minus removed duplicates")
        corpus = _csv(inputs / "corpus.csv")
        rows = _csv(out / "compare" / "comparison.csv")
        problems.expect("compare", len(rows) == len(corpus),
                        f"comparison rows {len(rows)} != corpus rows {len(corpus)}")
        for i, row in enumerate(rows, start=1):
            for total, words in ((row[2], row[3]), (row[5], row[6])):
                if f"{_word_score_sum(words):.6f}" != total:
                    problems.add("compare", f"row {i}: total {total} is not the sum of {words!r}")
        asked = _csv(inputs / "translate.csv")
        done = _csv(out / "translate" / "translations.csv")
        problems.expect("translate", [r[:3] for r in done] == asked,
                        "translations.csv rows do not match the input rows")
    elif workload == "lexicon-curate":
        rows = properties["rows"]
        validation = _json(out / "lexicon_validate" / "validation_report.json")
        report = _json(out / "lexicon_clean" / "cleaning_report.json")
        cleaned = _csv(out / "lexicon_clean" / "cleaned.csv")
        problems.expect("lexicon_validate",
                        len(validation["duplicates"]) == len(report["removed_duplicates"]),
                        "validate and clean disagree on duplicates")
        problems.expect("lexicon_validate",
                        len(validation["unnormalized_forms"])
                        == len(report["normalized_forms"]) + len(report["dropped_forms"]),
                        "validate and clean disagree on unnormalized forms")
        problems.expect("lexicon_clean", len(cleaned) == rows - len(report["removed_duplicates"]),
                        f"cleaned rows {len(cleaned)} != {rows} minus removed duplicates")
        eda = _json(out / "lexicon_stats" / "eda.json")
        problems.expect("lexicon_stats", eda["entry_count"] == len(cleaned),
                        f"eda entry_count {eda['entry_count']} != cleaned rows {len(cleaned)}")
    else:
        entries = properties["lexicon"]["entries"]
        for step in ML_STEPS:
            dataset = _csv(out / step / "dataset.csv")
            problems.expect(step, len(dataset) == entries,
                            f"dataset rows {len(dataset)} != lexicon entries {entries}")
        predictions = _ml_predictions(out, inputs)
        for step in ML_STEPS:
            reported = _json(out / step / "metrics.json")["accuracy"]
            problems.expect(step, predictions[step][1] == reported,
                            f"saved model scores {predictions[step][1]}, metrics.json says {reported}")
        problems.expect("ml_eval", _json(out / "ml_eval" / "metrics.json")["accuracy"]
                        == _json(out / "ml_train_rf" / "metrics.json")["accuracy"],
                        "ml eval accuracy differs from ml train on the same split")
        generated = _lines(out / "ctx_generate" / "corpus.tsv")
        parts = [_lines(out / "ctx_train" / f"{name}.tsv")
                 for name in ("train", "validation", "test")]
        problems.expect("ctx_train", sorted(sum(parts, [])) == sorted(generated),
                        "train/validation/test split is not a partition of the corpus")
        losses = _csv(out / "ctx_train" / "loss.csv")
        problems.expect("ctx_train", all(math.isfinite(_loss_value(v)) for r in losses for v in r[1:]),
                        "non-finite training loss")
        test = parts[2]
        support = _json(out / "ctx_eval" / "metrics.json")["total_support"]
        problems.expect("ctx_eval", support == len(test),
                        f"ctx eval support {support} != test sentences {len(test)}")
        summary = _csv(out / "explain" / "summary.csv")
        problems.expect("explain", len(summary) == len(test),
                        f"explain summary rows {len(summary)} != test sentences {len(test)}")
        for i in range(1, len(test) + 1):
            delta = _json(out / "explain" / f"attribution_{i:04d}.json")["convergence_delta"]
            if not abs(delta) <= IG_DELTA_BOUND:
                problems.add("explain", f"sentence {i}: |IG delta| {abs(delta):.3g} > {IG_DELTA_BOUND}")
    return problems


def snapshot(workload: str, out: Path, inputs: Path) -> dict:
    """The values the golden file pins, keyed ``<step>/<name>``."""
    sha = {name: _sha((out / name).read_bytes()) for name in BYTE_EXACT[workload]}
    exact: dict[str, float] = {}
    approx: dict[str, list[float]] = {}
    if workload == "train-explain":
        for step, (predicted, _) in _ml_predictions(out, inputs).items():
            sha[f"{step}/test_predictions"] = _sha(",".join(map(str, predicted)).encode())
        for step in ML_STEPS + ("ml_eval", "ctx_eval"):
            exact[f"{step}/accuracy"] = _json(out / step / "metrics.json")["accuracy"]
        nb = _json(out / "ml_train_nb" / "model.json")["parameters"]
        for key in ("priors", "means", "variances"):
            approx[f"ml_train_nb/{key}"] = _flat(nb[key])
        approx["ml_train_svm/weights"] = _flat(
            _json(out / "ml_train_svm" / "model.json")["parameters"]["weights"])
        ctx = _json(out / "ctx_train" / "model.json")
        approx["ctx_train/weights"] = _flat(ctx["weights"])
        approx["ctx_train/bias"] = _flat(ctx["bias"])
        # Column sums and the sum of squares stand in for the (V, E) matrix.
        embeddings = ctx["embeddings"]
        approx["ctx_train/embedding_column_sums"] = [math.fsum(c) for c in zip(*embeddings)]
        approx["ctx_train/embedding_square_sum"] = [math.fsum(v * v for r in embeddings for v in r)]
        approx["ctx_train/loss"] = [_loss_value(v) for r in _csv(out / "ctx_train" / "loss.csv")
                                    for v in r[1:]]
        attributions = []
        for i in range(1, len(_csv(out / "explain" / "summary.csv")) + 1):
            per_token = _json(out / "explain" / f"attribution_{i:04d}.json")["per_token"]
            attributions.extend(value for _, value in per_token)
        approx["explain/attributions"] = attributions
    return {"sha256": sha, "exact": exact, "approx": approx}


def _flat(value) -> list[float]:
    if isinstance(value, list):
        return [x for item in value for x in _flat(item)]
    return [float(value)]


def compare(current: dict, golden: dict) -> dict[str, list[str]]:
    """Differences between a snapshot and the golden values, by step."""
    problems = _Problems()
    for key, digest in golden["sha256"].items():
        step = key.split("/", 1)[0]
        problems.expect(step, current["sha256"].get(key) == digest, f"{key} differs from golden")
    for key, value in golden["exact"].items():
        step = key.split("/", 1)[0]
        problems.expect(step, current["exact"].get(key) == value,
                        f"{key} is {current['exact'].get(key)!r}, golden {value!r}")
    for key, expected in golden["approx"].items():
        step = key.split("/", 1)[0]
        actual = current["approx"].get(key)
        if actual is None or len(actual) != len(expected):
            problems.add(step, f"{key}: shape differs from golden")
            continue
        worst = max((abs(a - e) - REL_TOLERANCE * abs(e) for a, e in zip(actual, expected)),
                    default=0.0)
        problems.expect(step, worst <= ABS_TOLERANCE,
                        f"{key} differs from golden beyond the tolerance")
    return problems.by_step


def check(workload: str, out: Path, inputs: Path, properties: dict,
          golden: dict | None) -> dict[str, list[str]]:
    """All failures of one pass, by step; empty when the pass is correct."""
    try:
        found = _invariants(workload, out, inputs, properties).by_step
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {"gate": [f"outputs unreadable: {exc!r}"]}
    if golden is not None:
        try:
            for step, problems in compare(snapshot(workload, out, inputs), golden).items():
                found.setdefault(step, []).extend(problems)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found.setdefault("gate", []).append(f"outputs unreadable: {exc!r}")
    return found


def output_properties(workload: str, out: Path) -> dict:
    """Properties of the program's own outputs that later optimizations depend on."""
    if workload != "train-explain":
        return {}
    model = _json(out / "ctx_train" / "model.json")
    return {
        "contextual_vocabulary": len(model["vocabulary"]),
        "contextual_embedding_dim": len(model["embeddings"][0]),
        "explain_sentences": len(_csv(out / "explain" / "summary.csv")),
    }


def main() -> int:
    import argparse
    import shutil
    import tempfile

    import generate
    from worker import run_pass

    parser = argparse.ArgumentParser(description="Rewrite the golden files.")
    parser.add_argument("--write-golden", action="store_true", required=True)
    parser.parse_args()
    GOLDEN_DIR.mkdir(exist_ok=True)
    work_root = Path.cwd() / ".bench_work"
    work_root.mkdir(exist_ok=True)
    for workload in generate.WORKLOADS:
        work = Path(tempfile.mkdtemp(prefix="golden-", dir=work_root))
        try:
            inputs = work / "inputs"
            properties = generate.generate(workload, DEFAULT_SEED, inputs)
            result = run_pass(workload, inputs, work / "out", "full")
            found = _invariants(workload, work / "out", inputs, properties).by_step
            if result["failures"] or found:
                print(json.dumps({**result["failures"], **found}, indent=2))
                return 1
            golden = {"workload": workload, "seed": DEFAULT_SEED, "size": "full",
                      **snapshot(workload, work / "out", inputs)}
            path = GOLDEN_DIR / f"{workload}.json"
            path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"wrote {path}")
        finally:
            shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
