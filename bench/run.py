"""Benchmark of the ``lexisent`` CLI chains.

Run from the root of a checkout::

    python3 bench/run.py --workload score-translate --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --seed 0            # all three workloads, one at a time

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``score-translate``: ``lexicon clean`` -> ``compare`` -> ``translate --in``;
* ``lexicon-curate``: ``lexicon validate`` -> ``lexicon clean`` -> ``lexicon stats``;
* ``train-explain``: ``ml train`` x4 -> ``ml eval`` -> ``ctx generate`` ->
  ``ctx train`` -> ``ctx eval`` -> ``explain --corpus``.

A run generates the workload's inputs from ``--seed`` (:mod:`generate`), times
set-up in fresh interpreters, then runs the chain in one child process
(:mod:`worker`) with BLAS pinned to one thread: a warm-up pass, then passes
until ``--seconds`` is used up. Every pass is checked by :mod:`gate`; at the
default seed its outputs must also match ``bench/golden``. Timings are medians
over the timed passes of wall times scaled to nominal machine speed by
:mod:`reference`; the raw wall times are in the run record.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with ``--trace
1``. The lines before it print every metric of the workload by name and unit,
and the run record (machine, versions, seed, input properties) is written to
``.bench_out/``.
"""

from __future__ import annotations

import os

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import generate  # noqa: E402

SETUP_REPEATS = 7
# Each run must end within this many seconds, set-up included.
RUN_DEADLINE_S = 170.0
# Fixed so that set and dict layouts, and with them timings, repeat across runs.
CHILD_HASH_SEED = "0"

LEXICON_FILE = {"score-translate": "lexicon.csv", "lexicon-curate": "raw.csv",
                "train-explain": "lexicon.csv"}

# Every end-to-end metric and its unit. BENCHMARK.json gates the ones that
# every workload measures; the others are printed and recorded.
END_TO_END = {
    "setup_s": "s",
    "chain_s": "s",
    "score_sentences_per_s": "sentences/s",
    "translate_sentences_per_s": "sentences/s",
    "curate_rows_per_s": "rows/s",
    "ml_train_dt_s": "s",
    "ml_train_rf_s": "s",
    "ml_train_nb_s": "s",
    "ml_train_svm_s": "s",
    "ml_eval_s": "s",
    "ctx_train_s": "s",
    "explain_sentences_per_s": "sentences/s",
    "peak_rss_mb": "MB",
    "failed_frac": "fraction",
}


def child_env(root: Path) -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = CHILD_HASH_SEED
    return env


SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[2])
import reference
before = reference.seconds()
start = time.perf_counter()
import lexisent.cli
from pathlib import Path
from lexisent.lexicon import parse_lexicon
parse_lexicon(Path(sys.argv[1]).read_bytes())
wall = time.perf_counter() - start
print(repr(wall), repr(reference.scaled(wall, before, reference.seconds())))
"""


def measure_setup(root: Path, lexicon: Path, deadline: float) -> tuple[list[float], list[float]]:
    """``import lexisent.cli`` plus parsing the input lexicon, each time in a
    fresh interpreter: (wall times, the same scaled to nominal speed). The
    first, which may compile bytecode, is dropped."""
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(lexicon), str(BENCH)], env=child_env(root),
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
            check=True)
        w, s = done.stdout.split()
        wall.append(float(w))
        scaled.append(float(s))
    return wall[1:], scaled[1:]


def end_to_end(workload: str, report: dict, setup: list[float], properties: dict) -> dict:
    """The workload's end-to-end metrics from its untraced timed passes."""
    timed = [p for p in report["passes"] if p["kind"] == "untraced"]

    def step(name):
        return statistics.median(p["steps"][name] for p in timed)

    m = {
        "setup_s": statistics.median(setup),
        "chain_s": statistics.median(p["chain_s"] for p in timed),
        "peak_rss_mb": report["peak_rss_mb"],
        "failed_frac": report["failed"] / report["attempted"],
    }
    if workload == "score-translate":
        sentences = properties["corpus"]["sentences"]
        m["score_sentences_per_s"] = sentences / step("compare")
        m["translate_sentences_per_s"] = sentences / step("translate")
    elif workload == "lexicon-curate":
        m["curate_rows_per_s"] = properties["rows"] / m["chain_s"]
    else:
        for short in ("dt", "rf", "nb", "svm"):
            m[f"ml_train_{short}_s"] = step(f"ml_train_{short}")
        m["ml_eval_s"] = step("ml_eval")
        m["ctx_train_s"] = step("ctx_train")
        m["explain_sentences_per_s"] = report["outputs"]["explain_sentences"] / step("explain")
    return m


def per_layer(report: dict) -> dict:
    """Median over the traced passes of each per-layer metric, plus the
    tracing overhead: traced minus untraced median ``chain_s``."""
    layers = report["layers"]
    m = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    traced = statistics.median(p["chain_s"] for p in report["passes"] if p["kind"] == "traced")
    untraced = statistics.median(p["chain_s"] for p in report["passes"] if p["kind"] == "untraced")
    m["trace.traced_chain_s"] = traced
    m["trace.untraced_chain_s"] = untraced
    m["trace.overhead_s"] = traced - untraced
    return m


def _layer_unit(name: str) -> str:
    for suffix, unit in ((".busy_s", "s"), (".wall_s", "s"), (".residual_s", "s"),
                         ("_chain_s", "s"), (".overhead_s", "s"), (".calls", "count"),
                         (".changes", "count"), (".bytes", "bytes"),
                         ("rows_per_s", "rows/s"), ("sentences_per_s", "sentences/s"),
                         ("trees_per_s", "trees/s"), ("updates_per_s", "updates/s"),
                         ("_per_sentence", "calls/sentence"), ("_delta", "nats")):
        if name.endswith(suffix):
            return unit
    if ".tokens_per_s" in name:
        return "tokens/s"
    return "fraction"


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, to tell checkouts without git apart."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_revision(root: Path) -> str | None:
    """HEAD's commit from ``.git`` in the checkout, or None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(root: Path, args, properties: dict) -> dict:
    import numpy

    config = numpy.show_config(mode="dicts")
    return {
        "nproc": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas"),
        "thread_pins": THREAD_PINS,
        "python_hash_seed": CHILD_HASH_SEED,
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "input_properties": properties,
    }


def run_workload(root: Path, args) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = root / ".bench_out"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        inputs = work / "inputs"
        properties = generate.generate(args.workload, args.seed, inputs, args.size)
        setup_wall, setup = measure_setup(root, inputs / LEXICON_FILE[args.workload], deadline)
        golden = gate.GOLDEN_DIR / f"{args.workload}.json"
        command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                   "--inputs", str(inputs), "--out", str(work / "out"),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--size", args.size, "--result", str(work / "result.json"),
                   "--spans", str(results / f"{stem}-spans.csv")]
        if args.seed == gate.DEFAULT_SEED and args.size == "full":
            command += ["--golden", str(golden)]
        subprocess.run(command, env=child_env(root), check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        report = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    properties["outputs"] = report["outputs"]
    e2e = end_to_end(args.workload, report, setup, properties)
    record = run_record(root, args, properties)
    record.update(
        attempted=report["attempted"], failed=report["failed"],
        failures=[{"pass": i, "kind": p["kind"], "step": s, "messages": m[:5]}
                  for i, p in enumerate(report["passes"]) for s, m in p["failures"].items()],
        passes=[{"kind": p["kind"], "chain_s": p["chain_s"], "steps": p["steps"],
                 "wall": p["wall"]} for p in report["passes"]],
        setup_s_samples=setup,
        setup_wall_s_samples=setup_wall,
        end_to_end={k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
    )
    print(f"# {args.workload} seed={args.seed} passes={len(record['passes'])} "
          f"attempted={report['attempted']} failed={report['failed']}")
    for failure in record["failures"]:
        print(f"# FAILED pass {failure['pass']} {failure['step']}: {failure['messages'][0]}")
    for name, unit in END_TO_END.items():
        if name in e2e:
            print(f"{args.workload}  {name:<28} {e2e[name]:>14.6g} {unit}")
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        layers = per_layer(report)
        record["per_layer"] = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
        for name, metric in record["per_layer"].items():
            print(f"{args.workload}  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
        wanted, source = declared["per_layer"], record["per_layer"]
    else:
        wanted, source = declared["end_to_end"], record["end_to_end"]
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    metrics = {m["name"]: source[m["name"]] for m in wanted}
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in generate.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, timeout=RUN_DEADLINE_S + 10)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"][workload] = result["metrics"]
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=generate.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(generate.SIZES), default="full",
                        help="input size; 'tiny' is for the self-tests")
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "lexisent" / "cli.py").is_file():
        print(f"error: {root} holds no src/lexisent; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(root, args)


if __name__ == "__main__":
    raise SystemExit(main())
