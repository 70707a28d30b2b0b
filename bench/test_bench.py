"""Self-tests of the benchmark: generator, workloads, gate and span arithmetic.

Run from the repository root with ``PYTHONPATH=src python -m pytest -q bench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import generate  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from worker import ALL_STEPS, run_pass  # noqa: E402


def _data_files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.name != "properties.json"}


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_is_byte_identical_per_seed_and_differs_across_seeds(tmp_path, workload):
    generate.generate(workload, 5, tmp_path / "a", "tiny")
    generate.generate(workload, 5, tmp_path / "b", "tiny")
    generate.generate(workload, 6, tmp_path / "c", "tiny")
    first = _data_files(tmp_path / "a")
    assert first and first == _data_files(tmp_path / "b")
    other = _data_files(tmp_path / "c")
    assert all(first[name] != other[name] for name in first)


def test_generator_plants_phrases_shared_forms_and_dirty_rows(tmp_path):
    props = generate.generate("score-translate", 1, tmp_path / "st", "tiny")
    languages = props["lexicon"]["per_language"]
    assert languages["zulu"]["longest_phrase"] == 1
    assert all(languages[lang]["longest_phrase"] >= 4
               for lang in generate.LANGUAGES if lang != "zulu")
    assert all(languages[lang]["ambiguous_form_share"] > 0 for lang in generate.LANGUAGES)
    assert 0 < props["corpus"]["out_of_lexicon_share"] < 0.2
    curate = generate.generate("lexicon-curate", 1, tmp_path / "lc", "tiny")
    assert curate["dirty_row_share"] > 0 and curate["duplicate_row_share"] > 0


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_workload_completes_at_tiny_size_without_failures(workload):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert any(line.split()[1:3] == ["failed_frac", "0"] for line in lines if len(line.split()) > 2)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "score-translate"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


@pytest.fixture(scope="module")
def train_explain_pass(tmp_path_factory):
    work = tmp_path_factory.mktemp("train-explain")
    properties = generate.generate("train-explain", 2, work / "inputs", "tiny")
    result = run_pass("train-explain", work / "inputs", work / "out", "tiny")
    assert not result["failures"]
    return work / "out", work / "inputs", properties


def test_gate_reports_a_perturbed_golden_value(train_explain_pass):
    out, inputs, properties = train_explain_pass
    golden = gate.snapshot("train-explain", out, inputs)
    assert gate.check("train-explain", out, inputs, properties, golden) == {}

    def perturbed(kind, key, change):
        copy = json.loads(json.dumps(golden))
        copy[kind][key] = change(copy[kind][key])
        return gate.check("train-explain", out, inputs, properties, copy)

    assert set(perturbed("sha256", "ml_train_dt/test_predictions", lambda d: "0" * 64)) == {
        "ml_train_dt"}
    assert set(perturbed("exact", "ctx_eval/accuracy", lambda a: a + 1e-12)) == {"ctx_eval"}
    assert set(perturbed("approx", "ctx_train/bias",
                         lambda v: [v[0] * (1 + 1e-5) + 1e-9] + v[1:])) == {"ctx_train"}
    # Reassociation-sized differences stay within the tolerance.
    assert perturbed("approx", "explain/attributions",
                     lambda v: [x * (1 + 1e-12) for x in v]) == {}


def test_gate_invariants_catch_a_wrong_sentence_total(tmp_path):
    properties = generate.generate("score-translate", 2, tmp_path / "inputs", "tiny")
    out = tmp_path / "out"
    assert not run_pass("score-translate", tmp_path / "inputs", out, "tiny")["failures"]
    assert gate.check("score-translate", out, tmp_path / "inputs", properties, None) == {}
    table = out / "compare" / "comparison.csv"
    lines = table.read_text(encoding="utf-8").splitlines()
    cells = lines[1].rsplit(",", 8)
    cells[1] = f"{float(cells[1]) + 1:.6f}"
    lines[1] = ",".join(cells)
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert set(gate.check("score-translate", out, tmp_path / "inputs", properties, None)) == {
        "compare"}


def test_self_time_and_busy_time_on_a_hand_built_span_tree():
    spans = [
        Span("cli.compare", 0.0, 10.0, -1, 0),
        Span("lexicon.parse", 1.0, 3.0, 0, 0),
        Span("lexicon.build", 2.0, 2.5, 1, 0),
        Span("scoring.score_batch", 4.0, 9.0, 0, 0),
        Span("svg.charts", 4.5, 6.0, 3, 0),
        Span("svg.charts", 5.0, 5.5, 4, 0),
        Span("svg.charts", 7.0, 8.0, 3, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 0.5, 2.5, 1.0, 0.5, 1.0])
    busy = tracing.busy_times(spans)
    assert busy["svg.charts"] == pytest.approx(2.5)  # the nested call is not counted twice
    assert busy["cli.compare"] == pytest.approx(10.0)
    metrics = tracing.layer_metrics(spans, ALL_STEPS)
    assert metrics["cli.compare.wall_s"] == pytest.approx(10.0)
    assert metrics["cli.compare.residual_s"] == pytest.approx(3.0)
    assert metrics["lexicon.parse.busy_s"] == pytest.approx(2.0)
    assert tracing.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 5.5) == pytest.approx(3.5)


def test_tracing_rebinds_imported_names_and_restores_them():
    from lexisent import scoring, translator

    original = translator.tokenize
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert scoring.tokenize is translator.tokenize is not original
    assert scoring.tokenize is translator.tokenize is original
