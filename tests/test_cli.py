from __future__ import annotations

import argparse
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import lexisent
from lexisent import cli, ml, scoring
from lexisent.artifact import FORMAT_VERSION
from lexisent.cli import build_parser, main
from lexisent.contextual import LOSS_EXPLOSION_FACTOR
from lexisent.lexicon import (
    CSV_HEADER,
    LanguageCode,
    Lexicon,
    csv_text,
    json_text,
    parse_lexicon,
    serialize_lexicon,
)
from lexisent.translator import translate

from conftest import build_ctx_lexicon


@pytest.fixture
def paper_lex_file(tmp_path, paper_lexicon):
    path = tmp_path / "lexicon.csv"
    path.write_bytes(serialize_lexicon(paper_lexicon))
    return path


@pytest.fixture
def ctx_lex_file(tmp_path):
    path = tmp_path / "ctx_lexicon.csv"
    path.write_bytes(serialize_lexicon(build_ctx_lexicon()))
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_dir(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1

    def test_missing_required_flag(self):
        assert run("lexicon", "stats") == 1

    def test_missing_input_file(self, tmp_path):
        assert run("lexicon", "stats", "--in", tmp_path / "nope.csv",
                   "--out", tmp_path / "out") == 2

    def test_malformed_lexicon(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,lexicon\n1,2,3\n")
        assert run("lexicon", "validate", "--in", bad) == 2
        assert f"{bad}: [row 0] bad header" in capsys.readouterr().err

    def test_success(self, paper_lex_file, capsys):
        assert run("lexicon", "validate", "--in", paper_lex_file) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["issue_count"] == 0


# Every leaf subcommand's options. A flag added or removed shows up here.
CLI_SURFACE = {
    "lexicon validate": {"--in", "--out"},
    "lexicon clean": {"--in", "--out"},
    "lexicon stats": {"--in", "--out"},
    "translate": {"--lex", "--text", "--from", "--to", "--in", "--out"},
    "compare": {"--lex", "--in", "--out"},
    "ml train": {"--lex", "--task", "--model", "--out", "--train-fraction", "--seed",
                 "--max-depth", "--min-samples-split", "--n-trees", "--no-bootstrap",
                 "--no-feature-subsample", "--var-smoothing", "--lam", "--epochs"},
    "ml eval": {"--model", "--lex", "--out", "--train-fraction", "--seed"},
    "ctx generate": {"--lex", "--language", "--count", "--seed", "--label-weights", "--out"},
    "ctx train": {"--corpus", "--out", "--epochs", "--learning-rate", "--seed",
                  "--embedding-dim", "--window", "--batch-size", "--uniform-weights"},
    "ctx eval": {"--model", "--corpus", "--out"},
    "explain": {"--model", "--text", "--corpus", "--out", "--steps", "--target-class"},
}


def leaf_options(parser, path=()):
    subcommands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subcommands:
        yield " ".join(path), {
            a.option_strings[-1] for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
    for action in subcommands:
        for name, sub in action.choices.items():
            yield from leaf_options(sub, path + (name,))


class TestCliSurface:
    def test_options_per_subcommand(self):
        assert dict(leaf_options(build_parser())) == CLI_SURFACE
        assert sum(len(options) for options in CLI_SURFACE.values()) == 58

    @pytest.mark.parametrize("argv", [
        ("lexicon", "validate", "--in", "lexicon.csv", "--threads", "2"),
        ("compare", "--lex", "l.csv", "--in", "s.csv", "--out", "o", "--mode", "avg"),
        ("ml", "eval", "--model", "m.json", "--lex", "l.csv", "--out", "o", "--task", "pos"),
        ("compare", "--lex", "l.csv", "--in", "s.csv", "--out", "o", "--baseline", "zero"),
        ("explain", "--model", "m.json", "--text", "a [TARGET] b [/TARGET]", "--out", "o",
         "--scheme", "right"),
        ("explain", "--model", "m.json", "--text", "a [TARGET] b [/TARGET]", "--out", "o",
         "--baseline", "pad"),
    ])
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        assert run(*argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_score_is_an_unknown_command(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("score", "--lex", "l.csv", "--in", "s.csv", "--out", out) == 1
        assert "invalid choice: 'score'" in capsys.readouterr().err
        assert not out.exists()

    def test_docstring_lists_exactly_the_leaf_commands(self):
        """The module docstring's ``Subcommands:`` list, ``lexicon
        validate|clean|stats`` read as three commands, is the parser's."""
        listed = re.search(r"^Subcommands:(.*?)\.$", cli.__doc__, re.M | re.S).group(1)
        named = set()
        for item in re.findall(r"``([^`]+)``", listed):
            group, _, leaves = item.rpartition(" ")
            named |= {f"{group} {leaf}".strip() for leaf in leaves.split("|")}
        assert named == set(dict(leaf_options(build_parser())))

    def test_docstring_counts_the_objects_a_parser_leaves_in_cycles(self):
        """:func:`cli.main` pauses the collector on the ground that each
        :func:`build_parser` call leaves a fixed number of objects in cycles;
        the number its docstring gives is the one the collector finds."""
        stated = int(re.search(r"the (\d+) objects that each", " ".join(cli.main.__doc__.split()))
                     .group(1))
        collecting = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            build_parser()
            found = gc.collect()
        finally:
            if collecting:
                gc.enable()
        assert found == stated


class TestLexiconCommands:
    def test_clean_writes_report_and_csv(self, tmp_path, paper_lex_file):
        out = tmp_path / "cleaned"
        assert run("lexicon", "clean", "--in", paper_lex_file, "--out", out) == 0
        files = read_dir(out)
        assert {"cleaned.csv", "cleaning_report.json", "run_config.json",
                "manifest.json"} <= set(files)
        manifest = json.loads(files["manifest.json"])
        assert "cleaned.csv" in manifest["files"]

    def test_cleaned_csv_keeps_a_form_holding_a_carriage_return(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_bytes(serialize_lexicon(Lexicon([])) + 'mot,,"a\rb",,,,mot,1,,,,,,\n'.encode())
        assert run("lexicon", "clean", "--in", raw, "--out", tmp_path / "clean") == 0
        cleaned = tmp_path / "clean" / "cleaned.csv"
        assert b'"a\rb"' in cleaned.read_bytes()
        capsys.readouterr()
        assert run("lexicon", "validate", "--in", cleaned) == 0
        assert json.loads(capsys.readouterr().out)["issue_count"] == 0
        forms = parse_lexicon(cleaned.read_bytes()).entries[0].forms
        assert forms[LanguageCode.ENGLISH] == "a\rb"

    def test_stats_emits_charts(self, tmp_path, paper_lex_file):
        out = tmp_path / "stats"
        assert run("lexicon", "stats", "--in", paper_lex_file, "--out", out) == 0
        files = read_dir(out)
        assert {"eda.json", "polarity_counts.svg", "pos_by_polarity.svg",
                "score_densities.svg", "correlation_matrix.svg"} <= set(files)
        assert files["polarity_counts.svg"].startswith(b"<svg")

    def test_input_file_untouched(self, tmp_path, paper_lex_file):
        before = paper_lex_file.read_bytes()
        run("lexicon", "stats", "--in", paper_lex_file, "--out", tmp_path / "s")
        run("lexicon", "clean", "--in", paper_lex_file, "--out", tmp_path / "c")
        assert paper_lex_file.read_bytes() == before

    def test_deterministic_outputs(self, tmp_path, paper_lex_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run("lexicon", "stats", "--in", paper_lex_file, "--out", out1)
        run("lexicon", "stats", "--in", paper_lex_file, "--out", out2)
        files1, files2 = read_dir(out1), read_dir(out2)
        assert set(files1) == set(files2)
        for name in files1:
            if name != "run_config.json" and name != "manifest.json":
                assert files1[name] == files2[name], name


class TestLookupTablesStayUncompiled:
    @pytest.fixture
    def no_tables(self, monkeypatch):
        def refuse(lexicon):
            raise AssertionError("lookup tables compiled")

        monkeypatch.setattr(Lexicon._tables, "func", refuse)

    def test_commands_that_never_look_up_a_form(self, tmp_path, paper_lex_file, no_tables):
        assert run("lexicon", "validate", "--in", paper_lex_file) == 0
        assert run("lexicon", "clean", "--in", paper_lex_file, "--out", tmp_path / "c") == 0
        assert run("lexicon", "stats", "--in", tmp_path / "c" / "cleaned.csv",
                   "--out", tmp_path / "s") == 0
        assert run("ml", "train", "--lex", paper_lex_file, "--model", "gaussian_nb",
                   "--out", tmp_path / "m") == 0
        assert run("ml", "eval", "--model", tmp_path / "m" / "model.json",
                   "--lex", paper_lex_file, "--out", tmp_path / "e") == 0

    def test_a_command_that_tokenizes_does(self, paper_lex_file, no_tables):
        with pytest.raises(AssertionError, match="lookup tables compiled"):
            run("translate", "--lex", paper_lex_file, "--text", "I am happy",
                "--from", "english", "--to", "french")


class TestTranslateCommand:
    def test_single_sentence_to_stdout(self, paper_lex_file, capsys):
        assert run("translate", "--lex", paper_lex_file, "--text", "Ek vertrou haar",
                   "--from", "afrikaans", "--to", "english") == 0
        assert capsys.readouterr().out.strip() == "i trust her"

    def test_text_requires_languages(self, paper_lex_file):
        assert run("translate", "--lex", paper_lex_file, "--text", "hi") == 1

    @pytest.mark.parametrize("given", [
        ("--text", "bon", "--from", "french", "--to", "english", "--in", "x.csv"),
        (),
    ])
    def test_takes_exactly_one_of_text_or_in(self, tmp_path, given, capsys):
        # The lexicon does not exist: the flags are refused before it is read.
        assert run("translate", "--lex", tmp_path / "missing.csv", *given,
                   "--out", tmp_path / "y") == 1
        assert "usage error: provide exactly one of --text or --in\n" in capsys.readouterr().err
        assert not (tmp_path / "y").exists()

    def test_text_refuses_out(self, tmp_path, capsys):
        # The lexicon does not exist: the flag is refused before it is read.
        assert run("translate", "--lex", tmp_path / "missing.csv", "--text", "bon",
                   "--from", "french", "--to", "english", "--out", tmp_path / "y") == 1
        assert ("usage error: --out applies only to --in; --text prints its translation\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "y").exists()

    @pytest.mark.parametrize("given", [("--from", "klingon"), ("--to", "english")])
    def test_in_refuses_from_and_to(self, tmp_path, given, capsys):
        assert run("translate", "--lex", tmp_path / "missing.csv", "--in", tmp_path / "x.csv",
                   "--out", tmp_path / "y", *given) == 1
        assert ("usage error: --from and --to apply only to --text; --in reads them per row\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "y").exists()

    @pytest.mark.parametrize("argv, flag", [
        ("translate --text hi --from klingon --to english", "--from"),
        ("translate --text hi --from english --to klingon", "--to"),
        ("ctx generate --language klingon -n 5 --out {out}", "--language"),
    ], ids=["translate-from", "translate-to", "ctx-generate"])
    def test_unknown_language(self, tmp_path, argv, flag, capsys):
        # The lexicon does not exist: the language is refused before it is read.
        out = tmp_path / "out"
        assert run(*argv.format(out=out).split(), "--lex", tmp_path / "missing.csv") == 2
        assert capsys.readouterr().err == (
            f"error: {flag} unknown language 'klingon' "
            "(expected one of: french, ciluba, english, afrikaans, sepedi, zulu)\n")
        assert not out.exists()

    def test_batch(self, tmp_path, paper_lex_file):
        sentences = tmp_path / "sentences.csv"
        sentences.write_text(
            "sentence,source_language,target_language\n"
            '"Thank you.",english,french\n'
            '"Go tšhaba go wa.",sepedi,english\n',
            encoding="utf-8",
        )
        out = tmp_path / "translated"
        assert run("translate", "--lex", paper_lex_file, "--in", sentences,
                   "--out", out) == 0
        text = (out / "translations.csv").read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "sentence,source_language,target_language,translated_text"
        assert lines[1].endswith("merci")
        assert lines[2].endswith("to fear to fall")

    def test_batch_preserves_order(self, tmp_path, paper_lex_file):
        sentences = tmp_path / "sentences.csv"
        sentences.write_text(
            "sentence,source_language,target_language\n"
            "Ek vertrou haar,afrikaans,english\n"
            '"Thank you.",english,ciluba\n',
            encoding="utf-8",
        )
        out = tmp_path / "translated"
        assert run("translate", "--lex", paper_lex_file, "--in", sentences,
                   "--out", out) == 0
        lines = (out / "translations.csv").read_text(encoding="utf-8").splitlines()
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == [
            "i trust her", "tuasakadila"]


class TestScoreCommands:
    @pytest.fixture
    def sentences_file(self, tmp_path):
        path = tmp_path / "sents.csv"
        path.write_text(
            "sentence,language\n"
            '"I want food.",english\n'
            '"Go tšhaba go wa.",sepedi\n',
            encoding="utf-8",
        )
        return path

    def test_compare_layout(self, tmp_path, paper_lex_file, sentences_file):
        out = tmp_path / "scored"
        assert run("compare", "--in", sentences_file, "--lex", paper_lex_file,
                   "--out", out) == 0
        lines = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "sentence,language,total_score_avg,word_scores_avg,sentiment_avg,"
            "total_score_v2,word_scores_v2,sentiment_v2,"
            "baseline_compound,baseline_sentiment"
        )
        assert "6.500000" in lines[1] and "7.000000" in lines[1]
        assert "-1.000000" in lines[2] and "negative" in lines[2]

    def test_compare_reports_agreement(self, tmp_path, paper_lex_file, sentences_file):
        out = tmp_path / "compared"
        assert run("compare", "--in", sentences_file, "--lex", paper_lex_file,
                   "--out", out) == 0
        report = json.loads((out / "comparison.json").read_text())
        assert 0.0 <= report["agreement"] <= 1.0
        assert len(report["rows"]) == 2


#: Sentences of every polarity in four languages; some hold a comma, a quote
#: or a line break, which the CSV quotes and the JSON escapes.
STREAMED_SENTENCES = [
    ("I want food and I am happy today, what do you want to do with uncle", "english"),
    ("Je suis heureux aujourd'hui, je veux danser avec vous", "french"),
    ("Go tšhaba go wa.", "sepedi"),
    ('Ek vertrou haar\nen "ek" is gelukkig', "afrikaans"),
    ("what", "english"),
]


def sentence_files(directory: Path, rows) -> tuple[Path, Path]:
    """``compare`` and ``translate --in`` inputs in ``directory``: the
    ``(sentence, language)`` ``rows``, translated to English."""
    directory.mkdir(exist_ok=True)
    sentences, pairs = directory / "sentences.csv", directory / "pairs.csv"
    sentences.write_bytes(csv_text([("sentence", "language"), *rows]).encode("utf-8"))
    pairs.write_bytes(csv_text([("sentence", "source_language", "target_language"),
                                *((s, language, "english") for s, language in rows)]
                               ).encode("utf-8"))
    return sentences, pairs


class TestStreamedFiles:
    """``compare`` and ``translate --in`` write their files a block of rows at
    a time: the bytes are those of the whole batch built at once, and memory
    grows little with the sentence count."""

    @pytest.mark.parametrize("n", [1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
    def test_the_files_equal_the_whole_batch(self, tmp_path, paper_lex_file, n, capsys):
        rows = [STREAMED_SENTENCES[i % len(STREAMED_SENTENCES)] for i in range(n)]
        sentences, pairs = sentence_files(tmp_path, rows)
        assert run("compare", "--lex", paper_lex_file, "--in", sentences,
                   "--out", tmp_path / "compare") == 0
        assert run("translate", "--lex", paper_lex_file, "--in", pairs,
                   "--out", tmp_path / "translate") == 0

        lexicon = parse_lexicon(paper_lex_file.read_bytes())
        report = scoring.score_batch([(s, LanguageCode(language)) for s, language in rows],
                                     lexicon, scoring.builtin_english_baseline)
        assert (tmp_path / "compare" / "comparison.csv").read_bytes() == csv_text(
            scoring.comparison_csv_rows(report)).encode("utf-8")
        assert (tmp_path / "compare" / "comparison.json").read_bytes() == json_text(
            report.to_json_dict()).encode("utf-8")
        table = [("sentence", "source_language", "target_language", "translated_text")]
        table += [(s, language, "english", translate(s, LanguageCode(language),
                                                     LanguageCode.ENGLISH, lexicon).translated_text)
                  for s, language in rows]
        assert (tmp_path / "translate" / "translations.csv").read_bytes() == csv_text(
            table).encode("utf-8")
        assert capsys.readouterr().err == (
            f"{n} sentences, v2/baseline agreement {report.agreement:.3f}\n"
            f"translated {n} sentences\n")

    @pytest.mark.parametrize("command", ["compare", "translate"])
    def test_memory_per_sentence_stays_small(self, tmp_path, paper_lex_file, command, capsys):
        # Both runs hold full blocks, so the growth is what each sentence keeps:
        # its parsed row and its share of the input text, under 1 KB here.
        # Holding every output row and the whole files took about 2.8 KB.
        copies = cli._BLOCK_ROWS // len(STREAMED_SENTENCES) + 1

        def peak(scale: int) -> int:
            sentences, pairs = sentence_files(tmp_path / f"in{scale}",
                                              STREAMED_SENTENCES * (copies * scale))
            tracemalloc.start()
            try:
                assert run(command, "--lex", paper_lex_file,
                           "--in", sentences if command == "compare" else pairs,
                           "--out", tmp_path / f"out{scale}") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # one-off lazy set-up
        per_sentence = (peak(4) - peak(1)) / (3 * copies * len(STREAMED_SENTENCES))
        assert per_sentence < 1500


class TestUnnormalizedLexicon:
    @pytest.fixture
    def dirty_lex_file(self, tmp_path, paper_lex_file):
        text = paper_lex_file.read_text(encoding="utf-8")
        assert text.count(",happy,") == 1 and text.count(",food,") == 1
        path = tmp_path / "dirty.csv"
        path.write_text(text.replace(",happy,", ",Happy ,").replace(",food,", ",Food,"),
                        encoding="utf-8")
        return path

    @pytest.fixture
    def sentences_file(self, tmp_path):
        path = tmp_path / "sents.csv"
        path.write_text("sentence,language\nI am happy,english\n", encoding="utf-8")
        return path

    def test_compare_refuses(self, tmp_path, dirty_lex_file, sentences_file, capsys):
        out = tmp_path / "out"
        assert run("compare", "--lex", dirty_lex_file, "--in", sentences_file,
                   "--out", out) == 2
        err = capsys.readouterr().err
        assert "row 3, column 'english'" in err
        assert "'Food'" in err and "2 un-normalized" in err and "lexicon clean" in err
        assert not out.exists()

    def test_translate_refuses(self, dirty_lex_file, capsys):
        assert run("translate", "--lex", dirty_lex_file, "--text", "I am happy",
                   "--from", "english", "--to", "french") == 2
        assert "lexicon clean" in capsys.readouterr().err

    def test_cleaned_lexicon_scores(self, tmp_path, dirty_lex_file, sentences_file):
        cleaned = tmp_path / "cleaned"
        assert run("lexicon", "clean", "--in", dirty_lex_file, "--out", cleaned) == 0
        out = tmp_path / "out"
        assert run("compare", "--lex", cleaned / "cleaned.csv", "--in", sentences_file,
                   "--out", out) == 0
        row = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()[1]
        assert "happy:5" in row and "positive" in row

    def test_commands_that_never_tokenize_accept_it(self, tmp_path, dirty_lex_file):
        assert run("lexicon", "stats", "--in", dirty_lex_file, "--out", tmp_path / "s") == 0
        assert run("lexicon", "validate", "--in", dirty_lex_file) == 0


class TestMlCommands:
    def test_train_and_eval(self, tmp_path, paper_lex_file):
        out = tmp_path / "ml"
        assert run("ml", "train", "--lex", paper_lex_file, "--task", "pos",
                   "--model", "decision_tree", "--out", out, "--seed", "3") == 0
        files = read_dir(out)
        assert {"model.json", "dataset.csv", "metrics.json", "metrics.txt",
                "confusion.json"} <= set(files)
        model = json.loads(files["model.json"])
        assert model["kind"] == "decision_tree"
        assert model["hyperparameters"]["task"] == "pos"

        out2 = tmp_path / "ml_eval"
        assert run("ml", "eval", "--model", out / "model.json",
                   "--lex", paper_lex_file, "--out", out2, "--seed", "3") == 0
        metrics = json.loads((out2 / "metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0

    @pytest.fixture
    def nb_model(self, tmp_path, paper_lex_file):
        out = tmp_path / "nb"
        assert run("ml", "train", "--lex", paper_lex_file, "--model", "gaussian_nb",
                   "--out", out, "--seed", "3", "--train-fraction", "0.7") == 0
        return out

    def test_eval_uses_the_recorded_split(self, tmp_path, paper_lex_file, nb_model):
        model = json.loads((nb_model / "model.json").read_text())
        split = model["hyperparameters"]["split"]
        assert re.fullmatch("[0-9a-f]{64}", split.pop("test_sha256"))
        assert split == {"seed": 3, "train_fraction": 0.7}
        for extra in ((), ("--seed", "3", "--train-fraction", "0.7")):
            out = tmp_path / f"eval{len(extra)}"
            assert run("ml", "eval", "--model", nb_model / "model.json",
                       "--lex", paper_lex_file, "--out", out, *extra) == 0
            assert read_dir(out)["metrics.json"] == read_dir(nb_model)["metrics.json"]

    @pytest.mark.parametrize("flag, value, recorded", [
        ("--seed", "0", "3"), ("--train-fraction", "0.8", "0.7"),
    ])
    def test_eval_refuses_another_split(self, tmp_path, paper_lex_file, nb_model,
                                        flag, value, recorded, capsys):
        out = tmp_path / "eval"
        assert run("ml", "eval", "--model", nb_model / "model.json",
                   "--lex", paper_lex_file, "--out", out, flag, value) == 2
        err = capsys.readouterr().err
        assert f"{flag} {value} differs from {recorded}" in err
        assert str(nb_model / "model.json") in err
        assert not out.exists()

    def test_eval_refuses_a_lexicon_with_other_test_rows(self, tmp_path, paper_lexicon,
                                                         nb_model, capsys):
        """Entry ids are positional, so a changed lexicon of the same labels
        in the same order splits into the same ids; the recorded SHA-256 of
        the test rows tells it apart. A model that records none is evaluated
        as before."""
        _, test = ml.split(ml.featurize(paper_lexicon), 0.7, 3)
        entries = list(paper_lexicon.entries)
        row = int(test.provenance[0][1:]) - 1
        entries[row] = entries[row]._replace(shared_score=entries[row].shared_score + 0.5)
        changed = tmp_path / "changed.csv"
        changed.write_bytes(serialize_lexicon(Lexicon(entries)))
        path = nb_model / "model.json"
        out = tmp_path / "eval"
        assert run("ml", "eval", "--model", path, "--lex", changed, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: --lex {changed}: its test rows differ from those {path} recorded "
            "in training (entry ids, features or labels)\n")
        assert not out.exists()
        model = json.loads(path.read_text())
        del model["hyperparameters"]["split"]["test_sha256"]
        path.write_text(json.dumps(model))
        assert run("ml", "eval", "--model", path, "--lex", changed, "--out", out) == 0

    def test_eval_needs_flags_when_no_split_is_recorded(self, tmp_path, paper_lex_file,
                                                        nb_model, capsys):
        path = nb_model / "model.json"
        model = json.loads(path.read_text())
        del model["hyperparameters"]["split"]
        path.write_text(json.dumps(model))
        base = ("ml", "eval", "--model", path, "--lex", paper_lex_file)
        assert run(*base, "--out", tmp_path / "a") == 2
        assert "records no split seed; pass --seed" in capsys.readouterr().err
        assert run(*base, "--out", tmp_path / "b", "--seed", "3",
                   "--train-fraction", "0.7") == 0
        assert read_dir(tmp_path / "b")["metrics.json"] == read_dir(nb_model)["metrics.json"]

    def test_train_deterministic(self, tmp_path, paper_lex_file):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        for out in (out1, out2):
            run("ml", "train", "--lex", paper_lex_file, "--model", "random_forest",
                "--n-trees", "5", "--out", out, "--seed", "1")
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()


    @pytest.mark.parametrize("model", ["decision_tree", "random_forest"])
    @pytest.mark.parametrize("flag, value, low", [
        ("--max-depth", "-1", 1), ("--max-depth", "0", 1),
        ("--min-samples-split", "1", 2), ("--min-samples-split", "0", 2),
    ])
    def test_train_refuses_a_tree_setting_that_yields_a_useless_model(
            self, tmp_path, paper_lex_file, model, flag, value, low, capsys):
        out = tmp_path / "ml"
        assert run("ml", "train", "--lex", paper_lex_file, "--model", model,
                   "--out", out, flag, value) == 2
        assert f"error: {flag} must be at least {low}, got {value}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_train_refuses_a_forest_of_no_trees(self, tmp_path, paper_lex_file, capsys):
        out = tmp_path / "ml"
        assert run("ml", "train", "--lex", paper_lex_file, "--model", "random_forest",
                   "--out", out, "--n-trees", "0") == 2
        assert "error: --n-trees must be at least 1, got 0\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, shown", [("1.5", "1.5"), ("0", "0.0"), ("1", "1.0")])
    def test_train_names_the_flag_of_a_refused_train_fraction(
            self, tmp_path, paper_lex_file, value, shown, capsys):
        out = tmp_path / "ml"
        assert run("ml", "train", "--lex", paper_lex_file, "--out", out,
                   "--train-fraction", value) == 2
        assert (f"error: --train-fraction must lie strictly between 0 and 1, got {shown}\n"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("model, flag, value, problem", [
        ("gaussian_nb", "--var-smoothing", "0", "must be a finite number above 0, got 0.0"),
        ("gaussian_nb", "--var-smoothing", "-1", "must be a finite number above 0, got -1.0"),
        ("gaussian_nb", "--var-smoothing", "nan", "must be a finite number above 0, got nan"),
        ("linear_svm", "--epochs", "0", "must be at least 1, got 0"),
        ("linear_svm", "--lam", "0", "must be a finite number above 0, got 0.0"),
        ("linear_svm", "--lam", "-0.5", "must be a finite number above 0, got -0.5"),
        ("linear_svm", "--lam", "inf", "must be a finite number above 0, got inf"),
    ])
    def test_train_names_the_flag_of_a_refused_nb_or_svm_setting(
            self, tmp_path, paper_lex_file, model, flag, value, problem, capsys):
        out = tmp_path / "ml"
        assert run("ml", "train", "--lex", paper_lex_file, "--model", model,
                   "--out", out, flag, value) == 2
        assert f"error: {flag} {problem}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("hyperparameters", ["split"], "field 'hyperparameters' is not an object"),
        ("split", [3, 0.7], "field 'split' of 'hyperparameters' is [3, 0.7], expected an "
                            "object with an int 'seed' and a 'train_fraction' in (0, 1)"),
        ("split", {"seed": "3", "train_fraction": 0.7}, "field 'split' of 'hyperparameters' is"),
        ("split", {"seed": 3}, "field 'split' of 'hyperparameters' is {'seed': 3}"),
        ("split", {"seed": 3, "train_fraction": 1.5},
         "field 'split' of 'hyperparameters' is {'seed': 3, 'train_fraction': 1.5}"),
        ("split", None, "field 'split' of 'hyperparameters' is None"),
        ("split", {"seed": 3, "train_fraction": 0.7, "test_sha256": "ab" * 31},
         f"field 'test_sha256' of 'split' is {'ab' * 31!r}, expected 64 lowercase hex digits"),
        ("split", {"seed": 3, "train_fraction": 0.7, "test_sha256": 7},
         "field 'test_sha256' of 'split' is 7, expected 64 lowercase hex digits"),
    ])
    def test_eval_refuses_a_malformed_hyperparameters_or_split_record(
            self, tmp_path, paper_lex_file, nb_model, field, value, message, capsys):
        path = nb_model / "model.json"
        model = json.loads(path.read_text())
        if field == "hyperparameters":
            model["hyperparameters"] = value
        else:
            model["hyperparameters"]["split"] = value
        path.write_text(json.dumps(model))
        out = tmp_path / "eval"
        assert run("ml", "eval", "--model", path, "--lex", paper_lex_file, "--out", out) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestCtxAndExplain:
    def test_full_chain(self, tmp_path, ctx_lex_file):
        gen = tmp_path / "gen"
        assert run("ctx", "generate", "--lex", ctx_lex_file, "--language", "english",
                   "-n", "120", "--seed", "1", "--out", gen) == 0
        corpus = gen / "corpus.tsv"
        assert corpus.exists()
        assert len(corpus.read_text(encoding="utf-8").splitlines()) == 120

        trained = tmp_path / "model"
        assert run("ctx", "train", "--corpus", corpus, "--out", trained,
                   "--epochs", "8", "--seed", "1", "--embedding-dim", "12") == 0
        files = read_dir(trained)
        assert {"model.json", "loss.csv", "train.tsv", "validation.tsv",
                "test.tsv"} <= set(files)
        loss_rows = files["loss.csv"].decode().splitlines()
        assert loss_rows[0] == "epoch,train_loss,val_loss"
        assert all(float(cell) >= 0.0 for row in loss_rows[1:] for cell in row.split(","))

        evaluated = tmp_path / "evaluated"
        assert run("ctx", "eval", "--model", trained / "model.json",
                   "--corpus", trained / "test.tsv", "--out", evaluated) == 0
        assert (evaluated / "metrics.txt").exists()

        explained = tmp_path / "explained"
        assert run("explain", "--model", trained / "model.json",
                   "--text", "good good [TARGET] accuse [/TARGET] nice",
                   "--out", explained, "--steps", "16") == 0
        files = read_dir(explained)
        assert {"attribution.json", "attribution.csv", "attribution.svg",
                "summary.csv"} <= set(files)
        amap = json.loads(files["attribution.json"])
        assert amap["steps"] == 16
        assert len(amap["per_token"]) == 4
        assert amap["target"] == "accuse"

    def test_explain_batch(self, tmp_path, ctx_lex_file):
        gen = tmp_path / "gen"
        run("ctx", "generate", "--lex", ctx_lex_file, "--language", "english",
            "-n", "60", "--seed", "2", "--out", gen)
        trained = tmp_path / "model"
        run("ctx", "train", "--corpus", gen / "corpus.tsv", "--out", trained,
            "--epochs", "4", "--seed", "2", "--embedding-dim", "8")
        explained = tmp_path / "explained"
        assert run("explain", "--model", trained / "model.json",
                   "--corpus", trained / "test.tsv", "--out", explained,
                   "--steps", "8") == 0
        summary = (explained / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert summary[0] == ("marked_sentence,predicted_sentiment,confidence,"
                              "attribution,convergence_delta")
        n_sentences = len((trained / "test.tsv").read_text().splitlines())
        assert len(summary) == n_sentences + 1

    def test_explain_text_equals_the_same_sentence_in_a_corpus(self, tmp_path, ctx_lex_file,
                                                              capsys):
        run("ctx", "generate", "--lex", ctx_lex_file, "--language", "english",
            "-n", "60", "--seed", "3", "--out", tmp_path / "gen")
        run("ctx", "train", "--corpus", tmp_path / "gen" / "corpus.tsv",
            "--out", tmp_path / "model", "--epochs", "4", "--embedding-dim", "8")
        model, corpus = tmp_path / "model" / "model.json", tmp_path / "model" / "test.tsv"
        flags = ("--steps", "8")
        capsys.readouterr()
        assert run("explain", "--model", model, "--corpus", corpus, "--out", tmp_path / "all",
                   *flags) == 0
        maps = [json.loads(path.read_text(encoding="utf-8"))
                for path in sorted((tmp_path / "all").glob("attribution_*.json"))]
        largest = max(abs(amap["convergence_delta"]) for amap in maps)
        assert capsys.readouterr().err.endswith(
            f"attributed {len(maps)} sentence(s), largest |convergence delta| {largest:.3g}\n")
        text = corpus.read_text(encoding="utf-8").splitlines()[2].split("\t")[0]
        assert run("explain", "--model", model, "--text", text, "--out", tmp_path / "one",
                   *flags) == 0
        one = json.loads((tmp_path / "one" / "attribution.json").read_text(encoding="utf-8"))
        assert one.keys() == maps[2].keys()
        for key, value in one.items():
            if key == "per_token":
                assert [token for token, _ in value] == [token for token, _ in maps[2][key]]
                assert [v for _, v in value] == pytest.approx([v for _, v in maps[2][key]],
                                                              rel=1e-12, abs=1e-12)
            elif isinstance(value, float):
                assert value == pytest.approx(maps[2][key], rel=1e-12, abs=1e-12)
            else:
                assert value == maps[2][key]

    def test_explain_numbers_the_files_of_a_one_sentence_corpus(self, tmp_path, ctx_lex_file):
        """``--corpus`` names its files by position however many sentences it
        holds, so a reader of ``attribution_*.json`` finds a lone sentence too."""
        run("ctx", "generate", "--lex", ctx_lex_file, "--language", "english",
            "-n", "40", "--seed", "4", "--out", tmp_path / "gen")
        run("ctx", "train", "--corpus", tmp_path / "gen" / "corpus.tsv",
            "--out", tmp_path / "model", "--epochs", "2", "--embedding-dim", "4")
        corpus = tmp_path / "one.tsv"
        line = (tmp_path / "model" / "test.tsv").read_text(encoding="utf-8").splitlines()[0]
        corpus.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "explained"
        assert run("explain", "--model", tmp_path / "model" / "model.json",
                   "--corpus", corpus, "--out", out, "--steps", "4") == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "attribution_0001.csv", "attribution_0001.json", "attribution_0001.svg",
            "manifest.json", "run_config.json", "summary.csv",
        ]

    @pytest.mark.parametrize("given", [(), ("--text", "a [TARGET] b [/TARGET]",
                                            "--corpus", "corpus.tsv")],
                             ids=["neither", "both"])
    def test_explain_checks_its_input_flags_before_the_model(self, tmp_path, given, capsys):
        assert run("explain", "--model", tmp_path / "nope.json", *given,
                   "--out", tmp_path / "x") == 1
        assert ("usage error: provide exactly one of --text or --corpus\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()


class TestErrorsNameTheFile:
    @pytest.fixture
    def models(self, tmp_path, paper_lex_file, ctx_lex_file):
        run("ml", "train", "--lex", paper_lex_file, "--model", "decision_tree",
            "--out", tmp_path / "ml")
        run("ctx", "generate", "--lex", ctx_lex_file, "--language", "english",
            "-n", "40", "--seed", "1", "--out", tmp_path / "gen")
        run("ctx", "train", "--corpus", tmp_path / "gen" / "corpus.tsv",
            "--out", tmp_path / "ctx", "--epochs", "1", "--embedding-dim", "4")
        return tmp_path / "ml" / "model.json", tmp_path / "ctx" / "model.json"

    def test_ml_eval_given_a_contextual_model(self, tmp_path, paper_lex_file, models,
                                              capsys):
        _, ctx_model = models
        assert run("ml", "eval", "--model", ctx_model, "--lex", paper_lex_file,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"{ctx_model}: expected a classical model" in err
        assert "found a contextual model" in err

    @pytest.mark.parametrize("command", [("ctx", "eval"), ("explain",)])
    def test_contextual_commands_given_a_classical_model(self, tmp_path, models,
                                                         command, capsys):
        ml_model, ctx_model = models
        corpus = ctx_model.parent / "test.tsv"
        assert run(*command, "--model", ml_model, "--corpus", corpus,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"{ml_model}: expected a contextual model, found a decision_tree model" in err

    @pytest.mark.parametrize("command", [("ml", "eval", "--lex", "lexicon.csv"),
                                         ("ctx", "eval", "--corpus", "corpus.tsv")])
    def test_model_file_that_is_not_an_object(self, tmp_path, command, capsys):
        model = tmp_path / "model.json"
        model.write_text("[]", encoding="utf-8")
        assert run(*command, "--model", model, "--out", tmp_path / "out") == 2
        assert f"{model}: expected a JSON object" in capsys.readouterr().err

    def test_corpus_error_names_file_and_line(self, tmp_path, models, capsys):
        _, ctx_model = models
        corpus = tmp_path / "bad.tsv"
        corpus.write_text("[TARGET] a [/TARGET] b\tneutral\n[TARGET] c [/TARGET]\tangry\n",
                          encoding="utf-8")
        assert run("ctx", "eval", "--model", ctx_model, "--corpus", corpus,
                   "--out", tmp_path / "out") == 2
        assert f"{corpus}: line 2: 'angry'" in capsys.readouterr().err

    def test_short_sentence_row_names_file_and_row(self, tmp_path, paper_lex_file, capsys):
        sentences = tmp_path / "sents.csv"
        sentences.write_text("sentence,language\nI want food.,english\nno language\n",
                             encoding="utf-8")
        assert run("compare", "--lex", paper_lex_file, "--in", sentences,
                   "--out", tmp_path / "out") == 2
        assert f"{sentences}: row 2: expected 2 columns, found 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, column", [
        ("compare", "sentence,language\nI want food.,english\nbad day,klingon\n", "language"),
        ("translate", "sentence,source_language,target_language\n"
                      "Thank you.,english,french\nbad day,english,elvish\n", "target_language"),
    ], ids=["compare", "translate"])
    def test_unknown_language_cell_names_file_row_and_column(self, tmp_path, paper_lex_file,
                                                             command, text, column, capsys):
        sentences = tmp_path / "sents.csv"
        sentences.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert run(command, "--lex", paper_lex_file, "--in", sentences, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sentences}: row 2: column {column!r}: unknown language ")
        assert not out.exists()

    def test_explain_names_steps_and_writes_nothing(self, tmp_path, models, capsys):
        _, ctx_model = models
        out = tmp_path / "out"
        assert run("explain", "--model", ctx_model, "--text", "a [TARGET] b [/TARGET] c",
                   "--out", out, "--steps", "0") == 2
        assert capsys.readouterr().err == "error: --steps must be at least 1, got 0\n"
        assert not out.exists()

    def test_ctx_eval_of_an_empty_corpus_names_it(self, tmp_path, models, capsys):
        _, ctx_model = models
        corpus = tmp_path / "empty.tsv"
        corpus.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        assert run("ctx", "eval", "--model", ctx_model, "--corpus", corpus, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"error: {corpus}: ")
        assert not out.exists()

    def test_ml_eval_of_an_empty_test_split_names_the_lexicon(self, tmp_path, paper_lex_file,
                                                              capsys):
        lexicon = tmp_path / "one.csv"  # one entry: its single-member class goes to training
        lexicon.write_bytes(b"".join(paper_lex_file.read_bytes().splitlines(True)[:2]))
        refused = tmp_path / "refused"
        assert run("ml", "train", "--lex", lexicon, "--model", "decision_tree",
                   "--out", refused) == 2
        assert f"error: {lexicon}: test split is empty" in capsys.readouterr().err
        assert not refused.exists()
        assert run("ml", "train", "--lex", paper_lex_file, "--model", "decision_tree",
                   "--out", tmp_path / "ml") == 0
        out = tmp_path / "out"
        assert run("ml", "eval", "--model", tmp_path / "ml" / "model.json",
                   "--lex", lexicon, "--out", out) == 2
        assert f"error: {lexicon}: test split is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_ctx_train_writes_no_model(self, tmp_path, ctx_lex_file, capsys):
        run("ctx", "generate", "--lex", ctx_lex_file, "--language", "english",
            "-n", "300", "--seed", "2", "--out", tmp_path / "gen")
        corpus = tmp_path / "gen" / "corpus.tsv"
        out = tmp_path / "ctx"
        assert run("ctx", "train", "--corpus", corpus, "--out", out,
                   "--learning-rate", "1e6", "--epochs", "30") == 2
        err = capsys.readouterr().err
        assert f"{corpus}: training diverged: epoch " in err
        assert "at learning rate 1000000.0" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unlabeled_corpus_line_names_file_and_line(self, tmp_path, models, command,
                                                       capsys):
        _, ctx_model = models
        corpus = tmp_path / "unlabeled.tsv"
        lines = (ctx_model.parent / "train.tsv").read_text(encoding="utf-8").splitlines()
        lines[3] = lines[3].split("\t")[0] + "\t"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model_flag = ["--model", ctx_model] if command == "eval" else []
        assert run("ctx", command, *model_flag, "--corpus", corpus,
                   "--out", tmp_path / "out") == 2
        assert f"{corpus}: line 4: no label" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [("ctx", "eval"), ("explain",)])
    def test_truncated_weights_refused_by_field(self, tmp_path, models, command, capsys):
        _, ctx_model = models
        data = json.loads(ctx_model.read_text(encoding="utf-8"))
        data["weights"] = data["weights"][:-1]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data), encoding="utf-8")
        assert run(*command, "--model", broken, "--corpus", ctx_model.parent / "test.tsv",
                   "--out", tmp_path / "out") == 2
        assert (f"{broken}: field 'weights' has shape (7, 3), expected (8, 3)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", [("ctx", "eval"), ("explain",)])
    def test_version_1_contextual_file_is_refused_by_version(self, tmp_path, models, command,
                                                             capsys):
        _, ctx_model = models
        data = json.loads(ctx_model.read_text(encoding="utf-8"))
        assert data.pop("kind") == "contextual"
        data["format_version"] = 1
        old = tmp_path / "v1.json"
        old.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "out"
        assert run(*command, "--model", old, "--corpus", ctx_model.parent / "test.tsv",
                   "--out", out) == 2
        assert (f"error: {old}: unsupported model format version 1, expected 2\n"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_classical_model_missing_a_field(self, tmp_path, paper_lex_file, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"format_version": FORMAT_VERSION, "kind": "random_forest"}),
                         encoding="utf-8")
        assert run("ml", "eval", "--model", model, "--lex", paper_lex_file,
                   "--out", tmp_path / "out") == 2
        assert f"{model}: missing field 'class_names'" in capsys.readouterr().err

    def test_tree_threshold_that_is_not_a_number(self, tmp_path, paper_lex_file, models,
                                                 capsys):
        ml_model, _ = models
        data = json.loads(ml_model.read_text(encoding="utf-8"))
        data["parameters"]["trees"][0]["threshold"][0] = "oops"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data), encoding="utf-8")
        assert run("ml", "eval", "--model", broken, "--lex", paper_lex_file,
                   "--out", tmp_path / "out") == 2
        assert (f"{broken}: field 'threshold' of tree 0 is not an array of numbers"
                in capsys.readouterr().err)

    def test_ml_eval_refuses_a_model_of_another_feature_count(self, tmp_path, paper_lex_file,
                                                              models, capsys):
        ml_model, _ = models
        data = json.loads(ml_model.read_text(encoding="utf-8"))
        data["n_features"] = 12
        other = tmp_path / "other.json"
        other.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "out"
        assert run("ml", "eval", "--model", other, "--lex", paper_lex_file, "--out", out) == 2
        assert (f"error: {other}: the model takes 12 features, the lexicon gives 9\n"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_ml_eval_of_a_model_with_non_finite_outputs_names_it(self, tmp_path,
                                                                 paper_lex_file, capsys):
        # The polarity task has no single-member class, so its split logs nothing.
        assert run("ml", "train", "--lex", paper_lex_file, "--task", "polarity",
                   "--model", "linear_svm", "--epochs", "1", "--out", tmp_path / "svm") == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "svm" / "model.json").read_text(encoding="utf-8"))
        weights = data["parameters"]["weights"]
        data["parameters"]["weights"] = [[1e308] * len(row) for row in weights]
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "out"
        # In a fresh interpreter, so that a numpy warning would reach stderr.
        done = run_python(CLI, "ml", "eval", "--model", str(huge), "--lex", str(paper_lex_file),
                          "--out", str(out))
        assert done.returncode == 2
        assert re.fullmatch(rf"error: {re.escape(str(huge))}: the class probabilities of "
                            r"\d+ of \d+ rows are not finite\n", done.stderr), done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command, message", [
        (("ctx", "eval"), r"the class probabilities of \d+ of \d+ rows are not finite"),
        (("explain",), r"the attribution of '[^\n]*' is not finite"),
    ], ids=["ctx-eval", "explain"])
    def test_contextual_model_with_non_finite_outputs_is_named(self, tmp_path, models,
                                                               command, message):
        _, ctx_model = models
        data = json.loads(ctx_model.read_text(encoding="utf-8"))
        for name in ("embeddings", "weights"):
            data[name] = [[1e308] * len(row) for row in data[name]]
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(data), encoding="utf-8")
        corpus = ctx_model.parent / "test.tsv"
        out = tmp_path / "out"
        done = run_python(CLI, *command, "--model", str(huge), "--corpus", str(corpus),
                          "--out", str(out))
        assert done.returncode == 2
        assert re.fullmatch(rf"error: {re.escape(str(huge))}: {message}\n",
                            done.stderr), done.stderr
        assert not out.exists()

    def test_ml_eval_refuses_a_naive_bayes_variance_of_0(self, tmp_path, paper_lex_file,
                                                         capsys):
        assert run("ml", "train", "--lex", paper_lex_file, "--model", "gaussian_nb",
                   "--out", tmp_path / "nb") == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "nb" / "model.json").read_text(encoding="utf-8"))
        variances = data["parameters"]["variances"]
        variances[0] = [0.0] * len(variances[0])
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "out"
        assert run("ml", "eval", "--model", broken, "--lex", paper_lex_file, "--out", out) == 2
        assert (capsys.readouterr().err
                == f"error: {broken}: field 'variances' holds values that are not above 0\n")
        assert not out.exists()

    def test_exploding_ctx_train_writes_no_model(self, tmp_path, ctx_lex_file, capsys):
        run("ctx", "generate", "--lex", ctx_lex_file, "--language", "english",
            "-n", "300", "--seed", "2", "--out", tmp_path / "gen")
        corpus = tmp_path / "gen" / "corpus.tsv"
        out = tmp_path / "ctx"
        # The loss stays finite at this rate but ends far above the untrained model's.
        assert run("ctx", "train", "--corpus", corpus, "--out", out,
                   "--learning-rate", "1e3", "--epochs", "6") == 2
        err = capsys.readouterr().err
        assert f"{corpus}: training diverged: epoch 1 train loss " in err
        assert f"exceeds {LOSS_EXPLOSION_FACTOR:g} times the untrained model's loss " in err
        assert not out.exists()

    @pytest.mark.parametrize("command, rows, message", [
        (("lexicon", "clean"), ['" ",,good,,,,mot,1,,,,,,'],
         "entry r1: french form ' ' normalizes to empty"),
        (("lexicon", "stats"), [], "cannot summarize an empty lexicon"),
        (("ctx", "generate", "--language", "english", "-n", "4"), ["bon,,good,,,,mot,1,,,,,,"],
         "lexicon has no context-dependent english forms"),
        (("ctx", "generate", "--language", "english", "-n", "4"),
         ["bon,,watch,,,,mot,1,,,,,,", "mal,,watch,,,,mot,-1,,,,,,"],
         "no unambiguous negative english words to build contexts"),
    ], ids=["clean-empty-form", "stats-empty", "generate-no-targets", "generate-no-context"])
    def test_a_command_refusing_its_lexicon_names_it(self, tmp_path, command, rows, message,
                                                     capsys):
        lexicon = tmp_path / "lexicon.csv"
        lexicon.write_text("\n".join([",".join(CSV_HEADER), *rows]) + "\n", encoding="utf-8")
        flag = "--lex" if command[0] == "ctx" else "--in"
        out = tmp_path / "out"
        assert run(*command, flag, lexicon, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {lexicon}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        ("compare", "sentence,language\n"),
        ("translate", "sentence,source_language,target_language\n"),
        ("explain", ""),
        ("explain", "\n  \n\t\n"),
    ], ids=["compare", "translate", "explain-empty", "explain-blank"])
    def test_sentence_commands_refuse_a_file_of_no_sentences(self, tmp_path, paper_lex_file,
                                                             command, text, request, capsys):
        sentences = tmp_path / "sentences"
        sentences.write_text(text, encoding="utf-8")
        if command == "explain":
            _, ctx_model = request.getfixturevalue("models")
            flags = ("--model", ctx_model, "--corpus", sentences)
        else:
            flags = ("--lex", paper_lex_file, "--in", sentences)
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(command, *flags, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {sentences}: no sentences\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, header, row", [
        ("compare", ["sentence", "language"], "I want food.,english"),
        ("translate", ["sentence", "source_language", "target_language"],
         "Thank you.,english,french"),
    ], ids=["compare", "translate"])
    def test_a_bad_sentence_header_is_shown_as_read(self, tmp_path, paper_lex_file, command,
                                                    header, row, capsys):
        """A byte-order mark is invisible in the header as text, but not in
        its repr."""
        sentences = tmp_path / "sentences.csv"
        sentences.write_text("\ufeff" + ",".join(header) + f"\n{row}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(command, "--lex", paper_lex_file, "--in", sentences, "--out", out) == 2
        found = ["\ufeff" + header[0], *header[1:]]
        assert capsys.readouterr().err == (
            f"error: {sentences}: row 0: bad header {found!r}; expected {','.join(header)}\n")
        assert not out.exists()


class TestAFailedRunWritesNothing:
    """Every writing command builds all its files, ``run_config.json`` and
    ``manifest.json`` included, before the output directory is made."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory, paper_lexicon):
        root = tmp_path_factory.mktemp("inputs")
        lexicon, ctx_lexicon = root / "lexicon.csv", root / "ctx_lexicon.csv"
        lexicon.write_bytes(serialize_lexicon(paper_lexicon))
        ctx_lexicon.write_bytes(serialize_lexicon(build_ctx_lexicon()))
        (root / "sentences.csv").write_text("sentence,language\nI want food.,english\n",
                                            encoding="utf-8")
        (root / "pairs.csv").write_text(
            "sentence,source_language,target_language\nThank you.,english,french\n",
            encoding="utf-8")
        assert run("ml", "train", "--lex", lexicon, "--model", "decision_tree",
                   "--out", root / "ml") == 0
        assert run("ctx", "generate", "--lex", ctx_lexicon, "--language", "english",
                   "-n", "40", "--seed", "1", "--out", root / "gen") == 0
        assert run("ctx", "train", "--corpus", root / "gen" / "corpus.tsv",
                   "--out", root / "ctx", "--epochs", "1", "--embedding-dim", "4") == 0
        return {"root": root, "lexicon": lexicon, "ctx_lexicon": ctx_lexicon}

    @pytest.mark.parametrize("argv", [
        "lexicon validate --in {lexicon}",
        "lexicon clean --in {lexicon}",
        "lexicon stats --in {lexicon}",
        "translate --lex {lexicon} --in {root}/pairs.csv",
        "compare --lex {lexicon} --in {root}/sentences.csv",
        "ml train --lex {lexicon} --model decision_tree",
        "ml eval --model {root}/ml/model.json --lex {lexicon}",
        "ctx generate --lex {ctx_lexicon} --language english -n 40",
        "ctx train --corpus {root}/gen/corpus.tsv --epochs 1 --embedding-dim 4",
        "ctx eval --model {root}/ctx/model.json --corpus {root}/ctx/test.tsv",
        "explain --model {root}/ctx/model.json --corpus {root}/ctx/test.tsv --steps 4",
    ], ids=lambda argv: argv.split(" --")[0].replace(" ", "-"))
    def test_a_refused_manifest_leaves_no_directory(self, monkeypatch, tmp_path, inputs,
                                                    argv, capsys):
        from lexisent import cli

        def refusing(payload):
            if isinstance(payload, dict) and "files" in payload:
                raise ValueError("manifest refused")
            return json_text(payload)

        monkeypatch.setattr(cli, "json_text", refusing)
        out = tmp_path / "out"
        assert run(*argv.format(**inputs).split(), "--out", out) == 2
        assert capsys.readouterr().err == "error: manifest refused\n"
        assert not out.exists()


class TestCtxSettings:
    """``ctx generate`` and ``ctx train`` refuse settings they cannot use, name
    the flag and write no output directory."""

    @pytest.mark.parametrize("weights, shown", [
        ("0,0,0", "(0.0, 0.0, 0.0)"), ("-1,1,1", "(-1.0, 1.0, 1.0)"),
        ("nan,1,1", "(nan, 1.0, 1.0)"), ("inf,1,1", "(inf, 1.0, 1.0)"),
    ])
    def test_generate_refuses_label_weights_it_cannot_sample(self, tmp_path, ctx_lex_file,
                                                             weights, shown, capsys):
        out = tmp_path / "gen"
        assert run("ctx", "generate", "--lex", ctx_lex_file, "--language", "english",
                   "-n", "10", f"--label-weights={weights}", "--out", out) == 2
        assert (f"error: --label-weights must be finite, non-negative and not all 0, "
                f"got {shown}\n") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (("-n", "10", "--label-weights", "a,b,c"),
         "--label-weights needs three comma-separated numbers, got 'a,b,c'"),
        (("-n", "10", "--label-weights", "1,1"),
         "--label-weights needs three comma-separated numbers, got '1,1'"),
        # argparse takes "-1,1,1" for an option; the help says to write --label-weights=-1,1,1,
        # which the test above refuses as a data error.
        (("-n", "10", "--label-weights", "-1,1,1"),
         "argument --label-weights: expected one argument"),
        (("-n", "0"), "-n/--count must be at least 1, got 0"),
        (("-n", "-3"), "-n/--count must be at least 1, got -3"),
    ])
    def test_generate_usage_errors_name_the_flag(self, tmp_path, ctx_lex_file, flags,
                                                 message, capsys):
        out = tmp_path / "gen"
        assert run("ctx", "generate", "--lex", ctx_lex_file, "--language", "english",
                   *flags, "--out", out) == 1
        assert f"usage error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, problem", [
        ("--batch-size", "0", "must be at least 1, got 0"),
        ("--window", "-1", "must be at least 0, got -1"),
        ("--embedding-dim", "0", "must be at least 1, got 0"),
        ("--epochs", "0", "must be at least 1, got 0"),
        ("--learning-rate", "-1", "must be a finite number >= 0, got -1.0"),
        ("--learning-rate", "nan", "must be a finite number >= 0, got nan"),
    ])
    def test_train_refuses_a_setting_that_cannot_train(self, tmp_path, ctx_lex_file, flag,
                                                       value, problem, capsys):
        run("ctx", "generate", "--lex", ctx_lex_file, "--language", "english",
            "-n", "40", "--seed", "1", "--out", tmp_path / "gen")
        out = tmp_path / "ctx"
        assert run("ctx", "train", "--corpus", tmp_path / "gen" / "corpus.tsv", "--out", out,
                   flag, value) == 2
        # The line starts with the flag: a setting is not a fault of the corpus file.
        assert f"error: {flag} {problem}\n" in capsys.readouterr().err
        assert not out.exists()


class TestUnreadableInput:
    """Files the readers cannot split are data errors that name the file and
    row; a bug's ``KeyError`` is not one."""

    def test_sentence_csv_that_is_not_utf8_names_the_file(self, tmp_path, paper_lex_file,
                                                           capsys):
        sentences = tmp_path / "bad_utf8.csv"
        sentences.write_bytes(b"sentence,language\n\xff bad,english\n")
        out = tmp_path / "out"
        assert run("compare", "--lex", paper_lex_file, "--in", sentences, "--out", out) == 2
        assert f"error: {sentences}: 'utf-8' codec can't decode byte 0xff" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_oversized_lexicon_cell_names_file_and_row(self, tmp_path, paper_lex_file, capsys):
        lexicon = tmp_path / "huge.csv"
        lexicon.write_bytes(paper_lex_file.read_bytes()
                            + b"x" * 140_000 + b",,,,,,mot,1,,,,,,\n")
        rows = len(paper_lex_file.read_bytes().splitlines())
        assert run("lexicon", "validate", "--in", lexicon) == 2
        assert (f"error: {lexicon}: [row {rows}] malformed CSV: field larger than field limit"
                in capsys.readouterr().err)

    def test_oversized_sentence_cell_names_file_and_row(self, tmp_path, paper_lex_file, capsys):
        sentences = tmp_path / "huge.csv"
        sentences.write_text("sentence,language\nI am happy,english\n"
                             + "x" * 140_000 + ",english\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("compare", "--lex", paper_lex_file, "--in", sentences, "--out", out) == 2
        assert (f"error: {sentences}: row 2: malformed CSV: field larger than field limit"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_a_key_error_is_not_reported_as_a_data_error(self, monkeypatch, paper_lex_file):
        from lexisent import cli

        def broken(args):
            return {}["x"]

        monkeypatch.setattr(cli, "cmd_lexicon_validate", broken)
        with pytest.raises(KeyError):
            run("lexicon", "validate", "--in", paper_lex_file)


class TestCtxGenerateNeedsACleanLexicon:
    @pytest.fixture
    def dirty_ctx_lex_file(self, tmp_path):
        entries = list(build_ctx_lexicon().entries)
        french, english = LanguageCode.FRENCH, LanguageCode.ENGLISH
        assert entries[1].forms == {french: "accuser", english: "accuse"}
        entries[1] = entries[1]._replace(forms={french: "accuser", english: "Accuse "})
        path = tmp_path / "dirty.csv"
        path.write_bytes(serialize_lexicon(Lexicon(entries)))
        return path

    def test_generate_refuses_an_unnormalized_lexicon(self, tmp_path, dirty_ctx_lex_file,
                                                      capsys):
        out = tmp_path / "gen"
        assert run("ctx", "generate", "--lex", dirty_ctx_lex_file, "--language", "english",
                   "-n", "40", "--out", out) == 2
        err = capsys.readouterr().err
        assert f"{dirty_ctx_lex_file}: [row 2, column 'english'] form 'Accuse '" in err
        assert "run `lexicon clean` first" in err
        assert not out.exists()

    @pytest.mark.parametrize("separator", ["\t", "\u2028"], ids=["tab", "line-separator"])
    def test_generate_refuses_a_form_that_would_split_a_corpus_line(self, tmp_path, separator,
                                                                    capsys):
        entries = list(build_ctx_lexicon().entries)
        english = LanguageCode.ENGLISH
        assert entries[4].forms[english] == "happy"
        entries[4] = entries[4]._replace(forms={**entries[4].forms,
                                                english: f"a{separator}great"})
        lexicon = tmp_path / "lexicon.csv"
        lexicon.write_bytes(serialize_lexicon(Lexicon(entries)))
        out = tmp_path / "gen"
        assert run("ctx", "generate", "--lex", lexicon, "--language", "english",
                   "-n", "40", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {lexicon}: marked sentence ")
        assert repr(f"a{separator}great")[1:-1] in err
        assert err.endswith(" holds a tab or a line break\n")
        assert not out.exists()

    def test_after_clean_the_form_is_context_dependent(self, tmp_path, dirty_ctx_lex_file):
        assert run("lexicon", "clean", "--in", dirty_ctx_lex_file,
                   "--out", tmp_path / "clean") == 0
        assert run("ctx", "generate", "--lex", tmp_path / "clean" / "cleaned.csv",
                   "--language", "english", "-n", "40", "--out", tmp_path / "gen") == 0
        corpus = (tmp_path / "gen" / "corpus.tsv").read_text(encoding="utf-8")
        assert "[TARGET] accuse [/TARGET]" in corpus


def run_python(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports this checkout's ``lexisent``."""
    src = str(Path(lexisent.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, capture_output=True, text=True,
        encoding="utf-8", env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )


# Runs the CLI on the arguments, exiting with its exit code.
CLI = "import sys; from lexisent.cli import main; sys.exit(main(sys.argv[1:]))"

# The modules that need numpy, directly or through another module.
NUMPY_MODULES = ("numpy", "lexisent.ml", "lexisent.contextual", "lexisent.attribution",
                 "lexisent.eda", "lexisent.metrics")

START_UP = """
import json, sys
from lexisent.cli import build_parser
build_parser()
print(json.dumps(sorted(sys.modules)))
"""

NUMPY_BLOCKED = """
import json, sys
sys.modules["numpy"] = None
from lexisent.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


class TestImportsPerSubcommand:
    """Each subcommand imports only the modules it runs."""

    def test_building_the_parser_loads_no_numpy(self):
        done = run_python(START_UP)
        assert done.returncode == 0, done.stderr
        assert set(NUMPY_MODULES).isdisjoint(json.loads(done.stdout))

    def test_lexicon_and_scoring_commands_run_without_numpy(self, tmp_path, paper_lex_file,
                                                            monkeypatch):
        sentences = tmp_path / "sentences.csv"
        sentences.write_text('sentence,language\n"I want food.",english\n'
                             '"Go tšhaba go wa.",sepedi\n', encoding="utf-8")
        pairs = tmp_path / "pairs.csv"
        pairs.write_text('sentence,source_language,target_language\n'
                         '"Thank you.",english,french\nEk vertrou haar,afrikaans,english\n',
                         encoding="utf-8")
        lexicon = str(paper_lex_file)
        # Relative output directories, so that both runs echo the same config.
        commands = [
            ["lexicon", "validate", "--in", lexicon, "--out", "validate"],
            ["lexicon", "clean", "--in", lexicon, "--out", "clean"],
            ["translate", "--lex", lexicon, "--in", str(pairs), "--out", "translate"],
            ["compare", "--lex", lexicon, "--in", str(sentences), "--out", "compare"],
        ]
        blocked, plain = tmp_path / "blocked", tmp_path / "plain"
        blocked.mkdir()
        plain.mkdir()
        done = run_python(NUMPY_BLOCKED, json.dumps(commands), cwd=blocked)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [0] * len(commands)
        monkeypatch.chdir(plain)
        assert [main(argv) for argv in commands] == [0] * len(commands)

        def files(root):
            return {str(p.relative_to(root)): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        assert files(blocked) == files(plain)
        assert {Path(name).parts[0] for name in files(plain)} == {
            "validate", "clean", "translate", "compare"}
