"""``cli.main`` pauses the cyclic garbage collector while a command runs.

The pause is safe only while no command leaves cyclic garbage that grows with
its input, since reference counting alone frees everything else; the last
class here pins that for every leaf subcommand.
"""

from __future__ import annotations

import gc

import pytest

from lexisent import cli
from lexisent.cli import main
from lexisent.lexicon import LanguageCode, Lexicon, LexiconEntry, PosTag, serialize_lexicon

from conftest import build_ctx_lexicon
from test_cli import CLI_SURFACE


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collecting(request):
    """The collector switched on or off by the caller, and switched back after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def lexicon_file(path, n: int):
    """A normalized lexicon of ``n`` entries over every POS tag and polarity."""
    tags = list(PosTag)
    entries = [
        LexiconEntry(
            forms={LanguageCode.FRENCH: f"mot{i}", LanguageCode.ENGLISH: f"word{i}"},
            pos=tags[i % len(tags)],
            shared_score=float(i % 7 - 3),
            per_language_scores={LanguageCode.ENGLISH: float(i % 5 - 2)},
        )
        for i in range(n)
    ]
    path.write_bytes(serialize_lexicon(Lexicon(entries)))
    return path


class TestCollectorState:
    def test_a_command_runs_with_the_collector_paused(self, monkeypatch, tmp_path,
                                                      collecting):
        seen = []
        validate = cli.cmd_lexicon_validate

        def command(args):
            seen.append(gc.isenabled())
            return validate(args)

        monkeypatch.setattr(cli, "cmd_lexicon_validate", command)
        assert run("lexicon", "validate", "--in", lexicon_file(tmp_path / "l.csv", 9)) == 0
        assert seen == [False]
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("argv, code", [
        (("lexicon", "validate", "--in", "{lexicon}"), 0),
        (("frobnicate",), 1),
        (("translate", "--lex", "{lexicon}", "--text", "word1"), 1),
        (("lexicon", "validate", "--in", "{missing}"), 2),
    ], ids=["ok", "usage", "usage-in-command", "bad-data"])
    def test_state_comes_back_on_every_exit_code(self, tmp_path, collecting, argv, code,
                                                 capsys):
        names = {"lexicon": lexicon_file(tmp_path / "l.csv", 9),
                 "missing": tmp_path / "missing.csv"}
        assert run(*(arg.format(**names) for arg in argv)) == code
        assert gc.isenabled() is collecting

    def test_state_comes_back_when_an_exception_propagates(self, monkeypatch, tmp_path,
                                                           collecting):
        def broken(args):
            return {}["x"]

        monkeypatch.setattr(cli, "cmd_lexicon_validate", broken)
        with pytest.raises(KeyError):
            run("lexicon", "validate", "--in", lexicon_file(tmp_path / "l.csv", 9))
        assert gc.isenabled() is collecting


def cyclic_garbage(argv) -> int:
    """Objects in reference cycles that ``argv``'s command leaves unreachable."""
    gc.collect()
    gc.disable()
    try:
        assert main([str(a) for a in argv]) == 0
        return gc.collect()
    finally:
        gc.enable()


class TestNoCyclicGarbageGrowsWithInput:
    """Each leaf subcommand leaves as much cyclic garbage on an input four
    times larger as on a small one (the parser's own cycles, a constant)."""

    SIZE = 12

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        made = {}
        for scale in (1, 4):
            n = self.SIZE * scale
            made[scale] = {
                "lexicon": lexicon_file(root / f"lexicon{scale}.csv", 5 * n),
                "sentences": root / f"sentences{scale}.csv",
                "pairs": root / f"pairs{scale}.csv",
                "corpus": root / f"gen{scale}" / "corpus.tsv",
                "count": 3 * n,
            }
            words = [" ".join(f"word{(i + k) % (5 * n)}" for k in range(4)) for i in range(n)]
            made[scale]["sentences"].write_text(
                "sentence,language\n" + "".join(f"{w},english\n" for w in words),
                encoding="utf-8")
            made[scale]["pairs"].write_text(
                "sentence,source_language,target_language\n"
                + "".join(f"{w},english,french\n" for w in words), encoding="utf-8")
        ctx_lexicon = root / "ctx_lexicon.csv"
        ctx_lexicon.write_bytes(serialize_lexicon(build_ctx_lexicon()))
        for scale in (1, 4):
            assert run("ctx", "generate", "--lex", ctx_lexicon, "--language", "english",
                       "-n", made[scale]["count"], "--out", root / f"gen{scale}") == 0
            # ``ml eval`` refuses a lexicon of other test rows than its model's
            made[scale]["ml_model"] = root / f"ml{scale}" / "model.json"
            assert run("ml", "train", "--lex", made[scale]["lexicon"], "--model",
                       "decision_tree", "--out", root / f"ml{scale}") == 0
        assert run("ctx", "train", "--corpus", made[1]["corpus"], "--out", root / "ctx",
                   "--epochs", "1", "--embedding-dim", "4") == 0
        return {"sizes": made, "ctx_lexicon": ctx_lexicon,
                "ctx_model": root / "ctx" / "model.json"}

    # Each leaf subcommand's arguments; ``{lexicon}``, ``{sentences}``,
    # ``{pairs}``, ``{corpus}``, ``{count}`` and ``{ml_model}`` are the small or
    # the large input.
    COMMANDS = {
        "lexicon validate": "lexicon validate --in {lexicon} --out {out}",
        "lexicon clean": "lexicon clean --in {lexicon} --out {out}",
        "lexicon stats": "lexicon stats --in {lexicon} --out {out}",
        "translate": "translate --lex {lexicon} --in {pairs} --out {out}",
        "compare": "compare --lex {lexicon} --in {sentences} --out {out}",
        "ml train": "ml train --lex {lexicon} --model random_forest --n-trees 3 --out {out}",
        "ml eval": "ml eval --model {ml_model} --lex {lexicon} --out {out}",
        "ctx generate": "ctx generate --lex {ctx_lexicon} --language english -n {count} "
                        "--out {out}",
        "ctx train": "ctx train --corpus {corpus} --epochs 2 --embedding-dim 4 --out {out}",
        "ctx eval": "ctx eval --model {ctx_model} --corpus {corpus} --out {out}",
        "explain": "explain --model {ctx_model} --corpus {corpus} --steps 4 --out {out}",
    }

    def test_every_leaf_subcommand_is_listed(self):
        assert set(self.COMMANDS) == set(CLI_SURFACE)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_constant_cyclic_garbage(self, command, inputs, tmp_path, capsys):
        def argv(scale, out):
            names = {**inputs, **inputs["sizes"][scale], "out": tmp_path / out}
            return [part.format(**names) for part in self.COMMANDS[command].split()]

        cyclic_garbage(argv(1, "warm-up"))  # one-off lazy set-up
        assert cyclic_garbage(argv(1, "small")) == cyclic_garbage(argv(4, "large"))
