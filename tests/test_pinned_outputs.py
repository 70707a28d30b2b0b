"""Byte pins for the files that ``compare``, ``translate`` and ``lexicon
clean``, ``validate`` and ``stats`` write, and for the CSVs of ``ml train``.

The ``compare``/``translate`` fixture is fixed: the published-score lexicon
plus entries that make some forms ambiguous and some scores non-integral, and
sentences drawn from a seeded ``random.Random`` over its forms, unknown words
and separators. Its SHA-256s were recorded before the tokenize and scoring
walks were rewritten for speed. The ``lexicon`` fixture is a raw CSV whose
score literals are all distinct text, equal values spelled apart included
(``-0``/``0``, ``0.5``/``0.50``/``.5``), with a duplicate row; its SHA-256s
were recorded before parse, serialize and EDA began converting each distinct
score once. The two reports that print entry ids, ``cleaning_report.json``
and ``validation_report.json``, were pinned while entries still stored their
id; the reports now write it from the row. The ``ml train`` CSVs
(``dataset.csv`` and every ``roc_*.csv``) come from a decision tree on the
published-score lexicon; a tree's probabilities are count fractions, so they
do not depend on the BLAS build. Their SHA-256s were recorded before
``csv_text`` stopped running ``csv.writer``. ROC files keep only the curve's
corner points; the default tree's curves have no straight run, so their pins
held when the collinear points were dropped. The ``--max-depth 2`` tree's
curves have such runs, and its pins were checked to be the files that the
full sweep wrote, less the rows inside a straight run. ``comparison.json`` was pinned
again when it stopped repeating the CSV's rows and became the run's summary.
``ctx generate``'s ``corpus.tsv`` comes from the small English lexicon of
the contextual tests at two seeds and one weight triple with a zero; it is
made of PCG64 draws and string operations alone, so unlike the contextual
model's files its bytes do not depend on the machine. Its SHA-256s were
recorded before each label stopped being drawn by ``Generator.choice``.
Any change to these files' bytes has to be deliberate.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random

import pytest

from lexisent import contextual, eda, metrics
from lexisent import lexicon as lexicon_module
from lexisent.cli import main
from lexisent.lexicon import LanguageCode, Lexicon, LexiconEntry, PosTag, serialize_lexicon

from conftest import PAPER_ENTRIES, build_ctx_lexicon

EXPECTED_SHA256 = {
    "compare/comparison.csv": "4c3659baf22b444c03a2351f795a57ef9b3641afe6a16f501735bfb5fe212d59",
    "compare/comparison.json": "07021751af60d85ec0b3f1d00809513d5504e92d8cf402042fe676dcddada66a",
    "translate/translations.csv": "f4aeae0ed242411ed333658e7b0aaf7583399af323af9b3082bfabe81755e91f",
}

LEXICON_SHA256 = {
    "clean/cleaned.csv": "198419f8bad1510db7c339cb0b82e8307973483c6b81c2ced59325a519bd5c02",
    "clean/cleaning_report.json":
        "17a8f3d427f48bb5aa192cad86d728cae0f5d46a1eebca2cff6a44a6872894f3",
    "validate/validation_report.json":
        "83b54a9c81863fe34b2ffdb9631aedd04f0dfd305b48ce6439df840c73d688a7",
    "stats/eda.json": "b4abc1a9bdc0e1d7b2fa523d2fb98914945c4f70c12c1e1fa4faa3373d210134",
}

ML_TRAIN_SHA256 = {
    "dataset.csv": "45b2d9cfc8c4569b45502845cec1ef3da5ec0453416c6a4f9cd1753890bf3c2e",
    "roc_mot.csv": "fd74b5dca5b3d32d5c2f1ae4c1ea66ee2bbe663e50d6717a93e43dab9927e2cf",
    "roc_pronompersonnel.csv": "a9656ddd0231ad35b284d31b23e6353f335aadcbb149b3baad749ded8d83fec1",
    "roc_verbe.csv": "a89c3c105d3df0597dc65164c173e624c761f3f64a18b1733045fb607ca88be0",
}

#: ``roc_*.csv`` of ``ml train --model decision_tree --max-depth 2``.
ML_TRAIN_DEPTH_2_SHA256 = {
    "roc_mot.csv": "09993592c75aba9ed2cca0afbb8f2a3c183f825911d80c9ccd582a18026308e1",
    "roc_pronompersonnel.csv": "883c19bb8f6046e4ece87e3a09b3103c17ec076daee2578de8ac3f5d14d3a967",
    "roc_verbe.csv": "2fd4b470215775d584157ed0e7194e316a7ff295f6e416c6fd22bdce2be99ba7",
}

CORPUS_SHA256 = {
    ("0", "0.4,0.2,0.4"): "18c0e0f1716f5084998a433cd17eea5cb6db1d6b17ffe0211e43611f9858d5ab",
    ("1", "0.4,0.2,0.4"): "de08933c064dc07837c76726a1e5ecdb4768e17137649a9a2d2833bab8d69129",
    ("1", "0,1,2"): "2e4daa9a76fbd059c85003c347970c4da268600aeaf3a6f60205b3fe8d468267",
}

#: Row 3 duplicates row 1 (French form once cleaned, POS, and a shared score
#: of ``0`` against ``-0``); scores sit on the neutral threshold, on half-unit
#: bin edges and on the range ends, and the only verb scores ``-0.0``, which
#: ``eda.json`` writes with its sign.
RAW_LEXICON = (
    "french,ciluba,english,afrikaans,sepedi,zulu,pos,score,"
    "score_fr,score_cil,score_en,score_af,score_nso,score_zu\n"
    "bon,bimpe,good,goed,botse,kuhle,adjectif,-0,1.25,2,3.5,0.50,-1e-10,4.75\n"
    "mal,bibi,Bad ,sleg,mpe,kubi,adjectif,0.5,-2.5,-3,-1.75,-4.25,2.5,-0.5\n"
    " Bon ,,good,,,,adjectif,0,.5,,,,,\n"
    "joie,disanka,joy,vreugde,lethabo,injabulo,mot,8.75,9,7.5,+6,5.25,1e-9,8.0\n"
    "tristesse,,sadness,hartseer,,usizi,mot,-8.5,-9.0,,-7.25,-6.5,,-5.75\n"
    "vite,lubilu,fast,vinnig,ka pela,ngokushesha,adverbe,1.5e0,0.25,-0.25,0.75,-0.75,1.75,-1.25\n"
    "lentement,,slowly,stadig,,kancane,adverb,2e-9,-1.5,,0.1,-0.3,,1.0e-1\n"
    "peut-être,mpamu,maybe,miskien,mohlomongwe,mhlawumbe,mot,-1e-9,3.25,-4.5,-2.25,6.5,-8.25,7.25\n"
    "aller,kuya,go,gaan,sepela,hamba,verbe,-0.0,0.0,+0,-0.00,.25,-.25,0e0\n"
)

#: Entries that share a form with a paper entry under another POS tag (so the
#: form is ambiguous) or carry scores whose mean is not a short decimal.
EXTRA_ENTRIES = [
    LexiconEntry({LanguageCode.FRENCH: "confiance", LanguageCode.ENGLISH: "trust"},
                 PosTag.MOT, -2.0, {LanguageCode.ENGLISH: -2.5, LanguageCode.FRENCH: 0.1}),
    LexiconEntry({LanguageCode.FRENCH: "lune rousse", LanguageCode.SEPEDI: "ngwedi"},
                 PosTag.ADJECTIF, 0.2, {LanguageCode.SEPEDI: 0.1, LanguageCode.ZULU: 0.2}),
    LexiconEntry({LanguageCode.FRENCH: "joie de vivre", LanguageCode.ENGLISH: "joy of life",
                  LanguageCode.ZULU: "injabulo"},
                 PosTag.MOT, 7.0 / 3.0, {LanguageCode.ZULU: 1.1, LanguageCode.ENGLISH: -0.7}),
]

UNKNOWN_WORDS = ["qwerty", "Zorb", "xyzzy", "ÉTÉ", "straße"]
SEPARATORS = [" ", " ", " ", ", ", ". ", "! ", "? ", "; ", ": ", ' "', '" ', " (", ") "]


def sentences(lexicon: Lexicon, count: int, seed: int) -> list[tuple[str, LanguageCode]]:
    """``count`` seeded sentences, each in one language, of 0 to 8 pieces."""
    rng = random.Random(seed)
    languages = list(LanguageCode)
    forms = {language: sorted(lexicon.index[language]) for language in languages}
    out = []
    for _ in range(count):
        language = rng.choice(languages)
        pieces = []
        for _ in range(rng.randint(0, 8)):
            word = rng.choice(forms[language]) if rng.random() < 0.75 else rng.choice(
                UNKNOWN_WORDS)
            pieces.append(word.upper() if rng.random() < 0.1 else word)
            pieces.append(rng.choice(SEPARATORS))
        out.append(("".join(pieces).strip(), language))
    return out


def csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


@pytest.fixture
def fixture_files(tmp_path):
    lexicon = Lexicon(PAPER_ENTRIES + EXTRA_ENTRIES)
    (tmp_path / "lexicon.csv").write_bytes(serialize_lexicon(lexicon))
    scored = sentences(lexicon, 80, seed=0)
    (tmp_path / "sentences.csv").write_text(
        csv_text([("sentence", "language")] + [(s, l.value) for s, l in scored]),
        encoding="utf-8")
    rng = random.Random(1)
    pairs = [(s, l.value, rng.choice(list(LanguageCode)).value)
             for s, l in sentences(lexicon, 80, seed=1)]
    (tmp_path / "pairs.csv").write_text(
        csv_text([("sentence", "source_language", "target_language")] + pairs),
        encoding="utf-8")
    return tmp_path


def test_compare_and_translate_outputs_are_byte_identical(fixture_files, monkeypatch):
    monkeypatch.chdir(fixture_files)
    assert main(["compare", "--lex", "lexicon.csv", "--in", "sentences.csv",
                 "--out", "compare"]) == 0
    assert main(["translate", "--lex", "lexicon.csv", "--in", "pairs.csv",
                 "--out", "translate"]) == 0
    digests = {name: hashlib.sha256((fixture_files / name).read_bytes()).hexdigest()
               for name in EXPECTED_SHA256}
    assert digests == EXPECTED_SHA256


def test_lexicon_clean_and_stats_outputs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.csv").write_text(RAW_LEXICON, encoding="utf-8")
    assert main(["lexicon", "clean", "--in", "raw.csv", "--out", "clean"]) == 0
    assert main(["lexicon", "validate", "--in", "raw.csv", "--out", "validate"]) == 0
    assert main(["lexicon", "stats", "--in", "raw.csv", "--out", "stats"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in LEXICON_SHA256}
    assert digests == LEXICON_SHA256


def compensated_sum(values, start=0):
    """The builtin ``sum``, but floats are added exactly rounded, as a
    compensated ``sum`` (Python 3.12 and later) may add them."""
    values = list(values)
    if any(isinstance(value, float) for value in [start, *values]):
        return math.fsum([start, *values])
    return sum(values, start)


def test_float_sums_do_not_depend_on_the_interpreter(tmp_path, monkeypatch):
    """Float sums that reach an output add left to right, as the builtin
    ``sum`` did before Python 3.12: a compensated ``sum`` leaves them
    unchanged."""
    for module in (contextual, eda, lexicon_module, metrics):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.csv").write_text(RAW_LEXICON, encoding="utf-8")
    assert main(["lexicon", "stats", "--in", "raw.csv", "--out", "stats"]) == 0
    assert hashlib.sha256((tmp_path / "stats/eda.json").read_bytes()).hexdigest() == (
        LEXICON_SHA256["stats/eda.json"])
    scores = {LanguageCode.FRENCH: 0.1, LanguageCode.CILUBA: 0.2, LanguageCode.ENGLISH: 0.3}
    entry = LexiconEntry({LanguageCode.ENGLISH: "good"}, PosTag.MOT, 0.0, scores)
    assert Lexicon([entry]).mean == [0.20000000000000004]
    macro, weighted = metrics.aggregate_per_class([(0.1, 0.1, 0.1, 1), (0.2, 0.2, 0.2, 1),
                                                   (0.3, 0.3, 0.3, 1)])
    assert macro == weighted == (0.20000000000000004,) * 3


def test_ml_train_csv_outputs_are_byte_identical(tmp_path, monkeypatch, paper_lexicon):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lexicon.csv").write_bytes(serialize_lexicon(paper_lexicon))
    assert main(["ml", "train", "--lex", "lexicon.csv", "--model", "decision_tree",
                 "--out", "ml"]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (tmp_path / "ml").glob("*.csv")}
    assert digests == ML_TRAIN_SHA256


def test_ml_train_roc_files_keep_the_corner_points(tmp_path, monkeypatch, paper_lexicon):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lexicon.csv").write_bytes(serialize_lexicon(paper_lexicon))
    assert main(["ml", "train", "--lex", "lexicon.csv", "--model", "decision_tree",
                 "--max-depth", "2", "--out", "ml"]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (tmp_path / "ml").glob("roc_*.csv")}
    assert digests == ML_TRAIN_DEPTH_2_SHA256
    verbe = (tmp_path / "ml" / "roc_verbe.csv").read_text(encoding="utf-8").splitlines()
    assert verbe[1:] == ["0.0,0.0", "0.6666666666666666,0.25", "0.6666666666666666,0.75",
                         "1.0,1.0"]


def test_ctx_generate_corpus_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lexicon.csv").write_bytes(serialize_lexicon(build_ctx_lexicon()))
    digests = {}
    for seed, weights in CORPUS_SHA256:
        out = tmp_path / f"generate-{seed}-{weights}"
        assert main(["ctx", "generate", "--lex", "lexicon.csv", "--language", "english",
                     "-n", "300", "--seed", seed, f"--label-weights={weights}",
                     "--out", str(out)]) == 0
        digests[seed, weights] = hashlib.sha256((out / "corpus.tsv").read_bytes()).hexdigest()
    assert digests == CORPUS_SHA256
