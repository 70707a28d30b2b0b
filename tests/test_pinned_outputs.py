"""Byte pins for the files that ``compare`` and ``translate`` write.

The fixture is fixed: the published-score lexicon plus entries that make some
forms ambiguous and some scores non-integral, and sentences drawn from a
seeded ``random.Random`` over its forms, unknown words and separators. The
SHA-256s were recorded before the tokenize and scoring walks were rewritten
for speed; any change to these files' bytes has to be deliberate.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random

import pytest

from lexisent.cli import main
from lexisent.lexicon import LanguageCode, Lexicon, LexiconEntry, PosTag, serialize_lexicon

from conftest import PAPER_ENTRIES

EXPECTED_SHA256 = {
    "compare/comparison.csv": "4c3659baf22b444c03a2351f795a57ef9b3641afe6a16f501735bfb5fe212d59",
    "compare/comparison.json": "4458dc4cc2ff8f76e3516a8a464f568752fbb287bf54f1a9a962857a12a59dc0",
    "translate/translations.csv": "f4aeae0ed242411ed333658e7b0aaf7583399af323af9b3082bfabe81755e91f",
}

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
