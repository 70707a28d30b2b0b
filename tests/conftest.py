"""Shared fixtures: a mini-lexicon carrying the published word scores, a
synthetic English lexicon with context-dependent words for the contextual
model tests, the reference token encoder, a check that every test leaves
the cyclic garbage collector as it found it, and the hypothesis profile
``ci``."""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest
from hypothesis import settings

from lexisent.lexicon import LanguageCode, Lexicon, LexiconEntry, PosTag

# With HYPOTHESIS_PROFILE=ci, as the CI workflow sets, every property draws
# the same examples on every run, so a failure in a CI log reproduces.
settings.register_profile("ci", derandomize=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")

FR = LanguageCode.FRENCH
CIL = LanguageCode.CILUBA
EN = LanguageCode.ENGLISH
AF = LanguageCode.AFRIKAANS
NSO = LanguageCode.SEPEDI
ZU = LanguageCode.ZULU


@pytest.fixture(autouse=True)
def collector_state_kept():
    """Fail a test that leaves the cyclic garbage collector switched on or off,
    or tuned, otherwise than it found it; the state is put back either way."""
    before = gc.isenabled(), gc.get_threshold()
    yield
    after = gc.isenabled(), gc.get_threshold()
    (gc.enable if before[0] else gc.disable)()
    gc.set_threshold(*before[1])
    assert after == before, f"the test changed the collector from {before} to {after}"


def entry(pos: PosTag, mean: float, forms: dict, **override) -> LexiconEntry:
    """Entry whose per-language scores average to ``mean`` exactly.

    ``override`` may pin one language's score (e.g. ``english=4``); the other
    five are set uniformly so the six-score mean stays at ``mean``.
    """
    if override:
        (lang_name, value), = override.items()
        lang = LanguageCode(lang_name)
        rest = (6.0 * mean - value) / 5.0
        scores = {l: (float(value) if l is lang else rest) for l in LanguageCode}
    else:
        scores = {l: float(mean) for l in LanguageCode}
    return LexiconEntry(
        forms={LanguageCode(k): v for k, v in forms.items()},
        pos=pos,
        shared_score=float(mean),
        per_language_scores=scores,
    )


MOT = PosTag.MOT
VERBE = PosTag.VERBE
ADJ = PosTag.ADJECTIF
ADV = PosTag.ADVERBE
ART = PosTag.ARTICLE
CONJ = PosTag.CONJUNCTION
PRON = PosTag.PRONOMPERSONNEL

#: Word scores as printed in the published scoring tables (mean, plus the
#: sentence-language score where the two differ).
PAPER_ENTRIES = [
    # words from the English-source sentences
    entry(PRON, 0.0, {"french": "je", "english": "i", "afrikaans": "ek"}),
    entry(VERBE, 3.5, {"french": "vouloir", "english": "want"}, english=4.0),
    entry(MOT, 3.0, {"french": "aliment", "english": "food"}),
    entry(VERBE, 2.4, {"french": "danser", "english": "to dance"}),
    entry(MOT, 0.0, {"french": "avec", "english": "with"}),
    entry(PRON, 0.0, {"french": "vous", "english": "you"}),
    entry(VERBE, 10.0 / 3.0, {"french": "venir", "english": "come"}),
    entry(MOT, 0.0, {"french": "à", "english": "to"}),
    entry(MOT, 13.0 / 3.0, {"french": "oncle", "english": "uncle"}),
    entry(MOT, 3.0, {"french": "je suis", "english": "i am"}),
    entry(ADJ, 4.5, {"french": "heureux", "english": "happy"}, english=5.0),
    entry(MOT, 5.0 / 3.0, {"french": "aujourd'hui", "english": "today"}, english=2.5),
    entry(MOT, 0.0, {"french": "quoi", "english": "what"}),
    entry(VERBE, 1.5, {"french": "faire", "english": "do"}, english=2.0),
    entry(VERBE, 1.75, {"french": "regarder", "english": "watch"}),
    entry(VERBE, 2.5, {"french": "en attente", "english": "waiting"}, english=3.0),
    entry(VERBE, 4.0, {"french": "accompagner", "english": "to accompany"}),
    entry(VERBE, 3.0, {"french": "avoir", "english": "have"}),
    entry(VERBE, 3.5, {"french": "mangé", "english": "eaten"}, english=6.0),
    entry(MOT, 5.0, {"french": "merci", "ciluba": "tuasakadila", "english": "thank you"}),
    entry(VERBE, 2.0, {"french": "suivre", "english": "follow"}),
    entry(PRON, 0.0, {"french": "moi", "english": "me"}),
    entry(MOT, 5.0, {"french": "maison", "english": "home"}, english=6.0),
    entry(MOT, 1.0, {"french": "pour", "english": "for"}),
    entry(MOT, 1.0, {"french": "amusement", "english": "fun"}),
    entry(ART, 0.0, {"french": "un", "english": "a"}),
    entry(MOT, 4.0, {"french": "bonne journée", "english": "good day"}),
    # words from the Afrikaans-source sentences
    entry(VERBE, 0.0, {"french": "faire confiance", "english": "trust", "afrikaans": "vertrou"}),
    entry(PRON, 2.6, {"french": "elle", "english": "her", "afrikaans": "haar"}),
    entry(VERBE, 0.0, {"french": "conduire", "english": "drive", "afrikaans": "bestuur"}),
    entry(MOT, 0.0, {"french": "vers", "afrikaans": "na"}),
    entry(ART, 0.0, {"french": "le", "afrikaans": "die"}),
    entry(MOT, 14.0 / 3.0, {"french": "ville", "english": "city", "afrikaans": "stad"}),
    # words from the Sepedi-source sentences
    entry(VERBE, 0.0, {"french": "craindre", "english": "to fear", "sepedi": "go tšhaba"}),
    entry(VERBE, -1.0, {"french": "tomber", "english": "to fall", "sepedi": "go wa"}),
    entry(VERBE, 1.0, {"french": "attendre", "english": "to expect", "sepedi": "go letela"}),
    entry(MOT, 2.25, {"french": "lune", "english": "moon", "sepedi": "ngwedi"}),
    entry(PRON, 0.0, {"french": "c'est", "sepedi": "ke"}),
    entry(MOT, 1.0, {"french": "personne", "english": "person", "sepedi": "motho"}),
    entry(CONJ, 0.0, {"french": "et", "sepedi": "le"}),
    entry(MOT, 7.0 / 6.0, {"french": "punition", "english": "punishment", "sepedi": "kotlo"}, sepedi=3.0),
    entry(VERBE, 9.0, {"french": "tu aimes", "english": "you like", "sepedi": "o rata"}),
    entry(MOT, -9.0, {"french": "mauvaises choses", "english": "bad things", "sepedi": "tše mpe"}),
    # words from the Zulu-source sentences
    entry(VERBE, 0.0, {"french": "je les aime", "zulu": "ngiyabathanda"}),
    entry(MOT, 2.75, {"french": "gens", "english": "people", "zulu": "abantu"}),
    entry(MOT, 9.0, {"french": "ceux qui prennent soin", "zulu": "abazinakekelayo"}),
    entry(MOT, 0.0, {"french": "c'est important", "zulu": "kubalulekile"}),
    entry(VERBE, 5.0, {"french": "prendre soin de soi", "zulu": "ukuzinakekela"}),
    entry(VERBE, 2.5, {"french": "fais", "zulu": "yenza"}, zulu=3.0),
    entry(MOT, 0.0, {"french": "ce que tu veux", "zulu": "okufunayo"}),
    entry(VERBE, 5.0, {"french": "tu traites", "zulu": "uphatha"}),
    entry(ADV, -5.0, {"french": "mal", "zulu": "kabi"}),
    entry(VERBE, 9.0, {"french": "tu aimes bien", "zulu": "uthanda"}),
    entry(MOT, 3.0, {"french": "choses", "zulu": "izinto"}),
    entry(ADJ, 0.0, {"french": "mauvaises", "zulu": "ezimbi"}),
]


@pytest.fixture(scope="session")
def paper_lexicon() -> Lexicon:
    return Lexicon(PAPER_ENTRIES)


def simple_entry(fr: str, en: str, score: float, pos: PosTag = MOT) -> LexiconEntry:
    return LexiconEntry(
        forms={FR: fr, EN: en},
        pos=pos,
        shared_score=score,
        per_language_scores={EN: score},
    )


CTX_POSITIVE = ["happy", "good", "love", "great", "nice", "joy", "kind", "warm"]
CTX_NEGATIVE = ["bad", "awful", "hate", "sad", "cruel", "pain", "grim", "sour"]
CTX_NEUTDEF = ["table", "chair", "paper", "stone", "door", "glass", "road", "cloud"]


def build_ctx_lexicon() -> Lexicon:
    """English lexicon with two context-dependent targets and clean word pools."""
    entries = [
        simple_entry("accuser", "accuse", 3.0, VERBE),
        simple_entry("accuser", "accuse", -4.0, VERBE),
        simple_entry("terre", "earth", 2.0),
        simple_entry("terre", "earth", -2.0),
    ]
    entries += [simple_entry(f"pos-{w}", w, 3.0) for w in CTX_POSITIVE]
    entries += [simple_entry(f"neg-{w}", w, -3.0) for w in CTX_NEGATIVE]
    entries += [simple_entry(f"neu-{w}", w, 0.0) for w in CTX_NEUTDEF]
    return Lexicon(entries)


@pytest.fixture(scope="session")
def ctx_lexicon() -> Lexicon:
    return build_ctx_lexicon()


def encode(vocabulary, tokens) -> np.ndarray:
    """The reference encoder that :meth:`ContextModel.pack` must agree with:
    each token's vocabulary id, or the unknown id for a token outside the
    vocabulary, looked up one token at a time."""
    return np.array([vocabulary.token_to_id.get(t, vocabulary.unknown_id) for t in tokens],
                    dtype=int)
