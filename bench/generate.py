"""Seeded input generator for the benchmark workloads.

Every input file comes from ``random.Random`` seeded with the workload name and
the seed, so one seed always gives the same bytes. The program under test sees
only the files written here.

The generated lexicons follow the CSV layout of ``lexisent.lexicon`` and plant
what the pipeline's costs depend on:

* multi-word phrases of 2 to 5 words in every language but Zulu, whose forms
  are single words as in the source data;
* forms shared by entries of different POS tags and opposite score sign, so
  ``Token.alternatives`` is non-empty and English has context-dependent forms;
* zero-score entries next to the positive and negative ones, so ``ctx
  generate`` finds all three context pools;
* for ``lexicon-curate``, untrimmed, mixed-case and non-NFC forms, exact
  duplicate rows and missing non-French forms.

Run ``python3 bench/generate.py --workload NAME --seed N --out DIR`` to write a
workload's inputs by hand; it prints their measured properties as JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import unicodedata
from pathlib import Path

LANGUAGES = ("french", "ciluba", "english", "afrikaans", "sepedi", "zulu")
POS_TAGS = (
    "adjectif", "adverb", "adverbe", "article", "conjunction",
    "mot", "nombre", "pronompersonnel", "verbe",
)
SCORE_COLUMNS = ("score_fr", "score_cil", "score_en", "score_af", "score_nso", "score_zu")
CSV_HEADER = LANGUAGES + ("pos", "score") + SCORE_COLUMNS

# Per-language syllables. Words are 2 to 5 of them, so each language has far
# more possible words than the largest lexicon needs.
SYLLABLES = {
    "french": ("ba", "be", "ché", "dou", "é", "fa", "gné", "la", "lè", "mi",
               "no", "pa", "ré", "sa", "te", "tou", "va", "vi", "zé", "ron"),
    "ciluba": ("ka", "ku", "lu", "mu", "nda", "ngi", "tshi", "bu", "di", "ma",
               "ba", "sa", "ya", "wa", "nku", "mbu"),
    "english": ("ber", "cal", "dor", "fen", "gar", "hol", "lin", "mar", "nor",
                "pel", "ran", "sel", "tor", "ven", "wel", "yon", "ash", "est"),
    "afrikaans": ("aan", "berg", "dê", "gee", "hout", "kie", "lek", "moe",
                  "nie", "oor", "rê", "sker", "vlê", "wyn", "ys", "bô"),
    "sepedi": ("tšha", "ba", "go", "ke", "le", "mo", "ngwe", "pe", "ra", "se",
               "tše", "thu", "wa", "ya", "ntšh", "bo"),
    "zulu": ("aba", "ba", "ezi", "ku", "ngi", "nka", "phe", "sha", "thi", "uku",
             "zwe", "ya", "nde", "mbo", "hla", "gqi"),
}
# No syllable above contains "x", so every word built with one of these is
# out of the lexicon in every language.
OOV_SYLLABLES = ("xa", "xo", "xu", "ix")

WORKLOADS = ("score-translate", "lexicon-curate", "train-explain")

# Input sizes. "full" is what the benchmark measures; "tiny" keeps the
# self-tests fast.
SIZES = {
    "full": {
        "score-translate": {"entries": 4000, "sentences": 2000},
        "lexicon-curate": {"rows": 10000},
        "train-explain": {"entries": 4000},
    },
    "tiny": {
        "score-translate": {"entries": 400, "sentences": 60},
        "lexicon-curate": {"rows": 400},
        "train-explain": {"entries": 600},
    },
}

PHRASE_SHARE = 0.15  # entries whose non-Zulu forms are phrases
AMBIGUOUS_SHARE = 0.06  # entries that reuse an earlier entry's forms
ZERO_SHARE = 0.10  # entries scored exactly 0
MISSING_SHARE = 0.15  # chance that a non-French form is absent
OOV_SHARE = 0.10  # corpus draws that are out-of-lexicon words
SENTENCE_WORDS = 15
CURATE_MISSING_SHARE = 0.30
DUPLICATE_SHARE = 0.03  # exact duplicate rows in the raw curate lexicon
DIRTY_SHARE = 0.12  # raw curate rows with at least one unnormalized form


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _word(rng: random.Random, syllables: tuple[str, ...]) -> str:
    return "".join(rng.choice(syllables) for _ in range(rng.randint(2, 5)))


def _score(rng: random.Random) -> float:
    # Quarter steps in [-9, 9] without 0, so values serialize exactly.
    value = rng.randint(1, 36) / 4.0
    return value if rng.random() < 0.5 else -value


def _format_score(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def _language_scores(rng: random.Random, shared: float) -> list[str]:
    """Per-language score cells: half present, each keeping the shared sign."""
    cells = []
    for _ in LANGUAGES:
        if rng.random() < 0.5:
            cells.append("")
        elif shared == 0.0:
            cells.append("0")
        else:
            value = min(9.0, max(0.25, abs(shared) + rng.choice((-1.0, -0.5, 0.0, 0.5, 1.0))))
            cells.append(_format_score(value if shared > 0 else -value))
    return cells


def lexicon_rows(rng: random.Random, n: int, missing_share: float = MISSING_SHARE) -> list[list[str]]:
    """``n`` normalized lexicon rows with phrases, shared forms and zero scores."""
    used = {lang: set() for lang in LANGUAGES}
    words = {lang: [] for lang in LANGUAGES}
    fresh: list[list[str]] = []
    rows: list[list[str]] = []

    def new_word(lang: str) -> str:
        while True:
            word = _word(rng, SYLLABLES[lang])
            if word not in used[lang]:
                used[lang].add(word)
                words[lang].append(word)
                return word

    def new_phrase(lang: str) -> str:
        while True:
            phrase = " ".join(rng.choice(words[lang]) for _ in range(rng.randint(2, 5)))
            if phrase not in used[lang]:
                used[lang].add(phrase)
                return phrase

    for _ in range(n):
        copy = bool(fresh) and rng.random() < AMBIGUOUS_SHARE
        if copy:
            # Same forms under another POS with the opposite score sign.
            base = rng.choice(fresh)
            pos = rng.choice([p for p in POS_TAGS if p != base[6]])
            base_score = float(base[7])
            shared = -base_score if base_score != 0.0 else _score(rng)
            forms = base[:6]
        else:
            phrase = len(words["french"]) >= 20 and rng.random() < PHRASE_SHARE
            forms = []
            for lang in LANGUAGES:
                if lang != "french" and rng.random() < missing_share:
                    forms.append("")
                elif phrase and lang != "zulu" and len(words[lang]) >= 20:
                    forms.append(new_phrase(lang))
                else:
                    forms.append(new_word(lang))
            pos = rng.choice(POS_TAGS)
            shared = 0.0 if rng.random() < ZERO_SHARE else _score(rng)
        row = list(forms) + [pos, _format_score(shared)] + _language_scores(rng, shared)
        rows.append(row)
        if not copy:
            fresh.append(row)
    return rows


def _csv_bytes(header, rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _dirty(rng: random.Random, form: str) -> str:
    """One unnormalized spelling of a normalized form."""
    nfd = unicodedata.normalize("NFD", form)
    kinds = ["space", "case"] + (["nfd"] if nfd != form else [])
    kind = rng.choice(kinds)
    if kind == "nfd":
        return nfd
    if kind == "case":
        return form.upper() if rng.random() < 0.3 else form[:1].upper() + form[1:]
    return rng.choice((" ", "  ")) + form if rng.random() < 0.5 else form + rng.choice((" ", "\t"))


def curate_rows(rng: random.Random, n: int) -> tuple[list[list[str]], dict]:
    """Raw rows: clean ones, then dirty spellings and exact duplicates."""
    n_duplicates = round(n * DUPLICATE_SHARE)
    rows = lexicon_rows(rng, n - n_duplicates, missing_share=CURATE_MISSING_SHARE)
    dirty = 0
    for row in rows:
        if rng.random() < DIRTY_SHARE:
            present = [i for i in range(6) if row[i]]
            for i in rng.sample(present, rng.randint(1, min(2, len(present)))):
                row[i] = _dirty(rng, row[i])
            dirty += 1
    for _ in range(n_duplicates):
        at = rng.randrange(len(rows))
        rows.insert(rng.randint(at + 1, len(rows)), list(rows[at]))
    return rows, {"rows": len(rows), "dirty_row_share": dirty / len(rows),
                  "duplicate_row_share": n_duplicates / len(rows)}


def lexicon_properties(rows: list[list[str]]) -> dict:
    """Phrase share, longest phrase and ambiguous-form share per language."""
    per_language = {}
    for i, lang in enumerate(LANGUAGES):
        counts: dict[str, int] = {}
        for row in rows:
            if row[i]:
                counts[row[i]] = counts.get(row[i], 0) + 1
        forms = len(counts) or 1
        lengths = [len(form.split()) for form in counts]
        per_language[lang] = {
            "forms": len(counts),
            "phrase_share": sum(1 for k in lengths if k > 1) / forms,
            "longest_phrase": max(lengths, default=0),
            "ambiguous_form_share": sum(1 for c in counts.values() if c > 1) / forms,
        }
    return {"entries": len(rows), "per_language": per_language}


def corpus_rows(rng: random.Random, rows: list[list[str]], n: int) -> tuple[list[list[str]], dict]:
    """``n`` sentences of about 15 words over all six languages.

    Each draw is a lexicon form (a word or a whole phrase) or, with chance
    ``OOV_SHARE``, a word that no lexicon form contains.
    """
    forms = {lang: sorted({row[i] for row in rows if row[i]}) for i, lang in enumerate(LANGUAGES)}
    known = {lang: {w for form in forms[lang] for w in form.split()} for lang in LANGUAGES}
    sentences = []
    oov = total = 0
    for _ in range(n):
        lang = rng.choice(LANGUAGES)
        words: list[str] = []
        while len(words) < SENTENCE_WORDS:
            if rng.random() < OOV_SHARE:
                words.append(_word(rng, SYLLABLES[lang]) + rng.choice(OOV_SYLLABLES))
            else:
                words.extend(rng.choice(forms[lang]).split())
        oov += sum(1 for w in words if w not in known[lang])
        total += len(words)
        if rng.random() < 0.3:
            words[rng.randrange(len(words) - 1)] += ","
        text = " ".join(words)
        sentences.append([text[:1].upper() + text[1:] + rng.choice(".!?"), lang])
    return sentences, {"sentences": n, "words": total, "out_of_lexicon_share": oov / total}


def generate(workload: str, seed: int, out: Path, size: str = "full") -> dict:
    """Write one workload's inputs into ``out`` and return their properties."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    spec = SIZES[size][workload]
    rng = _rng(workload, seed)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "lexicon-curate":
        rows, props = curate_rows(rng, spec["rows"])
        (out / "raw.csv").write_bytes(_csv_bytes(CSV_HEADER, rows))
        props["lexicon"] = lexicon_properties(rows)
    else:
        rows = lexicon_rows(rng, spec["entries"])
        (out / "lexicon.csv").write_bytes(_csv_bytes(CSV_HEADER, rows))
        props = {"lexicon": lexicon_properties(rows)}
    if workload == "score-translate":
        sentences, corpus_props = corpus_rows(rng, rows, spec["sentences"])
        (out / "corpus.csv").write_bytes(_csv_bytes(("sentence", "language"), sentences))
        targets = []
        for text, lang in sentences:
            targets.append([text, lang, rng.choice([l for l in LANGUAGES if l != lang])])
        (out / "translate.csv").write_bytes(
            _csv_bytes(("sentence", "source_language", "target_language"), targets)
        )
        props["corpus"] = corpus_props
    props = {"workload": workload, "seed": seed, "size": size, **props}
    (out / "properties.json").write_text(json.dumps(props, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return props


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args()
    props = generate(args.workload, args.seed, Path(args.out), args.size)
    print(json.dumps(props, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
