"""Six-language sentiment lexicon: domain types, CSV I/O, cleaning, extension.

It also holds the two text writers every command uses: :func:`csv_text`,
which joins ``str`` cells by ``,`` and quotes only a cell holding ``,``,
``"``, ``\\r`` or ``\\n``, and :func:`json_text`, which writes
``json.dumps``'s indented bytes. Neither calls the standard library's writer.

A lexicon row is one concept carried across up to six languages, with a part
of speech, one shared sentiment score, and optional per-language scores.
Lexicon values are immutable; every operation that changes content returns a
new ``Lexicon`` plus a report describing what happened.

The curation rules live in one place, the walk :func:`_curate`: which forms
:func:`clean` rewrites or drops (:func:`_cleaned_forms`, by
:func:`normalize_form`), and which rows duplicate an earlier one (equal French
form as cleaned, POS and shared score). :func:`clean`,
:func:`validate_lexicon` and :func:`add_entries` build their reports and
refusals from that walk alone; :func:`require_normalized` reads only the
forms, so it calls :func:`_cleaned_forms` without the dedup keys.
"""

from __future__ import annotations

import csv
import io
import unicodedata
from enum import Enum
from functools import cached_property
from itertools import chain, islice
from json.encoder import INFINITY as _INFINITY, encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

SCORE_MIN = -9.0
SCORE_MAX = 9.0

# Scores within this distance of zero classify as neutral.
NEUTRAL_EPSILON = 1e-9


class LanguageCode(str, Enum):
    """The six supported languages, in canonical column order."""

    FRENCH = "french"
    CILUBA = "ciluba"
    ENGLISH = "english"
    AFRIKAANS = "afrikaans"
    SEPEDI = "sepedi"
    ZULU = "zulu"


class PosTag(str, Enum):
    """Part-of-speech labels exactly as they appear in the source data.

    The label set mixes French and English spellings; "adverb" and "adverbe"
    are distinct classes and are never merged.
    """

    ADJECTIF = "adjectif"
    ADVERB = "adverb"
    ADVERBE = "adverbe"
    ARTICLE = "article"
    CONJUNCTION = "conjunction"
    MOT = "mot"
    NOMBRE = "nombre"
    PRONOMPERSONNEL = "pronompersonnel"
    VERBE = "verbe"


class Polarity(str, Enum):
    NEGATIVE = "negative"
    NEUTRAL = "neutral"
    POSITIVE = "positive"

    @classmethod
    def from_score(cls, score: float) -> "Polarity":
        if score > NEUTRAL_EPSILON:
            return cls.POSITIVE
        if score < -NEUTRAL_EPSILON:
            return cls.NEGATIVE
        return cls.NEUTRAL


def unknown_value(what: str, text: str, members: Iterable[Enum]) -> str:
    """Why ``text``, a cell or a flag's value, is refused: it is none of ``members``."""
    return f"unknown {what} {text!r} (expected one of: {', '.join(m.value for m in members)})"


#: Per-language score column names, in header order.
SCORE_COLUMNS: dict[LanguageCode, str] = {
    LanguageCode.FRENCH: "score_fr",
    LanguageCode.CILUBA: "score_cil",
    LanguageCode.ENGLISH: "score_en",
    LanguageCode.AFRIKAANS: "score_af",
    LanguageCode.SEPEDI: "score_nso",
    LanguageCode.ZULU: "score_zu",
}

CSV_HEADER: tuple[str, ...] = tuple(
    [lang.value for lang in LanguageCode]
    + ["pos", "score"]
    + [SCORE_COLUMNS[lang] for lang in LanguageCode]
)


class LexiconFormatError(ValueError):
    """A malformed input table: the lexicon, a sentence CSV or a contextual
    corpus. Carries the row (the header's is 0, data rows count from 1) and,
    where one cell is at fault, its column; the message starts with both, as
    ``[row 3, column 'pos']``."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        prefix = f"[{', '.join(where)}] " if where else ""
        super().__init__(prefix + message)


def table_rows(lines: Iterable[str], columns: tuple[str, ...], header: bool = True,
               **dialect) -> Iterator[tuple[int, list[str]]]:
    """``(row, cells)`` for each data row of the table of ``columns`` in
    ``lines`` (line ends kept, as a file opened with ``newline=""`` gives
    them), split by ``csv.reader`` in strict mode with ``dialect``.

    With ``header`` the first row must equal ``columns`` and is row 0. Data
    rows count from 1 and must each hold ``len(columns)`` cells, so a blank
    line is refused. A bad header, a wrong cell count or a row ``csv`` cannot
    split raises :class:`LexiconFormatError` naming the row; the caller
    checks the cells.
    """
    reader = csv.reader(lines, strict=True, **dialect)
    row_no = -1 if header else 0  # the last row read whole
    try:
        if header:
            found = next(reader, [])
            if tuple(found) != columns:  # a repr shows a BOM or a stray space
                raise LexiconFormatError(f"bad header {found!r}; expected {','.join(columns)}", 0)
            row_no = 0
        for row_no, row in enumerate(reader, row_no + 1):
            if len(row) != len(columns):
                raise LexiconFormatError(
                    f"expected {len(columns)} columns, found {len(row)}", row_no)
            yield row_no, row
    except csv.Error as exc:
        raise LexiconFormatError(f"malformed CSV: {exc}", row_no + 1) from None


def normalize_sentence(sentence: str) -> str:
    """Case-folded and NFC, as sentences are matched against lexicon forms.

    Idempotent: case folding can leave a letter and a combining mark that NFC
    composes (``"ß\u0301"`` folds to ``"ss\u0301"``), so NFC runs again after it.
    On ASCII text NFC changes nothing and case folding is ``lower``, so such
    text is only lowered.
    """
    if sentence.isascii():
        return sentence.lower()
    return unicodedata.normalize("NFC", unicodedata.normalize("NFC", sentence).casefold())


def normalize_form(form: str) -> str:
    """Canonical surface form: :func:`normalize_sentence`, stripped. Diacritics kept."""
    if form.isascii():
        return form.lower().strip()
    return normalize_sentence(form).strip()


def check_score(value: float, row: int | None = None, column: str | None = None) -> float:
    if not (SCORE_MIN <= value <= SCORE_MAX):
        raise LexiconFormatError(
            f"score {value!r} outside [{SCORE_MIN:g}, {SCORE_MAX:g}]", row, column
        )
    return float(value)


class LexiconEntry(NamedTuple):
    """One concept: surface forms per language, POS, shared and per-language scores.

    An entry stores no id: its position in :attr:`Lexicon.entries` is its only
    identity. Missing translations and missing per-language scores are absent
    keys, never empty strings. An entry is a named tuple: it compares equal
    to a plain tuple of the same four fields and unpacks to them, and
    ``entry._replace(...)`` makes a changed copy.
    """

    forms: Mapping[LanguageCode, str]
    pos: PosTag
    shared_score: float
    per_language_scores: Mapping[LanguageCode, float]


#: Disambiguation rank when one surface form maps to several entries.
POS_PRIORITY: dict[PosTag, int] = {
    PosTag.MOT: 0,
    PosTag.VERBE: 1,
    PosTag.NOMBRE: 2,
    PosTag.ADJECTIF: 3,
    PosTag.ADVERB: 4,
    PosTag.ADVERBE: 5,
    PosTag.ARTICLE: 6,
    PosTag.CONJUNCTION: 7,
    PosTag.PRONOMPERSONNEL: 8,
}


class _Tables(NamedTuple):
    index: dict[LanguageCode, dict[str, tuple[int, ...]]]
    phrase_lengths: dict[LanguageCode, dict[str, tuple[int, ...]]]


class Lexicon:
    """Immutable ordered collection of entries with per-language form indexes.

    An entry's id is its 0-based position in ``entries``; the files and
    reports that show an id write it as ``"r<row>"``, the 1-based data row of
    the CSV serialization, so a parse/serialize round trip is the identity.

    Construction keeps only ``entries``. The lookup tables are compiled on
    first use, all at once and once per lexicon, so commands that never look a
    form up never pay for them: ``index`` (form -> entry positions in
    disambiguation order: ranked by :data:`POS_PRIORITY` and then by row, so
    the first position wins and the earliest entry wins a tie), and
    ``phrase_lengths``, which maps the first word of every multi-word form to
    the word counts of the forms that start with it (descending).
    The score columns ``present``, ``effective`` and ``mean`` compile each on
    its own first use, so a command that reads one does not build the others.
    """

    def __init__(self, entries: Iterable[LexiconEntry]):
        self.entries: tuple[LexiconEntry, ...] = tuple(entries)

    @cached_property
    def _tables(self) -> _Tables:
        entries = self.entries
        index: dict[LanguageCode, dict[str, tuple[int, ...]]] = {lang: {} for lang in LanguageCode}
        phrase_lengths: dict[LanguageCode, dict[str, tuple[int, ...]]] = {
            lang: {} for lang in LanguageCode
        }
        # Forms seen more than once collect their positions in a list, ranked and frozen below.
        repeated: dict[LanguageCode, dict[str, list[int]]] = {lang: {} for lang in LanguageCode}
        for position, entry in enumerate(entries):
            for language, form in entry.forms.items():
                forms = index[language]
                if form not in forms:
                    forms[form] = (position,)
                    if " " in form:
                        _add_phrase_length(phrase_lengths[language], form)
                elif form in repeated[language]:
                    repeated[language][form].append(position)
                else:
                    repeated[language][form] = [*forms[form], position]
        for language, forms in repeated.items():
            for form, positions in forms.items():  # sorted is stable: a tie keeps row order
                ranked = sorted(positions, key=lambda i: POS_PRIORITY[entries[i].pos])
                index[language][form] = tuple(ranked)
        return _Tables(index, phrase_lengths)

    @cached_property
    def present(self) -> dict[LanguageCode, dict[int, float]]:
        """Per language, entry position -> the entry's own score, for the
        entries that give one, in row order."""
        present: dict[LanguageCode, dict[int, float]] = {lang: {} for lang in LanguageCode}
        for position, entry in enumerate(self.entries):
            for language, score in entry.per_language_scores.items():
                present[language][position] = score
        return present

    @cached_property
    def effective(self) -> dict[LanguageCode, list[float]]:
        """Per language, the list by position of each entry's own score, else
        its shared score."""
        shared = [entry.shared_score for entry in self.entries]
        effective = {}
        for language, column in self.present.items():
            scores = effective[language] = shared.copy()
            for position, score in column.items():
                scores[position] = score
        return effective

    @cached_property
    def mean(self) -> list[float]:
        """The list by position of the mean of each entry's per-language
        scores, else its shared score."""
        return [
            float_sum(own.values()) / len(own) if own else entry.shared_score
            for entry in self.entries
            for own in [entry.per_language_scores]
        ]

    @property
    def index(self) -> dict[LanguageCode, dict[str, tuple[int, ...]]]:
        return self._tables.index

    @property
    def phrase_lengths(self) -> dict[LanguageCode, dict[str, tuple[int, ...]]]:
        return self._tables.phrase_lengths

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lexicon) and self.entries == other.entries


def _add_phrase_length(lengths: dict[str, tuple[int, ...]], form: str) -> None:
    first = form.partition(" ")[0]
    count = form.count(" ") + 1
    known = lengths.get(first, ())
    if count not in known:
        lengths[first] = tuple(sorted((*known, count), reverse=True))


#: Cells of a CSV row, in header order: (cell index, language) of each form.
_FORM_CELLS: tuple[tuple[int, LanguageCode], ...] = tuple(
    (CSV_HEADER.index(lang.value), lang) for lang in LanguageCode
)
_FRENCH_CELL = CSV_HEADER.index(LanguageCode.FRENCH.value)
_POS_CELL = CSV_HEADER.index("pos")
_SCORE_CELL = CSV_HEADER.index("score")
_POS_BY_VALUE: dict[str, PosTag] = {tag.value: tag for tag in PosTag}
_POS_TEXT: dict[PosTag, str] = {tag: tag.value for tag in PosTag}
#: Every score cell of a row as (cell index, language, column name), in
#: header order: the shared score's first, with language None.
_ROW_SCORE_CELLS: tuple[tuple[int, LanguageCode | None, str], ...] = (
    (_SCORE_CELL, None, "score"),
    *((CSV_HEADER.index(column), lang, column) for lang, column in SCORE_COLUMNS.items()),
)
_LANGUAGES = tuple(LanguageCode)
_BLANKS = ("",) * len(_LANGUAGES)
#: Most distinct scores that one :func:`parse_lexicon` or
#: :func:`serialize_lexicon` call keeps converted at once; a full table is
#: emptied. Scores on the lexicon's discrete scale repeat a few dozen values.
#: Where nearly every score is new, a table that grew with the file cost more
#: in memory traffic than the conversions it saved.
_MEMO_LIMIT = 256
#: Rows that :func:`serialize_lexicon` writes as text before encoding them.
_BLOCK_ROWS = 512


def parse_lexicon(source: bytes | str | Iterable[str]) -> Lexicon:
    """Parse a UTF-8 lexicon CSV into a :class:`Lexicon`.

    ``source`` is the file's bytes, its text, or its lines with their line
    ends kept, such as a text file opened with ``newline=""``. Lines are
    parsed as they are read, so a file read as lines is never held as one
    text. Rows are kept in file order and are *not* cleaned: un-trimmed or
    mixed-case forms and duplicate rows survive parsing so that
    :func:`clean` can report them. The rows come from :func:`table_rows`,
    which checks the header :data:`CSV_HEADER` and each row's column count; a
    ``"`` inside an unquoted cell stays part of it.

    A row's first error is raised by the check that finds it, with the
    1-based data row and, for every check but the column count, the column.
    The checks run in this order: the column count, a missing French form,
    the POS, an empty shared score, then each score cell in header order
    (shared score first), which must be a float literal within
    [:data:`SCORE_MIN`, :data:`SCORE_MAX`].

    Each distinct score literal is converted and range-checked once per call,
    as long as the call has met at most :data:`_MEMO_LIMIT` of them: a literal
    that passed is kept, keyed by its text, and later cells spelled the same
    reuse its float. Literals are never merged by value, so ``"-0"`` still
    reads as ``-0.0`` and ``"0.5"`` and ``".5"`` are checked apart.
    """
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LexiconFormatError(f"lexicon is not valid UTF-8: {exc}") from None
    lines = io.StringIO(source, newline="") if isinstance(source, str) else source
    entries: list[LexiconEntry] = []
    # Score literal -> its float, for literals that passed the checks. A miss
    # is converted inline: a helper call per miss costs more than the table
    # saves when every literal is new.
    scores: dict[str, float] = {}
    for row_no, row in table_rows(lines, CSV_HEADER):
        if not row[_FRENCH_CELL]:
            raise LexiconFormatError("missing required french form", row_no, "french")
        pos = _POS_BY_VALUE.get(row[_POS_CELL])
        if pos is None:
            raise LexiconFormatError(
                unknown_value("POS tag", row[_POS_CELL], PosTag), row_no, "pos")
        if not row[_SCORE_CELL]:
            raise LexiconFormatError("invalid score literal ''", row_no, "score")
        per_language = {}  # holds the shared score too, under None, until popped
        for i, lang, column in _ROW_SCORE_CELLS:
            cell = row[i]
            if cell:
                value = scores.get(cell)
                if value is None:
                    try:
                        value = float(cell)
                    except ValueError:
                        raise LexiconFormatError(
                            f"invalid score literal {cell!r}", row_no, column
                        ) from None
                    if not SCORE_MIN <= value <= SCORE_MAX:  # written so that NaN fails too
                        check_score(value, row_no, column)  # raises the range error
                    if len(scores) == _MEMO_LIMIT:
                        scores.clear()
                    scores[cell] = value
                per_language[lang] = value
        shared = per_language.pop(None)
        entries.append(
            LexiconEntry(
                {lang: row[i] for i, lang in _FORM_CELLS if row[i]},
                pos,
                shared,
                per_language,
            )
        )
    return Lexicon(entries)


def format_score(value: float) -> str:
    """Canonical decimal literal: integral values without a fraction part."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def float_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from ``0.0``, as the builtin ``sum`` adds
    floats up to Python 3.11 (3.12 made it compensated), so that outputs built
    on float sums do not depend on the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


def csv_text(rows: Iterable[Sequence[str]]) -> str:
    """CSV text of ``rows``: ``str`` cells joined by ``,``, each row ended by ``\\n``.

    A cell holding ``,``, ``"``, ``\\r`` or ``\\n`` is quoted: wrapped in
    ``"``, with each inner ``"`` doubled. A row of one empty cell is written
    ``""``, and an empty row as an empty line. This is ``csv.writer``'s
    minimal quoting with a ``\\r\\n`` terminator, so ``csv.reader`` reads
    every cell back whole; the bytes are defined by this rule, not by the
    installed ``csv`` module. A joined line whose only commas are its
    separators, and which holds no ``"``, ``\\r`` or ``\\n``, is written as
    it is.
    """
    buffer = io.StringIO()
    write = buffer.write
    for row in rows:
        line = ",".join(row)
        if not line and len(row) == 1:
            line = '""'
        elif (line.count(",") != len(row) - 1
              or '"' in line or "\r" in line or "\n" in line):
            line = ",".join(map(_csv_cell, row))
        write(line)
        write("\n")
    return buffer.getvalue()


def _csv_cell(cell: str) -> str:
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def json_text(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder, whose
    nested closures are left as cyclic garbage after every call. This writer
    is plain recursion into one list of parts, so it leaves none. Values are
    tested in ``json.dumps``'s order (str, None, True, False, int, float,
    list or tuple, dict), so subclasses such as ``str`` enums and numpy
    floats are written as ``json.dumps`` writes them.
    """
    parts: list[str] = []
    _json_parts(payload, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


# The text of a value of exactly these types, as :func:`_json_parts` writes
# it; a lookup by exact type skips its type tests for the common leaves.
_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _json_float}


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json_parts(value, newline: str, parts: list[str]) -> None:
    """Append the JSON text of ``value`` to ``parts``; ``newline`` is ``"\\n"``
    plus the indentation of the line ``value`` starts on."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            scalar = _JSON_SCALARS.get(type(item))
            if scalar is None:
                parts.append(separator)
                _json_parts(item, inner, parts)
            else:
                parts.append(separator + scalar(item))
            separator = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            key = encode_basestring_ascii(key if type(key) is str else _json_key(key))
            scalar = _JSON_SCALARS.get(type(item))
            if scalar is None:
                parts.append(separator + key + ": ")
                _json_parts(item, inner, parts)
            else:
                parts.append(separator + key + ": " + scalar(item))
            separator = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def serialize_lexicon(lexicon: Lexicon) -> bytes:
    """Canonical CSV bytes; inverse of :func:`parse_lexicon` (row order kept).

    The bytes are :func:`csv_text` of the rows, UTF-8 encoded, built
    :data:`_BLOCK_ROWS` rows at a time: each block's text is encoded as soon
    as it is written, so the whole file is never held as text as well as
    bytes. Each distinct score is formatted once per call, on its first
    cell, as long as the call has met at most :data:`_MEMO_LIMIT` of them;
    equal scores share one literal, which :func:`format_score` makes safe
    (``0.0`` and ``-0.0`` both write ``0``).
    """
    text: dict[float, str] = {}  # score -> format_score(score), this call only

    def rows() -> Iterator[Sequence[str]]:
        yield CSV_HEADER
        for entry in lexicon.entries:
            row = list(map(entry.forms.get, _LANGUAGES, _BLANKS))
            row.append(_POS_TEXT[entry.pos])
            for score in (entry.shared_score, *map(entry.per_language_scores.get, _LANGUAGES)):
                if score is None:
                    row.append("")
                    continue
                literal = text.get(score)
                if literal is None:
                    if len(text) == _MEMO_LIMIT:
                        text.clear()
                    literal = text[score] = format_score(score)
                row.append(literal)
            yield row

    pending = rows()
    # Each block's text is dropped as soon as it is encoded; the rows run out
    # when csv_text of an empty slice gives "".
    return b"".join(iter(lambda: csv_text(islice(pending, _BLOCK_ROWS)).encode("utf-8"), b""))


class CleaningReport(NamedTuple):
    """Everything :func:`clean` changed, naming entries by *input* row, ``"r<row>"``."""

    normalized_forms: list[dict]
    dropped_forms: list[dict]
    removed_duplicates: list[dict]

    @property
    def change_count(self) -> int:
        return (
            len(self.normalized_forms)
            + len(self.dropped_forms)
            + len(self.removed_duplicates)
        )

    def to_json_dict(self) -> dict:
        return {
            "normalized_forms": self.normalized_forms,
            "dropped_forms": self.dropped_forms,
            "removed_duplicates": self.removed_duplicates,
            "change_count": self.change_count,
        }


def _cleaned_forms(entry: LexiconEntry) -> Mapping[LanguageCode, str]:
    """Every form of ``entry`` as :func:`clean` writes it, its
    :func:`normalize_form`, with ``""`` where clean drops the form. It is the
    entry's own mapping when clean would change none of them, so findings are
    looked for only in copied mappings."""
    forms = entry.forms
    for language, form in entry.forms.items():
        normalized = normalize_form(form)
        if normalized != form or not normalized:
            if forms is entry.forms:
                forms = dict(forms)
            forms[language] = normalized
    return forms


def _curate(
    entries: Iterable[LexiconEntry],
) -> Iterator[tuple[int, LexiconEntry, Mapping[LanguageCode, str], int | None]]:
    """The curation walk: ``(row, entry, forms, first_row)`` for each entry in
    row order, rows counted from 1.

    ``forms`` is the entry's :func:`_cleaned_forms`. ``first_row`` is the
    first earlier row with the same dedup key (the French form as clean
    writes it, the POS and the shared score), or ``None``.
    """
    french = LanguageCode.FRENCH
    seen: dict[tuple[str, PosTag, float], int] = {}
    for row, entry in enumerate(entries, start=1):
        forms = _cleaned_forms(entry)
        first_row = seen.setdefault((forms.get(french, ""), entry.pos, entry.shared_score), row)
        yield row, entry, forms, first_row if first_row != row else None


def clean(lexicon: Lexicon) -> tuple[Lexicon, CleaningReport]:
    """Normalize every form and drop exact duplicates, keeping first occurrences.

    Duplicates are rows equal under the dedup key (french form, POS, shared
    score); rows sharing a form but differing in score or POS are kept, since
    they encode context-dependent sentiment. Idempotent.
    """
    report = CleaningReport([], [], [])
    cleaned: list[LexiconEntry] = []
    for row, entry, forms, first_row in _curate(lexicon.entries):
        if forms is not entry.forms:
            for language, before in entry.forms.items():
                after = forms[language]
                if not after:
                    report.dropped_forms.append(
                        {"entry_id": f"r{row}", "language": language.value, "before": before}
                    )
                elif after != before:
                    report.normalized_forms.append(
                        {"entry_id": f"r{row}", "language": language.value,
                         "before": before, "after": after}
                    )
            forms = {language: form for language, form in forms.items() if form}
        if LanguageCode.FRENCH not in forms:
            raise ValueError(
                f"entry r{row}: french form "
                f"{entry.forms.get(LanguageCode.FRENCH, '')!r} normalizes to empty"
            )
        if first_row is not None:
            report.removed_duplicates.append(
                {"entry_id": f"r{row}", "kept_entry_id": f"r{first_row}"})
            continue
        cleaned.append(
            LexiconEntry(forms, entry.pos, entry.shared_score, entry.per_language_scores))
    return Lexicon(cleaned), report


class ValidationReport(NamedTuple):
    """Findings from :func:`validate_lexicon`; an empty report means clean input."""

    duplicates: list[dict]
    unnormalized_forms: list[dict]

    @property
    def issue_count(self) -> int:
        return len(self.duplicates) + len(self.unnormalized_forms)

    def to_json_dict(self) -> dict:
        return {
            "duplicates": self.duplicates,
            "unnormalized_forms": self.unnormalized_forms,
            "issue_count": self.issue_count,
        }


def _rewritten(row: int, entry: LexiconEntry, forms: Mapping[LanguageCode, str]) -> list[dict]:
    """The forms of ``entry`` that clean rewrites or drops, given the walk's
    ``forms``; a dropped form is listed with ``normalized`` ``""``, a literal
    ``""`` form included."""
    return [
        {"row": row, "entry_id": f"r{row}", "language": language.value,
         "form": form, "normalized": forms[language]}
        for language, form in entry.forms.items()
        if forms[language] != form or not form
    ]


def validate_lexicon(lexicon: Lexicon) -> ValidationReport:
    """Flag duplicate rows (under the dedup key) and forms clean would rewrite
    or drop: exactly what :func:`clean` changes."""
    report = ValidationReport([], [])
    for row, entry, forms, first_row in _curate(lexicon.entries):
        if forms is not entry.forms:
            report.unnormalized_forms.extend(_rewritten(row, entry, forms))
        if first_row is not None:
            report.duplicates.append(
                {"row": row, "entry_id": f"r{row}", "first_row": first_row}
            )
    return report


def require_normalized(lexicon: Lexicon) -> None:
    """Refuse a lexicon with forms that sentence tokens could never match.

    Tokens are normalized (NFC, case-folded) before lookup, so a form such as
    ``"Happy "`` would silently score and translate as unknown. Raises
    :class:`LexiconFormatError` naming the first such row and column.
    """
    found = [
        rewrite
        for row, entry in enumerate(lexicon.entries, start=1)
        for forms in [_cleaned_forms(entry)]
        if forms is not entry.forms
        for rewrite in _rewritten(row, entry, forms)
    ]
    if found:
        first = found[0]
        raise LexiconFormatError(
            f"form {first['form']!r} is not normalized (expected {first['normalized']!r}); "
            f"{len(found)} un-normalized form(s) in all; run `lexicon clean` first",
            first["row"],
            first["language"],
        )


class AdditionReport(NamedTuple):
    added: int
    rejected: list[dict]


def add_entries(
    lexicon: Lexicon, new_entries: Sequence[LexiconEntry]
) -> tuple[Lexicon, AdditionReport]:
    """Append entries whose dedup key is novel; conflicts are rejected per entry.

    Every candidate must already be as :func:`clean` writes it, with a French
    form and scores in range; a ``ValueError`` refuses the whole call
    otherwise. A rejected candidate names the entry it conflicts with by its
    row in the returned lexicon, ``"r<row>"``. Conflicts never merge silently.
    """
    accepted: list[LexiconEntry] = []
    rejected: list[dict] = []
    accepted_ids: dict[int, str] = {}  # walk row -> id in the returned lexicon
    for row, entry, forms, first_row in _curate(chain(lexicon.entries, new_entries)):
        if row <= len(lexicon):
            continue
        if LanguageCode.FRENCH not in entry.forms:
            raise ValueError("entry is missing the required french form")
        for language, form in entry.forms.items():
            if not form:
                raise ValueError(f"empty {language.value} form (absent forms must be omitted)")
            if forms[language] != form:
                raise ValueError(
                    f"{language.value} form {form!r} is not normalized (trimmed, case-folded, NFC)"
                )
        check_score(entry.shared_score)
        for language, score in entry.per_language_scores.items():
            check_score(score, column=SCORE_COLUMNS[language])
        if first_row is None:
            accepted.append(entry)
            accepted_ids[row] = f"r{len(lexicon) + len(accepted)}"
            continue
        rejected.append(
            {
                "french": entry.forms[LanguageCode.FRENCH],
                "pos": entry.pos.value,
                "shared_score": entry.shared_score,
                "conflicts_with": accepted_ids.get(first_row, f"r{first_row}"),
            }
        )
    return Lexicon(list(lexicon.entries) + accepted), AdditionReport(len(accepted), rejected)


def context_dependent_forms(lexicon: Lexicon, language: LanguageCode) -> list[str]:
    """Forms of ``language`` that occur in entries of opposite polarity.

    A form qualifies when it appears in at least two entries and, judged by
    the language-specific effective score, at least one is positive and one
    negative. Returned sorted for determinism.
    """
    effective = lexicon.effective[language]
    result = []
    for form, ids in lexicon.index[language].items():
        if len(ids) < 2:
            continue
        polarities = {Polarity.from_score(effective[i]) for i in ids}
        if Polarity.POSITIVE in polarities and Polarity.NEGATIVE in polarities:
            result.append(form)
    return sorted(result)
