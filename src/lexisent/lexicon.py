"""Six-language sentiment lexicon: domain types, CSV I/O, cleaning, extension.

It also holds the two text writers every command uses: :func:`csv_text`,
which joins ``str`` cells by ``,`` and quotes only a cell holding ``,``,
``"``, ``\\r`` or ``\\n``, and :func:`json_text`, which writes
``json.dumps``'s indented bytes. Neither calls the standard library's writer.

A lexicon row is one concept carried across up to six languages, with a part
of speech, one shared sentiment score, and optional per-language scores. A
:class:`Lexicon` holds its rows as columns, and every reader here and in the
commands reads those; no command builds the rows as :class:`LexiconEntry`
values. Lexicons are immutable: an operation that changes content returns a
new ``Lexicon`` plus a report of what happened.

The curation rules live in one place: :func:`_clean_column` says which forms
:func:`clean` rewrites or drops, and :func:`_duplicates` which rows repeat an
earlier one (same French form as cleaned, POS and shared score).
:func:`clean` and :func:`validate_lexicon` report exactly those.
"""

from __future__ import annotations

import csv
import io
import re
import unicodedata
from collections import Counter
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain, compress, count, islice, repeat
from json.encoder import INFINITY as _INFINITY, encode_basestring_ascii
from operator import itemgetter, ne
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


#: A word: a maximal run of characters that are neither whitespace nor one of
#: the separators ``.,!?;:"()``. Apostrophes are word characters so
#: contractions stay whole. For ``str`` patterns ``\s`` matches exactly the
#: characters for which ``str.isspace()`` is true.
WORD_PATTERN = re.compile(r'[^\s.,!?;:"()]+')
_SEPARATORS = '.,!?;:"()'


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
POS_PRIORITY: dict[PosTag, int] = {tag: rank for rank, tag in enumerate([
    PosTag.MOT, PosTag.VERBE, PosTag.NOMBRE, PosTag.ADJECTIF, PosTag.ADVERB, PosTag.ADVERBE,
    PosTag.ARTICLE, PosTag.CONJUNCTION, PosTag.PRONOMPERSONNEL])}


class Lexicon:
    """Immutable ordered rows, held as columns. A row's id is its 0-based
    position; files and reports write it ``"r<row>"``, its CSV data row.

    The columns are lists by position, shared between lexicons and never
    changed: per language, in :class:`LanguageCode` order, ``forms`` (``None``
    where a row has none; a literal ``""`` built in code stays, for
    :func:`clean` to drop) and ``own_scores`` (``None`` where a row has none);
    then ``pos`` and ``shared_scores``. ``Lexicon(entries)`` builds them from
    entries; ``entries``, keyed in language order, is built on first use.
    ``index`` (form -> row positions, by :data:`POS_PRIORITY` then row, so the
    first wins) and ``phrase_lengths`` (first word of a multi-word form -> the
    word counts of the forms it starts, descending) compile together on first
    use; ``present``, ``effective`` and ``mean`` each on its own.
    """

    def __init__(self, entries: Iterable[LexiconEntry]):
        entries = tuple(entries)
        self.forms = {lang: [e.forms.get(lang) for e in entries] for lang in LanguageCode}
        self.own_scores = {
            lang: [e.per_language_scores.get(lang) for e in entries] for lang in LanguageCode}
        self.pos = [e.pos for e in entries]
        self.shared_scores = [e.shared_score for e in entries]

    @classmethod
    def _from_columns(cls, columns: list[list]) -> Lexicon:
        """The lexicon of ``columns``, one per :data:`CSV_HEADER` cell, in its order."""
        lexicon = cls.__new__(cls)
        lexicon.forms = dict(zip(_LANGUAGES, columns[:_POS_CELL]))
        lexicon.pos, lexicon.shared_scores = columns[_POS_CELL], columns[_SCORE_CELL]
        lexicon.own_scores = dict(zip(_LANGUAGES, columns[_SCORE_CELL + 1:]))
        return lexicon

    @cached_property
    def entries(self) -> tuple[LexiconEntry, ...]:
        languages = _LANGUAGES
        return tuple(
            LexiconEntry({lang: form for lang, form in zip(languages, forms) if form is not None},
                         pos, shared,
                         {lang: score for lang, score in zip(languages, own) if score is not None})
            for forms, own, pos, shared in zip(zip(*self.forms.values()),
                                               zip(*self.own_scores.values()),
                                               self.pos, self.shared_scores)
        )

    @cached_property
    def _tables(self) -> tuple[dict, dict]:
        pos, index, phrase_lengths = self.pos, {}, {}
        for language, column in self.forms.items():
            forms = index[language] = {}
            lengths = phrase_lengths[language] = {}
            # Forms seen more than once collect their positions in a list, ranked and frozen below.
            repeated: dict[str, list[int]] = {}
            for position, form in enumerate(column):
                if form is None:
                    pass
                elif form not in forms:
                    forms[form] = (position,)
                    if " " in form:
                        _add_phrase_length(lengths, form)
                elif form in repeated:
                    repeated[form].append(position)
                else:
                    repeated[form] = [*forms[form], position]
            for form, positions in repeated.items():  # sorted is stable: a tie keeps row order
                forms[form] = tuple(sorted(positions, key=lambda i: POS_PRIORITY[pos[i]]))
        return index, phrase_lengths

    @cached_property
    def present(self) -> dict[LanguageCode, dict[int, float]]:
        """Per language, entry position -> the entry's own score, for the
        entries that give one, in row order."""
        return {language: {position: score for position, score in enumerate(column)
                           if score is not None}
                for language, column in self.own_scores.items()}

    @cached_property
    def effective(self) -> dict[LanguageCode, list[float]]:
        """Per language, the list by position of each entry's own score, else
        its shared score."""
        return {language: [shared if own is None else own
                           for own, shared in zip(column, self.shared_scores)]
                for language, column in self.own_scores.items()}

    @cached_property
    def mean(self) -> list[float]:
        """The list by position of the mean of each entry's per-language
        scores, added in language order, else its shared score."""
        return [
            float_sum(own) / len(own) if own else shared
            for scores, shared in zip(zip(*self.own_scores.values()), self.shared_scores)
            for own in [[score for score in scores if score is not None]]
        ]

    @property
    def index(self) -> dict[LanguageCode, dict[str, tuple[int, ...]]]:
        return self._tables[0]

    @property
    def phrase_lengths(self) -> dict[LanguageCode, dict[str, tuple[int, ...]]]:
        return self._tables[1]

    def _columns(self) -> list[list]:
        """The columns, one per :data:`CSV_HEADER` cell, in its order."""
        return [*self.forms.values(), self.pos, self.shared_scores, *self.own_scores.values()]

    def __len__(self) -> int:
        return len(self.pos)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Lexicon) and self.pos == other.pos
                and self.shared_scores == other.shared_scores
                and self.forms == other.forms and self.own_scores == other.own_scores)


def _add_phrase_length(lengths: dict[str, tuple[int, ...]], form: str) -> None:
    first = form.partition(" ")[0]
    count = form.count(" ") + 1
    known = lengths.get(first, ())
    if count not in known:
        lengths[first] = tuple(sorted((*known, count), reverse=True))


_FRENCH_CELL = CSV_HEADER.index(LanguageCode.FRENCH.value)
_POS_CELL = CSV_HEADER.index("pos")
_SCORE_CELL = CSV_HEADER.index("score")  # the score cells run from here to the row's end
_POS_BY_VALUE: dict[str, PosTag] = {tag.value: tag for tag in PosTag}
_POS_TEXT: dict[PosTag, str] = {tag: tag.value for tag in PosTag}
_LANGUAGES = tuple(LanguageCode)
#: Most distinct scores one :func:`serialize_lexicon` call keeps formatted, unless
#: a block holds more: a table that grew with the file cost more than it saved.
_MEMO_LIMIT = 256
#: Rows that :func:`parse_lexicon` checks, and :func:`serialize_lexicon` writes, at once;
#: :func:`_clean_column` tries a column's first block this size.
_BLOCK_ROWS = 512


def parse_lexicon(source: bytes | str | Iterable[str]) -> Lexicon:
    """Parse a UTF-8 lexicon CSV into a :class:`Lexicon`.

    ``source`` is the file's bytes, its text, or its lines with their line
    ends kept, such as a text file opened with ``newline=""``; lines are
    parsed as they are read. Rows are kept in file order and are *not*
    cleaned, so that :func:`clean` can report them. The rows come from
    :func:`table_rows`, which checks the header :data:`CSV_HEADER` and each
    row's column count; a ``"`` inside an unquoted cell stays part of it.

    The columns are filled :data:`_BLOCK_ROWS` rows at a time, and each block
    is checked a column at a time: no French cell is empty, every POS cell is
    a known tag, and each distinct score literal is converted and
    range-checked once, then looked up by its text (so ``"-0"`` still reads
    as ``-0.0``). An empty form or per-language score cell becomes ``None``.
    A block with a fault runs the row checks to raise the first error in file
    order, with its 1-based data row and, for all but the column count, its
    column. A row's checks run in this order: the column count, a missing
    French form, the POS, an empty shared score, then each score cell in
    header order, which must be a float literal within [:data:`SCORE_MIN`,
    :data:`SCORE_MAX`].
    """
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LexiconFormatError(f"lexicon is not valid UTF-8: {exc}") from None
    lines = io.StringIO(source, newline="") if isinstance(source, str) else source
    rows = map(itemgetter(1), table_rows(lines, CSV_HEADER))
    columns: list[list] = [[] for _ in CSV_HEADER]
    while True:
        block: list[list[str]] = []
        try:
            block.extend(islice(rows, _BLOCK_ROWS))
        except ValueError:  # a row table_rows refuses, or a byte that is not UTF-8:
            _add_block(columns, block)  # a fault earlier in the block is named first
            raise
        _add_block(columns, block)
        if len(block) < _BLOCK_ROWS:
            return Lexicon._from_columns(columns)


def _add_block(columns: list[list], block: list[list[str]]) -> None:
    """Append the rows of ``block`` to ``columns``, one per header cell, as
    the lexicon holds them; or raise the block's first error."""
    if not block:
        return
    cells = list(zip(*block))
    try:
        score_of = {text: float(text) for text in set(chain.from_iterable(cells[_SCORE_CELL:]))
                    if text}
        faulty = not all(SCORE_MIN <= score <= SCORE_MAX for score in score_of.values())  # NaN too
    except ValueError:
        faulty = True
    if (faulty or "" in cells[_FRENCH_CELL] or "" in cells[_SCORE_CELL]
            or not _POS_BY_VALUE.keys() >= set(cells[_POS_CELL])):
        _check_rows(block, len(columns[0]) + 1)
    score_of[""] = None
    for column, texts in zip(columns, cells[:_POS_CELL]):
        column.extend([text or None for text in texts])
    columns[_POS_CELL].extend(map(_POS_BY_VALUE.__getitem__, cells[_POS_CELL]))
    for column, texts in zip(columns[_SCORE_CELL:], cells[_SCORE_CELL:]):
        column.extend(map(score_of.__getitem__, texts))


def _check_rows(block: list[list[str]], first_row: int) -> None:
    """Raise the first error of ``block``, rows from ``first_row``, in check order."""
    for row_no, row in enumerate(block, first_row):
        if not row[_FRENCH_CELL]:
            raise LexiconFormatError("missing required french form", row_no, "french")
        if row[_POS_CELL] not in _POS_BY_VALUE:
            raise LexiconFormatError(
                unknown_value("POS tag", row[_POS_CELL], PosTag), row_no, "pos")
        if not row[_SCORE_CELL]:
            raise LexiconFormatError("invalid score literal ''", row_no, "score")
        for column, cell in zip(CSV_HEADER[_SCORE_CELL:], row[_SCORE_CELL:]):
            if cell:
                try:
                    value = float(cell)
                except ValueError:
                    raise LexiconFormatError(
                        f"invalid score literal {cell!r}", row_no, column) from None
                check_score(value, row_no, column)


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

    The bytes are :func:`csv_text` of the rows, zipped from the columns and
    encoded :data:`_BLOCK_ROWS` rows at a time, so the file is never held as
    text as well as bytes. Each distinct score is formatted once while the
    call keeps at most :data:`_MEMO_LIMIT`; equal scores share one literal,
    which :func:`format_score` makes safe (``0.0`` and ``-0.0`` both write ``0``).
    """
    columns = lexicon._columns()
    text: dict[float | None, str] = {None: ""}  # score -> format_score(score), this call only
    blocks = [csv_text([CSV_HEADER]).encode("utf-8")]
    for start in range(0, len(lexicon), _BLOCK_ROWS):
        block = [column[start:start + _BLOCK_ROWS] for column in columns]
        scores = set(chain.from_iterable(block[_SCORE_CELL:]))
        if len(text) + len(scores) > _MEMO_LIMIT:
            text = {None: ""}
        new = scores.difference(text)
        text.update(zip(new, map(format_score, new)))
        rows = zip(*[[form or "" for form in forms] for forms in block[:_POS_CELL]],
                   map(_POS_TEXT.__getitem__, block[_POS_CELL]),
                   *[map(text.__getitem__, scores) for scores in block[_SCORE_CELL:]])
        blocks.append(csv_text(rows).encode("utf-8"))
    return b"".join(blocks)


class CleaningReport(NamedTuple):
    """Everything :func:`clean` changed, naming entries by *input* row, ``"r<row>"``."""

    normalized_forms: list[dict]
    dropped_forms: list[dict]
    removed_duplicates: list[dict]

    @property
    def change_count(self) -> int:
        return len(self.normalized_forms) + len(self.dropped_forms) + len(self.removed_duplicates)

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "change_count": self.change_count}


#: The Latin-1 characters (as bytes) :func:`_matchable` lets a form hold, each
#: NFC in any text: printable, so no whitespace but the space, unchanged by case
#: folding and no separator. In UTF-8 characters beyond ASCII are checked as text.
_LATIN1_MATCHABLE = bytes(b for b in range(256) if chr(b).isprintable()
                          and chr(b).casefold() == chr(b) and chr(b) not in _SEPARATORS)
_UTF8_MATCHABLE = bytes(b for b in _LATIN1_MATCHABLE if b < 128) + bytes(range(128, 256))


def _matchable(forms: list[str | None]) -> bool:
    """Whether every form in ``forms`` is words joined by single spaces, with
    no other whitespace and none of ``.,!?;:"()``, case-folded and NFC: as
    clean leaves it and as a sentence's words join. The forms are checked as
    one text joined by spaces, which no check reads across. False only means
    that a form may fail."""
    if "" in forms:
        return False
    text = " ".join(filter(None, forms))
    try:
        data, allowed, wide = text.encode("latin-1"), _LATIN1_MATCHABLE, ""
    except UnicodeEncodeError:
        data, allowed = text.encode("utf-8", "surrogatepass"), _UTF8_MATCHABLE
        wide = data.translate(None, bytes(range(128))).decode("utf-8", "surrogatepass")
    if data.translate(None, allowed) or b"  " in data or data[:1] == b" " or data[-1:] == b" ":
        return False
    return not wide or (wide.isprintable() and wide.casefold() == wide
                        and unicodedata.is_normalized("NFC", text))


#: A form as :func:`_clean_column` reads it: ``""`` if absent, which is
#: left as it is, and a literal ``""`` as ``" "``, which is dropped.
_CLEAN_TEXT: dict[str | None, str] = {None: "", "": " "}


def _clean_column(forms: list[str | None]) -> tuple[list[str | None], list[int]]:
    """``forms`` as :func:`clean` writes them, each its :func:`normalize_form`
    or ``None`` where absent or dropped (a literal ``""`` too), the column
    itself if none changes; and the positions of the forms that change. A
    :func:`_matchable` column changes in none; its first block is tried
    first, since a dirty column mostly fails there."""
    if _matchable(forms[:_BLOCK_ROWS]) and _matchable(forms):
        return forms, []
    texts = list(map(_CLEAN_TEXT.get, forms, forms))
    # normalize_form of each text, by its steps: NFC, case folding, NFC, strip
    # (on ASCII text NFC changes nothing and case folding lowers).
    normalized = map(str.strip, map(unicodedata.normalize, repeat("NFC"), map(
        str.casefold, map(unicodedata.normalize, repeat("NFC"), texts))))
    changed = list(compress(count(), map(ne, texts, normalized)))
    cleaned = forms.copy() if changed else forms
    for position in changed:
        cleaned[position] = normalize_form(texts[position]) or None
    return cleaned, changed


def _rewrites(lexicon: Lexicon) -> tuple[dict[LanguageCode, list], list[tuple[int, int]]]:
    """The curation walk over the form columns: each as :func:`_clean_column`
    writes it, and ``(position, language index)`` of every form clean rewrites
    or drops, in row order and then language order."""
    cleaned, rewrites = {}, []
    for k, (language, forms) in enumerate(lexicon.forms.items()):
        cleaned[language], changed = _clean_column(forms)
        rewrites += zip(changed, repeat(k))
    rewrites.sort()
    return cleaned, rewrites


def _duplicates(lexicon: Lexicon, french: list[str | None]) -> list[tuple[int, int]]:
    """``(row, first_row)``, rows counted from 1, of each row whose dedup key
    an earlier row holds: ``french``, the French form as clean writes it, the
    POS and the shared score. Only a row whose French form repeats is keyed."""
    repeats, first_row, found = Counter(french), {}, []
    for row in [row for row, form in enumerate(french, 1) if repeats[form] > 1]:
        first = first_row.setdefault(
            (french[row - 1], lexicon.pos[row - 1], lexicon.shared_scores[row - 1]), row)
        if first != row:
            found.append((row, first))
    return found


def clean(lexicon: Lexicon) -> tuple[Lexicon, CleaningReport]:
    """Normalize every form and drop exact duplicates, keeping first occurrences.

    Duplicates are rows equal under the dedup key (french form, POS, shared
    score); rows sharing a form but differing in score or POS are kept, since
    they encode context-dependent sentiment. Idempotent. The result shares
    every column that clean does not change.
    """
    cleaned, rewrites = _rewrites(lexicon)
    french = cleaned[LanguageCode.FRENCH]
    if None in french:
        row = french.index(None)
        raise ValueError(f"entry r{row + 1}: french form "
                         f"{lexicon.forms[LanguageCode.FRENCH][row] or ''!r} normalizes to empty")
    report = CleaningReport([], [], [])
    for position, k in rewrites:
        language = _LANGUAGES[k]
        before, after = lexicon.forms[language][position], cleaned[language][position]
        change = {"entry_id": f"r{position + 1}", "language": language.value, "before": before}
        if after is None:
            report.dropped_forms.append(change)
        else:
            report.normalized_forms.append({**change, "after": after})
    columns = [*cleaned.values(), *lexicon._columns()[_POS_CELL:]]
    keep = [True] * len(lexicon)
    for row, first in _duplicates(lexicon, french):
        report.removed_duplicates.append({"entry_id": f"r{row}", "kept_entry_id": f"r{first}"})
        keep[row - 1] = False
    if report.removed_duplicates:
        columns = [list(compress(column, keep)) for column in columns]
    return Lexicon._from_columns(columns), report


class ValidationReport(NamedTuple):
    """Findings from :func:`validate_lexicon`; an empty report means clean input."""

    duplicates: list[dict]
    unnormalized_forms: list[dict]

    @property
    def issue_count(self) -> int:
        return len(self.duplicates) + len(self.unnormalized_forms)

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "issue_count": self.issue_count}


def validate_lexicon(lexicon: Lexicon) -> ValidationReport:
    """Flag duplicate rows (under the dedup key) and forms clean would rewrite
    or drop: exactly what :func:`clean` changes. A dropped form is listed with
    ``normalized`` ``""``, a literal ``""`` form included."""
    cleaned, rewrites = _rewrites(lexicon)
    return ValidationReport(
        [{"row": row, "entry_id": f"r{row}", "first_row": first}
         for row, first in _duplicates(lexicon, cleaned[LanguageCode.FRENCH])],
        [{"row": position + 1, "entry_id": f"r{position + 1}", "language": language.value,
          "form": lexicon.forms[language][position],
          "normalized": cleaned[language][position] or ""}
         for position, k in rewrites for language in [_LANGUAGES[k]]])


def require_normalized(lexicon: Lexicon) -> None:
    """Refuse a lexicon with forms that sentence tokens could never match.

    A sentence is normalized (NFC, case-folded), split into words at
    whitespace and ``.,!?;:"()`` and looked up by its words joined by single
    spaces, so a form such as ``"Happy "``, ``"good  day"`` or ``"bad."`` would
    silently score as unknown. Raises :class:`LexiconFormatError` naming the
    first form :func:`clean` would change, else the first that is not
    ``" ".join(word_tokens(form))``; only a column that is not
    :func:`_matchable` is walked a form at a time.
    """
    if all(map(_matchable, lexicon.forms.values())):
        return
    cleaned, rewrites = _rewrites(lexicon)
    if rewrites:
        position, k = rewrites[0]
        language = _LANGUAGES[k]
        raise LexiconFormatError(
            f"form {lexicon.forms[language][position]!r} is not normalized "
            f"(expected {cleaned[language][position] or ''!r}); "
            f"{len(rewrites)} un-normalized form(s) in all; run `lexicon clean` first",
            position + 1, language.value)
    unmatched = sorted(
        (position, k, form, words)
        for k, forms in enumerate(lexicon.forms.values())
        for position, form in enumerate(forms) if form is not None
        for words in [" ".join(WORD_PATTERN.findall(normalize_sentence(form)))] if words != form
    )
    if unmatched:
        position, k, form, words = unmatched[0]
        raise LexiconFormatError(
            f"form {form!r} can never match a sentence, whose words split at whitespace "
            f"and at {_SEPARATORS} (its words join as {words!r}); "
            f"{len(unmatched)} such form(s) in all",
            position + 1, _LANGUAGES[k].value)


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
    for entry in new_entries:
        if LanguageCode.FRENCH not in entry.forms:
            raise ValueError("entry is missing the required french form")
        for language, form in entry.forms.items():
            if not form:
                raise ValueError(f"empty {language.value} form (absent forms must be omitted)")
            if normalize_form(form) != form:
                raise ValueError(
                    f"{language.value} form {form!r} is not normalized (trimmed, case-folded, NFC)"
                )
        check_score(entry.shared_score)
        for language, score in entry.per_language_scores.items():
            check_score(score, column=SCORE_COLUMNS[language])
    columns = [old + new for old, new in zip(lexicon._columns(), Lexicon(new_entries)._columns())]
    merged = Lexicon._from_columns(columns)
    french, _ = _clean_column(merged.forms[LanguageCode.FRENCH])
    conflicts = [(row, first) for row, first in _duplicates(merged, french) if row > len(lexicon)]
    keep = [True] * len(merged)
    for row, _ in conflicts:
        keep[row - 1] = False
    row_in_result = list(accumulate(keep, initial=0))  # by merged row
    rejected = [{"french": french[row - 1], "pos": merged.pos[row - 1].value,
                 "shared_score": merged.shared_scores[row - 1],
                 "conflicts_with": f"r{row_in_result[first]}"} for row, first in conflicts]
    added = Lexicon._from_columns([list(compress(column, keep)) for column in columns])
    return added, AdditionReport(len(new_entries) - len(rejected), rejected)


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
