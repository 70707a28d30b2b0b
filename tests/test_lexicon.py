from __future__ import annotations

import csv
import io
import json
import math
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexisent.lexicon import (
    CSV_HEADER,
    POS_PRIORITY,
    SCORE_COLUMNS,
    SCORE_MAX,
    SCORE_MIN,
    LanguageCode,
    Lexicon,
    LexiconEntry,
    LexiconFormatError,
    AdditionReport,
    Polarity,
    PosTag,
    add_entries,
    check_score,
    clean,
    context_dependent_forms,
    csv_text,
    format_score,
    json_text,
    normalize_form,
    normalize_sentence,
    parse_lexicon,
    require_normalized,
    serialize_lexicon,
    table_rows,
    validate_lexicon,
)
from lexisent.lexicon import _BLOCK_ROWS, _matchable
from lexisent.translator import tokenize, word_tokens

HEADER = ",".join(CSV_HEADER)


def csv_bytes(*rows: str) -> bytes:
    return ("\n".join([HEADER] + list(rows)) + "\n").encode("utf-8")


def make_entry(fr="mot", score=1.0, pos=PosTag.MOT, **extra_forms) -> LexiconEntry:
    forms = {LanguageCode.FRENCH: fr}
    forms.update({LanguageCode(k): v for k, v in extra_forms.items()})
    return LexiconEntry(forms=forms, pos=pos, shared_score=score, per_language_scores={})


class TestParsing:
    def test_full_row(self):
        lex = parse_lexicon(csv_bytes("aimer,kusua,love,liefhê,rata,thanda,verbe,9,9,9,9,9,9,9"))
        assert len(lex) == 1
        e = lex.entries[0]
        assert len(e.forms) == 6
        assert e.forms[LanguageCode.ENGLISH] == "love"
        assert e.pos is PosTag.VERBE
        assert e.shared_score == 9.0
        assert all(s == 9.0 for s in e.per_language_scores.values())

    def test_shared_score_out_of_range(self):
        with pytest.raises(LexiconFormatError, match=r"row 1.*score"):
            parse_lexicon(csv_bytes("aimer,,,,,,verbe,12,,,,,,"))

    def test_per_language_score_out_of_range(self):
        with pytest.raises(LexiconFormatError, match=r"row 1.*score_zu"):
            parse_lexicon(csv_bytes("aimer,,,,,,verbe,1,,,,,,-9.5"))

    def test_bad_score_literal(self):
        with pytest.raises(LexiconFormatError, match="invalid score literal"):
            parse_lexicon(csv_bytes("aimer,,,,,,verbe,neuf,,,,,,"))

    def test_unknown_pos(self):
        with pytest.raises(LexiconFormatError, match=r"row 1.*pos"):
            parse_lexicon(csv_bytes("aimer,,,,,,noun,1,,,,,,"))

    def test_wrong_column_count(self):
        with pytest.raises(LexiconFormatError, match="row 2"):
            parse_lexicon(csv_bytes("aimer,,,,,,verbe,1,,,,,,", "mot,1"))

    def test_missing_french(self):
        with pytest.raises(LexiconFormatError, match="french"):
            parse_lexicon(csv_bytes(",kusua,love,,,,verbe,1,,,,,,"))

    def test_bad_header(self):
        with pytest.raises(LexiconFormatError, match="header"):
            parse_lexicon(b"word,score\naimer,1\n")

    def test_empty_translations_are_absent(self):
        lex = parse_lexicon(csv_bytes("aimer,,love,,,,verbe,1,,,2,,,"))
        e = lex.entries[0]
        assert LanguageCode.CILUBA not in e.forms
        assert e.per_language_scores == {LanguageCode.ENGLISH: 2.0}

    def test_duplicates_survive_parsing_and_validate_flags_them(self):
        row = "aimer,,love,,,,verbe,9,,,,,,"
        lex = parse_lexicon(csv_bytes(row, "autre,,other,,,,mot,1,,,,,,", row))
        assert len(lex) == 3
        report = validate_lexicon(lex)
        assert [d["row"] for d in report.duplicates] == [3]
        assert report.duplicates[0]["first_row"] == 1

    def test_validate_compares_normalized_french_forms(self):
        lex = parse_lexicon(csv_bytes(" Aimer,,love,,,,verbe,9,,,,,,",
                                      "aimer,,Like ,,,,verbe,9,,,,,,",
                                      "AIMER ,,love,,,,verbe,8,,,,,,"))
        report = validate_lexicon(lex)
        assert [(d["row"], d["first_row"]) for d in report.duplicates] == [(2, 1)]
        assert [(f["row"], f["language"]) for f in report.unnormalized_forms] == [
            (1, "french"), (2, "english"), (3, "french")]


class TestRoundTrip:
    def test_line_ends(self):
        rows = [HEADER, "aimer,,love,,,,verbe,9,,,,,,", '"ligne\nnouvelle",,hi,,,,mot,1,,,,,,']
        unix, windows, cr = (
            parse_lexicon(end.join(rows + [""]).encode()) for end in ("\n", "\r\n", "\r")
        )
        assert unix == windows == cr
        assert [e.forms[LanguageCode.FRENCH] for e in unix.entries] == ["aimer", "ligne\nnouvelle"]
        assert parse_lexicon(serialize_lexicon(unix)) == unix

    def test_parse_serialize_identity(self, paper_lexicon):
        data = serialize_lexicon(paper_lexicon)
        assert parse_lexicon(data) == paper_lexicon
        assert serialize_lexicon(parse_lexicon(data)) == data

    def test_quoted_fields(self):
        entry = make_entry(fr='salut, "toi"', english="hello there")
        lex = Lexicon([entry])
        again = parse_lexicon(serialize_lexicon(lex))
        assert again.entries[0].forms[LanguageCode.FRENCH] == 'salut, "toi"'


    def test_form_holding_a_carriage_return(self):
        lex = Lexicon([make_entry(fr="a\rb", english="c\r\nd"), make_entry(fr="e\nf")])
        data = serialize_lexicon(lex)
        assert data == (HEADER + '\n"a\rb",,"c\r\nd",,,,mot,1,,,,,,\n'
                        '"e\nf",,,,,,mot,1,,,,,,\n').encode()
        assert parse_lexicon(data) == lex


@pytest.mark.parametrize("rows, text", [
    ([[""]], '""\n'),
    ([[]], "\n"),
    ([["a\rb", "c"]], '"a\rb",c\n'),
    ([['say "hi"', "x,y", "é\tz"]], '"say ""hi""","x,y",é\tz\n'),
    ([["a\x00b", "\x00"]], "a\x00b,\x00\n"),
])
def test_csv_text_edge_rows(rows, text):
    assert csv_text(rows) == text


CELL_ST = st.text(alphabet="ab ,\"\r\n'é\t\x00", max_size=5)


@given(st.lists(st.lists(CELL_ST, min_size=0, max_size=4), max_size=5))
@settings(max_examples=200, deadline=None)
def test_csv_text_reads_back_and_matches_the_plain_writer(rows):
    text = csv_text(rows)
    assert list(csv.reader(io.StringIO(text, newline=""))) == rows
    if not any("\r" in cell for row in rows for cell in row):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        assert text == buffer.getvalue()


class Score(float):
    def __repr__(self):
        return f"Score({float(self)!r})"


class Count(int):
    def __repr__(self):
        return f"Count({int(self)!r})"


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.floats().map(Score), st.integers().map(Count), st.sampled_from(list(Polarity)),
)
JSON_KEYS = (st.text(max_size=3), st.sampled_from(list(LanguageCode)), st.integers(),
             st.floats(), st.booleans(), st.none())
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        *(st.dictionaries(keys, children, max_size=4) for keys in JSON_KEYS),
    ),
    max_leaves=30,
)


@given(JSON_PAYLOADS)
@settings(max_examples=300, deadline=None)
def test_json_text_matches_json_dumps(payload):
    assert json_text(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("payload", [object(), [1, {"a": {1.5}}], {(1, 2): 0}, {"a": 1, 2: 0}],
                         ids=["object", "nested-set", "tuple-key", "mixed-keys"])
def test_json_text_refuses_what_json_dumps_refuses(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        json_text(payload)


FORM_ALPHABET = "abcdefghijklmnopqrstuvwxyzéèêëšţž' -,\""
form_st = st.text(alphabet=FORM_ALPHABET, min_size=1, max_size=12).map(
    lambda s: normalize_form(s)
).filter(lambda s: s != "")
score_st = st.integers(min_value=-9000, max_value=9000).map(lambda n: n / 1000.0)


@st.composite
def lexicon_st(draw) -> Lexicon:
    n = draw(st.integers(min_value=1, max_value=8))
    entries = []
    for _ in range(n):
        forms = {LanguageCode.FRENCH: draw(form_st)}
        for lang in list(LanguageCode)[1:]:
            if draw(st.booleans()):
                forms[lang] = draw(form_st)
        per_language = {
            lang: draw(score_st) for lang in LanguageCode if draw(st.booleans())
        }
        entries.append(
            LexiconEntry(
                forms=forms,
                pos=draw(st.sampled_from(list(PosTag))),
                shared_score=draw(score_st),
                per_language_scores=per_language,
            )
        )
    return Lexicon(entries)


@given(lexicon_st())
@settings(max_examples=60, deadline=None)
def test_round_trip_property(lex):
    data = serialize_lexicon(lex)
    assert parse_lexicon(data) == lex
    assert serialize_lexicon(parse_lexicon(data)) == data


#: Scores that repeat across entries, both zeros included, mixed with any
#: float in range.
REPEATED_SCORE_ST = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -2.25, 9.0, -9.0, 1e-9, 7.0 / 3.0]),
    st.floats(min_value=SCORE_MIN, max_value=SCORE_MAX),
)


@st.composite
def repeated_score_lexicon_st(draw) -> Lexicon:
    entries = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        forms = {LanguageCode.FRENCH: draw(form_st)}
        if draw(st.booleans()):
            forms[LanguageCode.ENGLISH] = draw(form_st)
        per_language = {language: draw(REPEATED_SCORE_ST)
                        for language in draw(st.sets(st.sampled_from(list(LanguageCode))))}
        entries.append(LexiconEntry(forms, draw(st.sampled_from(list(PosTag))),
                                    draw(REPEATED_SCORE_ST), per_language))
    return Lexicon(entries)


def cellwise_serialize(lexicon: Lexicon) -> bytes:
    """The lexicon's CSV with one ``format_score`` call per score cell."""
    rows = [list(CSV_HEADER)]
    for entry in lexicon.entries:
        own = entry.per_language_scores
        rows.append([entry.forms.get(language, "") for language in LanguageCode]
                    + [entry.pos.value, format_score(entry.shared_score)]
                    + [format_score(own[language]) if language in own else ""
                       for language in LanguageCode])
    return csv_text(rows).encode("utf-8")


@given(repeated_score_lexicon_st())
@settings(max_examples=200, deadline=None)
def test_serialize_equals_one_format_per_cell(lex):
    data = serialize_lexicon(lex)
    assert data == cellwise_serialize(lex)
    assert parse_lexicon(data) == lex


@pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 2, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                               _BLOCK_ROWS + 1])
def test_serialize_in_blocks_equals_the_whole_text(n):
    # n entries and the header: the file ends one row short of a block, on
    # one, and one row past it.
    languages = list(LanguageCode)
    lex = Lexicon([
        LexiconEntry({LanguageCode.FRENCH: f"mot {i}", languages[i % 6]: f'é, "{i}"'},
                     PosTag.MOT, -0.0 if i % 5 == 0 else (i % 37 - 18) / 4,
                     {languages[i % 4]: -0.0, languages[5]: i / 7 % 9})
        for i in range(n)
    ])
    data = serialize_lexicon(lex)
    assert data == cellwise_serialize(lex)
    assert parse_lexicon(data) == lex


def test_both_zeros_serialize_as_0():
    zeros = {LanguageCode.FRENCH: -0.0, LanguageCode.ENGLISH: 0.0, LanguageCode.ZULU: -0.0}
    lex = Lexicon([LexiconEntry({LanguageCode.FRENCH: "rien"}, PosTag.MOT, -0.0, zeros),
                   LexiconEntry({LanguageCode.FRENCH: "nul"}, PosTag.MOT, 0.0, {})])
    data = serialize_lexicon(lex)
    assert data == cellwise_serialize(lex)
    assert data.decode().splitlines()[1:] == ["rien,,,,,,mot,0,0,,0,,,0", "nul,,,,,,mot,0,,,,,,"]
    assert parse_lexicon(data) == lex


@given(lexicon_st())
@settings(max_examples=60, deadline=None)
def test_clean_idempotent_property(lex):
    once, report = clean(lex)
    twice, second_report = clean(once)
    assert twice == once
    assert second_report.change_count == 0
    assert len(once) == len(lex) - len(report.removed_duplicates)


class TestClean:
    def test_trims_and_lowercases(self):
        lex = Lexicon([make_entry(fr=" Merci ")])
        cleaned, report = clean(lex)
        assert cleaned.entries[0].forms[LanguageCode.FRENCH] == "merci"
        assert report.normalized_forms == [
            {"entry_id": "r1", "language": "french", "before": " Merci ", "after": "merci"}
        ]

    def test_removes_duplicates_keeping_first(self):
        first = make_entry(fr="aimer", score=9.0, pos=PosTag.VERBE, english="love")
        second = make_entry(fr="aimer", score=9.0, pos=PosTag.VERBE, english="adore")
        cleaned, report = clean(Lexicon([first, second]))
        assert len(cleaned) == 1
        assert cleaned.entries[0].forms[LanguageCode.ENGLISH] == "love"
        assert report.removed_duplicates == [{"entry_id": "r2", "kept_entry_id": "r1"}]

    def test_same_form_different_score_is_kept(self):
        a = make_entry(fr="accuser", score=3.0)
        b = make_entry(fr="accuser", score=-4.0)
        cleaned, _ = clean(Lexicon([a, b]))
        assert len(cleaned) == 2

    def test_case_difference_becomes_duplicate(self):
        cleaned, report = clean(Lexicon([make_entry(fr="merci"), make_entry(fr="MERCI")]))
        assert len(cleaned) == 1
        assert len(report.removed_duplicates) == 1

    def test_whitespace_only_translation_dropped(self):
        e = LexiconEntry(
            forms={LanguageCode.FRENCH: "mot", LanguageCode.ZULU: "  "},
            pos=PosTag.MOT,
            shared_score=0.0,
            per_language_scores={},
        )
        cleaned, report = clean(Lexicon([e]))
        assert LanguageCode.ZULU not in cleaned.entries[0].forms
        assert report.dropped_forms[0]["language"] == "zulu"


class TestAddEntries:
    def test_add_novel(self):
        lex = Lexicon([make_entry(fr=f"mot{i}") for i in range(3)])
        bigger, report = add_entries(lex, [make_entry(fr="nouveau")])
        assert len(bigger) == 4
        assert report.added == 1
        assert bigger.index[LanguageCode.FRENCH].get("nouveau", ()) == (3,)

    def test_duplicate_rejected_lexicon_unchanged(self):
        lex = Lexicon([make_entry(fr="mot", score=2.0)])
        result, report = add_entries(lex, [make_entry(fr="mot", score=2.0)])
        assert result == lex
        assert report.added == 0
        assert report.rejected[0]["conflicts_with"] == "r1"

    def test_add_250_distinct(self):
        lex = Lexicon([make_entry(fr=f"mot{i}") for i in range(10)])
        new = [make_entry(fr=f"anglais{i}", english=f"word{i}") for i in range(250)]
        bigger, report = add_entries(lex, new)
        assert len(bigger) == 260
        assert report.added == 250

    def test_invariant_violation_raises(self):
        lex = Lexicon([make_entry(fr="mot")])
        with pytest.raises(ValueError, match="not normalized"):
            add_entries(lex, [make_entry(fr=" Mal ")])
        with pytest.raises(ValueError, match="french"):
            add_entries(
                lex,
                [LexiconEntry(forms={LanguageCode.ZULU: "x"}, pos=PosTag.MOT,
                              shared_score=0.0, per_language_scores={})],
            )


class TestPolarity:
    @pytest.mark.parametrize(
        "score,expected",
        [(3.0, Polarity.POSITIVE), (-0.5, Polarity.NEGATIVE), (0.0, Polarity.NEUTRAL),
         (1e-12, Polarity.NEUTRAL), (-1e-12, Polarity.NEUTRAL)],
    )
    def test_from_score(self, score, expected):
        assert Polarity.from_score(score) is expected

    def test_effective_score_falls_back_to_shared(self):
        e = LexiconEntry(
            forms={LanguageCode.FRENCH: "mot"},
            pos=PosTag.MOT,
            shared_score=2.0,
            per_language_scores={LanguageCode.ZULU: -1.0},
        )
        effective = Lexicon([e]).effective
        assert effective[LanguageCode.ZULU] == [-1.0]
        assert effective[LanguageCode.ENGLISH] == [2.0]


SCORES = st.one_of(
    st.floats(SCORE_MIN, SCORE_MAX), st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.7, 1e-300])
)
SCORED_ENTRIES = st.builds(
    LexiconEntry,
    forms=st.just({LanguageCode.FRENCH: "mot"}),
    pos=st.sampled_from(list(PosTag)),
    shared_score=SCORES,
    # Keys in drawn order: the mean still sums them in language order.
    per_language_scores=st.dictionaries(st.sampled_from(list(LanguageCode)), SCORES),
)


def bits(column: list[float] | dict[int, float]) -> list[tuple[int, str]]:
    """A score column as (position, exact float) pairs (-0.0 too): a list by
    position, a sparse dict in key order."""
    pairs = column.items() if isinstance(column, dict) else enumerate(column)
    return [(position, score.hex()) for position, score in pairs]


class TestScoreColumns:
    @given(st.lists(SCORED_ENTRIES, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_columns_equal_the_per_entry_expressions(self, entries):
        lexicon = Lexicon(entries)
        assert list(lexicon.effective) == list(lexicon.present) == list(LanguageCode)
        expected_mean = []
        for i, e in enumerate(entries):
            values = [e.per_language_scores[lang] for lang in LanguageCode
                      if lang in e.per_language_scores]
            mean = sum(values) / len(values) if values else e.shared_score
            expected_mean.append((i, mean.hex()))
        assert type(lexicon.mean) is list
        assert bits(lexicon.mean) == expected_mean
        for language in LanguageCode:
            assert type(lexicon.effective[language]) is list
            assert bits(lexicon.effective[language]) == [
                (i, e.per_language_scores.get(language, e.shared_score).hex())
                for i, e in enumerate(lexicon.entries)
            ]
            assert bits(lexicon.present[language]) == [
                (i, e.per_language_scores[language].hex())
                for i, e in enumerate(lexicon.entries) if language in e.per_language_scores
            ]

    def test_each_column_compiles_on_its_own_first_use_once(self):
        lexicon = Lexicon([make_entry()])
        columns = ("present", "effective", "mean")
        assert not set(columns) & set(vars(lexicon))
        assert lexicon.present is lexicon.present
        assert {"present"} == set(columns) & set(vars(lexicon))
        assert lexicon.mean is lexicon.mean
        assert {"present", "mean"} == set(columns) & set(vars(lexicon))
        assert lexicon.effective is lexicon.effective


class TestContextDependentForms:
    def test_opposite_polarities_included(self):
        lex = Lexicon([
            make_entry(fr="accuser", english="accuse", score=3.0),
            make_entry(fr="accuser", english="accuse", score=-4.0),
        ])
        assert context_dependent_forms(lex, LanguageCode.ENGLISH) == ["accuse"]

    def test_unique_forms_give_empty_list(self):
        lex = Lexicon([make_entry(fr="un", english="one"), make_entry(fr="deux", english="two")])
        assert context_dependent_forms(lex, LanguageCode.ENGLISH) == []

    def test_same_polarity_twice_excluded(self):
        lex = Lexicon([
            make_entry(fr="bon", english="fine", score=2.0),
            make_entry(fr="bon", english="fine", score=5.0),
        ])
        assert context_dependent_forms(lex, LanguageCode.ENGLISH) == []


class TestRequireNormalized:
    def test_clean_lexicon_passes(self, paper_lexicon):
        require_normalized(paper_lexicon)

    def test_names_first_row_and_column_and_count(self):
        lex = parse_lexicon(csv_bytes(
            "bon,,good,,,,mot,1,,,,,,",
            "Mal,,bad ,,,,mot,-1,,,,,,",
            "triste,,Sad,,,,mot,-1,,,,,,",
        ))
        with pytest.raises(LexiconFormatError) as info:
            require_normalized(lex)
        assert (info.value.row, info.value.column) == (2, "french")
        message = str(info.value)
        assert "'Mal'" in message and "3 un-normalized" in message
        assert "lexicon clean" in message
        require_normalized(clean(lex)[0])

    @pytest.mark.parametrize("form, words", [("good  day", "good day"), ("bad.", "bad"),
                                             ("a\tb", "a b"), ("(x)", "x"), ("a\u2028b", "a b")])
    def test_refuses_a_form_no_sentence_can_match(self, form, words):
        lex = Lexicon([make_entry(fr="bon", english="fine"),
                       make_entry(fr="mal", english=form), make_entry(fr="x", zulu=form)])
        assert clean(lex)[1].change_count == 0  # clean changes only what normalizing changes
        assert [" ".join(word_tokens(form))] == [words]
        assert [t.entry_id for t in tokenize(form, LanguageCode.ENGLISH, lex)] == [None] * len(
            words.split())
        with pytest.raises(LexiconFormatError) as info:
            require_normalized(lex)
        assert (info.value.row, info.value.column) == (2, "english")
        assert str(info.value) == (
            f"[row 2, column 'english'] form {form!r} can never match a sentence, whose words "
            f"""split at whitespace and at .,!?;:"() (its words join as {words!r}); """
            "2 such form(s) in all")

    def test_an_unnormalized_form_is_named_first(self):
        lex = Lexicon([make_entry(fr="bad."), make_entry(fr="Bon")])
        with pytest.raises(LexiconFormatError, match=r"\[row 2, column 'french'\] form 'Bon'.*"
                                                     "1 un-normalized form.*lexicon clean"):
            require_normalized(lex)


#: Characters that make a form fail one check each: whitespace of several
#: kinds, separators, upper case, a letter that case folding expands, and a
#: combining mark that NFC composes with the letter before it.
TRICKY_FORM_ST = st.text(alphabet="ab \t\x85\xa0.(ÉéßA\u0301ǰ'-", min_size=0, max_size=6)


def reference_require_matchable(lexicon: Lexicon) -> None:
    """The forms one at a time: un-normalized ones first, then forms that are
    not the join of their own words."""
    reference_require_normalized(lexicon)
    found = [(row, language, form, " ".join(word_tokens(form)))
             for row, entry in enumerate(lexicon.entries, start=1)
             for language, form in entry.forms.items() if " ".join(word_tokens(form)) != form]
    if found:
        row, language, form, words = found[0]
        raise LexiconFormatError(
            f"form {form!r} can never match a sentence, whose words split at whitespace and "
            f"""at .,!?;:"() (its words join as {words!r}); {len(found)} such form(s) in all""",
            row, language.value)


@given(st.lists(st.tuples(TRICKY_FORM_ST, TRICKY_FORM_ST), min_size=1, max_size=6),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_require_normalized_equals_the_form_by_form_reference(pairs, normalize):
    entries = [make_entry(fr=normalize_form(fr) if normalize else fr,
                          english=normalize_form(en) if normalize else en) for fr, en in pairs]
    lexicon = Lexicon(entries)
    assert caught(lambda: require_normalized(lexicon)) == caught(
        lambda: reference_require_matchable(lexicon))


@given(st.lists(st.one_of(st.none(), TRICKY_FORM_ST, st.text(alphabet="ab ", max_size=5)),
                max_size=8))
@settings(max_examples=400, deadline=None)
def test_a_matchable_column_holds_only_forms_sentences_match(forms):
    if _matchable(forms):
        for form in filter(lambda form: form is not None, forms):
            assert normalize_form(form) == form == " ".join(word_tokens(form))


class TestIndexes:
    def test_index_is_consistent(self, paper_lexicon):
        for language in LanguageCode:
            for form, positions in paper_lexicon.index[language].items():
                for i in positions:
                    assert paper_lexicon.entries[i].forms[language] == form
        for i, entry in enumerate(paper_lexicon.entries):
            for language, form in entry.forms.items():
                assert i in paper_lexicon.index[language][form]

    def test_a_lexicon_holds_the_given_entries_at_their_positions(self):
        lex = parse_lexicon(csv_bytes("bon,,good,,,,mot,1,,,,,,", "mal,,bad,,,,mot,-1,,,,,,"))
        assert LexiconEntry._fields == ("forms", "pos", "shared_score", "per_language_scores")
        assert not hasattr(lex, "by_id")
        rebuilt = Lexicon(lex.entries)
        assert len(rebuilt.entries) == 2
        assert rebuilt.entries == lex.entries and rebuilt == lex
        shifted = Lexicon(lex.entries[1:])
        assert shifted.entries[0] == lex.entries[1]
        assert shifted.index[LanguageCode.ENGLISH] == {"bad": (0,)}

    def test_ambiguous_forms_precompile_the_pos_winner(self):
        lex = Lexicon([
            make_entry(fr="regarder", english="watch", pos=PosTag.VERBE),
            make_entry(fr="montre", english="watch", pos=PosTag.MOT),
            make_entry(fr="voir", english="watch", pos=PosTag.VERBE),
            make_entry(fr="seul", english="alone"),
        ])
        assert lex.index[LanguageCode.ENGLISH].get("watch", ()) == (1, 0, 2)
        (token,) = tokenize("watch", LanguageCode.ENGLISH, lex)
        assert (token.entry_id, token.alternatives) == (1, (0, 2))

    def test_same_pos_tie_goes_to_the_earliest_row(self):
        entries = [make_entry(fr=f"f{i}", english=f"w{i}") for i in range(1, 9)]
        entries += [make_entry(fr="f9", english="same", pos=PosTag.VERBE),
                    make_entry(fr="f10", english="same", pos=PosTag.VERBE)]
        lex = Lexicon(entries)
        assert lex.index[LanguageCode.ENGLISH]["same"] == (8, 9)
        (token,) = tokenize("same", LanguageCode.ENGLISH, lex)
        assert (token.entry_id, token.alternatives) == (8, (9,))

    def test_phrase_lengths(self, paper_lexicon):
        assert paper_lexicon.phrase_lengths[LanguageCode.ENGLISH]["to"] == (2,)
        assert paper_lexicon.phrase_lengths[LanguageCode.SEPEDI]["go"] == (2,)
        assert paper_lexicon.phrase_lengths[LanguageCode.FRENCH]["tu"] == (3, 2)
        assert "food" not in paper_lexicon.phrase_lengths[LanguageCode.ENGLISH]
        assert paper_lexicon.phrase_lengths[LanguageCode.ZULU] == {}


# ---------------------------------------------------------------------------
# The parser against the row-by-row parser it replaced.


def parse_score(cell: str, row: int, column: str) -> float:
    """One score cell, converted and range-checked on its own."""
    try:
        value = float(cell)
    except ValueError:
        raise LexiconFormatError(f"invalid score literal {cell!r}", row, column) from None
    return check_score(value, row, column)


def reference_parse_lexicon(source: bytes | str) -> Lexicon:
    """The earlier ``parse_lexicon``: one dict per row, enum loops, and a
    checked :func:`parse_score` call per score cell."""
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LexiconFormatError(f"lexicon is not valid UTF-8: {exc}") from None
    else:
        text = source
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise LexiconFormatError(
            f"bad header []; expected {','.join(CSV_HEADER)}", row=0) from None
    if tuple(header) != CSV_HEADER:
        raise LexiconFormatError(
            f"bad header {header!r}; expected {','.join(CSV_HEADER)}", row=0
        )

    entries = []
    for row_no, row in enumerate(reader, start=1):
        if len(row) != len(CSV_HEADER):
            raise LexiconFormatError(
                f"expected {len(CSV_HEADER)} columns, found {len(row)}", row=row_no
            )
        cells = dict(zip(CSV_HEADER, row))
        forms = {}
        for language in LanguageCode:
            cell = cells[language.value]
            if cell != "":
                forms[language] = cell
        if LanguageCode.FRENCH not in forms:
            raise LexiconFormatError("missing required french form", row_no, "french")
        if cells["pos"] not in [tag.value for tag in PosTag]:
            valid = ", ".join(tag.value for tag in PosTag)
            raise LexiconFormatError(
                f"unknown POS tag {cells['pos']!r} (expected one of: {valid})", row_no, "pos")
        pos = PosTag(cells["pos"])
        shared = parse_score(cells["score"], row_no, "score")
        per_language = {}
        for language in LanguageCode:
            column = SCORE_COLUMNS[language]
            cell = cells[column]
            if cell != "":
                per_language[language] = parse_score(cell, row_no, column)
        entries.append(
            LexiconEntry(
                forms=forms,
                pos=pos,
                shared_score=shared,
                per_language_scores=per_language,
            )
        )
    return Lexicon(entries)


FORMS = ["mot", "aimer", " Merci ", "HAPPY", "été", "go tšhaba", "salut, toi", 'dit "ça"',
         "ligne\nnouvelle", "  ", "straß́e"]
SCORES = ["1", "-9", "9", "0.25", "-0", "1e0", "+3", " 1", "1 "]
BAD_CELLS = {
    "form": [""],
    "pos": ["", "MOT", " mot", "noun"],
    "score": ["", "x", "nan", "-inf", "inf", "9.5", "-9.01", "1_0", "١"],
}


@st.composite
def csv_row_st(draw) -> list[str]:
    """A valid row, or one with bad cells, a missing cell or an extra cell."""
    row = [draw(st.sampled_from(FORMS))]
    row += [draw(st.sampled_from([""] + FORMS)) for _ in list(LanguageCode)[1:]]
    row.append(draw(st.sampled_from(list(PosTag))).value)
    row.append(draw(st.sampled_from(SCORES)))
    row += [draw(st.sampled_from([""] + SCORES)) for _ in LanguageCode]
    for _ in range(draw(st.sampled_from([0] * 8 + [1, 1, 2, 3]))):
        column = draw(st.integers(min_value=0, max_value=len(row) - 1))
        kind = "form" if column < len(LanguageCode) else "pos" if column == 6 else "score"
        row[column] = draw(st.sampled_from(BAD_CELLS[kind]))
    if draw(st.integers(min_value=0, max_value=12)) == 0:
        row = row[:-1] if draw(st.booleans()) else row + ["1"]
    return row


@st.composite
def lexicon_csv_st(draw) -> bytes:
    """CSV files, mostly valid: rows drawn from cells that parse, cells that
    fail, and cells that need quoting; sometimes a bad or missing header,
    a CRLF line end, or bytes that are not UTF-8."""
    header = list(CSV_HEADER)
    damage = draw(st.integers(min_value=0, max_value=14))
    if damage == 0:
        header = header[:-1]
    elif damage == 1:
        header[3] = "afrikaan"
    rows = [header] + draw(st.lists(csv_row_st(), max_size=6))
    buffer = io.StringIO()
    line_end = "\r\n" if draw(st.booleans()) else "\n"
    csv.writer(buffer, lineterminator=line_end).writerows(rows)
    data = buffer.getvalue().encode("utf-8")
    if damage == 2:
        data = b""
    elif damage == 3:
        at = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def outcome(parse, data: bytes):
    """The entries a parser returns in order, fields and key order included,
    or its error."""
    try:
        lexicon = parse(data)
    except LexiconFormatError as exc:
        return ("error", str(exc), exc.row, exc.column)
    return [
        (list(e.forms.items()), e.pos, e.shared_score, list(e.per_language_scores.items()))
        for e in lexicon.entries
    ]


#: Text that breaks a row: an unterminated or stray quote, a NUL, and a cell
#: over ``csv``'s field limit, which the reader refuses.
MALFORMED_CELLS = ['"open', 'a"b', '"x"y', "\x00", '"', "x" * 140_000]


@st.composite
def lexicon_text_st(draw) -> str:
    """Lexicon text as a file may hold it: :func:`csv_row_st` rows, whose
    cells may quote line breaks, all ended by ``\\n``, ``\\r\\n`` or a lone
    ``\\r``; sometimes a BOM, a bad header, or a cell written raw that breaks
    its row."""
    rows = [list(CSV_HEADER)] + draw(st.lists(csv_row_st(), max_size=6))
    if draw(st.integers(min_value=0, max_value=10)) == 0:
        rows[0] = rows[0][:-1]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"]))).writerows(rows)
    text = buffer.getvalue()
    if draw(st.integers(min_value=0, max_value=6)) == 0:
        at = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:at] + draw(st.sampled_from(MALFORMED_CELLS)) + text[at:]
    if draw(st.integers(min_value=0, max_value=8)) == 0:
        text = "\ufeff" + text
    return text


def utf8_stream(text: str, chunk_size: int) -> io.TextIOWrapper:
    """``text`` as a file opened with ``newline=""`` gives it, decoded
    ``chunk_size`` bytes at a time, so a line or a ``\\r\\n`` may straddle
    two chunks."""
    stream = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8", newline="")
    stream._CHUNK_SIZE = chunk_size
    return stream


@given(lexicon_text_st(), st.integers(min_value=1, max_value=64))
@settings(max_examples=300, deadline=None)
def test_a_stream_parses_as_its_text(text, chunk_size):
    expected = outcome(parse_lexicon, text)
    assert outcome(parse_lexicon, utf8_stream(text, chunk_size)) == expected
    assert outcome(parse_lexicon, text.encode("utf-8")) == expected


@given(lexicon_csv_st())
@settings(max_examples=400, deadline=None)
def test_parser_equals_the_row_by_row_reference(data):
    expected = outcome(reference_parse_lexicon, data)
    assert outcome(parse_lexicon, data) == expected
    if isinstance(expected, list):
        canonical = serialize_lexicon(parse_lexicon(data))
        assert serialize_lexicon(parse_lexicon(canonical)) == canonical


@pytest.mark.parametrize("row, message, column", [
    ("aimer,,,,,,verbe,1,,,,,", "expected 14 columns, found 13", None),
    (",love,,,,,verbe,1,,,,,,", "missing required french form", "french"),
    ("aimer,,,,,,noun,1,,,,,,", "unknown POS tag 'noun'", "pos"),
    ("aimer,,,,,,verbe,,,,,,,", "invalid score literal ''", "score"),
    ("aimer,,,,,,verbe,nan,,,,,,", "score nan outside [-9, 9]", "score"),
    ("aimer,,,,,,verbe,1,,,x,,,inf", "invalid score literal 'x'", "score_en"),
    ("aimer,,,,,,verbe,1,,9.5,x,,,", "score 9.5 outside [-9, 9]", "score_cil"),
    ("aimer,,,,,,verbe,x,9.5,,,,,", "invalid score literal 'x'", "score"),
    (",,,,,,noun,x,,,,,,", "missing required french form", "french"),
    # Two checks fail: the first in check order names the row's error.
    ("aimer,,,,,,noun,,,,,,,", "unknown POS tag 'noun'", "pos"),
    (",,,,,,verbe,1,,,,,", "expected 14 columns, found 13", None),
    ("aimer,,,,,,verbe,1,1,,,,,nan", "score nan outside [-9, 9]", "score_zu"),
])
def test_row_errors_name_the_first_bad_cell(row, message, column):
    with pytest.raises(LexiconFormatError) as caught:
        parse_lexicon(csv_bytes("bon,,,,,,mot,1,,,,,,", row))
    assert message in str(caught.value)
    assert (caught.value.row, caught.value.column) == (2, column)


@pytest.mark.parametrize("text, header, rows", [
    ("a,b\n1,2\r\n3,4\r5,6", True, [(1, ["1", "2"]), (2, ["3", "4"]), (3, ["5", "6"])]),
    ('a,b\n"x\ny",2\n', True, [(1, ["x\ny", "2"])]),
    ("1,2\n3,4\n", False, [(1, ["1", "2"]), (2, ["3", "4"])]),
    ("", False, []),
])
def test_table_rows_count_data_rows_from_1(text, header, rows):
    assert list(table_rows(io.StringIO(text, newline=""), ("a", "b"), header)) == rows


@pytest.mark.parametrize("text, header, message", [
    ("", True, "[row 0] bad header []; expected a,b"),
    ("a,c\n1,2\n", True, "[row 0] bad header ['a', 'c']; expected a,b"),
    ('"a,b\n', True, "[row 0] malformed CSV: unexpected end of data"),
    ("a,b\n1,2\n\n", True, "[row 2] expected 2 columns, found 0"),
    ('a,b\n1,2\n"3"x,4\n', True, "[row 2] malformed CSV: ',' expected after '\"'"),
    ('"1"x,2\n', False, "[row 1] malformed CSV: ',' expected after '\"'"),
    ("1,2\n3\n", False, "[row 2] expected 2 columns, found 1"),
])
def test_table_rows_errors_name_the_row(text, header, message):
    with pytest.raises(LexiconFormatError) as caught:
        list(table_rows(io.StringIO(text, newline=""), ("a", "b"), header))
    assert str(caught.value) == message


#: Score literals that parse: spellings of one value apart (``-0``, ``0``,
#: ``0.0``; ``.5``, ``0.50``; ``+1``, ``1e0``), padding and an underscore.
GOOD_LITERALS = ["-0", "0", "0.0", "+1", " 2.5 ", ".5", "0.50", "1e0", "0_5"]
#: Score literals that ``float`` or the range check refuses.
BAD_LITERALS = ["nan", "inf", "-inf", "9.0000001", "x"]


@st.composite
def repeated_literal_rows_st(draw) -> list[list[str]]:
    """Rows whose score cells repeat a few literals across rows and columns;
    about one cell in 30 is bad, and an empty cell is bad only as ``score``."""

    def literal(blank: int) -> str:
        if draw(st.integers(min_value=0, max_value=29)) == 0:
            return draw(st.sampled_from(BAD_LITERALS + [""]))
        return draw(st.sampled_from(GOOD_LITERALS + [""] * blank))

    return [["mot", "", "", "", "", "", "mot", literal(0)] + [literal(4) for _ in LanguageCode]
            for _ in range(draw(st.integers(min_value=1, max_value=8)))]


def signed(value: float) -> tuple[float, float]:
    return value, math.copysign(1.0, value)


def cellwise_scores(rows: list[list[str]]):
    """Each row's shared and per-language scores by one :func:`parse_score` call
    per cell, or the first error's text, row and column."""
    parsed = []
    for row_no, row in enumerate(rows, start=1):
        cells = dict(zip(CSV_HEADER, row))
        try:
            shared = parse_score(cells["score"], row_no, "score")
            own = [(language, signed(parse_score(cells[column], row_no, column)))
                   for language, column in SCORE_COLUMNS.items() if cells[column]]
        except LexiconFormatError as exc:
            return ("error", str(exc), exc.row, exc.column)
        parsed.append((signed(shared), own))
    return parsed


@given(repeated_literal_rows_st())
@settings(max_examples=400, deadline=None)
def test_parser_converts_each_literal_as_the_cellwise_reference(rows):
    expected = cellwise_scores(rows)
    try:
        lexicon = parse_lexicon(csv_text([CSV_HEADER] + rows))
    except LexiconFormatError as exc:
        assert ("error", str(exc), exc.row, exc.column) == expected
        return
    assert [(signed(e.shared_score),
             [(language, signed(score)) for language, score in e.per_language_scores.items()])
            for e in lexicon.entries] == expected


def test_more_distinct_literals_than_one_call_keeps():
    # 700 literals, each met again after hundreds of others, "-0" and "0" among them.
    literals = ["-0", "0"] + [repr(k / 64 - 8.5) for k in range(1, 699)]
    rows = [["mot", "", "", "", "", "", "mot", literals[r % 700]]
            + [literals[(7 * r + j) % 700] if (r + j) % 3 else "" for j in range(6)]
            for r in range(2100)]
    lexicon = parse_lexicon(csv_text([CSV_HEADER] + rows))
    assert [(signed(e.shared_score),
             [(language, signed(score)) for language, score in e.per_language_scores.items()])
            for e in lexicon.entries] == cellwise_scores(rows)
    assert serialize_lexicon(lexicon) == cellwise_serialize(lexicon)


def test_a_refused_literal_is_refused_again_after_the_same_text_passed_elsewhere():
    # An empty cell passes as a per-language score but not as the shared one.
    with pytest.raises(LexiconFormatError) as caught:
        parse_lexicon(csv_bytes("bon,,,,,,mot,-0,,,,,,", "mal,,,,,,mot,,-0,,,,,"))
    assert str(caught.value) == "[row 2, column 'score'] invalid score literal ''"
    lexicon = parse_lexicon(csv_bytes("bon,,,,,,mot,-0,0,-0,,,,", "mal,,,,,,mot,0,-0,,,,,"))
    assert [signed(e.shared_score) for e in lexicon.entries] == [(0.0, -1.0), (0.0, 1.0)]
    assert [[signed(v) for v in e.per_language_scores.values()] for e in lexicon.entries] == [
        [(0.0, 1.0), (0.0, -1.0)], [(0.0, -1.0)]]


#: A valid row, and the cells that make one fail: each named by its column.
GOOD_ROW = ["mot", "", "good", "", "", "", "mot", "1", "", "0.5", "", "", "", ""]
BAD_CELLS_BY_COLUMN = [(0, ""), (6, "noun"), (7, ""), (7, "x"), (9, "9.5"), (13, "nan")]


@st.composite
def long_lexicon_csv_st(draw) -> bytes:
    """Files longer than one parse block, with up to three faults (a bad cell
    or a short row) at rows drawn near the first block boundary or anywhere."""
    n = draw(st.integers(min_value=_BLOCK_ROWS - 2, max_value=2 * _BLOCK_ROWS + 2))
    rows = [GOOD_ROW.copy() for _ in range(n)]
    near = st.integers(min_value=_BLOCK_ROWS - 2, max_value=min(n, _BLOCK_ROWS + 3))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        row = draw(st.one_of(near, st.integers(min_value=1, max_value=n))) - 1
        column, cell = draw(st.sampled_from(BAD_CELLS_BY_COLUMN))
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            rows[row] = rows[row][:-1]
        elif column < len(rows[row]):  # a short row has no last cell to spoil
            rows[row][column] = cell
    return csv_text([CSV_HEADER] + rows).encode("utf-8")


@given(long_lexicon_csv_st())
@settings(max_examples=60, deadline=None)
def test_a_long_file_parses_as_the_row_by_row_reference(data):
    assert outcome(parse_lexicon, data) == outcome(reference_parse_lexicon, data)


@pytest.mark.parametrize("bad_row, short_row", [(3, 5), (_BLOCK_ROWS, _BLOCK_ROWS + 1),
                                                (_BLOCK_ROWS + 1, _BLOCK_ROWS + 7)])
def test_a_short_row_after_a_bad_cell_in_its_block_reports_the_bad_cell(bad_row, short_row):
    rows = [GOOD_ROW.copy() for _ in range(short_row + 3)]
    rows[bad_row - 1][6] = "noun"
    rows[short_row - 1] = rows[short_row - 1][:-1]
    with pytest.raises(LexiconFormatError) as caught_error:
        parse_lexicon(csv_text([CSV_HEADER] + rows))
    assert (caught_error.value.row, caught_error.value.column) == (bad_row, "pos")
    rows[bad_row - 1][6] = "mot"
    with pytest.raises(LexiconFormatError, match=f"\\[row {short_row}\\] expected 14 columns"):
        parse_lexicon(csv_text([CSV_HEADER] + rows))


# ---------------------------------------------------------------------------
# Lookup tables compiled on first use.


def reference_tables(lexicon: Lexicon):
    """``index`` and ``phrase_lengths`` built eagerly, one entry and one form
    at a time; ``index`` ranks each form's positions by POS, then by row."""
    entries = lexicon.entries
    index = {lang: {} for lang in LanguageCode}
    for position, entry in enumerate(entries):
        for language, form in entry.forms.items():
            index[language][form] = index[language].get(form, ()) + (position,)
    for forms in index.values():
        for form, positions in forms.items():
            forms[form] = tuple(
                sorted(positions, key=lambda i: (POS_PRIORITY[entries[i].pos], i)))
    phrase_lengths = {lang: {} for lang in LanguageCode}
    for language, forms in index.items():
        for form in forms:
            if " " in form:
                first = form.split(" ")[0]
                lengths = set(phrase_lengths[language].get(first, ())) | {form.count(" ") + 1}
                phrase_lengths[language][first] = tuple(sorted(lengths, reverse=True))
    return index, phrase_lengths


WORDS = ["go", "wa", "le", "bon", "go wa", "go tšhaba", "go wa le", "bon le", "ke"]


@st.composite
def crowded_lexicon_st(draw) -> Lexicon:
    """Lexicons whose forms repeat and share first words."""
    entries = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        forms = {LanguageCode.FRENCH: draw(st.sampled_from(WORDS))}
        for language in draw(st.sets(st.sampled_from(list(LanguageCode)[1:]))):
            forms[language] = draw(st.sampled_from(WORDS))
        entries.append(
            LexiconEntry(forms, draw(st.sampled_from(list(PosTag))), 1.0, {})
        )
    return Lexicon(entries)


def items(table):
    """A table's contents with its key order, nested dicts included."""
    if isinstance(table, dict):
        return [(key, items(value)) for key, value in table.items()]
    return table


@given(crowded_lexicon_st())
@settings(max_examples=150, deadline=None)
def test_lazy_tables_equal_the_eager_reference(lex):
    assert "_tables" not in lex.__dict__
    index, phrase_lengths = reference_tables(lex)
    assert items(lex.index) == items(index)
    assert items(lex.phrase_lengths) == items(phrase_lengths)


@given(crowded_lexicon_st(), st.lists(st.sampled_from(WORDS), max_size=6))
@settings(max_examples=150, deadline=None)
def test_index_ranks_ids_and_a_token_takes_the_first(lex, words):
    for language, forms in lex.index.items():
        for form, ids in forms.items():
            rows = [i for i, e in enumerate(lex.entries) if e.forms.get(language) == form]
            assert ids == tuple(sorted(rows, key=lambda i: POS_PRIORITY[lex.entries[i].pos]))
        for token in tokenize(" ".join(words), language, lex):
            ids = forms.get(token.surface, (None,))
            assert (token.entry_id, token.alternatives) == (ids[0], ids[1:])


class TestLazyTables:
    def test_compiled_once_across_tokenize_calls(self, paper_lexicon, monkeypatch):
        compiled = []
        compile_tables = Lexicon._tables.func

        def counted(lexicon):
            compiled.append(lexicon)
            return compile_tables(lexicon)

        monkeypatch.setattr(Lexicon._tables, "func", counted)
        lex = Lexicon(paper_lexicon.entries)
        for sentence in ["I am happy", "go tšhaba go wa", "tu aimes bien"] * 20:
            for language in LanguageCode:
                tokenize(sentence, language, lex)
        assert lex.index[LanguageCode.ENGLISH].get("happy", ())
        assert compiled == [lex]

    def test_commands_that_never_look_up_a_form_never_compile(self, paper_lexicon):
        from lexisent.eda import compute_eda
        from lexisent.ml import featurize

        lex = parse_lexicon(serialize_lexicon(paper_lexicon))
        validate_lexicon(lex)
        cleaned, _ = clean(lex)
        serialize_lexicon(cleaned)
        compute_eda(cleaned)
        featurize(cleaned, task="pos")
        featurize(cleaned, task="polarity")
        assert "_tables" not in lex.__dict__
        assert "_tables" not in cleaned.__dict__


# ---------------------------------------------------------------------------
# Normalization is idempotent, so a cleaned lexicon stays clean.


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8))
@settings(max_examples=300, deadline=None)
def test_normalize_form_is_idempotent(text):
    once = normalize_form(text)
    assert normalize_form(once) == once


def full_normalize_sentence(text: str) -> str:
    return unicodedata.normalize("NFC", unicodedata.normalize("NFC", text).casefold())


#: ASCII controls that ``str.strip`` removes as whitespace.
STRIPPED_CONTROLS = ["\x1c", "\x1d", "\x1e", "\x1f", "\x0b", "\x0c"]


@given(st.text(alphabet=st.sampled_from([chr(c) for c in range(128)]), max_size=12))
@settings(max_examples=300, deadline=None)
def test_ascii_normalization_equals_the_full_path(text):
    assert normalize_sentence(text) == full_normalize_sentence(text)
    assert normalize_form(text) == full_normalize_sentence(text).strip()


@pytest.mark.parametrize("control", STRIPPED_CONTROLS)
def test_ascii_controls_that_strip_removes(control):
    text = f"{control}Mot {control}X{control}"
    assert normalize_sentence(text) == full_normalize_sentence(text) == text.lower()
    assert normalize_form(text) == full_normalize_sentence(text).strip() == f"mot {control}x"


def test_case_folding_that_leaves_a_composable_mark():
    # "ß" + combining acute folds to "ss" + combining acute, which NFC composes.
    lex = parse_lexicon(csv_bytes("straß́e,,,,,,mot,1,,,,,,", "strasśe,,,,,,mot,1,,,,,,"))
    cleaned, report = clean(lex)
    assert [e.forms[LanguageCode.FRENCH] for e in cleaned.entries] == ["strasśe"]
    assert report.removed_duplicates == [{"entry_id": "r2", "kept_entry_id": "r1"}]
    assert clean(cleaned)[1].change_count == 0
    require_normalized(cleaned)
    (token,) = tokenize("STRAß́E", LanguageCode.FRENCH, cleaned)
    assert token.entry_id == 0


# ---------------------------------------------------------------------------
# The curation walk against the functions it replaced. Each reference is the
# earlier implementation, with its helpers (``LexiconEntry.dedup_key``,
# ``check_entry``, ``unnormalized_forms``) written out inline.


def reference_dedup_key(entry: LexiconEntry) -> tuple:
    return (normalize_form(entry.forms[LanguageCode.FRENCH]), entry.pos, entry.shared_score)


def reference_unnormalized_forms(lexicon: Lexicon) -> list[dict]:
    """The earlier ``unnormalized_forms``, which also lists a literal ``""``
    form now: clean drops it, so validation reports it."""
    found = []
    for row_no, entry in enumerate(lexicon.entries, start=1):
        for language, form in entry.forms.items():
            normalized = normalize_form(form)
            if normalized != form or not form:
                found.append({"row": row_no, "entry_id": f"r{row_no}",
                              "language": language.value, "form": form,
                              "normalized": normalized})
    return found


def reference_clean(lexicon: Lexicon):
    report = {"normalized_forms": [], "dropped_forms": [], "removed_duplicates": []}
    cleaned, seen = [], {}
    for row_no, entry in enumerate(lexicon.entries, start=1):
        entry_id = f"r{row_no}"
        forms = {}
        for language, form in entry.forms.items():
            normalized = normalize_form(form)
            if normalized == "":
                if language is LanguageCode.FRENCH:
                    raise ValueError(
                        f"entry {entry_id}: french form {form!r} normalizes to empty"
                    )
                report["dropped_forms"].append(
                    {"entry_id": entry_id, "language": language.value, "before": form}
                )
                continue
            if normalized != form:
                report["normalized_forms"].append(
                    {"entry_id": entry_id, "language": language.value,
                     "before": form, "after": normalized}
                )
            forms[language] = normalized
        key = (forms[LanguageCode.FRENCH], entry.pos, entry.shared_score)
        if key in seen:
            report["removed_duplicates"].append(
                {"entry_id": entry_id, "kept_entry_id": seen[key]}
            )
            continue
        seen[key] = entry_id
        cleaned.append(LexiconEntry(forms, entry.pos, entry.shared_score,
                                    entry.per_language_scores))
    report["change_count"] = sum(len(found) for found in report.values())
    return Lexicon(cleaned), report


def reference_validate_lexicon(lexicon: Lexicon) -> dict:
    unnormalized = reference_unnormalized_forms(lexicon)
    duplicates, seen = [], {}
    for row_no, entry in enumerate(lexicon.entries, start=1):
        key = reference_dedup_key(entry)
        if key in seen:
            duplicates.append({"row": row_no, "entry_id": f"r{row_no}",
                               "first_row": seen[key]})
        else:
            seen[key] = row_no
    return {"duplicates": duplicates, "unnormalized_forms": unnormalized,
            "issue_count": len(duplicates) + len(unnormalized)}


def reference_require_normalized(lexicon: Lexicon) -> None:
    found = reference_unnormalized_forms(lexicon)
    if found:
        first = found[0]
        raise LexiconFormatError(
            f"form {first['form']!r} is not normalized (expected {first['normalized']!r}); "
            f"{len(found)} un-normalized form(s) in all; run `lexicon clean` first",
            first["row"],
            first["language"],
        )


def reference_check_entry(entry: LexiconEntry) -> None:
    if LanguageCode.FRENCH not in entry.forms:
        raise ValueError("entry is missing the required french form")
    for language, form in entry.forms.items():
        if form == "":
            raise ValueError(f"empty {language.value} form (absent forms must be omitted)")
        if form != normalize_form(form):
            raise ValueError(
                f"{language.value} form {form!r} is not normalized (trimmed, case-folded, NFC)"
            )
    check_score(entry.shared_score)
    for language, score in entry.per_language_scores.items():
        check_score(score, column=SCORE_COLUMNS[language])


def reference_add_entries(lexicon: Lexicon, new_entries):
    existing = {reference_dedup_key(entry): f"r{row_no}"
                for row_no, entry in enumerate(lexicon.entries, start=1)}
    accepted, rejected = [], []
    for entry in new_entries:
        reference_check_entry(entry)
        key = reference_dedup_key(entry)
        if key in existing:
            rejected.append({"french": entry.forms[LanguageCode.FRENCH],
                             "pos": entry.pos.value, "shared_score": entry.shared_score,
                             "conflicts_with": existing[key]})
            continue
        existing[key] = f"new{len(accepted)}"
        accepted.append(entry)
    return Lexicon(list(lexicon.entries) + accepted), {"added": len(accepted),
                                                      "rejected": rejected}


#: French forms that clean merges: untrimmed, mixed case, non-NFC ("e" plus a
#: combining acute), "ß" plus a combining mark that folds to "ss" plus the mark,
#: and whitespace only.
DIRTY_FRENCH = ["été", " Été", "ÉTÉ ", "été", "strasśe", "straß́e",
                "STRASSÉ", "mot", "Mot\t", "  "]
DIRTY_OTHER = ["good", " Good", "GOOD", "go tšhaba", "Go Tšhaba ", " ", "", "x"]
CURATION_SCORES = [1.0, -1.0, 0.0, -0.0]


@st.composite
def dirty_entry_st(draw, scores=CURATION_SCORES, french=True) -> LexiconEntry:
    forms = {LanguageCode.FRENCH: draw(st.sampled_from(DIRTY_FRENCH))} if french else {}
    for language in draw(st.sets(st.sampled_from(list(LanguageCode)[1:]), max_size=3)):
        forms[language] = draw(st.sampled_from(DIRTY_OTHER))
    per_language = {language: draw(st.sampled_from(scores))
                    for language in draw(st.sets(st.sampled_from(list(LanguageCode)),
                                                 max_size=2))}
    return LexiconEntry(forms, draw(st.sampled_from([PosTag.MOT, PosTag.VERBE])),
                        draw(st.sampled_from(scores)), per_language)


@st.composite
def candidate_st(draw) -> LexiconEntry:
    """Mostly clean candidates; sometimes a dirty or empty form, no French
    form or a score out of range."""
    kind = draw(st.integers(min_value=0, max_value=9))
    if kind == 0:
        return draw(dirty_entry_st(scores=CURATION_SCORES + [9.5, -12.0]))
    if kind == 1:
        return draw(dirty_entry_st(french=False))
    entry = draw(dirty_entry_st())
    forms = {language: normalize_form(form) for language, form in entry.forms.items()}
    forms = {language: form for language, form in forms.items() if form}
    forms.setdefault(LanguageCode.FRENCH, "mot")
    return entry._replace(forms=forms)


def caught(call):
    """What ``call`` returns, or the type and message of the error it raises."""
    try:
        return call()
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


def reference_conflict_id(lexicon: Lexicon, conflicts_with: str) -> str:
    """The id ``add_entries`` reports for the reference's ``conflicts_with``:
    a candidate accepted earlier in the call is named by its id in the
    returned lexicon instead of "new<k>", and an existing key by its first
    row instead of its last."""
    if conflicts_with.startswith("new"):
        return f"r{len(lexicon) + int(conflicts_with[3:]) + 1}"
    key = reference_dedup_key(lexicon.entries[int(conflicts_with[1:]) - 1])
    return next(f"r{row_no}" for row_no, e in enumerate(lexicon.entries, start=1)
                if reference_dedup_key(e) == key)


@given(st.lists(dirty_entry_st(), max_size=10), st.lists(candidate_st(), max_size=6))
@settings(max_examples=400, deadline=None)
def test_curation_equals_the_reference_functions(entries, candidates):
    lexicon = Lexicon(entries)
    assert validate_lexicon(lexicon).to_json_dict() == reference_validate_lexicon(lexicon)

    def cleaned(clean_fn):
        lexicon_out, report = clean_fn(lexicon)
        if not isinstance(report, dict):
            report = report.to_json_dict()
        return serialize_lexicon(lexicon_out), report

    assert caught(lambda: cleaned(clean)) == caught(lambda: cleaned(reference_clean))
    assert caught(lambda: require_normalized(lexicon)) == caught(
        lambda: reference_require_normalized(lexicon))

    expected = caught(lambda: reference_add_entries(lexicon, candidates))
    if isinstance(expected, tuple) and isinstance(expected[1], dict):
        bigger, report = expected
        for rejected in report["rejected"]:
            rejected["conflicts_with"] = reference_conflict_id(lexicon, rejected["conflicts_with"])
        expected = (bigger, report)
    actual = caught(lambda: add_entries(lexicon, candidates))
    if isinstance(actual, tuple) and isinstance(actual[1], AdditionReport):
        actual = (actual[0], actual[1]._asdict())
    assert actual == expected


class TestCurationWalk:
    def test_require_normalized_reads_the_forms_without_the_dedup_walk(self, monkeypatch):
        import lexisent.lexicon as lexicon_module

        def no_walk(lexicon, french):
            raise AssertionError("require_normalized ran the dedup walk")

        monkeypatch.setattr(lexicon_module, "_duplicates", no_walk)
        lex = Lexicon([make_entry(fr="mot"), make_entry(fr="mot"),
                       make_entry(fr=" Autre", english="X")])
        with pytest.raises(LexiconFormatError) as caught:
            require_normalized(lex)
        assert str(caught.value) == (
            "[row 3, column 'french'] form ' Autre' is not normalized (expected 'autre'); "
            "2 un-normalized form(s) in all; run `lexicon clean` first")
        require_normalized(Lexicon([make_entry(fr="mot"), make_entry(fr="mot")]))

    def test_add_entries_names_an_accepted_candidate_by_its_new_id(self):
        lex = Lexicon([make_entry(fr="mot")])
        bigger, report = add_entries(lex, [make_entry(fr="neuf", score=2.0),
                                           make_entry(fr="neuf", score=2.0, english="new")])
        assert report.added == 1
        assert report.rejected[0]["conflicts_with"] == "r2"
        assert bigger.entries[1].forms[LanguageCode.FRENCH] == "neuf"

    def test_add_entries_names_the_first_of_repeated_existing_rows(self):
        lex = Lexicon([make_entry(fr="mot"), make_entry(fr="autre"), make_entry(fr="MOT")])
        _, report = add_entries(lex, [make_entry(fr="mot")])
        assert report.rejected[0]["conflicts_with"] == "r1"

    @pytest.mark.parametrize("entry, message", [
        (make_entry(english=""), "empty english form"),
        (make_entry(zulu="  "), "zulu form '  ' is not normalized"),
        (make_entry(score=9.5), "score 9.5 outside"),
        (LexiconEntry({LanguageCode.FRENCH: "mot"}, PosTag.MOT, 1.0,
                      {LanguageCode.SEPEDI: -10.0}), r"\[column 'score_nso'\] score -10.0"),
    ])
    def test_add_entries_refuses_a_candidate_clean_would_change(self, entry, message):
        with pytest.raises(ValueError, match=message):
            add_entries(Lexicon([make_entry(fr="autre")]), [make_entry(fr="bon"), entry])

    def test_empty_forms_are_dropped_by_clean_and_reported_by_validate(self):
        entry = make_entry(fr="mot", english="")
        lex = Lexicon([entry])
        cleaned, report = clean(lex)
        assert cleaned.entries[0].forms == {LanguageCode.FRENCH: "mot"}
        assert report.dropped_forms == [{"entry_id": "r1", "language": "english", "before": ""}]
        assert validate_lexicon(lex).unnormalized_forms == [
            {"row": 1, "entry_id": "r1", "language": "english", "form": "", "normalized": ""}]
        with pytest.raises(LexiconFormatError, match=r"\[row 1, column 'english'\] form ''"):
            require_normalized(lex)
        with pytest.raises(ValueError, match="french form '' normalizes to empty"):
            clean(Lexicon([make_entry(fr="")]))

    def test_clean_keeps_the_columns_it_does_not_change(self):
        lex = Lexicon([make_entry(fr="mot", english="word"), make_entry(fr=" Autre")])
        cleaned, _ = clean(lex)
        assert cleaned.forms[LanguageCode.ENGLISH] is lex.forms[LanguageCode.ENGLISH]
        assert cleaned.pos is lex.pos and cleaned.shared_scores is lex.shared_scores
        assert cleaned.entries[0].forms == lex.entries[0].forms
        assert cleaned.entries[1].forms == {LanguageCode.FRENCH: "autre"}
        deduplicated, _ = clean(Lexicon([make_entry(english="word"), make_entry(english="x")]))
        assert deduplicated.forms[LanguageCode.ENGLISH] == ["word"]


class TestMalformedCsv:
    def test_oversized_cell_names_the_row(self):
        data = csv_bytes("bon,,,,,,mot,1,,,,,,", "x" * 140_000 + ",,,,,,mot,1,,,,,,")
        with pytest.raises(LexiconFormatError) as caught_error:
            parse_lexicon(data)
        assert caught_error.value.row == 2
        assert "field larger than field limit" in str(caught_error.value)

    @pytest.mark.parametrize("bad, message", [
        ('"x"y,,,,,,mot,1,,,,,,', "',' expected after '\"'"),
        ('"open,,,,,,mot,1,,,,,,', "unexpected end of data"),
    ])
    def test_bad_quoting_names_the_row(self, bad, message):
        # Read leniently, the first row became ``xy`` and the second took in the rest of the file.
        data = csv_bytes("bon,,,,,,mot,1,,,,,,", bad, "mal,,,,,,mot,-1,,,,,,")
        with pytest.raises(LexiconFormatError) as caught_error:
            parse_lexicon(data)
        assert caught_error.value.row == 2
        assert f"malformed CSV: {message}" in str(caught_error.value)

    def test_a_quote_inside_an_unquoted_cell_stays_valid(self):
        lexicon = parse_lexicon(csv_bytes('a"b,,,,,,mot,1,,,,,,'))
        assert lexicon.entries[0].forms[LanguageCode.FRENCH] == 'a"b'

    def test_unsplittable_header_is_row_0(self):
        with pytest.raises(LexiconFormatError, match=r"\[row 0\] malformed CSV"):
            parse_lexicon(("x" * 140_000 + "," + HEADER).encode())


@given(st.lists(dirty_entry_st(), max_size=10))
@settings(max_examples=150, deadline=None)
def test_validate_reports_exactly_what_clean_changes(entries):
    lexicon = Lexicon(entries)
    report = validate_lexicon(lexicon)
    flagged = {(f["entry_id"], f["language"]): f["normalized"]
               for f in report.unnormalized_forms}
    try:
        _, changes = clean(lexicon)
    except ValueError:
        # clean refuses a French form that normalizes to empty; validate flags it.
        assert ("french", "") in {(f["language"], f["normalized"])
                                  for f in report.unnormalized_forms}
        return
    changed = {(c["entry_id"], c["language"]): c["after"] for c in changes.normalized_forms}
    changed.update({(c["entry_id"], c["language"]): "" for c in changes.dropped_forms})
    assert flagged == changed
    assert [(d["entry_id"], f"r{d['first_row']}") for d in report.duplicates] == [
        (d["entry_id"], d["kept_entry_id"]) for d in changes.removed_duplicates]
    assert report.issue_count == changes.change_count


# ---------------------------------------------------------------------------
# The columns and the entries view.


def score_columns(lexicon: Lexicon):
    """``present``, ``effective`` and ``mean`` as exact floats."""
    return ({language: bits(column) for language, column in lexicon.present.items()},
            {language: bits(column) for language, column in lexicon.effective.items()},
            bits(lexicon.mean))


@given(st.one_of(lexicon_st(), st.lists(dirty_entry_st(), max_size=10).map(Lexicon),
                 st.lists(SCORED_ENTRIES, max_size=8).map(Lexicon)))
@settings(max_examples=200, deadline=None)
def test_columns_and_entries_agree(lex):
    rebuilt = Lexicon(lex.entries)
    assert rebuilt == lex and rebuilt.entries == lex.entries
    assert items(rebuilt.index) == items(lex.index)
    assert items(rebuilt.phrase_lengths) == items(lex.phrase_lengths)
    assert score_columns(rebuilt) == score_columns(lex)
    assert serialize_lexicon(rebuilt) == serialize_lexicon(lex)
    assert validate_lexicon(rebuilt) == validate_lexicon(lex)
    assert caught(lambda: clean(rebuilt)) == caught(lambda: clean(lex))
    if "" not in [form for entry in lex.entries for form in entry.forms.values()]:
        parsed = parse_lexicon(serialize_lexicon(lex))  # built from columns; -0.0 reads 0.0
        assert parsed == lex and parsed.entries == lex.entries
        assert items(parsed.index) == items(lex.index)


def test_entries_are_keyed_in_language_order():
    forms = {LanguageCode.ZULU: "z", LanguageCode.FRENCH: "f"}
    scores = {LanguageCode.ENGLISH: 1.0, LanguageCode.CILUBA: 2.0}
    (entry,) = Lexicon([LexiconEntry(forms, PosTag.MOT, 0.5, scores)]).entries
    assert entry == (forms, PosTag.MOT, 0.5, scores)
    assert list(entry.forms) == [LanguageCode.FRENCH, LanguageCode.ZULU]
    assert list(entry.per_language_scores) == [LanguageCode.CILUBA, LanguageCode.ENGLISH]
