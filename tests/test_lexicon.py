from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexisent.lexicon import (
    CSV_HEADER,
    LanguageCode,
    Lexicon,
    LexiconEntry,
    LexiconFormatError,
    Polarity,
    PosTag,
    add_entries,
    clean,
    context_dependent_forms,
    normalize_form,
    parse_lexicon,
    require_normalized,
    serialize_lexicon,
    validate_lexicon,
)
from lexisent.translator import tokenize

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


class TestRoundTrip:
    def test_parse_serialize_identity(self, paper_lexicon):
        data = serialize_lexicon(paper_lexicon)
        assert parse_lexicon(data) == paper_lexicon
        assert serialize_lexicon(parse_lexicon(data)) == data

    def test_quoted_fields(self):
        entry = make_entry(fr='salut, "toi"', english="hello there")
        lex = Lexicon([entry])
        again = parse_lexicon(serialize_lexicon(lex))
        assert again.entries[0].forms[LanguageCode.FRENCH] == 'salut, "toi"'


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
        assert bigger.lookup(LanguageCode.FRENCH, "nouveau")

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
        assert e.effective_score(LanguageCode.ZULU) == -1.0
        assert e.effective_score(LanguageCode.ENGLISH) == 2.0


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


class TestIndexes:
    def test_index_is_consistent(self, paper_lexicon):
        for language in LanguageCode:
            for form, ids in paper_lexicon.index[language].items():
                for eid in ids:
                    assert paper_lexicon.by_id[eid].forms[language] == form
        for entry in paper_lexicon.entries:
            for language, form in entry.forms.items():
                assert entry.entry_id in paper_lexicon.index[language][form]

    def test_parsed_entries_keep_their_positional_ids(self):
        lex = parse_lexicon(csv_bytes("bon,,good,,,,mot,1,,,,,,", "mal,,bad,,,,mot,-1,,,,,,"))
        assert [e.entry_id for e in lex.entries] == ["r1", "r2"]
        rebuilt = Lexicon(lex.entries)
        assert all(a is b for a, b in zip(rebuilt.entries, lex.entries))
        shifted = Lexicon(lex.entries[1:])
        assert [e.entry_id for e in shifted.entries] == ["r1"]
        assert shifted.index[LanguageCode.ENGLISH] == {"bad": ("r1",)}

    def test_ambiguous_forms_precompile_the_pos_winner(self):
        lex = Lexicon([
            make_entry(fr="regarder", english="watch", pos=PosTag.VERBE),
            make_entry(fr="montre", english="watch", pos=PosTag.MOT),
            make_entry(fr="voir", english="watch", pos=PosTag.VERBE),
            make_entry(fr="seul", english="alone"),
        ])
        assert lex.index[LanguageCode.ENGLISH]["watch"] == ("r1", "r2", "r3")
        assert lex.ambiguous[LanguageCode.ENGLISH] == {"watch": ("r2", ("r1", "r3"))}

    def test_same_pos_tie_goes_to_the_earliest_row(self):
        entries = [make_entry(fr=f"f{i}", english=f"w{i}") for i in range(1, 9)]
        entries += [make_entry(fr="f9", english="same", pos=PosTag.VERBE),
                    make_entry(fr="f10", english="same", pos=PosTag.VERBE)]
        lex = Lexicon(entries)
        assert lex.ambiguous[LanguageCode.ENGLISH]["same"] == ("r9", ("r10",))
        (token,) = tokenize("same", LanguageCode.ENGLISH, lex)
        assert (token.entry_id, token.alternatives) == ("r9", ("r10",))

    def test_phrase_lengths(self, paper_lexicon):
        assert paper_lexicon.phrase_lengths[LanguageCode.ENGLISH]["to"] == (2,)
        assert paper_lexicon.phrase_lengths[LanguageCode.SEPEDI]["go"] == (2,)
        assert paper_lexicon.phrase_lengths[LanguageCode.FRENCH]["tu"] == (3, 2)
        assert "food" not in paper_lexicon.phrase_lengths[LanguageCode.ENGLISH]
        assert paper_lexicon.phrase_lengths[LanguageCode.ZULU] == {}
