from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from lexisent.lexicon import LanguageCode, Lexicon, LexiconEntry, PosTag
from lexisent.translator import (
    normalize_sentence,
    tokenize,
    translate,
    word_tokens,
)

from test_tokenizer import lexicons, other_words, phrase, separator

EN = LanguageCode.ENGLISH
FR = LanguageCode.FRENCH
AF = LanguageCode.AFRIKAANS
NSO = LanguageCode.SEPEDI
ZU = LanguageCode.ZULU


def lex_of(*pairs: tuple[str, str], pos=PosTag.MOT) -> Lexicon:
    """Lexicon with (french, english) forms, score 0."""
    return Lexicon([
        LexiconEntry(forms={FR: fr, EN: en}, pos=pos, shared_score=0.0,
                     per_language_scores={})
        for fr, en in pairs
    ])


class TestTokenize:
    def test_phrase_tokens(self, paper_lexicon):
        tokens = tokenize("Go tšhaba go wa.", NSO, paper_lexicon)
        assert [t.surface for t in tokens] == ["go tšhaba", "go wa"]
        assert all(t.entry_id is not None for t in tokens)

    def test_empty_sentence(self, paper_lexicon):
        assert tokenize("", EN, paper_lexicon) == []

    def test_longest_match_wins(self):
        # Both segmentations exist; greedy longest-match must pick the phrase.
        lex = Lexicon([
            LexiconEntry(forms={FR: "aller", NSO: "go"}, pos=PosTag.VERBE,
                         shared_score=0.0, per_language_scores={}),
            LexiconEntry(forms={FR: "craindre", NSO: "go tšhaba"}, pos=PosTag.VERBE,
                         shared_score=0.0, per_language_scores={}),
        ])
        tokens = tokenize("go tšhaba", NSO, lex)
        assert [t.surface for t in tokens] == ["go tšhaba"]
        single = tokenize("go", NSO, lex)
        assert [t.surface for t in single] == ["go"]

    def test_unknown_words(self, paper_lexicon):
        tokens = tokenize("xyzzy food", EN, paper_lexicon)
        assert tokens[0].entry_id is None
        assert tokens[1].entry_id is not None

    def test_punctuation_is_separator_apostrophe_is_not(self):
        lex = lex_of(("c'est", "it's"))
        tokens = tokenize("It's, (fine)!", EN, lex)
        assert [t.surface for t in tokens] == ["it's", "fine"]

    def test_spans_reconstruct_normalized_source(self, paper_lexicon):
        sentence = "Ke motho le go tšhaba kotlo."
        normalized = normalize_sentence(sentence)
        tokens = tokenize(sentence, NSO, paper_lexicon)
        previous_end = 0
        for token in tokens:
            start, end = token.span
            assert start >= previous_end
            gap = normalized[previous_end:start]
            assert all(c.isspace() or c in '.,!?;:"()' for c in gap)
            assert normalized[start:end].split() == token.surface.split()
            previous_end = end

    def test_ambiguous_form_uses_pos_priority(self):
        noun = LexiconEntry(forms={FR: "montre", EN: "watch"}, pos=PosTag.MOT,
                            shared_score=1.0, per_language_scores={})
        verb = LexiconEntry(forms={FR: "regarder", EN: "watch"}, pos=PosTag.VERBE,
                            shared_score=2.0, per_language_scores={})
        lex = Lexicon([verb, noun])  # mot outranks verbe regardless of order
        (token,) = tokenize("watch", EN, lex)
        assert token.entry_id == 1 and lex.entries[token.entry_id].pos is PosTag.MOT
        assert token.alternatives == (0,)


class TestTranslate:
    def test_afrikaans_to_english(self, paper_lexicon):
        result = translate("Ek vertrou haar", AF, EN, paper_lexicon)
        assert result.translated_text == "i trust her"
        assert result.unknown_count == 0

    def test_multiword_source_to_single_target(self, paper_lexicon):
        assert translate("Thank you.", EN, FR, paper_lexicon).translated_text == "merci"

    def test_sepedi_to_english(self, paper_lexicon):
        result = translate("Go tšhaba go wa.", NSO, EN, paper_lexicon)
        assert result.translated_text == "to fear to fall"

    def test_unknown_passthrough(self, paper_lexicon):
        result = translate("xyzzy", EN, ZU, paper_lexicon)
        assert result.translated_text == "xyzzy"
        assert result.unknown_count == 1

    def test_missing_target_form_downgrades(self, paper_lexicon):
        # "na" has no english form; it must pass through and count as unknown.
        result = translate("na", AF, EN, paper_lexicon)
        assert result.translated_text == "na"
        assert result.unknown_count == 1
        assert result.tokens[0].entry_id is None

    def test_identity_translation_returns_normalized_input(self, paper_lexicon):
        result = translate("Thank You.", EN, EN, paper_lexicon)
        assert result.translated_text == "thank you."

    def test_round_trip_single_forms(self):
        lex = lex_of(("merci", "thanks"), ("oui", "yes"), ("non", "no"))
        for form in ["merci", "oui", "non"]:
            there = translate(form, FR, EN, lex).translated_text
            back = translate(there, EN, FR, lex).translated_text
            assert back == form

    def test_never_invents_tokens(self, paper_lexicon):
        sentence = "Waiting to dance to accompany you."
        result = translate(sentence, EN, ZU, paper_lexicon)
        assert len(result.tokens) == len(tokenize(sentence, EN, paper_lexicon))

    def test_deterministic(self, paper_lexicon):
        a = translate("I am happy today.", EN, FR, paper_lexicon)
        b = translate("I am happy today.", EN, FR, paper_lexicon)
        assert a == b


def test_word_tokens_strip_punctuation():
    assert word_tokens("Earth, is (the) third!") == ["earth", "is", "the", "third"]


@given(lexicons(), st.data())
@settings(max_examples=300, deadline=None)
def test_translate_on_arbitrary_unicode(lexicon, data):
    forms = sorted({f for e in lexicon.entries for f in e.forms.values()}) or ["go"]
    chunks = data.draw(st.lists(st.one_of(st.sampled_from(forms), phrase, other_words, st.text()),
                                max_size=6))
    text = data.draw(separator).join(chunks)
    source = data.draw(st.sampled_from([FR, EN]))
    target = data.draw(st.sampled_from(list(LanguageCode)))
    result = translate(text, source, target, lexicon)
    tokens = tokenize(text, source, lexicon)
    assert [(t.surface, t.span) for t in result.tokens] == [(t.surface, t.span) for t in tokens]
    assert result.unknown_count == sum(t.entry_id is None for t in result.tokens)
    if source is target:
        assert result.translated_text == normalize_sentence(text)
        assert result.tokens == tuple(tokens)
        return
    pieces = []
    for token, out in zip(tokens, result.tokens):
        entry = lexicon.entries[token.entry_id] if token.entry_id is not None else None
        form = entry.forms.get(target) if entry is not None else None
        if form is None:
            assert out == token._replace(entry_id=None)
            pieces.append(token.surface)
        else:
            assert out == token
            pieces.append(form)
    assert result.translated_text == " ".join(pieces)
