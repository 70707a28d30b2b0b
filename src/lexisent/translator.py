"""Phrase-aware tokenization and word-by-word translation over a lexicon.

Tokens and translation results are named tuples, since a sentence yields one
token per word or phrase and the scoring and translation walks only read them.
Words come from :func:`~lexisent.lexicon.word_tokens`, re-exported here.
"""

from __future__ import annotations

from typing import NamedTuple

from .lexicon import LanguageCode, Lexicon, normalize_sentence, word_tokens


class Token(NamedTuple):
    surface: str
    #: The matched entry's position in the lexicon; ``None`` if unknown.
    entry_id: int | None
    #: Positions of entries that also matched the surface but lost disambiguation.
    alternatives: tuple[int, ...] = ()


class TranslationResult(NamedTuple):
    source_language: LanguageCode
    target_language: LanguageCode
    source_text: str
    translated_text: str
    tokens: tuple[Token, ...]
    unknown_count: int


def tokenize(sentence: str, language: LanguageCode, lexicon: Lexicon) -> list[Token]:
    """Segment a sentence against the lexicon's phrases for ``language``.

    The sentence is normalized (NFC, case-folded), punctuation acts as a
    separator, and matching is greedy left-to-right longest-match, so "go
    tšhaba go wa" becomes two two-word tokens when both phrases are known. At
    each word only the phrase lengths that the lexicon's ``phrase_lengths``
    records for that first word are tried, longest first, then the word on its
    own. Words with no lexicon match come back as unknown tokens. A form with
    several entries resolves to the first of its positions in ``index``, which
    are in disambiguation order; the rest become the token's ``alternatives``.
    """
    words = word_tokens(sentence)
    n_words = len(words)
    index = lexicon.index[language]
    phrase_lengths = lexicon.phrase_lengths[language]

    tokens: list[Token] = []
    i = 0
    while i < n_words:
        word = words[i]
        surface, match_len, ids = word, 1, ()
        for length in phrase_lengths.get(word, ()):
            if i + length <= n_words:
                candidate = " ".join(words[i : i + length])
                ids = index.get(candidate, ())
                if ids:
                    surface, match_len = candidate, length
                    break
        if not ids:
            ids = index.get(word, ())
        if ids:
            tokens.append(Token(surface, ids[0], ids[1:]))
        else:
            tokens.append(Token(word, None))
        i += match_len
    return tokens


def translate(
    sentence: str,
    source: LanguageCode,
    target: LanguageCode,
    lexicon: Lexicon,
) -> TranslationResult:
    """Translate word by word, keeping word order.

    Each lexical token is replaced by its entry's target-language form; tokens
    whose entry lacks that form are downgraded to unknown and passed through
    verbatim, as are words the lexicon does not know at all. Identity
    translation short-circuits to the normalized input.
    """
    tokens = tuple(tokenize(sentence, source, lexicon))
    forms = lexicon.forms[target]
    if source == target:
        translated_text, out_tokens = normalize_sentence(sentence), tokens
        unknown_count = sum(t.entry_id is None for t in tokens)
    else:
        pieces, out = [], []
        unknown_count = 0
        for token in tokens:
            entry_id = token.entry_id
            form = None if entry_id is None else forms[entry_id]
            if form is None:
                unknown_count += 1
                form = token.surface
                if entry_id is not None:
                    token = Token(form, None, token.alternatives)
            pieces.append(form)
            out.append(token)
        translated_text, out_tokens = " ".join(pieces), tuple(out)
    return TranslationResult(
        source_language=source,
        target_language=target,
        source_text=sentence,
        translated_text=translated_text,
        tokens=out_tokens,
        unknown_count=unknown_count,
    )
