"""Lexicon-driven multilingual sentiment scoring and translation toolkit.

The public API is the names in ``__all__``. :func:`score_batch` scores many
sentences in both modes; :func:`score_sentence` is its one-sentence,
one-mode form and goes through the same scoring walk.
"""

from .lexicon import (
    LanguageCode,
    Lexicon,
    LexiconEntry,
    LexiconFormatError,
    Polarity,
    PosTag,
    add_entries,
    clean,
    context_dependent_forms,
    parse_lexicon,
    serialize_lexicon,
    validate_lexicon,
)
from .scoring import ScoreMode, builtin_english_baseline, score_batch, score_sentence
from .translator import tokenize, translate

__version__ = "0.1.0"

__all__ = [
    "LanguageCode",
    "Lexicon",
    "LexiconEntry",
    "LexiconFormatError",
    "Polarity",
    "PosTag",
    "ScoreMode",
    "add_entries",
    "builtin_english_baseline",
    "clean",
    "context_dependent_forms",
    "parse_lexicon",
    "score_batch",
    "score_sentence",
    "serialize_lexicon",
    "tokenize",
    "translate",
    "validate_lexicon",
    "__version__",
]
