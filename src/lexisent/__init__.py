"""Lexicon-driven multilingual sentiment scoring and translation toolkit.

The public API is the names in ``__all__``. :func:`score_batch` scores many
sentences in both modes; :func:`score_sentence` is its one-sentence,
one-mode form and goes through the same scoring walk.

The lexicon names are imported with the package. The scoring names
(:class:`ScoreMode`, :func:`builtin_english_baseline`, :func:`score_batch`,
:func:`score_sentence`) and the translator names (:func:`tokenize`,
:func:`translate`) are deferred: the package's ``__getattr__`` (PEP 562)
imports their module on first use, so that importing the package, or the
``lexisent.cli`` that every command starts from, does not load them.
``from lexisent import score_batch`` works as before.
"""

import importlib

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

__version__ = "0.1.0"

#: Each deferred name, to the module that defines it.
_DEFERRED = {
    "ScoreMode": "scoring",
    "builtin_english_baseline": "scoring",
    "score_batch": "scoring",
    "score_sentence": "scoring",
    "tokenize": "translator",
    "translate": "translator",
}


def __getattr__(name: str):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED})


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
