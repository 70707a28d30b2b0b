"""The model file: one JSON envelope for both model families.

Every model file is a JSON object with sorted keys: the envelope fields
``format_version`` (:data:`FORMAT_VERSION`), ``kind`` (``decision_tree``,
``random_forest``, ``gaussian_nb``, ``linear_svm`` or ``contextual``), the int
``seed`` and the ``hyperparameters`` object, next to the family's fields
(``ml.serialize.MODEL_FIELDS``, ``contextual.MODEL_FIELDS``; arrays as lists).
A change to what a file holds raises the version. :func:`loads` refuses every
other version by number; there is no second reader, so older models are retrained.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

FORMAT_VERSION = 2


def dumps(kind: str, seed: int, hyperparameters: dict, fields: dict) -> str:
    data = {"format_version": FORMAT_VERSION, "kind": kind, "seed": seed,
            "hyperparameters": hyperparameters, **fields}
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str, family: str, kinds: tuple[str, ...], fields: tuple[str, ...]) -> dict:
    """The object of a model file of ``family``, checked in this order: a JSON
    object, the version, a kind in ``kinds``, every field in ``fields``, an
    int ``seed`` and an object ``hyperparameters``."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r}, expected {FORMAT_VERSION}"
        )
    kind = data.get("kind")
    if kind not in kinds:
        listed = f" ({', '.join(kinds)})" if len(kinds) > 1 else ""
        found = f"a {kind} model" if isinstance(kind, str) else f"kind {kind!r}"
        raise ValueError(f"expected a {family} model{listed}, found {found}")
    require(data, fields)
    if not is_int(data["seed"]):
        raise ValueError(f"field 'seed' is {data['seed']!r}, expected an int")
    if not isinstance(data["hyperparameters"], dict):
        raise ValueError("field 'hyperparameters' is not an object")
    return data


def require(data, names: tuple[str, ...], where: str = "the model") -> None:
    """Refuse ``data`` unless it is an object holding every field in ``names``."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} is not a JSON object")
    missing = [repr(name) for name in names if name not in data]
    if missing:
        raise ValueError(f"missing field {', '.join(missing)} in {where}")


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_distinct(names, what: str) -> None:
    """Refuse repeated ``names``: a lookup by name would see only the last."""
    repeated = [name for name, count in Counter(names).items() if count > 1]
    if repeated:
        raise ValueError(f"{what} repeats {repeated[0]!r}")


def checked_names(data: dict, name: str) -> tuple[str, ...]:
    """Field ``name`` of ``data`` as a tuple of distinct strings."""
    names = data[name]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError(f"field {name!r} is not a list of strings")
    check_distinct(names, f"field {name!r}")
    return tuple(names)


def checked_array(data: dict, name: str, shape: tuple[int | str, ...],
                  where: str | None = None) -> np.ndarray:
    """Field ``name`` of ``data`` as a finite float array of ``shape``, in
    which a string stands for a dimension of any size. Errors name the field,
    and ``where`` it lies when given."""
    label = f"field {name!r}" if where is None else f"field {name!r} of {where}"
    try:
        array = np.asarray(data[name], dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{label} is not an array of numbers") from None
    if array.ndim != len(shape) or any(
        isinstance(want, int) and have != want for have, want in zip(array.shape, shape)
    ):
        expected = "(" + ", ".join(map(str, shape)) + ")"
        raise ValueError(f"{label} has shape {array.shape}, expected {expected}")
    if not np.isfinite(array).all():
        raise ValueError(f"{label} holds values that are not finite")
    return array
