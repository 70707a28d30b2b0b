"""Feature vectors from lexicon entries, labeled datasets, stratified splits."""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..lexicon import LanguageCode, Lexicon, Polarity, PosTag, csv_text
from ..numeric import rng_for
from ..settings import TASKS, SettingError

log = logging.getLogger(__name__)

FEATURE_NAMES: tuple[str, ...] = (
    "shared_score",
    "score_fr",
    "score_cil",
    "score_en",
    "score_af",
    "score_nso",
    "score_zu",
    "english_chars",
    "english_words",
)


@dataclass
class Dataset:
    X: np.ndarray  # (n, 9) float
    y: np.ndarray  # (n,) int class indices
    class_names: tuple[str, ...]
    provenance: tuple[str, ...]  # each row's entry id, "r<row>" of its lexicon row
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            X=self.X[indices],
            y=self.y[indices],
            class_names=self.class_names,
            provenance=tuple(self.provenance[i] for i in indices),
            feature_names=self.feature_names,
        )

    def sha256(self) -> str:
        """SHA-256 of the rows: their entry ids, feature bytes and labels."""
        rows = json.dumps(self.provenance).encode() + self.X.astype("<f8").tobytes()
        return hashlib.sha256(rows + self.y.astype("<i8").tobytes()).hexdigest()


def featurize(lexicon: Lexicon, task: str = "pos") -> Dataset:
    """One vector per entry: the seven scores (per-language ones falling back
    to the shared score) plus length and word count of the english form."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
    classes = PosTag if task == "pos" else Polarity
    index = {member: i for i, member in enumerate(classes)}
    shared = lexicon.shared_scores
    effective = lexicon.effective
    english = [form or "" for form in lexicon.forms[LanguageCode.ENGLISH]]
    X = np.column_stack(
        [shared]
        + [effective[language] for language in LanguageCode]
        + [list(map(len, english)), [len(form.split()) for form in english]]
    ).astype(float, copy=False)
    if task == "pos":
        labels = list(map(index.__getitem__, lexicon.pos))
    else:  # each distinct score is classified once
        label_of = {score: index[Polarity.from_score(score)] for score in set(shared)}
        labels = list(map(label_of.__getitem__, shared))
    return Dataset(
        X=X,
        y=np.asarray(labels, dtype=int),
        class_names=tuple(m.value for m in classes),
        provenance=tuple(f"r{row}" for row in range(1, len(lexicon) + 1)),
    )


def split(data: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified shuffle split; deterministic per seed; union equals input.

    Single-member classes go to the training side (logged, since they cannot
    be stratified).
    """
    if not 0.0 < train_fraction < 1.0:
        raise SettingError(
            "train_fraction", f"must lie strictly between 0 and 1, got {train_fraction}"
        )
    rng = rng_for(seed, 0)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for k in range(len(data.class_names)):
        members = np.flatnonzero(data.y == k)
        if len(members) == 0:
            continue
        if len(members) == 1:
            log.warning(
                "class %r has a single member; assigning it to the training split",
                data.class_names[k],
            )
            train_idx.extend(members.tolist())
            continue
        shuffled = rng.permutation(members)
        n_train = int(len(members) * train_fraction + 0.5)
        train_idx.extend(shuffled[:n_train].tolist())
        test_idx.extend(shuffled[n_train:].tolist())
    train_idx.sort()
    test_idx.sort()
    return data.subset(np.asarray(train_idx, dtype=int)), data.subset(
        np.asarray(test_idx, dtype=int)
    )


class _Reprs(dict):
    """The ``repr`` of each float looked up, formatted on its first lookup.

    Zeros are formatted every time and never kept: ``0.0 == -0.0``, so one
    key would give both zeros the same text.
    """

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value:
            self[value] = text
        return text


def dataset_csv(data: Dataset) -> str:
    """CSV export with one named column per feature, plus label and provenance.

    Each feature cell is the ``repr`` of its float. Features take few
    distinct values (112 in the 36,000 cells of a 4000-entry lexicon), so
    each call formats each distinct nonzero value once.
    """
    names = data.class_names
    cell = _Reprs().__getitem__
    rows = (
        [*map(cell, row), names[label], entry_id]
        for row, label, entry_id in zip(data.X.tolist(), data.y.tolist(), data.provenance)
    )
    return csv_text(chain([list(data.feature_names) + ["label", "entry_id"]], rows))
