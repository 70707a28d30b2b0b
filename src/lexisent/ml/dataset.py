"""Feature vectors from lexicon entries, labeled datasets, stratified splits."""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..lexicon import LanguageCode, Lexicon, Polarity, PosTag, csv_text
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
    provenance: tuple[str, ...]
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
    entries = lexicon.entries
    effective = lexicon.effective
    english_code = LanguageCode.ENGLISH
    english = [entry.forms.get(english_code) or "" for entry in entries]
    X = np.column_stack(
        [[entry.shared_score for entry in entries]]
        + [list(effective[language].values()) for language in LanguageCode]
        + [[len(form) for form in english], [len(form.split()) for form in english]]
    ).astype(float, copy=False)
    if task == "pos":
        labels = [index[entry.pos] for entry in entries]
    else:
        labels = [index[Polarity.from_score(entry.shared_score)] for entry in entries]
    return Dataset(
        X=X,
        y=np.asarray(labels, dtype=int),
        class_names=tuple(m.value for m in classes),
        provenance=tuple(e.entry_id for e in entries),
    )


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream...); deterministic per key."""
    key = [seed & 0xFFFFFFFFFFFFFFFF] + [s & 0xFFFFFFFFFFFFFFFF for s in stream]
    return np.random.default_rng(np.random.SeedSequence(key))


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, with each row's maximum subtracted first."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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


def dataset_csv(data: Dataset) -> str:
    """CSV export with one named column per feature, plus label and provenance."""
    names = data.class_names
    rows = (
        [*map(repr, row), names[label], entry_id]
        for row, label, entry_id in zip(data.X.tolist(), data.y.tolist(), data.provenance)
    )
    return csv_text(chain([list(data.feature_names) + ["label", "entry_id"]], rows))
