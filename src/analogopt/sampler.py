"""Demonstration samplers over the shared evaluation dataset."""

from __future__ import annotations

import numpy as np

from .core import Dataset, EmptyDatasetError, EvalRecord


def top_k(dataset: Dataset, k: int) -> list[EvalRecord]:
    """The k highest-FOM records, descending; ties keep earlier insertions.

    Failed evaluations participate with their (all-failed) FOM rather than
    being filtered. Returns all records, descending, when the dataset is
    smaller than k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(dataset) == 0:
        raise EmptyDatasetError("top_k needs at least one record")
    return dataset.ranked(k)


def uniform_k(dataset: Dataset, k: int, rng: np.random.Generator) -> list[EvalRecord]:
    """k records sampled uniformly without replacement (all when fewer exist)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(dataset) == 0:
        raise EmptyDatasetError("uniform_k needs at least one record")
    indices = rng.permutation(len(dataset))[: min(k, len(dataset))]
    return [dataset[int(i)] for i in indices]
