"""TF-IDF weighting over filtered token lists.

Weight of word w in document d: (count of w in d / tokens in d) * ln(N / n_w),
where N is the number of fitted documents and n_w the number of documents
containing w. No smoothing, no frequency cutoff: every distinct token of the
fitted corpus gets a column. Rows are normalized into [0, 1] by dividing by
the row maximum.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

# A sparse row: (column, weight) pairs sorted by column, one entry per
# distinct in-vocabulary word present in the document.
SparseRow = tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class TfidfModel:
    columns: dict[str, int]  # word -> column, lexicographic order
    doc_freq: dict[str, int]  # word -> number of documents containing it
    corpus_size: int
    # ln(N / n_w) per column, derived from the fields above
    idfs: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idfs = [0.0] * len(self.columns)
        for word, col in self.columns.items():
            idfs[col] = math.log(self.corpus_size / self.doc_freq[word])
        object.__setattr__(self, "idfs", tuple(idfs))


def fit(token_lists: list[list[str]]) -> TfidfModel:
    """Fit document frequencies over the full vocabulary of the corpus."""
    if not token_lists:
        raise ValueError("cannot fit TF-IDF on an empty corpus")
    doc_freq = Counter()
    for tokens in token_lists:
        doc_freq.update(set(tokens))
    columns = {w: i for i, w in enumerate(sorted(doc_freq))}
    return TfidfModel(columns=columns, doc_freq=dict(doc_freq), corpus_size=len(token_lists))


def transform(tokens: list[str], model: TfidfModel) -> SparseRow:
    """Weight one document; out-of-vocabulary words contribute nothing."""
    size = len(tokens)
    if size == 0:
        return ()
    columns, idfs = model.columns, model.idfs
    row = []
    for word, count in Counter(tokens).items():
        col = columns.get(word)
        if col is not None:
            row.append((col, (count / size) * idfs[col]))
    row.sort()
    return tuple(row)


def normalize_row(row: SparseRow) -> SparseRow:
    peak = max((w for _, w in row), default=0.0)
    if peak <= 0.0:
        return row
    return tuple((col, w / peak) for col, w in row)
