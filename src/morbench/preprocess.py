"""Text normalization, tokenization, integer encoding, and length policy.

Two preparation paths share the same tokenizer:

* sequence path: lowercase -> tokenize -> index via a Vocabulary -> pad or
  truncate to a corpus-derived maximum length;
* TF-IDF path: lowercase -> tokenize -> drop stopwords and purely numeric
  tokens (punctuation never survives tokenization).
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass
from collections import Counter
from importlib import resources

# Maximal runs of Unicode alphanumerics; underscore is a separator.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

PAD_INDEX = 0


def normalize_text(text: str) -> str:
    """Lowercase the text; nothing else changes."""
    return text.lower()


def tokenize(text: str) -> list[str]:
    """Split into maximal alphanumeric runs, preserving order.

    Tokens are interned, so every occurrence of a word across notes shares one
    string: token lists stay small and dictionary lookups compare by identity.
    """
    return list(map(sys.intern, _TOKEN_RE.findall(text)))


@dataclass(frozen=True)
class Vocabulary:
    """Word-to-index map; index 0 is reserved for padding.

    Indices 1..V are assigned by descending corpus frequency, ties broken
    lexicographically, so construction is deterministic.
    """

    index: dict[str, int]

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def __getitem__(self, word: str) -> int:
        return self.index[word]

    @property
    def words(self) -> list[str]:
        """Words ordered by index (1..V)."""
        return sorted(self.index, key=self.index.get)


def build_vocabulary(token_lists: list[list[str]]) -> Vocabulary:
    counts = Counter()
    for tokens in token_lists:
        counts.update(tokens)
    ordered = sorted(counts, key=lambda w: (-counts[w], w))
    return Vocabulary(index={w: i for i, w in enumerate(ordered, start=1)})


def encode(tokens: list[str], vocab: Vocabulary) -> list[int]:
    """Replace known tokens by their index; out-of-vocabulary tokens are dropped."""
    return [vocab[t] for t in tokens if t in vocab]


@dataclass(frozen=True)
class LengthPolicy:
    """Per-text token limit: floor(mean + population std) of corpus token counts."""

    max_len: int
    avg: float
    std: float


def compute_max_len(token_counts: list[int]) -> LengthPolicy:
    if not token_counts:
        raise ValueError("token_counts must be non-empty")
    n = len(token_counts)
    avg = sum(token_counts) / n
    variance = sum((c - avg) ** 2 for c in token_counts) / n
    std = math.sqrt(variance)
    return LengthPolicy(max_len=int(math.floor(avg + std)), avg=avg, std=std)


@dataclass(frozen=True)
class EncodedDoc:
    indices: tuple[int, ...]  # length == policy.max_len


def pad_truncate(indices: list[int], policy: LengthPolicy) -> EncodedDoc:
    """Fix length to policy.max_len: keep the head, right-pad with zeros."""
    if policy.max_len < 1:
        raise ValueError("max_len must be >= 1")
    fixed = list(indices[: policy.max_len])
    fixed.extend([PAD_INDEX] * (policy.max_len - len(fixed)))
    return EncodedDoc(indices=tuple(fixed))


def filter_for_tfidf(tokens: list[str], stopwords: set[str]) -> list[str]:
    """Drop stopwords and purely numeric tokens (TF-IDF path)."""
    return [t for t in tokens if t not in stopwords and not t.isdigit()]


@functools.cache
def load_stopwords() -> frozenset[str]:
    """The packaged English stopword list (one word per line, '#' comments
    ignored), read once per process."""
    text = resources.files("morbench").joinpath("data/stopwords.txt").read_text("utf-8")
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)
