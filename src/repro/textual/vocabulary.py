"""Token dictionary with document-frequency ordering.

Prefix-filtering joins (ALL-PAIRS, PPJOIN, PPJOIN+) require a *canonical
global ordering* of tokens, conventionally by increasing document
frequency so that record prefixes contain the rarest — most selective —
tokens.  :class:`TokenDictionary` assigns every distinct token an integer
id consistent with that ordering and converts keyword sets to the sorted
id tuples all join code in this library operates on.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Sequence,
    Tuple,
)

__all__ = ["TokenDictionary", "encode_corpus"]

#: A canonical document: token ids sorted ascending (df order), no duplicates.
Doc = Tuple[int, ...]


class TokenDictionary:
    """Bidirectional token <-> id mapping ordered by ascending document frequency.

    Ids are assigned so that ``id(a) < id(b)`` implies ``df(a) < df(b)``,
    or ``df(a) == df(b)`` with ``a`` before ``b`` in lexicographic order
    (the tiebreak keeps encoding deterministic across runs).
    """

    def __init__(self) -> None:
        self._token_to_id: Dict[Hashable, int] = {}
        self._id_to_token: List[Hashable] = []
        self._df: List[int] = []

    @classmethod
    def build(cls, documents: Iterable[Iterable[Hashable]]) -> "TokenDictionary":
        """Build a dictionary from a corpus of keyword collections."""
        return cls.from_counts(Counter(chain.from_iterable(map(set, documents))))

    @classmethod
    def from_counts(cls, counts: Mapping[Hashable, int]) -> "TokenDictionary":
        """Build a dictionary from per-token document frequencies."""
        # Two stable sorts with C-level keys: by str, then by df.
        tokens = sorted(sorted(counts, key=str), key=counts.__getitem__)
        return cls.from_arrays(tokens, list(map(counts.__getitem__, tokens)))

    @classmethod
    def from_arrays(
        cls, tokens: Sequence[Hashable], dfs: Sequence[int]
    ) -> "TokenDictionary":
        """Reassemble a dictionary from its id-ordered tokens and dfs.

        No re-counting and no re-sorting, so df-tie orderings survive
        exactly (the inverse of :attr:`tokens` / :attr:`dfs`).
        """
        vocab = cls()
        vocab._id_to_token = list(tokens)
        vocab._df = list(dfs)
        vocab._token_to_id = {t: i for i, t in enumerate(vocab._id_to_token)}
        return vocab

    @property
    def tokens(self) -> Tuple[Hashable, ...]:
        """Every token, in id order."""
        return tuple(self._id_to_token)

    @property
    def dfs(self) -> Tuple[int, ...]:
        """Document frequency of every token, in id order."""
        return tuple(self._df)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: Hashable) -> bool:
        return token in self._token_to_id

    def id_of(self, token: Hashable) -> int:
        """Id of a known token; raises ``KeyError`` for unknown tokens."""
        return self._token_to_id[token]

    def token_of(self, token_id: int) -> Hashable:
        """Token with the given id."""
        return self._id_to_token[token_id]

    def df(self, token: Hashable) -> int:
        """Document frequency of a known token."""
        return self._df[self._token_to_id[token]]

    def encode(self, doc: Iterable[Hashable]) -> Doc:
        """Canonical form of a keyword collection: sorted unique id tuple.

        Unknown tokens raise ``KeyError``; use :meth:`encode_partial` when
        querying with out-of-corpus keywords.
        """
        mapping = self._token_to_id
        return tuple(sorted({mapping[token] for token in doc}))

    def ids_of(self, tokens: Iterable[Hashable]) -> List[int]:
        """Id of every token of a flat token stream, in stream order."""
        return list(map(self._token_to_id.__getitem__, tokens))

    def encode_partial(self, doc: Iterable[Hashable]) -> Doc:
        """Like :meth:`encode` but silently drops unknown tokens."""
        mapping = self._token_to_id
        return tuple(sorted({mapping[t] for t in doc if t in mapping}))

    def decode(self, doc: Sequence[int]) -> FrozenSet[Hashable]:
        """Original tokens of a canonical document."""
        return frozenset(self._id_to_token[i] for i in doc)


def encode_corpus(
    documents: Sequence[Iterable[Hashable]],
) -> Tuple[TokenDictionary, List[Doc]]:
    """Build a dictionary from ``documents`` and encode them all."""
    docs_as_sets = [set(doc) for doc in documents]
    vocab = TokenDictionary.build(docs_as_sets)
    return vocab, [vocab.encode(doc) for doc in docs_as_sets]
