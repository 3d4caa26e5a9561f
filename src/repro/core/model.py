"""Data model of the STPSJoin problem (Section 3 of the paper).

A *spatio-textual object* is a triple ``o = <u, loc, doc>``: the user that
generated it, a point location, and a set of keywords.  A database ``D``
groups objects per user; ``Du`` denotes the objects of user ``u``.  The
paper assumes a total ordering over users (to report each pair once);
here that ordering is the natural sort order of the user identifiers.

:class:`STDataset` is the canonical in-memory database.  It is columnar:
coordinates, owning users and documents encoded against the token
dictionary (document-frequency order) as a CSR of sorted id arrays.  The
same pass also stores each object's keywords both as a sorted id tuple —
the representation the PPJOIN-family joins need — and as a frozen set for
O(1) membership tests.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import chain
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import DatasetValidationError
from ..spatial.geometry import Rect
from ..textual.vocabulary import TokenDictionary

__all__ = ["STObject", "STDataset", "UserId", "RawRecord"]

#: Identifier of a user; any sortable hashable (ints and strings in practice).
UserId = Hashable

#: Input record: ``(user, x, y, keywords)``.
RawRecord = Tuple[UserId, float, float, Iterable[Hashable]]


class STObject(NamedTuple):
    """A spatio-textual object with its canonical document.

    An immutable named tuple: a dataset builds one per object, and tuple
    construction costs a fraction of a frozen dataclass's per-field
    ``object.__setattr__`` calls.

    Attributes
    ----------
    oid:
        Dense object id, equal to the object's index in ``STDataset.objects``.
    user:
        Owning user.
    x, y:
        Point location.
    doc:
        Keyword ids sorted ascending in document-frequency order.
    doc_set:
        The same ids as a frozenset, for constant-time membership.
    """

    oid: int
    user: UserId
    x: float
    y: float
    doc: Tuple[int, ...]
    doc_set: FrozenSet[int]

    @property
    def location(self) -> Tuple[float, float]:
        """The ``(x, y)`` location tuple."""
        return (self.x, self.y)

    def __repr__(self) -> str:
        return (
            f"STObject(oid={self.oid!r}, user={self.user!r}, x={self.x!r}, "
            f"y={self.y!r}, doc={self.doc!r})"
        )


class STDataset:
    """An immutable database of spatio-textual objects grouped by user.

    The dataset is columnar.  Its one constructor takes the canonical
    columns — the per-object user ids, float64 ``xs``/``ys`` and the
    encoded documents as a CSR (``tok_off``, ``tok_flat``) — and derives
    the user total order, the per-object user-position column
    ``user_pos`` and the :class:`STObject` list the scalar evaluators
    read, all in one pass.  :meth:`from_records`, :func:`load_tsv
    <repro.datasets.loaders.load_tsv>`, :meth:`subset_users` and
    :meth:`DatasetSnapshot.restore <repro.stindex.snapshot.DatasetSnapshot.restore>`
    all end here; the grid build and the batch kernel read the columns
    directly.
    """

    def __init__(
        self,
        vocab: TokenDictionary,
        object_users: Sequence[UserId],
        xs,
        ys,
        tok_off,
        tok_flat,
    ):
        self.vocab = vocab
        #: Owning user of every object, in oid order.
        self.object_users: Tuple[UserId, ...] = tuple(object_users)
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        #: Object ``i``'s token ids are ``tok_flat[tok_off[i]:tok_off[i + 1]]``.
        self.tok_off = np.asarray(tok_off, dtype=np.int64)
        self.tok_flat = np.asarray(tok_flat, dtype=np.int32)
        #: Users in the total order ≺U (ascending identifier sort).
        self.users: List[UserId] = sorted(
            dict.fromkeys(self.object_users), key=lambda u: (str(type(u)), u)
        )
        position = {user: p for p, user in enumerate(self.users)}
        #: Position in :attr:`users` of every object's user.
        self.user_pos = np.fromiter(
            map(position.__getitem__, self.object_users),
            dtype=np.int64,
            count=len(self.object_users),
        )
        # Equal documents share one tuple and one frozenset, and every
        # occurrence of a token id one int object.
        token_ids = list(range(len(vocab)))
        flat = list(map(token_ids.__getitem__, self.tok_flat.tolist()))
        off = self.tok_off.tolist()
        shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        docs = [
            shared.setdefault(doc, doc)
            for doc in map(tuple, map(flat.__getitem__, map(slice, off, off[1:])))
        ]
        doc_sets = {doc: frozenset(doc) for doc in shared}
        self.objects: List[STObject] = list(
            map(
                STObject,
                range(len(docs)),
                self.object_users,
                self.xs.tolist(),
                self.ys.tolist(),
                docs,
                map(doc_sets.__getitem__, docs),
            )
        )
        by_user: Dict[UserId, List[STObject]] = {user: [] for user in self.users}
        for obj in self.objects:
            by_user[obj.user].append(obj)
        self._by_user = by_user
        self._bounds: Optional[Rect] = None
        self._fingerprint: Optional[str] = None

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[RawRecord]) -> "STDataset":
        """Build a dataset (and its token dictionary) from raw records.

        Keywords are deduplicated per object; objects without keywords are
        kept but can never match anything (their textual similarity to any
        object is zero by definition in :mod:`repro.core.similarity`).

        Non-finite coordinates (NaN, ±inf) are rejected with a
        :class:`~repro.errors.DatasetValidationError` listing every
        offending record — they would silently poison the spatial
        indexes (NaN compares false with everything, so grid and R-tree
        placement becomes undefined).  Structural checks that depend on
        the application (empty keyword sets, duplicate objects) are
        opt-in via :meth:`validate`.
        """
        users: List[UserId] = []
        xs: List[float] = []
        ys: List[float] = []
        keyword_sets: List[FrozenSet[Hashable]] = []
        for user, x, y, keywords in records:
            users.append(user)
            xs.append(float(x))
            ys.append(float(y))
            keyword_sets.append(frozenset(keywords))
        return cls.from_columns(users, xs, ys, keyword_sets)

    @classmethod
    def from_columns(
        cls,
        users: Sequence[UserId],
        xs: Sequence[float],
        ys: Sequence[float],
        keyword_sets: Sequence[AbstractSet[Hashable]],
    ) -> "STDataset":
        """Build a dataset from per-object columns of raw records.

        ``keyword_sets`` holds each object's distinct keywords.  The token
        dictionary is counted in one pass over all of them, every keyword
        is encoded through one flat lookup, and each object's ids are
        sorted by a single lexsort into the CSR the constructor takes.
        Non-finite coordinates raise as documented on :meth:`from_records`.
        """
        x_arr = np.asarray(xs, dtype=np.float64)
        y_arr = np.asarray(ys, dtype=np.float64)
        bad = np.flatnonzero(~(np.isfinite(x_arr) & np.isfinite(y_arr)))
        if len(bad):
            raise DatasetValidationError(
                [
                    f"record {i} (user {users[i]!r}): non-finite coordinates "
                    f"({float(x_arr[i])!r}, {float(y_arr[i])!r})"
                    for i in bad.tolist()
                ]
            )
        stream = list(chain.from_iterable(keyword_sets))
        vocab = TokenDictionary.from_counts(Counter(stream))
        ids = np.asarray(vocab.ids_of(stream), dtype=np.int32)
        lens = np.fromiter(
            map(len, keyword_sets), dtype=np.int64, count=len(keyword_sets)
        )
        tok_off = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=tok_off[1:])
        owner = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        tok_flat = ids[np.lexsort((ids, owner))]
        return cls(vocab, users, x_arr, y_arr, tok_off, tok_flat)

    def validate(
        self,
        require_keywords: bool = True,
        reject_duplicates: bool = True,
    ) -> "STDataset":
        """Opt-in structural validation; returns ``self`` for chaining.

        Raises :class:`~repro.errors.DatasetValidationError` listing every
        violation found:

        * ``require_keywords`` — objects with an empty keyword set.  They
          are *legal* (their similarity to anything is zero) but usually
          indicate a broken tokenizer upstream.
        * ``reject_duplicates`` — objects identical in user, location and
          document.  Duplicates skew point-set similarity scores, so
          ingestion pipelines typically want to know.

        Coordinates are already guaranteed finite by :meth:`from_records`.
        """
        problems: List[str] = []
        if require_keywords:
            for obj in self.objects:
                if not obj.doc:
                    problems.append(
                        f"object {obj.oid} (user {obj.user!r}): empty "
                        "keyword set"
                    )
        if reject_duplicates:
            seen: Dict[Tuple, int] = {}
            for obj in self.objects:
                key = (obj.user, obj.x, obj.y, obj.doc)
                first = seen.setdefault(key, obj.oid)
                if first != obj.oid:
                    problems.append(
                        f"object {obj.oid} (user {obj.user!r}): duplicate "
                        f"of object {first}"
                    )
        if problems:
            raise DatasetValidationError(problems)
        return self

    def subset_users(self, users: Sequence[UserId]) -> "STDataset":
        """A new dataset restricted to ``users`` (for scalability sweeps).

        The token dictionary is rebuilt from the retained objects so the
        document-frequency ordering matches the subset — exactly what
        would happen if the subset were loaded from scratch.
        """
        keep = set(users)
        picked = [o for o in self.objects if o.user in keep]
        return STDataset.from_columns(
            [o.user for o in picked],
            [o.x for o in picked],
            [o.y for o in picked],
            [self.vocab.decode(o.doc) for o in picked],
        )

    # -- accessors ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.objects)

    @property
    def num_objects(self) -> int:
        return len(self.objects)

    @property
    def num_users(self) -> int:
        return len(self.users)

    def user_objects(self, user: UserId) -> List[STObject]:
        """The point set ``Du`` of ``user`` (empty list for unknown users)."""
        return self._by_user.get(user, [])

    def iter_user_sets(self) -> Iterator[Tuple[UserId, List[STObject]]]:
        """Iterate ``(user, Du)`` in the user total order."""
        for user in self.users:
            yield user, self._by_user[user]

    def user_ranks(self, users: Sequence[UserId]) -> np.ndarray:
        """Rank of each dataset user within ``users``, by user position.

        Index it with :attr:`user_pos` for a per-object rank column;
        users missing from ``users`` get -1, unknown entries of
        ``users`` are ignored.
        """
        position = {user: p for p, user in enumerate(self.users)}
        ranks = np.full(len(self.users), -1, dtype=np.int64)
        for rank, user in enumerate(users):
            if user in position:
                ranks[position[user]] = rank
        return ranks

    def fingerprint(self) -> str:
        """A stable content hash identifying this dataset (cached).

        Two datasets with the same logical content — the same multiset of
        ``(user, x, y, keywords)`` records — share a fingerprint, whatever
        the record order or token-id assignment; any insert, delete or
        edit changes it.  The hash covers ``repr``-exact coordinates and
        keyword/user reprs (so ``1`` and ``"1"`` differ), making the
        fingerprint a sound cache key for result and index caches: equal
        fingerprints imply byte-identical join results for equal queries.
        """
        if self._fingerprint is None:
            # Each token's repr once, each distinct document's field once.
            token_reprs = list(map(repr, self.vocab.tokens))
            docs = [obj.doc for obj in self.objects]
            keywords = {
                doc: ",".join(sorted(map(token_reprs.__getitem__, doc)))
                for doc in set(docs)
            }
            lines = sorted(
                map(
                    "{!r}\t{!r}\t{!r}\t{}".format,
                    self.object_users,
                    self.xs.tolist(),
                    self.ys.tolist(),
                    map(keywords.__getitem__, docs),
                )
            )
            digest = hashlib.sha256("\n".join(lines).encode("utf-8"))
            self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint

    @property
    def bounds(self) -> Rect:
        """The MBR of all object locations (cached)."""
        if self._bounds is None:
            if not self.objects:
                self._bounds = Rect(0.0, 0.0, 0.0, 0.0)
            else:
                self._bounds = Rect(
                    float(self.xs.min()),
                    float(self.ys.min()),
                    float(self.xs.max()),
                    float(self.ys.max()),
                )
        return self._bounds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"STDataset({self.num_objects} objects, {self.num_users} users, "
            f"{len(self.vocab)} tokens)"
        )
