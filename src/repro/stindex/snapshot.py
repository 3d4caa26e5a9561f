"""Compact, read-only dataset snapshots for cross-process shipping.

The parallel execution engine (:mod:`repro.exec`) has two ways of getting
the join state into worker processes:

* with the ``fork`` start method, workers inherit the parent's built
  indexes for free (copy-on-write memory) — nothing is serialized;
* with the ``spawn`` start method (the only option on Windows and the
  default on macOS), workers start from a blank interpreter, so the state
  must be pickled explicitly.

Pickling a fully built :class:`~repro.stindex.stgrid.STGridIndex` or
:class:`~repro.stindex.leaf_index.STLeafIndex` would ship every cell dict
and inverted list; a :class:`DatasetSnapshot` instead captures only the
dataset's own canonical columns plus the token dictionary's arrays —
the minimal information from which :meth:`restore` rebuilds a dataset
*identical* to the original (same oids, same token ids, same user order),
without re-deriving the document-frequency ordering.  Workers then
rebuild their indexes locally; index construction is deterministic, so
results match the fork and sequential paths exactly.
"""

from __future__ import annotations

from typing import Hashable, Tuple

from ..core.model import STDataset, UserId
from ..textual.vocabulary import TokenDictionary

__all__ = ["DatasetSnapshot"]


class DatasetSnapshot:
    """An immutable, picklable capture of an :class:`STDataset`.

    The snapshot stores plain parallel columns only (no dataclass
    instances, no sets, no per-record containers): one column per object
    attribute.  The columnar layout pickles smaller and faster than a
    tuple-of-records — pickle emits each column as one homogeneous
    sequence instead of interleaving a 4-tuple frame per object — which
    matters because the spawn transport serializes a snapshot into every
    worker's initializer.

    The numeric columns are numpy arrays: ``xs``/``ys`` as float64, and
    the encoded documents as one flattened int32 token-id array
    (``tok_flat``) plus an int64 offsets array (``tok_off``, length
    ``n_objects + 1``).  Arrays pickle as raw buffers, so a spawn worker
    deserializes the whole textual payload with two ``frombuffer`` calls
    instead of one tuple object per document.  Restore is exact: float64
    round-trips Python floats bit-for-bit and token ids are small
    non-negative ints.
    """

    __slots__ = ("tokens", "dfs", "users", "xs", "ys", "tok_flat", "tok_off")

    def __init__(
        self,
        tokens: Tuple[Hashable, ...],
        dfs: Tuple[int, ...],
        users: Tuple[UserId, ...],
        xs,
        ys,
        tok_flat,
        tok_off,
    ):
        self.tokens = tokens
        self.dfs = dfs
        self.users = users
        self.xs = xs
        self.ys = ys
        self.tok_flat = tok_flat
        self.tok_off = tok_off

    @classmethod
    def capture(cls, dataset: STDataset) -> "DatasetSnapshot":
        """Snapshot ``dataset``'s own columns; the dataset is not modified."""
        return cls(
            tokens=dataset.vocab.tokens,
            dfs=dataset.vocab.dfs,
            users=dataset.object_users,
            xs=dataset.xs,
            ys=dataset.ys,
            tok_flat=dataset.tok_flat,
            tok_off=dataset.tok_off,
        )

    def restore(self) -> STDataset:
        """Rebuild a dataset equal to the captured one.

        Object ids, encoded documents and the user total order are
        reproduced exactly; the token dictionary is reassembled from its
        arrays rather than re-counting document frequencies, so even
        df-tie orderings are preserved.
        """
        return STDataset(
            TokenDictionary.from_arrays(self.tokens, self.dfs),
            self.users,
            self.xs,
            self.ys,
            self.tok_off,
            self.tok_flat,
        )

    @property
    def num_objects(self) -> int:
        return len(self.users)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DatasetSnapshot({len(self.users)} objects, "
            f"{len(self.tokens)} tokens)"
        )
