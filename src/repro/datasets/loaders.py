"""TSV persistence for spatio-textual datasets.

Line format (tab-separated)::

    user <TAB> x <TAB> y <TAB> keyword,keyword,...

and, for temporal datasets, a fifth timestamp column::

    user <TAB> x <TAB> y <TAB> keyword,keyword,... <TAB> t

Users and keywords are stored as strings; keywords must not contain tabs,
commas or newlines (the generator's tokens never do — enforce on save).
This is the on-disk interchange format of the CLI and the examples.
"""

from __future__ import annotations

import os
import sys
from typing import List, Union

from ..core.model import STDataset
from ..core.temporal import TemporalDataset

__all__ = ["save_tsv", "load_tsv", "save_temporal_tsv", "load_temporal_tsv"]

_FORBIDDEN = ("\t", ",", "\n", "\r")


def save_tsv(dataset: STDataset, path: Union[str, os.PathLike]) -> int:
    """Write ``dataset`` to ``path``; returns the number of lines written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for obj in dataset.objects:
            keywords = sorted(str(k) for k in dataset.vocab.decode(obj.doc))
            for keyword in keywords:
                if any(ch in keyword for ch in _FORBIDDEN):
                    raise ValueError(
                        f"keyword {keyword!r} contains a reserved character"
                    )
            user = str(obj.user)
            if any(ch in user for ch in _FORBIDDEN):
                raise ValueError(f"user id {user!r} contains a reserved character")
            handle.write(f"{user}\t{obj.x!r}\t{obj.y!r}\t{','.join(keywords)}\n")
            count += 1
    return count


def save_temporal_tsv(
    tdataset: TemporalDataset, path: Union[str, os.PathLike]
) -> int:
    """Write a temporal dataset (5-column format); returns lines written."""
    dataset = tdataset.dataset
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for obj in dataset.objects:
            keywords = sorted(str(k) for k in dataset.vocab.decode(obj.doc))
            for keyword in keywords:
                if any(ch in keyword for ch in _FORBIDDEN):
                    raise ValueError(
                        f"keyword {keyword!r} contains a reserved character"
                    )
            user = str(obj.user)
            if any(ch in user for ch in _FORBIDDEN):
                raise ValueError(f"user id {user!r} contains a reserved character")
            t = tdataset.timestamp(obj)
            handle.write(
                f"{user}\t{obj.x!r}\t{obj.y!r}\t{','.join(keywords)}\t{t!r}\n"
            )
            count += 1
    return count


def load_temporal_tsv(path: Union[str, os.PathLike]) -> TemporalDataset:
    """Read a temporal dataset written by :func:`save_temporal_tsv`."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ValueError(
                    f"{path}:{line_no}: expected 5 tab-separated fields, "
                    f"got {len(parts)}"
                )
            user, x_str, y_str, keywords_str, t_str = parts
            keywords = [k for k in keywords_str.split(",") if k]
            records.append(
                (user, float(x_str), float(y_str), keywords, float(t_str))
            )
    return TemporalDataset.from_records(records)


def load_tsv(path: Union[str, os.PathLike]) -> STDataset:
    """Read a dataset previously written by :func:`save_tsv`.

    User ids and keywords come back as strings regardless of their
    original types; coordinates are exact (written with ``repr``).  The
    file is read once into per-field columns, which go straight to
    :meth:`STDataset.from_columns <repro.core.model.STDataset.from_columns>`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    rows = [line.split("\t") for line in lines if line]
    if rows and set(map(len, rows)) != {4}:
        _raise_first_bad_line(path, lines)
    users, x_strs, y_strs, keyword_strs = zip(*rows) if rows else ((),) * 4
    try:
        xs = list(map(float, x_strs))
        ys = list(map(float, y_strs))
    except ValueError:
        _raise_first_bad_line(path, lines)
        raise
    keyword_sets = [set(field.split(",")) for field in keyword_strs]
    for keywords in keyword_sets:
        keywords.discard("")
    # One string object per distinct user, not one per line.
    return STDataset.from_columns(
        list(map(sys.intern, users)), xs, ys, keyword_sets
    )


def _raise_first_bad_line(path, lines: List[str]) -> None:
    """Re-read ``lines`` in order and raise the first line's error.

    The column pass checks all field counts, then all x, then all y;
    this replay reports the error a line-by-line read meets first.
    """
    for line_no, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(
                f"{path}:{line_no}: expected 4 tab-separated fields, "
                f"got {len(parts)}"
            )
        float(parts[1])
        float(parts[2])
