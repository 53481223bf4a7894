"""Columnar record storage for the comparison hot path.

A :class:`ColumnarStore` re-lays a set of records out as *per-attribute
columns* of interned value ids, mirroring the list-based columnar
processing that let graph DBMSs escape per-object pointer chasing
(*Columnar Storage and List-based Processing for Graph DBMS*, PAPERS.md):

* every distinct attribute value is **interned** once into a shared
  string pool (``vid`` 0 is the null sentinel covering both ``None``
  and ``""``, matching :meth:`repro.core.records.Record.value`);
* each attribute becomes one dense ``int32`` array mapping row → value
  id, with row ids aligned to the dataset's dense numeric ids;
* token-id and n-gram-id derivations are computed **once per distinct
  value** (not once per pair) and stored as CSR-style sorted id arrays
  plus in-order sequences, ready for the batch kernels of
  :mod:`repro.columnar.kernels`;
* numeric parses and Soundex codes are likewise precomputed per
  distinct value, and each row's rank in sorted record-id order lets
  the comparison stage order candidate pairs by integers.

The layout is append-only: :meth:`ColumnarStore.extend` appends rows
for new record ids and interns only values the pool lacks, and every
derived array covers a prefix of the pool (or of the rows) that its
accessor extends over whatever was added since.  Building a store is
extending an empty one, so one code path derives each value once.
Because value ids never change, the comparison stage's per-measure
score memo (``score_memo``, see :mod:`repro.columnar.compare`) stays
valid across extensions too.

Because interning is exact (case-sensitive, byte-for-byte), value-id
equality is string equality, and every derivation equals what the
scalar measures in :mod:`repro.matching.similarity` would compute for
the same strings — the foundation of the kernels' byte-identical
scoring guarantee.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.core.records import Dataset, Record
from repro.matching.similarity import (
    _token_tuple,
    ngrams,
    soundex,
)

__all__ = ["ColumnarStore", "NULL_VID"]

# Value id reserved for missing values (None or "", per Record.value).
NULL_VID = 0


class ColumnarStore:
    """Per-attribute columns of interned record values.

    Build with :meth:`from_dataset` (rows aligned with the dataset's
    dense numeric ids) or :meth:`from_records` (any mapping of record
    id → :class:`~repro.core.records.Record`, e.g. the candidates'
    records of the comparison stage), and grow with :meth:`extend`
    (a streaming session's layout, rows aligned with its numeric ids).
    """

    def __init__(
        self,
        attributes: Sequence[str],
        row_ids: Sequence[str],
        values: Sequence[str | None],
        columns: Mapping[str, np.ndarray],
    ) -> None:
        if not values or values[0] is not None:
            raise ValueError("values[0] must be the None null sentinel")
        self.attributes: tuple[str, ...] = tuple(attributes)
        self.row_ids: tuple[str, ...] = tuple(row_ids)
        self._values: list[str | None] = list(values)
        self._columns: dict[str, np.ndarray] = {
            attribute: np.asarray(column, dtype=np.int32)
            for attribute, column in columns.items()
        }
        for attribute in self.attributes:
            if len(self._columns[attribute]) != len(self.row_ids):
                raise ValueError(
                    f"column {attribute!r} has {len(self._columns[attribute])} "
                    f"rows, store has {len(self.row_ids)}"
                )
        self._row_of: dict[str, int] = {
            record_id: row for row, record_id in enumerate(self.row_ids)
        }
        # value -> vid, the inverse of the pool
        self._vid_of: dict[str, int] = {
            value: vid for vid, value in enumerate(self._values) if vid
        }
        # id(measure) -> (measure, version, sorted packed vid-pair keys,
        # scores); owned by repro.columnar.compare
        self.score_memo: dict[int, tuple] = {}
        self._reset_derived()

    def _reset_derived(self) -> None:
        # Derived arrays are per *distinct value* (shared across
        # attributes: the same string yields the same tokens wherever
        # it appears) or per row.  Each covers a prefix — its length —
        # and is extended by its accessor on first use after a growth.
        self._token_sequences: list[tuple[str, ...]] = []
        self._token_csr: tuple[np.ndarray, np.ndarray] | None = None
        self._token_vocab: dict[str, int] = {}
        self._ngram_csr: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._ngram_vocab: dict[int, dict[str, int]] = {}
        self._numeric = (
            np.empty(0, dtype=np.float64), np.empty(0, dtype=bool)
        )
        self._soundex = np.empty(0, dtype=np.int32)
        self._soundex_ids: dict[str, int] = {"0000": 0}
        # (ranks, record ids in sorted order), replaced as one tuple
        self._rank_state: tuple[np.ndarray, list[str]] = (
            np.empty(0, dtype=np.int64), []
        )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "ColumnarStore":
        """Columns over a dataset, rows aligned with its numeric ids."""
        return cls._empty(dataset.attributes).extend(dataset)

    @classmethod
    def from_records(
        cls,
        records: Mapping[str, Record],
        attributes: Sequence[str],
    ) -> "ColumnarStore":
        """Columns over a record mapping, rows in mapping order."""
        return cls._empty(attributes).extend(records.values())

    @classmethod
    def _empty(cls, attributes: Sequence[str]) -> "ColumnarStore":
        return cls(
            attributes, (), [None],
            {attribute: _EMPTY_COLUMN for attribute in attributes},
        )

    def extend(self, records: Iterable[Record]) -> "ColumnarStore":
        """Append rows for the records whose ids are new; returns ``self``.

        Rows keep arrival order after the existing ones, so row ids stay
        stable.  Values are interned attribute by attribute, and only
        values the pool lacks get new value ids; derived arrays catch
        up lazily in their accessors.  Records whose id the store
        already holds are skipped — records are immutable.
        """
        row_of = self._row_of
        fresh: list[Record] = []
        for record in records:
            if record.record_id not in row_of:
                row_of[record.record_id] = len(self.row_ids) + len(fresh)
                fresh.append(record)
        if not fresh:
            return self
        values = self._values
        vid_of = self._vid_of
        for attribute in self.attributes:
            column: list[int] = []
            for record in fresh:
                value = record.value(attribute)
                if value is None:
                    column.append(NULL_VID)
                    continue
                vid = vid_of.get(value)
                if vid is None:
                    vid = len(values)
                    vid_of[value] = vid
                    values.append(value)
                column.append(vid)
            self._columns[attribute] = np.concatenate(
                (self._columns[attribute], np.asarray(column, dtype=np.int32))
            )
        self.row_ids += tuple(record.record_id for record in fresh)
        return self

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.row_ids)

    def __contains__(self, record_id: object) -> bool:
        return record_id in self._row_of

    @property
    def distinct_values(self) -> int:
        """Distinct non-null values in the interning pool."""
        return len(self._values) - 1

    def value_of(self, vid: int) -> str | None:
        """The interned string behind one value id (``None`` for 0)."""
        return self._values[vid]

    @property
    def values(self) -> Sequence[str | None]:
        """The interning pool; index is the value id."""
        return self._values

    def row_of(self, record_id: str) -> int:
        """Dense row index of ``record_id``."""
        return self._row_of[record_id]

    @property
    def row_index(self) -> Mapping[str, int]:
        """Record id → dense row index, for batch lookups."""
        return self._row_of

    def column(self, attribute: str) -> np.ndarray:
        """The ``int32`` value-id array of one attribute."""
        try:
            return self._columns[attribute]
        except KeyError:
            raise KeyError(
                f"attribute {attribute!r} not in columnar store "
                f"({', '.join(self.attributes)})"
            ) from None

    def record(self, record_id: str) -> Record:
        """Rebuild one :class:`Record` from the columns (fallback path)."""
        row = self._row_of[record_id]
        return Record(
            record_id=record_id,
            values={
                attribute: self._values[int(self._columns[attribute][row])]
                for attribute in self.attributes
            },
        )

    # -- derived arrays -----------------------------------------------------

    def token_sequences(self) -> list[tuple[str, ...]]:
        """In-order word-token tuples per value id (Monge–Elkan order)."""
        sequences = self._token_sequences
        sequences.extend(
            _token_tuple(value) if value is not None else ()
            for value in self._values[len(sequences):]
        )
        return sequences

    def token_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique token ids per value id, CSR layout.

        Returns ``(indptr, ids)``: value id ``v`` owns
        ``ids[indptr[v]:indptr[v + 1]]``, sorted ascending.  Token ids
        come from a store-local vocabulary, so id equality is token
        equality and set sizes/intersections equal the scalar
        ``frozenset`` derivations exactly.
        """
        covered = _csr_rows(self._token_csr)
        if covered < len(self._values):
            self._token_csr = _extend_csr(
                self._token_csr,
                (
                    sorted(set(sequence))
                    for sequence in self.token_sequences()[covered:]
                ),
                self._token_vocab,
            )
        return self._token_csr

    def ngram_csr(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique character n-gram ids per value id, CSR layout."""
        csr = self._ngram_csr.get(n)
        covered = _csr_rows(csr)
        if covered < len(self._values):
            csr = self._ngram_csr[n] = _extend_csr(
                csr,
                (
                    sorted(ngrams(value, n)) if value is not None else ()
                    for value in self._values[covered:]
                ),
                self._ngram_vocab.setdefault(n, {}),
            )
        return csr

    def numeric(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-vid ``(parsed, usable)`` arrays for the numeric kernel.

        ``usable`` marks values that parse as *finite* floats — exactly
        the inputs :func:`repro.matching.similarity.numeric_similarity`
        scores with the relative-distance formula; everything else
        (unparsable or non-finite) takes its exact-equality fallback.
        """
        covered = len(self._numeric[0])
        if covered < len(self._values):
            added = self._values[covered:]
            parsed = np.zeros(len(added), dtype=np.float64)
            usable = np.zeros(len(added), dtype=bool)
            for offset, value in enumerate(added):
                if value is None:
                    continue
                try:
                    number = float(value)
                except ValueError:
                    continue
                if math.isfinite(number):
                    parsed[offset] = number
                    usable[offset] = True
            self._numeric = (
                np.concatenate((self._numeric[0], parsed)),
                np.concatenate((self._numeric[1], usable)),
            )
        return self._numeric

    def soundex_codes(self) -> np.ndarray:
        """Interned Soundex code id per value id.

        Code id 0 is the ``SOUNDEX_SENTINEL`` (non-encodable values),
        so kernels can apply the exact-equality fallback by comparing
        against 0.
        """
        covered = len(self._soundex)
        if covered < len(self._values):
            code_ids = self._soundex_ids
            codes = np.asarray(
                [
                    0 if value is None
                    else code_ids.setdefault(soundex(value), len(code_ids))
                    for value in self._values[covered:]
                ],
                dtype=np.int32,
            )
            self._soundex = np.concatenate((self._soundex, codes))
        return self._soundex

    def id_ranks(self) -> np.ndarray:
        """Each row's ``int64`` position in sorted record-id order.

        Pairs ordered by their rows' ``(rank, rank)`` are ordered
        exactly as :func:`sorted` orders their id tuples.  Rows added by
        :meth:`extend` are sorted among themselves and merged into the
        existing order; older rows shift by the new ids sorting before
        them.  The state is read once and replaced in one assignment,
        so threads scoring one store may both extend it, never tear it.
        """
        ranks, old = self._rank_state
        row_ids = self.row_ids
        covered = len(ranks)
        if covered < len(row_ids):
            rows = sorted(range(covered, len(row_ids)), key=row_ids.__getitem__)
            added = [row_ids[row] for row in rows]
            points = np.fromiter(
                (bisect_left(old, record_id) for record_id in added),
                dtype=np.int64,
                count=len(added),
            )
            older, ranks = ranks, np.empty(len(row_ids), dtype=np.int64)
            ranks[:covered] = older + np.searchsorted(
                points, older, side="right"
            )
            ranks[rows] = points + np.arange(len(added), dtype=np.int64)
            merged: list[str] = []
            start = 0
            for point, record_id in zip(points.tolist(), added):
                merged.extend(old[start:point])
                merged.append(record_id)
                start = point
            merged.extend(old[start:])
            self._rank_state = (ranks, merged)
        return ranks

    def __repr__(self) -> str:
        return (
            f"ColumnarStore(rows={len(self.row_ids)}, "
            f"attributes={len(self.attributes)}, "
            f"distinct_values={self.distinct_values})"
        )


_EMPTY_COLUMN = np.empty(0, dtype=np.int32)


def _csr_rows(csr: tuple[np.ndarray, np.ndarray] | None) -> int:
    """How many value ids a CSR pair covers."""
    return 0 if csr is None else len(csr[0]) - 1


def _extend_csr(
    csr: tuple[np.ndarray, np.ndarray] | None,
    id_lists: Iterable[Sequence[str]],
    vocab: dict[str, int],
) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, ids)`` arrays extended by per-value string lists.

    Interns each string into ``vocab`` — ids are assigned in first-use
    order, then each row is re-sorted by id so kernels can merge rows
    as sorted runs.  Rows are visited in value-id order, so extending a
    CSR piecewise assigns the same ids as building it in one go.
    """
    indptr, ids = csr if csr is not None else (_EMPTY_INDPTR, _EMPTY_IDS)
    base = int(indptr[-1])
    offsets: list[int] = []
    flat: list[int] = []
    for strings in id_lists:
        flat.extend(
            sorted(vocab.setdefault(string, len(vocab)) for string in strings)
        )
        offsets.append(base + len(flat))
    return (
        np.concatenate((indptr, np.asarray(offsets, dtype=np.int64))),
        np.concatenate((ids, np.asarray(flat, dtype=np.int64))),
    )


_EMPTY_INDPTR = np.zeros(1, dtype=np.int64)
_EMPTY_IDS = np.empty(0, dtype=np.int64)
