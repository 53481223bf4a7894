"""Approximate candidate generation with MinHash signatures and banded LSH.

The exact blockers in :mod:`repro.matching.blocking` are key-driven:
records become candidates only when a derived key matches *exactly*.
That degenerates on dirty data (a typo in the key silently severs the
pair) and the only exact fallback, :func:`~repro.matching.blocking.full_pairs`,
is quadratic.  MinHash-LSH prunes the comparison space *probabilistically*:
records whose token sets have Jaccard similarity ``s`` share at least one
LSH band with probability ``1 - (1 - s^rows)^bands`` — an S-curve whose
inflection point ``(1/bands)^(1/rows)`` is tunable per workload, so high
recall survives typos that break every exact key.

Determinism is load-bearing (stored experiments and the engine's result
cache are content-addressed): token hashes come from BLAKE2b — not the
builtin ``hash``, which ``PYTHONHASHSEED`` randomizes per process — and
the permutation parameters are drawn from a seeded :class:`random.Random`,
so signatures are byte-identical across processes, platforms, and hash
seeds.

The hot path is batched at the vocabulary level: a
:class:`MinHasher` computes the ``num_perm`` permuted hash values of each
*distinct* token once and reduces record signatures with an elementwise
``min`` over the cached token rows, instead of re-hashing every token of
every record ``num_perm`` times.  The band buckets are then blocks like
any exact blocker's: :func:`lsh_blocking` hands each record's bucket
memberships to :func:`~repro.matching.blocking.block_pairs`, which
purges oversized buckets and returns the candidates as a
:class:`~repro.columnar.batch.RowPairSet` of sorted row lanes.

Banding is **append-only** — a new record can only join buckets, never
reshuffle them — which is exactly the property that lets
:class:`~repro.streaming.delta_blocking.IncrementalLshIndex` emit exact
delta candidate sets for streaming sessions.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from random import Random

from repro.columnar.batch import RowPairSet
from repro.core.records import Dataset, Record
from repro.matching.blocking import block_pairs, key_blocks
from repro.matching.similarity import tokenize

__all__ = [
    "LshConfig",
    "MinHasher",
    "LshBlocking",
    "lsh_blocking",
    "record_tokens",
    "token_hash",
]

# A Mersenne prime comfortably above 2^64 token hashes keeps the
# universal hash family ((a·x + b) mod p) collision-sparse and the
# arithmetic exact in Python ints.
_MERSENNE_PRIME = (1 << 61) - 1

DEFAULT_NUM_PERM = 128
DEFAULT_BANDS = 32


@lru_cache(maxsize=262144)
def token_hash(token: str) -> int:
    """Stable 64-bit hash of one token (BLAKE2b, not ``PYTHONHASHSEED``)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def record_tokens(
    record: Record,
    attributes: Sequence[str] | None = None,
    min_token_length: int = 2,
    shingle_size: int | None = 3,
) -> frozenset[str]:
    """The token set a record is MinHashed over.

    Word tokens follow :func:`~repro.matching.blocking.token_keys`:
    every token of at least ``min_token_length`` characters across the
    given attributes (default: all).  With ``shingle_size`` set (the
    default), each token is expanded into boundary-padded character
    n-grams (``"smith"`` → ``^sm smi mit ith th$``) — a typo then damages
    only the shingles it touches instead of severing the whole token,
    which is what keeps pairs completeness high on dirty data.  An empty
    set means the record never becomes a candidate — the LSH analogue of
    a ``None`` blocking key.
    """
    names = attributes if attributes is not None else record.values.keys()
    seen: set[str] = set()
    for attribute in names:
        value = record.value(attribute)
        if not value:
            continue
        for token in tokenize(value):
            if len(token) < min_token_length:
                continue
            if shingle_size is None:
                seen.add(token)
                continue
            padded = f"^{token}$"
            if len(padded) <= shingle_size:
                seen.add(padded)
            else:
                seen.update(
                    padded[i:i + shingle_size]
                    for i in range(len(padded) - shingle_size + 1)
                )
    return frozenset(seen)


@dataclass(frozen=True)
class LshConfig:
    """Tunable MinHash-LSH parameters (JSON round-trip via :meth:`as_dict`).

    Attributes
    ----------
    num_perm:
        Signature length (number of hash permutations).  Longer
        signatures estimate Jaccard similarity more precisely.
    bands / rows:
        The banding scheme: ``bands × rows`` must equal ``num_perm``.
        ``rows`` may be omitted and is derived as ``num_perm // bands``.
        Records collide when *any* band (a run of ``rows`` consecutive
        signature slots) matches exactly, so the scheme approximates a
        Jaccard threshold of ``(1/bands)^(1/rows)`` — fewer rows per
        band means higher recall and more candidates.
    seed:
        Seeds the permutation parameters; two indexes agree on
        signatures iff they share ``num_perm`` and ``seed``.
    attributes / min_token_length / shingle_size:
        Which token sets to hash (see :func:`record_tokens`).
        ``shingle_size`` expands word tokens into boundary-padded
        character n-grams for typo robustness; ``null`` hashes the raw
        word tokens instead.
    max_block_size:
        Optional bucket purge: batch blocking drops buckets larger than
        this (the block-purging heuristic); the incremental index stops
        *emitting* once a bucket fills up.  The batch/delta equivalence
        is exact only while unset — the same caveat as token blocking's
        retroactive purge (:mod:`repro.streaming.config`).
    """

    num_perm: int = DEFAULT_NUM_PERM
    bands: int = DEFAULT_BANDS
    rows: int | None = None
    seed: int = 1
    attributes: tuple[str, ...] | None = None
    min_token_length: int = 2
    shingle_size: int | None = 3
    max_block_size: int | None = None

    def __post_init__(self) -> None:
        # ValueError (not TypeError) on any malformed value: configs
        # arrive from JSON request bodies (POST /streams), and the API
        # layer maps ValueError to a 400 while anything else is a 500.
        for field_name in ("num_perm", "bands", "rows", "seed",
                           "min_token_length", "shingle_size",
                           "max_block_size"):
            value = getattr(self, field_name)
            optional = field_name in ("rows", "shingle_size", "max_block_size")
            if value is None and optional:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"{field_name} must be an integer, got {value!r}"
                )
        if self.num_perm < 2:
            raise ValueError(f"num_perm must be at least 2, got {self.num_perm}")
        if self.bands < 1:
            raise ValueError(f"bands must be positive, got {self.bands}")
        if self.num_perm % self.bands != 0:
            raise ValueError(
                f"bands must divide num_perm evenly, got "
                f"{self.bands} bands over {self.num_perm} permutations"
            )
        derived = self.num_perm // self.bands
        if self.rows is None:
            object.__setattr__(self, "rows", derived)
        elif self.rows != derived:
            raise ValueError(
                f"rows must equal num_perm / bands = {derived}, got {self.rows}"
            )
        if self.min_token_length < 1:
            raise ValueError(
                f"min_token_length must be positive, got {self.min_token_length}"
            )
        if self.shingle_size is not None and self.shingle_size < 2:
            raise ValueError(
                f"shingle_size must be at least 2, got {self.shingle_size}"
            )
        if self.max_block_size is not None and self.max_block_size < 1:
            raise ValueError(
                f"max_block_size must be positive, got {self.max_block_size}"
            )
        if self.attributes is not None:
            names = tuple(self.attributes)
            if not names or not all(
                isinstance(name, str) and name for name in names
            ):
                raise ValueError(
                    "attributes must be a non-empty list of attribute names"
                )
            object.__setattr__(self, "attributes", names)

    def threshold_estimate(self) -> float:
        """The Jaccard similarity where band collision hits ~50%."""
        return (1.0 / self.bands) ** (1.0 / self.rows)

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable form (stream configs, status payloads)."""
        return {
            "num_perm": self.num_perm,
            "bands": self.bands,
            "rows": self.rows,
            "seed": self.seed,
            "attributes": (
                list(self.attributes) if self.attributes is not None else None
            ),
            "min_token_length": self.min_token_length,
            "shingle_size": self.shingle_size,
            "max_block_size": self.max_block_size,
        }

    @classmethod
    def from_dict(cls, document: object) -> "LshConfig":
        """Parse the :meth:`as_dict` form (missing keys keep defaults)."""
        if document is None:
            return cls()
        if not isinstance(document, dict):
            raise ValueError("lsh config must be a JSON object")
        known = {
            "num_perm", "bands", "rows", "seed", "attributes",
            "min_token_length", "shingle_size", "max_block_size",
        }
        unknown = set(document) - known
        if unknown:
            raise ValueError(
                f"unknown lsh config keys: {', '.join(sorted(unknown))}"
            )
        attributes = document.get("attributes")
        if attributes is not None:
            if not isinstance(attributes, (list, tuple)):
                raise ValueError("attributes must be a list of attribute names")
            attributes = tuple(attributes)
        return cls(
            num_perm=document.get("num_perm", DEFAULT_NUM_PERM),
            bands=document.get("bands", DEFAULT_BANDS),
            rows=document.get("rows"),
            seed=document.get("seed", 1),
            attributes=attributes,
            min_token_length=document.get("min_token_length", 2),
            shingle_size=document.get("shingle_size", 3),
            max_block_size=document.get("max_block_size"),
        )


class MinHasher:
    """Seeded MinHash signatures and banded bucket keys.

    One instance caches the permuted hash values of every distinct token
    it has seen (vocabulary-sized, like the tokenizer memos in
    :mod:`repro.matching.similarity`), so a corpus is permuted once per
    token rather than once per record occurrence.
    """

    def __init__(self, config: LshConfig | None = None) -> None:
        self.config = config or LshConfig()
        rng = Random(self.config.seed)
        self._coefficients = [
            (rng.randrange(1, _MERSENNE_PRIME), rng.randrange(0, _MERSENNE_PRIME))
            for _ in range(self.config.num_perm)
        ]
        self._permuted: dict[str, tuple[int, ...]] = {}
        self._row_packer = struct.Struct(f"<{self.config.rows}Q")

    def _token_row(self, token: str) -> tuple[int, ...]:
        row = self._permuted.get(token)
        if row is None:
            base = token_hash(token)
            row = tuple(
                (a * base + b) % _MERSENNE_PRIME
                for a, b in self._coefficients
            )
            self._permuted[token] = row
        return row

    def signature(self, tokens: Iterable[str]) -> tuple[int, ...] | None:
        """MinHash signature of a token set; ``None`` for the empty set."""
        rows = [self._token_row(token) for token in set(tokens)]
        if not rows:
            return None
        if len(rows) == 1:
            return rows[0]
        return tuple(map(min, zip(*rows)))

    def band_keys(self, tokens: Iterable[str]) -> list[str]:
        """The banded bucket keys of one token set (empty set: no keys).

        Each key digests one run of ``rows`` signature slots together
        with its band index, so buckets never collide across bands.
        """
        signature = self.signature(tokens)
        if signature is None:
            return []
        rows = self.config.rows
        keys = []
        for band in range(self.config.bands):
            packed = self._row_packer.pack(
                *(value & 0xFFFFFFFFFFFFFFFF
                  for value in signature[band * rows:(band + 1) * rows])
            )
            digest = hashlib.blake2b(packed, digest_size=8).hexdigest()
            keys.append(f"{band}:{digest}")
        return keys

    def keys_for(self, record: Record) -> list[str]:
        """Bucket keys of one record — a drop-in ``KeyEmitter`` for the
        incremental blocking machinery."""
        return self.band_keys(
            record_tokens(
                record,
                attributes=self.config.attributes,
                min_token_length=self.config.min_token_length,
                shingle_size=self.config.shingle_size,
            )
        )


def lsh_blocking(
    dataset: Dataset, config: LshConfig | None = None
) -> RowPairSet:
    """Batch MinHash-LSH blocking: records sharing any band bucket.

    Buckets are blocks of :func:`~repro.matching.blocking.block_pairs`,
    so the candidates come back as sorted row lanes over
    ``dataset.columnar_store()``.  Buckets larger than
    ``config.max_block_size`` are dropped entirely (batch purge).
    """
    config = config or LshConfig()
    rows, buckets = key_blocks(dataset, MinHasher(config).keys_for)
    return block_pairs(
        dataset, rows, buckets,
        max_block_size=config.max_block_size, scheme="lsh_blocking",
    )


@dataclass(frozen=True)
class LshBlocking:
    """MinHash-LSH as a pipeline candidate generator.

    A named class (not a closure) keeps pipelines content-
    fingerprintable: two pipelines that differ only in their LSH
    parameters produce different :meth:`config_fingerprint` tokens, so
    the engine's result cache never serves one config's candidates to
    the other.
    """

    config: LshConfig = field(default_factory=LshConfig)

    def __call__(self, dataset: Dataset) -> RowPairSet:
        return lsh_blocking(dataset, self.config)

    def config_fingerprint(self) -> dict[str, object]:
        """Content token for the engine's cache keys."""
        return {"lsh_blocking": self.config.as_dict()}
