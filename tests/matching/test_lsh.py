"""Tests for MinHash-LSH approximate blocking (config, signatures, batch)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.pairs import make_pair
from repro.core.records import Dataset, Record
from repro.matching.blocking import full_pairs
from repro.matching.lsh import (
    LshBlocking,
    LshConfig,
    MinHasher,
    lsh_blocking,
    record_tokens,
    token_hash,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def person(record_id, name, city=None):
    return Record(record_id, {"name": name, "city": city})


class TestLshConfig:
    def test_rows_derived_from_bands(self):
        config = LshConfig(num_perm=128, bands=32)
        assert config.rows == 4
        assert LshConfig(num_perm=96, bands=32).rows == 3

    def test_explicit_consistent_rows_accepted(self):
        assert LshConfig(num_perm=128, bands=32, rows=4).rows == 4

    def test_json_round_trip(self):
        config = LshConfig(
            num_perm=64, bands=16, seed=9, attributes=("name",),
            min_token_length=3, shingle_size=None, max_block_size=50,
        )
        document = config.as_dict()
        json.dumps(document)  # must be JSON-serializable as-is
        assert LshConfig.from_dict(document) == config

    def test_from_dict_defaults(self):
        assert LshConfig.from_dict(None) == LshConfig()
        assert LshConfig.from_dict({}) == LshConfig()

    @pytest.mark.parametrize(
        "document",
        [
            "not-an-object",
            {"num_perm": "128"},
            {"num_perm": True},
            {"num_perm": 1},
            {"bands": 0},
            {"bands": 2.5},
            {"num_perm": 100, "bands": 30},        # bands must divide num_perm
            {"num_perm": 128, "bands": 32, "rows": 5},  # inconsistent rows
            {"seed": 1.5},
            {"min_token_length": 0},
            {"shingle_size": 1},
            {"max_block_size": 0},
            {"attributes": "name"},
            {"attributes": []},
            {"attributes": [1]},
            {"num_perms": 128},                    # unknown key
        ],
    )
    def test_from_dict_rejects_malformed_values_with_value_error(self, document):
        """LSH configs arrive from JSON request bodies: anything
        malformed must raise ValueError (-> HTTP 400), never TypeError
        (-> HTTP 500)."""
        with pytest.raises(ValueError):
            LshConfig.from_dict(document)

    def test_threshold_estimate_moves_with_banding(self):
        recall_heavy = LshConfig(num_perm=128, bands=64)
        precision_heavy = LshConfig(num_perm=128, bands=16)
        assert 0.0 < recall_heavy.threshold_estimate()
        assert (
            recall_heavy.threshold_estimate()
            < LshConfig().threshold_estimate()
            < precision_heavy.threshold_estimate()
            < 1.0
        )


class TestRecordTokens:
    def test_shingles_are_boundary_padded(self):
        tokens = record_tokens(person("a", "smith", None))
        assert "^sm" in tokens and "th$" in tokens and "mit" in tokens

    def test_word_tokens_without_shingling(self):
        tokens = record_tokens(person("a", "alpha beta"), shingle_size=None)
        assert tokens == frozenset({"alpha", "beta"})

    def test_attribute_restriction_and_min_length(self):
        record = person("a", "x ab", "city")
        tokens = record_tokens(
            record, attributes=["name"], min_token_length=2, shingle_size=None
        )
        assert tokens == frozenset({"ab"})  # 'x' too short, 'city' ignored

    def test_empty_values_yield_empty_set(self):
        assert record_tokens(person("a", None, None)) == frozenset()


class TestMinHasher:
    def test_identical_token_sets_share_signatures_and_keys(self):
        hasher = MinHasher()
        tokens = frozenset({"alpha", "beta", "gamma"})
        assert hasher.signature(tokens) == hasher.signature(set(tokens))
        assert hasher.band_keys(tokens) == hasher.band_keys(tokens)

    def test_empty_token_set_has_no_signature_or_keys(self):
        hasher = MinHasher()
        assert hasher.signature(frozenset()) is None
        assert hasher.band_keys(frozenset()) == []

    def test_signature_length_and_band_count(self):
        config = LshConfig(num_perm=64, bands=16)
        hasher = MinHasher(config)
        signature = hasher.signature({"alpha"})
        assert len(signature) == 64
        assert len(hasher.band_keys({"alpha"})) == 16

    def test_same_seed_agrees_across_instances(self):
        tokens = frozenset({"alpha", "beta"})
        assert MinHasher().signature(tokens) == MinHasher().signature(tokens)

    def test_different_seeds_permute_differently(self):
        tokens = frozenset({"alpha", "beta", "gamma", "delta"})
        first = MinHasher(LshConfig(seed=1)).signature(tokens)
        second = MinHasher(LshConfig(seed=2)).signature(tokens)
        assert first != second

    def test_signature_agreement_tracks_jaccard(self):
        """Slot agreement estimates Jaccard similarity: for two sets at
        J=2/3 the agreement must land well away from both extremes.
        Deterministic — the seed is fixed."""
        hasher = MinHasher(LshConfig(num_perm=128))
        base = frozenset(f"token{i}" for i in range(12))
        similar = frozenset(sorted(base)[:8]) | {
            "other1", "other2", "other3", "other4"
        }
        first = hasher.signature(base)
        second = hasher.signature(similar)
        agreement = sum(a == b for a, b in zip(first, second)) / 128
        assert 0.25 < agreement < 0.85

    @pytest.mark.parametrize(
        "config, keys",
        [
            (
                LshConfig(num_perm=16, bands=8),
                [
                    "0:8e7b1165e3dc9c5c", "1:689d001dec045677",
                    "2:dd8a44b6b3954564", "3:361266f4cfb86b22",
                    "4:b6232d36b1593bb1", "5:302f69027ae310b2",
                    "6:09e30e69a6f192ac", "7:06176feb8d7c08a9",
                ],
            ),
            (
                LshConfig(num_perm=16, bands=4, seed=7),
                [
                    "0:b9b4a061e1ece8f0", "1:82a937ffe3fdd051",
                    "2:e99b93f38d3b9d2c", "3:0e149d36ab876b6f",
                ],
            ),
            (
                LshConfig(num_perm=24, bands=3, seed=3),
                [
                    "0:b4a9572808490675", "1:62f50106c6086a72",
                    "2:df394cd242dc002a",
                ],
            ),
        ],
        ids=["rows2", "rows4-seed7", "rows8-seed3"],
    )
    def test_band_keys_are_pinned(self, config, keys):
        """Bucket keys are persisted as block rows of durable LSH
        streams, so a stored stream resumes only while the same tokens
        hash to the same key strings."""
        tokens = ["alpha", "beta", "gamma", "centauri"]
        assert MinHasher(config).band_keys(tokens) == keys


class TestLshBlocking:
    def test_exact_duplicates_are_always_candidates(self):
        dataset = Dataset(
            [person("a", "john smith", "berlin"),
             person("b", "john smith", "berlin"),
             person("c", "completely unrelated", "tokyo")],
            name="d",
        )
        candidates = lsh_blocking(dataset)
        assert ("a", "b") in candidates

    def test_near_duplicates_survive_a_typo(self):
        dataset = Dataset(
            [person("a", "jonathan smithers", "berlin"),
             person("b", "jonathan smithers", "berlim"),  # typo
             person("c", "xqz vwk", "pqr")],
            name="d",
        )
        assert ("a", "b") in lsh_blocking(dataset)

    def test_tokenless_records_never_become_candidates(self):
        dataset = Dataset(
            [person("a", None, None), person("b", None, None)], name="d"
        )
        assert lsh_blocking(dataset) == set()

    def test_candidates_are_canonical_and_subset_of_full_pairs(self):
        records = [
            person(f"r{i}", name)
            for i, name in enumerate(
                ["alpha beta", "alpha beta", "gamma delta", "gamma delte"]
            )
        ]
        dataset = Dataset(records, name="d")
        candidates = lsh_blocking(dataset)
        assert candidates <= full_pairs(dataset)
        assert all(make_pair(*pair) == pair for pair in candidates)

    def test_blocking_is_deterministic_across_calls(self):
        records = [
            person(f"r{i}", f"name{i % 3} shared tokens here")
            for i in range(30)
        ]
        dataset = Dataset(records, name="d")
        assert lsh_blocking(dataset) == lsh_blocking(dataset)

    def test_max_block_size_purges_oversized_buckets(self):
        # ten identical records: every bucket holds all ten
        records = [person(f"r{i}", "same name tokens") for i in range(10)]
        dataset = Dataset(records, name="d")
        assert len(lsh_blocking(dataset)) == 45
        capped = lsh_blocking(dataset, LshConfig(max_block_size=5))
        assert capped == set()

    def test_config_fingerprints_distinguish_configs(self):
        default = LshBlocking()
        other = LshBlocking(LshConfig(num_perm=128, bands=16))
        assert default.config_fingerprint() != other.config_fingerprint()
        assert default.config_fingerprint() == LshBlocking().config_fingerprint()


_SEED_SCRIPT = """
import json
from repro.core.records import Dataset, Record
from repro.matching.lsh import LshConfig, MinHasher, lsh_blocking, token_hash

hasher = MinHasher(LshConfig())
tokens = frozenset(["alpha", "beta", "gamma", "centauri"])
dataset = Dataset(
    [
        Record("r1", {"name": "alpha centauri system", "zip": "12"}),
        Record("r2", {"name": "alpha centauri systm", "zip": "12"}),
        Record("r3", {"name": "beta pictoris", "zip": "99"}),
        Record("r4", {"name": "beta pictoris b", "zip": "99"}),
    ],
    name="stars",
)
print(json.dumps({
    "token_hash": token_hash("alpha"),
    "signature": hasher.signature(tokens)[:8],
    "band_keys": hasher.band_keys(tokens)[:4],
    "candidates": sorted(lsh_blocking(dataset)),
}))
"""


def _run_with_hash_seed(seed: str) -> str:
    environment = dict(os.environ)
    environment["PYTHONHASHSEED"] = seed
    environment["PYTHONPATH"] = str(SRC)
    completed = subprocess.run(
        [sys.executable, "-c", _SEED_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=environment,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_signatures_are_hash_seed_independent():
    """Signatures, band keys, and candidate sets must not depend on
    ``PYTHONHASHSEED`` — they feed stored experiments and cache keys."""
    first = _run_with_hash_seed("0")
    second = _run_with_hash_seed("424242")
    assert first == second
    payload = json.loads(first)
    assert payload["candidates"], "the pinned corpus must emit candidates"
