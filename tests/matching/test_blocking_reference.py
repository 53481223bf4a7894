"""In-memory blockers against brute-force references.

Every blocker builds blocks and pairs their members.  Each reference
here instead decides every pair of ``[D]^2`` on its own, from the keys
of its two records (and, for purging blockers, the size of each key's
block).  The two formulations must give the same candidate set on
generated person records, on hand-made edge cases, on records whose key
values are all missing and on the empty dataset.

Blockers return row lanes that read as a set
(:class:`~repro.columnar.RowPairSet`); the set contract — sorted
iteration, exact ``in``, comparisons and algebra into plain sets — is
checked against the reference sets too.
"""

import logging
import operator
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from repro.columnar import RowPairSet
from repro.core import Dataset, Record
from repro.core.pairs import make_pair
from repro.datagen import make_person_benchmark
from repro.matching import blocking
from repro.matching.attribute_matching import AttributeComparator
from repro.matching.lsh import LshConfig, MinHasher, lsh_blocking
from repro.matching.pipeline import MatchingPipeline
from repro.matching.similarity import tokenize
from repro.metrics.blocking_quality import evaluate_blocking
from repro.streaming.session import mean_similarity
from repro.telemetry.metrics import get_metrics

SRC = Path(__file__).resolve().parents[2] / "src"

KEYS = {
    "first_token": blocking.first_token_key("last_name"),
    "soundex": blocking.soundex_key("last_name"),
    "prefix": blocking.prefix_key("city", length=2),
}


def people() -> Dataset:
    return make_person_benchmark(400, seed=29).dataset


def messy() -> Dataset:
    """Hand-made edge cases: None values, blanks, shared tokens."""
    rows = [
        ("r01", "smith john", "berlin"),
        ("r02", "smith jon", "berlin"),
        ("r03", "smyth john", None),
        ("r04", "jones mary", "hamburg"),
        ("r05", None, "hamburg"),
        ("r06", "   ", "berlin"),
        ("r07", "smith john", "bergen"),
        ("r08", "lee", ""),
    ]
    return Dataset(
        [
            Record(rid, {"last_name": name, "city": city})
            for rid, name, city in rows
        ],
        name="messy",
    )


def missing() -> Dataset:
    """Every key value missing: None, empty or whitespace only."""
    values = [None, "", "   ", "\t", None, " ", "", None]
    return Dataset(
        [
            Record(f"m{i}", {"last_name": value, "city": value})
            for i, value in enumerate(values)
        ],
        name="missing",
    )


DATASETS = {
    "people": people,
    "messy": messy,
    "missing": missing,
    "empty": lambda: Dataset([]),
}


@pytest.fixture(scope="module", params=sorted(DATASETS))
def dataset(request):
    return DATASETS[request.param]()


def decided_pairwise(dataset: Dataset, related) -> set:
    """The pairs of ``[D]^2`` that ``related(a, b)`` accepts."""
    return {
        make_pair(a, b)
        for a, b in combinations(dataset.record_ids, 2)
        if related(a, b)
    }


def reference_full(dataset) -> set:
    return decided_pairwise(dataset, lambda a, b: True)


def reference_standard(dataset, key) -> set:
    keys = {record.record_id: key(record) for record in dataset}
    return decided_pairwise(
        dataset, lambda a, b: keys[a] is not None and keys[a] == keys[b]
    )


def reference_sorted_neighborhood(dataset, key, window) -> set:
    order = sorted(
        dataset.record_ids, key=lambda rid: (key(dataset[rid]) or "", rid)
    )
    rank = {rid: position for position, rid in enumerate(order)}
    return decided_pairwise(
        dataset, lambda a, b: abs(rank[a] - rank[b]) < window
    )


def reference_shared_keys(dataset, keys_of, max_block_size) -> set:
    """Pairs sharing a key that at most ``max_block_size`` records hold."""
    keys = {record.record_id: set(keys_of(record)) for record in dataset}
    sizes = Counter(key for held in keys.values() for key in held)

    def kept(key):
        return max_block_size is None or sizes[key] <= max_block_size

    return decided_pairwise(
        dataset, lambda a, b: any(kept(key) for key in keys[a] & keys[b])
    )


def token_keys_of(attributes=None, min_token_length=3):
    def keys_of(record):
        names = attributes if attributes is not None else record.values
        return {
            token
            for name in names
            for token in tokenize(record.value(name) or "")
            if len(token) >= min_token_length
        }

    return keys_of


@pytest.mark.parametrize("key_name", sorted(KEYS))
def test_standard_blocking(dataset, key_name):
    key = KEYS[key_name]
    assert blocking.standard_blocking(dataset, key) == reference_standard(
        dataset, key
    )


@pytest.mark.parametrize(
    "key_name, window", [("first_token", 3), ("soundex", 100)]
)
def test_sorted_neighborhood(dataset, key_name, window):
    key = KEYS[key_name]
    assert blocking.sorted_neighborhood(
        dataset, key, window=window
    ) == reference_sorted_neighborhood(dataset, key, window)


TOKEN_CONFIGS = {
    "capped": {"max_block_size": 15},
    "uncapped": {"max_block_size": None},
    "restricted": {
        "attributes": ["first_name", "last_name"],
        "min_token_length": 4,
        "max_block_size": 3,
    },
}


@pytest.mark.parametrize("config_name", sorted(TOKEN_CONFIGS))
def test_token_blocking(dataset, config_name):
    config = TOKEN_CONFIGS[config_name]
    keys_of = token_keys_of(
        config.get("attributes"), config.get("min_token_length", 3)
    )
    assert blocking.token_blocking(dataset, **config) == (
        reference_shared_keys(dataset, keys_of, config["max_block_size"])
    )


LSH_CONFIGS = {
    "shingles_capped": LshConfig(num_perm=32, bands=8, max_block_size=3),
    "words_uncapped": LshConfig(num_perm=16, bands=4, shingle_size=None),
}


@pytest.mark.parametrize("config_name", sorted(LSH_CONFIGS))
def test_lsh_blocking(dataset, config_name):
    config = LSH_CONFIGS[config_name]
    assert lsh_blocking(dataset, config) == reference_shared_keys(
        dataset, MinHasher(config).keys_for, config.max_block_size
    )


BLOCKERS = {
    "full": blocking.full_pairs,
    "standard": lambda d: blocking.standard_blocking(d, KEYS["first_token"]),
    "token": lambda d: blocking.token_blocking(d, max_block_size=30),
    "sorted_neighborhood": lambda d: blocking.sorted_neighborhood(
        d, KEYS["first_token"], window=4
    ),
    "lsh": lambda d: lsh_blocking(d, LSH_CONFIGS["shingles_capped"]),
}

REFERENCES = {
    "full": reference_full,
    "standard": lambda d: reference_standard(d, KEYS["first_token"]),
    "token": lambda d: reference_shared_keys(d, token_keys_of(), 30),
    "sorted_neighborhood": lambda d: reference_sorted_neighborhood(
        d, KEYS["first_token"], 4
    ),
    "lsh": lambda d: reference_shared_keys(
        d,
        MinHasher(LSH_CONFIGS["shingles_capped"]).keys_for,
        LSH_CONFIGS["shingles_capped"].max_block_size,
    ),
}


@pytest.fixture(scope="module")
def emitted(dataset):
    """Each blocker's candidates on ``dataset`` next to its reference."""
    return {
        scheme: (BLOCKERS[scheme](dataset), REFERENCES[scheme](dataset))
        for scheme in BLOCKERS
    }


@pytest.mark.parametrize("scheme", sorted(BLOCKERS))
def test_iteration_is_the_sorted_reference(emitted, scheme):
    candidates, reference = emitted[scheme]
    assert isinstance(candidates, RowPairSet)
    assert len(candidates) == len(reference)
    assert list(candidates) == sorted(reference)  # so no pair repeats
    # the lanes themselves are canonical and sorted, smaller id first
    row_ids = candidates.store.row_ids
    assert [
        (row_ids[a], row_ids[b])
        for a, b in zip(candidates.rows_a.tolist(), candidates.rows_b.tolist())
    ] == sorted(reference)


@pytest.mark.parametrize("scheme", sorted(BLOCKERS))
def test_membership_agrees_with_the_reference(dataset, emitted, scheme):
    candidates, reference = emitted[scheme]
    ids = dataset.record_ids
    for first, second in combinations(ids, 2):
        for pair in ((first, second), (second, first)):
            assert (pair in candidates) == (pair in reference), pair
    strangers = [("zz-absent", "zz-gone")] + [
        pair for record_id in ids[:3]
        for pair in (("zz-absent", record_id), (record_id, "zz-absent"))
    ]
    for pair in strangers + [(record_id, record_id) for record_id in ids]:
        assert pair not in candidates
    for other in ("r01", (), ("a", "b", "c"), (["unhashable"], "r01")):
        assert other not in candidates


@pytest.mark.parametrize("scheme", sorted(BLOCKERS))
def test_set_algebra_matches_the_reference(emitted, scheme):
    candidates, reference = emitted[scheme]
    assert candidates == reference and reference == candidates
    assert candidates <= reference and reference <= candidates
    assert candidates >= reference and not candidates < reference
    probe = set(sorted(reference)[::2]) | {("zz-absent", "zz-gone")}
    assert (candidates == probe) == (reference == probe)
    assert (candidates <= probe) == (reference <= probe)
    assert (probe <= candidates) == (probe <= reference)
    for combine in (operator.or_, operator.and_, operator.sub, operator.xor):
        for mine, theirs in ((candidates, probe), (probe, candidates)):
            result = combine(mine, theirs)
            assert type(result) is set
            expected = combine(
                reference if mine is candidates else mine,
                reference if theirs is candidates else theirs,
            )
            assert result == expected


@pytest.mark.parametrize("scheme", sorted(BLOCKERS))
def test_blocking_quality_counts_lanes_like_their_plain_set(
    dataset, emitted, scheme
):
    candidates, reference = emitted[scheme]
    ordered = sorted(reference)
    gold = ordered[::3] + [(b, a) for a, b in ordered[1::7]] + ordered[:2]
    gold += [("zz-absent", "zz-gone")] + [
        (record_id, "zz-absent") for record_id in dataset.record_ids[:2]
    ]
    gold += sorted(reference_full(dataset) - reference)[:5]
    total = dataset.total_pairs()
    assert evaluate_blocking(candidates, gold, total) == evaluate_blocking(
        set(candidates), gold, total
    )


@pytest.mark.parametrize(
    "scheme", ["lsh", "sorted_neighborhood", "standard", "token"]
)
def test_lanes_score_like_their_plain_set(scheme):
    """Lanes are scored on their rows, a plain set through its strings;
    the experiments must be the same to the digest."""
    def pipeline(generator):
        return MatchingPipeline(
            candidate_generator=generator,
            comparator=AttributeComparator({
                "first_name": "jaro_winkler",
                "last_name": "jaro_winkler",
                "city": "jaro_winkler",
            }),
            decision_model=mean_similarity,
            threshold=0.8,
        )

    lanes = pipeline(BLOCKERS[scheme]).run(people())
    plain = pipeline(lambda d: set(BLOCKERS[scheme](d))).run(people())
    assert isinstance(lanes.candidates, RowPairSet)
    assert type(plain.candidates) is set
    assert lanes.candidates == plain.candidates
    assert len(lanes.experiment) > 0
    assert (
        lanes.experiment.content_digest() == plain.experiment.content_digest()
    )


def test_token_blocking_reads_one_shot_attributes_once():
    """Regression: a generator of attribute names was used up by the
    first record, so later records had no tokens and never paired."""
    dataset = Dataset([
        Record(rid, {"first": "mary", "last": last})
        for rid, last in (("a", "ann"), ("b", "bob"), ("c", "cyd"))
    ])
    listed = blocking.token_blocking(dataset, attributes=["first"])
    assert listed == {("a", "b"), ("a", "c"), ("b", "c")}
    assert blocking.token_blocking(
        dataset, attributes=(name for name in ["first"])
    ) == listed


@pytest.mark.parametrize("scheme", sorted(BLOCKERS))
def test_candidates_do_not_depend_on_record_order(scheme):
    records = list(people())
    shuffled = records[:]
    random.Random(5).shuffle(shuffled)
    forward = BLOCKERS[scheme](Dataset(records))
    assert forward
    assert BLOCKERS[scheme](Dataset(shuffled)) == forward


PURGES = {
    "token_blocking": (
        token_keys_of(),
        TOKEN_CONFIGS["capped"]["max_block_size"],
        lambda d: blocking.token_blocking(d, **TOKEN_CONFIGS["capped"]),
    ),
    "lsh_blocking": (
        MinHasher(LSH_CONFIGS["shingles_capped"]).keys_for,
        LSH_CONFIGS["shingles_capped"].max_block_size,
        lambda d: lsh_blocking(d, LSH_CONFIGS["shingles_capped"]),
    ),
}


@pytest.mark.parametrize("scheme", sorted(PURGES))
def test_purge_counters_count_the_oversized_blocks(scheme, caplog):
    keys_of, cap, run = PURGES[scheme]
    corpus = people()
    sizes = Counter(key for record in corpus for key in set(keys_of(record)))
    oversized = [size for size in sizes.values() if size > cap]
    assert oversized, "the cap must purge at least one block"
    blocks = get_metrics().counter("frost_blocking_purged_blocks_total", "")
    records = get_metrics().counter("frost_blocking_purged_records_total", "")
    before = (blocks.value, records.value)
    with caplog.at_level(logging.WARNING, logger="repro.matching.blocking"):
        run(corpus)
    assert blocks.value == before[0] + len(oversized)
    assert records.value == before[1] + sum(oversized)
    assert scheme in caplog.text


_SEED_SCRIPT = """
from repro.datagen import make_person_benchmark
from repro.matching import blocking

dataset = make_person_benchmark(250, seed=77).dataset
surname = blocking.first_token_key("last_name")
runs = {
    "standard": blocking.standard_blocking(dataset, surname),
    "soundex": blocking.standard_blocking(
        dataset, blocking.soundex_key("last_name")
    ),
    "token": blocking.token_blocking(dataset, max_block_size=40),
    "sorted_neighborhood": blocking.sorted_neighborhood(
        dataset, surname, window=4
    ),
}
for scheme, pairs in runs.items():
    for first, second in sorted(pairs):
        print(scheme, first, second)
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


def test_candidates_identical_across_hash_seeds():
    """Key-based blockers iterate dicts and sets of strings; the
    candidate sets must not depend on ``PYTHONHASHSEED`` (LSH has its
    own check in ``test_lsh.py``)."""
    first = _run_with_hash_seed("1")
    assert first == _run_with_hash_seed("4242")
    schemes = {line.split()[0] for line in first.splitlines()}
    assert schemes == {"standard", "soundex", "token", "sorted_neighborhood"}
