"""Disk-executed plans: set identity with the in-memory blockers.

Each plan is spilled with ``spill_records`` and its candidates read
back chunk by chunk with ``stream_candidates``; the union of the chunks
must equal the in-memory blocker's candidate set.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.blocking_disk import (
    DiskBlockingStore,
    lsh_plan,
    sorted_neighborhood_plan,
    spill_records,
    standard_plan,
    stream_candidates,
    token_plan,
)
from repro.core import Dataset, Record
from repro.datagen import make_person_benchmark
from repro.matching import blocking
from repro.matching.lsh import LshConfig, lsh_blocking

SRC = Path(__file__).resolve().parents[2] / "src"


def streamed(plan, records) -> set:
    """The plan's candidates: one spill, then every streamed chunk."""
    with DiskBlockingStore() as store:
        run_id = store.begin_run(plan.scheme, dict(plan.config))
        spill_records(store, run_id, plan, records)
        return {
            pair
            for chunk in stream_candidates(store, run_id, plan)
            for pair in chunk
        }


@pytest.fixture(scope="module")
def people():
    return make_person_benchmark(400, seed=29).dataset


@pytest.fixture
def messy():
    """Hand-crafted edge cases: None values, blanks, shared tokens."""
    rows = [
        ("r01", "smith john", "berlin"),
        ("r02", "smith jon", "berlin"),
        ("r03", "smyth john", None),
        ("r04", "jones mary", "hamburg"),
        ("r05", None, "hamburg"),
        ("r06", "   ", "berlin"),
        ("r07", "smith john", "berlin"),
        ("r08", "lee", ""),
    ]
    return Dataset(
        [Record(rid, {"name": name, "city": city}) for rid, name, city in rows],
        name="messy",
    )


class TestIdentity:
    def test_standard_blocking(self, people, messy):
        for dataset in (people, messy):
            for key in (
                blocking.first_token_key("name" if dataset is messy else "last_name"),
                blocking.soundex_key("name" if dataset is messy else "last_name"),
            ):
                assert streamed(standard_plan(key), dataset) == (
                    blocking.standard_blocking(dataset, key)
                )

    def test_token_blocking(self, people, messy):
        for dataset, cap in ((people, 40), (people, None), (messy, 3)):
            assert streamed(token_plan(max_block_size=cap), dataset) == (
                blocking.token_blocking(dataset, max_block_size=cap)
            )

    def test_sorted_neighborhood(self, people, messy):
        for dataset, window in ((people, 2), (people, 7), (messy, 3), (messy, 100)):
            key = blocking.first_token_key(
                "name" if dataset is messy else "last_name"
            )
            assert streamed(sorted_neighborhood_plan(key, window), dataset) == (
                blocking.sorted_neighborhood(dataset, key, window=window)
            )

    def test_lsh_blocking(self, people):
        config = LshConfig(num_perm=32, bands=8, max_block_size=25)
        assert streamed(lsh_plan(config), people) == (
            lsh_blocking(people, config)
        )

    def test_empty_dataset(self):
        empty = Dataset([])
        key = blocking.first_token_key("name")
        assert streamed(standard_plan(key), empty) == set()
        assert streamed(token_plan(), empty) == set()
        assert streamed(sorted_neighborhood_plan(key, 3), empty) == set()
        assert streamed(lsh_plan(), empty) == set()

    def test_all_none_keys(self):
        dataset = Dataset([Record(f"r{i}", {"name": None}) for i in range(4)])
        key = blocking.first_token_key("name")
        assert streamed(standard_plan(key), dataset) == set()
        assert streamed(sorted_neighborhood_plan(key, 4), dataset) == (
            blocking.sorted_neighborhood(dataset, key, window=4)
        )


class TestPlans:
    def test_lsh_plan_spills_signatures(self, people):
        config = LshConfig(num_perm=16, bands=4)
        with DiskBlockingStore() as store:
            plan = lsh_plan(config)
            run_id = store.begin_run(plan.scheme, dict(plan.config))
            spill_records(store, run_id, plan, people)
            # signatures persisted: 8 bytes per permutation per record
            blob = store.signature(run_id, next(iter(people)).record_id)
            assert blob is not None and len(blob) == 16 * 8

    def test_window_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            sorted_neighborhood_plan(blocking.first_token_key("name"), window=1)

    def test_token_plan_config_round_trip(self):
        plan = token_plan(["name"], min_token_length=4, max_block_size=9)
        assert plan.config == {
            "attributes": ["name"],
            "min_token_length": 4,
            "max_block_size": 9,
        }


class TestHashSeedInvariance:
    """Disk and memory candidates agree under different hash seeds.

    MinHash band keys and Python set iteration both involve string
    hashing; the disk path must not leak any hash-order dependence into
    the candidate set.  Runs the same corpus under two PYTHONHASHSEED
    values in subprocesses and compares the sorted pair lists.
    """

    _SCRIPT = """
from repro.blocking_disk import (
    DiskBlockingStore, lsh_plan, spill_records, stream_candidates, token_plan,
)
from repro.datagen import make_person_benchmark
from repro.matching.blocking import token_blocking
from repro.matching.lsh import LshConfig, lsh_blocking

dataset = make_person_benchmark(250, seed=77).dataset


def streamed(plan):
    with DiskBlockingStore() as store:
        run_id = store.begin_run(plan.scheme, dict(plan.config))
        spill_records(store, run_id, plan, dataset)
        chunks = stream_candidates(store, run_id, plan)
        return sorted({pair for chunk in chunks for pair in chunk})


config = LshConfig(num_perm=16, bands=4, max_block_size=30)
disk = streamed(lsh_plan(config))
memory = sorted(lsh_blocking(dataset, config))
assert disk == memory, "lsh disk/memory diverged in-process"
disk_t = streamed(token_plan(max_block_size=40))
memory_t = sorted(token_blocking(dataset, max_block_size=40))
assert disk_t == memory_t, "token disk/memory diverged in-process"
for pair in disk + disk_t:
    print(pair[0], pair[1])
"""

    def _run(self, seed: str) -> str:
        result = subprocess.run(
            [sys.executable, "-c", self._SCRIPT],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC), "PATH": ""},
            check=False,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_candidates_identical_across_hash_seeds(self):
        assert self._run("1") == self._run("4242")
