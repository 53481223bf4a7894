"""Shared fixtures: small datasets, gold standards, and experiments."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import Dataset, Experiment, GoldStandard, Record


def _purge_stale_pycache() -> None:
    """Drop compiled test modules whose source file no longer exists.

    Stale ``__pycache__`` entries (left behind by renames or by runs
    without package ``__init__.py`` files) make pytest's import system
    report "import file mismatch" collection errors.
    """
    for pycache in Path(__file__).resolve().parent.rglob("__pycache__"):
        for compiled in pycache.glob("*.pyc"):
            source = pycache.parent / (compiled.name.split(".")[0] + ".py")
            if not source.exists():
                compiled.unlink(missing_ok=True)


_purge_stale_pycache()


@pytest.fixture
def abcd_dataset() -> Dataset:
    """The four-record dataset of the paper's Figure 10 example."""
    return Dataset(
        [Record(x, {"name": x}) for x in "abcd"], name="abcd"
    )


@pytest.fixture
def abcd_gold() -> GoldStandard:
    """Ground truth g0: {a, b}, g1: {c, d} (Figure 10)."""
    return GoldStandard.from_assignment(
        {"a": "g0", "b": "g0", "c": "g1", "d": "g1"}
    )


@pytest.fixture
def abcd_experiment() -> Experiment:
    """Detected matches {a,c}, {b,d}, {a,b} in descending score order."""
    return Experiment(
        [("a", "c", 0.9), ("b", "d", 0.8), ("a", "b", 0.7)], name="fig10"
    )


@pytest.fixture
def people_dataset() -> Dataset:
    """Six person records with two duplicate clusters and nulls."""
    rows = [
        ("p1", "john", "smith", "springfield", "12345"),
        ("p2", "jon", "smith", "springfield", "12345"),
        ("p3", "mary", "jones", "riverside", None),
        ("p4", "mary", "jones", "riverside", "99999"),
        ("p5", "alice", "brown", None, "55555"),
        ("p6", "robert", "taylor", "salem", "77777"),
    ]
    return Dataset(
        [
            Record(
                record_id,
                {
                    "first": first,
                    "last": last,
                    "city": city,
                    "zip": zip_code,
                },
            )
            for record_id, first, last, city, zip_code in rows
        ],
        name="people",
    )


@pytest.fixture
def people_gold() -> GoldStandard:
    """p1~p2 and p3~p4 are duplicates; p5, p6 are unique."""
    return GoldStandard.from_pairs([("p1", "p2"), ("p3", "p4")], name="people-gold")


@pytest.fixture
def people_experiment() -> Experiment:
    """A solution that found p1~p2, missed p3~p4, and invented p5~p6."""
    return Experiment(
        [("p1", "p2", 0.95), ("p5", "p6", 0.72)],
        name="people-run",
        solution="test-solution",
    )


@pytest.fixture
def twin_platform(people_dataset):
    """Equal contents under two names each: datasets ``one``/``two``,
    golds ``gold-a``/``gold-b`` and experiments ``run-a``/``run-b``.

    Only a name tells the twins apart, so a cache key that leaves a
    name out serves one twin's payload for the other.
    """
    from repro.core.platform import FrostPlatform

    platform = FrostPlatform()
    for dataset_name in ("one", "two"):
        platform.add_dataset(Dataset(list(people_dataset), name=dataset_name))
        for gold_name in ("gold-a", "gold-b"):
            platform.add_gold(
                dataset_name,
                GoldStandard.from_pairs(
                    [("p1", "p2"), ("p3", "p4")], name=gold_name
                ),
            )
        for run_name in ("run-a", "run-b"):
            platform.add_experiment(
                dataset_name,
                Experiment([("p1", "p2", 0.95), ("p5", "p6", 0.72)], name=run_name),
            )
    return platform
