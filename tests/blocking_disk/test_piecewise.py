"""The piecewise API: several spills into one run, then streamed chunks.

This is the library's bounded-memory use — a corpus spilled slice by
slice and a candidate set read chunk by chunk — so the chunks must be
bounded and sorted, and their union must equal the in-memory blocker
over all the slices together.
"""

import logging

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
from repro.core import Dataset
from repro.datagen.domains import person_entity
from repro.datagen.generator import (
    CorruptionModel,
    DirtyDatasetGenerator,
    cluster_sizes_zipf,
)
from repro.matching import blocking
from repro.matching.lsh import LshConfig, lsh_blocking
from repro.storage.database import FrostStore
from repro.telemetry.metrics import get_metrics

SURNAME = blocking.first_token_key("last_name")
LSH = LshConfig(num_perm=16, bands=8, max_block_size=25)

PLANS = {
    "standard": (
        lambda: standard_plan(SURNAME),
        lambda dataset: blocking.standard_blocking(dataset, SURNAME),
    ),
    "token": (
        lambda: token_plan(max_block_size=30),
        lambda dataset: blocking.token_blocking(dataset, max_block_size=30),
    ),
    "sorted_neighborhood": (
        lambda: sorted_neighborhood_plan(SURNAME, window=4),
        lambda dataset: blocking.sorted_neighborhood(dataset, SURNAME, window=4),
    ),
    "lsh": (
        lambda: lsh_plan(LSH),
        lambda dataset: lsh_blocking(dataset, LSH),
    ),
}


def corpus_slice(index: int, count: int = 150) -> Dataset:
    generator = DirtyDatasetGenerator(
        entity_factory=person_entity,
        cluster_sizes=cluster_sizes_zipf(maximum=4),
        corruption=CorruptionModel(attribute_rate=0.35, null_rate=0.05),
        name=f"slice-{index}",
        id_prefix=f"s{index}-",
        seed=500 + index,
    )
    return generator.generate(count).dataset


@pytest.fixture(scope="module")
def slices():
    return [corpus_slice(index) for index in range(3)]


@pytest.mark.parametrize("scheme", sorted(PLANS))
def test_slices_spilled_apart_stream_the_whole_corpus(scheme, slices):
    make_plan, in_memory = PLANS[scheme]
    plan = make_plan()
    with DiskBlockingStore(chunk_size=64) as store:
        run_id = store.begin_run(plan.scheme, dict(plan.config))
        spilled = sum(
            spill_records(store, run_id, plan, iter(records))
            for records in slices
        )
        assert spilled == store.key_count(run_id)
        chunks = list(stream_candidates(store, run_id, plan, chunk_size=50))
    assert all(0 < len(chunk) <= 50 for chunk in chunks)
    assert all(chunk == sorted(chunk) for chunk in chunks)
    streamed = [pair for chunk in chunks for pair in chunk]
    assert len(streamed) == len(set(streamed))
    whole = Dataset([record for records in slices for record in records])
    assert set(streamed) == in_memory(whole)


@pytest.mark.parametrize("scheme", sorted(PLANS))
def test_a_run_in_a_platform_store_grows_across_reopenings(
    scheme, slices, tmp_path
):
    """Each slice is spilled by its own opening of the platform store
    file; a later opening streams the candidates of all of them."""
    make_plan, in_memory = PLANS[scheme]
    plan = make_plan()
    path = str(tmp_path / "platform.db")
    with FrostStore(path) as frost:
        run_id = frost.blocking_store().begin_run(
            plan.scheme, dict(plan.config)
        )
    for records in slices:
        with FrostStore(path) as frost:
            spill_records(frost.blocking_store(), run_id, plan, records)
    with FrostStore(path) as frost:
        blocking_store = frost.blocking_store()
        assert blocking_store.run_info(run_id)["scheme"] == plan.scheme
        assert blocking_store.key_count(run_id) > 0
        streamed = {
            pair
            for chunk in stream_candidates(
                blocking_store, run_id, plan, chunk_size=40
            )
            for pair in chunk
        }
    whole = Dataset([record for records in slices for record in records])
    assert streamed == in_memory(whole)


def test_every_lsh_signature_is_kept_across_batch_boundaries(slices):
    plan = lsh_plan(LSH)
    with DiskBlockingStore(chunk_size=7) as store:
        run_id = store.begin_run(plan.scheme, dict(plan.config))
        for records in slices:
            spill_records(store, run_id, plan, records)
        for records in slices:
            for record in records:
                blob = store.signature(run_id, record.record_id)
                assert blob is not None and len(blob) == LSH.num_perm * 8


def test_streaming_reports_the_purge_before_the_join(slices, caplog):
    plan = token_plan(max_block_size=3)
    purged = get_metrics().counter("frost_blocking_purged_blocks_total", "")
    before = purged.value
    with DiskBlockingStore() as store:
        run_id = store.begin_run(plan.scheme, dict(plan.config))
        spill_records(store, run_id, plan, slices[0])
        with caplog.at_level(logging.WARNING):
            chunks = stream_candidates(store, run_id, plan)
            assert purged.value > before
            assert "disk:token_blocking" in caplog.text
            streamed = {pair for chunk in chunks for pair in chunk}
    assert streamed == blocking.token_blocking(slices[0], max_block_size=3)
