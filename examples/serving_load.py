"""Serving layer walkthrough: cache, coalescing, and /stats.

Starts the concurrent HTTP front-end over a small generated benchmark,
fires concurrent clients at the expensive evaluation routes, and shows
what the serving layer (repro.serving) did about it: cold requests
compute once, warm requests are served from the read-through payload
cache, concurrent identical requests coalesce into a single
computation, and a registry write changes the cache key of the tables
it affects, so the next read computes the new table.

Run with::

    PYTHONPATH=src python examples/serving_load.py
"""

import http.client
import json
import threading

from repro.core import Experiment
from repro.core.platform import FrostPlatform
from repro.datagen import make_person_benchmark, scored_benchmark_experiment
from repro.server.api import FrostApi
from repro.server.http import FrostHttpServer

CLIENTS = 6


def fetch(port: int, path: str) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def main() -> None:
    benchmark = make_person_benchmark(300, seed=11)
    platform = FrostPlatform()
    platform.add_dataset(benchmark.dataset)
    platform.add_gold(benchmark.dataset.name, benchmark.gold)
    experiment = scored_benchmark_experiment(
        benchmark, target_matches=200, seed=3, name="run-a"
    )
    platform.add_experiment(benchmark.dataset.name, experiment)
    dataset, gold = benchmark.dataset.name, benchmark.gold.name

    api = FrostApi(platform)
    with FrostHttpServer(api, port=0) as server:
        print(f"serving on http://127.0.0.1:{server.port} (ephemeral port)")
        path = f"/datasets/{dataset}/metrics?gold={gold}"

        # -- 1. concurrent identical cold requests coalesce ------------------
        barrier = threading.Barrier(CLIENTS)
        results = []

        def client() -> None:
            barrier.wait(timeout=30)
            results.append(fetch(server.port, path))

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stats = fetch(server.port, "/stats")["serving"]
        print(
            f"{CLIENTS} concurrent identical requests -> "
            f"{stats['computations']} computation "
            f"({stats['coalescer']['followers']} coalesced, "
            f"{stats['cache']['hits']} cache hits)"
        )
        assert all(result == results[0] for result in results)

        # -- 2. warm traffic is served from the payload cache ----------------
        for _ in range(20):
            fetch(server.port, path)
        stats = fetch(server.port, "/stats")["serving"]
        print(
            f"after 20 warm reads: computations still {stats['computations']}, "
            f"cache hits {stats['cache']['hits']}"
        )

        # -- 3. a registry write changes the key; the next read computes -----
        # The table's key names its experiments, so registering one
        # more moves the key and no entry has to be dropped.
        computed = stats["computations"]
        platform.add_experiment(
            dataset, Experiment([("p1", "p2", 0.9)], name="run-b")
        )
        refreshed = fetch(server.port, path)
        stats = fetch(server.port, "/stats")["serving"]
        print(
            f"registered 'run-b' -> new key, computations "
            f"{computed} -> {stats['computations']}, metrics table now "
            f"covers {sorted(refreshed['metrics'])}"
        )
        assert stats["computations"] == computed + 1
        assert sorted(refreshed["metrics"]) == ["run-a", "run-b"]
    print("shut down cleanly; socket released")


if __name__ == "__main__":
    main()
