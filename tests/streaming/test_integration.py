"""Cross-layer integration: engine jobs, API routes, CLI commands."""

import contextlib
import http.client
import json
import sqlite3

import pytest

from repro.core.platform import FrostPlatform
from repro.engine import ExperimentEngine, JobSpec
from repro.server.api import (
    RETRY_AFTER_SECONDS,
    ApiError,
    FrostApi,
    _store_unavailable,
)
from repro.server.http import FrostHttpServer
from repro.storage.database import FrostStore
from repro.streaming import build_session

CONFIG = {
    "key": {"kind": "first_token", "attribute": "last"},
    "similarities": {"first": "jaro_winkler", "last": "jaro_winkler"},
    "threshold": 0.8,
}

ROWS_ONE = [
    {"id": "p1", "first": "john", "last": "smith"},
    {"id": "p2", "first": "jon", "last": "smith"},
    {"id": "p3", "first": "mary", "last": "jones"},
]
ROWS_TWO = [
    {"id": "p4", "first": "maria", "last": "jones"},
    {"id": "p5", "first": "johnny", "last": "smith"},
]


class TestStreamIngestJob:
    def test_ingest_runs_as_engine_job(self):
        engine = ExperimentEngine(FrostPlatform())
        session = build_session(CONFIG, name="crm")
        results = engine.run(
            [
                JobSpec(
                    "stream_ingest",
                    {"session": session, "records": ROWS_ONE},
                    job_id="b1",
                    cacheable=False,
                )
            ]
        )
        assert results["b1"].state.value == "succeeded"
        assert results["b1"].value["version"] == 1
        assert results["b1"].value["stream"] == "crm"
        assert session.record_count == 3

    def test_chained_batches_respect_dependencies(self):
        engine = ExperimentEngine(FrostPlatform())
        session = build_session(CONFIG, name="crm")
        results = engine.run(
            [
                JobSpec(
                    "stream_ingest",
                    {"session": session, "records": ROWS_ONE},
                    job_id="b1",
                    cacheable=False,
                ),
                JobSpec(
                    "stream_ingest",
                    {"session": session, "records": ROWS_TWO},
                    job_id="b2",
                    depends_on=("b1",),
                    cacheable=False,
                ),
            ]
        )
        assert results["b2"].value["version"] == 2
        assert results["b2"].value["record_count"] == 5

    def test_ingest_jobs_are_never_cached(self):
        """Identical batches into different streams must both execute."""
        engine = ExperimentEngine(FrostPlatform())
        first = build_session(CONFIG, name="one")
        second = build_session(CONFIG, name="two")
        results = engine.run(
            [
                JobSpec("stream_ingest",
                        {"session": first, "records": ROWS_ONE}, job_id="j1"),
                JobSpec("stream_ingest",
                        {"session": second, "records": ROWS_ONE}, job_id="j2",
                        depends_on=("j1",)),
            ]
        )
        assert not results["j1"].cached and not results["j2"].cached
        assert first.record_count == second.record_count == 3

    def test_failed_ingest_fails_job_only(self):
        engine = ExperimentEngine(FrostPlatform())
        session = build_session(CONFIG, name="crm")
        session.ingest(ROWS_ONE)
        results = engine.run(
            [
                JobSpec(
                    "stream_ingest",
                    {"session": session, "records": ROWS_ONE},
                    job_id="dup",
                    cacheable=False,
                )
            ]
        )
        assert results["dup"].state.value == "failed"
        assert "already ingested" in results["dup"].error
        assert session.version == 1


@pytest.fixture
def api():
    return FrostApi(FrostPlatform())


class TestStreamApiRoutes:
    def test_create_ingest_status_roundtrip(self, api):
        created = api.handle(
            "/streams", method="POST",
            body={"name": "crm", "config": CONFIG},
        )
        assert created["name"] == "crm"
        assert created["version"] == 0
        first = api.handle(
            "/streams/crm/batches", method="POST", body={"records": ROWS_ONE}
        )
        assert first["snapshot"]["version"] == 1
        second = api.handle(
            "/streams/crm/batches", method="POST", body={"records": ROWS_TWO}
        )
        assert second["snapshot"]["version"] == 2
        assert second["snapshot"]["record_count"] == 5
        status = api.handle("/streams/crm")
        assert status["version"] == 2
        assert len(status["snapshots"]) == 2
        listing = api.handle("/streams")
        assert listing == {"streams": ["crm"]}

    def test_unknown_stream_is_404(self, api):
        with pytest.raises(ApiError) as missing:
            api.handle("/streams/nope")
        assert missing.value.status == 404

    def test_bad_config_is_400(self, api):
        with pytest.raises(ApiError) as bad:
            api.handle(
                "/streams", method="POST",
                body={"name": "x", "config": {"key": {"kind": "nope"}}},
            )
        assert bad.value.status == 400

    def test_duplicate_name_is_400(self, api):
        api.handle(
            "/streams", method="POST", body={"name": "crm", "config": CONFIG}
        )
        with pytest.raises(ApiError) as dup:
            api.handle(
                "/streams", method="POST",
                body={"name": "crm", "config": CONFIG},
            )
        assert dup.value.status == 400

    def test_malformed_records_are_400(self, api):
        api.handle(
            "/streams", method="POST", body={"name": "crm", "config": CONFIG}
        )
        with pytest.raises(ApiError) as no_id:
            api.handle(
                "/streams/crm/batches", method="POST",
                body={"records": [{"first": "alice"}]},
            )
        assert no_id.value.status == 400
        with pytest.raises(ApiError) as dup_in_batch:
            api.handle(
                "/streams/crm/batches", method="POST",
                body={"records": [ROWS_ONE[0], ROWS_ONE[0]]},
            )
        assert dup_in_batch.value.status == 400
        assert api.handle("/streams/crm")["records"] == 0

    def test_duplicate_record_is_400(self, api):
        api.handle(
            "/streams", method="POST", body={"name": "crm", "config": CONFIG}
        )
        api.handle(
            "/streams/crm/batches", method="POST", body={"records": ROWS_ONE}
        )
        with pytest.raises(ApiError) as dup:
            api.handle(
                "/streams/crm/batches", method="POST",
                body={"records": ROWS_ONE},
            )
        assert dup.value.status == 400

    def test_durable_streams_resume_across_api_instances(self, tmp_path):
        path = tmp_path / "streams.db"
        with FrostStore(path) as store:
            first_api = FrostApi(FrostPlatform(), store=store)
            first_api.handle(
                "/streams", method="POST",
                body={"name": "crm", "config": CONFIG},
            )
            first_api.handle(
                "/streams/crm/batches", method="POST",
                body={"records": ROWS_ONE},
            )
        with FrostStore(path) as store:
            second_api = FrostApi(FrostPlatform(), store=store)
            status = second_api.handle("/streams/crm")
            assert status["version"] == 1
            assert status["records"] == 3
            second_api.handle(
                "/streams/crm/batches", method="POST",
                body={"records": ROWS_TWO},
            )
            assert second_api.handle("/streams/crm")["records"] == 5


class TestStoreUnavailable:
    """Closed and write-locked stores answer 503 with ``Retry-After``.

    The request was well-formed, so neither a 400 (client error) nor a
    404 (no such stream) fits, and a 500 would hide that a retry may
    succeed.  An exclusive lock is held for the resume ``GET`` because
    a mere ``BEGIN IMMEDIATE`` still lets readers through.
    """

    @pytest.fixture
    def path(self, tmp_path, monkeypatch):
        # every connection the store opens (the engine worker's too)
        # gives up on a held lock after 50 ms instead of 10 s
        monkeypatch.setattr(FrostStore, "_BUSY_TIMEOUT_MS", 50)
        path = tmp_path / "streams.db"
        with FrostStore(path) as store:
            FrostApi(FrostPlatform(), store=store).handle(
                "/streams", method="POST",
                body={"name": "crm", "config": CONFIG},
            )
        return path

    @staticmethod
    def assert_unavailable(error):
        assert error.status == 503
        assert error.retry_after == RETRY_AFTER_SECONDS

    @staticmethod
    def ingest(api, rows):
        return api.handle(
            "/streams/crm/batches", method="POST", body={"records": rows}
        )

    @staticmethod
    @contextlib.contextmanager
    def held_lock(path, mode):
        holder = sqlite3.connect(path)
        holder.execute(f"BEGIN {mode}")
        try:
            yield
        finally:
            holder.rollback()
            holder.close()

    def test_ingest_into_a_closed_store(self, path):
        store = FrostStore(path)
        api = FrostApi(FrostPlatform(), store=store)
        self.ingest(api, ROWS_ONE)
        store.close()
        with pytest.raises(ApiError) as closed:
            self.ingest(api, ROWS_TWO)
        self.assert_unavailable(closed.value)
        assert "is closed" in closed.value.message

    def test_resume_from_a_closed_store(self, path):
        store = FrostStore(path)
        api = FrostApi(FrostPlatform(), store=store)
        store.close()
        with pytest.raises(ApiError) as closed:
            api.handle("/streams/crm")
        self.assert_unavailable(closed.value)

    def test_ingest_while_another_connection_holds_the_write_lock(self, path):
        with FrostStore(path) as store:
            api = FrostApi(FrostPlatform(), store=store)
            self.ingest(api, ROWS_ONE)
            with self.held_lock(path, "IMMEDIATE"):
                with pytest.raises(ApiError) as locked:
                    self.ingest(api, ROWS_TWO)
            self.assert_unavailable(locked.value)
            assert "locked" in locked.value.message
            # the rolled-back batch goes in once the lock is released
            assert self.ingest(api, ROWS_TWO)["snapshot"]["version"] == 2

    def test_resume_while_another_connection_holds_the_write_lock(self, path):
        with FrostStore(path) as store:
            api = FrostApi(FrostPlatform(), store=store)
            with self.held_lock(path, "EXCLUSIVE"):
                with pytest.raises(ApiError) as locked:
                    api.handle("/streams/crm")
            self.assert_unavailable(locked.value)
            assert api.handle("/streams/crm")["version"] == 0

    def test_duplicate_ids_and_unknown_names_keep_their_codes(self, path):
        with FrostStore(path) as store:
            api = FrostApi(FrostPlatform(), store=store)
            self.ingest(api, ROWS_ONE)
            with pytest.raises(ApiError) as duplicate:
                self.ingest(api, ROWS_ONE)
            assert duplicate.value.status == 400
            assert duplicate.value.retry_after is None
            with pytest.raises(ApiError) as unknown:
                api.handle("/streams/ghost")
            assert unknown.value.status == 404

    @pytest.mark.parametrize(
        ("error", "status"),
        [
            ("OperationalError: database or disk is full", 503),
            ("OperationalError: database is locked", 503),
            ("StorageError: store 'x.db' is closed", 503),
            ("StorageError: stream 'crm': batch 3 collides", None),
            ("OperationalError: no such table: stream_records", None),
        ],
        ids=["full", "locked", "closed", "collision", "schema"],
    )
    def test_which_errors_mean_unavailable(self, error, status):
        unavailable = _store_unavailable(error)
        assert (unavailable and unavailable.status) == status

    def test_http_sends_retry_after(self, path):
        store = FrostStore(path)
        api = FrostApi(FrostPlatform(), store=store)
        store.close()
        with FrostHttpServer(api, port=0) as server:
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            try:
                connection.request("GET", "/streams/crm")
                response = connection.getresponse()
                body = json.loads(response.read())
            finally:
                connection.close()
        assert response.status == 503
        assert response.getheader("Retry-After") == str(RETRY_AFTER_SECONDS)
        assert body["status"] == 503

    def test_ingest_into_a_full_store(self, path, monkeypatch):
        """Every connection of the store, the engine worker's included,
        is capped at the file's current size, so the batch cannot grow
        it; once the cap goes, the same batch goes in."""
        batch = [
            {"id": f"q{index:03d}", "first": f"first {index}",
             "last": ["smith", "jones", "miller"][index % 3]}
            for index in range(300)
        ]
        connect = FrostStore._connect

        def cap_every_connection(store, pages):
            pragma = f"PRAGMA max_page_count = {pages}"

            def capped(self):
                connection = connect(self)
                connection.execute(pragma)
                return connection

            monkeypatch.setattr(FrostStore, "_connect", capped)
            with store._pool_lock:
                for _, connection in store._pool:
                    connection.execute(pragma)

        with FrostStore(path) as store:
            api = FrostApi(FrostPlatform(), store=store)
            self.ingest(api, ROWS_ONE)
            pages = store._connection.execute(
                "PRAGMA page_count"
            ).fetchone()[0]
            cap_every_connection(store, pages)
            with pytest.raises(ApiError) as full:
                self.ingest(api, batch)
            self.assert_unavailable(full.value)
            assert "full" in full.value.message
            cap_every_connection(store, 1073741823)
            assert self.ingest(api, batch)["snapshot"]["version"] == 2

    def test_listing_streams_of_a_closed_store(self, path):
        store = FrostStore(path)
        api = FrostApi(FrostPlatform(), store=store)
        assert api.handle("/streams") == {"streams": ["crm"]}
        store.close()
        with pytest.raises(ApiError) as closed:
            api.handle("/streams")
        self.assert_unavailable(closed.value)

    def test_creating_a_stream_in_a_closed_store(self, path):
        store = FrostStore(path)
        api = FrostApi(FrostPlatform(), store=store)
        store.close()
        with pytest.raises(ApiError) as closed:
            api.handle(
                "/streams", method="POST",
                body={"name": "billing", "config": CONFIG},
            )
        self.assert_unavailable(closed.value)

    def test_http_ingest_under_a_held_lock_sends_retry_after(self, path):
        with FrostStore(path) as store:
            api = FrostApi(FrostPlatform(), store=store)
            self.ingest(api, ROWS_ONE)
            with FrostHttpServer(api, port=0) as server:
                connection = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=30
                )
                try:
                    with self.held_lock(path, "IMMEDIATE"):
                        connection.request(
                            "POST", "/streams/crm/batches",
                            body=json.dumps({"records": ROWS_TWO}),
                            headers={"Content-Type": "application/json"},
                        )
                        response = connection.getresponse()
                        body = json.loads(response.read())
                finally:
                    connection.close()
        assert response.status == 503
        assert response.getheader("Retry-After") == str(RETRY_AFTER_SECONDS)
        assert "locked" in body["error"]


class TestStreamCli:
    def _write_csv(self, path, rows):
        lines = ["id,first,last"]
        lines += [f"{r['id']},{r['first']},{r['last']}" for r in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_full_cli_lifecycle(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "s.db")
        day1 = tmp_path / "day1.csv"
        day2 = tmp_path / "day2.csv"
        self._write_csv(day1, ROWS_ONE)
        self._write_csv(day2, ROWS_TWO)

        assert main([
            "stream", "init", "--store", store, "--name", "crm",
            "--key-attribute", "last",
            "--similarity", "first=jaro_winkler",
            "--similarity", "last=jaro_winkler",
            "--threshold", "0.8",
        ]) == 0
        assert main([
            "stream", "ingest", "--store", store, "--name", "crm",
            "--dataset", str(day1),
        ]) == 0
        assert main([
            "stream", "ingest", "--store", store, "--name", "crm",
            "--dataset", str(day2),
        ]) == 0
        assert main([
            "stream", "snapshot", "--store", store, "--name", "crm",
        ]) == 0
        assert main(["stream", "status", "--store", store]) == 0
        output = capsys.readouterr().out
        assert "v1" in output and "v2" in output
        assert "p1 p2 p5" in output
        assert "p3 p4" in output

    def test_snapshot_refuses_a_negative_limit(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "s.db")
        day1 = tmp_path / "day1.csv"
        self._write_csv(day1, ROWS_ONE + ROWS_TWO)
        assert main([
            "stream", "init", "--store", store, "--name", "crm",
            "--key-attribute", "last",
            "--similarity", "first=jaro_winkler",
            "--similarity", "last=jaro_winkler",
            "--threshold", "0.8",
        ]) == 0
        assert main([
            "stream", "ingest", "--store", store, "--name", "crm",
            "--dataset", str(day1),
        ]) == 0
        capsys.readouterr()
        snapshot = ["stream", "snapshot", "--store", store, "--name", "crm"]
        assert main([*snapshot, "--limit", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-negative" in captured.err
        assert main([*snapshot, "--limit", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "  p1 p2 p5", "  ... 1 more"
        ]

    def test_init_requires_key_attribute(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "stream", "init", "--store", str(tmp_path / "s.db"),
            "--name", "crm", "--similarity", "a=exact",
        ])
        assert code == 1
        assert "key-attribute" in capsys.readouterr().err

    def test_ingest_unknown_stream_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        day = tmp_path / "day.csv"
        self._write_csv(day, ROWS_ONE)
        store = str(tmp_path / "s.db")
        code = main([
            "stream", "ingest", "--store", store, "--name", "nope",
            "--dataset", str(day),
        ])
        assert code == 1
        assert "no stream named" in capsys.readouterr().err

    def test_bad_similarity_flag_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "stream", "init", "--store", str(tmp_path / "s.db"),
            "--name", "crm", "--key-attribute", "last",
            "--similarity", "broken",
        ])
        assert code == 1
        assert "ATTR=MEASURE" in capsys.readouterr().err


LSH_CONFIG = {
    "key": {"kind": "lsh", "num_perm": 64, "bands": 16, "seed": 2},
    "similarities": {"first": "jaro_winkler", "last": "jaro_winkler"},
    "threshold": 0.8,
}


class TestLshStreamApi:
    def test_create_ingest_status_roundtrip(self, api):
        created = api.handle(
            "/streams", method="POST",
            body={"name": "lsh-crm", "config": LSH_CONFIG},
        )
        assert created["blocking"]["kind"] == "lsh"
        assert created["blocking"]["rows"] == 4  # normalized (64 / 16)
        first = api.handle(
            "/streams/lsh-crm/batches", method="POST",
            body={"records": ROWS_ONE},
        )
        assert first["snapshot"]["version"] == 1
        status = api.handle("/streams/lsh-crm")
        assert status["blocking"]["num_perm"] == 64
        assert status["records"] == 3

    @pytest.mark.parametrize(
        "key",
        [
            {"kind": "lsh", "num_perm": 100, "bands": 33},  # not divisible
            {"kind": "lsh", "num_perm": "128"},
            {"kind": "lsh", "bands": 0},
            {"kind": "lsh", "rows": 5},
            {"kind": "lsh", "typo": 1},
            {"kind": "sorted_neighborhood", "attribute": "last"},
        ],
    )
    def test_malformed_lsh_config_is_400(self, api, key):
        with pytest.raises(ApiError) as bad:
            api.handle(
                "/streams", method="POST",
                body={"name": "x", "config": {**LSH_CONFIG, "key": key}},
            )
        assert bad.value.status == 400

    def test_durable_lsh_stream_resumes(self, tmp_path):
        store_path = tmp_path / "lsh.db"
        with FrostStore(str(store_path)) as store:
            first_api = FrostApi(FrostPlatform(), store=store)
            first_api.handle(
                "/streams", method="POST",
                body={"name": "durable", "config": LSH_CONFIG},
            )
            first_api.handle(
                "/streams/durable/batches", method="POST",
                body={"records": ROWS_ONE},
            )
        with FrostStore(str(store_path)) as store:
            resumed_api = FrostApi(FrostPlatform(), store=store)
            status = resumed_api.handle("/streams/durable")
            assert status["version"] == 1
            assert status["blocking"]["kind"] == "lsh"
            second = resumed_api.handle(
                "/streams/durable/batches", method="POST",
                body={"records": ROWS_TWO},
            )
            assert second["snapshot"]["version"] == 2
            assert second["snapshot"]["record_count"] == 5


class TestLshStreamCli:
    def _write_csv(self, path, rows):
        lines = ["id,first,last"]
        lines += [f"{r['id']},{r['first']},{r['last']}" for r in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_lsh_lifecycle(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "s.db")
        day1 = tmp_path / "day1.csv"
        day2 = tmp_path / "day2.csv"
        self._write_csv(day1, ROWS_ONE)
        self._write_csv(day2, ROWS_TWO)

        assert main([
            "stream", "init", "--store", store, "--name", "crm",
            "--blocker", "lsh", "--num-perm", "64", "--bands", "16",
            "--lsh-seed", "2",
            "--similarity", "first=jaro_winkler",
            "--similarity", "last=jaro_winkler",
            "--threshold", "0.8",
        ]) == 0
        assert "key=lsh" in capsys.readouterr().out
        assert main([
            "stream", "ingest", "--store", store, "--name", "crm",
            "--dataset", str(day1),
        ]) == 0
        assert main([
            "stream", "ingest", "--store", store, "--name", "crm",
            "--dataset", str(day2),
        ]) == 0
        out = capsys.readouterr().out
        assert "v2" in out and "5 total" in out
        assert main(["stream", "status", "--store", store, "--name", "crm"]) == 0
        assert "v2" in capsys.readouterr().out

    def test_lsh_flags_reject_bad_banding(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "stream", "init", "--store", str(tmp_path / "s.db"),
            "--name", "crm", "--blocker", "lsh",
            "--num-perm", "100", "--bands", "33",
            "--similarity", "last=jaro_winkler",
        ])
        assert code == 1
        assert "divide" in capsys.readouterr().err

    def test_cross_family_flags_fail_loudly(self, tmp_path, capsys):
        """A blocking flag of the unselected family must error, not be
        silently dropped into a very different candidate set."""
        from repro.cli import main

        store = str(tmp_path / "s.db")
        assert main([
            "stream", "init", "--store", store, "--name", "a",
            "--blocker", "lsh", "--key-attribute", "last",
            "--similarity", "last=exact",
        ]) == 1
        assert "--token-attributes" in capsys.readouterr().err
        assert main([
            "stream", "init", "--store", store, "--name", "b",
            "--bands", "16", "--key-attribute", "last",
            "--similarity", "last=exact",
        ]) == 1
        assert "--blocker lsh" in capsys.readouterr().err
