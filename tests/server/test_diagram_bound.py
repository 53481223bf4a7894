"""The diagram size a client can request is bounded.

``GET /datasets/{d}/diagram?n=`` and a ``/jobs`` diagram job both reach
:meth:`FrostPlatform.diagram`, which builds one point per sample; a
count above :data:`MAX_DIAGRAM_SAMPLES` is a bad request on the GET
route and a failed job on ``/jobs``.
"""

import pytest

from repro.core.platform import MAX_DIAGRAM_SAMPLES, FrostPlatform
from repro.server.api import ApiError, FrostApi

QUERY = {"exp": "people-run", "gold": "people-gold"}


@pytest.fixture
def api(people_dataset, people_gold, people_experiment):
    platform = FrostPlatform()
    platform.add_dataset(people_dataset)
    platform.add_gold(people_dataset.name, people_gold)
    platform.add_experiment(people_dataset.name, people_experiment)
    return FrostApi(platform)


def diagram_job(api, samples):
    submitted = api.handle(
        "/jobs",
        {"wait": "1"},
        method="POST",
        body={
            "kind": "diagram",
            "params": {
                "dataset": "people",
                "gold": "people-gold",
                "experiment": "people-run",
                "samples": samples,
            },
        },
    )
    return submitted["jobs"][0]


def test_route_serves_the_largest_allowed_diagram(api):
    payload = api.handle(
        "/datasets/people/diagram", {**QUERY, "n": str(MAX_DIAGRAM_SAMPLES)}
    )
    assert len(payload["points"]) == MAX_DIAGRAM_SAMPLES


def test_route_rejects_one_sample_more(api):
    with pytest.raises(ApiError) as excinfo:
        api.handle(
            "/datasets/people/diagram",
            {**QUERY, "n": str(MAX_DIAGRAM_SAMPLES + 1)},
        )
    assert excinfo.value.status == 400
    assert str(MAX_DIAGRAM_SAMPLES) in excinfo.value.message


def test_job_computes_the_largest_allowed_diagram(api):
    job = diagram_job(api, MAX_DIAGRAM_SAMPLES)
    assert job["state"] == "succeeded"
    detail = api.handle(f"/jobs/{job['id']}")
    assert len(detail["result"]["points"]) == MAX_DIAGRAM_SAMPLES


def test_job_with_one_sample_more_fails(api):
    job = diagram_job(api, MAX_DIAGRAM_SAMPLES + 1)
    assert job["state"] == "failed"
    assert str(MAX_DIAGRAM_SAMPLES) in job["error"]
