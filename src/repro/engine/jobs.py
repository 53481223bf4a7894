"""Declarative job specifications for the experiment execution engine.

A :class:`JobSpec` names *what* to compute — a metrics table, a
metric/metric diagram, a matching-pipeline run — without running
anything.  Specs are plain data:
they can be built from CLI flags, from JSON request bodies
(``POST /jobs``), or programmatically, and are executed by
:class:`repro.engine.runner.ExperimentEngine`.

The module also provides the *content fingerprints* that make results
content-addressed: a job's cache key is a SHA-256 digest over the kind,
the configuration, and digests of the dataset, gold standard, and
experiment **contents**, so platform restarts still hit the cache.  A
job whose payload prints a registry name puts that name in its token
too (see :mod:`repro.engine.runner`): equal contents under another
name are a different payload.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from weakref import WeakKeyDictionary

from repro.core.experiment import Experiment, GoldStandard
from repro.core.records import Dataset

__all__ = [
    "JobSpec",
    "JobState",
    "JobResult",
    "expand_sweep",
    "content_fingerprint",
    "dataset_fingerprint",
    "experiment_fingerprint",
    "gold_fingerprint",
]


class JobState(str, Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    SKIPPED = "skipped"  # a dependency failed or was cancelled
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class JobSpec:
    """One unit of work for the engine.

    Attributes
    ----------
    kind:
        Handler name: ``"metrics"``, ``"diagram"``, ``"pipeline"``, or
        a custom kind registered on the engine.
    params:
        Handler parameters.  Datasets, golds, and experiments are
        referenced by their platform names (strings); pipeline jobs may
        carry a :class:`~repro.matching.pipeline.MatchingPipeline`
        object directly.
    job_id:
        Unique id within one engine; auto-assigned at submit time when
        empty.
    depends_on:
        Ids of jobs that must succeed first.
    """

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)
    job_id: str = ""
    depends_on: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "depends_on", tuple(self.depends_on))

    def with_params(self, **overrides: object) -> "JobSpec":
        """A copy with ``overrides`` merged into :attr:`params`."""
        merged = {**self.params, **overrides}
        return JobSpec(
            kind=self.kind,
            params=merged,
            job_id=self.job_id,
            depends_on=self.depends_on,
        )


@dataclass
class JobResult:
    """Terminal (or in-flight) status of one job.

    ``seconds`` is the job's ``engine.job`` span: cache lookup,
    computation, encoding, and registration.
    """

    job_id: str
    spec: JobSpec
    state: JobState = JobState.PENDING
    value: object = None
    error: str | None = None
    cached: bool = False
    cache_key: str | None = None
    seconds: float = 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable summary (value omitted unless terminal)."""
        summary: dict[str, object] = {
            "id": self.job_id,
            "kind": self.spec.kind,
            "state": self.state.value,
            "cached": self.cached,
            "seconds": round(self.seconds, 6),
        }
        if self.error is not None:
            summary["error"] = self.error
        return summary


def expand_sweep(
    base: JobSpec, parameter: str, values: Iterable[object]
) -> list[JobSpec]:
    """Fan a base spec out over a parameter grid (batch sweep).

    Each value yields one job whose id is ``{base id}@{value}``; the
    sweep jobs are independent (no dependencies between them) so the
    scheduler runs them concurrently.

    >>> specs = expand_sweep(
    ...     JobSpec("metrics", {"dataset": "d", "gold": "g"}, job_id="m"),
    ...     "threshold", [0.5, 0.7],
    ... )
    >>> [spec.job_id for spec in specs]
    ['m@0.5', 'm@0.7']
    """
    specs = []
    for value in values:
        spec = base.with_params(**{parameter: value})
        specs.append(
            JobSpec(
                kind=spec.kind,
                params=spec.params,
                job_id=f"{base.job_id}@{value}" if base.job_id else "",
                depends_on=base.depends_on,
            )
        )
    return specs


# -- content fingerprints ----------------------------------------------------------

_dataset_memo: "WeakKeyDictionary[Dataset, str]" = WeakKeyDictionary()


def _digest(document: object) -> str:
    """SHA-256 over the canonical JSON encoding of ``document``."""
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def dataset_fingerprint(dataset: Dataset) -> str:
    """Digest of a dataset's schema and record contents (memoized)."""
    cached = _dataset_memo.get(dataset)
    if cached is None:
        cached = _digest(
            {
                "attributes": list(dataset.attributes),
                "records": [
                    [record.record_id, sorted(record.values.items())]
                    for record in dataset
                ],
            }
        )
        _dataset_memo[dataset] = cached
    return cached


def experiment_fingerprint(experiment: Experiment) -> str:
    """Digest of an experiment's match set, scores included.

    :meth:`Experiment.content_digest`: SHA-256 over ``json.dumps`` of
    the sorted ``[first, second, score, from_clustering]`` rows,
    computed once per experiment and cached on it.  A pipeline-built
    experiment computes it from the clustering stage's lanes; any other
    experiment takes one pass over its matches.
    """
    return experiment.content_digest()


def gold_fingerprint(gold: GoldStandard) -> str:
    """Digest of a gold standard's duplicate clusters (memoized).

    :class:`GoldStandard` is an ``eq``-dataclass and thus unhashable,
    so the digest is cached on the instance instead of in a
    ``WeakKeyDictionary`` — without it, every cache-key computation on
    the serving hot path would re-sort and re-hash the full clustering.
    The cache attribute is not a dataclass field, so equality and repr
    are unaffected.
    """
    cached = gold.__dict__.get("_content_fingerprint")
    if cached is None:
        cached = _digest(
            sorted(
                sorted(cluster)
                for cluster in gold.clustering.nontrivial_clusters()
            )
        )
        gold.__dict__["_content_fingerprint"] = cached
    return cached


def content_fingerprint(value: object) -> object:
    """Recursively replace domain objects by their content digests.

    Produces a JSON-serializable token tree for cache-key hashing.
    Callables are tokenized by qualified name — custom decision models
    or preparers should therefore be named functions, not lambdas that
    close over differing constants.
    """
    if isinstance(value, Dataset):
        return {"dataset": dataset_fingerprint(value)}
    if isinstance(value, Experiment):
        return {"experiment": experiment_fingerprint(value)}
    if isinstance(value, GoldStandard):
        return {"gold": gold_fingerprint(value)}
    if isinstance(value, Mapping):
        return {str(k): content_fingerprint(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [content_fingerprint(item) for item in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if callable(value):
        fingerprinter = getattr(value, "config_fingerprint", None)
        if fingerprinter is not None:
            return fingerprinter()
        qualname = getattr(value, "__qualname__", None)
        if qualname is not None:  # plain functions, classes, methods
            return {"callable": f"{getattr(value, '__module__', '?')}.{qualname}"}
        # callable *instances* (decision models etc.) fall through to
        # the class + attribute-state token below — repr() would embed
        # the memory address, which is neither stable across processes
        # nor unique within one.
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    cls = type(value)
    token = f"{cls.__module__}.{cls.__qualname__}"
    state = getattr(value, "__dict__", None)
    if not isinstance(state, dict):
        state = {
            slot: getattr(value, slot)
            for slot in getattr(cls, "__slots__", ())
            if hasattr(value, slot)
        }
    if state:
        return {
            "object": token,
            "state": {
                str(key): content_fingerprint(item)
                for key, item in sorted(state.items())
            },
        }
    if cls.__repr__ is not object.__repr__:  # address-free custom repr
        return {"object": token, "repr": repr(value)}
    return {"object": token}


def job_cache_key(kind: str, token: object) -> str:
    """The content-addressed cache key of one job computation."""
    return _digest({"kind": kind, "token": content_fingerprint(token)})


_id_counter = itertools.count(1)


def next_job_id(kind: str) -> str:
    """A fresh process-unique job id for specs submitted without one."""
    return f"{kind}-{next(_id_counter)}"
