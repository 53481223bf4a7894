"""End-to-end benchmark of the Frost reproduction.

Three workloads (``batch_match``, ``stream_ingest``, ``explore_serve``)
drive the system the way its users do; ``run.py`` is the single entry
point.  See ``perfbench/README.md`` for what each metric means.
"""
