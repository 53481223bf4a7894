"""Columnar record storage and vectorized comparison kernels.

The comparison hot path of the pipeline, re-laid out column-wise:
:class:`ColumnarStore` interns record values into per-attribute id
arrays, :func:`plan_for` maps a configured
:class:`~repro.matching.attribute_matching.AttributeComparator` onto
batch kernels, and :func:`compare_block` scores whole candidate-pair
blocks at once — byte-identical to the scalar measures, several times
faster — into a :class:`PairBatch` of score lanes that the decision and
clustering stages keep working on (:mod:`repro.columnar.batch`).  See
README § "Columnar comparison kernels".
"""

from repro.columnar.batch import PairBatch, ScoredBatch, accepted_pairs
from repro.columnar.compare import compare_block, count_fallback, count_store_build
from repro.columnar.kernels import Kernel, KernelPlan, kernel_for, plan_for
from repro.columnar.store import NULL_VID, ColumnarStore

__all__ = [
    "ColumnarStore",
    "NULL_VID",
    "Kernel",
    "KernelPlan",
    "kernel_for",
    "plan_for",
    "compare_block",
    "PairBatch",
    "ScoredBatch",
    "accepted_pairs",
    "count_fallback",
    "count_store_build",
]
