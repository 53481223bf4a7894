"""The layout's score memo is the one memo of value-pair scores.

A block on a layout that already scored its value pairs calls no
measure; the same values on a fresh layout are scored afresh, because
no process-wide memo of value pairs stands behind the layout's.  The
calls are counted on the function each built-in measure calls per
value pair.
"""

import pytest

from repro.columnar import ColumnarStore, compare_block, plan_for
from repro.columnar import kernels as kernels_module
from repro.core.records import Record
from repro.matching import similarity as similarity_module
from repro.matching.attribute_matching import AttributeComparator
from repro.matching.similarity import jaro_winkler, levenshtein, monge_elkan

# Values no other test scores, so the first layout starts cold too.
NAMES = [
    "one memo annabel quist",
    "one memo anabel quist",
    "one memo annabelle quiste",
    "one memo bertram oxley",
    "one memo bertrand oxly",
]

CASES = {
    "jaro_winkler": (jaro_winkler, similarity_module, "jaro"),
    "levenshtein": (levenshtein, similarity_module, "levenshtein_distance"),
    "monge_elkan": (monge_elkan, kernels_module, "monge_elkan"),
}


def layout():
    records = {
        f"r{index}": Record(f"r{index}", {"name": name})
        for index, name in enumerate(NAMES)
    }
    return ColumnarStore.from_records(records, ["name"])


@pytest.mark.parametrize("case", sorted(CASES))
def test_only_the_layout_remembers_scores(monkeypatch, case):
    measure, module, callee = CASES[case]
    calls = []
    original = getattr(module, callee)

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, callee, counted)
    plan = plan_for(AttributeComparator({"name": measure}))
    pairs = [
        (f"r{first}", f"r{second}")
        for first in range(len(NAMES))
        for second in range(first + 1, len(NAMES))
    ]

    store = layout()
    batch = compare_block(store, pairs, plan)
    first_calls = len(calls)
    assert first_calls > 0

    calls.clear()
    assert compare_block(store, pairs, plan) == batch
    assert calls == []

    assert compare_block(layout(), pairs, plan) == batch
    assert len(calls) == first_calls
