"""Component redundancy on networks of several component shapes.

The per-component terms are summed in sorted-component order, so the
float result is the same under every ``PYTHONHASHSEED``.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.metrics.noground import component_redundancy

SRC = Path(__file__).resolve().parents[2] / "src"

SHAPES = {
    # component: (edges, redundancy)
    "pair": ([("a", "b")], 1.0),
    "path": ([("c", "d"), ("d", "e")], 0.0),
    "triangle": ([("f", "g"), ("g", "h"), ("f", "h")], 1.0),
    "four-cycle": ([("i", "j"), ("j", "k"), ("k", "l"), ("l", "i")], 1 / 3),
    "k4-minus-edge": (
        [("m", "n"), ("m", "o"), ("m", "p"), ("n", "o"), ("n", "p")],
        2 / 3,
    ),
    "star": ([("q", "r"), ("q", "s"), ("q", "t"), ("q", "u")], 0.0),
}


def test_mean_over_components_of_different_shapes():
    pairs = [edge for edges, _ in SHAPES.values() for edge in edges]
    expected = sum(value for _, value in SHAPES.values()) / len(SHAPES)
    assert component_redundancy(pairs) == pytest.approx(expected)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_each_shape_alone(shape):
    edges, value = SHAPES[shape]
    assert component_redundancy(edges) == pytest.approx(value)


def test_orientation_duplicates_and_order_do_not_matter():
    pairs = [edge for edges, _ in SHAPES.values() for edge in edges]
    shuffled = [(second, first) for first, second in pairs] + pairs[:5]
    random.Random(3).shuffle(shuffled)
    assert component_redundancy(shuffled) == component_redundancy(pairs)


_SEED_SCRIPT = """
import random
from repro.metrics.noground import component_redundancy

rng = random.Random(11)
pairs = []
for component in range(3000):
    nodes = [f"c{component}n{index}" for index in range(rng.randint(2, 7))]
    for index in range(1, len(nodes)):
        pairs.append((nodes[rng.randrange(index)], nodes[index]))
    for _ in range(rng.randint(0, 4)):
        first, second = rng.sample(nodes, 2)
        pairs.append((first, second))
print(repr(component_redundancy(pairs)))
"""


def _redundancy_under_hash_seed(seed: str) -> str:
    environment = dict(os.environ)
    environment["PYTHONHASHSEED"] = seed
    environment["PYTHONPATH"] = str(SRC)
    completed = subprocess.run(
        [sys.executable, "-c", _SEED_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=environment,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_value_does_not_depend_on_the_hash_seed():
    assert _redundancy_under_hash_seed("0") == _redundancy_under_hash_seed("1")
