import os
import random
from pathlib import Path

import powg
from powg import Graph

# CLI tests spawn `python -m powg`; let the child import the package under test
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(powg.__file__).parents[1]), os.environ.get("PYTHONPATH")]))


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(rng: random.Random, n: int, density: float = 0.4) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return Graph.from_edges(n, edges)
