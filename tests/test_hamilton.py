"""Hamilton path/cycle search: exact bitmask DP and rotation-extension.

The exact solver is the oracle for the heuristic: on every graph where
the DP proves existence, the rotation-extension search must deliver (it
falls back to the exact solver up to EXACT_LIMIT vertices, so only dense graphs
exercise the heuristic branch).  Known graphs with known answers pin the
exact solver itself.
"""

import itertools

import numpy as np
import pytest

from rainbow_rgg import (
    exact_hamilton_cycle,
    exact_hamilton_path,
    hamilton_cycle,
    hamilton_path,
)


def _check_path(n, adj, path):
    assert path is not None
    assert sorted(path) == list(range(n))
    for a, b in zip(path, path[1:]):
        assert b in adj[a]


def _check_cycle(n, adj, cyc):
    _check_path(n, adj, cyc)
    assert cyc[0] in adj[cyc[-1]]


def _adj_from_edges(n, edges):
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _path_graph(n):
    return _adj_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle_graph(n):
    return _adj_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _complete_graph(n):
    return [set(range(n)) - {v} for v in range(n)]


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return _adj_from_edges(10, outer + spokes + inner)


# -- exact solver on known graphs -------------------------------------------

def test_exact_path_on_path_graph():
    adj = _path_graph(7)
    path = exact_hamilton_path(7, adj)
    _check_path(7, adj, path)
    assert path in ([0, 1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1, 0])


def test_exact_cycle_on_path_graph_fails():
    assert exact_hamilton_cycle(7, _path_graph(7)) is None


def test_exact_cycle_on_cycle_graph():
    adj = _cycle_graph(9)
    _check_cycle(9, adj, exact_hamilton_cycle(9, adj))


def test_exact_on_complete_graph():
    adj = _complete_graph(8)
    _check_path(8, adj, exact_hamilton_path(8, adj))
    _check_cycle(8, adj, exact_hamilton_cycle(8, adj))


def test_exact_on_petersen():
    """The Petersen graph is hypo-Hamiltonian: traceable, not Hamiltonian."""
    adj = _petersen()
    _check_path(10, adj, exact_hamilton_path(10, adj))
    assert exact_hamilton_cycle(10, adj) is None


def test_exact_star_has_no_path():
    adj = _adj_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert exact_hamilton_path(4, adj) is None
    assert exact_hamilton_cycle(4, adj) is None


def test_exact_tiny_cases():
    assert exact_hamilton_path(1, [set()]) == [0]
    two = _adj_from_edges(2, [(0, 1)])
    assert exact_hamilton_path(2, two) in ([0, 1], [1, 0])
    assert exact_hamilton_cycle(3, _cycle_graph(3)) is not None


def test_exact_disconnected():
    adj = _adj_from_edges(4, [(0, 1), (2, 3)])
    assert exact_hamilton_path(4, adj) is None


# -- exact solver vs permutation brute force ---------------------------------

def _brute_has_path(n, adj):
    return any(all(b in adj[a] for a, b in zip(pm, pm[1:]))
               for pm in itertools.permutations(range(n)))


def _brute_has_cycle(n, adj):
    for pm in itertools.permutations(range(1, n)):
        full = (0,) + pm
        if all(b in adj[a] for a, b in zip(full, full[1:])) and full[0] in adj[full[-1]]:
            return True
    return False


@pytest.mark.parametrize("seed", range(12))
def test_exact_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.45]
    adj = _adj_from_edges(n, edges)
    got_path = exact_hamilton_path(n, adj)
    assert (got_path is not None) == _brute_has_path(n, adj)
    if got_path is not None:
        _check_path(n, adj, got_path)
    got_cycle = exact_hamilton_cycle(n, adj)
    assert (got_cycle is not None) == _brute_has_cycle(n, adj)
    if got_cycle is not None:
        _check_cycle(n, adj, got_cycle)


# -- rotation-extension on dense graphs --------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_heuristic_on_dense_random_graphs(seed):
    rng = np.random.default_rng(100 + seed)
    n = 40
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.85]
    adj = _adj_from_edges(n, edges)
    _check_path(n, adj, hamilton_path(n, adj))
    _check_cycle(n, adj, hamilton_cycle(n, adj))


def test_heuristic_on_complete_graph():
    n = 60
    adj = _complete_graph(n)
    _check_cycle(n, adj, hamilton_cycle(n, adj))


def test_dispatch_uses_exact_below_limit():
    """Under the exact limit the answer is exact: Petersen must come back
    None for a cycle even through the dispatching entry point."""
    adj = _petersen()
    assert hamilton_cycle(10, adj) is None
    _check_path(10, adj, hamilton_path(10, adj))


def test_heuristic_handles_sparse_failure_gracefully():
    """On a sparse graph the heuristic may give up: None, never garbage."""
    adj = _path_graph(30)
    got = hamilton_cycle(30, adj)
    assert got is None
