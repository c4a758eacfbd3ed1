"""Exact rainbow oracle: complete searches, hitting bisection, validation.

Hand-built instances with known answers pin the searches; the bisection
is compared against a linear scan over every prefix; the certificate
validator is fed one tampered certificate per defect class and must name
each one.
"""

import itertools
import math

import numpy as np
import pytest

from rainbow_rgg import (
    ColouredGraphInstance,
    build_process,
    exact_hitting_rainbow,
    exact_rainbow_hamilton_cycle,
    exact_rainbow_perfect_matching,
    hitting_radius_min_degree,
    instance_from_text,
    rainbow_witness_at,
    sample_points,
    validate_certificate,
)
from rainbow_rgg.oracle import _prefix_feasible


# -- hand-built instances -----------------------------------------------

def test_rainbow_cycle_triangle():
    inst = ColouredGraphInstance(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    cyc = exact_rainbow_hamilton_cycle(inst)
    assert cyc is not None
    assert len(cyc) == 3
    assert len({c for (_, _, c) in cyc}) == 3


def test_rainbow_cycle_blocked_by_repeated_colour():
    inst = ColouredGraphInstance(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)])
    assert exact_rainbow_hamilton_cycle(inst) is None


def test_rainbow_cycle_needs_rainbow_not_just_hamilton():
    """K4 with a colouring whose only proper cycles repeat a colour."""
    edges = [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2), (0, 2, 3), (1, 3, 3)]
    inst = ColouredGraphInstance(4, edges)
    assert exact_rainbow_hamilton_cycle(inst) is None
    # recolour one edge and a rainbow cycle appears
    edges2 = edges[:4] + [(0, 2, 4), (1, 3, 3)]
    fixed = ColouredGraphInstance(4, edges2)
    assert exact_rainbow_hamilton_cycle(fixed) is None  # 4-cycles still clash
    edges3 = [(0, 1, 1), (1, 2, 2), (2, 3, 4), (0, 3, 5), (0, 2, 3), (1, 3, 3)]
    assert exact_rainbow_hamilton_cycle(ColouredGraphInstance(4, edges3)) is not None


def test_rainbow_matching_square():
    inst = ColouredGraphInstance(4, [(0, 1, 1), (2, 3, 1), (0, 2, 2), (1, 3, 3)])
    got = exact_rainbow_perfect_matching(inst)
    assert got is not None
    assert len(got) == 2
    cols = [c for (_, _, c) in got]
    assert len(set(cols)) == 2
    # the monochrome pair (0,1),(2,3) is not usable together
    assert set(cols) != {1}


def test_rainbow_matching_blocked():
    inst = ColouredGraphInstance(4, [(0, 1, 1), (2, 3, 1)])
    assert exact_rainbow_perfect_matching(inst) is None


def test_rainbow_matching_odd_n():
    inst = ColouredGraphInstance(5, [(i, j, i + j) for i in range(5)
                                     for j in range(i + 1, 5)])
    assert exact_rainbow_perfect_matching(inst) is None


def test_rainbow_matching_empty():
    assert exact_rainbow_perfect_matching(ColouredGraphInstance(0, [])) == []


def test_vertex_limits_enforced():
    big = ColouredGraphInstance(30, [(0, 1, 1)])
    with pytest.raises(ValueError):
        exact_rainbow_hamilton_cycle(big)
    with pytest.raises(ValueError):
        exact_rainbow_perfect_matching(big)


def test_instance_rejects_malformed_edges():
    with pytest.raises(ValueError):
        ColouredGraphInstance(3, [(0, 3, 1)])
    with pytest.raises(ValueError):
        ColouredGraphInstance(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        ColouredGraphInstance(3, [(0, 1, 0)])


# -- complete search vs brute force ------------------------------------------

def _brute_rainbow_cycle(inst):
    n = inst.n
    cols = {}
    for (i, j, c) in inst.edges:
        cols[(min(i, j), max(i, j))] = c
    for pm in itertools.permutations(range(1, n)):
        order = (0,) + pm
        keys = [(min(a, b), max(a, b)) for a, b in
                zip(order, order[1:] + (0,))]
        if all(k in cols for k in keys):
            cs = [cols[k] for k in keys]
            if len(set(cs)) == n:
                return True
    return False


def _brute_rainbow_matching(inst):
    n = inst.n
    cols = {}
    for (i, j, c) in inst.edges:
        cols[(min(i, j), max(i, j))] = c

    def rec(rem, used):
        if not rem:
            return True
        v = rem[0]
        for w in rem[1:]:
            k = (v, w)
            if k in cols and cols[k] not in used:
                if rec([x for x in rem if x not in (v, w)], used | {cols[k]}):
                    return True
        return False

    return rec(list(range(n)), set())


@pytest.mark.parametrize("seed", range(15))
def test_search_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([4, 5, 6]))
    n_colours = int(rng.integers(2, 2 * n))
    edges = [(i, j, int(rng.integers(1, n_colours + 1)))
             for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7]
    inst = ColouredGraphInstance(n, edges)
    assert (exact_rainbow_hamilton_cycle(inst) is not None) == _brute_rainbow_cycle(inst)
    if n % 2 == 0:
        assert (exact_rainbow_perfect_matching(inst) is not None) == \
            _brute_rainbow_matching(inst)


def test_witnesses_are_valid_structures():
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = 6
        edges = [(i, j, int(rng.integers(1, 9)))
                 for i in range(n) for j in range(i + 1, n) if rng.random() < 0.8]
        inst = ColouredGraphInstance(n, edges)
        eset = {(min(i, j), max(i, j)): c for (i, j, c) in edges}
        cyc = exact_rainbow_hamilton_cycle(inst)
        if cyc is not None:
            assert len(cyc) == n
            assert len({c for (_, _, c) in cyc}) == n
            ends = [cyc[0][0]]
            for (a, b, c) in cyc:
                assert eset[(min(a, b), max(a, b))] == c
                assert a == ends[-1]
                ends.append(b)
            assert ends[-1] == ends[0]
            assert sorted(ends[:-1]) == list(range(n))
        pm = exact_rainbow_perfect_matching(inst)
        if pm is not None:
            verts = [v for (a, b, _) in pm for v in (a, b)]
            assert sorted(verts) == list(range(n))
            assert len({c for (_, _, c) in pm}) == n // 2


# -- hitting radius of the rainbow property ----------------------------------

def _linear_scan_hitting(proc, target):
    for m in range(1, proc.m + 1):
        if _prefix_feasible(proc, m, target) is not None:
            return float(proc.elen[m - 1])
    return math.inf


@pytest.mark.parametrize("target", ["hc", "pm"])
def test_hitting_bisection_equals_linear_scan(target):
    for seed in range(8):
        ps = sample_points(8, 2, seed=seed)
        proc = build_process(ps, cutoff=math.inf, n_colours=12, colour_seed=seed)
        r, witness = exact_hitting_rainbow(proc, target)
        assert r == _linear_scan_hitting(proc, target)
        if math.isfinite(r):
            assert witness is not None
            # the witness only cites edges revealed by radius r
            for (i, j, c) in witness:
                assert proc.distance_of(i, j) <= r + 1e-15


def test_hitting_needs_min_degree():
    """A rainbow cycle needs degree 2 everywhere, a matching degree 1."""
    for seed in range(6):
        ps = sample_points(9 if seed % 2 else 8, 2, seed=40 + seed)
        proc = build_process(ps, cutoff=math.inf, n_colours=30, colour_seed=seed)
        r_hc, _ = exact_hitting_rainbow(proc, "hc")
        assert r_hc >= hitting_radius_min_degree(proc, 2)
        if proc.n % 2 == 0:
            r_pm, _ = exact_hitting_rainbow(proc, "pm")
            assert r_pm >= hitting_radius_min_degree(proc, 1)


def test_hitting_infeasible_with_one_colour():
    ps = sample_points(6, 2, seed=1)
    proc = build_process(ps, cutoff=math.inf, n_colours=1, colour_seed=0)
    r, witness = exact_hitting_rainbow(proc, "hc")
    assert math.isinf(r) and witness is None


def test_hitting_odd_n_matching():
    ps = sample_points(7, 2, seed=2)
    proc = build_process(ps, cutoff=math.inf, n_colours=20)
    assert exact_hitting_rainbow(proc, "pm") == (math.inf, None)


def test_witness_at_radius():
    ps = sample_points(8, 2, seed=3)
    proc = build_process(ps, cutoff=math.inf, n_colours=16, colour_seed=1)
    r, _ = exact_hitting_rainbow(proc, "pm")
    assert rainbow_witness_at(proc, r, "pm") is not None
    just_below = math.nextafter(r, 0.0)
    assert rainbow_witness_at(proc, just_below, "pm") is None


def test_witness_at_refuses_radius_outside_build():
    ps = sample_points(8, 2, seed=3)
    proc = build_process(ps, cutoff=0.4, n_colours=16, colour_seed=1)
    with pytest.raises(ValueError, match="nonnegative"):
        rainbow_witness_at(proc, -0.1, "pm")
    with pytest.raises(ValueError, match="exceeds build cutoff"):
        rainbow_witness_at(proc, 0.41, "hc")
    rainbow_witness_at(proc, 0.4, "hc")


# -- certificate validation -----------------------------------------------

def _good_certificate(seed=5):
    ps = sample_points(8, 2, seed=seed)
    proc = build_process(ps, cutoff=math.inf, n_colours=16, colour_seed=2)
    r, witness = exact_hitting_rainbow(proc, "hc")
    assert witness is not None
    edges = [[i + 1, j + 1, c, proc.distance_of(i, j)] for (i, j, c) in witness]
    cert = {"ok": True, "mode": "hc", "n": 8, "radius": r, "edges": edges}
    return cert, proc


def test_validate_accepts_good_certificate():
    cert, proc = _good_certificate()
    assert validate_certificate(cert, proc) == []


def test_validate_rejects_tampering():
    cert, proc = _good_certificate()

    def tampered(mutate):
        c2 = {k: ([list(e) for e in v] if k == "edges" else v)
              for k, v in cert.items()}
        mutate(c2)
        return validate_certificate(c2, proc)

    # wrong colour on one edge
    probs = tampered(lambda c: c["edges"][0].__setitem__(2, c["edges"][0][2] + 1))
    assert any("coupled colour" in p for p in probs)

    # lied about a length
    probs = tampered(lambda c: c["edges"][1].__setitem__(3, 0.001))
    assert any("length" in p for p in probs)

    # radius smaller than the longest edge
    probs = tampered(lambda c: c.__setitem__("radius", cert["radius"] / 2))
    assert any("exceeds radius" in p for p in probs)

    # drop an edge: no longer a cycle
    probs = tampered(lambda c: c["edges"].pop())
    assert any("cycle" in p or "degree" in p for p in probs)

    # duplicate edge
    probs = tampered(lambda c: c["edges"].__setitem__(0, c["edges"][1]))
    assert any("duplicate" in p for p in probs)

    # out-of-range endpoint
    probs = tampered(lambda c: c["edges"][0].__setitem__(0, 99))
    assert any("bad endpoints" in p for p in probs)

    # unknown mode
    probs = tampered(lambda c: c.__setitem__("mode", "tour"))
    assert probs


def test_validate_detects_repeated_colours():
    ps = sample_points(6, 2, seed=6)
    proc = build_process(ps, cutoff=math.inf, n_colours=1, colour_seed=0)
    # a genuine Hamilton cycle in the monochrome graph: right structure,
    # colours all equal, must be rejected on distinctness
    order = list(range(6))
    edges = [[a + 1, b + 1, proc.colour_of(a, b), proc.distance_of(a, b)]
             for a, b in zip(order, order[1:] + [0])]
    cert = {"mode": "hc", "n": 6, "radius": 2.0, "edges": edges}
    probs = validate_certificate(cert, proc)
    assert any("distinct" in p for p in probs)


def test_validate_detects_two_cycles():
    """Two triangles: every vertex has degree 2 and there are n edges, but
    they are not one cycle."""
    ps = sample_points(6, 2, seed=6)
    proc = build_process(ps, cutoff=math.inf, n_colours=50, colour_seed=0)

    def cert(pairs):
        edges = [[a + 1, b + 1, proc.colour_of(a, b), proc.distance_of(a, b)]
                 for a, b in pairs]
        return {"mode": "hc", "n": 6, "radius": 2.0, "edges": edges}

    two = validate_certificate(cert([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]), proc)
    assert "edges form multiple cycles, not one" in two
    one = validate_certificate(cert([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]), proc)
    assert "edges form multiple cycles, not one" not in one


def test_validate_matching_structure():
    ps = sample_points(6, 2, seed=7)
    proc = build_process(ps, cutoff=math.inf, n_colours=12, colour_seed=3)
    r, witness = exact_hitting_rainbow(proc, "pm")
    edges = [[i + 1, j + 1, c, proc.distance_of(i, j)] for (i, j, c) in witness]
    cert = {"mode": "pm", "n": 6, "radius": r, "edges": edges}
    assert validate_certificate(cert, proc) == []
    # double-match a vertex
    bad = dict(cert)
    bad["edges"] = [edges[0], edges[0][:2][::-1] + edges[1][2:], edges[2]]
    assert validate_certificate(bad, proc)


# -- instance serialization ---------------------------------------------

def test_instance_text_round_trip():
    """1-based rows with the optional length column read back as 0-based
    edges; the lengths are checked and dropped."""
    back = instance_from_text("4 3\n1 2 3 0.5\n2 3 1 0.25\n3 4 2 0.125\n")
    assert back.n == 4
    assert back.edges == [(0, 1, 3), (1, 2, 1), (2, 3, 2)]


def test_instance_text_no_lengths():
    back = instance_from_text("3 1\n1 3 5\n")
    assert back.n == 3
    assert back.edges == [(0, 2, 5)]


@pytest.mark.parametrize("text", [
    "4\n",                      # one header field
    "4 0 1\n",                  # three header fields
    "-3 0\n",                   # negative vertex count
    "3 -1\n",                   # negative edge count
    "x 1\n1 2 1\n",             # not an integer
    "3 2\n1 2 1\n",             # fewer rows than the header says
    "3 2\n1 2 1 0.5\n2 3 2\n",  # length column on one row only
    "3 1\n1 2 1 nan?\n",        # malformed length
    "3 1\n1 2\n",               # row too short
    "3 1\n1 4 1\n",             # vertex out of range
    "",
])
def test_instance_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        instance_from_text(text)
