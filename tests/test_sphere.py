import math

import numpy as np
import pytest

from pullbacklab.errors import CollisionDetected, DegenerateTriple
from pullbacklab.sphere import (EPS_SEP, INF, Configuration, MobiusTransform,
                                chart_coordinate, chordal, decode_point,
                                encode_point, forget_coordinates, index_near,
                                is_inf, mobius_apply, mobius_from_triples,
                                normalize_configuration)


def test_chordal_basics():
    assert chordal(0j, 0j) == 0.0
    assert chordal(INF, INF) == 0.0
    assert chordal(0j, INF) == 2.0
    # symmetric and bounded by 2
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = (complex(*rng.normal(size=2)) for _ in range(2))
        assert abs(chordal(a, b) - chordal(b, a)) < 1e-15
        assert chordal(a, b) <= 2.0 + 1e-15


def test_index_near():
    pts = (1 + 0j, 2 + 0j, 2 + 1e-12j, INF)
    assert index_near(pts, 2 + 1e-13j) == 1  # the first of two matches
    assert index_near(pts, 3 + 0j) is None
    assert index_near(pts, INF) == 3
    assert index_near([INF], INF) == 0
    assert index_near([], 0j) is None
    # a point at exactly EPS_SEP counts: chordal(0, x) = 2x for x this small
    edge = EPS_SEP / 2
    assert chordal(0j, complex(edge)) == EPS_SEP
    assert index_near([0j], complex(edge)) == 0
    assert index_near([0j], complex(math.nextafter(edge, 1.0))) is None


def test_chart_coordinate():
    assert chart_coordinate(None, 2 + 1j) == 2 + 1j
    assert chart_coordinate(None, INF) is INF
    assert chart_coordinate(1 + 0j, 3 + 2j) == 2 + 2j
    assert chart_coordinate(1 + 0j, INF) is INF
    # w = 1/z at oo
    assert chart_coordinate(INF, 2j) == -0.5j
    assert chart_coordinate(INF, INF) == 0j
    assert chart_coordinate(INF, 0j) is INF


def test_mobius_identity_triple():
    M = mobius_from_triples((0j, 1 + 0j, INF), (0j, 1 + 0j, INF))
    for z in (0j, 1 + 0j, 2 - 1j, INF):
        assert chordal(mobius_apply(M, z), z) < 1e-12


def test_mobius_from_triples_derived():
    # (-2, 2, oo) -> (0, 1, oo) is z -> (z + 2)/4: solved by hand from the
    # three-point interpolation system
    M = mobius_from_triples((-2 + 0j, 2 + 0j, INF), (0j, 1 + 0j, INF))
    for z, w in ((-2, 0), (2, 1), (0, 0.5), (6, 2)):
        assert abs(mobius_apply(M, complex(z)) - w) < 1e-12
    assert is_inf(mobius_apply(M, INF))


def test_mobius_anchor_swap():
    M = mobius_from_triples((0j, 1 + 0j, INF), (1 + 0j, 0j, INF))
    for z in (0.25 + 0j, 1j, -3 + 0j):
        assert abs(mobius_apply(M, z) - (1 - z)) < 1e-12


def test_mobius_apply_extended():
    quarter = mobius_from_triples((-2 + 0j, 2 + 0j, INF), (0j, 1 + 0j, INF))
    assert abs(mobius_apply(quarter, 0j) - 0.5) < 1e-15
    assert is_inf(mobius_apply(quarter, INF))
    inv = MobiusTransform(0, 1, 1, 0)  # z -> 1/z
    assert is_inf(mobius_apply(inv, 0j))
    assert mobius_apply(inv, INF) == 0


def test_mobius_roundtrip_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        pts = rng.normal(size=(6, 2))
        ps = [complex(*p) for p in pts[:3]]
        qs = [complex(*p) for p in pts[3:]]
        if min(abs(ps[i] - ps[j]) for i in range(3) for j in range(i + 1, 3)) < 1e-3:
            continue
        if min(abs(qs[i] - qs[j]) for i in range(3) for j in range(i + 1, 3)) < 1e-3:
            continue
        M = mobius_from_triples(ps, qs)
        for p, q in zip(ps, qs):
            assert chordal(mobius_apply(M, p), q) < 1e-12


def test_degenerate_triple_raises():
    with pytest.raises(DegenerateTriple):
        mobius_from_triples((0j, 0j, 1 + 0j), (0j, 1 + 0j, INF))
    with pytest.raises(DegenerateTriple):
        MobiusTransform(1, 2, 2, 4)  # det = 0


def test_configuration_validation():
    with pytest.raises(CollisionDetected):
        Configuration(["a", "b", "c"], [0j, 1e-12 + 0j, INF])
    with pytest.raises(ValueError):
        Configuration(["a", "b"], [0j, 1 + 0j])
    cfg = Configuration(["a", "b", "c"], [0j, 1 + 0j, INF])
    assert cfg.point("b") == 1 + 0j


def test_normalize_configuration_derived():
    cfg = Configuration("abcd", [-2 + 0j, 2 + 0j, INF, 0j])
    mc = normalize_configuration(cfg, ("a", "b", "c"))
    assert mc.labels == ("d",)
    assert abs(mc.coords[0] - 0.5) < 1e-12  # (0 + 2)/4


def test_normalize_already_normalized():
    lam = 0.3 + 0.4j
    cfg = Configuration("abcd", [0j, 1 + 0j, INF, lam])
    mc = normalize_configuration(cfg, ("a", "b", "c"))
    assert abs(mc.coords[0] - lam) < 1e-12


def test_normalize_collision_with_anchor():
    # {0, 1, oo, 1 + 1e-15} violates the collision locus; the engine flags
    # it at the earliest validation point
    with pytest.raises(CollisionDetected):
        cfg = Configuration("abcd", [0j, 1 + 0j, INF, 1 + 1e-15 + 0j])
        normalize_configuration(cfg, ("a", "b", "c"))


def test_normalize_mobius_invariance_property():
    # normalizing M(config) with the same anchors gives the same coordinates
    rng = np.random.default_rng(23)
    base = Configuration("abcde", [-2 + 0j, 2 + 0j, INF, 0j, 1j])
    ref = normalize_configuration(base, ("a", "b", "c"))
    for _ in range(20):
        vals = rng.normal(size=(3, 2))
        ps = [complex(*v) for v in vals]
        if min(abs(ps[i] - ps[j]) for i in range(3) for j in range(i + 1, 3)) < 0.1:
            continue
        M = mobius_from_triples((0j, 1 + 0j, INF), ps)
        moved = Configuration("abcde",
                              [mobius_apply(M, p) for p in base.points])
        mc = normalize_configuration(moved, ("a", "b", "c"))
        for c1, c2 in zip(ref.coords, mc.coords):
            assert chordal(c1, c2) < 1e-10


def test_forget_commutes_with_normalize():
    cfg5 = Configuration("abcde", [-2 + 0j, 2 + 0j, INF, 0j, 1j])
    cfg4 = Configuration("abcd", [-2 + 0j, 2 + 0j, INF, 0j])
    both = normalize_configuration(cfg5, ("a", "b", "c"))
    left = forget_coordinates(both, ["d"])
    right = normalize_configuration(cfg4, ("a", "b", "c"))
    assert left.labels == right.labels == ("d",)
    assert abs(left.coords[0] - right.coords[0]) < 1e-12


def test_forget_identity_and_projection():
    cfg = Configuration("abcde", [-2 + 0j, 2 + 0j, INF, 0j, 1j])
    mc = normalize_configuration(cfg, ("a", "b", "c"))
    assert forget_coordinates(mc, ["d", "e"]).coords == mc.coords
    only_d = forget_coordinates(mc, ["d"])
    assert only_d.labels == ("d",)
    with pytest.raises(ValueError):
        forget_coordinates(mc, ["z"])


def test_point_serialization():
    assert encode_point(INF) == "inf"
    assert encode_point(1.5 - 2j) == [1.5, -2.0]
    assert is_inf(decode_point("inf"))
    assert decode_point([1.5, -2.0]) == 1.5 - 2j
    cfg = Configuration("abc", [0j, 1 + 0j, INF])
    assert Configuration.from_json(cfg.to_json()).points == cfg.points
