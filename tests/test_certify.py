import cmath
import collections
import copy
import functools
import glob
import json
import math
import os
import random
import reprlib
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import pullbacklab
from pullbacklab import certify
from pullbacklab.certify import (N_SAMP, certify_obstructed, classify_run,
                                 emit_levy_certificate,
                                 find_separating_annulus, injectivity_test,
                                 verify_certificate, LevyCertificate,
                                 _apply_map, _circle, _circle_position,
                                 _derive_certificate,
                                 _poly_min_dist, _star_radii,
                                 _step_chart_entries, _winding)
from pullbacklab.cli import _build_run, load_config, main
from pullbacklab.errors import InjectivityUndetermined, NoSeparatingAnnulus
from pullbacklab.fiber import (BranchDatum, TrivialMarkedSpec, init_run,
                               run_until)
from pullbacklab.hyperbolic import (ELL_STAR, RoundAnnulus, annulus_modulus)
from pullbacklab import lifting
from pullbacklab.lifting import (Path, lift_closed_curve, _newton_preimage,
                                 _seg_closest)
from pullbacklab.ratmap import RationalMap
from pullbacklab.sphere import (Configuration, INF, chart_coordinate, chordal,
                               is_inf)

CHEB = RationalMap([-2, 0, 1])
BASILICA = RationalMap([-1, 0, 1])
SQUARE = RationalMap([0, 0, 1])


def finished(g, datum, extra=(), max_iters=400):
    run = init_run(g, [datum], extra_punctures=extra)
    trace, status = run_until(run, max_iters=max_iters)
    return run, trace, status


def test_classify_obstructed_chebyshev():
    run, trace, status = finished(CHEB, BranchDatum(0.0, math.sqrt(2)))
    cls = classify_run(trace, CHEB, run.punctures)
    assert cls.verdict == "obstructed"
    assert cls.puncture == 2 + 0j
    assert 0.24 < cls.rate_estimate < 0.26
    assert abs(cls.multiplier - 4) < 1e-9


def test_classify_realized_basilica():
    run, trace, status = finished(BASILICA, BranchDatum(-0.6, -math.sqrt(0.4)))
    cls = classify_run(trace, BASILICA, run.punctures)
    assert cls.verdict == "realized"
    assert abs(cls.x_star - (1 - math.sqrt(5)) / 2) < 1e-8
    assert cls.residual < 1e-9
    assert abs(cls.multiplier - (1 - math.sqrt(5))) < 1e-6


def test_classify_squaring_rate():
    run, trace, status = finished(SQUARE, BranchDatum(0.5, math.sqrt(0.5)),
                                  extra=(1.0,))
    cls = classify_run(trace, SQUARE, run.punctures)
    assert cls.verdict == "obstructed"
    assert cls.puncture == 1 + 0j
    assert 0.49 < cls.rate_estimate < 0.51


def test_classify_undecided():
    run, trace, status = finished(CHEB, BranchDatum(0.0, math.sqrt(2)),
                                  max_iters=3)
    cls = classify_run(trace, CHEB, run.punctures)
    assert cls.verdict == "undecided"


def test_classify_anomaly_non_repelling_limit():
    # a candidate limit at a superattracting puncture is flagged as a
    # likely lifting fault, never silently classified
    from pullbacklab.fiber import RunStatus, Trace
    run, trace, status = finished(CHEB, BranchDatum(0.0, math.sqrt(2)))
    forged = Trace(trace.records,
                   RunStatus("candidate_puncture", puncture_label="p2",
                             puncture=INF, steps=status.steps))
    cls = classify_run(forged, CHEB, run.punctures)
    assert cls.verdict == "undecided"
    assert "non-repelling" in cls.reason


def test_classify_anomaly_residual_of_a_realized_limit():
    # a realized candidate whose final position is no fixed point of g
    from pullbacklab.fiber import Trace
    run, trace, status = finished(BASILICA, BranchDatum(-0.6, -math.sqrt(0.4)))
    assert status.kind == "candidate_realized"
    final = dict(trace.records[-1])
    final["points"] = {lab: dict(entry, value=[0.5, 0.0])
                       for lab, entry in final["points"].items()}
    cls = classify_run(Trace(trace.records[:-1] + [final], status), BASILICA,
                       run.punctures)
    assert cls.verdict == "undecided"
    assert cls.reason == "fixed-point residual %.3g" % chordal(-0.75, 0.5)
    # 1e-5 off the fixed point (1 - sqrt 5) / 2: a residual of 3e-5, far
    # above EPS_FIX and far below 1
    x = (1 - math.sqrt(5)) / 2 + 1e-5
    final["points"] = {lab: dict(entry, value=[x, 0.0])
                       for lab, entry in final["points"].items()}
    cls = classify_run(Trace(trace.records[:-1] + [final], status), BASILICA,
                       run.punctures)
    assert cls.reason == "fixed-point residual %.3g" % chordal(x * x - 1, x)
    assert 1e-5 < chordal(x * x - 1, x) < 1e-4


def test_classify_anomaly_limit_puncture_not_fixed():
    # -2 is a puncture of z^2 - 2, mapped to 2, so it is no limit
    from pullbacklab.fiber import RunStatus, Trace
    run, trace, status = finished(CHEB, BranchDatum(0.0, math.sqrt(2)))
    forged = Trace(trace.records,
                   RunStatus("candidate_puncture", puncture_label="p0",
                             puncture=-2 + 0j, steps=status.steps))
    cls = classify_run(forged, CHEB, run.punctures)
    assert cls.verdict == "undecided"
    assert cls.reason == "limit puncture is not fixed -- likely lifting fault"


def test_classify_anomaly_decay_rate_off_the_multiplier():
    # distances to the limit 2 that stop falling: rate 1, against 1/4
    from pullbacklab.fiber import Trace
    run, trace, status = finished(CHEB, BranchDatum(0.0, math.sqrt(2)))
    assert status.puncture_label == "p1"
    records = [dict(rec, min_dist_log10=dict(rec["min_dist_log10"], p1=-3.0))
               for rec in trace.records]
    cls = classify_run(Trace(records, status), CHEB, run.punctures)
    assert cls.verdict == "undecided"
    assert cls.reason == "decay rate 1 far from 1/|g'(p)| = 0.25"


def test_find_separating_annulus_derived():
    cfg = Configuration("abcd", [-2 + 0j, 2 + 0j, INF, 1.999 + 0j])
    ann = find_separating_annulus(cfg, ["b", "d"])
    assert abs(ann.center - 1.9995) < 1e-12
    assert abs(ann.r_in - 1.05 * 0.0005) < 1e-9
    assert abs(ann.r_out - 0.95 * 3.9995) < 1e-9
    assert abs(annulus_modulus(ann) - 1.4144) < 0.001

    cfg2 = Configuration("abcd", [0j, 1 + 0j, INF, 0.5 + 0j])
    ann2 = find_separating_annulus(cfg2, ["a", "d"])
    assert abs(ann2.r_in - 0.2625) < 1e-12
    assert abs(ann2.r_out - 0.7125) < 1e-12
    assert abs(annulus_modulus(ann2) - 0.159) < 0.001


def test_find_separating_annulus_errors():
    cfg = Configuration("abcd", [-2 + 0j, 2 + 0j, INF, 1.999 + 0j])
    with pytest.raises(NoSeparatingAnnulus):
        find_separating_annulus(cfg, ["b"])  # one-point cluster
    wide = Configuration("abcd", [0j, 1 + 0j, INF, 0.5 + 0j])
    with pytest.raises(NoSeparatingAnnulus):
        # cluster {0, 1} leaves 0.5 inside: r_out < r_in
        find_separating_annulus(wide, ["a", "b"])


def test_injectivity_passes_chebyshev_annulus():
    ann = RoundAnnulus.from_radii(2 + 0j, 0.01, 1.5)
    evidence = injectivity_test(CHEB, ann, 1)
    assert evidence["k"] == 1 and len(evidence["stages"]) == 1
    assert evidence["stages"][0]["critical_clearance"] > 1e-6


def test_injectivity_fails_doubly_covered_boundary():
    # 0.5 < |z| < 2 under z^2: the annulus surrounds the critical point,
    # its boundary image is traversed twice
    ann = RoundAnnulus.from_radii(0j, 0.5, 2.0)
    with pytest.raises(InjectivityUndetermined):
        injectivity_test(SQUARE, ann, 1)


def test_injectivity_declines_unseparated_boundary_images():
    # z^2 is injective on |z - 1| < 0.31, so the images of the circles
    # |z - 1| = 0.3 and 0.31 are disjoint, and each is star-shaped about
    # 1; but the inner image reaches 0.3 * 2.3 from 1 and the outer comes
    # within 0.31 * 1.69: no circle about 1 separates them
    ann = RoundAnnulus.from_radii(1 + 0j, 0.3, 0.31)
    with pytest.raises(InjectivityUndetermined,
                       match="not separated by a circle .* at stage 0"):
        injectivity_test(SQUARE, ann, 1)
    wide = RoundAnnulus.from_radii(1 + 0j, 0.05, 0.31)
    assert injectivity_test(SQUARE, wide, 1)["stages"][0][
        "boundaries_disjoint"]


def test_injectivity_k0_vacuous():
    ann = RoundAnnulus.from_radii(0j, 0.5, 2.0)
    evidence = injectivity_test(SQUARE, ann, 0)
    assert evidence["stages"] == []


def _widest_certified_annulus(extra, n=700):
    """z^2 from the basepoint 0.6 + 0.1i, stepped to n, and the annulus
    separating its marked point from the puncture it collapses onto, with
    r_out shrunk by 0.9 until the certificate derives with no fault."""
    b = 0.6 + 0.1j
    run = init_run(SQUARE, [BranchDatum(b, cmath.sqrt(b))],
                   extra_punctures=extra)
    while run.n < n:
        run.pullback_step()
    anchor = run.marked[0].anchor
    q = anchor.puncture
    entries = _step_chart_entries(run, q, n)
    ann = find_separating_annulus([(lab, z) for lab, _, z in entries],
                                  [anchor.label, "m0"],
                                  obstacles=run.g.chart(q)[1], anchor=q)
    while True:
        fields, faults = _derive_certificate(run, n, ann)
        if not faults:
            return run, ann, fields["injectivity_evidence"]
        ann = RoundAnnulus.from_radii(ann.center, ann.r_in, 0.9 * ann.r_out,
                                      anchor=q)


@pytest.mark.parametrize("extra, k, r_out", [
    ([1.0, -1.0], 2, 0.623), ([1.0, -1.0, 1j], 3, 0.331)], ids=["k2", "k3"])
def test_core_stage_agrees_with_the_newton_lift_at_every_stage(extra, k,
                                                               r_out):
    # the core stage takes gm^j(core circle) as the lift of its image; the
    # Newton continuation it replaced returns exactly those samples, with
    # residual 0, at every stage of a k >= 2 annulus
    run, ann, evidence = _widest_certified_annulus(extra)
    assert run.k == evidence["k"] == k and abs(ann.r_out - r_out) < 1e-3
    assert injectivity_test(run.g, ann, k) == evidence
    gm, _ = run.g.chart(ann.anchor)
    core = _circle(ann.center, ann.core_radius(), N_SAMP)
    for stage in evidence["stages"]:
        image = _apply_map(gm, core)
        res, closes = lift_closed_curve(gm, Path(image), core[0],
                                        check_clearance=False)
        assert closes and res.subdivisions == 0
        assert res.lifted.nodes == Path(core).nodes
        assert res.max_residual == stage["core_lift_residual"] == 0.0
        core = image


def _dense_reference(z1, z2, skip_adjacent):
    """All-pairs crossing test: a proper crossing or a collinear overlap
    of two segments whose boxes meet (family 1 padded by 1e-12 scale)."""
    z1, z2 = np.array(z1, dtype=complex), np.array(z2, dtype=complex)
    a, b = z1[:-1], z1[1:]
    c, d = z2[:-1], z2[1:]
    n, m = len(a), len(c)
    A = a[:, None]
    B = b[:, None]
    C = c[None, :]
    D = d[None, :]

    def cross(u, v):
        return u.real * v.imag - u.imag * v.real

    d1 = cross(D - C, A - C)
    d2 = cross(D - C, B - C)
    d3 = cross(B - A, C - A)
    d4 = cross(B - A, D - A)
    proper = ((d1 * d2) < 0) & ((d3 * d4) < 0)

    scale = max(float(np.max(np.abs(b - a))), float(np.max(np.abs(d - c))), 1e-300)
    eps = (1e-10 * scale) ** 2
    collinear = (np.abs(d1) < eps) & (np.abs(d2) < eps) & \
                (np.abs(d3) < eps) & (np.abs(d4) < eps)
    lo1 = np.minimum(A.real, B.real) - 1e-12 * scale
    hi1 = np.maximum(A.real, B.real) + 1e-12 * scale
    lo2 = np.minimum(C.real, D.real)
    hi2 = np.maximum(C.real, D.real)
    overlap_x = (lo1 <= hi2) & (lo2 <= hi1)
    lo1i = np.minimum(A.imag, B.imag) - 1e-12 * scale
    hi1i = np.maximum(A.imag, B.imag) + 1e-12 * scale
    lo2i = np.minimum(C.imag, D.imag)
    hi2i = np.maximum(C.imag, D.imag)
    overlap_y = (lo1i <= hi2i) & (lo2i <= hi1i)
    hits = (proper | collinear) & overlap_x & overlap_y

    if skip_adjacent:
        idx = np.arange(n)
        jdx = np.arange(m)
        same = idx[:, None] == jdx[None, :]
        nbr = (np.abs(idx[:, None] - jdx[None, :]) == 1) | \
              (np.abs(idx[:, None] - jdx[None, :]) == n - 1)
        hits = hits & ~(same | nbr)
    return bool(np.any(hits))


def _star_or_none(zs, c):
    try:
        return _star_radii(zs, c)
    except ValueError:  # outside the star test's range
        return None


def assert_star_test_sound(inner, outer, c):
    """Whatever the star-shaped test accepts, the dense reference finds no
    crossing: in an accepted curve, nor between an accepted pair whose
    inner curve lies inside the outer's disk (the injectivity test's
    disjointness rule). Returns the two tests' results, None for a curve
    declined, outside the test's range included."""
    radii = [_star_or_none(z, c) for z in (inner, outer)]
    for z, r in zip((inner, outer), radii):
        if r is not None:
            assert not _dense_reference(z, z, True)
    if None not in radii and radii[0][1] < radii[1][0]:
        assert not _dense_reference(inner, outer, False)
    return radii


# fixed seed: whatever the star test accepts must be free of crossings
agree = settings(max_examples=120, deadline=None, derandomize=True)
coord = st.floats(-4.0, 4.0, allow_nan=False)
point = st.builds(complex, coord, coord)


@agree
@given(point, st.lists(st.floats(0.05, 3.0), min_size=3, max_size=40),
       st.floats(0.0, 0.99), point, st.booleans())
def test_star_test_sound_on_random_polygons(c, radii, jitter, shift, closed):
    # polygons at increasing angles about c (star-shaped unless jitter
    # turns some edge back), judged about c and about a shifted point
    n = len(radii)
    angles = [2 * math.pi * (j + jitter * ((j * 7) % 3 - 1)) / n
              for j in range(n)]
    poly = [c + r * cmath.exp(1j * a) for a, r in zip(angles, radii)]
    poly.append(poly[0] if closed else poly[0] * (1 + 1e-15))
    for center in (c, c + 0.3 * shift):
        assert_star_test_sound(poly, [center + 2 * (z - center) for z in poly],
                               center)


lattice = st.lists(st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)),
                   min_size=3, max_size=16)


@agree
@given(lattice, st.sampled_from([0j, 0.5 + 0.5j, 0.5 + 0j]))
def test_star_test_sound_on_lattice_polygons(points, c):
    # exact touches, shared and repeated vertices, collinear edges and
    # vertices on a ray from c: lattice points in order of angle about c
    poly = sorted(points, key=lambda z: cmath.phase(z - c) if z != c else 0.0)
    poly.append(poly[0])
    assert_star_test_sound(poly, [c + 3 * (z - c) for z in poly], c)


@agree
@given(point, st.floats(0.05, 3.0), point, st.integers(8, 160))
def test_star_test_sound_on_circle_images(center, radius, c, n):
    inner = [z * z + c for z in _circle(center, radius / 2, n)]
    outer = [z * z + c for z in _circle(center, radius, n)]
    radii = assert_star_test_sound(inner, outer, center * center + c)
    if abs(center) > 1.5 * radius:  # 0, the critical point, is outside
        assert None not in radii


@agree
@given(st.floats(0.0, 2 * math.pi), st.floats(-9.5, -8.5), point,
       st.integers(8, 160))
def test_star_test_sound_on_tiny_circles(phi, log_r, c, n):
    # radius ~1e-9 around a point 1e-8 from 0; under z^2 + c the image
    # collapses onto a few representable values near c
    center = 1e-8 * cmath.exp(1j * phi)
    circle = _circle(center, 10.0 ** log_r, n)
    image = [z * z + c for z in circle]
    assert_star_test_sound(circle, image, center)
    assert_star_test_sound([z * z for z in circle], image, center * center + c)
    assert_star_test_sound(image, image, center * center + c)


def test_star_test_declines_simple_non_star_and_crossing_curves():
    # a "C" around the center: simple, and star-shaped about no point
    c_shape = [-2 - 2j, 2 - 2j, 2 - 1j, -1 - 1j, -1 + 1j, 2 + 1j, 2 + 2j,
               -2 + 2j, -2 - 2j]
    assert not _dense_reference(c_shape, c_shape, True)
    assert _star_radii(c_shape, -1.5 + 0j) is None
    # an "L": star-shaped about a point of the square [0, 1]^2 only
    l_shape = [0j, 2 + 0j, 2 + 1j, 1 + 1j, 1 + 2j, 2j, 0j]
    assert not _dense_reference(l_shape, l_shape, True)
    assert _star_radii(l_shape, 0.5 + 0.5j) is not None
    assert _star_radii(l_shape, 1.8 + 0.5j) is None
    # a figure-eight crosses itself
    eight = [cmath.sin(t) + 0.5j * cmath.sin(2 * t)
             for t in (2 * math.pi * (j + 0.5) / 64 for j in range(65))]
    assert _dense_reference(eight, eight, True)
    for c in (0.5 + 0j, -0.5 + 0.1j, 2 + 0j):
        assert _star_radii(eight, c) is None
    # a circle traversed twice: every turn is positive, the total is 4 pi
    twice = [z * z for z in _circle(0j, 1.0, 128)]
    assert _dense_reference(twice, twice, True)
    assert _star_radii(twice, 0j) is None


def _angle_sum_winding(zs, q):
    """The winding number as the sum of the angles each edge subtends at q,
    the closing edge included; None when q is a sample."""
    rel = np.array(list(zs) + [zs[0]], dtype=complex) - q
    if np.any(rel == 0):
        return None
    turns = np.angle(rel[1:] / rel[:-1])
    return int(round(float(np.sum(turns)) / (2 * math.pi)))


@agree
@given(point, st.floats(1e-6, 3.0), st.integers(8, 160), point,
       st.floats(-1.0, 1.0))
# the squared octagon passes 1.5e-32 from 0: its crossing abscissa once
# rounded to exactly 0
@example(1 + 0j, 1.0, 8, 0j, 0.0)
def test_winding_matches_angle_sum(center, radius, n, q, frac):
    circle = _circle(center, radius, n)
    image = [z * z + q for z in circle]
    # points on the circle's horizontal, which meets it at sample 0 and
    # at the closing edge, and at random
    for p in (q, center + 2 * frac * radius, center + frac * radius * 1j):
        for zs in (circle, image):
            assert _winding(zs, p) == _angle_sum_winding(zs, p)


def test_winding_counts_the_closing_edge():
    # squaring_b's critical point -1 lies on the horizontal of the
    # annulus center in the chart at 1, where sample 0 sits and the
    # closing edge comes back from below
    circle = _circle(-1e-40 + 0j, 1e-41, 512)
    assert circle[0].imag == 0.0 > circle[-1].imag
    assert _winding(circle, -1 + 0j) == 0
    assert _angle_sum_winding(circle, -1 + 0j) == 0
    assert _winding(circle, -1e-40 + 0j) == 1
    # a polygon whose only crossing of the ray is its closing edge
    square = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]
    assert _winding(square, 0j) == _angle_sum_winding(square, 0j) == 1
    assert _winding(square[::-1], 0j) == -1
    assert _winding(square, 1 + 1j) is None  # a sample
    assert _winding(square, 1 + 0j) is None  # on the closing edge
    # q exactly on the edge from prev to z, whose offset prev - q rounds
    # off the edge's line: the cross product is nonzero but within its
    # rounding bound
    prev, z = complex(2.0 ** 53 + 2, 3 * 2.0 ** 53 + 8), \
        complex(-2.0 ** 51, -3 * 2.0 ** 51 + 2)
    q = 1 + 5j
    (px, py), (zx, zy) = map(int, (prev.real, prev.imag)), \
        map(int, (z.real, z.imag))
    assert (5 - py) * (zx - px) == (zy - py) * (1 - px) and zx < 1 < px
    a, b = prev - q, z - q
    assert a.imag * b.real - a.real * b.imag != 0
    assert _winding([prev, z, complex(2.0 ** 53, -2.0 ** 53)], q) is None


@agree
@given(point, st.floats(1e-12, 3.0), st.integers(8, 512),
       st.floats(0.0, 2 * math.pi), st.floats(0.0, 4.0))
@example(0j, 1.75, 11, 0.0, 0.0)  # q at the center: every edge ties
def test_circle_position_matches_full_pass(center, radius, n, phi, scale):
    # the facing edge's distance is the least over all edges in exact
    # arithmetic; in floats, edges that tie may differ at the rounding of
    # the samples' coordinates
    zs = _circle(center, radius, n)
    q = center + scale * radius * cmath.exp(1j * phi)
    w, d = _circle_position(q, center, radius, n)
    assert w == _winding(zs, q)
    assert abs(d - _poly_min_dist(zs, q)) <= \
        1e-14 * (abs(center) + radius + abs(q))


@agree
@given(st.lists(point, min_size=2, max_size=40), point,
       st.integers(0, 38), st.floats(0.0, 1.0), st.floats(-12.0, 0.0))
def test_poly_min_dist_is_the_least_over_all_edges(zs, q, edge, t, log_off):
    # q at random, and q within 10^log_off of a point of one edge (long
    # edges near q are the case the skip test must not drop)
    i = edge % (len(zs) - 1)
    for p in (q, zs[i] + t * (zs[i + 1] - zs[i]) + 10.0 ** log_off * 1j):
        assert _poly_min_dist(zs, p) == min(
            abs(_seg_closest(a, b, p) - p) for a, b in zip(zs, zs[1:]))


def test_circle_position_needs_no_pass_off_the_band(monkeypatch):
    # a certificate circle in the chart at 2: chebyshev's critical point
    # sits at -2, far outside it; the center is inside
    center = 3e-30 + 1e-30j
    monkeypatch.setattr(pullbacklab.certify, "_winding", None)
    monkeypatch.setattr(pullbacklab.certify, "_poly_min_dist", None)
    monkeypatch.setattr(pullbacklab.certify, "_circle", None)
    assert _circle_position(-2 + 0j, center, 1e-30, 512) == (0, 2.0)
    assert _circle_position(center, center, 1e-30, 512)[0] == 1


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


coef = point.filter(lambda c: c == 0 or abs(c) > 1e-3)
lead = point.filter(lambda c: abs(c) > 0.1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(coef, min_size=2, max_size=8), lead,
       st.lists(coef, max_size=3), lead, point,
       st.floats(0.01, 2.0), point, st.integers(4, 64))
@example([-2, 0], 1, [], 1, 2 + 0.1j, 0.3, 2 + 0j, 512)  # chebyshev's chart
def test_apply_map_bit_exact(num, num_lead, den, den_lead, center, radius,
                             anchor, n):
    # each sample's image is the value evaluate_with_derivative gives, to
    # the bit: the value-only RationalMap.__call__ runs the same operations
    try:
        g = RationalMap(num + [num_lead], den + [den_lead])
    except ValueError:  # a shared root
        assume(False)
    zs = _circle(center, radius, n)
    for gm in (g, g.shifted(anchor)):
        want = [gm.evaluate_with_derivative(z)[0] for z in zs]
        if any(w is INF or abs(w) > 1e12 for w in want):
            with pytest.raises(InjectivityUndetermined):
                _apply_map(gm, zs)
            continue
        assert [_bits(w) for w in _apply_map(gm, zs)] == \
            [_bits(w) for w in want]


def test_apply_map_leaves_chart():
    unit = _circle(0j, 1.0, 64)  # sample 0 is exactly 1
    with pytest.raises(InjectivityUndetermined):
        _apply_map(RationalMap([0, 0, 1], [-1, 0, 1]), unit)  # pole at 1
    with pytest.raises(InjectivityUndetermined):
        _apply_map(RationalMap([0, 0, 1e12 * (1 + 1e-9)]), unit)
    assert max(map(abs, _apply_map(RationalMap([0, 0, 1e12 * (1 - 1e-9)]),
                                   unit))) <= 1e12


def test_circle_matches_numpy_linspace_samples():
    # the samples np.exp drew on np.linspace angles, to the bit, so that
    # stored certificate curves keep their bytes
    for n in (8, 64, 256, 512):
        th = np.linspace(0.0, 2 * math.pi, n + 1)
        want = (1e-30 + 2e-31j) + 3e-32 * np.exp(1j * th)
        got = _circle(1e-30 + 2e-31j, 3e-32, n)
        assert [_bits(w) for w in got] == [_bits(complex(w)) for w in want]


def test_emit_and_verify_certificate():
    run, trace, status = finished(CHEB, BranchDatum(0.0, math.sqrt(2)),
                                  max_iters=2000)
    cert = certify_obstructed(run, engine_version="test")
    assert cert is not None
    thr = 5 * math.pi * math.exp(run.d0_bound()) / ELL_STAR
    assert cert.step <= math.ceil((thr + 3) / 0.22)
    assert cert.modulus > cert.threshold
    assert cert.length_bound < ELL_STAR
    assert cert.inner_count_A >= 2 and cert.outer_count_A >= 2
    assert cert.inner_count_B <= 1 and cert.outer_count_B >= 2
    assert len(cert.representative_curves) == cert.k + 1
    assert verify_certificate(cert, run).ok


def test_certificate_modulus_growth():
    run, _, _ = finished(CHEB, BranchDatum(0.0, math.sqrt(2)), max_iters=2000)
    cert = certify_obstructed(run)
    for _ in range(4):
        run.pullback_step()
    nxt = emit_levy_certificate(run)
    per_step = (nxt.modulus - cert.modulus) / (nxt.step - cert.step)
    target = math.log(4) / (2 * math.pi)
    assert abs(per_step - target) < 0.1 * target


def _with_moved_curve(curves, idx, shift=0.0, scale=1.0):
    """The (center, vertex) curves with curve idx's center moved by shift
    times its size |center| + |vertex|, and its vertex scaled by scale."""
    center, vertex = curves[idx]
    center += shift * (abs(center) + abs(vertex))
    return curves[:idx] + ((center, scale * vertex),) + curves[idx + 1:]


def _with_stage_0(evidence, key, value):
    """The evidence with stage 0's ``key`` set to value."""
    out = copy.deepcopy(evidence)
    out["stages"][0][key] = value
    return out


def test_certificate_tamper_detection():
    run, _, _ = finished(CHEB, BranchDatum(0.0, math.sqrt(2)), max_iters=2000)
    cert = certify_obstructed(run)
    ann = cert.annulus
    curves = cert.representative_curves
    # each stored field, changed alone, fails with the messages naming the
    # field or the conditions the derived certificate breaks; the last
    # three overflow double range if a stored number feeds a formula
    tampers = [
        ("modulus", cert.modulus * 0.5, ["modulus mismatch"]),
        ("annulus", RoundAnnulus(ann.center, ann.log_rin - 5.0, ann.log_rout,
                                 anchor=ann.anchor),
         ["modulus mismatch", "essential-in-A side condition"]),
        ("k", cert.k + 1, ["k mismatch"]),
        ("d0_bound", cert.d0_bound * 1.1, ["d0 bound mismatch"]),
        ("threshold", cert.threshold * 2, ["threshold formula"]),
        ("length_bound", cert.length_bound * 1.01, ["length bound formula"]),
        ("length_bound", 2.0, ["length bound formula"]),
        ("inner_count_A", 1, ["side counts mismatch"]),
        ("inner_count_B", 2, ["side counts mismatch"]),
        ("outer_count_A", 1, ["side counts mismatch"]),
        ("outer_count_B", 3, ["side counts mismatch"]),
        ("representative_curves", _with_moved_curve(curves, 0, scale=1.5),
         ["curve 0 is not the annulus core circle"]),
        ("representative_curves", _with_moved_curve(curves, 1, shift=1e-6),
         ["re-lift of curve 0 does not match curve 1"]),
        ("representative_curves", _with_moved_curve(curves, 1, scale=1.5),
         ["re-lift of curve 0 does not match curve 1"]),
        ("cluster_labels", ("p0", "p2"), ["cluster labels mismatch"]),
        ("promotion_flag", not cert.promotion_flag,
         ["promotion flag mismatch"]),
        ("injectivity_evidence", {"samples": 1, "stages": [], "k": 9},
         ["injectivity evidence mismatch"]),
        ("injectivity_evidence", _with_stage_0(
            cert.injectivity_evidence, "critical_clearance",
            cert.injectivity_evidence["stages"][0]["critical_clearance"]
            * 1.01),
         ["injectivity evidence mismatch"]),
        # the derived residual is 0.0, so even a denormal-scale one differs
        ("injectivity_evidence", _with_stage_0(
            cert.injectivity_evidence, "core_lift_residual", 1e-300),
         ["injectivity evidence mismatch"]),
        ("k", 2000, ["k mismatch"]),
        ("d0_bound", 1e6, ["d0 bound mismatch"]),
        ("annulus", RoundAnnulus(ann.center, ann.log_rin, 1000.0,
                                 anchor=ann.anchor),
         ["modulus mismatch", "configuration point p0 inside the annulus "
          "ring"]),
    ]
    for name, value, messages in tampers:
        bad = copy.copy(cert)
        setattr(bad, name, value)
        result = verify_certificate(bad, run)
        assert not result
        for message in messages:
            assert any(m.startswith(message) for m in result.mismatches), \
                (name, message, result.mismatches)


def certified(g, datum):
    """An obstructed run stepped on to its certificate, and the certificate."""
    run, _, _ = finished(g, datum, max_iters=2000)
    return run, certify_obstructed(run)


# z^2 - 2 conjugated by w = 1/(z - 2): its repelling fixed puncture is oo
AT_INFINITY = (RationalMap([0, 0, 1], [1, 4]),
               BranchDatum(-0.5, 1 / (math.sqrt(2) - 2)))


def test_certificate_json_roundtrip():
    # each curve is stored as its center and vertex, in the chart of the
    # annulus's anchor, and read back bit for bit; neither windings nor
    # enclosed labels are stored
    def bits(curves):
        return [tuple((z.real.hex(), z.imag.hex()) for z in pair)
                for pair in curves]
    for (run, cert), anchor in (
            (certified(CHEB, BranchDatum(0.0, math.sqrt(2))), [2.0, 0.0]),
            (certified(*AT_INFINITY), "inf")):
        obj = json.loads(json.dumps(cert.to_json()))
        assert obj["annulus"]["anchor"] == anchor
        assert [sorted(c) for c in obj["representative_curves"]] == \
            [["center", "vertex"]] * (cert.k + 1)
        assert not {"curve_windings", "curve_enclosed_labels"} & obj.keys()
        back = LevyCertificate.from_json(obj)
        assert bits(back.representative_curves) == \
            bits(cert.representative_curves)
        assert back.modulus == cert.modulus
        assert back.cluster_labels == cert.cluster_labels
        assert back.annulus.anchor == cert.annulus.anchor
        assert verify_certificate(back, run).ok


def test_certificate_at_infinity():
    # the chebyshev run seen in the chart w = 1/(z - 2) is certified in the
    # chart at its cluster's puncture oo, at chebyshev's step and with its
    # annulus; d0 bounds the first step in each run's own coordinates
    run, cert = certified(*AT_INFINITY)
    _, ref = certified(CHEB, BranchDatum(0.0, math.sqrt(2)))
    assert cert.step == ref.step == 116 and is_inf(cert.annulus.anchor)
    assert verify_certificate(cert, run).ok
    for name in ("k", "modulus", "inner_count_A", "inner_count_B",
                 "outer_count_A", "outer_count_B", "injectivity_evidence"):
        assert getattr(cert, name) == getattr(ref, name), name
    assert (cert.annulus.log_rin, cert.annulus.log_rout) == \
        (ref.annulus.log_rin, ref.annulus.log_rout)
    assert abs(cert.annulus.center - ref.annulus.center) <= \
        1e-12 * abs(ref.annulus.center)
    assert cert.d0_bound != ref.d0_bound and \
        abs(cert.threshold - ref.threshold) < 0.1
    # the same annulus in the chart at the puncture 0 is no certificate
    obj = cert.to_json()
    obj["annulus"]["anchor"] = [0.0, 0.0]
    result = verify_certificate(LevyCertificate.from_json(obj), run)
    assert not result
    assert any(m.startswith("side counts mismatch")
               for m in result.mismatches), result.mismatches


def test_no_emission_on_early_step():
    run = init_run(CHEB, [BranchDatum(0.0, math.sqrt(2))])
    run.pullback_step()
    assert emit_levy_certificate(run) is None  # configuration well separated


def test_emission_floor_reason():
    # a run whose threshold pushes the cluster scale below double range
    # declines to certify, with an explicit reason
    b = -1 / 3 + 0.5j
    run = init_run(SQUARE, [BranchDatum(b, b ** 0.5)], extra_punctures=[1.0])
    cert, note = certify_obstructed(run, with_reason=True, max_steps=50)
    assert cert is None
    assert "below the double-range" in note


def test_note_names_the_last_declined_attempt():
    # k = 2: at step 700 the widest annulus's modulus is past the
    # threshold, and its injectivity test fails at stage 1; the note keeps
    # the prefix perfbench reads and names the step and the stage
    b = 0.6 + 0.1j
    run = init_run(SQUARE, [BranchDatum(b, cmath.sqrt(b))],
                   extra_punctures=[1.0, -1.0])
    while run.n < 700:
        run.pullback_step()
    cert, note = certify_obstructed(run, with_reason=True, max_steps=700)
    assert cert is None
    assert note == (
        "no qualifying annulus within 700 steps; last attempt at step 700: "
        "injectivity test failed: outer boundary image not star-shaped "
        "about the image of the annulus center at stage 1")
    # a run whose attempts decline no cluster keeps the bare note
    run = init_run(CHEB, [BranchDatum(0.0, math.sqrt(2))])
    assert certify_obstructed(run, with_reason=True, max_steps=3) == (
        None, "no qualifying annulus within 3 steps")


def test_note_names_the_first_declined_attempt_too():
    # z^6 with the extra puncture 1 (generated seed 1, z6.m1.b0): the
    # attempts at steps 123-385 fail at the outer boundary image, those
    # from step 386 at an inner image below the star test's range; the
    # note names both, first and last
    b, branch = 0.6241699334064328 + 0.4011651406355984j, \
        0.9471670886904828 + 0.09044989943778066j
    run = init_run(RationalMap([0] * 6 + [1]), [BranchDatum(b, branch)],
                   extra_punctures=[1.0])
    cert, note = certify_obstructed(run, with_reason=True, max_steps=390)
    assert cert is None
    assert note == (
        "no qualifying annulus within 390 steps; first attempt at step 123: "
        "injectivity test failed: outer boundary image not star-shaped "
        "about the image of the annulus center at stage 0; last attempt at "
        "step 390: injectivity test failed: inner boundary image outside "
        "the star test's range at stage 0")


def test_threshold_is_taken_once_per_certification_call(monkeypatch):
    # d0 and k are fixed once the run has stepped, so one call takes the
    # threshold and its floor test once, however long its tail; a first
    # step without a certified bound ends the call before any step
    calls = []
    log_threshold = certify._log_threshold
    monkeypatch.setattr(certify, "_log_threshold",
                        lambda run: calls.append(run.n) or log_threshold(run))
    run = init_run(CHEB, [BranchDatum(0.0, math.sqrt(2))])
    cert, note = certify_obstructed(run, with_reason=True)
    assert (cert.step, note) == (116, "emitted at step 116")
    assert calls == [1]
    crossing = init_run(CHEB, [BranchDatum(0.0, math.sqrt(2))],
                        trivial=[TrivialMarkedSpec(-2.0, 0.0, start=0.5)])
    crossing.pullback_step()
    cert, note = certify_obstructed(crossing, with_reason=True, max_steps=50)
    assert (cert, crossing.n, calls) == (None, 1, [1, 1])
    assert note == ("no certified first-step bound: step 1 bound not "
                    "certified: connector of m0 crosses another marked "
                    "coordinate")


# -- the step configuration against the reading it replaced ------------------

def _reference_chart_entries(run, n, shift):
    """The chart entries as read from the tracks, each kind of point
    placed by its own rule."""
    entries = []
    for lab, p in run.punctures:
        entries.append((lab, "P", None if is_inf(p) else p - shift))
    for track in list(run.marked) + list(run.trivial):
        mode, value = track.history[n] if n < len(track.history) \
            else track.history[-1]
        if mode == "free":
            entries.append((track.label, "marked", value - shift))
        else:
            chart = track.anchor.chart
            eta = value.to_complex()
            if eta is None:
                raise NoSeparatingAnnulus(
                    "deviation below double range; certificate chart cannot "
                    "represent the cluster at step %d" % n)
            pos = (track.anchor.puncture - shift) + chart.eps_star + eta
            entries.append((track.label, "marked", pos))
    return entries


def _reference_log_dist(run, n, e1, e2):
    """The log plane distance of two points of the step configuration,
    given as (label, kind), read from the tracks by label: tracks anchored
    at one puncture by their deviations, a track and its own puncture by
    |eta|, any other pair by the points' positions (an anchored track at
    its puncture)."""
    _LN2 = math.log(2.0)

    def resolve(label, kind):
        if kind == "P":
            return ("point", run.punctures.point(label))
        for track in run.marked:
            if track.label == label:
                mode, value = track.history[n]
                if mode == "anchored":
                    return ("anchored", (track.anchor, value))
                return ("point", value)
        for track in run.trivial:
            if track.label == label:
                return ("point", track.history[n][1])
        raise KeyError(label)

    r1, r2 = resolve(e1[0], e1[1]), resolve(e2[0], e2[1])
    if r1[0] == "anchored" and r2[0] == "anchored":
        a1, eta1 = r1[1]
        a2, eta2 = r2[1]
        if a1.index == a2.index:
            try:
                gap = eta1.sub(eta2)
            except ValueError:
                return -math.inf
            return gap.log2_abs() * _LN2
        if is_inf(a1.puncture) or is_inf(a2.puncture):
            return math.inf
        return math.log(max(abs(a1.puncture - a2.puncture), 1e-300))
    if r1[0] == "anchored" or r2[0] == "anchored":
        (a, eta), other = (r1[1], r2) if r1[0] == "anchored" else (r2[1], r1)
        q = other[1]
        if chordal(a.puncture, q) <= 1e-12:
            return eta.log2_abs() * _LN2
        if is_inf(q) or is_inf(a.puncture):
            return math.inf
        return math.log(max(abs(a.puncture - q), 1e-300))
    p, q = r1[1], r2[1]
    if is_inf(p) or is_inf(q):
        return math.inf
    d = abs(p - q)
    return math.log(d) if d > 0 else -math.inf


def _bits(x):
    return None if x is None else struct.pack("<dd", x.real, x.imag)


def _bit_entries(entries, *args):
    """The chart entries, positions as bit patterns, or the error raised."""
    try:
        return [(lab, kind, _bits(z)) for lab, kind, z in entries(*args)]
    except NoSeparatingAnnulus as exc:
        return str(exc)


DEMO_CONFIGS = sorted(glob.glob(os.path.join(
    os.path.dirname(pullbacklab.__file__), "demo_configs", "*.json")))


def _reference_runs():
    """The corpus configs (trivial_point has a trivial track), a k = 2 run
    whose two marked points anchor at the same puncture, and a run into
    the alpha fixed point of z^2 + c, which is no double (eps* != 0)."""
    for path in DEMO_CONFIGS:
        yield os.path.basename(path), _build_run(load_config(path))
    yield "two_anchored", init_run(CHEB, [BranchDatum(0.0, math.sqrt(2)),
                                          BranchDatum(0.5, math.sqrt(2.5))])
    c, b = -1.5436890126920764, 0.3 + 0.2j
    yield "alpha", init_run(RationalMap([c, 0, 1]),
                            [BranchDatum(b, -cmath.sqrt(b - c))])


def test_step_chart_entries_match_the_track_reading():
    for name, run in _reference_runs():
        for n in range(1, 221):
            run.pullback_step()
            for shift in [0j] + [p for p in run.punctures.points
                                 if not is_inf(p)]:
                assert _bit_entries(_step_chart_entries, run, shift, n) == \
                    _bit_entries(_reference_chart_entries, run, n, shift), \
                    (name, n, shift)
    with pytest.raises(ValueError, match="^run has no step 221$"):
        _step_chart_entries(run, None, run.n + 1)


def test_step_chart_entries_across_oo():
    # a point anchored at oo charted at the finite puncture 0, and one
    # anchored at the finite puncture 2 charted at oo, sit at their
    # materialized positions; in the chart at their own puncture, at
    # eps* + eta
    for (g, datum), q in ((AT_INFINITY, 0j),
                          ((CHEB, BranchDatum(0.0, math.sqrt(2))), INF)):
        run = init_run(g, [datum])
        for _ in range(40):
            run.pullback_step()
        track = run.marked[0]
        p = track.anchor.puncture
        assert is_inf(p) != is_inf(q)
        entries = {lab: z for lab, _, z in _step_chart_entries(run, q, 40)}
        want = chart_coordinate(q, track.position())
        assert entries["m0"] == want and not is_inf(want)
        # the chart's oo is None: the puncture oo in the chart at 0
        assert [lab for lab, z in entries.items() if z is None] == \
            ([] if is_inf(q) else ["p2"])
        own = {lab: z for lab, _, z in _step_chart_entries(run, p, 40)}
        assert own["m0"] == track.anchor.chart.eps_star + \
            track.history[-1][1].to_complex()


def _all_pairs_clusters(run, n, log_r):
    # emission's clustering as first written: every pair of the step-n
    # configuration measured (_reference_log_dist), the union-find built
    # at every attempt; each cluster as its puncture and its labels
    points = [(lab, "P") for lab in run.punctures.labels] + [
        (t.label, "marked") for t in list(run.marked) + list(run.trivial)]
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if _reference_log_dist(run, n, points[i], points[j]) <= log_r:
                parent[find(i)] = find(j)
    clusters = {}
    for i in range(len(points)):
        clusters.setdefault(find(i), []).append(points[i])
    return [(next((run.punctures.point(lab) for lab, kind in c
                   if kind == "P"), None), [lab for lab, _ in c])
            for c in clusters.values() if len(c) >= 2]


def _obstructed_corpus_runs():
    """The obstructed corpus runs whose cluster scale is above the
    emission floor, which certify_obstructed steps on, and the run
    anchored at oo, each run to its verdict."""
    for path in DEMO_CONFIGS:
        run = _build_run(load_config(path))
        trace, _ = run_until(run)
        if classify_run(trace, run.g, run.punctures,
                        tol=run.tol).verdict == "obstructed" and \
                certify._log_threshold(run) <= \
                certify._FLOOR_LOG_THRESHOLD:
            yield os.path.basename(path), run
    run, _, _ = finished(*AT_INFINITY, max_iters=2000)
    yield "infinity", run


def test_links_first_clustering_is_all_pairs_clustering_at_every_tail_step():
    # at every step of each certification tail the clusters are those the
    # all-pairs clustering gives, in the same order; the emitted
    # certificate's windings and enclosed labels, which the nesting test
    # writes, are what _winding gives on its stored curves about the
    # center and about every finite point of the step
    names, linked = [], 0
    for name, run in _obstructed_corpus_runs():
        names.append(name)
        while True:
            run.pullback_step()
            log_r = -certify.TWO_PI * (certify._threshold_product(run)
                                       / ELL_STAR)
            got = certify._clusters(run, run.n, log_r)
            assert got == _all_pairs_clusters(run, run.n, log_r), (name, run.n)
            linked += bool(got)
            cert = emit_levy_certificate(run)
            if cert is not None or run.n > 2000:
                break
        assert cert is not None, name
        _assert_sampled_curve_fields(cert, run)
    assert len(names) == 5 and linked >= 5


def _assert_sampled_curve_fields(cert, run):
    """What the nesting test shows and the certificate does not store:
    _winding on each stored curve's polygon is 1 about the annulus center
    and, about every finite point of the step, 1 for the cluster's labels
    and 0 for the rest."""
    ann = cert.annulus
    curves = [_circle(c, v, certify.N_CURVE)
              for c, v in cert.representative_curves]
    entries = [(lab, z) for lab, _, z in _step_chart_entries(
        run, ann.anchor, cert.step) if z is not None]
    for c in curves:
        assert _winding(c, ann.center) == 1
        windings = {lab: _winding(c, z) for lab, z in entries}
        assert set(windings.values()) <= {0, 1}, windings
        assert sorted(cert.cluster_labels) == sorted(
            lab for lab, w in windings.items() if w == 1)


def test_links_by_deviation_at_one_anchor():
    # two marked points of z^2 - 2 anchored at the puncture 2, their
    # deviations a relative 1e-6 apart: with the scale between their gap
    # and the nearer |eta| the two tracks are a cluster without their
    # puncture, above both one with it, and at every step each is the
    # clustering every pair of the configuration gives
    run = init_run(CHEB, [BranchDatum(0.0, math.sqrt(2)),
                          BranchDatum(1.6e-6, math.sqrt(2 + 1.6e-6))])
    ln2 = math.log(2.0)
    steps = 0
    for n in range(1, 301):
        run.pullback_step()
        (m0, eta0), (m1, eta1) = [t.history[n] for t in run.marked]
        if (m0, m1) != ("anchored", "anchored"):
            continue
        steps += 1
        gap = eta0.log2_dist(eta1) * ln2
        near, far = sorted((eta0.log2_abs() * ln2, eta1.log2_abs() * ln2))
        assert 5e-7 < math.exp(gap - near) < 2e-6, n
        for log_r, want in (((gap + near) / 2, [(None, ["m0", "m1"])]),
                            (far + 1.0, [(2 + 0j, ["p1", "m0", "m1"])])):
            got = certify._clusters(run, n, log_r)
            assert got == want == _all_pairs_clusters(run, n, log_r), \
                (n, log_r)
    assert steps == 298


# -- closed forms at depth: the anchor chart's linear part -------------------

@functools.lru_cache(maxsize=1)
def _corpus_certificates():
    """(name, run, certificate) for each certified corpus run and the run
    anchored at oo, each run stepped to its certificate."""
    return tuple((name, run, certify_obstructed(run))
                 for name, run in _obstructed_corpus_runs())


def test_closed_forms_decide_every_corpus_certificate(monkeypatch):
    # the inner boundary image and the representative lifts come from the
    # linear part on all 4 demo certificates and the oo one: derivation
    # succeeds with the inner circle's mapping refused and with no lift,
    # and gives the stored certificate
    certs = _corpus_certificates()
    assert [name for name, _, _ in certs] == [
        "chebyshev.json", "iterate_composition.json", "squaring_a.json",
        "squaring_b.json", "infinity"]
    apply_map = certify._apply_map
    for name, run, cert in certs:
        ann = cert.annulus
        gm, _ = run.g.chart(ann.anchor)
        assert certify._inner_reach(gm, ann.center, ann.r_in) is not None
        assert certify._linear_lift(gm, ann.center,
                                    ann.core_radius()) is not None
        inner_first = _circle(ann.center, ann.r_in, N_SAMP)[0]

        def refuse_inner(gm, zs, inner_first=inner_first):
            if zs[0] == inner_first:
                raise InjectivityUndetermined("inner circle mapped")
            return apply_map(gm, zs)

        def refuse(*args, **kw):
            raise AssertionError("lift on a closed form")

        with monkeypatch.context() as m:
            m.setattr(certify, "_apply_map", refuse_inner)
            m.setattr(certify, "lift_closed_curve", refuse)
            fields, faults = _derive_certificate(run, cert.step, ann)
            assert faults == [] and verify_certificate(cert, run).ok, name
        assert fields["injectivity_evidence"] == cert.injectivity_evidence
        assert fields["representative_curves"] == cert.representative_curves


def test_check_accepts_a_newton_lifted_curve():
    # the Newton lift of the core polygon is the polygon of curve 1 to
    # within 1e-15 of the curve's size, node for node, and a certificate
    # whose curve 1 takes its vertex from the Newton lift passes check
    for name, run, cert in _corpus_certificates():
        (c0, v0), (c1, v1) = cert.representative_curves
        core = Path(_circle(c0, v0, certify.N_CURVE))
        lift = _circle(c1, v1, certify.N_CURVE)
        gm, _ = run.g.chart(cert.annulus.anchor)
        start = _newton_preimage(gm, core.start, core.start)[0]
        res, closes = lift_closed_curve(gm, core, start,
                                        check_clearance=False)
        assert closes and len(res.lifted) == len(lift), name
        size = abs(c1) + abs(v1)
        assert all(abs(a - b) <= 1e-15 * size
                   for a, b in zip(res.lifted.nodes, lift)), name
        newton = copy.copy(cert)
        newton.representative_curves = ((c0, v0), (c1, res.lifted.start - c1))
        assert verify_certificate(newton, run).ok, name


def _corpus_anchor_charts():
    """(name, map, anchor) for each corpus puncture that a certificate is
    anchored at."""
    iterate = RationalMap([2, 0, -4, 0, 1])   # (z^2 - 2)^2 - 2
    return (("chebyshev", CHEB, 2.0 + 0j), ("squaring", SQUARE, 1.0 + 0j),
            ("iterate", iterate, 2.0 + 0j), ("infinity", AT_INFINITY[0], INF))


def test_closed_forms_agree_with_the_sampled_reference():
    # random deep annuli at the corpus anchors, r_in from 1e-200 to 1e-20,
    # where the closed forms always decide, and annuli about their margins:
    # wherever the closed form decides, the sampled stage-0 test passes
    # with a reach no greater, and the closed-form lift, which Rouche's
    # condition accepts on every annulus here, is the Newton lift to
    # within the bound
    rng = random.Random(26)
    seen = collections.Counter()
    for name, g, q in _corpus_anchor_charts():
        gm, _ = g.chart(q)
        for deep in [True] * 12 + [False] * 12:
            r_in = 10 ** (rng.uniform(-200, -20) if deep
                          else rng.uniform(-8, -4))
            center = r_in * rng.random() * cmath.exp(
                1j * rng.uniform(-math.pi, math.pi))
            radius = math.sqrt(r_in * 10 ** rng.uniform(-3, -1)) if deep \
                else 10 ** rng.uniform(-6, -3)
            reach = certify._inner_reach(gm, center, r_in)
            lift = certify._linear_lift(gm, center, radius)
            seen[deep, reach is not None, lift is not None] += 1
            if reach is not None:
                radii = _star_radii(
                    _apply_map(gm, _circle(center, r_in, N_SAMP)), gm(center))
                assert radii is not None and radii[1] <= reach, (name, r_in)
            if lift is not None:
                lam = lift[0]
                core = Path(_circle(center, radius, certify.N_CURVE))
                start = _newton_preimage(gm, core.start, core.start)[0]
                res, closes = lift_closed_curve(gm, core, start,
                                                check_clearance=False)
                s = (abs(center) + radius) * (1 + 1e-12)
                slack = certify._linear_part(gm, s)[1] / abs(lam) + 1e-15 * s
                assert closes and all(
                    abs(z / lam - w) <= slack
                    for z, w in zip(core.nodes, res.lifted.nodes)), \
                    (name, radius)
    assert seen[True, True, True] == 48
    assert {key[1:] for key in seen if not key[0]} == {
        (True, True), (False, True)}


def test_linear_part_bounds_the_map_on_the_disk():
    # seeded rational maps with gm(0) = 0 and disks up to and past half
    # the smallest pole: where a bound is given, |gm(w) - lambda w| is
    # within it on the circle |w| = s, where the disk's maximum lies
    rng = random.Random(27)

    def coef():
        return complex(rng.gauss(0, 1), rng.gauss(0, 1))

    outcomes = collections.Counter()
    for _ in range(400):
        gm = RationalMap([0, coef()] + [coef() for _ in range(
            rng.randrange(3))], [coef() for _ in range(rng.randrange(1, 4))],
            check=False)
        poles = [abs(p) for p in np.roots(gm.denominator[::-1])]
        s = min(poles + [1.0]) * 10 ** rng.uniform(-1.5, 0)
        lam, bound = certify._linear_part(gm, s)
        outcomes[bound == math.inf] += 1
        if bound < math.inf:
            assert lam == gm.numerator[1] / gm.denominator[0]
            assert max(abs(gm(w) - lam * w)
                       for w in _circle(0j, s, 256)) <= bound
    assert outcomes[True] > 30 and outcomes[False] > 30, outcomes


def test_closed_forms_decline_at_their_edges():
    # each condition of the closed forms past its edge: the alpha fixed
    # point of z^2 + c, no double (gm(0) != 0), a shallow annulus, a disk
    # too wide for Rouche's condition, an attracting fixed point (lifts
    # leave the disk), an inner image below _star_radii's range, and one
    # past _apply_map's
    c = -1.5436890126920764
    gm, _ = RationalMap([c, 0, 1]).chart((1 - cmath.sqrt(1 - 4 * c)) / 2)
    assert gm.numerator[0] != 0
    assert certify._linear_part(gm, 1e-40)[1] == math.inf
    assert certify._inner_reach(gm, 1e-40 + 0j, 1e-40) is None
    gm, _ = CHEB.chart(2.0 + 0j)
    assert certify._inner_reach(gm, 0.01 + 0j, 0.02) is None
    assert certify._linear_lift(gm, 0.5 + 0j, 0.3) is None
    assert certify._inner_reach(gm, 1e-9 + 0j, 1e-9) is not None
    gm, _ = SQUARE.chart(1.0 + 0j)
    assert certify._linear_lift(gm, 1e-20, 1e-20) is not None
    attracting, _ = RationalMap([0, 0.5, 1]).chart(0j)
    assert certify._linear_lift(attracting, 1e-20, 1e-20) is None
    with pytest.raises(ValueError, match="outside the star test's range"):
        _star_radii(_apply_map(gm, _circle(0j, 1e-305, N_SAMP)), 0j)
    assert certify._inner_reach(gm, 0j, 1e-305) is None
    with pytest.raises(InjectivityUndetermined, match=(
            "^inner boundary image outside the star test's range at stage "
            "0$")):
        injectivity_test(SQUARE, RoundAnnulus.from_radii(
            0j, 1e-305, 0.5, anchor=1.0 + 0j), 1)
    assert certify._inner_reach(gm, 0j, 1e-270) is not None
    # 4 w, with a common factor that keeps it a degree-2 map
    gm = RationalMap([0, 4, 1e-12], [1, 2.5e-13], check=False)
    with pytest.raises(InjectivityUndetermined):
        _apply_map(gm, _circle(3e11 + 0j, 1e9, N_SAMP))
    assert certify._inner_reach(gm, 3e11 + 0j, 1e9) is None
    assert certify._inner_reach(gm, 3e9 + 0j, 1e9) is not None


def test_linear_lift_is_rouches_condition():
    # CHEB's chart at 2 is 4w + w^2, for which _linear_part gives B = 4 s^2
    # (twice |w|^2 <= s^2, twice again for the float sums): the lifts exist
    # while 3 s > 4 s^2, and lie within B / 3 of the nodes over 4^j
    gm, _ = CHEB.chart(2.0 + 0j)
    s = 0.03 * (1 + 1e-12)
    assert certify._linear_part(gm, s) == (4, pytest.approx(4 * s * s))
    lam, dist = certify._linear_lift(gm, 0.01 + 0j, 0.02)
    assert lam == 4 and dist == pytest.approx(0.0012)
    # s = 0.8: 3 s = 2.4 <= B = 2.56
    assert certify._linear_lift(gm, 0.5 + 0j, 0.3) is None


def test_derivation_fails_where_the_linear_lift_declines(monkeypatch):
    # with _linear_part's bound at Rouche's edge, (|lambda| - 1) s, the
    # linear lift declines on every corpus certificate, and the derivation
    # returns its curve fault: no Newton solve or lift is tried in its place
    certs = _corpus_certificates()

    def refuse(*args, **kw):
        raise AssertionError("Newton solve or lift")

    def at_the_edge(gm, s, linear_part=certify._linear_part):
        lam, _ = linear_part(gm, s)
        return lam, (abs(lam) - 1.0) * s

    monkeypatch.setattr(lifting, "_newton_preimage", refuse)
    monkeypatch.setattr(lifting, "lift_closed_curve", refuse)
    monkeypatch.setattr(certify, "lift_closed_curve", refuse)
    monkeypatch.setattr(certify, "_linear_part", at_the_edge)
    for name, run, cert in certs:
        ann = cert.annulus
        gm, _ = run.g.chart(ann.anchor)
        assert certify._linear_lift(gm, ann.center,
                                    ann.core_radius()) is None, name
        fields, faults = _derive_certificate(run, cert.step, ann)
        assert faults == ["the anchor chart's linear part shows no chain of "
                          "%d closing degree-1 lifts of the core curve"
                          % cert.k], name
        assert "representative_curves" not in fields
        assert verify_certificate(cert, run).mismatches == faults, name


def test_nesting_test_on_synthetic_annuli():
    # lifts z / lambda^j of the core circle: where the test passes they wind
    # once about the inner disk and not about the outer circle; where it
    # fails, the message names the first lift that does not nest, and the
    # sampled winding shows that lift enclosing too little or too much
    def annulus(center, r_in, r_out):
        return RoundAnnulus.from_radii(center, r_in, r_out, anchor=0j)

    def windings(ann, lam, k, q):
        return [_winding(_circle(c, v, certify.N_CURVE), q)
                for c, v in certify._representative_curves(ann, lam, k)]

    nested = annulus(1e-31 + 0j, 1e-30, 1e-10)
    for lam in (4 + 0j, -3j, 1e3 + 1e3j):
        assert certify._nesting_fault(nested, lam, 2, 0.0) is None
        assert windings(nested, lam, 2, nested.center + 1e-30) == [1, 1, 1]
        assert windings(nested, lam, 2, nested.center - 1e-10j) == [0, 0, 0]
    # the center 1e-21 off the anchor: lift 2 is centred 0.94e-21 away
    # from it with circumradius 0.63e-21, and misses the inner disk
    offset = annulus(1e-21 + 0j, 1e-30, 1e-10)
    assert certify._nesting_fault(offset, 4 + 0j, 1, 0.0) is None
    assert certify._nesting_fault(offset, 4 + 0j, 3, 0.0) == \
        "lift 2 of the core curve does not nest in the annulus"
    assert windings(offset, 4 + 0j, 2, offset.center) == [1, 1, 0]
    # |lambda| < 1: lift 1 has circumradius 1e-19, past r_out = 1e-20
    wide = annulus(0j, 1e-30, 1e-20)
    assert certify._nesting_fault(wide, 1e-6j, 1, 0.0) == \
        "lift 1 of the core curve does not nest in the annulus"
    assert windings(wide, 1e-6j, 1, 1e-20 + 0j) == [0, 1]
    # the core itself (lift 0) in a ring too thin for its inscribed circle
    thin = annulus(0j, 1.0, 1.0 + 1e-6)
    assert certify._nesting_fault(thin, 4 + 0j, 1, 0.0) == \
        "lift 0 of the core curve does not nest in the annulus"
    # the true lift within the lift distance of lift 1, whose inscribed
    # circle, radius 2.4998e-21, clears the inner disk by just under that
    for dist in (0.0, 2e-21):
        assert certify._nesting_fault(nested, 4 + 0j, 1, dist) is None
    assert certify._nesting_fault(nested, 4 + 0j, 1, 3e-21) == \
        "lift 1 of the core curve does not nest in the annulus"


def test_nesting_test_covers_the_rounding_of_the_nodes():
    # cores whose inscribed circle clears the inner disk by 1e-16 to 1e-2
    # of the radius, centred up to 1e8 radii off the chart origin, where
    # the nodes' rounding reaches 1e-8 of the radius: wherever the test
    # passes, the stored core winds 1 about the inner disk's points in the
    # directions of its edge midpoints, where the inscribed circle touches,
    # and 0 about the outer circle's
    rng = random.Random(28)
    n = certify.N_CURVE
    outcomes = collections.Counter()
    for _ in range(300):
        r = 10 ** rng.uniform(-12, 0)
        center = r * 10 ** rng.uniform(0, 8) * cmath.exp(
            1j * rng.uniform(-math.pi, math.pi))
        r_in = r * math.cos(math.pi / n) * (1 - 10 ** rng.uniform(-16, -2))
        ann = RoundAnnulus(center, math.log(r_in),
                           2 * math.log(r) - math.log(r_in), anchor=0j)
        fault = certify._nesting_fault(ann, 1 + 0j, 0, 0.0)
        outcomes[fault is None] += 1
        if fault is not None:
            continue
        core = _circle(*certify._representative_curves(ann, 1 + 0j, 0)[0], n)
        for m in range(0, n, 8):
            u = cmath.exp(1j * (m + 0.5) * 2 * math.pi / n)
            inner, outer = center + ann.r_in * u, center + ann.r_out * u
            if abs(inner - center) <= ann.r_in:
                assert _winding(core, inner) == 1, (center, r, m)
            if abs(outer - center) >= ann.r_out:
                assert _winding(core, outer) == 0, (center, r, m)
    assert outcomes[True] > 50 and outcomes[False] > 50, outcomes


def test_promotion_flag_is_the_length_bound_below_the_shortened_ell_star():
    # length_bound < ell* e^{-k d0}, computed here; it is False on all five
    # certificates, whose length bounds are below ell* itself
    for name, run, cert in _corpus_certificates():
        want = cert.length_bound < ELL_STAR * math.exp(-cert.k * cert.d0_bound)
        assert cert.promotion_flag == want and not want, name
        assert cert.length_bound < ELL_STAR, name


# -- forgeries that each fail one condition alone ---------------------------
#
# Each edits one stored field of an honest certificate (its JSON form),
# rewrites every other stored field the edit moves to the derived value,
# and returns the exact messages check must give.

def _forge_k_2000(payload, run):
    # k far past the run's: (k + 4) pi e^{k d0} overflows double range if
    # the stored k feeds a formula
    derived = payload["k"]
    payload["k"] = 2000
    return ["k mismatch: stored k 2000, derived %d" % derived]


def _forge_d0_bound(payload, run):
    # d0 one part in a million above the derived bound
    derived = payload["d0_bound"]
    payload["d0_bound"] = derived * (1 + 1e-6)
    return ["d0 bound mismatch: stored d0_bound %s, derived %s"
            % (reprlib.repr(payload["d0_bound"]), reprlib.repr(derived))]


def _forge_modulus(payload, run):
    # the stored modulus one part in a billion above the derived one
    derived = payload["modulus"]
    payload["modulus"] = derived * (1 + 1e-9)
    return ["modulus mismatch: stored modulus %s, derived %s"
            % (reprlib.repr(payload["modulus"]), reprlib.repr(derived))]


def _forge_length_bound(payload, run):
    # the stored length bound one part in a million above the derived one
    derived = payload["length_bound"]
    payload["length_bound"] = derived * (1 + 1e-6)
    return ["length bound formula mismatch: stored length_bound %s, derived "
            "%s" % (reprlib.repr(payload["length_bound"]),
                    reprlib.repr(derived))]


def _forge_thin(payload, run):
    # the outer radius shrunk to 0.75 of the threshold modulus, the stored
    # modulus made to match (a check that accepted half the threshold
    # would pass it)
    ann = payload["annulus"]
    ann["log_rout"] = ann["log_rin"] + \
        certify.TWO_PI * 0.75 * payload["threshold"]
    payload["modulus"] = annulus_modulus(RoundAnnulus.from_json(ann))
    assert abs(payload["modulus"] / payload["threshold"] - 0.75) < 1e-12
    return ["modulus does not exceed threshold"]


def _forge_lone_point(payload, run):
    # an annulus about the marked point m0 alone, out to half the distance
    # of the nearest other point, its modulus the threshold plus one; the
    # stored modulus, side counts and cluster labels made to match
    ann = RoundAnnulus.from_json(payload["annulus"])
    n = payload["step"]
    entries = _step_chart_entries(run, ann.anchor, n)
    m0 = next(z for lab, _, z in entries if lab == "m0")
    log_rout = math.log(0.5 * min(abs(z - m0) for lab, _, z in entries
                                  if lab != "m0" and z is not None))
    lone = RoundAnnulus(
        m0, log_rout - certify.TWO_PI * (payload["threshold"] + 1.0),
        log_rout, anchor=ann.anchor)
    payload.update(annulus=lone.to_json(), modulus=annulus_modulus(lone),
                   inner_count_A=1, inner_count_B=0,
                   outer_count_A=len(entries) - 1,
                   outer_count_B=sum(kind == "P" for _, kind, _ in entries),
                   cluster_labels=["m0"])
    return ["essential-in-A side condition"]


def _forge_curve_node(payload, run):
    # curve 1's vertex, its node 0, moved by 1e-4 of the curve's size
    curve = payload["representative_curves"][1]
    size = math.hypot(*curve["center"]) + math.hypot(*curve["vertex"])
    curve["vertex"][0] += 1e-4 * size
    return ["re-lift of curve 0 does not match curve 1"]


def _forge_ring(payload, run):
    # r_out at 1.5 times the distance of the nearest point outside the
    # inner disk, which then sits in the outer half of the ring; the
    # modulus made to match (the annulus faults stop the derivation short
    # of the fields that read r_out further)
    ann = RoundAnnulus.from_json(payload["annulus"])
    n = payload["step"]
    dist, label = min((abs(z - ann.center), lab) for lab, _, z
                      in _step_chart_entries(run, ann.anchor, n)
                      if z is not None and abs(z - ann.center) > ann.r_in)
    payload["annulus"]["log_rout"] = math.log(1.5 * dist)
    payload["modulus"] = annulus_modulus(
        RoundAnnulus.from_json(payload["annulus"]))
    return ["configuration point %s inside the annulus ring" % label]


def _forge_two_punctures(payload, run):
    # the run at oo alone, whose cluster collapses at the puncture oo: in
    # the plane chart, an annulus about the two finite punctures, out to
    # just inside m0; its modulus, over the threshold, and the side counts
    # and cluster labels made to match
    n = payload["step"]
    entries = _step_chart_entries(run, None, n)
    inner = [(lab, z) for lab, kind, z in entries
             if kind == "P" and z is not None]
    center = sum(z for _, z in inner) / 2
    m0 = next(z for lab, _, z in entries if lab == "m0")
    ann = RoundAnnulus.from_radii(
        center, 1.05 * max(abs(z - center) for _, z in inner),
        0.95 * abs(m0 - center), anchor=None)
    payload.update(annulus=ann.to_json(), modulus=annulus_modulus(ann),
                   inner_count_A=2, inner_count_B=2, outer_count_A=2,
                   outer_count_B=1, cluster_labels=[lab for lab, _ in inner])
    assert payload["modulus"] > payload["threshold"]
    return ["non-essential-in-B side condition"]


@pytest.fixture(scope="module")
def certificate_files(tmp_path_factory):
    """(name, run, trace path, certificate path) of the 4 certified demos
    and the run at oo, each written by cli run."""
    out = tmp_path_factory.mktemp("certified")
    configs = {os.path.basename(path): path for path in DEMO_CONFIGS}
    configs["infinity"] = str(out / "infinity.json")
    with open(configs["infinity"], "w") as fh:  # AT_INFINITY
        json.dump({"name": "infinity", "map": {
            "numerator": [[0, 0], [0, 0], [1, 0]],
            "denominator": [[1, 0], [4, 0]]}, "marked": [{
                "type": "fixed", "basepoint": [-0.5, 0.0],
                "branch_point": [1 / (math.sqrt(2) - 2), 0.0]}]}, fh)
    found = []
    for name, run, _ in _corpus_certificates():
        assert main(["run", "--config", configs[name], "--out",
                     str(out)]) == 0
        base = str(out / name.replace(".json", ""))
        found.append((name, run, base + ".trace.jsonl",
                      base + ".certificate.json"))
    assert len(found) == 5
    return found


def _assert_forgery_fails(forge, run, trace, cert_path, forged, capsys):
    """The certificate file forged by ``forge`` fails with exactly the
    messages it returns, through verify_certificate and cli check."""
    with open(cert_path) as fh:
        payload = json.load(fh)
    want = forge(payload, run)
    result = verify_certificate(LevyCertificate.from_json(payload), run)
    assert result.mismatches == want, (cert_path, result.mismatches)
    with open(forged, "w") as fh:
        json.dump(payload, fh)
    capsys.readouterr()
    assert main(["check", "--trace", trace, "--cert", forged]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["CHECK FAIL: " + m for m in want] and \
        err == "", (cert_path, out, err)


@pytest.mark.parametrize("forge", [_forge_k_2000, _forge_d0_bound,
                                   _forge_modulus, _forge_length_bound,
                                   _forge_thin, _forge_lone_point,
                                   _forge_curve_node, _forge_ring],
                         ids=lambda forge: forge.__name__[len("_forge_"):])
def test_forgery_fails_one_condition_alone(forge, certificate_files,
                                           tmp_path, capsys):
    # on the 4 demo certificates and the oo one
    for name, run, trace, cert_path in certificate_files:
        _assert_forgery_fails(forge, run, trace, cert_path,
                              str(tmp_path / name), capsys)


def test_run_at_infinity_bounds_every_step_and_checks(certificate_files):
    # the run whose cluster collapses at the puncture oo: every record from
    # step 1 on has a step bound, the certification tail's included; the
    # certificate is emitted at step 116, where the trace ends, in the chart
    # at oo, and passes check with its report
    (_, _, trace, cert_path), = [f for f in certificate_files
                                 if f[0] == "infinity"]
    with open(trace) as fh:
        records = [json.loads(line) for line in fh]
    report_path = cert_path.replace(".certificate.json", ".report.json")
    with open(report_path) as fh:
        report = json.load(fh)
    with open(cert_path) as fh:
        cert = json.load(fh)
    assert len(records) == 117 and report["status"]["steps"] < 116
    assert all(rec["step_bound"] is not None for rec in records
               if rec["n"] >= 1)
    assert cert["step"] == 116 and cert["annulus"]["anchor"] == "inf"
    assert main(["check", "--trace", trace, "--cert", cert_path,
                 "--report", report_path]) == 0


def test_certificates_encode_under_4_kb(certificate_files):
    # each curve is its center and vertex, not 257 nodes: the 4 demo
    # certificates and the oo one took about 26 KB with nodes
    for name, _, _, cert_path in certificate_files:
        assert os.path.getsize(cert_path) < 4096, name


def test_two_inner_punctures_fail_one_condition_alone(certificate_files,
                                                      tmp_path, capsys):
    # the other two punctures fit inside an annulus over the threshold
    # modulus only where the cluster collapses at oo
    (_, run, trace, cert_path), = [f for f in certificate_files
                                   if f[0] == "infinity"]
    _assert_forgery_fails(_forge_two_punctures, run, trace, cert_path,
                          str(tmp_path / "infinity"), capsys)
