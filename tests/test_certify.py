import cmath
import copy
import glob
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import pullbacklab
from pullbacklab.certify import (certify_obstructed, classify_run,
                                 emit_levy_certificate,
                                 find_separating_annulus, injectivity_test,
                                 verify_certificate, LevyCertificate,
                                 _apply_map, _circle, _log_euclid_dist,
                                 _segments_intersect_any, _step_chart_entries)
from pullbacklab.cli import _build_run, load_config
from pullbacklab.errors import (InjectivityUndetermined, NoSeparatingAnnulus)
from pullbacklab.fiber import BranchDatum, init_run, run_until
from pullbacklab.hyperbolic import (ELL_STAR, RoundAnnulus, annulus_modulus)
from pullbacklab.lifting import Path
from pullbacklab.ratmap import RationalMap
from pullbacklab.sphere import Configuration, INF, chordal, is_inf

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


def test_injectivity_k0_vacuous():
    ann = RoundAnnulus.from_radii(0j, 0.5, 2.0)
    evidence = injectivity_test(SQUARE, ann, 0)
    assert evidence["stages"] == []


def _dense_reference(z1, z2, skip_adjacent):
    """All-pairs crossing test, the reference for the box sweep."""
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
    hits = proper | (collinear & overlap_x & overlap_y)

    if skip_adjacent:
        idx = np.arange(n)
        jdx = np.arange(m)
        same = idx[:, None] == jdx[None, :]
        nbr = (np.abs(idx[:, None] - jdx[None, :]) == 1) | \
              (np.abs(idx[:, None] - jdx[None, :]) == n - 1)
        hits = hits & ~(same | nbr)
    return bool(np.any(hits))


def assert_sweep_agrees(z1, z2):
    for z in (z1, z2):
        assert _segments_intersect_any(z, z, True) == \
            _dense_reference(z, z, True)
    for skip in (False, True):
        assert _segments_intersect_any(z1, z2, skip) == \
            _dense_reference(z1, z2, skip)


# fixed seed: the sweep must agree with the reference on these inputs
agree = settings(max_examples=120, deadline=None, derandomize=True)
coord = st.floats(-4.0, 4.0, allow_nan=False)
point = st.builds(complex, coord, coord)
polyline = st.lists(point, min_size=2, max_size=24).map(np.array)
lattice = st.lists(st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)),
                   min_size=2, max_size=16)


@agree
@given(polyline, polyline)
def test_sweep_matches_dense_random_polylines(z1, z2):
    assert_sweep_agrees(z1, z2)


@agree
@given(lattice, lattice, st.booleans())
def test_sweep_matches_dense_lattice_polylines(p1, p2, closed):
    # exact touches, shared vertices, repeated points and collinear overlaps
    if closed:
        p1, p2 = p1 + p1[:1], p2 + p2[:1]
    assert_sweep_agrees(np.array(p1, dtype=complex),
                        np.array(p2, dtype=complex))


@agree
@given(point, st.floats(0.05, 3.0), point, st.integers(8, 160))
def test_sweep_matches_dense_circle_images(center, radius, c, n):
    inner = _circle(center, radius / 2, n)
    outer = _circle(center, radius, n)
    assert_sweep_agrees(inner * inner + c, outer * outer + c)


@agree
@given(st.floats(0.0, 2 * math.pi), st.floats(-9.5, -8.5), point,
       st.integers(8, 160))
def test_sweep_matches_dense_tiny_circles(phi, log_r, c, n):
    # radius ~1e-9 around a point 1e-8 from 0; under z^2 + c the image
    # collapses onto a few representable values near c
    circle = _circle(1e-8 * cmath.exp(1j * phi), 10.0 ** log_r, n)
    assert_sweep_agrees(circle, circle * circle + c)
    assert_sweep_agrees(circle * circle, circle * circle + c)


def test_sweep_ignores_rounding_crossing_of_disjoint_boxes():
    # collinear to ~1e-16: the reference's cross-product signs are rounding
    # noise and report a crossing of two segments with disjoint boxes
    z = np.array([-0.8950058802894161 - 1.2776542243960578j,
                  -0.6261409398676607 - 0.3244825989718599j,
                  -0.5255518379875906 + 0.03212275681973742j,
                  -0.4529391272524107 + 0.2895470807547901j])
    assert max(z[:2].real) < min(z[2:].real)
    assert _dense_reference(z[:2], z[2:], False)
    assert not _segments_intersect_any(z[:2], z[2:], False)


def assert_bits_equal(got, want):
    for part in ("real", "imag"):
        assert np.array_equal(getattr(got, part).view(np.int64),
                              getattr(want, part).view(np.int64))


coef = point.filter(lambda c: c == 0 or abs(c) > 1e-3)
lead = point.filter(lambda c: abs(c) > 0.1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(coef, min_size=2, max_size=8), lead,
       st.lists(coef, max_size=3), lead, point,
       st.floats(0.01, 2.0), point, st.integers(4, 64))
@example([-2, 0], 1, [], 1, 2 + 0.1j, 0.3, 2 + 0j, 512)  # chebyshev's chart
def test_apply_map_bit_exact(num, num_lead, den, den_lead, center, radius,
                             anchor, n):
    try:
        g = RationalMap(num + [num_lead], den + [den_lead])
    except ValueError:  # a shared root
        assume(False)
    zs = _circle(center, radius, n)
    for gm in (g, g.shifted(anchor)):
        want = [gm(complex(z)) for z in zs]
        if any(w is INF or abs(w) > 1e12 for w in want):
            with pytest.raises(InjectivityUndetermined):
                _apply_map(gm, zs)
            continue
        assert_bits_equal(_apply_map(gm, zs), np.array(want, dtype=complex))


def test_apply_map_leaves_chart():
    unit = _circle(0j, 1.0, 64)  # sample 0 is exactly 1
    with pytest.raises(InjectivityUndetermined):
        _apply_map(RationalMap([0, 0, 1], [-1, 0, 1]), unit)  # pole at 1
    with pytest.raises(InjectivityUndetermined):
        _apply_map(RationalMap([0, 0, 1e12 * (1 + 1e-9)]), unit)
    assert np.max(np.abs(_apply_map(RationalMap([0, 0, 1e12 * (1 - 1e-9)]),
                                    unit))) <= 1e12


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
    assert len(set(cert.curve_enclosed_labels)) <= cert.k
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


def _with_moved_node(curves, idx):
    """The curves with the middle node of curve idx scaled by 1.5."""
    nodes = list(curves[idx].nodes)
    nodes[len(nodes) // 2] *= 1.5
    return curves[:idx] + (Path(nodes, anchor=curves[idx].anchor),) + \
        curves[idx + 1:]


def _with_scaled_clearance(evidence, factor):
    """The evidence with stage 0's critical clearance scaled by factor."""
    out = copy.deepcopy(evidence)
    out["stages"][0]["critical_clearance"] *= factor
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
        ("curve_enclosed_labels", (("p0",), ("m0", "p1")),
         ["curve 0 enclosed labels mismatch"]),
        ("representative_curves", _with_moved_node(curves, 0),
         ["curve 0 is not the annulus core circle"]),
        ("representative_curves", _with_moved_node(curves, 1),
         ["re-lift of curve 0 does not match curve 1"]),
        ("cluster_labels", ("p0", "p2"), ["cluster labels mismatch"]),
        ("curve_windings", (3, -7), ["curve windings mismatch"]),
        ("promotion_flag", not cert.promotion_flag,
         ["promotion flag mismatch"]),
        ("injectivity_evidence", {"samples": 1, "stages": [], "k": 9},
         ["injectivity evidence mismatch"]),
        ("injectivity_evidence", _with_scaled_clearance(
            cert.injectivity_evidence, 1.01),
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


def test_certificate_json_roundtrip():
    run, _, _ = finished(CHEB, BranchDatum(0.0, math.sqrt(2)), max_iters=2000)
    cert = certify_obstructed(run)
    back = LevyCertificate.from_json(cert.to_json())
    assert back.modulus == cert.modulus
    assert back.curve_enclosed_labels == cert.curve_enclosed_labels
    assert verify_certificate(back, run).ok


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


# -- the step configuration against the reading it replaced ------------------

def _reference_chart_entries(run, n, shift):
    """The chart entries as read from the tracks before ``step_points``."""
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
    """The clustering distance as read from the tracks by label."""
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
        if is_inf(q) or is_inf(a.puncture):
            return math.inf
        if chordal(a.puncture, q) <= 1e-12:
            return eta.log2_abs() * _LN2
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


def test_step_points_match_the_track_reading():
    same_chart = 0
    for name, run in _reference_runs():
        for n in range(1, 221):
            run.pullback_step()
            points = run.step_points(n)
            assert [p[0] for p in points] == list(run.punctures.labels) + \
                [t.label for t in list(run.marked) + list(run.trivial)]
            for a in points:
                for b in points:
                    want = _reference_log_dist(run, n, a[:2], b[:2])
                    got = _log_euclid_dist(a, b)
                    assert struct.pack("<d", got) == struct.pack("<d", want), \
                        (name, n, a[0], b[0], got, want)
                    same_chart += a[3] is not None and b[3] is not None and \
                        a[0] != b[0] and a[3][0] is b[3][0]
            for shift in [0j] + [p for p in run.punctures.points
                                 if not is_inf(p)]:
                assert _bit_entries(_step_chart_entries, points, shift, n) == \
                    _bit_entries(_reference_chart_entries, run, n, shift), \
                    (name, n, shift)
    # the two-anchored run compares its marked points in one chart
    assert same_chart > 0
    with pytest.raises(ValueError):
        run.step_points(run.n + 1)
