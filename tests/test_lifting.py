import cmath
import glob
import math
import os

import numpy as np
import pytest

import pullbacklab
from pullbacklab import lifting
from pullbacklab.certify import (_apply_map, _circle, certify_obstructed,
                                 classify_run)
from pullbacklab.cli import _build_run, load_config
from pullbacklab.errors import (BranchJumpSuspected, ChartOverflow,
                                EndpointMismatch, NearCriticalValue,
                                PullbackLabError)
from pullbacklab.fiber import run_until
from pullbacklab.lifting import (Path, cancel_retraces, concatenate,
                                 lift_closed_curve, lift_path,
                                 path_clearance, simplify_path)
from pullbacklab.ratmap import RationalMap, critical_values, preimages
from pullbacklab.sphere import CHART_LIMIT, INF, chordal, is_inf

CHEB = RationalMap([-2, 0, 1])
SQUARE = RationalMap([0, 0, 1])


def circle(center, radius, n=64):
    return Path([center + radius * cmath.exp(2j * math.pi * t / n)
                 for t in range(n + 1)])


def test_path_basics():
    p = Path([0, 1, 1, 2])       # exact duplicate dropped
    assert p.nodes == (0j, 1 + 0j, 2 + 0j)
    assert p.start == 0 and p.end == 2
    assert len(p.refine(2)) == 5
    with pytest.raises(ValueError):
        Path([])


def test_path_clearance():
    p = Path([0, 1 + 0j])
    q = 0.5 + 1j
    dense = min(chordal(t / 1000 + 0j, q) for t in range(1001))
    got = path_clearance(p, [q])
    assert abs(got - dense) < 0.05 * dense
    assert path_clearance(p, [INF]) == 2 / math.hypot(1, 1)


def test_lift_segment_principal_root():
    # z^2 over [1, 4] from 1: the lift is the principal square root
    res = lift_path(SQUARE, Path([1, 4]), 1 + 0j)
    assert abs(res.lifted.end - 2) < 1e-9
    assert res.max_residual < 1e-9


def test_lift_monodromy_square():
    res, closes = lift_closed_curve(SQUARE, circle(0j, 1.0), 1 + 0j,
                                    check_clearance=False)
    assert not closes
    assert abs(res.lifted.end + 1) < 1e-6  # ends at the other root


def test_lift_chebyshev_branch_derived():
    # w = +sqrt(z + 2) evaluated at the endpoints: 0 -> sqrt(2) lifts to
    # sqrt(sqrt(2) + 2)
    res = lift_path(CHEB, Path([0, math.sqrt(2)]), math.sqrt(2) + 0j)
    assert abs(res.lifted.end - 1.8477590650225735) < 1e-9


def test_lift_closed_curve_chebyshev_oracle():
    # independent oracle: continue the branch of sqrt(z+2) through the
    # fixed point 2 around |z-2| = 0.5 by dense nearest-root selection;
    # the continuation returns to its start (trivial monodromy)
    n = 4096
    w0 = cmath.sqrt(2.5 + 2)  # branch value over the loop start 2.5
    w = w0
    for i in range(1, n + 1):
        z = 2 + 0.5 * cmath.exp(2j * math.pi * i / n)
        roots = [cmath.sqrt(z + 2), -cmath.sqrt(z + 2)]
        w = min(roots, key=lambda r: abs(r - w))
    assert abs(w - w0) < 1e-6  # oracle: trivial monodromy

    res, closes = lift_closed_curve(CHEB, circle(2 + 0j, 0.5), w0,
                                    check_clearance=False)
    assert closes and res.max_residual < 1e-9


def test_lift_closed_curve_away_from_branch_point():
    # |z-4| = 1 under z^2: a sqrt branch exists on a disk avoiding 0
    loop = circle(4 + 0j, 1.0)
    res, closes = lift_closed_curve(SQUARE, loop, cmath.sqrt(loop.start),
                                    check_clearance=False)
    assert closes


def test_lift_requires_matching_start():
    with pytest.raises(EndpointMismatch):
        lift_path(SQUARE, Path([1, 4]), 3 + 0j)


def test_lift_near_critical_value_rejected():
    path = Path([1e-8 + 0j, 1 + 0j])  # starts on top of the critical value 0
    with pytest.raises(NearCriticalValue):
        lift_path(SQUARE, path, 1e-4 + 0j)


def test_lift_determinism():
    path = Path([1, 2 + 1j, 4])
    a = lift_path(SQUARE, path, 1 + 0j)
    b = lift_path(SQUARE, path, 1 + 0j)
    assert a.lifted.nodes == b.lifted.nodes  # bitwise reproducible


def test_lift_refined_residual_invariant():
    # 10x refined sampling still satisfies the residual bound
    rng = np.random.default_rng(17)
    for g in (CHEB, SQUARE):
        cv = critical_values(g)
        for _ in range(10):
            nodes = 3 + 1j + 0.4 * rng.normal(size=4).view(np.complex128)
            path = Path(nodes.tolist())
            if path_clearance(path, cv) < 0.05:
                continue
            from pullbacklab.ratmap import preimages
            start = next(p for p, _ in preimages(g, path.start)
                         if not isinstance(p, type(INF)))
            fine = path.refine(10)
            res = lift_path(g, fine, start)
            assert res.max_residual < 1e-8


def test_lift_homotopy_invariance_at_endpoints():
    # two polylines with the same endpoints bounding a puncture- and
    # critical-value-free quadrilateral lift to the same endpoint
    upper = Path([1, 2 + 0.5j, 4])
    lower = Path([1, 2 - 0.3j, 4])
    a = lift_path(SQUARE, upper, 1 + 0j)
    b = lift_path(SQUARE, lower, 1 + 0j)
    assert abs(a.lifted.end - b.lifted.end) < 1e-8


def test_null_homotopic_circles_close():
    rng = np.random.default_rng(29)
    for _ in range(20):
        center = complex(3 + rng.uniform(-1, 1), rng.uniform(-1, 1))
        radius = rng.uniform(0.1, 0.5)
        if abs(center) - radius < 0.7:
            continue  # keep the disk clear of the critical value 0
        loop = circle(center, radius)
        from pullbacklab.ratmap import preimages
        start = max((p for p, _ in preimages(SQUARE, loop.start)),
                    key=lambda p: p.real)
        res, closes = lift_closed_curve(SQUARE, loop, start,
                                        check_clearance=False)
        assert closes


def test_concatenate_and_retraces():
    p = concatenate(Path([0, 1]), Path([1, 2]))
    assert p.nodes == (0j, 1 + 0j, 2 + 0j)
    with pytest.raises(EndpointMismatch):
        concatenate(Path([0, 1]), Path([5, 6]))
    loop = concatenate(Path([0, 1, 2]), Path([2, 1, 0]))
    assert cancel_retraces(loop).nodes == (0j,)


def test_concatenate_lift_example():
    head = Path([0, math.sqrt(2)])
    lift = lift_path(CHEB, head, math.sqrt(2) + 0j).lifted
    joined = concatenate(head, lift)
    assert joined.start == 0
    assert abs(joined.end - 1.8477590650225735) < 1e-9


def test_simplify_preserves_endpoints_and_avoids_obstacles():
    zig = Path([0, 0.5 + 0.01j, 1 + 0j, 1.5 - 0.01j, 2 + 0j])
    out = simplify_path(zig, [10 + 0j])
    assert out.start == zig.start and out.end == zig.end
    assert len(out) == 2  # everything collapses: no obstacle anywhere near

    # an obstacle inside the swept corridor blocks the shortcut
    detour = Path([0, 1 + 1j, 2 + 0j])
    kept = simplify_path(detour, [1 + 0.5j])
    assert len(kept) == 3


def test_simplify_keeps_homotopy_class_around_puncture():
    # a path winding over the top of the puncture must not be flattened
    # through it
    arc = Path([-1, -0.7 + 0.8j, 0.7 + 0.8j, 1 + 0j])
    out = simplify_path(arc, [0j])
    # the straight chord [-1, 1] passes through the puncture; simplification
    # must keep at least one waypoint above
    assert len(out) >= 3


def test_anchored_chart_lift():
    # lifting in a translated chart: same branch, tiny scale
    anchor = 2.0
    tiny = Path([1e-30, 2e-30], anchor=anchor)  # segment near the fixed point
    res = lift_path(CHEB, tiny, 0.25e-30)
    assert res.lifted.anchor == anchor
    # the p-fixing branch contracts by ~1/4
    assert abs(res.lifted.end - 0.5e-30) < 1e-32


# ---------------------------------------------------------------------------
# the continuation against a reference that evaluates g three times per node

def _reference_newton(gm, target, seed, max_iter=60):
    w = seed
    best, best_res = None, math.inf
    for _ in range(max_iter):
        gv, gd = gm.evaluate_with_derivative(w)
        if is_inf(gv) or gd == 0:
            break
        res = abs(gv - target)
        if res < best_res:
            best, best_res = w, res
        if res == 0.0:
            break
        step = (gv - target) / gd
        if not cmath.isfinite(step):
            break
        w = w - step
        if abs(step) <= 4e-16 * max(abs(w), 1e-300):
            gv2, _ = gm.evaluate_with_derivative(w)
            if not is_inf(gv2) and abs(gv2 - target) <= best_res:
                best = w
            break
    return best


def _reference_chordal(anchor, u, v):
    if anchor is None:
        return chordal(u, v)
    return 2.0 * abs(u - v) / (1.0 + abs(anchor) ** 2)


def _reference_lift(g, path, start_lift, eps_lift=lifting.EPS_LIFT,
                    eps_cv=lifting.EPS_CV, eta=lifting.ETA_SAFE,
                    max_depth=lifting.MAX_DEPTH, check_clearance=True):
    """lift_path with a fresh Newton solve from the previous node and a
    separate g(w) for each residual."""
    anchor = path.anchor
    gm, crit = g.chart(anchor)
    start_res = _reference_chordal(anchor, gm(complex(start_lift)),
                                   path.start)
    if start_res > eps_lift:
        raise EndpointMismatch(
            "g(start_lift) misses path start by chordal %.3g" % start_res)
    if check_clearance and anchor is None:
        clr = path_clearance(path, critical_values(g))
        if clr <= eps_cv:
            raise NearCriticalValue(
                "path clearance %.3g to a critical value" % clr)
    lifted, targets = [complex(start_lift)], [path.start]
    max_res, subdivisions = start_res, 0

    def crit_distance(w):
        return min((abs(w - c) for c in crit), default=math.inf)

    for seg_a, seg_b in zip(path.nodes, path.nodes[1:]):
        pending = [(seg_b, 0)]
        z_from = seg_a
        while pending:
            z_to, depth = pending.pop()
            w_prev = lifted[-1]
            w = _reference_newton(gm, z_to, w_prev)
            ok = w is not None and abs(w - w_prev) < eta * crit_distance(w_prev)
            if ok:
                res = _reference_chordal(anchor, gm(w), z_to)
                ok = not res > eps_lift
            if ok and anchor is None and abs(w) > CHART_LIMIT:
                raise ChartOverflow(
                    "lift reached |w| = %.3g; transport the chart" % abs(w))
            if not ok:
                if depth >= max_depth:
                    raise BranchJumpSuspected(
                        "safeguard violated at depth %d near %r" % (depth, z_to))
                subdivisions += 1
                pending.append((z_to, depth + 1))
                pending.append((0.5 * (z_from + z_to), depth + 1))
                continue
            max_res = max(max_res, res)
            z_from = z_to
            if w == lifted[-1] or z_to == targets[-1]:
                continue
            lifted.append(w)
            targets.append(z_to)
    return lifting.LiftResult(Path(lifted, anchor=anchor), max_res,
                              subdivisions)


def _hex_nodes(path):
    return [(z.real.hex(), z.imag.hex()) for z in path.nodes]


def _result_bits(res):
    return (_hex_nodes(res.lifted), res.lifted.anchor, res.max_residual.hex(),
            res.subdivisions)


def _outcome(lift, *args, **kw):
    """What a continuation returns, bit for bit, or the error it raises."""
    try:
        return _result_bits(lift(*args, **kw))
    except PullbackLabError as exc:
        return type(exc).__name__, str(exc)


def _assert_matches_reference(g, path, start, **kw):
    got = _outcome(lift_path, g, path, start, **kw)
    assert got == _outcome(_reference_lift, g, path, start, **kw)
    return got


def test_lift_path_matches_reference_on_seeded_polylines():
    rng = np.random.default_rng(41)
    maps = [CHEB, SQUARE, RationalMap([1, 0, 1], [0, 1]),
            RationalMap([0.3j, -1, 0, 0.5, 0, 1]),
            RationalMap([1, 0, 0, 0, 0, 0, 0, 2j, 1])]
    lifted = 0
    for g in maps:
        for _ in range(12):
            nodes = 1.5 * rng.normal(size=(int(rng.integers(2, 7)), 2))
            path = Path([complex(a, b) for a, b in nodes]).refine(
                int(rng.integers(1, 8)))
            starts = [p for p, _ in preimages(g, path.start) if not is_inf(p)]
            got = _assert_matches_reference(
                g, path, starts[int(rng.integers(len(starts)))])
            lifted += isinstance(got[0], list)
    assert lifted >= 40


def test_lift_path_matches_reference_through_subdivisions():
    # coarse segments that pass 1e-3 from the critical value 0 of z^2
    path = Path([1, -1 + 1e-3j, -1j, 1e-3 + 1j, 2 + 0j])
    got = _assert_matches_reference(SQUARE, path, 1 + 0j)
    assert got[-1] > 20   # subdivisions
    got = _assert_matches_reference(CHEB, Path([0.5, -2.5 + 2e-3j]),
                                    cmath.sqrt(2.5))
    assert got[-1] > 20


def _corpus_certificates():
    configs = os.path.join(os.path.dirname(pullbacklab.__file__),
                           "demo_configs", "*.json")
    out = []
    for path in sorted(glob.glob(configs)):
        run = _build_run(load_config(path))
        trace, _ = run_until(run)
        if classify_run(trace, run.g, run.punctures,
                        tol=run.tol).verdict != "obstructed":
            continue
        cert = certify_obstructed(run)
        if cert is not None:
            out.append((run.g, cert))
    return out


@pytest.fixture(scope="module")
def certificate_lifts():
    """(g, loop, start) for the closed-curve lifts behind each corpus
    certificate: the core-curve image lifted from the core circle (the
    injectivity evidence), and the representative curve re-lifted (its
    verification). The circles are anchored, at scales 1e-23 to 1e-61."""
    lifts = []
    for g, cert in _corpus_certificates():
        ann = cert.annulus
        core = _circle(ann.center, ann.core_radius(), 512)
        image = _apply_map(g.shifted(ann.anchor), core)
        lifts.append((g, Path(image.tolist(), anchor=ann.anchor),
                      complex(core[0])))
        curves = cert.representative_curves
        lifts.append((g, curves[0], curves[1].start))
    assert len(lifts) == 8
    return lifts


def test_closed_curve_lifts_match_reference_on_certificate_circles(
        certificate_lifts):
    for g, loop, start in certificate_lifts:
        res, closes = lift_closed_curve(g, loop, start, check_clearance=False)
        assert _result_bits(res) == _outcome(_reference_lift, g, loop, start,
                                             check_clearance=False)
        assert closes and loop.anchor is not None


def test_one_evaluation_per_lifted_node(certificate_lifts, monkeypatch):
    calls = [0]
    evaluate = RationalMap.evaluate_with_derivative

    def counted(self, z):
        calls[0] += 1
        return evaluate(self, z)
    monkeypatch.setattr(RationalMap, "evaluate_with_derivative", counted)
    nodes = 0
    for g, loop, start in certificate_lifts:
        res, _ = lift_closed_curve(g, loop, start, check_clearance=False)
        nodes += len(res.lifted)
    # the reference makes 3.0: Newton re-evaluates its seed, and the
    # residual check re-evaluates Newton's answer
    assert calls[0] <= 1.5 * nodes
