import cmath
import glob
import math
import os
import random

import numpy as np
import pytest

import pullbacklab
from pullbacklab import lifting
from pullbacklab.certify import (N_CURVE, _apply_map, _circle,
                                 certify_obstructed, classify_run)
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


def test_branch_step_is_the_safeguard_radius():
    assert lifting.branch_step(1 + 1j, ()) == math.inf
    assert lifting.branch_step(3 + 0j, (0j, 2 + 0j)) == lifting.ETA_SAFE
    assert lifting.branch_step(0.5 + 0j, (0j,)) == 0.5 * lifting.ETA_SAFE


def test_lift_requires_matching_start():
    with pytest.raises(EndpointMismatch):
        lift_path(SQUARE, Path([1, 4]), 3 + 0j)


def test_lift_near_critical_value_rejected():
    path = Path([1e-8 + 0j, 1 + 0j])  # starts on top of the critical value 0
    with pytest.raises(NearCriticalValue):
        lift_path(SQUARE, path, 1e-4 + 0j)


class _StalledNewton:
    """z^2 with its derivative overstated fourfold: each Newton iteration
    keeps three quarters of the residual, so a solve over a segment longer
    than about 0.03 ends above EPS_LIFT with its step well inside the
    branch safeguard."""

    def chart(self, q=None):
        return SQUARE.chart(q)

    def evaluate_with_derivative(self, z):
        value, derivative = SQUARE.evaluate_with_derivative(z)
        return value, 4 * derivative


def test_lift_bisects_where_newton_stalls():
    # the residual test alone rejects the stalled solve over [1, 1.2]
    # (6.4e-9 off after 60 iterations, a step of 0.095 against 0.25), and
    # bisection brings every node within EPS_LIFT of its target
    res = lift_path(_StalledNewton(), Path([1, 1.2]), 1 + 0j,
                    check_clearance=False)
    assert res.subdivisions > 0 and res.max_residual <= lifting.EPS_LIFT
    assert abs(res.lifted.end - math.sqrt(1.2)) < 1e-9


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


def test_simplify_drops_collinear_nodes_clear_of_obstacles_on_their_line():
    # a real-axis block with punctures +-2 on its line but off its hull:
    # every interior node goes; a puncture inside the hull, or on a
    # backtracking block's hull, keeps the node that passes it
    block = Path([-1, -0.25, 0.5 + 0j, 1])
    assert simplify_path(block, [-2 + 0j, 2 + 0j]).nodes == (-1, 1)
    assert simplify_path(Path([-1, 0.5 + 0j, 1]), [0j]).nodes == \
        (-1, 0.5, 1)
    assert simplify_path(Path([0, 1.5 + 0j, 1]), [1.25 + 0j]).nodes == \
        (0, 1.5, 1)


def test_simplify_keeps_homotopy_class_around_puncture():
    # a path winding over the top of the puncture must not be flattened
    # through it
    arc = Path([-1, -0.7 + 0.8j, 0.7 + 0.8j, 1 + 0j])
    out = simplify_path(arc, [0j])
    # the straight chord [-1, 1] passes through the puncture; simplification
    # must keep at least one waypoint above
    assert len(out) >= 3


def _reference_triangle_clear(a, b, c, obstacles):
    # the corridor test as first written: oo by the farthest vertex, and
    # each finite obstacle outside the triangle and clear of the edges ab,
    # bc and ac, by chordal distance to each edge's ends and nearest point
    for q in obstacles:
        if is_inf(q):
            far = max(abs(a), abs(b), abs(c))
            if 2.0 / math.hypot(1.0, far) <= 2 * lifting.EPS_CLEAR:
                return False
            continue
        if lifting._point_in_triangle(q, a, b, c):
            return False
        d = min(min(chordal(u, q), chordal(v, q),
                    chordal(lifting._seg_closest(u, v, q), q))
                for u, v in ((a, b), (b, c), (a, c)))
        if d <= 2 * lifting.EPS_CLEAR:
            return False
    return True


def test_triangle_clear_is_the_three_segment_rule():
    # seeded triangles, collinear ones included, up to 1e9 across (where
    # oo comes within 2 EPS_CLEAR), against a random obstacle and some of:
    # a point on an edge, one about 2 EPS_CLEAR (chordal) off it, a
    # vertex, and oo
    rng = random.Random(33)
    seen = set()
    for _ in range(2000):
        scale = 10 ** rng.uniform(-3, 9)
        a, b, c = [complex(rng.gauss(0, scale), rng.gauss(0, scale))
                   for _ in range(3)]
        if rng.random() < 0.1:
            c = a + rng.random() * (b - a)
        u, v = rng.choice(((a, b), (b, c), (a, c)))
        on_edge = u + rng.random() * (v - u)
        normal = 1j * (v - u) / abs(v - u) if v != u else 1
        near = on_edge + rng.choice((-1, 1)) * normal * lifting.EPS_CLEAR * (
            1 + abs(on_edge) ** 2) * rng.uniform(0.9, 1.1)
        obstacles = [complex(rng.gauss(0, scale), rng.gauss(0, scale))] + \
            rng.sample([on_edge, near, a, INF], rng.randint(0, 4))
        got = lifting._triangle_clear(a, b, c, obstacles)
        assert got == _reference_triangle_clear(a, b, c, obstacles), \
            (a, b, c, obstacles)
        seen.add((got, INF in obstacles))
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def test_anchored_chart_lift():
    # lifting in the chart at a repelling fixed point, through the chart's
    # map: same branch, tiny scale; at 2 for z^2 - 2, and at oo for its
    # conjugate w^2 / (4w + 1)
    for g, anchor in ((CHEB, 2.0), (RationalMap([0, 0, 1], [1, 4]), INF)):
        # a segment near the fixed point
        tiny = Path([1e-30, 2e-30])
        res = lift_path(g.chart(anchor)[0], tiny, 0.25e-30,
                        check_clearance=False)
        # the p-fixing branch contracts by ~1/4
        assert abs(res.lifted.end - 0.5e-30) < 1e-32
        back = Path.from_json({"nodes": [[z.real, z.imag]
                                         for z in res.lifted.nodes]})
        assert back.nodes == res.lifted.nodes


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


def _reference_lift(g, path, start_lift, eps_lift=lifting.EPS_LIFT,
                    eps_cv=lifting.EPS_CV, eta=lifting.ETA_SAFE,
                    max_depth=lifting.MAX_DEPTH, check_clearance=True):
    """lift_path with a fresh Newton solve from the previous node and a
    separate g(w) for each residual."""
    crit = g.chart()[1]
    start_res = chordal(g(complex(start_lift)), path.start)
    if start_res > eps_lift:
        raise EndpointMismatch(
            "g(start_lift) misses path start by chordal %.3g" % start_res)
    if check_clearance:
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
            w = _reference_newton(g, z_to, w_prev)
            ok = w is not None and abs(w - w_prev) < eta * crit_distance(w_prev)
            if ok:
                res = chordal(g(w), z_to)
                ok = not res > eps_lift
            if ok and abs(w) > CHART_LIMIT:
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
    return lifting.LiftResult(Path(lifted), max_res, subdivisions)


def _hex_nodes(path):
    return [(z.real.hex(), z.imag.hex()) for z in path.nodes]


def _result_bits(res):
    return (_hex_nodes(res.lifted), res.max_residual.hex(), res.subdivisions)


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
def corpus_certificates():
    return _corpus_certificates()


def _core(cert):
    """The core circle's samples, as the injectivity test takes them."""
    ann = cert.annulus
    return _circle(ann.center, ann.core_radius(), 512)


@pytest.fixture(scope="module")
def certificate_lifts(corpus_certificates):
    """(map, loop, start) for the closed-curve lifts behind each corpus
    certificate, through the map in the chart at the annulus's anchor: the
    core-curve image lifted from the core circle (what the injectivity
    test takes to be the core circle itself), and the polygon of
    representative curve 0 lifted from curve 1's first node. The circles
    are at scales 1e-23 to 1e-61 in that chart."""
    lifts = []
    for g, cert in corpus_certificates:
        gm = g.chart(cert.annulus.anchor)[0]
        core = _core(cert)
        lifts.append((gm, Path(_apply_map(gm, core)), core[0]))
        (c0, v0), (c1, v1) = cert.representative_curves
        lifts.append((gm, Path(_circle(c0, v0, N_CURVE)),
                      _circle(c1, v1, N_CURVE)[0]))
    assert len(lifts) == 8
    return lifts


def test_core_image_lifts_return_the_core_samples(corpus_certificates,
                                                  certificate_lifts):
    # the Newton continuation is the reference for the injectivity test's
    # core stage: lifting the core's image from its first sample gives the
    # samples back, bit for bit, with residual 0 and no bisection
    for (_, cert), (g, loop, start) in zip(corpus_certificates,
                                           certificate_lifts[::2]):
        res, closes = lift_closed_curve(g, loop, start, check_clearance=False)
        assert closes and res.subdivisions == 0 and res.max_residual == 0.0
        assert _hex_nodes(res.lifted) == _hex_nodes(Path(_core(cert)))
        assert [stage["core_lift_residual"] for stage in
                cert.injectivity_evidence["stages"]] == [0.0]


def test_closed_curve_lifts_match_reference_on_certificate_circles(
        certificate_lifts):
    for g, loop, start in certificate_lifts:
        res, closes = lift_closed_curve(g, loop, start, check_clearance=False)
        assert _result_bits(res) == _outcome(_reference_lift, g, loop, start,
                                             check_clearance=False)
        assert closes


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


def test_lifted_nodes_are_already_clean(certificate_lifts):
    # lift_path builds its result without Path's cleaning pass: its nodes
    # are the ones that pass would give, complex and in a tuple
    rng = np.random.default_rng(7)
    results = [lift_closed_curve(g, loop, start, check_clearance=False)[0]
               for g, loop, start in certificate_lifts]
    for g in (CHEB, SQUARE, RationalMap([1, 0, 1], [0, 1])):
        for _ in range(8):
            nodes = 1.5 * rng.normal(size=(int(rng.integers(2, 6)), 2))
            path = Path([complex(a, b) for a, b in nodes]).refine(4)
            start = next(p for p, _ in preimages(g, path.start)
                         if not is_inf(p))
            try:
                results.append(lift_path(g, path, start))
            except PullbackLabError:
                pass
    results.append(lift_path(CHEB.chart(2.0)[0], Path([1e-30, 2e-30]),
                             0.25e-30, check_clearance=False))
    assert len(results) >= 20
    for res in results:
        path = res.lifted
        assert type(path.nodes) is tuple
        assert all(type(z) is complex for z in path.nodes)
        assert path.nodes == Path(path.nodes).nodes
    with pytest.raises(ValueError, match="path nodes must be finite"):
        lift_path(SQUARE, Path([1, 2]), complex(math.inf, 0))


def _reference_path_clearance(path, points):
    # path_clearance as first written: chordal per node, per point
    def seg_to_point(a, b, q):
        if is_inf(q):
            return 2.0 / math.hypot(1.0, max(abs(a), abs(b)))
        zc = lifting._seg_closest(a, b, q)
        return min(chordal(a, q), chordal(b, q), chordal(zc, q))
    nodes = path.nodes
    best = math.inf
    for q in points:
        if len(nodes) == 1:
            best = min(best, chordal(nodes[0], q))
            continue
        for a, b in zip(nodes, nodes[1:]):
            best = min(best, seg_to_point(a, b, q))
    return best


def test_path_clearance_is_the_reference_bit_for_bit():
    # each hypot(1, |z|) taken once changes no bit: seeded paths of one to
    # nine nodes at scales 1e-9 to 1e9, against points that include oo,
    # the nodes themselves and points on the segments
    rng = random.Random(23)

    def point(scale):
        return scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    lone = 0
    for _ in range(5000):
        scale = 10 ** rng.uniform(-9, 9)
        nodes = [point(scale) for _ in range(rng.choice((1, 1, 2, 3, 9)))]
        path = Path(nodes)
        lone += len(path) == 1
        points = [point(10 ** rng.uniform(-9, 9))
                  for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.5:
            points.insert(rng.randint(0, len(points)), INF)
        if rng.random() < 0.2:
            points.append(rng.choice(nodes))
        if rng.random() < 0.2 and len(nodes) > 1:
            points.append(nodes[0] + rng.random() * (nodes[1] - nodes[0]))
        got = path_clearance(path, points)
        assert got.hex() == _reference_path_clearance(path, points).hex(), \
            (nodes, points)
    assert lone > 1000


def test_path_from_json_reads_nodes_one_by_one():
    # each node is read by json_complex: ints and floats alike, bit for
    # bit, and any other node refused with its message
    def bits(path):
        return [(z.real.hex(), z.imag.hex()) for z in path.nodes]
    mixed = {"nodes": [[1.0, 2.0], [3, -0.0], [3.0, -0.0], [0.5, 1e300]]}
    assert bits(Path.from_json(mixed)) == bits(Path([1 + 2j, complex(3, -0.0),
                                                     0.5 + 1e300j]))
    for nodes, message in (
            ([[1.0, 2.0], [1.0, True]], "path node item must be float"),
            ([[1.0, 2.0], [1.0, 2.0, 3.0]], r"path node must be \[re, im\]"),
            ([[1.0, 2.0], "ab"], "path node must be list"),
            ([[1.0, math.inf]], "path nodes must be finite"),
            ([], "path needs at least one node"),
            ([[1.0, 2.0], [10 ** 400, 0.0]],
             r"path node must be \[re, im\] within double range")):
        with pytest.raises(ValueError, match=message):
            Path.from_json({"nodes": nodes})
