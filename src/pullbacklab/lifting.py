"""Numerical covering-space machinery: continuation of inverse branches of
the base map along polyline paths, closed-curve lifts and monodromy
detection, concatenation and corridor-based simplification.

Continuation is Newton seeded at the previous lift node, with the value and
derivative of g there that the previous node's own solve computed, and the
residual check reads g at Newton's answer from the same solve. A node
therefore costs only the evaluations after Newton's first step: one when
that step hits the target exactly, as on the small anchored circles of a
certificate. A step is accepted only when the displacement stays below eta
times the distance from the previous node to the nearest critical point,
otherwise the target segment is bisected (up to a fixed depth). This
safeguard is what prevents silent branch jumps near critical points.

A Path may carry an ``anchor``: its nodes are then offsets from that point.
Lifting an anchored path uses the translated map g(anchor + w) - anchor,
which lets curves live at scales far below the anchor's own magnitude.
"""

import cmath
import math

from .errors import (BranchJumpSuspected, ChartOverflow, EndpointMismatch,
                     NearCriticalValue)
from .ratmap import critical_values
from .sphere import (CHART_LIMIT, chart_coordinate, chordal, is_inf,
                     json_complex, json_typed)

EPS_LIFT = 1e-9    # chordal residual allowed for accepted lift nodes
EPS_CV = 1e-6      # required path clearance to critical values
EPS_CLEAR = 1e-8   # required path clearance to punctures
ETA_SAFE = 0.25    # Newton displacement
MAX_DEPTH = 40     # bisection depth before giving up
_NEWTON_MAX_ITER = 60  # Newton iterations per preimage solve


class Path:
    """Polyline with flagged endpoints; immutable after construction.

    Nodes are finite complex numbers; exact consecutive duplicates are
    dropped. When ``anchor`` is set the nodes are offsets from it.
    """

    __slots__ = ("nodes", "anchor")

    def __init__(self, nodes, anchor=None):
        cleaned = []
        for z in nodes:
            z = complex(z)
            if not cmath.isfinite(z):
                raise ValueError("path nodes must be finite")
            if cleaned and z == cleaned[-1]:
                continue
            cleaned.append(z)
        if not cleaned:
            raise ValueError("path needs at least one node")
        self.nodes = tuple(cleaned)
        self.anchor = None if anchor is None else complex(anchor)

    @property
    def start(self):
        return self.nodes[0]

    @property
    def end(self):
        return self.nodes[-1]

    def is_closed(self):
        if len(self.nodes) == 1:
            return True
        scale = max(abs(z) for z in self.nodes)
        return abs(self.start - self.end) <= max(EPS_LIFT, 1e-12 * scale)

    def refine(self, k):
        """Insert k-1 evenly spaced nodes on every segment."""
        if k < 2:
            return self
        out = [self.nodes[0]]
        for a, b in zip(self.nodes, self.nodes[1:]):
            for j in range(1, k + 1):
                out.append(a + (b - a) * (j / k))
        return Path(out, anchor=self.anchor)

    def absolute_nodes(self):
        if self.anchor is None:
            return self.nodes
        return tuple(self.anchor + z for z in self.nodes)

    def to_json(self):
        obj = {"nodes": [[z.real, z.imag] for z in self.nodes]}
        if self.anchor is not None:
            obj["anchor"] = [self.anchor.real, self.anchor.imag]
        return obj

    @classmethod
    def from_json(cls, obj, what="path"):
        anchor = json_typed(obj, dict, what).get("anchor")
        node = what + " node"
        return cls([json_complex(z, node)
                    for z in json_typed(obj["nodes"], list, node + "s")],
                   anchor=None if anchor is None
                   else json_complex(anchor, what + " anchor"))

    def __len__(self):
        return len(self.nodes)

    def __repr__(self):
        body = "%d nodes, %r -> %r" % (len(self.nodes), self.start, self.end)
        if self.anchor is not None:
            body += ", anchor %r" % self.anchor
        return "Path(%s)" % body


class LiftResult:
    """Outcome of a continuation: the lifted path, the worst chordal
    residual and the subdivision count."""

    __slots__ = ("lifted", "max_residual", "subdivisions")

    def __init__(self, lifted, max_residual, subdivisions):
        self.lifted = lifted
        self.max_residual = max_residual
        self.subdivisions = subdivisions

    def __repr__(self):
        return "LiftResult(%r, residual %.3g, %d subdivisions)" % (
            self.lifted, self.max_residual, self.subdivisions)


# ---------------------------------------------------------------------------
# geometry helpers

def _seg_closest(a, b, q):
    """Point of segment [a, b] closest to q (euclidean)."""
    d = b - a
    L2 = (d * d.conjugate()).real
    if L2 == 0.0:
        return a
    t = ((q - a) * d.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return a + t * d


def _chordal_seg_to_point(a, b, q):
    if is_inf(q):
        return 2.0 / math.hypot(1.0, max(abs(a), abs(b)))
    zc = _seg_closest(a, b, q)
    return min(chordal(a, q), chordal(b, q), chordal(zc, q))


def path_clearance(path, points):
    """Minimum chordal distance from the polyline to the given points."""
    nodes = path.absolute_nodes()
    best = math.inf
    for q in points:
        if len(nodes) == 1:
            best = min(best, chordal(nodes[0], q))
            continue
        for a, b in zip(nodes, nodes[1:]):
            best = min(best, _chordal_seg_to_point(a, b, q))
    return best


# ---------------------------------------------------------------------------
# continuation

def _newton_preimage(gm, target, seed, seed_eval=None):
    """Newton solve of gm(w) = target from ``seed``.

    Returns (w, gm(w), gm'(w)) for the best iterate found, both values from
    the evaluation that judged it (the caller judges w by its residual), or
    None if nothing was usable. A caller that already holds
    gm.evaluate_with_derivative(seed) passes it as ``seed_eval``, which then
    stands in for Newton's first evaluation.
    """
    w = seed
    best, best_res = None, math.inf
    for _ in range(_NEWTON_MAX_ITER):
        if seed_eval is None:
            gv, gd = gm.evaluate_with_derivative(w)
        else:
            gv, gd = seed_eval
            seed_eval = None
        if is_inf(gv) or gd == 0:
            break
        res = abs(gv - target)
        if res < best_res:
            best, best_res = (w, gv, gd), res
        if res == 0.0:
            break
        step = (gv - target) / gd
        if not cmath.isfinite(step):
            break
        w = w - step
        if abs(step) <= 4e-16 * max(abs(w), 1e-300):
            gv2, gd2 = gm.evaluate_with_derivative(w)
            if not is_inf(gv2) and abs(gv2 - target) <= best_res:
                best = (w, gv2, gd2)
            break
    return best


def lift_path(g, path, start_lift, check_clearance=True):
    """Unique continuation of the inverse branch of g along ``path`` from
    ``start_lift`` (with g(start_lift) = path.start).

    For an anchored path, ``start_lift`` is an offset in the same chart and
    the result keeps the anchor.
    """
    anchor = path.anchor
    gm, crit = g.chart(anchor)
    if anchor is None:
        residual = chordal
    else:
        denom = 1.0 + abs(anchor) ** 2

        def residual(u, v):
            # both points sit near the anchor; translate back for the
            # metric factor
            return 2.0 * abs(u - v) / denom

    start_lift = complex(start_lift)
    # (g, g') at lifted[-1], which seeds the next node's Newton solve
    last_eval = gm.evaluate_with_derivative(start_lift)
    start_res = residual(last_eval[0], path.start)
    if start_res > EPS_LIFT:
        raise EndpointMismatch(
            "g(start_lift) misses path start by chordal %.3g" % start_res)
    if check_clearance and anchor is None:
        cv = critical_values(g)
        clr = path_clearance(path, cv)
        if clr <= EPS_CV:
            raise NearCriticalValue(
                "path clearance %.3g to a critical value" % clr)

    lifted = [start_lift]
    last_target = path.start  # the target lifted[-1] was solved for
    max_res = start_res
    subdivisions = 0

    def crit_distance(w):
        if not crit:
            return math.inf
        return min(abs(w - c) for c in crit)

    for seg_a, seg_b in zip(path.nodes, path.nodes[1:]):
        # stack of pending targets along this segment (LIFO of (z, depth))
        pending = [(seg_b, 0)]
        z_from = seg_a
        while pending:
            z_to, depth = pending.pop()
            w_prev = lifted[-1]
            found = _newton_preimage(gm, z_to, w_prev, last_eval)
            ok = False
            if found is not None:
                w, gv, gd = found
                allowed = ETA_SAFE * crit_distance(w_prev)
                ok = abs(w - w_prev) < allowed
            if ok:
                res = residual(gv, z_to)
                if res > EPS_LIFT:
                    ok = False
            if ok and anchor is None and abs(w) > CHART_LIMIT:
                raise ChartOverflow(
                    "lift reached |w| = %.3g; transport the chart" % abs(w))
            if not ok:
                if depth >= MAX_DEPTH:
                    raise BranchJumpSuspected(
                        "safeguard violated at depth %d near %r" % (depth, z_to))
                mid = 0.5 * (z_from + z_to)
                subdivisions += 1
                pending.append((z_to, depth + 1))
                pending.append((mid, depth + 1))
                continue
            max_res = max(max_res, res)
            z_from = z_to
            if w == lifted[-1] or z_to == last_target:
                continue  # keep lifted nodes and their targets aligned
            lifted.append(w)
            last_target = z_to
            last_eval = gv, gd

    return LiftResult(Path(lifted, anchor=anchor), max_res, subdivisions)


def lift_closed_curve(g, loop, start_lift, check_clearance=True):
    """Lift a closed loop; closes = True means trivial monodromy, i.e. the
    lift is again a closed curve mapped with degree 1."""
    if not loop.is_closed():
        raise EndpointMismatch("loop is not closed")
    res = lift_path(g, loop, start_lift, check_clearance=check_clearance)
    end, start = res.lifted.end, res.lifted.start
    diam = max(abs(z - start) for z in res.lifted.nodes)
    return res, abs(end - start) <= max(EPS_LIFT, 1e-9 * diam)


# ---------------------------------------------------------------------------
# concatenation and simplification

def concatenate(p1, p2):
    """Join two polylines, snapping p2's start onto p1's end."""
    if (p1.anchor is None) != (p2.anchor is None) or (
            p1.anchor is not None and p1.anchor != p2.anchor):
        raise EndpointMismatch("paths live in different charts")
    scale = max(abs(p1.end), abs(p2.start), 1e-300)
    if abs(p1.end - p2.start) > max(EPS_LIFT, 1e-12 * scale):
        raise EndpointMismatch(
            "p1 ends at %r but p2 starts at %r" % (p1.end, p2.start))
    return Path(p1.nodes + p2.nodes[1:], anchor=p1.anchor)


def cancel_retraces(path):
    """Remove immediate back-tracking (a, b, a patterns, the two a's within
    1e-14 relative), which is always a homotopy along the path itself."""
    stack = [path.nodes[0]]
    for z in path.nodes[1:]:
        if len(stack) >= 2:
            prev2 = stack[-2]
            scale = max(abs(z), abs(prev2), 1e-300)
            if abs(z - prev2) <= 1e-14 * scale:
                stack.pop()
                continue
        stack.append(z)
    return Path(stack, anchor=path.anchor)


def _point_in_triangle(q, a, b, c):
    def cross(u, v):
        return u.real * v.imag - u.imag * v.real
    d1 = cross(b - a, q - a)
    d2 = cross(c - b, q - b)
    d3 = cross(a - c, q - c)
    neg = d1 < 0 or d2 < 0 or d3 < 0
    pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (neg and pos)


def _triangle_clear(a, b, c, obstacles):
    for q in obstacles:
        if is_inf(q):
            far = max(abs(a), abs(b), abs(c))
            if 2.0 / math.hypot(1.0, far) <= 2 * EPS_CLEAR:
                return False
            continue
        if _point_in_triangle(q, a, b, c):
            return False
        d = min(_chordal_seg_to_point(a, b, q),
                _chordal_seg_to_point(b, c, q),
                _chordal_seg_to_point(a, c, q))
        if d <= 2 * EPS_CLEAR:
            return False
    return True


def simplify_path(path, obstacles):
    """Drop interior nodes whose corridor (the swept triangle) stays clear
    of the obstacle points by 2 EPS_CLEAR; endpoints and homotopy class are
    preserved by the corridor check."""
    path = cancel_retraces(path)
    obstacles = [chart_coordinate(path.anchor, q) for q in obstacles]
    nodes = list(path.nodes)
    changed = True
    passes = 0
    while changed and passes <= len(path.nodes):
        changed = False
        passes += 1
        i = 1
        while i < len(nodes) - 1:
            a, b, c = nodes[i - 1], nodes[i], nodes[i + 1]
            if a == c or _triangle_clear(a, b, c, obstacles):
                del nodes[i]
                changed = True
            else:
                i += 1
    return Path(nodes, anchor=path.anchor)
