"""Numerical covering-space machinery: continuation of inverse branches of
the base map along polyline paths, closed-curve lifts and monodromy
detection, concatenation and corridor-based simplification.

Continuation is Newton seeded at the previous lift node, with the value and
derivative of g there that the previous node's own solve computed, and the
residual check reads g at Newton's answer from the same solve. A node
therefore costs only the evaluations after Newton's first step: one when
that step hits the target exactly, as on small circles in the chart at a
repelling fixed point. A step is accepted only when the displacement stays
below eta times the distance from the previous node to the nearest critical
point (``branch_step``), otherwise the target segment is bisected (up to a
fixed depth). This safeguard is what prevents silent branch jumps near
critical points.

A Path is a plane polyline. A lift in the working chart at a point q
(``sphere.chart_coordinate``), where curves live at scales far below q's
own magnitude, is a lift through that chart's map:
``lift_path(g.chart(q)[0], path, start, check_clearance=False)``.
"""

import cmath
import math

from .errors import (BranchJumpSuspected, ChartOverflow, EndpointMismatch,
                     NearCriticalValue)
from .ratmap import critical_values
from .sphere import CHART_LIMIT, chordal, is_inf, json_complex, json_typed

EPS_LIFT = 1e-9    # chordal residual allowed for accepted lift nodes
EPS_CV = 1e-6      # required path clearance to critical values
EPS_CLEAR = 1e-8   # required path clearance to punctures
ETA_SAFE = 0.25    # Newton displacement
MAX_DEPTH = 40     # bisection depth before giving up
_NEWTON_MAX_ITER = 60  # Newton iterations per preimage solve


class Path:
    """Polyline with flagged endpoints; immutable after construction.

    Nodes are finite complex numbers; exact consecutive duplicates are
    dropped.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes):
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

    @classmethod
    def _of_clean(cls, nodes):
        """The path of ``nodes`` as ``__init__`` would clean them: finite
        complex numbers with no exact consecutive duplicate. Nothing is
        checked."""
        path = cls.__new__(cls)
        path.nodes = tuple(nodes)
        return path

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
        return Path(out)

    @classmethod
    def from_json(cls, obj, what="path"):
        json_typed(obj, dict, what)
        return cls([json_complex(z, what + " node")
                    for z in json_typed(obj["nodes"], list, what + " nodes")])

    def __len__(self):
        return len(self.nodes)

    def __repr__(self):
        return "Path(%d nodes, %r -> %r)" % (len(self.nodes), self.start,
                                             self.end)


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


def path_clearance(path, points):
    """Minimum chordal distance from the polyline of a path to the given
    points: ``chordal``'s arithmetic and ``min``'s order, with each node's
    and each point's hypot(1, |z|) taken once."""
    nodes = path.nodes
    sizes = [abs(z) for z in nodes]
    scales = [math.hypot(1.0, r) for r in sizes]
    segments = range(len(nodes) - 1)
    best = math.inf
    for q in points:
        if is_inf(q):  # 2 / hypot(1, max(|a|, |b|))
            for i in segments:
                d = 2.0 / (scales[i + 1] if sizes[i + 1] > sizes[i]
                           else scales[i])
                if d < best:
                    best = d
            near = [2.0 / scales[0]]
        else:
            hq = math.hypot(1.0, abs(q))
            near = [2.0 * abs(z - q) / (h * hq) for z, h in zip(nodes, scales)]
            for i in segments:
                zc = _seg_closest(nodes[i], nodes[i + 1], q)
                d = min(near[i], near[i + 1],
                        2.0 * abs(zc - q) / (math.hypot(1.0, abs(zc)) * hq))
                if d < best:
                    best = d
        if not segments and near[0] < best:
            best = near[0]
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


def branch_step(w, crit):
    """The branch safeguard: a continuation step from w is accepted only
    when shorter than ETA_SAFE times the distance from w to the nearest
    critical point in ``crit`` (+inf when there is none)."""
    if not crit:
        return math.inf
    return ETA_SAFE * min(abs(w - c) for c in crit)


def lift_path(g, path, start_lift, check_clearance=True):
    """Unique continuation of the inverse branch of g along ``path`` from
    ``start_lift`` (with g(start_lift) = path.start)."""
    crit = g.chart()[1]  # the finite critical points

    start_lift = complex(start_lift)
    if not cmath.isfinite(start_lift):
        raise ValueError("path nodes must be finite")
    # (g, g') at lifted[-1], which seeds the next node's Newton solve
    last_eval = g.evaluate_with_derivative(start_lift)
    start_res = chordal(last_eval[0], path.start)
    if start_res > EPS_LIFT:
        raise EndpointMismatch(
            "g(start_lift) misses path start by chordal %.3g" % start_res)
    if check_clearance:
        cv = critical_values(g)
        clr = path_clearance(path, cv)
        if clr <= EPS_CV:
            raise NearCriticalValue(
                "path clearance %.3g to a critical value" % clr)

    lifted = [start_lift]
    last_target = path.start  # the target lifted[-1] was solved for
    max_res = start_res
    subdivisions = 0

    w_prev = start_lift
    allowed = branch_step(w_prev, crit)
    for z_from, z_to in zip(path.nodes, path.nodes[1:]):
        # pending targets along this segment (LIFO of (z, depth)), built
        # only once the segment subdivides
        pending = None
        depth = 0
        while True:
            found = _newton_preimage(g, z_to, w_prev, last_eval)
            ok = False
            if found is not None:
                w, gv, gd = found
                if abs(w - w_prev) < allowed:
                    res = chordal(gv, z_to)
                    ok = not res > EPS_LIFT
            if ok and abs(w) > CHART_LIMIT:
                raise ChartOverflow(
                    "lift reached |w| = %.3g; transport the chart" % abs(w))
            if not ok:
                if depth >= MAX_DEPTH:
                    raise BranchJumpSuspected(
                        "safeguard violated at depth %d near %r" % (depth, z_to))
                mid = 0.5 * (z_from + z_to)
                subdivisions += 1
                if pending is None:
                    pending = []
                pending.append((z_to, depth + 1))
                z_to, depth = mid, depth + 1
                continue
            max_res = max(max_res, res)
            z_from = z_to
            # keep lifted nodes and their targets aligned
            if w != w_prev and z_to != last_target:
                # w is complex, finite (|w - w_prev| < allowed held, and
                # lifted[0] is finite) and not lifted[-1]: lifted stays a
                # clean node list, as Path._of_clean takes it
                lifted.append(w)
                last_target = z_to
                last_eval = gv, gd
                w_prev = w
                allowed = branch_step(w, crit)
            if not pending:
                break
            z_to, depth = pending.pop()

    return LiftResult(Path._of_clean(lifted), max_res, subdivisions)


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
    scale = max(abs(p1.end), abs(p2.start), 1e-300)
    if abs(p1.end - p2.start) > max(EPS_LIFT, 1e-12 * scale):
        raise EndpointMismatch(
            "p1 ends at %r but p2 starts at %r" % (p1.end, p2.start))
    return Path(p1.nodes + p2.nodes[1:])


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
    return Path(stack)


def _point_in_triangle(q, a, b, c):
    """Whether q lies in the closed triangle abc. A q on the line of a
    collinear abc (all three cross products 0) counts as outside: the
    distance test of ``_triangle_clear`` judges it, and one inside the
    hull lies at distance 0 from an edge."""
    def cross(u, v):
        return u.real * v.imag - u.imag * v.real
    d1 = cross(b - a, q - a)
    d2 = cross(c - b, q - b)
    d3 = cross(a - c, q - c)
    if not (d1 or d2 or d3):
        return False
    neg = d1 < 0 or d2 < 0 or d3 < 0
    pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (neg and pos)


def _triangle_clear(a, b, c, obstacles):
    """Whether no obstacle lies in the triangle abc and its edges keep a
    chordal clearance above 2 EPS_CLEAR from each (``path_clearance``,
    which takes oo's as 2 / hypot(1, the largest |vertex|))."""
    return not any(not is_inf(q) and _point_in_triangle(q, a, b, c)
                   for q in obstacles) and \
        path_clearance(Path._of_clean((a, b, c, a)),
                       obstacles) > 2 * EPS_CLEAR


def simplify_path(path, obstacles):
    """Drop interior nodes whose corridor (the swept triangle) stays clear
    of the obstacle points by 2 EPS_CLEAR; endpoints and homotopy class are
    preserved by the corridor check."""
    path = cancel_retraces(path)
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
    return Path(nodes)
