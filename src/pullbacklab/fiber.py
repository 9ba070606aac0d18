"""The pullback engine on the Bers fiber: marked-point states, the
inverse-branch step, trivial marked points, iterate composition, run
orchestration.

A fiber point over the base structure is realized concretely as a position
in the puncture complement plus a homotopy-tracking polyline from the
basepoint. The path at step n+1 is delta followed by the lift of the path
at step n started at the branch point; since the lift of a concatenation is
the concatenation of lifts with chained starts, the engine advances
incrementally, lifting only the newest connecting block each step (bitwise
the same nodes, O(last block) work).

Marked orbits falling into a repelling fixed puncture are handed to a
LocalFixedChart and tracked as scaled deviations (module ``local``); the
distinctness requirement is then certified in the anchored chart, where a
nonzero separation from the puncture is exact rather than limited by the
absolute chart's resolution.

Every run is driven by one loop, ``step_until``, which appends one
``PullbackRun.trace_record`` per step; ``run_until`` stops it with the one
stopping rule, ``stopping_status``, a pure function of the records (so a
stored trace is judged exactly as the live run was), and
``certify.certify_obstructed`` continues it, recording the same way.

An anchored step computes each value once. Fixed when the run is built:
the anchor's chart with its logs of the chordal factor and the quadratic
coefficient (``LocalFixedChart``), a row of log10 distances from the
anchor to the other punctures that each anchored record copies
(``_AnchorChart.log10_row``), and the processing order of the tracks.
Computed per step: the inverse step eta -> eta' with its logs, which the
cutoff test, the residual (``step_residual``, reused as the record's
diagram residual), the own log10 distance and the step bound share, and
the distinctness check; the path-node count is updated when a block is
appended, so an anchored step leaves it as it is.

A step only moves points: each track keeps its ``history`` of positions
(and a marked track its ``blocks``), and ``teich_step_bound`` reads a
step's moves from them and sums their ``hyperbolic`` bounds.

The punctures are P plus the extra punctures, ordered and labelled by
``ratmap.puncture_configuration``; a point counts as one of them by
``sphere.index_near`` (within ``sphere.EPS_SEP``), and a marked datum on
one is invalid input. An iterate run
(``compose_iterate_run``) takes its punctures from the analysis of g^m
alone, since P(g^m) = P(g): the critical values of g^m are the g^j(v) for
the critical values v of g and 0 <= j < m. Blocks of a path are joined by
``lifting.concatenate``.
"""

import functools
import json
import math

from .errors import (CollisionDetected, InvalidBranchDatum,
                     NoApplicableComparison)
from . import hyperbolic
from .lifting import (EPS_CLEAR, EPS_CV, EPS_LIFT, ETA_SAFE, MAX_DEPTH, Path,
                      concatenate, lift_path, path_clearance, simplify_path)
from .local import LocalFixedChart
from .ratmap import (EPS_CYCLE, MAX_ORBIT, critical_values, is_repelling,
                     iterate, postsingular_analysis, preimages,
                     puncture_configuration)
from .sphere import (EPS_SEP, chart_coordinate, chordal, encode_point,
                     index_near, is_inf)

# one compact sorted format for every trace line and every file the CLI
# writes. encode() builds its C encoder per call: ~0.35 us of the 11-16 us
# a deep anchored record takes on CPython 3.11 / x86-64, where the reprs of
# its 11 floats (~0.7 us each) are the floor of this format
JSON_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

K = 5             # steps in the interior-convergence window
EPS_CONV = 1e-10  # chordal move below which a free point has converged
EPS_FIX = 1e-9    # chordal residual of g(p) = p for a fixed point

# the tolerances no run sets, under the names artifacts record them by
FIXED_TOLERANCES = {
    "eps_sep": EPS_SEP, "eps_lift": EPS_LIFT, "eps_cv": EPS_CV,
    "eps_clear": EPS_CLEAR, "eps_conv": EPS_CONV, "eps_fix": EPS_FIX,
    "K": K, "eta": ETA_SAFE, "max_depth": MAX_DEPTH, "max_orbit": MAX_ORBIT,
    "eps_cycle": EPS_CYCLE}


class Tolerances:
    """The two tolerances a run sets: ``eps_P`` (finite, > 0) and
    ``max_iters`` (an integer >= 0). A value given for any other must be
    its ``FIXED_TOLERANCES`` value; ``to_json`` lists all 13."""

    __slots__ = ("eps_P", "max_iters")

    def __init__(self, eps_P=1e-8, max_iters=5000, **fixed):
        for name, value in fixed.items():
            if value != FIXED_TOLERANCES.get(name, math.nan):
                raise ValueError("tolerance %s=%r: a run sets only eps_P and "
                                 "max_iters" % (name, value))
        try:
            self.eps_P = float(eps_P)
        except OverflowError:  # an integer past double range
            self.eps_P = math.inf
        if not 0.0 < self.eps_P < math.inf:
            raise ValueError("tolerance eps_P=%r is not in (0, inf)"
                             % self.eps_P)
        if isinstance(max_iters, float) and max_iters.is_integer():
            max_iters = int(max_iters)
        if not isinstance(max_iters, int) or max_iters < 0:
            raise ValueError("tolerance max_iters=%r is not an integer >= 0"
                             % (max_iters,))
        self.max_iters = max_iters

    def to_json(self):
        return dict(FIXED_TOLERANCES, eps_P=self.eps_P,
                    max_iters=self.max_iters)


class BranchDatum:
    """Basepoint b, chosen preimage b' with g(b') = b, and the reference
    path delta from b to b'; this is the homotopy class of the marking."""

    __slots__ = ("basepoint", "branch_point", "delta")

    def __init__(self, basepoint, branch_point, delta=None):
        self.basepoint = complex(basepoint)
        self.branch_point = complex(branch_point)
        if delta is None:
            delta = Path([self.basepoint, self.branch_point])
        self.delta = delta

    def validate(self, g, punctures):
        for z, what in ((self.basepoint, "basepoint"),
                        (self.branch_point, "branch point")):
            if index_near(punctures.points, z) is not None:
                raise InvalidBranchDatum("%s lies on a puncture" % what)
        self.check_ends(g)
        clr = path_clearance(self.delta, punctures.points)
        if clr <= EPS_CLEAR:
            raise InvalidBranchDatum(
                "delta clearance %.3g to the punctures" % clr)

    def check_ends(self, g):
        """g(b') = b and delta runs from b to b', as lifting delta needs."""
        if chordal(g(self.branch_point), self.basepoint) > EPS_LIFT:
            raise InvalidBranchDatum("g(branch_point) misses the basepoint")
        if self.delta.start != self.basepoint or self.delta.end != self.branch_point:
            raise InvalidBranchDatum("delta must run from b to b'")


class TrivialMarkedSpec:
    """A strictly preperiodic marked point: image q in P and the chosen
    preimage q' with g(q') = q; its pullback position is q' from step 1 on."""

    __slots__ = ("image", "preimage", "start")

    def __init__(self, image, preimage, start=None):
        self.image = image if is_inf(image) else complex(image)
        self.preimage = complex(preimage)
        self.start = self.preimage if start is None else complex(start)

    def validate(self, g, punctures):
        if chordal(g(self.preimage), self.image) > EPS_LIFT:
            raise InvalidBranchDatum("g(q') misses the trivial image q")
        if index_near(punctures.points, self.image) is None:
            raise InvalidBranchDatum("trivial image q must lie in P")
        for z, name in ((self.preimage, "q'"), (self.start, "start")):
            if index_near(punctures.points, z) is not None:
                raise InvalidBranchDatum(
                    "trivial %s collides with a puncture" % name)
        if self.start != self.preimage and path_clearance(
                Path([self.start, self.preimage]),
                punctures.points) <= EPS_CLEAR:
            raise InvalidBranchDatum("trivial settling segment hits P")


class _AnchorChart:
    """Precomputed anchoring data for the repelling fixed puncture ``label``
    (at ``index``): ``rho`` is the chart distance to the nearest other
    puncture or obstacle, ``disk_R`` the comparison-disk radius, and
    ``log10_row`` the log10 chordal distances to the punctures by label
    (None at the own label, where the distance is measured in the chart)."""

    __slots__ = ("index", "label", "puncture", "chart", "rho", "r_anchor",
                 "disk_R", "log10_row")

    def __init__(self, index, punctures, chart, obstacles):
        self.index = index
        self.label = punctures.labels[index]
        self.puncture = puncture = punctures.points[index]
        self.chart = chart
        others = [q for j, q in enumerate(punctures.points) if j != index]
        self.rho = min(d for d in map(self.chart_distance,
                                      others + list(obstacles)) if d > 0)
        self.r_anchor = self.rho / 8.0
        self.disk_R = self.rho if is_inf(puncture) else min(
            self.chart_distance(q) for q in others if not is_inf(q))
        self.log10_row = {
            lab: None if j == index else
            math.log10(max(chordal(puncture, p), 1e-300))
            for j, (lab, p) in enumerate(punctures)}

    def chart_distance(self, x):
        """Distance to the anchor in its working chart."""
        w = chart_coordinate(self.puncture, x)
        return math.inf if is_inf(w) else abs(w)


class _MarkedTrack:
    """Mutable per-marked-point state inside a run."""

    __slots__ = ("label", "datum", "blocks", "nodes", "history", "anchor",
                 "last_residual")
    kind = "fixed"

    def __init__(self, label, datum):
        self.label = label
        self.datum = datum
        self.blocks = []
        self.nodes = 1  # nodes of full_path(), kept by append_block
        self.history = [("free", datum.basepoint)]
        self.anchor = None
        self.last_residual = 0.0

    @property
    def mode(self):
        return self.history[-1][0]

    def position(self, n=-1):
        mode, value = self.history[n]
        if mode == "free":
            return value
        return self.anchor.chart.materialize(value)

    def block(self, n):
        """The path of free step n (each free step appends one block)."""
        return self.blocks[n - 1]

    def eta(self):
        return self.history[-1][1] if self.mode == "anchored" else None

    def full_path(self):
        return functools.reduce(concatenate, self.blocks,
                                Path([self.datum.basepoint]))

    def append_block(self, block):
        self.blocks.append(block)
        self.nodes += len(block) - 1


class _TrivialTrack:
    """A trivial point: start at step 0, its preimage q' from step 1 on."""

    __slots__ = ("label", "spec", "history")
    anchor = None
    kind = "trivial"

    def __init__(self, label, spec):
        self.label = label
        self.spec = spec
        self.history = [("free", spec.start)]

    def position(self, n=-1):
        return self.history[n][1]

    def block(self, n):
        """The settling segment start -> q' at step 1; no move after it."""
        return Path([self.spec.start, self.spec.preimage]) if n == 1 else None


class RunStatus:
    """Outcome of run_until; classification is finalized in certify."""

    __slots__ = ("kind", "puncture_label", "puncture", "reason", "steps")

    def __init__(self, kind, puncture_label=None, puncture=None, reason="",
                 steps=0):
        self.kind = kind  # candidate_realized | candidate_puncture | undecided
        self.puncture_label = puncture_label
        self.puncture = puncture
        self.reason = reason
        self.steps = steps

    def to_json(self):
        return {"kind": self.kind, "puncture_label": self.puncture_label,
                "puncture": None if self.puncture is None
                else encode_point(self.puncture),
                "reason": self.reason, "steps": self.steps}

    def __repr__(self):
        extra = self.puncture_label or self.reason
        return "RunStatus(%s%s, %d steps)" % (
            self.kind, ", %s" % extra if extra else "", self.steps)


class Trace:
    """Per-step records plus the stopping status."""

    def __init__(self, records, status=None):
        self.records = records
        self.status = status

    def jsonl_lines(self):
        for rec in self.records:
            yield JSON_ENCODER.encode(rec)


class PullbackRun:
    """Sequential pullback iteration state; step n+1 consumes step n."""

    def __init__(self, g, punctures, marked, trivial, tol):
        self.g = g
        self.punctures = punctures
        self.marked = marked
        self.trivial = trivial
        self.tol = tol
        self.n = 0
        self._d0 = None
        self._tracks = list(marked) + list(trivial)  # processing order
        self._anchors = self._prepare_anchor_charts()
        self._obstacles = list(punctures.points) + [
            v for v in critical_values(g)
            if index_near(punctures.points, v) is None]
        self._check_distinct()

    # -- setup ---------------------------------------------------------------

    def _prepare_anchor_charts(self):
        anchors = {}
        pts = self.punctures.points
        _, crit_finite = self.g.chart()
        for idx, p in enumerate(pts):
            gp, mult = self.g.evaluate_with_derivative(p)
            if chordal(gp, p) > EPS_FIX or not is_repelling(mult):
                continue
            chart = LocalFixedChart(self.g, p)
            near = list(crit_finite) + [b for b, _ in preimages(self.g, p)
                                        if chordal(b, p) > EPS_SEP]
            anchors[idx] = _AnchorChart(idx, self.punctures, chart, near)
        return anchors

    @property
    def k(self):
        return len(self.punctures) + len(self.marked) + len(self.trivial) - 3

    # -- the sigma step -------------------------------------------------------

    def pullback_step(self):
        self.n += 1
        for track in self.marked:
            if track.anchor is not None:
                eta_prev = track.history[-1][1]
                eta_next = track.anchor.chart.inv_step(eta_prev)
                track.history.append(("anchored", eta_next))
                track.last_residual = track.anchor.chart.step_residual(
                    eta_prev, eta_next)
                continue
            if not track.blocks:
                new_block = track.datum.delta
                track.last_residual = 0.0
            else:
                prev = track.blocks[-1]
                res = lift_path(self.g, prev, prev.end)
                new_block = simplify_path(res.lifted, self._obstacles)
                track.last_residual = res.max_residual
            track.append_block(new_block)
            track.history.append(("free", new_block.end))
            self._maybe_anchor(track, new_block)
        for triv in self.trivial:
            triv.history.append(("free", triv.spec.preimage))
        self._check_distinct()
        return self

    def _maybe_anchor(self, track, block):
        x_new = track.history[-1][1]
        x_prev = track.history[-2][1] if track.history[-2][0] == "free" else None
        if x_prev is None:
            return
        for anchor in self._anchors.values():
            if anchor.chart_distance(x_new) < anchor.r_anchor and \
               anchor.chart_distance(x_prev) < anchor.r_anchor and \
               all(anchor.chart_distance(z) < 2 * anchor.r_anchor
                   for z in block.absolute_nodes()):
                track.anchor = anchor
                eta = anchor.chart.deviation_of(x_new)
                track.history[-1] = ("anchored", eta)
                return

    # -- invariants ------------------------------------------------------------

    def _check_distinct(self):
        """Punctures against the moving coordinates, then the moving
        coordinates pairwise; the first pair closer than eps_sep raises."""
        # the deviation is read only where the anchor is not None
        moving = [(t.label, t.position(), t.anchor, t.history[-1][1])
                  for t in self._tracks]
        for idx, (lp, p) in enumerate(self.punctures):
            for lm, x, anchor, _ in moving:
                # separation from the own anchor is certified in-chart
                if anchor is not None and anchor.index == idx:
                    continue
                if chordal(p, x) <= EPS_SEP:
                    raise CollisionDetected(
                        "positions %s and %s closer than eps_sep" % (lp, lm),
                        pair=(lp, lm))
        for i, (li, xi, ai, ei) in enumerate(moving):
            for lj, xj, aj, ej in moving[i + 1:]:
                if ai is not None and aj is not None and ai.index == aj.index:
                    gap = ei.log2_dist(ej)
                    if gap == -math.inf:
                        raise CollisionDetected(
                            "marked points %s, %s merged" % (li, lj),
                            pair=(li, lj))
                    rel = gap - max(ei.log2_abs(), ej.log2_abs())
                    if rel <= math.log2(EPS_SEP):
                        raise CollisionDetected(
                            "marked points %s, %s closer than eps_sep "
                            "relative" % (li, lj), pair=(li, lj))
                elif chordal(xi, xj) <= EPS_SEP:
                    raise CollisionDetected(
                        "positions %s and %s closer than eps_sep" % (li, lj),
                        pair=(li, lj))

    # -- bounds / reporting ------------------------------------------------------

    def d0_bound(self):
        """Upper bound for the first step distance, reused for all later
        steps (the pullback map is 1-Lipschitz)."""
        if self._d0 is None:
            if self.n < 1:
                raise ValueError("run has not stepped yet")
            self._d0 = teich_step_bound(self, 1)
        return self._d0

    def step_points(self, n):
        """The step-n configuration: punctures, then the tracks in
        processing order, as (label, "P" or "marked", z, deviation). An
        anchored point has z = its anchor's puncture and deviation =
        (chart, eta); every other point its position and None."""
        if not 0 <= n <= self.n:
            raise ValueError("run has no step %d" % n)
        out = [(lab, "P", p, None) for lab, p in self.punctures]
        for track in self._tracks:
            mode, value = track.history[n]
            if mode == "free":
                out.append((track.label, "marked", value, None))
            else:
                out.append((track.label, "marked", track.anchor.puncture,
                            (track.anchor.chart, value)))
        return out

    def dist_log10(self, track, p_label):
        """log10 chordal distance from a marked track to one puncture."""
        return self.log10_distances(track)[p_label]

    def log10_distances(self, track):
        """log10 chordal distance from a marked track to every puncture,
        by label. An anchored track's distance to its own anchor is
        measured in the chart; to the other punctures it is the anchor's."""
        anchor = track.anchor
        if anchor is None:
            x = track.position()
            return {lab: math.log10(max(chordal(x, p), 1e-300))
                    for lab, p in self.punctures}
        row = dict(anchor.log10_row)
        row[anchor.label] = anchor.chart.log10_dist_to_anchor(track.eta())
        return row

    def point_entries(self):
        """The ``points`` of the current step's trace record: each track's
        position or anchored deviation, and its log10 distances."""
        points = {}
        for track in self._tracks:
            if track.anchor is not None:
                eta = track.eta()
                entry = {"mode": "anchored", "type": track.kind,
                         "anchor": track.anchor.label,
                         "eta": [eta.m.real, eta.m.imag], "exp2": eta.e}
            else:
                x = track.position()
                entry = {"mode": "free", "type": track.kind,
                         "value": [x.real, x.imag]}
            entry["dist_log10"] = self.log10_distances(track)
            points[track.label] = entry
        return points

    def trace_record(self):
        points = self.point_entries()
        diag = 0.0
        residual = 0.0
        nodes = 0
        for track in self.marked:
            residual = max(residual, track.last_residual)
            diag = max(diag, self._diagram_residual(track))
            nodes += track.nodes
        if self.n >= 1:
            try:
                step_bound = teich_step_bound(self, self.n)
            except NoApplicableComparison:
                step_bound = None  # no certified bound for this step
        else:
            step_bound = 0.0
        return {"n": self.n, "points": points, "lift_residual": residual,
                "path_nodes": nodes, "step_bound": step_bound,
                "diagram_residual": diag,
                "min_dist_log10": min_dist_log10(points)}

    def _diagram_residual(self, track):
        """Chordal |g(x_n) - x_{n-1}| for the most recent step."""
        if self.n < 1 or len(track.history) < 2:
            return 0.0
        mode_new, val_new = track.history[-1]
        mode_old, val_old = track.history[-2]
        if mode_new == "anchored":
            if mode_old == "anchored":
                # pullback_step's chart.step_residual(val_old, val_new)
                return track.last_residual
            chart = track.anchor.chart
            eta_old = chart.deviation_of(val_old)
            return chart.step_residual(eta_old, val_new)
        # covers step 1 as well: x_1 = b' with g(b') = b
        return chordal(self.g(val_new), val_old)


# ---------------------------------------------------------------------------

def teich_step_bound(run, n):
    """Upper bound for the Teichmueller distance between fiber points n-1
    and n: the sum of the bounds of the step's moves, read from each
    track's ``history`` and ``blocks`` (the fiber hyperbolic metric
    dominates the Teichmueller metric). The tracks move one at a time in
    processing order, the others standing at their step-n (earlier) or
    step-(n-1) (later) positions, which join the punctures. An anchored
    move is bounded in its chart on a comparison disk clear of those
    positions, a free move along its block, which must avoid them: a
    crossing raises NoApplicableComparison rather than fabricating a bound."""
    if not 1 <= n <= run.n:
        raise ValueError("run has no step %d" % n)
    tracks = run._tracks
    total = 0.0
    for i, track in enumerate(tracks):
        others = [other.position(n if j < i else n - 1)
                  for j, other in enumerate(tracks) if j != i]
        mode, prev = track.history[n - 1]
        if mode == "anchored":
            anchor = track.anchor
            R = anchor.disk_R
            for x in others:
                R = min(R, anchor.chart_distance(x))
            total += hyperbolic.anchored_step_bound(R, prev,
                                                    track.history[n][1])
            continue
        block = track.block(n)
        if block is None:
            continue
        if len(block) > 1 and others and \
                path_clearance(block, others) <= 2 * EPS_CLEAR:
            raise NoApplicableComparison(
                "step %d bound not certified: connector of %s crosses "
                "another marked coordinate" % (n, track.label))
        pts = list(run.punctures.points)
        for x in others:
            if index_near(pts, x) is None:
                pts.append(x)
        total += hyperbolic.path_length_upper_bound(pts, block)
    return total


def min_dist_log10(points):
    """Per-puncture minimum of the points' log10 distances, keyed like their
    rows: the first row, lowered where a later one is smaller, as ``min``."""
    first, *rest = [entry["dist_log10"] for entry in points.values()]
    best = dict(first)
    for row in rest:
        for lab, d in row.items():
            if d < best[lab]:
                best[lab] = d
    return best


def init_run(g, marked, trivial=(), extra_punctures=(), tol=None):
    """Validate inputs and build the step-0 run state.

    ``extra_punctures`` extends the postsingular set by forward-invariant
    points (the marked set B of the base structure may be larger than P,
    e.g. z -> z^2 needs a third puncture). Invariance is checked for the
    whole set: an extra may map onto another extra, as in a cycle."""
    tol = tol or Tolerances()
    pts = list(postsingular_analysis(g).postsingular.points)
    extras = [q if is_inf(q) else complex(q) for q in extra_punctures]
    for q in extras:
        if index_near(pts, q) is not None:
            continue
        if index_near(pts + extras, g(q)) is None:
            raise InvalidBranchDatum(
                "extra puncture %r is not forward invariant" % (q,))
        pts.append(q)
    if len(pts) < 3:
        raise InvalidBranchDatum(
            "need |P| >= 3 punctures (got %d); add extra_punctures" % len(pts))
    punctures = puncture_configuration(pts)

    marked = list(marked)
    trivial = list(trivial)
    if len(pts) + len(marked) + len(trivial) < 4:
        raise InvalidBranchDatum("need |A| >= 4 (punctures plus marked)")
    for datum in marked + trivial:
        datum.validate(g, punctures)
    tracks = [_MarkedTrack("m%d" % i, d) for i, d in enumerate(marked)]
    trivial_tracks = [_TrivialTrack("t%d" % i, s)
                      for i, s in enumerate(trivial)]
    return PullbackRun(g, punctures, tracks, trivial_tracks, tol)


def step_until(run, stop, cap, records=None):
    """The step loop: return ``stop()`` as soon as it is not None, else
    step (appending ``run.trace_record()`` to ``records`` when given) until
    ``run.n`` reaches ``cap``, and return None there."""
    while True:
        result = stop()
        if result is not None or run.n >= cap:
            return result
        run.pullback_step()
        if records is not None:
            records.append(run.trace_record())


def stopping_status(records, punctures, tol):
    """The stopping rule, a function of the records up to now: a RunStatus
    when it fires at the last record, else None.

    (b) puncture convergence: a fixed marked point's nearest puncture is
    the same over the last 6 records, closer than eps_P, and each of the 5
    drops in log10 distance is below log10(0.98);
    (a) interior convergence: over the last K steps every fixed marked
    point stayed free and moved less than eps_conv (chordal), and each
    ends more than 10 eps_P from every puncture.
    Rule (b) is tried first. No rule fires before the first step."""
    if len(records) < 2:
        return None
    last = records[-1]
    fixed = [lab for lab, entry in last["points"].items()
             if entry["type"] == "fixed"]

    def nearest(rec, lab):
        """(nearest puncture label, log10 distance) of one point."""
        return min(rec["points"][lab]["dist_log10"].items(),
                   key=lambda item: item[1])

    for lab in fixed:
        p_label, logd = nearest(last, lab)
        if len(records) < 6 or not 10.0 ** logd < tol.eps_P:
            continue
        series = [nearest(rec, lab) for rec in records[-6:]]
        if all(x[0] == p_label for x in series) and \
                all(b[1] - a[1] < math.log10(0.98)
                    for a, b in zip(series, series[1:])):
            return RunStatus("candidate_puncture", puncture_label=p_label,
                             puncture=punctures.point(p_label),
                             steps=last["n"])
    window = records[-(K + 1):]
    if len(window) < K + 1:
        return None
    for lab in fixed:
        entries = [rec["points"][lab] for rec in window]
        if any(entry["mode"] != "free" for entry in entries):
            return None
        values = [complex(*entry["value"]) for entry in entries]
        # newest move first: it is the one most likely to be too large
        if any(chordal(values[i - 1], values[i]) >= EPS_CONV
               for i in range(len(values) - 1, 0, -1)):
            return None
        if not min(chordal(values[-1], p) for p in punctures.points) \
                > 10 * tol.eps_P:
            return None
    return RunStatus("candidate_realized", steps=last["n"])


def run_until(run, max_iters=None):
    """Step until ``stopping_status`` fires or the iteration cap; returns
    (Trace, RunStatus)."""
    cap = run.tol.max_iters if max_iters is None else max_iters
    records = [run.trace_record()]
    status = step_until(
        run, lambda: stopping_status(records, run.punctures, run.tol), cap,
        records)
    if status is None:
        status = RunStatus("undecided", reason="max_iters", steps=run.n)
    return Trace(records, status), status


def compose_iterate_run(g, m, datum, extra_punctures=(), tol=None):
    """Run for the m-th iterate with the m-fold composed branch datum:
    delta_m = delta . lift(delta) . lift^2(delta) ... with starts chained
    through preimages; its positions at step n match the base run's
    positions at step m*n."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return init_run(g, [datum], extra_punctures=extra_punctures, tol=tol)
    datum.check_ends(g)  # before lifting delta, which needs them
    blocks = [datum.delta]
    for _ in range(m - 1):
        blocks.append(lift_path(g, blocks[-1], blocks[-1].end).lifted)
    delta_m = functools.reduce(concatenate, blocks)
    datum_m = BranchDatum(datum.basepoint, delta_m.end, delta_m)
    return init_run(iterate(g, m), [datum_m],
                    extra_punctures=extra_punctures, tol=tol)
