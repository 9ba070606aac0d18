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
(``_AnchorChart.log10_row``), the clearance radius below which a
deviation is provably more than eps_sep from every other puncture
(``_AnchorChart.log2_clear``), and the processing order of the tracks.
Computed per step: the inverse step eta -> eta' with its logs, which the
cutoff test, the residual (``step_residual``, both the lift and the
diagram residual), the own log10 distance, the step bound and the
distinctness check share. Inside its clearance radius an anchored track
is never materialized: the distinctness check compares log2 |eta| with
the radius, and the record reads eta itself. A lone track's record takes
its row of distances as the minimum, and its step bound looks for no
other track. The path-node count is updated when a block is appended, so
an anchored step leaves it as it is.

A record writes its own JSON line (``TraceRecord.line``), byte for byte
what ``JSON_ENCODER`` writes, in one walk over the tracks in label order:
``_record_entry`` gives a track's entry with the texts of the entry and
its row, each number written once: by ``float.__repr__`` or
``int.__repr__`` where its type and finiteness are fixed by construction,
else by ``_json_number``. The texts fill
formats fixed when the run is built: a row format with the labels in the
encoder's key order, each anchor's row with the distances to the other
punctures written in and one slot for its own, and each track's entry
format, fixed by its label, its type and, once anchored, its anchor. A
lone track's row and its text serve as the minimum's too, and an anchored
step's residual text as its diagram residual's.

A step moves points and stores the residuals it makes on the track
(``lift_residual``, ``diagram_residual``), which the record reads: each
track keeps its ``history`` of positions (and a marked track its
``blocks``), and ``teich_step_bound`` reads a step's moves from them and
sums their ``hyperbolic`` bounds.

The punctures are P plus the extra punctures, ordered and labelled by
``ratmap.puncture_configuration``; a point counts as one of them by
``sphere.index_near`` (within ``sphere.EPS_SEP``), and a marked datum on
one is invalid input, as are two marked or trivial points within EPS_SEP
of each other at step 0 (``init_run``). An iterate run
(``compose_iterate_run``) takes its punctures from the analysis of g^m
alone, since P(g^m) = P(g): the critical values of g^m are the g^j(v) for
the critical values v of g and 0 <= j < m. Blocks of a path are joined by
``lifting.concatenate``.
"""

import functools
import json
import math
import re
import reprlib

from .errors import (CollisionDetected, InvalidBranchDatum,
                     NoApplicableComparison)
from . import hyperbolic
from .lifting import (EPS_CLEAR, EPS_CV, EPS_LIFT, ETA_SAFE, MAX_DEPTH, Path,
                      concatenate, lift_path, path_clearance, simplify_path)
from .local import LocalFixedChart
from .ratmap import (EPS_CYCLE, EPS_FIX, MAX_ORBIT, critical_values,
                     fixed_multiplier, is_repelling, iterate,
                     postsingular_analysis, preimages, puncture_configuration)
from .sphere import (EPS_SEP, chart_coordinate, chordal, encode_point,
                     index_near, is_inf)

# one compact sorted format for every trace line and every file the CLI
# writes. The artifacts (report, certificate, analysis) and cli._same_json
# go through it. A trace record writes its own line (TraceRecord), byte
# for byte what it would write: encode() sorts every dict of a record again
# on each call, ~7 of its ~13 us on a deep anchored record (CPython 3.11,
# x86-64)
JSON_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

K = 5             # steps in the interior-convergence window
EPS_CONV = 1e-10  # chordal move below which a free point has converged
EPS_P = 1e-8      # puncture distance of the stopping rule (stopping_status)

# the tolerances no run sets, under the names artifacts record them by
FIXED_TOLERANCES = {
    "eps_sep": EPS_SEP, "eps_lift": EPS_LIFT, "eps_cv": EPS_CV,
    "eps_clear": EPS_CLEAR, "eps_conv": EPS_CONV, "eps_fix": EPS_FIX,
    "eps_P": EPS_P, "K": K, "eta": ETA_SAFE, "max_depth": MAX_DEPTH,
    "max_orbit": MAX_ORBIT, "eps_cycle": EPS_CYCLE}


def _json_number(x):
    """A number as JSON_ENCODER writes it: a float by ``float.__repr__``,
    or NaN, Infinity, -Infinity where it is not finite; an int by
    ``int.__repr__``; None as null. Any other type, bool included, raises
    TypeError rather than write a wrong token."""
    kind = type(x)  # the exact types first, the common case
    if kind is float or isinstance(x, float):
        if x - x == 0.0:  # finite
            return float.__repr__(x)
        return "NaN" if x != x else "Infinity" if x > 0.0 else "-Infinity"
    if kind is int or isinstance(x, int) and kind is not bool:
        return int.__repr__(x)
    if x is None:
        return "null"
    raise TypeError("not a JSON number: %r" % (x,))


# the record numbers whose type and finiteness are fixed by construction
# bypass _json_number: an anchored track's eta parts and own log10
# distance are floats (ScaledComplex holds a finite nonzero m and finite
# logs, and the chart's log10 factor is finite), its exp2 and a record's n
# and path_nodes are ints. _json_number writes the slots that can be null
# or not finite (step_bound, the residuals), a free track's numbers and a
# minimum row over several tracks
_float_text = float.__repr__
_int_text = int.__repr__


def _quoted(text):
    """A key or string value as JSON_ENCODER writes it, with its "%"
    escaped for use in a %-format."""
    return JSON_ENCODER.encode(text).replace("%", "%%")


def _object_format(fields):
    """The %-format of a JSON object as JSON_ENCODER writes it: ``fields``
    maps each key to the %-format of its value ("%s" for a slot), and the
    keys go in sorted order, so the slots are filled in key order."""
    return "{%s}" % ",".join(_quoted(key) + ":" + fmt
                             for key, fmt in sorted(fields.items()))


# a trace record: slots for diagram_residual, lift_residual,
# min_dist_log10, n, path_nodes, points and step_bound, in that order
_RECORD_FORMAT = _object_format(dict.fromkeys(
    ("n", "points", "lift_residual", "path_nodes", "step_bound",
     "diagram_residual", "min_dist_log10"), "%s"))

# a trace line as a record writes it (TraceRecord.line), the layout cli's
# check matches: groups 1-3 are its min_dist_log10, n (as JSON writes an
# int) and points, and the other fields single numbers
_NUMBER = (r"(?:-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
           r"|null|NaN|-?Infinity)")
RECORD_LINE = re.compile(re.escape(_RECORD_FORMAT) % (
    _NUMBER, _NUMBER, r"(\{.*\})", "(0|[1-9][0-9]*)", _NUMBER, r"(\{.*\})",
    _NUMBER) + r"\s*")


def _entry_format(track):
    """The %-format of a track's ``"label":{...}`` in a record's points,
    fixed by its label, its type and its anchor once it has one: slots for
    the text of its row of distances, then for the numbers of its position
    or of its eta and exp2."""
    fields = {"dist_log10": "%s", "type": _quoted(track.kind)}
    if track.anchor is None:
        fields.update(mode=_quoted("free"), value="[%s,%s]")
    else:
        fields.update(mode=_quoted("anchored"),
                      anchor=_quoted(track.anchor.label), eta="[%s,%s]",
                      exp2="%s")
    return _quoted(track.label) + ":" + _object_format(fields)


class Tolerances:
    """The one tolerance a run sets: ``max_iters`` (an integer >= 0). A
    value given for any other must be its ``FIXED_TOLERANCES`` value;
    ``to_json`` lists all 13."""

    __slots__ = ("max_iters",)

    def __init__(self, max_iters=5000, **fixed):
        for name, value in fixed.items():
            if value != FIXED_TOLERANCES.get(name, math.nan):
                raise ValueError("tolerance %s=%s: a run sets only max_iters"
                                 % (name, reprlib.repr(value)))
        if isinstance(max_iters, float) and max_iters.is_integer():
            max_iters = int(max_iters)
        if not isinstance(max_iters, int) or max_iters < 0:
            raise ValueError("tolerance max_iters=%r is not an integer >= 0"
                             % (max_iters,))
        self.max_iters = max_iters

    def to_json(self):
        return dict(FIXED_TOLERANCES, max_iters=self.max_iters)


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
    puncture or obstacle, ``disk_R`` the comparison-disk radius,
    ``log10_row`` the log10 chordal distances to the punctures by label
    (None at the own label, where the distance is measured in the chart),
    ``row_format`` the JSON text of that row with one slot for the own
    distance, and ``log2_clear`` log2 of the clearance radius.

    The clearance radius r: a track anchored here with |eta| < r is more
    than EPS_SEP (chordal) from every other puncture q. Its position x has
    chart coordinate w = eps* + eta, and chordal(x, p) <= 2|w|: at a finite
    p the chordal factor is at most 2, and at p = oo, where w = 1/x,
    chordal(x, oo) = chordal(w, 0) by the inversion invariance of the
    chordal metric. So chordal(x, q) >= D - 2|w| with D = min over q of
    chordal(p, q), by the triangle inequality. With
    r = (D - EPS_SEP)/4 - |eps*|, |w| < (D - EPS_SEP)/4 and
    chordal(x, q) > EPS_SEP + (D - EPS_SEP)/2. That last half of the room
    is the margin for rounding the position and the distance, which costs
    a few ulps relative. r <= 0 gives log2_clear = -inf: no deviation is
    clear."""

    __slots__ = ("index", "label", "puncture", "chart", "rho", "r_anchor",
                 "disk_R", "log10_row", "row_format", "log2_clear")

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
        self.row_format = _object_format({
            lab: "%s" if d is None else _json_number(d)
            for lab, d in self.log10_row.items()})
        clear = (min(chordal(puncture, q) for q in others) - EPS_SEP) / 4.0 \
            - abs(chart.eps_star)
        self.log2_clear = math.log2(clear) if clear > 0.0 else -math.inf

    def chart_distance(self, x):
        """Distance to the anchor in its working chart."""
        w = chart_coordinate(self.puncture, x)
        return math.inf if is_inf(w) else abs(w)


class _MarkedTrack:
    """Mutable per-marked-point state inside a run."""

    __slots__ = ("label", "datum", "blocks", "nodes", "history", "anchor",
                 "lift_residual", "diagram_residual", "entry_format")
    kind = "fixed"

    def __init__(self, label, datum):
        self.label = label
        self.datum = datum
        self.blocks = []
        self.nodes = 1  # nodes of full_path(), kept by append_block
        self.history = [("free", datum.basepoint)]
        self.anchor = None
        # chordal residuals of the latest step, set by the step itself
        self.lift_residual = self.diagram_residual = 0.0

    def position(self, n=-1):
        mode, value = self.history[n]
        if mode == "free":
            return value
        return self.anchor.chart.materialize(value)

    def block(self, n):
        """The path of free step n (each free step appends one block)."""
        return self.blocks[n - 1]

    def full_path(self):
        return functools.reduce(concatenate, self.blocks,
                                Path([self.datum.basepoint]))

    def append_block(self, block):
        self.blocks.append(block)
        self.nodes += len(block) - 1


class _TrivialTrack:
    """A trivial point: start at step 0, its preimage q' from step 1 on."""

    __slots__ = ("label", "spec", "history", "entry_format")
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


class TraceRecord(dict):
    """A step's trace record (``PullbackRun.trace_record``): its keys and
    values, and ``line``, the text ``JSON_ENCODER.encode(dict(record))``
    gives. Nothing changes a record once it is built, or its line would go
    stale."""

    __slots__ = ("line",)


class Trace:
    """Per-step records plus the stopping status."""

    def __init__(self, records, status=None):
        self.records = records
        self.status = status

    def jsonl_lines(self):
        for rec in self.records:
            yield rec.line


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
        # fragments of a record's line (trace_record): the labels in the
        # encoder's key order, sorted as strings (p10 before p2), and a row
        # of distances with a slot for each. A record's points go in that
        # order too, the order a stored trace loads in
        self._row_labels = sorted(punctures.labels)
        self._row_format = _object_format(dict.fromkeys(punctures.labels,
                                                        "%s"))
        self._record_order = sorted(self._tracks, key=lambda t: t.label)
        # hypot(1, |p|) of each puncture p (None at oo), for a free row
        self._chordal_scales = [
            (lab, p, None if is_inf(p) else math.hypot(1.0, abs(p)))
            for lab, p in punctures]
        for track in self._tracks:
            track.entry_format = _entry_format(track)
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
            mult = fixed_multiplier(self.g, p)
            if mult is None or not is_repelling(mult):
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
            x_prev = track.history[-1][1]  # the deviation where anchored
            if track.anchor is not None:
                eta_next = track.anchor.chart.inv_step(x_prev)
                track.history.append(("anchored", eta_next))
                # an anchored step's residual is its diagram residual
                track.lift_residual = track.diagram_residual = \
                    track.anchor.chart.step_residual(x_prev, eta_next)
                continue
            if not track.blocks:
                new_block = track.datum.delta
                track.lift_residual = 0.0
            else:
                prev = track.blocks[-1]
                res = lift_path(self.g, prev, prev.end)
                new_block = simplify_path(res.lifted, self._obstacles)
                track.lift_residual = res.max_residual
            track.append_block(new_block)
            track.history.append(("free", new_block.end))
            if not self._maybe_anchor(track, new_block):
                # covers step 1 as well: x_1 = b' with g(b') = b
                track.diagram_residual = chordal(self.g(new_block.end),
                                                 x_prev)
        for triv in self.trivial:
            triv.history.append(("free", triv.spec.preimage))
        self._check_distinct()
        return self

    def _maybe_anchor(self, track, block):
        """Whether the track anchored: its free step ``block`` stayed near a
        repelling fixed puncture. It then steps, and has its residual, in
        the anchor's chart."""
        x_new = track.history[-1][1]
        x_prev = track.history[-2][1]  # free: an anchored track steps in-chart
        for anchor in self._anchors.values():
            if anchor.chart_distance(x_new) < anchor.r_anchor and \
               anchor.chart_distance(x_prev) < anchor.r_anchor and \
               all(anchor.chart_distance(z) < 2 * anchor.r_anchor
                   for z in block.nodes):
                track.anchor = anchor
                track.entry_format = _entry_format(track)
                eta = anchor.chart.deviation_of(x_new)
                track.history[-1] = ("anchored", eta)
                track.diagram_residual = anchor.chart.step_residual(
                    anchor.chart.deviation_of(x_prev), eta)
                return True
        return False

    # -- invariants ------------------------------------------------------------

    def _check_distinct(self):
        """Punctures against the moving coordinates, then the moving
        coordinates pairwise; the first pair closer than eps_sep raises."""
        tracks = self._tracks
        # (label, position, own anchor's index or -1) of each track some
        # puncture is measured from: separation from the own anchor is
        # certified in-chart, and inside the clearance radius from every
        # other puncture too (_AnchorChart), so such a track is left out
        measured = []
        for t in tracks:
            anchor, value = t.anchor, t.history[-1][1]
            if anchor is None:
                measured.append((t.label, value, -1))
            elif not value.log2_abs() < anchor.log2_clear:
                measured.append((t.label, t.position(), anchor.index))
        if measured:
            for idx, (lp, p) in enumerate(self.punctures):
                for lm, x, own in measured:
                    if own != idx and chordal(p, x) <= EPS_SEP:
                        raise CollisionDetected(
                            "positions %s and %s closer than eps_sep"
                            % (lp, lm), pair=(lp, lm))
        if len(tracks) < 2:
            return
        # the deviation is read only where the anchor is not None
        moving = [(t.label, t.position(), t.anchor, t.history[-1][1])
                  for t in tracks]
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

    def dist_log10(self, track, p_label):
        """log10 chordal distance from a marked track to one puncture."""
        return self.log10_distances(track)[p_label]

    def log10_distances(self, track):
        """log10 chordal distances from a track to the punctures, by label."""
        return self._record_entry(track)[0]["dist_log10"]

    def record_points(self):
        """The ``points`` of the current step's record (``_record_entry``)
        and their per-puncture minimum (``min_dist_log10``), each followed
        by its JSON text: (points, text, minimum, text)."""
        tracks = self._record_order
        if len(tracks) == 1:
            # a lone track's row is the minimum itself; no reader changes
            # a record
            track, = tracks
            entry, text, row_text = self._record_entry(track)
            return ({track.label: entry}, "{%s}" % text, entry["dist_log10"],
                    row_text)
        points = {}
        texts = []
        for track in tracks:
            points[track.label], text, _ = self._record_entry(track)
            texts.append(text)
        min_row = min_dist_log10(points)
        return points, "{%s}" % ",".join(texts), min_row, \
            self._row_text(min_row)

    def _record_entry(self, track):
        """A track's entry in the current step's record, the entry's text
        (``entry_format`` filled) and its row's text. An anchored track's
        log10 distance to its own anchor is measured in the chart; to the
        other punctures it is the anchor's."""
        anchor = track.anchor
        value = track.history[-1][1]  # the deviation where anchored
        if anchor is None:
            hv = math.hypot(1.0, abs(value))  # chordal(value, p), as below
            row = {lab: math.log10(max(
                2.0 / hv if hp is None else 2.0 * abs(value - p) / (hv * hp),
                1e-300)) for lab, p, hp in self._chordal_scales}
            row_text = self._row_text(row)
            x, y = value.real, value.imag
            entry = {"mode": "free", "type": track.kind, "value": [x, y],
                     "dist_log10": row}
            return entry, track.entry_format % (
                row_text, _json_number(x), _json_number(y)), row_text
        own = anchor.chart.log10_dist_to_anchor(value)
        row = anchor.log10_row.copy()
        row[anchor.label] = own
        row_text = anchor.row_format % _float_text(own)
        x, y = value.m.real, value.m.imag
        entry = {"mode": "anchored", "type": track.kind,
                 "anchor": anchor.label, "eta": [x, y], "exp2": value.e,
                 "dist_log10": row}
        return entry, track.entry_format % (
            row_text, _float_text(x), _float_text(y),
            _int_text(value.e)), row_text

    def trace_record(self):
        points, points_text, min_row, min_text = self.record_points()
        diag = 0.0
        residual = 0.0
        nodes = 0
        for track in self.marked:
            residual = max(residual, track.lift_residual)
            diag = max(diag, track.diagram_residual)
            nodes += track.nodes
        if self.n >= 1:
            try:  # step 1's bound is d0, computed once
                step_bound = self.d0_bound() if self.n == 1 else \
                    teich_step_bound(self, self.n)
            except NoApplicableComparison:
                step_bound = None  # no certified bound for this step
        else:
            step_bound = 0.0
        rec = TraceRecord(n=self.n, points=points, lift_residual=residual,
                          path_nodes=nodes, step_bound=step_bound,
                          diagram_residual=diag, min_dist_log10=min_row)
        diag_text = _json_number(diag)
        rec.line = _RECORD_FORMAT % (
            diag_text,
            # an anchored step's residual is its diagram residual
            diag_text if residual is diag else _json_number(residual),
            min_text, _int_text(self.n), _int_text(nodes), points_text,
            _json_number(step_bound))
        return rec

    def _row_text(self, row):
        """JSON text of a row of distances keyed by the puncture labels."""
        return self._row_format % tuple([_json_number(row[lab])
                                         for lab in self._row_labels])


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
        others = () if len(tracks) == 1 else [
            other.position(n if j < i else n - 1)
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
    try:
        return PullbackRun(g, punctures, tracks, trivial_tracks, tol)
    except CollisionDetected as exc:  # at step 0, coincident input points
        raise InvalidBranchDatum("%s at step 0" % exc) from None


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


def stopping_status(records, punctures):
    """The stopping rule, a function of the records up to now: a RunStatus
    when it fires at the last record, else None.

    (b) puncture convergence: a fixed marked point's nearest puncture is
    the same over the last 6 records, closer than EPS_P, and each of the 5
    drops in log10 distance is below log10(0.98);
    (a) interior convergence: over the last K steps every fixed marked
    point stayed free and moved less than eps_conv (chordal), and each
    ends more than 10 EPS_P from every puncture.
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
        if len(records) < 6 or not 10.0 ** logd < EPS_P:
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
                > 10 * EPS_P:
            return None
    return RunStatus("candidate_realized", steps=last["n"])


def run_until(run, max_iters=None):
    """Step until ``stopping_status`` fires or the iteration cap; returns
    (Trace, RunStatus)."""
    cap = run.tol.max_iters if max_iters is None else max_iters
    records = [run.trace_record()]
    status = step_until(
        run, lambda: stopping_status(records, run.punctures), cap, records)
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
