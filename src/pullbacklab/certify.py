"""Classification of pullback runs per the unit-disk dichotomy, and
emission/verification of quantitative Levy-multicurve certificates.

A certificate witnesses the short-geodesic pigeonhole: a round annulus
separating a collapsing cluster from the rest of the marked configuration,
whose modulus exceeds (k+4) pi e^{k d0} / ell* for an upper bound d0 of the
first Teichmueller step. Emission additionally records injectivity
evidence for the k-fold forward advance of the annulus and the chain of
degree-1 inverse lifts of its core curve. All checks are floating point:
certificates are numerical evidence, with every tolerance embedded.

The injectivity evidence asks, at each forward stage, that the images of
the two boundary circles be star-shaped about the image of the annulus
center and separated by a circle about it (``injectivity_test``): O(n)
tests, with no pair of edges tested. No lift is computed. At each stage
the core curve's image lies between the boundary images, clear of every
critical point, so it is its own inverse lift and is not sampled. The
k lifts of the core curve are the core polygon over lambda^j, stored as
(center, vertex) pairs, each within a Rouche distance of the true lift
(``_linear_lift``); they nest in the annulus by a closed form
(``_nesting_fault``), and no curve is sampled about a point.

Emission and ``verify_certificate`` derive a certificate the same way:
``_derive_certificate`` computes every field from the run, the step and
the annulus (the step configuration, read from the punctures and the
tracks' histories and charted by ``_step_chart_entries`` at the annulus's
anchor, the cluster's puncture, oo included; the product (k+4) pi e^{k d0}
from ``_threshold_product(run)``, its one definition, which the
clustering scale reads too, while the emission floor reads its log,
``_log_threshold``) and returns the messages of the conditions that fail
(``_annulus_faults``, ``_nesting_fault``). Emission finds the annulus
about a cluster ``_clusters`` links at an anchor: tracks with their
puncture, or with each other, by their deviations, the only pairs that
distinctness lets come within the cluster scale; verification takes the
stored one and compares each stored field with the derived one.
"""

import cmath
import functools
import math
import operator
import reprlib

from .errors import (InjectivityUndetermined, NoSeparatingAnnulus,
                     PullbackLabError)
from .fiber import step_until
from .hyperbolic import ELL_STAR, RoundAnnulus, annulus_modulus
from .lifting import EPS_CV, _seg_closest
from .lifting import lift_closed_curve  # noqa: F401 (perfbench spans this name)
from .ratmap import EPS_FIX, fixed_multiplier, is_repelling
from .sphere import (INF, chart_coordinate, chordal, encode_point, is_inf,
                     json_complex, json_float, json_typed)

TWO_PI = 2.0 * math.pi
N_SAMP = 512        # boundary sampling for the injectivity test
N_CURVE = 256       # edge count of the representative polygons
ANNULUS_MARGIN = 0.05


# ---------------------------------------------------------------------------
# classification

class Classification:
    """Verdict of a finished run: realized, obstructed, or undecided."""

    def __init__(self, verdict, **fields):
        self.verdict = verdict  # "realized" | "obstructed" | "undecided"
        self.x_star = fields.get("x_star")
        self.residual = fields.get("residual")
        self.multiplier = fields.get("multiplier")
        self.puncture = fields.get("puncture")
        self.puncture_label = fields.get("puncture_label")
        self.rate_estimate = fields.get("rate_estimate")
        self.reason = fields.get("reason", "")

    def to_json(self):
        enc = lambda v: None if v is None else encode_point(v)
        return {
            "verdict": self.verdict,
            "x_star": enc(self.x_star),
            "residual": self.residual,
            "multiplier": enc(self.multiplier),
            "puncture": enc(self.puncture),
            "puncture_label": self.puncture_label,
            "rate_estimate": self.rate_estimate,
            "certificate": None,
            "reason": self.reason,
        }

    def __repr__(self):
        if self.verdict == "realized":
            return "Realized(x*=%r, residual=%.3g)" % (self.x_star, self.residual)
        if self.verdict == "obstructed":
            return "Obstructed(%r, rate~%.4g)" % (self.puncture, self.rate_estimate)
        return "Undecided(%s)" % self.reason


def classify_run(trace, g, punctures, tol=None):
    """Finalize the dichotomy verdict for a finished run trace.

    The trace's status is the one ``fiber.stopping_status`` gives on its
    records with these ``punctures``. For a realized candidate, that rule
    has already required every fixed marked point of the final record to
    be free and more than 10 ``fiber.EPS_P`` from every puncture: the
    stopping rule applies EPS_P, and neither ``punctures`` nor ``tol``
    (which carries only ``max_iters``) is read here."""
    status = trace.status
    records = trace.records
    if status is None or not records:
        return Classification("undecided", reason="empty trace")

    if status.kind == "candidate_realized":
        worst_res, x_star, mult = 0.0, None, None
        # the points stopping rule (a) checked; stabilized preimages are
        # not fixed points of g
        for entry in records[-1]["points"].values():
            if entry["type"] != "fixed":
                continue
            x = complex(*entry["value"])
            gx, gdx = g.evaluate_with_derivative(x)
            worst_res = max(worst_res, chordal(gx, x))
            if x_star is None:
                x_star, mult = x, gdx
        if worst_res >= EPS_FIX:
            return Classification(
                "undecided", reason="fixed-point residual %.3g" % worst_res)
        return Classification("realized", x_star=x_star, residual=worst_res,
                              multiplier=mult)

    if status.kind == "candidate_puncture":
        p = status.puncture
        mult = fixed_multiplier(g, p)
        if mult is None:
            return Classification(
                "undecided",
                reason="limit puncture is not fixed -- likely lifting fault")
        if not is_repelling(mult):
            return Classification(
                "undecided",
                reason="limit at a non-repelling puncture -- likely lifting fault")
        rate = _decay_rate(records, status.puncture_label)
        expected = 1.0 / abs(mult)
        if rate is not None and not 0.5 * expected < rate < 2.0 * expected:
            return Classification(
                "undecided",
                reason="decay rate %.4g far from 1/|g'(p)| = %.4g"
                       % (rate, expected))
        return Classification("obstructed", puncture=p,
                              puncture_label=status.puncture_label,
                              rate_estimate=rate, multiplier=mult)

    return Classification("undecided", reason=status.reason or "max_iters")


def _decay_rate(records, p_label):
    """Mean per-step ratio of the closest approach to the puncture over the
    last 8 steps, from each record's ``min_dist_log10``."""
    logs = [rec["min_dist_log10"][p_label] for rec in records[-9:]]
    drops = [b - a for a, b in zip(logs, logs[1:])]
    if not drops:
        return None
    return 10.0 ** (sum(drops) / len(drops))


# ---------------------------------------------------------------------------
# separating annuli

def find_separating_annulus(points, cluster_labels, obstacles=(),
                            anchor=None):
    """Round annulus centered at the cluster centroid, inner radius just
    past the cluster, outer radius just inside the nearest complement point
    or obstacle.

    ``points`` are (label, z) pairs, z None or INF for oo (a Configuration
    iterates this way); oo always sits in the outer component. Obstacles
    (e.g. critical points) cap the outer radius but do not count as
    complement points. ``anchor`` names the working chart the points live
    in, kept on the annulus."""
    cluster_labels = list(cluster_labels)
    if len(cluster_labels) < 2:
        raise NoSeparatingAnnulus("cluster needs at least two points")
    pos = dict(points)
    cluster = [pos[lab] for lab in cluster_labels]
    if any(z is None or is_inf(z) for z in cluster):
        raise NoSeparatingAnnulus("cluster containing oo needs a re-chart")
    center = sum(cluster) / len(cluster)
    r_in = (1.0 + ANNULUS_MARGIN) * max(abs(z - center) for z in cluster)
    rest = [z for lab, z in pos.items() if lab not in cluster_labels
            and z is not None and not is_inf(z)]
    if not rest:
        raise NoSeparatingAnnulus("no finite complement point")
    r_out = (1.0 - ANNULUS_MARGIN) * min(abs(z - center)
                                         for z in rest + list(obstacles))
    if r_in <= 0 or r_out <= r_in:
        raise NoSeparatingAnnulus(
            "cluster is not separated (r_in=%.3g, r_out=%.3g)" % (r_in, r_out))
    return RoundAnnulus.from_radii(center, r_in, r_out, anchor=anchor)


def _side_counts(entries, annulus):
    """(inner_A, inner_B, outer_A, outer_B) of step-chart entries against
    the annulus (oo and ring points count as outer), the labels of the
    inner points, and those of the points inside the ring itself."""
    center, r_in, r_out = annulus.center, annulus.r_in, annulus.r_out
    counts = [0, 0, 0, 0]
    inner, ring = [], []
    for lab, kind, z in entries:
        side = 0 if z is not None and abs(z - center) <= r_in else 2
        if not side:
            inner.append(lab)
        elif z is not None and abs(z - center) < r_out:
            ring.append(lab)
        counts[side] += 1
        counts[side + 1] += kind == "P"
    return tuple(counts), tuple(inner), ring


# ---------------------------------------------------------------------------
# injectivity evidence
#
# Every curve here is a sampled closed curve: a list of n + 1 samples whose
# last is the first point sampled again (equal to it up to rounding). At
# stage 0 it is ``_circle``'s regular n-gon; later it is the image of the
# previous stage's curve.

@functools.lru_cache(maxsize=8)
def _unit_roots(n):
    """e^{i theta} at theta = j (2 pi / n) for j < n, then at exactly 2 pi."""
    step = TWO_PI / n
    return tuple([cmath.exp(1j * (j * step)) for j in range(n)]
                 + [cmath.exp(1j * TWO_PI)])


def _circle(center, radius, n):
    """n + 1 samples of the circle, center + radius ``_unit_roots(n)``;
    a complex radius turns it (the nodes of a curve (center, vertex))."""
    return [center + radius * w for w in _unit_roots(n)]


def _apply_map(gm, zs):
    """gm on every sample (``RationalMap.images``); refuses a pole, a
    non-finite value or |w| > 1e12 (the image leaves the working chart)."""
    out = gm.images(zs)
    for w in out:
        if w is INF or abs(w) > 1e12:
            raise InjectivityUndetermined(
                "tracked boundary image leaves the working chart")
    return out


def _winding(zs, q):
    """Winding number about q of the closed polygon through zs, its last
    sample joined to its first: signed crossings of the ray from q in the
    direction +1. An edge from q + a to q + b meets the line through q at
    q + (a.imag b.real - a.real b.imag) / (a.imag - b.imag). None when q
    is a sample or that cross product is within its rounding bound (q on
    or too near an edge, or the products below double range)."""
    if q in zs:
        return None
    qy = q.imag
    w = 0
    prev = zs[-1]
    above = prev.imag > qy
    for z in zs:
        if (z.imag > qy) != above:
            above = not above
            a = prev - q
            b = z - q
            # a.imag - b.imag < 0 exactly when z is above
            p, r = a.imag * b.real, a.real * b.imag
            if not abs(p - r) > 1e-15 * (abs(p) + abs(r)) + 1e-322:
                return None
            if (p < r) == above:
                w += 1 if above else -1
        prev = z
    return w


def _poly_min_dist(zs, q):
    """Distance from q to the polyline through zs (closing edge excluded):
    the least ``_seg_closest`` distance over the edges that can attain it.
    An edge [a, b] is no nearer q than (|q - a| + |q - b| - |b - a|) / 2,
    and the nearest sample is no farther than the answer; the slack on that
    test exceeds its rounding, so the result is the one every edge gives."""
    near = [abs(z - q) for z in zs]
    lengths = list(map(abs, map(operator.sub, zs[1:], zs[:-1])))
    limit = 2 * min(near) + 1e-12 * (2 * max(near) + max(lengths))
    return min(abs(_seg_closest(zs[i], zs[i + 1], q) - q)
               for i in range(len(lengths))
               if near[i] + near[i + 1] - lengths[i] <= limit)


def _circle_position(q, center, radius, n):
    """(winding about q, distance from q) of ``_circle(center, radius, n)``'s
    samples. A q farther from the center than the circle has winding 0,
    one nearer than the inradius r cos(pi / n) winding 1, both with a
    margin for rounding; the nearest point of this convex polygon is then
    on the edge facing q, so three edges give its distance, from the four
    samples they join. In the band between, the circle is sampled for one
    full pass (``_winding``, ``_poly_min_dist``)."""
    u = q - center
    dist = abs(u)
    slack = 1e-12 * (abs(center) + radius + dist)
    if dist > radius + slack:
        w = 0
    elif dist < radius * math.cos(math.pi / n) - slack:
        w = 1
    else:
        zs = _circle(center, radius, n)
        return _winding(zs, q), _poly_min_dist(zs, q)
    i = int(cmath.phase(u) % TWO_PI / (TWO_PI / n))
    roots = _unit_roots(n)
    return w, min(abs(_seg_closest(center + radius * roots[e % n],
                                   center + radius * roots[e % n + 1], q) - q)
                  for e in (i - 1, i, i + 1))


# the share of |lambda| r that the closed forms below leave to the chart
# map's departure from its linear part
LINEAR_MARGIN = 1e-6


def _linear_part(gm, s):
    """(lambda, B) with |gm(w) - lambda w| <= B on |w| <= s; B is inf where
    no bound is found.

    For gm = N/D with N(0) = 0 exactly, lambda = N_1 / D_0 and gm(w) -
    lambda w = sum_{j>=1} (N_j - lambda D_{j-1}) w^j / D(w). With sum_{j>=1}
    |D_j| s^j at most |D_0| / 2, |D(w)| >= |D_0| / 2, and B is twice the
    bound that gives, which covers the float sums (Horner's rule on
    nonnegative terms, each difference padded by 1e-15 of its operands).
    An anchor that is no double has N(0) != 0: no bound."""
    N, D = gm.numerator, gm.denominator
    if N[0] != 0 or len(N) < 2 or D[0] == 0:
        return 0j, math.inf
    lam = N[1] / D[0]
    n = max(len(N), len(D) + 1)
    N, D = N + (0j,) * (n - len(N)), D + (0j,) * (n - len(D))
    num = den = 0.0
    for j in range(n - 1, 0, -1):
        term = lam * D[j - 1]
        num = (num + abs(N[j] - term) + 1e-15 * (abs(N[j]) + abs(term))) * s
        den = (den + abs(D[j])) * s
    return lam, 4.0 * num / abs(D[0]) if den <= 0.5 * abs(D[0]) else math.inf


def _inner_reach(gm, center, radius):
    """A reach about gm(center) of the stage-0 inner boundary image, which
    the linear part shows star-shaped, or None.

    On |w| <= s = |center| + r, gm = lambda w + E with |E| <= B
    (``_linear_part``), so each sample maps to gm(center) + lambda r e^{it}
    + h with |h| <= 2B, and Horner's rule adds under 1e-14 (deg + 1)
    |lambda| s. With that slack at most LINEAR_MARGIN |lambda| r, each
    sample is that close, in angle and in modulus, to a regular N_SAMP-gon
    about gm(center): every turn about it is 2 pi / N_SAMP within 2e-6 and
    the turns total one turn, so the polygon passes ``_star_radii``, whose
    R is below the reach returned. |lambda| r above 1e-280 keeps the
    samples in ``_star_radii``'s range and what the bound's products lose
    to underflow far below the slack; |lambda| s below 1e11 keeps the
    images in ``_apply_map``'s."""
    s = abs(center) + radius
    lam, bound = _linear_part(gm, s)
    reach = abs(lam) * radius
    slack = 2.0 * bound + 1e-14 * (gm.degree + 1) * abs(lam) * s
    if 1e-280 < reach and abs(lam) * s < 1e11 and \
            slack <= LINEAR_MARGIN * reach:
        return reach * (1.0 + 2.0 * LINEAR_MARGIN)
    return None


def _linear_lift(gm, center, radius):
    """(lambda, e) when the successive closing degree-1 lifts of the core
    polygon exist, lift j within e of the polygon divided by lambda^j
    (``_representative_curves``), else None.

    The polygon lies in the disk |w| <= s (|center| + r, padded for
    rounding), where gm = lambda w + E with |E| <= B (``_linear_part``).
    The one condition is Rouche's, (|lambda| - 1) s > B. Then for every t
    in the disk, |gm(w) - t - (lambda w - t)| <= B < |lambda w - t| on
    |w| = s, so gm(w) = t has exactly one root in the disk, as lambda w =
    t has, and it lies within B / |lambda| of t / lambda. So no critical
    point of gm maps into the disk from it, the inverse branch is a
    conformal map of the disk into itself, and the lift of the polygon,
    and of each lift in turn, is unique and closes with degree 1. Lift j
    is within e_j = (B + e_{j-1}) / |lambda| of the polygon over
    lambda^j, so within e = B / (|lambda| - 1) for every j; computed
    here, where |lambda| > 1, and added to the nesting test's distances
    (``_nesting_fault``).

    Where this declines, the derivation fails, with no other lift tried.
    It holds with room wherever the modulus condition does: at an exact
    anchor the annulus is centred in its cluster, so s ~ r and B ~
    |quad| s^2; an inexact anchor's eps* keeps the modulus low, or the
    threshold is past the emission floor; and a cluster of marked points
    alone stays below modulus log(1e9) / 2 pi (EPS_SEP relative to |eta|)."""
    s = (abs(center) + radius) * (1.0 + 1e-12)
    lam, bound = _linear_part(gm, s)
    if not (abs(lam) - 1.0) * s > bound:
        return None
    return lam, bound / (abs(lam) - 1.0)


def _star_radii(zs, c):
    """(rho, R) for a sampled closed curve star-shaped about c, else None;
    ValueError when the largest |z - c| is outside (1e-300, 1e300), where
    the turns cannot be scaled exactly.

    It counts as star-shaped when every turn about c between consecutive
    samples lies in (0, pi) and the turns total one full turn, to within
    the first and the last turn: each ray from c then meets the curve
    once, non-adjacent edges lie in disjoint angular sectors, and the
    curve is simple. rho is the least distance from c to an edge's line
    (the closing edge counted by its nearer end less its length), so the
    disk of radius rho about c lies inside the curve; R is the largest
    distance from c to a sample, so the curve lies in the disk of radius
    R. O(n): no pair of edges is tested."""
    us = [z - c for z in zs]
    big = max(map(abs, us))
    if not 1e-300 < big < 1e300:
        raise ValueError("outside the star test's range")
    # scaled by a power of two, exactly, so that products cannot underflow
    s = math.ldexp(1.0, -math.frexp(big)[1])
    us = [u * s for u in us]
    # conj(u_j) u_{j+1}: the dot product plus i times the cross product
    turns = list(map(operator.mul, map(complex.conjugate, us[:-1]), us[1:]))
    if not min([t.imag for t in turns]) > 0:
        return None
    total = sum(map(cmath.phase, turns))
    if not abs(total - TWO_PI) < min(cmath.phase(turns[0]),
                                      cmath.phase(turns[-1])):
        return None
    edges = map(abs, map(operator.sub, us[1:], us[:-1]))
    rho = min(map(operator.truediv, [t.imag for t in turns], edges))
    first, last = us[0], us[-1]
    rho = min(rho, min(abs(first), abs(last)) - abs(first - last))
    return rho / s, big


def injectivity_test(g, annulus, k):
    """Conservative sufficient evidence that g^{ok} is injective on the
    annulus: for each forward stage, no critical point inside the tracked
    region (with clearance), simple and mutually disjoint boundary images,
    and a degree-1 closing inverse lift of the core curve.

    Boundary images are mapped sample by sample (``_apply_map``). At
    stage j both must be star-shaped about c_{j+1} = gm^{j+1}(annulus
    center) (``_star_radii``), which makes each simple, and the inner
    image's farthest sample must lie nearer to c_{j+1} than every edge
    line of the outer image, which makes them disjoint. These O(n) tests
    are stricter than what they show: an image that is simple but not
    star-shaped, or outside the star test's range, is declined with the
    stage named. At stage 0 the curves are ``_circle``'s polygons, and a
    critical point outside the outer circle or inside the inner inradius
    needs no pass (``_circle_position``).

    The core curve gamma_j = gm^j(core circle) is its own lift, and is
    neither sampled nor mapped. Stages 0..j-1 show gm^j injective on the
    annulus, so gamma_j, the image of a circle strictly inside it, lies
    between the stage-j boundary images, in the region whose critical
    points the stage-j test clears. So gamma_j avoids them, and the lift
    of gm o gamma_j from gamma_j(0) is unique; it is gamma_j, which
    closes. At stage 0 that region is the annulus itself. Its
    ``core_lift_residual`` is 0.0 (the key stays in the evidence).

    When k = 1 and the anchor chart map is its linear part lambda w to
    within LINEAR_MARGIN |lambda| r_in on the inner disk, as it is far
    below one ulp at an emission step, the inner image is star-shaped
    about c_1 with a reach of |lambda| r_in (1 + 2 LINEAR_MARGIN)
    (``_inner_reach``), and the inner circle is neither mapped nor
    star-tested. Otherwise, and at k >= 2, whose stage 1 needs the inner
    image, the samples decide.

    Raises InjectivityUndetermined on any failed check (which is not a
    proof of non-injectivity)."""
    gm, crit = g.chart(annulus.anchor)
    center = annulus.center
    r_in, r_out = annulus.r_in, annulus.r_out
    # an inner image the closed form settles and no later stage maps is
    # not sampled
    inner_reach = _inner_reach(gm, center, r_in) if k == 1 else None
    inner = None if inner_reach is not None else \
        _circle(center, r_in, N_SAMP)
    outer = _circle(center, r_out, N_SAMP)
    stages = []
    for j in range(k):
        clear = math.inf
        for c in crit:
            if j == 0:
                w_out, d_out = _circle_position(c, center, r_out, N_SAMP)
                w_in, d_in = _circle_position(c, center, r_in, N_SAMP)
            else:
                w_out, d_out = _winding(outer, c), _poly_min_dist(outer, c)
                w_in, d_in = _winding(inner, c), _poly_min_dist(inner, c)
            if w_out is None or w_in is None:
                raise InjectivityUndetermined("critical point on a boundary")
            if w_out != 0 and w_in == 0:
                raise InjectivityUndetermined(
                    "critical point %r inside tracked region at stage %d"
                    % (c, j))
            clear = min(clear, d_in, d_out)
        if not clear > EPS_CV:
            raise InjectivityUndetermined(
                "critical clearance %.3g at stage %d" % (clear, j))
        center = gm(center)
        if center is INF:
            raise InjectivityUndetermined(
                "image of the annulus center leaves the working chart")
        images, radii = [], []
        for side, curve in (("inner", inner), ("outer", outer)):
            if curve is None:  # the closed form's reach
                images.append(None)
                radii.append((None, inner_reach))
                continue
            images.append(_apply_map(gm, curve))
            try:
                radii.append(_star_radii(images[-1], center))
            except ValueError as exc:
                raise InjectivityUndetermined("%s boundary image %s at stage "
                                              "%d" % (side, exc, j)) from None
            if radii[-1] is None:
                raise InjectivityUndetermined(
                    "%s boundary image not star-shaped about the image of "
                    "the annulus center at stage %d" % (side, j))
        (_, reach), (outer_clear, _) = radii
        if not reach < outer_clear:
            raise InjectivityUndetermined(
                "boundary images not separated by a circle about the image "
                "of the annulus center at stage %d" % j)
        stages.append({
            "stage": j,
            "critical_clearance": clear if math.isfinite(clear) else None,
            "boundaries_simple": True,
            "boundaries_disjoint": True,
            # the core's image is its own lift
            "core_lift_residual": 0.0,
        })
        inner, outer = images
    return {"samples": N_SAMP, "stages": stages, "k": k}


# ---------------------------------------------------------------------------
# certificates

class LevyCertificate:
    """Quantitative witness of a degenerate Levy multicurve, built from one
    separating annulus at one recorded step of an obstructed run; every
    other field is one ``_derive_certificate`` derives from those two. A
    curve is stored as {"center", "vertex"} in the annulus's chart; one
    stored as nodes, as earlier versions wrote it, is invalid input. Each
    curve winds once about the cluster and encloses just its labels, as
    the nesting test shows, so neither is stored."""

    FIELDS = {"step": int, "k": int, "d0_bound": float, "modulus": float,
              "threshold": float, "length_bound": float,
              "inner_count_A": int, "inner_count_B": int,
              "outer_count_A": int, "outer_count_B": int,
              "promotion_flag": bool}

    def __init__(self, step, annulus, fields, engine_version="",
                 tolerances=None, trace_digest=None):
        self.step = step
        self.annulus = annulus
        self.__dict__.update(fields)
        self.engine_version = engine_version
        self.tolerances = tolerances or {}
        self.trace_digest = trace_digest

    def to_json(self):
        obj = {name: getattr(self, name) for name in self.FIELDS}
        obj["annulus"] = self.annulus.to_json()
        obj["injectivity_evidence"] = self.injectivity_evidence
        obj["representative_curves"] = [
            {"center": [c.real, c.imag], "vertex": [v.real, v.imag]}
            for c, v in self.representative_curves]
        obj["cluster_labels"] = list(self.cluster_labels)
        obj["engine_version"] = self.engine_version
        obj["tolerances"] = self.tolerances
        obj["trace_digest"] = self.trace_digest
        obj["ell_star"] = ELL_STAR
        return obj

    @classmethod
    def from_json(cls, obj):
        cert = cls.__new__(cls)
        json_typed(obj, dict, "certificate")
        for name, kind in cls.FIELDS.items():
            setattr(cert, name, json_float(obj[name], name) if kind is float
                    else json_typed(obj[name], kind, name))
        cert.annulus = RoundAnnulus.from_json(obj["annulus"])
        cert.injectivity_evidence = obj["injectivity_evidence"]
        curves = json_typed(obj["representative_curves"], list,
                            "representative_curves")
        cert.representative_curves = tuple(
            _curve_from_json(c, "representative_curves[%d]" % i)
            for i, c in enumerate(curves))
        cert.cluster_labels = tuple(
            json_typed(obj["cluster_labels"], list, "cluster_labels", str))
        cert.engine_version = obj.get("engine_version", "")
        cert.tolerances = json_typed(obj.get("tolerances", {}), dict,
                                     "tolerances")
        cert.trace_digest = obj.get("trace_digest")
        return cert


def _curve_from_json(obj, what):
    """The (center, vertex) pair of a stored representative curve."""
    json_typed(obj, dict, what)
    return tuple(json_complex(obj.get(key), "%s %s" % (what, key))
                 for key in ("center", "vertex"))


def _threshold_product(run):
    """(k + 4) pi e^{k d0} for the run's k and first-step bound d0
    (``PullbackRun.d0_bound``): divided by ell* it is the modulus
    threshold, divided by an annulus modulus the length bound of the core
    geodesic. Past double range it is +inf, which no modulus exceeds;
    ``_log_threshold`` gives its size."""
    k = run.k
    try:
        return (k + 4) * math.pi * math.exp(k * run.d0_bound())
    except OverflowError:
        return math.inf


def _log_threshold(run):
    """log of the modulus threshold (k + 4) pi e^{k d0} / ell*, finite
    where the threshold itself overflows."""
    k = run.k
    return math.log((k + 4) * math.pi / ELL_STAR) + k * run.d0_bound()


def _annulus_faults(modulus, threshold, counts, ring):
    """Messages of the annulus conditions that fail: modulus above the
    threshold, no configuration point in the ring, at least two points of
    A on each side, at most one point of B inside.

    Only the inner side of essential-in-A is tested: with inner_B <= 1,
    the at least three punctures ``init_run`` requires leave outer_B >= 2,
    and B is part of A, so outer_A >= 2."""
    inner_A, inner_B, _, _ = counts
    faults = [] if modulus > threshold else ["modulus does not exceed threshold"]
    faults += ["configuration point %s inside the annulus ring" % lab
               for lab in ring]
    if not inner_A >= 2:
        faults.append("essential-in-A side condition")
    if not inner_B <= 1:
        faults.append("non-essential-in-B side condition")
    return faults


def _step_chart_entries(run, q, n):
    """(label, kind, chart position) of the step-n configuration, the
    punctures ("P") and then the tracks in processing order ("marked"), in
    the working chart at q (``sphere.chart_coordinate``); the chart's oo
    maps to None (always in the outer part). A track anchored at p sits at
    chart_coordinate(q, p) + eps* + eta, or at its materialized position
    when just one of p and q is oo."""
    if not 0 <= n <= run.n:
        raise ValueError("run has no step %d" % n)
    entries = [(lab, "P", chart_coordinate(q, p)) for lab, p in run.punctures]
    for track in run._tracks:
        mode, value = track.history[n]
        if mode == "free":
            z = chart_coordinate(q, value)
        else:
            p, chart = track.anchor.puncture, track.anchor.chart
            w = value.to_complex()
            if w is None:
                raise NoSeparatingAnnulus(
                    "deviation below double range; certificate chart cannot "
                    "represent the cluster at step %d" % n)
            if p != q and (is_inf(p) or is_inf(q)):
                z = chart_coordinate(q, chart.materialize(value))
            else:  # chart_coordinate(q, q) is 0j, oo included
                z = chart_coordinate(q, p) + chart.eps_star + w
        entries.append((track.label, "marked", z))
    return [(lab, kind, None if is_inf(z) else z) for lab, kind, z in entries]


def emit_levy_certificate(run, engine_version="", declined=None):
    """Attempt certificate emission at the run's current step.

    Returns None when no cluster at the threshold scale yields a qualifying
    annulus; raises nothing on ordinary failure paths. Each declined
    cluster's first message (``_try_cluster``) is appended to the list
    ``declined`` when one is given."""
    n = run.n
    if n < 1:
        raise ValueError("run has no step %d" % n)
    log_r_cluster = -TWO_PI * (_threshold_product(run) / ELL_STAR)
    for q, labels in _clusters(run, n, log_r_cluster):
        cert, message = _try_cluster(run, n, q, labels, engine_version)
        if cert is not None:
            return cert
        if declined is not None:
            declined.append(message)
    return None


def _clusters(run, n, log_r):
    """The clusters of the step-n configuration linked at log distance
    ``log_r``, each as its puncture (None when it has none) and its labels:
    members in configuration order (punctures by index, then the tracks in
    processing order), clusters in the order of their first members.

    A track anchored at p is linked to p when log |eta| <= log_r, and two
    tracks anchored at one puncture to each other when log |eta_1 - eta_2|
    <= log_r. No other pair comes that near: ``PullbackRun._check_distinct``
    keeps it more than EPS_SEP apart (chordal, so over EPS_SEP / 2 in the
    plane; a track inside its anchor's clearance radius from the other
    punctures by ``_AnchorChart``'s bound), while log_r <= -2 pi 5 pi /
    ell* < log 1e-24. So a Levy cluster forms only about an anchor, and
    holds at most one puncture."""
    ln2 = math.log(2.0)
    n_punctures = len(run.punctures)
    links = []
    anchored = {}  # anchor index -> (index, eta) of its tracks so far
    for j, track in enumerate(run._tracks, n_punctures):
        mode, eta = track.history[n]
        if mode == "free":
            continue
        a = track.anchor.index
        if eta.log2_abs() * ln2 <= log_r:
            links.append((a, j))
        for i, other in anchored.setdefault(a, []):
            if other.log2_dist(eta) * ln2 <= log_r:
                links.append((i, j))
        anchored[a].append((j, eta))
    if not links:
        return []
    parent = list(range(n_punctures + len(run._tracks)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in links:
        parent[find(i)] = find(j)
    clusters = {}
    for i in range(len(parent)):
        clusters.setdefault(find(i), []).append(i)
    labels = list(run.punctures.labels) + [t.label for t in run._tracks]
    return [(run.punctures.points[c[0]] if c[0] < n_punctures else None,
             [labels[i] for i in c]) for c in clusters.values() if len(c) >= 2]


def _try_cluster(run, n, q, labels, engine_version):
    """(certificate, None) for the annulus separating the cluster
    ``labels`` in the chart at its puncture q (oo included; None for the
    plane), or (None, why not): the text of the NoSeparatingAnnulus
    raised, or the first fault of the derived certificate."""
    try:
        entries = _step_chart_entries(run, q, n)
        # keep the forward advance critical-point free: cap by the critical set
        annulus = find_separating_annulus(
            [(lab, z) for lab, _, z in entries], labels,
            obstacles=run.g.chart(q)[1], anchor=q)
    except NoSeparatingAnnulus as exc:
        return None, str(exc)
    fields, faults = _derive_certificate(run, n, annulus)
    if faults:
        return None, faults[0]
    return LevyCertificate(n, annulus, fields, engine_version=engine_version,
                           tolerances=run.tol.to_json()), None


def _derive_certificate(run, n, annulus):
    """Every certificate field for the annulus at step n of the run, as a
    dict, and the messages of the conditions they fail, each stage only
    once the last holds: the annulus conditions (``_annulus_faults``), so
    a failed emission attempt costs no forward advance, the injectivity
    test, the linear lift and its nesting (``_nesting_fault``). Emission
    and ``verify_certificate`` both derive a certificate here."""
    k = run.k
    d0 = run.d0_bound()
    product = _threshold_product(run)
    entries = _step_chart_entries(run, annulus.anchor, n)
    counts, inner, ring = _side_counts(entries, annulus)
    modulus = annulus_modulus(annulus)
    threshold = product / ELL_STAR
    fields = dict(zip(_COUNT_FIELDS, counts), k=k, d0_bound=d0,
                  threshold=threshold, modulus=modulus, cluster_labels=inner)
    faults = _annulus_faults(modulus, threshold, counts, ring)
    if faults:
        return fields, faults
    try:
        fields["injectivity_evidence"] = injectivity_test(run.g, annulus, k)
    except InjectivityUndetermined as exc:
        return fields, ["injectivity test failed: %s" % exc]
    lift = _linear_lift(run.g.chart(annulus.anchor)[0], annulus.center,
                        annulus.core_radius())
    if lift is None:
        return fields, ["the anchor chart's linear part shows no chain of "
                        "%d closing degree-1 lifts of the core curve" % k]
    lam, lift_dist = lift
    fault = _nesting_fault(annulus, lam, k, lift_dist)
    if fault is not None:
        return fields, [fault]
    length_bound = product / modulus
    fields.update(representative_curves=_representative_curves(annulus, lam,
                                                               k),
                  length_bound=length_bound,
                  promotion_flag=length_bound < ELL_STAR * math.exp(-k * d0))
    return fields, []


_COUNT_FIELDS = ("inner_count_A", "inner_count_B", "outer_count_A",
                 "outer_count_B")


def _nesting_fault(annulus, lam, k, lift_dist):
    """The first of lifts 0..k of the core curve (0 is the core) that does
    not nest in the annulus, named in a message, or None.

    Stored lift j is exactly the polygon proved to nest here, the N-gon of
    its pair (``_representative_curves``): centre c_j, circumradius rho_j
    = r / |lambda|^j, inradius rho_j cos(pi / N), up to j roundings and
    the 2e-13 of its size ``_per_curve_mismatches`` allows, which the pad
    (j + 1) 1e-12 (|c| + r) / |lambda|^j covers. The true lift is within
    ``lift_dist`` of it for j >= 1 (``_linear_lift``). d_j sums these
    with |c - c_j|. With r_in + d_j < rho_j cos(pi / N) both wind +1
    about every inner point, with rho_j + d_j < r_out 0 about every outer
    one and oo. The ring is empty, so the k + 1 simple curves separate A
    alike and are homotopic rel A: one class, within the budget k >= 1
    (as |A| >= 4 by essential-in-A). Their length bound is below ell* as
    modulus > threshold (one rounding)."""
    center, r_in, r_out = annulus.center, annulus.r_in, annulus.r_out
    c, rho = center, annulus.core_radius()
    size = abs(c) + rho
    for j in range(k + 1):
        d = (abs(center - c) + 1e-12 * (j + 1) * size
             + (lift_dist if j else 0.0))
        if not (r_in + d < rho * math.cos(math.pi / N_CURVE)
                and rho + d < r_out):
            return "lift %d of the core curve does not nest in the annulus" % j
        c, rho, size = c / lam, rho / abs(lam), size / abs(lam)
    return None


def _representative_curves(annulus, lam, k):
    """The annulus core circle and its k successive lifts as (c_j, v_j),
    each the last divided by lambda (``_linear_lift``): curve j is the
    N_CURVE-gon c_j + v_j e^{2 pi i t / N_CURVE}, drawn by ``_circle``."""
    curves = [(annulus.center, complex(annulus.core_radius()))]
    for _ in range(k):
        c, v = curves[-1]
        curves.append((c / lam, v / lam))
    return tuple(curves)


# certificate clusters and curves live in a double chart; below
# this scale the engine declines to emit rather than degrade silently
_EMISSION_FLOOR_LOG = math.log(1e-290)
# the log of the largest threshold whose cluster scale is above the floor
_FLOOR_LOG_THRESHOLD = math.log(-_EMISSION_FLOOR_LOG / TWO_PI)


def certify_obstructed(run, engine_version="", max_steps=None,
                       with_reason=False, records=None):
    """Step the run forward until a certificate is emitted (or the cap),
    appending each step's ``trace_record`` to ``records`` when given.

    The annulus modulus grows like log|g'(p)| / 2 pi per step, so emission
    happens within O(threshold) further steps of an obstructed run. When the
    cluster scale e^{-2 pi threshold} falls below double range the engine
    returns None immediately: the certificate chart cannot represent the
    collapsing cluster at that depth. That test is made on the log of the
    threshold, which stays finite where the threshold overflows. A call
    that reaches the cap names the last attempt that declined a cluster:
    its step and its first cluster's message (``emit_levy_certificate``),
    after the first such attempt's when that was at an earlier step."""
    cap = run.tol.max_iters if max_steps is None else max_steps
    # d0 and k never change once the run has stepped, so the threshold and
    # its floor test are settled at the first attempt; one that fails ends
    # the call
    floor_cleared = False
    declines = []  # (step, message) of the first and last declined attempts

    def attempt():
        nonlocal floor_cleared
        if run.n < 1:
            return None
        if not floor_cleared:
            try:
                log_threshold = _log_threshold(run)
            except PullbackLabError as exc:
                return None, "no certified first-step bound: %s" % exc
            if log_threshold > _FLOOR_LOG_THRESHOLD:
                try:
                    threshold = "%.4g" % math.exp(log_threshold)
                except OverflowError:  # past double range: its log
                    threshold = "e^%.4g" % log_threshold
                return None, ("cluster scale exp(-2 pi * %s) is below the "
                              "double-range certificate chart" % threshold)
            floor_cleared = True
        declined = []
        cert = emit_levy_certificate(run, engine_version=engine_version,
                                     declined=declined)
        if declined:
            declines[1:] = [(run.n, declined[0])]
        return None if cert is None else (cert, "emitted at step %d"
                                          % cert.step)

    outcome = step_until(run, attempt, cap, records)
    if outcome is None:
        note = "no qualifying annulus within %d steps" % cap
        if len(declines) == 2:  # one attempt a step: two steps
            note += "; first attempt at step %d: %s" % declines[0]
        if declines:
            note += "; last attempt at step %d: %s" % declines[-1]
        outcome = None, note
    return outcome if with_reason else outcome[0]


# ---------------------------------------------------------------------------
# verification

class VerifyResult:
    def __init__(self, ok, mismatches):
        self.ok = ok
        self.mismatches = list(mismatches)

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "VerifyResult(ok)"
        return "VerifyResult(failed: %s)" % "; ".join(self.mismatches)


def same_within(got, want, rel, floor):
    """Same keys, list lengths, strings and ints; floats within
    rel * max(floor, |want|): injectivity evidence and replayed records."""
    if isinstance(got, float) and isinstance(want, float):
        return abs(got - want) <= rel * max(floor, abs(want))
    if isinstance(got, dict) and isinstance(want, dict):
        return got.keys() == want.keys() and all(
            same_within(got[key], want[key], rel, floor) for key in got)
    if isinstance(got, list) and isinstance(want, list):
        return len(got) == len(want) and all(
            same_within(a, b, rel, floor) for a, b in zip(got, want))
    return type(got) is type(want) and got == want


# each field verify_certificate compares as a whole: the name its message
# gives the field, and whether the stored value matches the derived one
_FIELD_TESTS = (
    ("k", "k", operator.eq),
    ("d0_bound", "d0 bound", lambda stored, derived:
     abs(stored - derived) <= 1e-9 * (1.0 + abs(derived))),
    ("threshold", "threshold formula", lambda stored, derived:
     same_within(stored, derived, 1e-12, 0.0)),
    ("modulus", "modulus", lambda stored, derived:
     same_within(stored, derived, 1e-12, 1.0)),
    *[(name, "side counts", operator.eq) for name in _COUNT_FIELDS],
    ("cluster_labels", "cluster labels", operator.eq),
    ("injectivity_evidence", "injectivity evidence", lambda stored, derived:
     same_within(derived, stored, 1e-6, 0.0)),
    ("length_bound", "length bound formula", lambda stored, derived:
     same_within(stored, derived, 1e-9, 1.0)),
    ("promotion_flag", "promotion flag", operator.eq),
)


def verify_certificate(cert, run):
    """Derive the certificate again from its stored annulus at its stored
    step, through emission's own derivation (``_derive_certificate``), and
    compare: False, with a report, when the derived certificate fails a
    condition or a stored field differs from the derived one. No other
    stored number enters the derivation."""
    try:
        derived, bad = _derive_certificate(run, cert.step, cert.annulus)
    except (PullbackLabError, ValueError) as exc:
        return VerifyResult(False, ["certificate does not derive: %s" % exc])
    for name, what, same in _FIELD_TESTS:
        if name in derived and not same(getattr(cert, name), derived[name]):
            bad.append("%s mismatch: stored %s %s, derived %s"
                       % (what, name, reprlib.repr(getattr(cert, name)),
                          reprlib.repr(derived[name])))
    if "representative_curves" in derived:
        bad += _per_curve_mismatches(cert, derived)
    return VerifyResult(not bad, bad)


def _per_curve_mismatches(cert, derived):
    """A count mismatch, or each stored curve that differs from the derived
    one. A curve's center and vertex must each be within 1e-13 of its size
    |c_j| + |v_j|: hundreds of ulps of another host's exp (core radius),
    and inside ``_nesting_fault``'s pad."""
    curves, want = cert.representative_curves, derived["representative_curves"]
    if len(curves) != len(want):
        return ["curve count mismatch: stored %d curves, derived %d"
                % (len(curves), len(want))]
    return ["re-lift of curve %d does not match curve %d" % (idx - 1, idx)
            if idx else "curve 0 is not the annulus core circle"
            for idx, ((c, v), (c0, v0)) in enumerate(zip(curves, want))
            if not max(abs(c - c0), abs(v - v0)) <= 1e-13 * (abs(c0) + abs(v0))]
