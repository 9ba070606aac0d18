"""Riemann-sphere arithmetic: points, Mobius transformations, labeled
configurations and moduli-space coordinates.

Points are plain ``complex`` values plus the distinguished marker ``INF``.
A configuration is an ordered, labeled tuple of pairwise-distinct points;
its image under the unique Mobius map sending three anchor labels to
(0, 1, oo) gives coordinates in C^k minus the collision locus (no entry
equal to 0 or 1, no two entries equal).
"""

import cmath
import math
import reprlib
from typing import Union

from .errors import CollisionDetected, DegenerateTriple

EPS_SEP = 1e-9    # chordal separation below which points count as colliding
EPS_MAP = 1e-10   # allowed interpolation residual of a three-point solve
EPS_DET = 1e-12   # relative determinant floor for a usable Mobius matrix

CHART_LIMIT = 1e6  # |z| beyond which callers should transport the chart


class _Infinity:
    __slots__ = ()

    def __repr__(self):
        return "INF"


INF = _Infinity()

# a sphere point is a finite complex number or the point-at-infinity marker
SpherePoint = Union[complex, _Infinity]


def is_inf(p):
    return isinstance(p, _Infinity)


def as_point(value):
    """Coerce a number (or INF) to the engine's point representation."""
    if is_inf(value):
        return INF
    return complex(value)


def chordal(p, q):
    """Chordal distance on the sphere, normalized to diameter 2."""
    pi, qi = is_inf(p), is_inf(q)
    if pi and qi:
        return 0.0
    if pi:
        return 2.0 / math.hypot(1.0, abs(q))
    if qi:
        return 2.0 / math.hypot(1.0, abs(p))
    return 2.0 * abs(p - q) / (math.hypot(1.0, abs(p)) * math.hypot(1.0, abs(q)))


def index_near(points, z):
    """Index of the first of ``points`` within EPS_SEP (chordal) of z, or
    None: the one rule for "z counts as that point", puncture membership
    included."""
    for i, p in enumerate(points):
        if chordal(z, p) <= EPS_SEP:
            return i
    return None


def chart_coordinate(q, x):
    """x in the working chart at q: x itself for q None, x - q for a finite
    q, w = 1/x for q = oo (0 at x = oo); INF where the chart sends x to oo."""
    if q is None:
        return x
    if is_inf(q):
        if is_inf(x):
            return 0j
        return INF if x == 0 else 1.0 / x
    return INF if is_inf(x) else x - q


def chordal_scale(q):
    """Factor of the chordal metric at the center of the working chart at
    q (chordal ~ factor |du|): 2/(1 + |q|^2) at a finite q, 2 at oo."""
    return 2.0 if is_inf(q) else 2.0 / (1.0 + abs(q) ** 2)


def encode_point(p):
    """JSON form: [re, im] for finite points, the string "inf" otherwise."""
    if is_inf(p):
        return "inf"
    return [p.real, p.imag]


def decode_point(obj, what="point"):
    """The point of a JSON form written by ``encode_point``."""
    return INF if obj == "inf" else json_complex(obj, what)


def json_typed(value, kind, what, item=None):
    """``value`` read from JSON when it has type ``kind``: a bool for bool,
    an int that is not a bool for int, an int or float that is not a bool
    for float, a list for list, an object for dict; a list's elements or an
    object's values must also have type ``item`` when it is given. Raises
    ValueError naming ``what`` otherwise."""
    if isinstance(value, bool):
        ok = kind is bool
    else:
        ok = isinstance(value, (int, float) if kind is float else kind)
    if not ok:
        raise ValueError("%s must be %s, not %s"
                         % (what, kind.__name__, reprlib.repr(value)))
    if item is not None:
        what = "%s item" % what
        for x in value.values() if kind is dict else value:
            json_typed(x, item, what)
    return value


def json_float(value, what):
    """A float read from JSON: an int or float (not a bool) within double
    range. Raises ValueError naming ``what`` otherwise, where a JSON integer
    past double range would raise OverflowError wherever it is used."""
    json_typed(value, float, what)
    try:
        return float(value)
    except OverflowError:
        raise ValueError("%s must be float within double range, not %s"
                         % (what, reprlib.repr(value))) from None


def json_complex(value, what):
    """A complex number read from its JSON form [re, im], each part as
    ``json_float`` reads it."""
    if len(json_typed(value, list, what, float)) != 2:
        raise ValueError("%s must be [re, im], not %s"
                         % (what, reprlib.repr(value)))
    try:
        return complex(*value)
    except OverflowError:
        raise ValueError("%s must be [re, im] within double range, not %s"
                         % (what, reprlib.repr(value))) from None


class MobiusTransform:
    """z -> (a z + b) / (c z + d) with ad - bc bounded away from zero."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        scale = max(abs(a), abs(b), abs(c), abs(d))
        if scale == 0.0:
            raise DegenerateTriple("zero Mobius matrix")
        # normalize entries so determinant tolerance is scale free
        a, b, c, d = (complex(x) / scale for x in (a, b, c, d))
        if abs(a * d - b * c) <= EPS_DET:
            raise DegenerateTriple("degenerate Mobius matrix (det ~ 0)")
        self.a, self.b, self.c, self.d = a, b, c, d

    def inverse(self):
        return MobiusTransform(self.d, -self.b, -self.c, self.a)

    def compose(self, other):
        """self after other: (self*other)(z) = self(other(z))."""
        return MobiusTransform(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __call__(self, z):
        return mobius_apply(self, z)

    def __repr__(self):
        return "MobiusTransform({!r}, {!r}, {!r}, {!r})".format(
            self.a, self.b, self.c, self.d)


def mobius_apply(M, z):
    """Evaluate on the whole sphere: oo -> a/c, poles -> oo."""
    if is_inf(z):
        if M.c == 0:
            return INF
        return M.a / M.c
    den = M.c * z + M.d
    if den == 0:
        return INF
    w = (M.a * z + M.b) / den
    if not (cmath.isfinite(w)):
        return INF
    return w


def _to_standard_triple(p1, p2, p3):
    # matrix of the Mobius map sending (p1, p2, p3) to (0, 1, oo)
    if is_inf(p1):
        return MobiusTransform(0.0, p2 - p3, 1.0, -p3)
    if is_inf(p2):
        return MobiusTransform(1.0, -p1, 1.0, -p3)
    if is_inf(p3):
        return MobiusTransform(1.0, -p1, 0.0, p2 - p1)
    return MobiusTransform(p2 - p3, -p1 * (p2 - p3), p2 - p1, -p3 * (p2 - p1))


def mobius_from_triples(ps, qs):
    """Unique Mobius map with M(ps[i]) = qs[i] for the distinct triples."""
    for triple in (ps, qs):
        for i in range(3):
            for j in range(i + 1, 3):
                if chordal(triple[i], triple[j]) <= EPS_SEP:
                    raise DegenerateTriple(
                        "coincident interpolation points %r, %r"
                        % (triple[i], triple[j]))
    S = _to_standard_triple(*ps)
    T = _to_standard_triple(*qs)
    M = T.inverse().compose(S)
    for p, q in zip(ps, qs):
        if chordal(mobius_apply(M, p), q) > EPS_MAP:
            raise DegenerateTriple("three-point solve did not interpolate")
    return M


class Configuration:
    """Ordered, labeled, pairwise-distinct marked points on the sphere."""

    __slots__ = ("labels", "points")

    def __init__(self, labels, points, min_size=3):
        labels = tuple(labels)
        points = tuple(as_point(p) for p in points)
        if len(labels) != len(points):
            raise ValueError("labels and points differ in length")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        if len(points) < min_size:
            raise ValueError("configuration needs at least %d points" % min_size)
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if chordal(points[i], points[j]) <= EPS_SEP:
                    raise CollisionDetected(
                        "configuration points %r and %r collide"
                        % (labels[i], labels[j]),
                        pair=(labels[i], labels[j]))
        self.labels = labels
        self.points = points

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(zip(self.labels, self.points))

    def point(self, label):
        return self.points[self.labels.index(label)]

    def to_json(self):
        return {lab: encode_point(p) for lab, p in self}

    @classmethod
    def from_json(cls, obj, min_size=3):
        labels = list(obj.keys())
        return cls(labels, [decode_point(obj[k]) for k in labels],
                   min_size=min_size)

    def __repr__(self):
        return "Configuration(%s)" % ", ".join(
            "%s=%r" % (lab, p) for lab, p in self)


class ModuliCoordinates:
    """Coordinates of a configuration class in C^k minus the collision locus.

    ``anchors`` records the three labels sent to (0, 1, oo); ``labels`` keeps
    the remaining labels in configuration order.
    """

    __slots__ = ("labels", "coords", "anchors")

    def __init__(self, labels, coords, anchors):
        labels = tuple(labels)
        coords = tuple(complex(c) for c in coords)
        if len(labels) != len(coords):
            raise ValueError("labels and coords differ in length")
        for lab, c in zip(labels, coords):
            if chordal(c, 0.0) <= EPS_SEP or chordal(c, 1.0) <= EPS_SEP:
                raise CollisionDetected(
                    "coordinate %s collides with an anchor" % lab,
                    pair=(lab, "anchor"))
        n = len(coords)
        for i in range(n):
            for j in range(i + 1, n):
                if chordal(coords[i], coords[j]) <= EPS_SEP:
                    raise CollisionDetected(
                        "coordinates %s and %s collide" % (labels[i], labels[j]),
                        pair=(labels[i], labels[j]))
        self.labels = labels
        self.coords = coords
        self.anchors = tuple(anchors)

    def __len__(self):
        return len(self.coords)

    def to_json(self):
        return {
            "anchors": list(self.anchors),
            "coords": {lab: encode_point(c)
                       for lab, c in zip(self.labels, self.coords)},
        }

    def __repr__(self):
        return "ModuliCoordinates(%s; anchors=%r)" % (
            ", ".join("%s=%r" % (l, c) for l, c in zip(self.labels, self.coords)),
            self.anchors)


def normalize_configuration(config, anchors):
    """Send the three anchor labels to (0, 1, oo); return the rest.

    The anchor order matters: anchors[0] goes to 0, anchors[1] to 1 and
    anchors[2] to oo. Remaining points keep configuration order.
    """
    if len(set(anchors)) != 3:
        raise DegenerateTriple("anchors must be three distinct labels")
    if len(config) < 4:
        raise ValueError("need at least four points to take coordinates")
    ps = tuple(config.point(a) for a in anchors)
    M = mobius_from_triples(ps, (0.0, 1.0, INF))
    labels, coords = [], []
    for lab, p in config:
        if lab in anchors:
            continue
        w = mobius_apply(M, p)
        if is_inf(w):
            raise CollisionDetected(
                "point %s maps to the oo anchor" % lab, pair=(lab, anchors[2]))
        labels.append(lab)
        coords.append(w)
    return ModuliCoordinates(labels, coords, anchors)


def forget_coordinates(mc, keep):
    """Project onto the kept labels (anchors are always retained)."""
    keep = set(keep)
    unknown = keep - set(mc.labels)
    if unknown:
        raise ValueError("unknown labels: %s" % sorted(unknown))
    kept = [(lab, c) for lab, c in zip(mc.labels, mc.coords) if lab in keep]
    return ModuliCoordinates([l for l, _ in kept], [c for _, c in kept],
                             mc.anchors)
