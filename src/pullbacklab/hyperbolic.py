"""Annulus moduli, geodesic-length bounds, and upper bounds for hyperbolic
quantities on punctured spheres.

Everything here is one-sided on purpose: only *upper* bounds on lengths and
distances are produced (via punctured-disk comparison densities and upper
Riemann sums), which is exactly what the certificate threshold needs. No
lower-bound machinery exists, so certificates stay sound. Bounds are
plain floats. No function here takes a run: ``fiber.teich_step_bound``
sums the bounds of a step's moves.
"""

import math
from cmath import phase as cmath_phase

from .errors import NoApplicableComparison
from .sphere import is_inf, json_complex, json_float, json_typed

ELL_STAR = math.log(3.0 + 2.0 * math.sqrt(2.0))  # short-geodesic threshold

TWO_PI = 2.0 * math.pi

_REFINE_TOL = 0.01   # stop refining when successive estimates agree to 1%
_ROUND_UP = 1.01     # reported bounds carry this upward pad


class RoundAnnulus:
    """Round annulus r_in < |z - center| < r_out, kept in log-radius form so
    extreme moduli survive; ``anchor`` marks a translated working chart
    (absolute center = anchor + center)."""

    __slots__ = ("center", "log_rin", "log_rout", "anchor")

    def __init__(self, center, log_rin, log_rout, anchor=None):
        if not (math.isfinite(log_rin) and math.isfinite(log_rout)):
            raise ValueError("log radii must be finite")
        if not log_rin < log_rout:
            raise ValueError("need r_in < r_out")
        self.center = complex(center)
        self.log_rin = float(log_rin)
        self.log_rout = float(log_rout)
        self.anchor = None if anchor is None else complex(anchor)

    @classmethod
    def from_radii(cls, center, r_in, r_out, anchor=None):
        if not (r_in > 0 and r_out > r_in):
            raise ValueError("need 0 < r_in < r_out")
        return cls(center, math.log(r_in), math.log(r_out), anchor=anchor)

    @property
    def r_in(self):
        return _radius(self.log_rin)

    @property
    def r_out(self):
        return _radius(self.log_rout)

    def core_radius(self):
        return _radius(0.5 * (self.log_rin + self.log_rout))

    def to_json(self):
        obj = {"center": [self.center.real, self.center.imag],
               "log_rin": self.log_rin, "log_rout": self.log_rout}
        if self.anchor is not None:
            obj["anchor"] = [self.anchor.real, self.anchor.imag]
        return obj

    @classmethod
    def from_json(cls, obj):
        json_typed(obj, dict, "annulus")
        anchor = obj.get("anchor")
        if anchor is not None:
            anchor = json_complex(anchor, "annulus anchor")
        return cls(json_complex(obj["center"], "annulus center"),
                   json_float(obj["log_rin"], "annulus log_rin"),
                   json_float(obj["log_rout"], "annulus log_rout"),
                   anchor=anchor)

    def __repr__(self):
        return "RoundAnnulus(center=%r, log radii %.4g..%.4g%s)" % (
            self.center, self.log_rin, self.log_rout,
            "" if self.anchor is None else ", anchored at %r" % self.anchor)


def _radius(log_r):
    """e^log_r, or inf past double range: a stored annulus may carry any
    finite log radius."""
    try:
        return math.exp(log_r)
    except OverflowError:
        return math.inf


def annulus_modulus(annulus):
    """log(r_out/r_in) / (2 pi); conformally invariant, chart independent."""
    return (annulus.log_rout - annulus.log_rin) / TWO_PI


def geodesic_length_bound(mod):
    """pi / mod bounds the core-geodesic length in any hyperbolic surface
    containing the annulus essentially."""
    if not mod > 0:
        raise ValueError("modulus must be positive")
    return _length_bound(math.pi / mod)


def _length_bound(value):
    """``value`` as a length bound: a float, finite and >= 0."""
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError("length bound must be finite and >= 0")
    return value


# ---------------------------------------------------------------------------
# punctured-disk comparison densities

class DiskComparisons:
    """Per-puncture comparison disks D(p, R_p) - {p} for a finite puncture
    set; R_p is the distance from p to its nearest other finite puncture,
    so each punctured disk embeds in the complement of the full set and its
    density dominates by domain monotonicity."""

    __slots__ = ("pairs",)

    def __init__(self, points):
        finite = [complex(p) for p in points if not is_inf(p)]
        pairs = []
        for i, p in enumerate(finite):
            others = [abs(q - p) for j, q in enumerate(finite) if j != i]
            if others:
                pairs.append((p, min(others)))
        self.pairs = tuple(pairs)

    def density(self, z):
        """min over applicable punctures of 1/(d log(R/d)), d = |z - p|."""
        best = math.inf
        for p, R in self.pairs:
            d = abs(z - p)
            if d <= 0.0 or d >= R:
                continue
            best = min(best, 1.0 / (d * math.log(R / d)))
        if not math.isfinite(best):
            raise NoApplicableComparison(
                "point %r lies in no punctured-disk comparison region" % (z,))
        return best


def _segment_upper_sum(density, a, b):
    """Adaptive upper Riemann sum of ``density`` along the segment [a, b]:
    per-subinterval max of sampled densities, refined until successive
    estimates agree to 1%, then rounded up by the same margin. Level 2n
    keeps level n's samples at i / (2n) == 2i / (4n) (exactly) as its even
    ones and evaluates ``density`` only at its n new odd points."""
    L = abs(b - a)
    if L == 0.0:
        return 0.0
    prev = None
    n = 4
    samples = [density(a + (b - a) * (i / (2 * n))) for i in range(2 * n + 1)]
    while True:
        total = 0.0
        for i in range(n):
            rho = max(samples[2 * i], samples[2 * i + 1], samples[2 * i + 2])
            total += rho * (L / n)
        if prev is not None and abs(total - prev) <= _REFINE_TOL * total:
            return max(total, prev) * _ROUND_UP
        prev = total
        n *= 2
        if n > 4096:
            return prev * _ROUND_UP
        odd = [density(a + (b - a) * (i / (2 * n)))
               for i in range(1, 2 * n, 2)]
        samples = [s for two in zip(samples, odd) for s in two] + samples[-1:]


def path_length_upper_bound(P, path):
    """Upper Riemann sum of the comparison density of the points P along
    the polyline of a ``lifting.Path``."""
    comp = DiskComparisons(P)
    nodes = path.absolute_nodes()
    total = 0.0
    for a, b in zip(nodes, nodes[1:]):
        total += _segment_upper_sum(comp.density, a, b)
    return _length_bound(total)


# ---------------------------------------------------------------------------
# scaled bounds near a single puncture (deep anchored steps)

def punctured_disk_radial_bound(R, log_r_from, log_r_to):
    """Exact punctured-disk distance between radii on a common ray:
    |log( log(R/r_to) / log(R/r_from) )| with radii given as logs."""
    lR = math.log(R)
    u, v = lR - log_r_from, lR - log_r_to
    if u <= 0 or v <= 0:
        raise NoApplicableComparison("radius outside the comparison disk")
    return abs(math.log(v / u))


def anchored_step_bound(R, eta_a, eta_b):
    """Upper bound for the punctured-disk distance between two scaled
    deviations from the puncture.

    Uses the length of the circular-arc-then-radial path (principal angle
    difference): in polar coordinates the punctured-disk metric is
    |dz| / (r log(R/r)), so the arc costs dtheta / log(R/r_a) and the
    radial leg has the exact log-log closed form. This path never crosses
    the puncture and its cost vanishes with depth, unlike a straight chord
    between nearly opposite rays."""
    if not R > 0:
        raise NoApplicableComparison("empty comparison disk")
    lR = math.log(R)
    u = lR - eta_a.ln_abs()
    v = lR - eta_b.ln_abs()
    if u <= 0 or v <= 0:
        raise NoApplicableComparison("deviation outside the comparison disk")
    dtheta = abs(cmath_phase(eta_b.m / eta_a.m))
    # turn at whichever radius makes the arc cheaper; both orders are paths;
    # the radial leg is punctured_disk_radial_bound with log R taken once
    return (dtheta / max(u, v) + abs(math.log(v / u))) * _ROUND_UP
