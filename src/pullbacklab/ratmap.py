"""Analysis of the rational base map: evaluation with derivatives, critical
points and values, postsingular orbits, fixed points, preimage solving.

Polynomials are coefficient tuples in ascending degree. Roots come from
the Aberth-Ehrlich simultaneous iteration (Bini, Numer. Algorithms 13,
1996) in pure Python, so that importing the engine does not load numpy:
exact zero roots are split off first, the rest start on a circle of
coefficient-bound radius, and each stops once its residual is at the
rounding level of its Horner evaluation. Every root is then polished once
by Newton, in ``_proots``, and callers (critical points, preimages, fixed
points) take the roots as they are. Multiple roots are recovered by
clustering, which is robust at the low degrees (<= 8) this engine targets.

P is ordered and labelled in one place, ``puncture_configuration``: finite
points lexicographically, oo last, as p0, p1, ...; a point counts as a point
of P, or of any list of points, by ``sphere.index_near``. A multiplier is
repelling by ``is_repelling``, the only reader of ``REPELLING_MARGIN``.
"""

import cmath
import math
import sys

from .errors import (AmbiguousCycle, NotPostsingularlyFinite,
                     RootFindingFailure)
from .sphere import (INF, Configuration, chart_coordinate, chordal,
                     encode_point, index_near, is_inf, json_complex,
                     json_typed)

REPELLING_MARGIN = 1e-9  # repelling means |multiplier| > 1 + this
_CLUSTER_TOL = 1e-6     # root clustering scale for multiplicity detection
_ABERTH_SWEEPS = 100    # a root not at rounding level by then raises
MAX_ORBIT = 200         # critical-value orbit steps before "not psf"
EPS_CYCLE = 1e-6        # chordal gap at which an orbit counts as closed


def is_repelling(multiplier):
    """Whether a fixed point or cycle with this multiplier is repelling."""
    return abs(multiplier) > 1.0 + REPELLING_MARGIN


# ---------------------------------------------------------------------------
# polynomial helpers (ascending coefficients)

def _trim(coeffs, rel=1e-13):
    coeffs = [complex(c) for c in coeffs]
    top = max((abs(c) for c in coeffs), default=0.0)
    if top == 0.0:
        return (0j,)
    while len(coeffs) > 1 and abs(coeffs[-1]) <= rel * top:
        coeffs.pop()
    return tuple(coeffs)


def _peval(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _pderiv(coeffs):
    if len(coeffs) <= 1:
        return (0j,)
    return tuple(k * c for k, c in enumerate(coeffs) if k > 0)


def _pmul(p, q):
    out = [0j] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _padd(p, q, sign=1):
    n = max(len(p), len(q))
    out = [0j] * n
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += sign * b
    return tuple(out)


def _pshift(coeffs, p):
    """Coefficients of z -> poly(p + z) via repeated synthetic division."""
    work = list(coeffs)
    out = []
    while work:
        rem = 0j
        for i in range(len(work) - 1, -1, -1):
            rem = rem * p + work[i]
            work[i] = rem
        out.append(work[0])
        work = work[1:]
    return _trim(out, rel=0.0)


def _aberth(coeffs):
    """Roots of a polynomial with a nonzero constant term, by Aberth-Ehrlich
    sweeps. Root i stops once |p(z_i)| <= 8 n eps sum |a_k| |z_i|^k, the
    rounding level of Horner's rule at z_i: a stop on the size of the
    correction never fires at some clustered roots, where the iterate
    wanders at rounding level."""
    n = len(coeffs) - 1
    lead = coeffs[-1]
    # Fujiwara's bound on every root modulus (a_0 not halved: a bit looser)
    radius = 2.0 * max(abs(coeffs[n - k] / lead) ** (1.0 / k)
                       for k in range(1, n + 1))
    # the offset keeps the start off any symmetry of real coefficients
    zs = [radius * cmath.exp(1j * (2 * math.pi * j / n + 0.4))
          for j in range(n)]
    hcoeffs = coeffs[::-1]
    habs = [abs(c) for c in hcoeffs]
    dcoeffs = _pderiv(coeffs)[::-1]
    rounding = 8 * n * sys.float_info.epsilon
    busy = list(range(n))
    for _ in range(_ABERTH_SWEEPS):
        still = []
        for i in busy:
            z = zs[i]
            pv = 0j
            for c in hcoeffs:
                pv = pv * z + c
            r = abs(z)
            bound = 0.0
            for c in habs:
                bound = bound * r + c
            if bound == math.inf:
                raise RootFindingFailure("polynomial overflows at an iterate")
            if abs(pv) <= rounding * bound:
                continue
            dv = 0j
            for c in dcoeffs:
                dv = dv * z + c
            s = 0j
            for j, w in enumerate(zs):
                if j != i and w != z:
                    s += 1.0 / (z - w)
            denom = dv - pv * s
            still.append(i)
            if denom == 0:
                continue  # the other roots move on and change s
            z -= pv / denom
            if not cmath.isfinite(z):
                raise RootFindingFailure("Aberth iterate left double range")
            zs[i] = z
        if not still:
            return zs
        busy = still
    raise RootFindingFailure("Aberth iteration did not reach rounding level "
                             "in %d sweeps" % _ABERTH_SWEEPS)


def _proots(coeffs):
    if not all(cmath.isfinite(c) for c in coeffs):
        raise RootFindingFailure("non-finite polynomial coefficient")
    coeffs = _trim(coeffs)
    if len(coeffs) == 1:
        return []
    # exact zero roots are split off and listed after the others
    zeros = 0
    while coeffs[zeros] == 0:
        zeros += 1
    roots = _aberth(coeffs[zeros:]) if zeros < len(coeffs) - 1 else []
    if all(c.imag == 0 for c in coeffs):
        # real coefficients: the roots are closed under conjugation, so a
        # root whose mirror image is nearer itself than every other root
        # is real, and its imaginary part is rounding noise
        def is_real(i, z):
            mirror = z.conjugate()
            return all(abs(mirror - z) < abs(mirror - w)
                       for j, w in enumerate(roots) if j != i)
        roots = [complex(z.real) if is_real(i, z) else z
                 for i, z in enumerate(roots)]
    roots += [0j] * zeros
    polished = []
    dcoeffs = _pderiv(coeffs)
    for r in roots:
        for _ in range(4):
            fv = _peval(coeffs, r)
            dv = _peval(dcoeffs, r)
            if abs(dv) < 1e-14 * max(1.0, abs(fv)):
                break
            step = fv / dv
            if not cmath.isfinite(step):
                break
            r2 = r - step
            if abs(_peval(coeffs, r2)) <= abs(fv):
                r = r2
            else:
                break
        polished.append(r)
    return polished


def _cluster(points, tol):
    """Greedy clustering: list of (centroid, count)."""
    clusters = []
    for z in points:
        for idx, (c, n) in enumerate(clusters):
            if abs(z - c) <= tol * max(1.0, abs(c)):
                clusters[idx] = ((c * n + z) / (n + 1), n + 1)
                break
        else:
            clusters.append((z, 1))
    return clusters


# ---------------------------------------------------------------------------

class RationalMap:
    """g = N/D of degree >= 2 with no common roots."""

    __slots__ = ("numerator", "denominator", "_dnum", "_dden", "degree",
                 "_cache", "_hN", "_hD", "_hdN", "_hdD")

    def __init__(self, numerator, denominator=(1.0,), check=True):
        N = _trim(numerator)
        D = _trim(denominator)
        if D == (0j,):
            raise ValueError("zero denominator")
        self.numerator = N
        self.denominator = D
        self._dnum = _pderiv(N)
        self._dden = _pderiv(D)
        # N, D, N' and D' in Horner order (highest degree first)
        self._hN = N[::-1]
        self._hD = D[::-1]
        self._hdN = self._dnum[::-1]
        self._hdD = self._dden[::-1]
        self.degree = max(len(N), len(D)) - 1
        self._cache = {}
        if check:
            if self.degree < 2:
                raise ValueError("degree must be at least 2")
            droots = _proots(D)
            for rn in _proots(N) if droots else ():
                if any(chordal(rn, rd) <= 1e-8 for rd in droots):
                    raise ValueError(
                        "numerator and denominator share a root near %r" % rn)

    # -- basic evaluation ---------------------------------------------------

    def __call__(self, z):
        return self.evaluate_with_derivative(z)[0]

    def evaluate_with_derivative(self, z):
        """(g(z), chart derivative). The derivative is taken between the
        standard affine charts, swapping to w = 1/z at either end as needed,
        so chaining the returned values along an orbit gives cycle
        multipliers that are correct through oo."""
        if z is INF:
            return self._eval_at_infinity()
        # the four Horner loops of _peval, inlined: same operations, same order
        Nv = 0j
        for c in self._hN:
            Nv = Nv * z + c
        Dv = 0j
        for c in self._hD:
            Dv = Dv * z + c
        dNv = 0j
        for c in self._hdN:
            dNv = dNv * z + c
        dDv = 0j
        for c in self._hdD:
            dDv = dDv * z + c
        if Dv == 0:
            # pole: value oo; derivative of 1/g = (D/N)' at z
            der = (dDv * Nv - Dv * dNv) / (Nv * Nv)
            return INF, der
        w = Nv / Dv
        if not cmath.isfinite(w):
            return INF, (dDv * Nv - Dv * dNv) / (Nv * Nv)
        DD = Dv * Dv
        if DD == 0:
            # |D(z)|^2 underflows while N/D is finite: same quotient rule,
            # divided by D once
            return w, (dNv - w * dDv) / Dv
        return w, (dNv * Dv - Nv * dDv) / DD

    def _eval_at_infinity(self):
        N, D = self.numerator, self.denominator
        n, m = len(N) - 1, len(D) - 1
        revN = tuple(reversed(N))  # revN(w) = w^n N(1/w)
        revD = tuple(reversed(D))
        if n > m:
            # g(oo) = oo; chart map w -> w^{n-m} revD(w)/revN(w)
            if n - m == 1:
                return INF, revD[0] / revN[0]
            return INF, 0j
        if n < m:
            # g(oo) = 0
            if m - n == 1:
                return 0j, revN[0] / revD[0]
            return 0j, 0j
        value = revN[0] / revD[0]
        q = _padd(_pmul(_pderiv(revN), revD), _pmul(revN, _pderiv(revD)), sign=-1)
        return value, _peval(q, 0j) / (revD[0] * revD[0])

    def fixes_infinity(self):
        return len(self.numerator) - 1 > len(self.denominator) - 1

    # -- derived maps ---------------------------------------------------------

    def shifted(self, p):
        """T with T(w) = g(p + w) - p, as a rational map (unchecked)."""
        Nsh = _pshift(self.numerator, p)
        Dsh = _pshift(self.denominator, p)
        A = _padd(Nsh, tuple(p * c for c in Dsh), sign=-1)
        return RationalMap(A, Dsh, check=False)

    def chart(self, q=None):
        """(map, finite critical points) in the working chart at q
        (``sphere.chart_coordinate``), cached per q: g for q None,
        g(q + w) - q for a finite q, 1/g(1/w) for oo."""
        key = ("chart", q)
        if key not in self._cache:
            if q is None:
                gm = self
            elif is_inf(q):
                gm = self.reciprocal_conjugate().shifted(0.0)
            else:
                gm = self.shifted(q)
            crit = (chart_coordinate(q, c) for c, _ in critical_points(self))
            self._cache[key] = gm, tuple(w for w in crit if not is_inf(w))
        return self._cache[key]

    def reciprocal_conjugate(self):
        """h with h(w) = 1/g(1/w) (anchor oo becomes anchor 0)."""
        N, D = self.numerator, self.denominator
        n, m = len(N) - 1, len(D) - 1
        k = max(n, m)
        # 1/g(1/w) = w^{k-m} revD(w) / (w^{k-n} revN(w))
        hN = (0j,) * (k - m) + tuple(reversed(D))
        hD = (0j,) * (k - n) + tuple(reversed(N))
        return RationalMap(hN, hD, check=False)

    def to_json(self):
        return {
            "numerator": [[c.real, c.imag] for c in self.numerator],
            "denominator": [[c.real, c.imag] for c in self.denominator],
        }

    @classmethod
    def from_json(cls, obj):
        json_typed(obj, dict, "map")
        return cls(*([json_complex(c, "map %s item" % key)
                      for c in json_typed(obj[key], list, "map " + key)]
                     for key in ("numerator", "denominator")))

    def __repr__(self):
        return "RationalMap(%r, %r)" % (self.numerator, self.denominator)


def compose(g1, g2):
    """g1 o g2 as a rational map."""
    N1, D1 = g1.numerator, g1.denominator
    N2, D2 = g2.numerator, g2.denominator
    K = max(len(N1), len(D1)) - 1

    def plug(coeffs):
        # sum_i c_i N2^i D2^{K-i}
        acc = (0j,)
        powN = [(1 + 0j,)]
        powD = [(1 + 0j,)]
        for _ in range(K):
            powN.append(_pmul(powN[-1], N2))
            powD.append(_pmul(powD[-1], D2))
        for i, c in enumerate(coeffs):
            term = tuple(c * x for x in _pmul(powN[i], powD[K - i]))
            acc = _padd(acc, term)
        return acc

    return RationalMap(plug(N1), plug(D1))


def iterate(g, m):
    """m-fold composition g^{om}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    out = g
    for _ in range(m - 1):
        out = compose(g, out)
    return out


# ---------------------------------------------------------------------------

def critical_points(g):
    """All critical points with local degrees; total count 2d-2."""
    if "crit" in g._cache:
        return g._cache["crit"]
    W = _padd(_pmul(g._dnum, g.denominator), _pmul(g.numerator, g._dden),
              sign=-1)
    out = [(c, n + 1) for c, n in _cluster(_proots(W), _CLUSTER_TOL)]
    used = sum(n - 1 for _, n in out)
    at_inf = 2 * g.degree - 2 - used
    if at_inf < 0:
        raise RootFindingFailure("critical multiplicities exceed 2d-2")
    if at_inf > 0:
        out.append((INF, at_inf + 1))
    g._cache["crit"] = out
    return out


def critical_values(g):
    if "cv" in g._cache:
        return g._cache["cv"]
    vals = []
    for c, _ in critical_points(g):
        v = g(c)
        if index_near(vals, v) is None:
            vals.append(v)
    g._cache["cv"] = vals
    return vals


def preimages(g, w):
    """All d solutions of g(z) = w, as (point, multiplicity) pairs."""
    d = g.degree
    if is_inf(w):
        poly = g.denominator
    else:
        poly = _padd(g.numerator, tuple(w * c for c in g.denominator), sign=-1)
    # trimmed here too: the count of preimages at oo reads its length
    poly = _trim(poly)
    out = _cluster(_proots(poly), _CLUSTER_TOL)
    missing = d - len(poly) + 1
    if missing > 0:
        out.append((INF, missing))
    if sum(n for _, n in out) != d:
        raise RootFindingFailure("preimage multiplicities do not sum to d")
    return out


# ---------------------------------------------------------------------------

class FixedPointData:
    """Location, multiplier, stability type and membership in P."""

    __slots__ = ("location", "multiplier", "type", "in_P")

    def __init__(self, location, multiplier, in_P=False):
        self.location = location
        self.multiplier = multiplier
        self.in_P = in_P
        m = abs(multiplier)
        if m <= 1e-9:
            self.type = "superattracting"
        elif m < 1.0 - 1e-9:
            self.type = "attracting"
        elif not is_repelling(multiplier):
            self.type = "indifferent"
        else:
            self.type = "repelling"

    def __repr__(self):
        return "FixedPointData(%r, mult=%r, %s%s)" % (
            self.location, self.multiplier, self.type,
            ", in P" if self.in_P else "")


def fixed_points(g, P=None):
    """Solutions of g(z) = z, including oo when fixed, with multipliers."""
    poly = _padd(g.numerator, (0j,) + g.denominator, sign=-1)
    out = []
    for z, _ in _cluster(_proots(poly), _CLUSTER_TOL):
        _, mult = g.evaluate_with_derivative(z)
        out.append(FixedPointData(z, mult, _in_config(z, P)))
    if g.fixes_infinity():
        _, mult = g.evaluate_with_derivative(INF)
        out.append(FixedPointData(INF, mult, _in_config(INF, P)))
    return out


def _in_config(z, P):
    if P is None:
        return False
    pts = P.points if isinstance(P, Configuration) else P
    return index_near(pts, z) is not None


# ---------------------------------------------------------------------------

class PostsingularAnalysis:
    """Critical data, orbit portrait and the snapped postsingular set."""

    __slots__ = ("critical", "critical_values", "postsingular", "portrait",
                 "transitions", "is_psf")

    def __init__(self, critical, crit_values, postsingular, portrait,
                 transitions):
        self.critical = critical
        self.critical_values = crit_values
        self.postsingular = postsingular
        self.portrait = portrait
        self.transitions = transitions
        self.is_psf = True

    def to_json(self):
        return {
            "critical": [[encode_point(c), n] for c, n in self.critical],
            "critical_values": [encode_point(v)
                                for v in self.critical_values],
            "postsingular": self.postsingular.to_json(),
            "portrait": [{"value": encode_point(v), "preperiod": a,
                          "period": b} for v, a, b in self.portrait],
            "transitions": {a: b for a, b in self.transitions.items()},
            "is_psf": self.is_psf,
        }


def _refine_cycle(g, seed, period):
    """Newton on g^{op}(z) - z; returns the refined length-p cycle."""
    if is_inf(seed):
        return [INF]
    z = seed
    for _ in range(60):
        w, deriv = z, 1 + 0j
        hit_inf = False
        for _ in range(period):
            w, dw = g.evaluate_with_derivative(w)
            if is_inf(w):
                hit_inf = True
                break
            deriv *= dw
        if hit_inf:
            break
        if abs(w - z) < 1e-14 * max(1.0, abs(z)):
            break
        denom = deriv - 1.0
        if abs(denom) < 1e-12:
            break
        z = z - (w - z) / denom
    cycle = [z]
    for _ in range(period - 1):
        cycle.append(g(cycle[-1]))
    return cycle


def _cycle_multiplier(g, cycle):
    mult = 1 + 0j
    for z in cycle:
        _, d = g.evaluate_with_derivative(z)
        mult *= d
    return mult


def puncture_configuration(points):
    """The punctures in their one order and with their labels: finite
    points lexicographically, oo last, labelled p0, p1, ... in that order."""
    pts = sorted(points, key=lambda p: (1, 0.0, 0.0) if is_inf(p)
                 else (0, p.real, p.imag))
    return Configuration(["p%d" % i for i in range(len(pts))], pts,
                         min_size=1)


def postsingular_analysis(g):
    """Iterate the critical values until every orbit lands on a repelling or
    superattracting cycle; snap cycles by Newton and assemble P.

    Raises NotPostsingularlyFinite when an orbit fails to close, or closes
    only onto an attracting/indifferent cycle (which a psf map cannot have,
    so the orbit is converging without landing).
    """
    crit = critical_points(g)
    cvals = critical_values(g)
    crit_pts = [c for c, _ in crit]

    points = []        # snapped P under construction
    portrait = []

    def register(p):
        if index_near(points, p) is None:
            points.append(p)

    for v in cvals:
        orbit = [v]
        closed = False
        for _ in range(MAX_ORBIT):
            z = orbit[-1]
            w = g(z)
            hit = None
            for i, prev in enumerate(orbit):
                if chordal(w, prev) < EPS_CYCLE:
                    hit = i
                    break
            orbit.append(w)
            if hit is None:
                continue
            preperiod, period = hit, len(orbit) - 1 - hit
            cycle = _refine_cycle(g, orbit[hit], period)
            check = _refine_cycle(g, orbit[hit + period], period)
            if chordal(cycle[0], check[0]) > 1e-7:
                raise AmbiguousCycle(
                    "orbit points within eps_cycle refine to different cycles")
            mult = _cycle_multiplier(g, cycle)
            super_ = any(chordal(z0, c) <= 1e-6
                         for z0 in cycle for c in crit_pts)
            if not super_ and not is_repelling(mult):
                raise NotPostsingularlyFinite(
                    "orbit of %r approaches a non-repelling, non-super cycle "
                    "(|mult| = %.6g); map is not postsingularly finite"
                    % (v, abs(mult)))
            for p in orbit[:preperiod]:
                register(p)
            for p in cycle:
                register(p)
            portrait.append((v, preperiod, period))
            closed = True
            break
        if not closed:
            raise NotPostsingularlyFinite(
                "orbit of %r did not close within %d steps" % (v, MAX_ORBIT))

    config = puncture_configuration(points)
    pts = config.points
    transitions = {}
    for i, p in enumerate(pts):
        w = g(p)
        best, dist = None, math.inf
        for j, q in enumerate(pts):
            dd = chordal(w, q)
            if dd < dist:
                best, dist = j, dd
        if dist > 1e-7:
            raise NotPostsingularlyFinite(
                "snapped postsingular set is not forward invariant at %r" % p)
        transitions[i] = best

    return PostsingularAnalysis(crit, cvals, config, portrait, transitions)
