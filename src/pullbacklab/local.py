"""Extended-range deviation arithmetic at repelling fixed punctures.

A marked orbit falling into a repelling fixed point p of the base map
contracts by 1/|g'(p)| per pullback step, so its deviation from p leaves
double precision relative to p after a few dozen steps and absolutely
after a few hundred. Deviations are therefore carried as mantissa * 2**e
pairs, and one inverse step is computed either by a Newton solve on the
translated map T(w) = g(p + w) - p (while the deviation is comfortably
representable) or as multiplication by 1/lambda* once the quadratic Taylor
tail falls below double rounding, where it is the correctly rounded result
rather than an approximation.

The translation anchor p is the snapped double puncture; the true fixed
point sits at p + eps_star with eps_star recovered by Newton, so tracked
deviations are measured from the true fixed point and decay cleanly.
"""

import cmath
import math

from .errors import BranchJumpSuspected
from .ratmap import is_repelling
from .sphere import INF, chart_coordinate, chordal_scale, is_inf

# |eta| above which the inverse step re-solves the translated map; below it
# the linearized step carries relative error O(|eta|) per step, which sums
# to < 1e-11 over any run
_DEEP_CUTOFF_LOG2 = math.log(1e-12, 2)
_LOG2_10 = math.log2(10.0)
_LN2 = math.log(2.0)
# residual |T(w) - target| / |target| of a Newton iterate at rounding level:
# about 4.5 units in the last place
_NEWTON_RES_ROUNDING = 1e-15
# an instance without __init__, for results that need none of its checks
_new = object.__new__


class ScaledComplex:
    """value = m * 2**e with 0.5 <= |m| < 1 after normalization; never
    changed, so its logs are taken once, when it is made. Zero and values
    that are not finite are refused."""

    __slots__ = ("m", "e", "_log2", "_ln")

    def __init__(self, m, e=0):
        m = complex(m)
        if m == 0:
            raise ValueError("ScaledComplex cannot hold zero")
        if not cmath.isfinite(m):
            raise ValueError("ScaledComplex cannot hold %r: it is not finite"
                             % (m,))
        self._normalize(m, e)

    def _normalize(self, m, e):
        """Store m * 2**e with m scaled into 0.5 <= |m| < 1, and its logs;
        m is finite and nonzero; where |m| overflows, m / 4 with e + 2."""
        try:
            a = abs(m)
        except OverflowError:
            m, e = complex(m.real * 0.25, m.imag * 0.25), e + 2
            a = abs(m)
        _, k = math.frexp(a)  # |m| = f * 2**k, f in [0.5, 1)
        self.m = m = complex(math.ldexp(m.real, -k), math.ldexp(m.imag, -k))
        self.e = e = e + k
        a = abs(m)
        self._log2 = math.log2(a) + e
        self._ln = math.log(a) + e * _LN2

    def to_complex(self):
        """Plain complex value; None when outside double range."""
        if not -1020 < self.e < 1020:
            return None
        return complex(math.ldexp(self.m.real, self.e),
                       math.ldexp(self.m.imag, self.e))

    def mul_complex(self, w):
        """self * w for a finite nonzero w of normal size, such as a chart's
        1/lambda: with 0.5 <= |m| < 1 the product is finite and nonzero, so
        the constructor's conversion and checks are skipped. Bit for bit
        what ``ScaledComplex(self.m * w, self.e)`` gives."""
        out = _new(ScaledComplex)
        out._normalize(self.m * w, self.e)
        return out

    def sub(self, other):
        gap = other.e - self.e
        if gap < -120:
            return self
        if gap > 120:
            return ScaledComplex(-other.m, other.e)
        shifted = complex(math.ldexp(other.m.real, gap),
                          math.ldexp(other.m.imag, gap))
        diff = self.m - shifted
        if diff == 0:
            raise ValueError("exact cancellation in ScaledComplex.sub")
        return ScaledComplex(diff, self.e)

    def log2_dist(self, other):
        """log2 |self - other|; -inf when they cancel exactly."""
        try:
            return self.sub(other).log2_abs()
        except ValueError:
            return -math.inf

    def log2_abs(self):
        return self._log2

    def ln_abs(self):
        return self._ln

    def log10_abs(self):
        return self._log2 / _LOG2_10

    def __repr__(self):
        return "ScaledComplex(%r, %d)" % (self.m, self.e)


class LocalFixedChart:
    """Canonical inverse branch of g fixing a snapped repelling point.

    For a finite anchor p the chart works with T(w) = g(p + w) - p; for the
    anchor at infinity it conjugates by w = 1/z first. ``inv_step`` applies
    the branch of g^{-1} fixing the anchor to a deviation eta measured from
    the true fixed point p + eps_star.
    """

    def __init__(self, g, p):
        self.puncture = p
        self.T, _ = g.chart(p)
        self.chordal_factor = chordal_scale(p)
        self.eps_star = self._solve_offset()
        _, lam = self.T.evaluate_with_derivative(self.eps_star)
        if not is_repelling(lam):
            raise ValueError(
                "anchor %r is not a repelling fixed point (|mult| = %.6g)"
                % (p, abs(lam)))
        self.lam = lam
        self.inv_lam = 1.0 / lam
        # second-order coefficient, for the deep-regime residual bound
        h = 1e-5
        self.quad = abs(self.T(h) + self.T(-h) - 2.0 * self.T(0j)) / (2 * h * h)
        # logs of the constants above, taken once for the reporting methods
        self._log10_factor = math.log10(self.chordal_factor)
        self._log2_factor = math.log2(self.chordal_factor)
        self._log2_quad = math.log2(self.quad + 1e-300)

    def _solve_offset(self):
        d = 0j
        for _ in range(50):
            fv, fd = self.T.evaluate_with_derivative(d)
            if is_inf(fv):
                raise ValueError("translated map has a pole at the anchor")
            step = (fv - d) / (fd - 1.0)
            d = d - step
            if abs(step) <= 1e-18:
                break
        if abs(d) > 1e-9:
            raise ValueError("anchor is not within tolerance of a fixed point")
        return d

    # -- dynamics -----------------------------------------------------------

    def inv_step(self, eta):
        """One inverse-branch step: the eta' with T(eps* + eta') = eps* + eta."""
        if eta.log2_abs() < _DEEP_CUTOFF_LOG2:
            return eta.mul_complex(self.inv_lam)
        target = eta.to_complex() + self.eps_star
        w = self.eps_star + (target - self.eps_star) * self.inv_lam
        best, best_res = w, math.inf
        for it in range(60):
            fv, fd = self.T.evaluate_with_derivative(w)
            if is_inf(fv) or fd == 0:
                raise BranchJumpSuspected("local inverse left its chart")
            res = abs(fv - target)
            if res < best_res:
                best, best_res = w, res
            step = (fv - target) / fd
            w = w - step
            if abs(step) <= 1e-16 * abs(w):
                break
        else:
            # T(0) != 0, so the steps can settle just above the relative
            # test; the best iterate is then as good as rounding allows
            if not best_res <= _NEWTON_RES_ROUNDING * abs(target):
                raise BranchJumpSuspected(
                    "local inverse Newton did not converge")
            w = best
        return ScaledComplex(w - self.eps_star)

    def deviation_of(self, x):
        """Deviation of an absolute position from the true fixed point."""
        return ScaledComplex(chart_coordinate(self.puncture, x)
                             - self.eps_star)

    def materialize(self, eta):
        """Best double representation of the tracked position."""
        z = eta.to_complex()
        if z is None:
            return self.puncture
        if is_inf(self.puncture):
            # the chart at oo is its own inverse
            return chart_coordinate(INF, self.eps_star + z)
        return self.puncture + (self.eps_star + z)

    # -- reporting ------------------------------------------------------------

    def log10_dist_to_anchor(self, eta):
        return self._log10_factor + eta.log10_abs()

    def step_residual(self, eta_prev, eta_next):
        """Chordal bound on |g(x_{n+1}) - x_n| for an anchored step."""
        log2_next = eta_next.log2_abs()
        if log2_next < _DEEP_CUTOFF_LOG2:
            # linearized step: residual bounded by the quadratic tail
            log2_res = 2.0 * log2_next + self._log2_quad
            log2_res += self._log2_factor
            if log2_res < -1070:
                return 0.0
            return 2.0 ** log2_res
        fwd = self.T(self.eps_star + eta_next.to_complex())
        res = abs(fwd - (self.eps_star + eta_prev.to_complex()))
        return self.chordal_factor * res
