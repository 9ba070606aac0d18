import cmath
import math
import random

import pytest

from pullbacklab.local import LocalFixedChart, ScaledComplex
from pullbacklab.ratmap import RationalMap

CHEB = RationalMap([-2, 0, 1])


def ratio_abs(a, b):
    """|a| / |b| of two ScaledComplex values at a moderate exponent gap."""
    return math.ldexp(abs(a.m) / abs(b.m), a.e - b.e)


def test_scaled_complex_normalization():
    s = ScaledComplex(3 + 4j)
    assert 0.5 <= abs(s.m) < 1.0
    assert abs(s.to_complex() - (3 + 4j)) < 1e-15
    with pytest.raises(ValueError):
        ScaledComplex(0j)


def test_scaled_complex_refuses_non_finite_values():
    # as it refuses zero: each of these would leave 0.5 <= |m| < 1 broken
    for value in (complex("inf"), complex("nan"), complex(1.0, -math.inf),
                  complex(math.nan, 1.0), complex(math.inf, math.nan)):
        with pytest.raises(ValueError, match="not finite"):
            ScaledComplex(value)
    with pytest.raises(ValueError, match="zero"):
        ScaledComplex(0j, 7)



def test_scaled_complex_holds_a_value_whose_modulus_overflows():
    # |1.5e308 + 1.5e308i| is past double range: a quarter of it is
    # normalized, with 2 more in the exponent
    s = ScaledComplex(1.5e308 + 1.5e308j)
    assert s.e == 1025 and 0.5 <= abs(s.m) < 1.0
    assert s.to_complex() is None
    assert abs(s.log2_abs() - 1024.2388157260289) < 1e-12
    assert ScaledComplex(-1.5e308 + 1.5e308j).m == -s.m.conjugate()


def _bits(s):
    return (s.m.real.hex(), s.m.imag.hex(), s.e, s.log2_abs().hex(),
            s.ln_abs().hex())


def test_mul_complex_is_the_constructor_bit_for_bit():
    # mul_complex skips the constructor's conversion and checks; its
    # result is the one ScaledComplex(m * w, e) normalizes, bit for bit,
    # on seeded mantissas and multipliers, on products that land exactly
    # on a power of two, and past the +-1020 binades where to_complex has
    # no value
    rng = random.Random(11)
    cases = []
    for _ in range(2000):
        s = ScaledComplex(cmath.rect(rng.uniform(0.5, 1.0),
                                     rng.uniform(-math.pi, math.pi)),
                          rng.randint(-3000, 3000))
        w = cmath.rect(2.0 ** rng.uniform(-60.0, 60.0),
                       rng.uniform(-math.pi, math.pi))
        cases.append((s, rng.choice((w, complex(w.real), 1j * w.imag))))
    for e in (-5000, -1021, -1020, 0, 1019, 1020, 1021, 5000):
        for m in (0.5, -0.5j, 0.75 + 0.5j):
            for w in (2.0, 0.5, -4.0, 0.25j, 1.0, 1.5, 2.0 ** -600):
                cases.append((ScaledComplex(m, e), w))
    beyond = 0
    for s, w in cases:
        got, want = s.mul_complex(w), ScaledComplex(s.m * w, s.e)
        assert _bits(got) == _bits(want), (s, w)
        assert 0.5 <= abs(got.m) < 1.0
        assert got.to_complex() == want.to_complex()
        beyond += got.to_complex() is None
    assert beyond > 0
    powers = [ScaledComplex(0.5, e).mul_complex(w)
              for e in (-1021, 1021) for w in (2.0, 0.25j)]
    assert [(p.m, p.e) for p in powers] == [
        (0.5, -1020), (0.5j, -1023), (0.5, 1022), (0.5j, 1019)]


def test_scaled_complex_extreme_range():
    s = ScaledComplex(1 + 0j)
    for _ in range(3000):
        s = s.mul_complex(0.25)
    assert abs(s.log2_abs() + 6000) < 1e-6
    assert s.to_complex() is None  # far below double range
    back = s
    for _ in range(3000):
        back = back.mul_complex(4.0)
    assert abs(back.to_complex() - 1.0) < 1e-9


def test_scaled_complex_sub_and_ratio():
    a = ScaledComplex(1.0 + 0j)
    b = ScaledComplex(0.25 + 0j)
    assert abs(a.sub(b).to_complex() - 0.75) < 1e-15
    assert abs(ratio_abs(a, b) - 4.0) < 1e-12
    tiny = ScaledComplex(1 + 0j, -2000)
    assert a.sub(tiny).to_complex() == 1.0  # negligible subtrahend
    with pytest.raises(ValueError):
        a.sub(ScaledComplex(1.0 + 0j))  # exact cancellation


def test_scaled_complex_log2_dist():
    a = ScaledComplex(3 + 4j)
    assert a.log2_dist(ScaledComplex(3 + 4j)) == -math.inf  # exact cancellation
    assert a.log2_dist(ScaledComplex(1 + 4j)) == 1.0
    # more than 120 binades apart the smaller value is below the larger's
    # rounding, in either order
    tiny = ScaledComplex(1 + 0j, -200)
    assert a.log2_dist(tiny) == a.log2_abs()
    assert tiny.log2_dist(a) == a.log2_abs()


def test_chart_rejects_non_repelling():
    with pytest.raises(ValueError):
        LocalFixedChart(CHEB, -1e9 + 0j)  # not a fixed point at all
    sq = RationalMap([0, 0, 1])
    with pytest.raises(ValueError):
        LocalFixedChart(sq, 0j)  # superattracting


def test_chart_matches_scalar_recurrence():
    # the p-fixing inverse branch of z^2 - 2 at p = 2 is w = sqrt(4 + eta) - 2,
    # i.e. eta' = eta / (sqrt(4 + eta) + 2): an independent scalar oracle.
    # In the deep regime the linearized step carries relative error O(|eta|).
    chart = LocalFixedChart(CHEB, 2.0 + 0j)
    assert abs(chart.lam - 4.0) < 1e-12
    eta = ScaledComplex(-0.3 + 0j)
    for _ in range(30):
        cur = eta.to_complex().real
        want = cur / (math.sqrt(4 + cur) + 2)
        eta2 = chart.inv_step(eta)
        tol = max(1e-13, 2.0 * abs(cur)) * abs(want)
        assert abs(eta2.to_complex() - want) < tol
        eta = eta2


def test_chart_deep_regime_ratio():
    chart = LocalFixedChart(CHEB, 2.0 + 0j)
    eta = ScaledComplex(-0.3 + 0j)
    for n in range(1200):
        eta = chart.inv_step(eta)
    # 1200 steps of contraction by 4: far out of double range, ratio exact
    assert abs(eta.log2_abs() - (math.log2(0.3) - 2 * 1200)) < 1.0
    nxt = chart.inv_step(eta)
    assert abs(ratio_abs(nxt, eta) - 0.25) < 1e-12


def test_chart_offset_recovery():
    # perturb the anchor: the chart recovers the true fixed point offset
    chart = LocalFixedChart(CHEB, 2.0 + 1e-11 + 0j)
    assert abs((2.0 + 1e-11 + chart.eps_star.real) - 2.0) < 1e-13


def test_chart_at_infinity():
    # z^2/(3z+1) fixes oo with chart multiplier 3 (repelling)
    g = RationalMap([0, 0, 1], [1, 3])
    from pullbacklab.sphere import INF
    chart = LocalFixedChart(g, INF)
    assert abs(chart.lam - 3.0) < 1e-12
    eta = ScaledComplex(0.01 + 0j)
    nxt = chart.inv_step(eta)
    # the inverse branch at oo contracts deviations by ~1/3 in the 1/z chart
    assert abs(ratio_abs(nxt, eta) - 1 / 3) < 0.01


def test_materialize():
    chart = LocalFixedChart(CHEB, 2.0 + 0j)
    eta = ScaledComplex(1e-3 + 0j)
    assert abs(chart.materialize(eta) - (2.0 + 1e-3)) < 1e-16
    deep = ScaledComplex(1 + 0j, -4000)
    assert chart.materialize(deep) == 2.0


def test_reporting_constants_match_their_formulas():
    # the chart keeps log10/log2 of its chordal factor and log2(quad) from
    # construction; the reporting methods equal the formulas that take
    # those logs afresh, at every step of seeded walks into the anchor
    rng = random.Random(7)
    for g, p in ((CHEB, 2.0 + 0j), (RationalMap([0, 0, 1]), 1.0 + 0j)):
        chart = LocalFixedChart(g, p)
        for _ in range(3):
            eta = ScaledComplex(complex(rng.uniform(-0.2, 0.2),
                                        rng.uniform(-0.2, 0.2)))
            for _ in range(1200):
                nxt = chart.inv_step(eta)
                assert chart.log10_dist_to_anchor(nxt) == \
                    math.log10(chart.chordal_factor) + nxt.log10_abs()
                if nxt.log2_abs() < math.log(1e-12, 2):
                    log2_res = 2.0 * nxt.log2_abs() + \
                        math.log2(chart.quad + 1e-300)
                    log2_res += math.log2(chart.chordal_factor)
                    want = 0.0 if log2_res < -1070 else 2.0 ** log2_res
                else:
                    fwd = chart.T(chart.eps_star + nxt.to_complex())
                    want = chart.chordal_factor * abs(
                        fwd - (chart.eps_star + eta.to_complex()))
                assert chart.step_residual(eta, nxt) == want
                eta = nxt
            assert eta.log2_abs() < -1074
