import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pullbacklab import ratmap
from pullbacklab.errors import NotPostsingularlyFinite, RootFindingFailure
from pullbacklab.ratmap import (_CLUSTER_TOL, RationalMap, _cluster, _padd,
                                _pderiv, _peval, _pmul, _proots, _trim,
                                compose, critical_points, fixed_points,
                                iterate, postsingular_analysis, preimages)
from pullbacklab.sphere import INF, chordal, is_inf

CHEB = RationalMap([-2, 0, 1])       # z^2 - 2
BASILICA = RationalMap([-1, 0, 1])   # z^2 - 1
SQUARE = RationalMap([0, 0, 1])      # z^2


def test_validation():
    with pytest.raises(ValueError):
        RationalMap([1, 1])  # degree 1
    with pytest.raises(ValueError):
        RationalMap([0, 1, 1], [0, 1])  # common root at 0
    assert RationalMap([1, 0, 1], [0, 1]).degree == 2


def test_evaluate_with_derivative():
    v, d = CHEB.evaluate_with_derivative(3 + 0j)
    assert v == 7 and d == 6
    v, d = SQUARE.evaluate_with_derivative(1j)
    assert v == -1 and d == 2j


def test_derivative_when_denominator_square_underflows():
    # |D(z)|^2 < 1e-324 rounds to 0 although N/D is a finite double
    g = RationalMap([1, 0, 1], [0, 1])   # (z^2 + 1)/z
    v, d = g.evaluate_with_derivative(1e-170)
    assert v == 1e170 and d.real == -math.inf  # g' = 1 - z^-2 = -1e340
    # where D^2 is representable the quotient rule is untouched, bit for bit
    z = 1e-150 + 0j
    N, D = 1 + z * z, z
    assert g.evaluate_with_derivative(z) == (N / D, (2 * z * D - N) / (D * D))
    h = RationalMap([1, 0, 1], [1e-170])  # (z^2 + 1) 1e170
    v, d = h.evaluate_with_derivative(1e-200)
    assert v == 1e170 and abs(d - 2e-30) < 1e-44


def _horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _reference_evaluate(g, z):
    """evaluate_with_derivative as four separate Horner evaluations (the
    form the inlined kernel replaced); returns (value, derivative) and the
    quotient-rule branch taken."""
    if is_inf(z):
        return g._eval_at_infinity(), "inf"
    Nv = _horner(g.numerator, z)
    Dv = _horner(g.denominator, z)
    dNv = _horner(g._dnum, z)
    dDv = _horner(g._dden, z)
    if Dv == 0:
        return (INF, (dDv * Nv - Dv * dNv) / (Nv * Nv)), "pole"
    w = Nv / Dv
    if not cmath.isfinite(w):
        return (INF, (dDv * Nv - Dv * dNv) / (Nv * Nv)), "non-finite"
    DD = Dv * Dv
    if DD == 0:
        return (w, (dNv - w * dDv) / Dv), "underflow"
    return (w, (dNv * Dv - Nv * dDv) / DD), "quotient"


def _bits(point):
    if is_inf(point):
        return "INF"
    return point.real.hex(), point.imag.hex()


def _assert_kernel_matches(g, z):
    """Bit-for-bit agreement, signed zeros included, or the same exception
    (0/0 where N and D share a root); returns the branch. The value-only
    ``g(z)`` agrees with the value to the bit, and is oo at a shared root."""
    try:
        want, branch = _reference_evaluate(g, z)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            g.evaluate_with_derivative(z)
        assert g(z) is INF
        return "common root"
    got = g.evaluate_with_derivative(z)
    assert tuple(map(_bits, got)) == tuple(map(_bits, want)), (g, z)
    assert _bits(g(z)) == _bits(want[0]), (g, z)
    return branch


_unit = st.floats(-1.0, 1.0)


@st.composite
def rational_maps(draw):
    """Degree 2..8, either part of full degree; sometimes D(0) = 0."""
    degree = draw(st.integers(2, 8))
    lower = draw(st.integers(0, degree))
    sizes = [degree, lower] if draw(st.booleans()) else [lower, degree]

    def coeffs(size):
        out = [complex(draw(_unit), draw(_unit)) for _ in range(size)]
        lead = cmath.rect(draw(st.floats(0.25, 4.0)),
                          draw(st.floats(-math.pi, math.pi)))
        return out + [lead]
    N, D = coeffs(sizes[0]), coeffs(sizes[1])
    if len(D) > 1 and draw(st.booleans()):
        D[0] = 0j   # a pole at 0
        N[0] = 1 + 0j
    return RationalMap(N, D, check=False)


@st.composite
def points(draw):
    """Mantissa times 2**e over the whole double range, or a signed zero."""
    if draw(st.integers(0, 9)) == 0:
        return complex(draw(st.sampled_from((0.0, -0.0))),
                       draw(st.sampled_from((0.0, -0.0))))
    e = draw(st.integers(-1100, 60))
    return complex(math.ldexp(draw(_unit), e), math.ldexp(draw(_unit), e))


kernel = settings(max_examples=300, deadline=None, derandomize=True)


@kernel
@given(rational_maps(), points())
def test_kernel_matches_four_horner_evaluations(g, z):
    _assert_kernel_matches(g, z)
    _assert_kernel_matches(g.reciprocal_conjugate(), z)


@kernel
@given(rational_maps(), st.complex_numbers(max_magnitude=3.0),
       st.complex_numbers(min_magnitude=0.05, max_magnitude=20.0))
def test_kernel_matches_on_shifted_maps_near_1e_60(g, anchor, offset):
    # the anchored chart: T(w) = g(anchor + w) - anchor at tiny offsets w
    _assert_kernel_matches(g.shifted(anchor), offset * 1e-60)


def test_kernel_matches_on_every_branch():
    pole_at_0 = RationalMap([1, 2, 1], [0, 1, 3], check=False)
    inv_tiny = RationalMap([1e10, 0, 1], [0, 1])   # (z^2 + 1e10)/z
    square_over = RationalMap([1, 0, 1], [0, 1])   # (z^2 + 1)/z
    cases = [
        (pole_at_0, 0j, "pole"), (pole_at_0, complex(-0.0, -0.0), "pole"),
        (RationalMap([1], [0, 0, 1]), 0j, "pole"),
        (inv_tiny, 1e-310 + 0j, "non-finite"),
        (square_over, 1e-170 + 0j, "underflow"),
        (square_over, complex(-3e-171, 1e-170), "underflow"),
        (compose(square_over, CHEB), math.sqrt(2) + 1e-170j, "quotient"),
        (CHEB, INF, "inf"), (RationalMap([0, 0, 1], [1, 3]), INF, "inf"),
        (RationalMap([1], [0, 0, 1]), INF, "inf"),
        (RationalMap([1, 0, 2], [3, 0, 1]), INF, "inf"),
        (CHEB.shifted(2.0), 1e-60 - 3e-61j, "quotient"),
    ]
    for g, z, branch in cases:
        assert _assert_kernel_matches(g, z) == branch, (g, z)


def test_evaluate_at_infinity_chart():
    # conjugating z^2 - 2 by 1/z gives w^2/(1 - 2 w^2); derivative 0 at 0
    v, d = CHEB.evaluate_with_derivative(INF)
    assert is_inf(v) and d == 0
    # degree-gap-one map: multiplier at the fixed point oo is lead ratio
    g = RationalMap([0, 0, 1], [1, 3])   # z^2/(3z + 1)
    v, d = g.evaluate_with_derivative(INF)
    assert is_inf(v) and abs(d - 3.0) < 1e-12


def test_reciprocal_conjugate():
    g = RationalMap([0, 0, 1], [1, 3])
    h = g.reciprocal_conjugate()
    # h(w) = 1/g(1/w) = 3w + w^2
    for w in (0.1 + 0j, 0.2 - 0.1j):
        assert abs(h(w) - (3 * w + w * w)) < 1e-12


def test_critical_points_polynomials():
    for g in (CHEB, BASILICA, SQUARE):
        crit = critical_points(g)
        as_dict = {("inf" if is_inf(c) else c): d for c, d in crit}
        assert as_dict[0j] == 2 and as_dict["inf"] == 2


def test_critical_points_rational_derived():
    # (z^2+1)/z: N'D - ND' = z^2 - 1, roots +-1; oo is not critical (2d-2=2)
    g = RationalMap([1, 0, 1], [0, 1])
    crit = critical_points(g)
    locs = sorted((c.real for c, _ in crit))
    assert locs == [-1.0, 1.0]
    assert all(d == 2 for _, d in crit)
    assert sum(d - 1 for _, d in crit) == 2 * g.degree - 2


def test_riemann_hurwitz_exact():
    corpus = [CHEB, BASILICA, SQUARE, RationalMap([1, 0, 1], [0, 1]),
              iterate(CHEB, 2), iterate(SQUARE, 3)]
    for g in corpus:
        assert sum(d - 1 for _, d in critical_points(g)) == 2 * g.degree - 2


def _reference_proots(coeffs):
    """The companion-matrix root finder the Aberth iteration replaced:
    numpy.roots, then the same 4-step Newton polish."""
    coeffs = _trim(coeffs)
    if len(coeffs) == 1:
        return []
    roots = np.roots(np.array(list(reversed(coeffs)), dtype=complex))
    assert np.all(np.isfinite(roots))
    dcoeffs = _pderiv(coeffs)
    polished = []
    for r in roots:
        r = complex(r)
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


def _dickson(d):
    """Dickson polynomial D_d(z, 1): D_0 = 2, D_1 = z,
    D_n = z D_{n-1} - D_{n-2}; z^2 - 2 for d = 2."""
    prev, cur = (2 + 0j,), (0j, 1 + 0j)
    for _ in range(d - 1):
        prev, cur = cur, _padd(_pmul((0j, 1 + 0j), cur), prev, sign=-1)
    return cur


def _pow_coeffs(d, constant=0):
    return (constant,) + (0,) * (d - 1) + (1,)


_ROOT_CASES = (
    [("z^%d" % d, _pow_coeffs(d)) for d in range(2, 9)]
    + [("T%d'" % d, _pderiv(_dickson(d))) for d in range(2, 9)]
    + [("z^%d-1" % m, _pow_coeffs(m, -1)) for m in (3, 5, 8)]
    + [("double_root_1+i", _pmul(_pmul((-1 - 1j, 1), (-1 - 1j, 1)), (2, 1))),
       ("crit_iterate_cheb_3", _pderiv(iterate(CHEB, 3).numerator)),
       ("spread_1e-6_1e6", (1e-6, -3e4, 2e-2, 1e6, -50.0, 7e-5, 4e3,
                            -1.0, 2.5e2))])


@pytest.mark.parametrize("coeffs", [c for _, c in _ROOT_CASES],
                         ids=[name for name, _ in _ROOT_CASES])
def test_proots_matches_the_companion_matrix_reference(coeffs):
    got = _cluster(_proots(coeffs), _CLUSTER_TOL)
    want = _cluster(_reference_proots(coeffs), _CLUSTER_TOL)
    assert sorted(n for _, n in got) == sorted(n for _, n in want)
    for r, n in want:
        # simple roots to 1e-12 relative; a multiple root's centroid only
        # to the clustering scale, as rounding splits it by about that
        tol = (1e-12 if n == 1 else _CLUSTER_TOL) * max(1.0, abs(r))
        assert any(m == n and abs(z - r) <= tol for z, m in got), (r, n, got)


def test_proots_gives_exact_zero_roots():
    for d in range(2, 9):
        assert _proots(_pow_coeffs(d)) == [0j] * d
    assert _proots((0, 0, -1, 0, 1))[2:] == [0j, 0j]


def test_proots_keeps_real_roots_of_real_polynomials_real():
    # a real root found a rounding error off the axis would move P by that
    # error through the critical values
    for d in range(2, 9):
        assert all(z.imag == 0 for z in _proots(_pderiv(_dickson(d))))
    assert all(c.imag == 0 for c, _ in critical_points(iterate(CHEB, 2))
               if not is_inf(c))


def test_critical_points_match_the_reference_multiplicities(monkeypatch):
    maps = [RationalMap(_pow_coeffs(d)) for d in range(2, 9)] + \
        [RationalMap(_dickson(d)) for d in range(2, 9)] + \
        [iterate(CHEB, 3), RationalMap([1, 0, 1], [0, 1])]
    got = [critical_points(RationalMap(g.numerator, g.denominator))
           for g in maps]
    monkeypatch.setattr(ratmap, "_proots", _reference_proots)
    want = [critical_points(RationalMap(g.numerator, g.denominator))
            for g in maps]

    for g, a, b in zip(maps, got, want):
        assert len(a) == len(b), g
        for c, n in b:
            assert any(m == n and chordal(z, c) <= 1e-6 for z, m in a), g


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
def test_proots_rejects_non_finite_coefficients(bad):
    with pytest.raises(RootFindingFailure):
        _proots((1, bad, 1))
    with pytest.raises(RootFindingFailure):
        _proots((1, 0, bad))


def test_preimages():
    assert sorted(p.real for p, _ in preimages(SQUARE, 1 + 0j)) == [-1.0, 1.0]
    crit_pre = preimages(CHEB, -2 + 0j)
    assert len(crit_pre) == 1 and crit_pre[0][1] == 2
    assert abs(crit_pre[0][0]) < 1e-8
    assert sorted(p.real for p, _ in preimages(CHEB, 2 + 0j)) == [-2.0, 2.0]


def test_preimages_residual_property():
    rng = np.random.default_rng(3)
    for g in (CHEB, BASILICA, RationalMap([1, 0, 1], [0, 1])):
        for _ in range(25):
            w = complex(*rng.normal(size=2))
            total = 0
            for p, mult in preimages(g, w):
                total += mult
                if not is_inf(p):
                    assert chordal(g(p), w) < 1e-9
            assert total == g.degree


def test_preimages_of_infinity():
    g = RationalMap([1, 0, 1], [0, 1])  # (z^2+1)/z: pole at 0, oo -> oo
    pre = preimages(g, INF)
    kinds = sorted(("inf" if is_inf(p) else round(p.real, 6) for p, _ in pre),
                   key=str)
    assert kinds == [0.0, "inf"]


def test_fixed_points_chebyshev():
    fps = fixed_points(CHEB, P=[-2 + 0j, 2 + 0j, INF])
    by_loc = {("inf" if is_inf(f.location) else round(f.location.real, 6)): f
              for f in fps}
    assert by_loc[2.0].type == "repelling" and by_loc[2.0].in_P
    assert abs(by_loc[2.0].multiplier - 4) < 1e-9
    assert by_loc[-1.0].type == "repelling" and not by_loc[-1.0].in_P
    assert abs(by_loc[-1.0].multiplier + 2) < 1e-9
    assert by_loc["inf"].type == "superattracting" and by_loc["inf"].in_P


def test_fixed_points_basilica_and_square():
    golden = (1 + math.sqrt(5)) / 2
    fps = fixed_points(BASILICA)
    finite = sorted(f.location.real for f in fps if not is_inf(f.location))
    assert abs(finite[0] - (1 - math.sqrt(5)) / 2) < 1e-9
    assert abs(finite[1] - golden) < 1e-9
    assert all(f.type == "repelling" for f in fps if not is_inf(f.location))

    fps = fixed_points(SQUARE)
    by_loc = {("inf" if is_inf(f.location) else round(f.location.real, 6)): f
              for f in fps}
    assert by_loc[0.0].type == "superattracting"
    assert by_loc[1.0].type == "repelling"
    assert abs(by_loc[1.0].multiplier - 2) < 1e-9
    assert by_loc["inf"].type == "superattracting"


def test_fixed_point_residuals():
    for g in (CHEB, BASILICA, SQUARE):
        for f in fixed_points(g):
            assert chordal(g(f.location), f.location) < 1e-9


def _reference_preimage_polish(g, w, z):
    """Newton on g(z) - w, as preimages once ran it on _proots' roots: up
    to 3 steps, each kept only when it lowers |g(z) - w|."""
    for _ in range(3):
        gv, gd = g.evaluate_with_derivative(z)
        if is_inf(gv) or gd == 0:
            break
        step = (gv - w) / gd
        if not cmath.isfinite(step):
            break
        z2 = z - step
        gv2 = g(z2)
        if not is_inf(gv2) and abs(gv2 - w) <= abs(gv - w):
            z = z2
        else:
            break
    return z


def _reference_fixed_point_polish(g, z):
    """Newton on g(z) - z, as fixed_points once ran it on _proots' roots:
    up to 4 steps, each kept only when it lowers |g(z) - z|."""
    for _ in range(4):
        gv, gd = g.evaluate_with_derivative(z)
        if is_inf(gv) or abs(gd - 1.0) < 1e-14:
            break
        z2 = z - (gv - z) / (gd - 1.0)
        gv2 = g(z2)
        if not is_inf(gv2) and abs(gv2 - z2) <= abs(gv - z):
            z = z2
        else:
            break
    return z


def test_roots_need_no_second_polish_on_g():
    # _proots polishes each root once; a further Newton polish on the map
    # itself only rounds: every finite preimage and fixed point of 200
    # random maps of degree 2..8, half of them rational, is within
    # 1e-14 max(1, |z|) of its reference-polished value
    rng = np.random.default_rng(17)

    def draw(size):
        return [complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(size)]
    for i in range(200):
        d = int(rng.integers(2, 9))
        D = draw(int(rng.integers(1, d + 1)) + 1) if i % 2 else [1.0]
        g = RationalMap(draw(d + 1), D, check=False)
        w = complex(*rng.normal(size=2))
        for z, _ in preimages(g, w):
            if not is_inf(z):
                assert abs(_reference_preimage_polish(g, w, z) - z) <= \
                    1e-14 * max(1.0, abs(z)), (g, w, z)
        for f in fixed_points(g):
            z = f.location
            if not is_inf(z):
                assert abs(_reference_fixed_point_polish(g, z) - z) <= \
                    1e-14 * max(1.0, abs(z)), (g, z)


def test_psf_fixed_points_never_strictly_attracting():
    # psf maps carry only superattracting and repelling cycles; asserted
    # over the demo corpus
    for g in (CHEB, BASILICA, SQUARE, iterate(CHEB, 2), iterate(SQUARE, 3)):
        for f in fixed_points(g):
            assert f.type in ("superattracting", "repelling")


def test_is_repelling():
    assert not ratmap.is_repelling(1 + 1e-9)  # the margin itself
    assert ratmap.is_repelling(math.nextafter(1 + 1e-9, 2.0))
    assert ratmap.is_repelling(-4 + 0j) and ratmap.is_repelling(2j)
    assert not ratmap.is_repelling(1j)
    assert not ratmap.is_repelling(complex(math.nan, 0.0))


def test_fixed_multiplier():
    # a fixed finite point, oo (superattracting for z^2 - 2, repelling for
    # its conjugate w^2 / (4w + 1)) and a point mapped elsewhere
    assert ratmap.fixed_multiplier(CHEB, 2 + 0j) == 4
    assert ratmap.fixed_multiplier(CHEB, INF) == 0
    assert ratmap.fixed_multiplier(RationalMap([0, 0, 1], [1, 4]), INF) == 4
    assert ratmap.fixed_multiplier(CHEB, -2 + 0j) is None
    assert ratmap.fixed_multiplier(RationalMap([0, 0, 1], [1, 4]), 0j) == 0
    # fixed means a chordal residual of at most EPS_FIX
    for x in (2 + 1e-10, 2 + 1e-8):
        fixed = chordal(CHEB(x), x) <= ratmap.EPS_FIX
        assert fixed == (x == 2 + 1e-10)
        assert (ratmap.fixed_multiplier(CHEB, x) is not None) == fixed


def test_postsingular_chebyshev():
    an = postsingular_analysis(CHEB)
    pts = sorted(("inf" if is_inf(p) else round(p.real, 9)
                  for p in an.postsingular.points), key=str)
    assert pts == [-2.0, 2.0, "inf"]
    portrait = {("inf" if is_inf(v) else round(v.real, 6)): (a, b)
                for v, a, b in an.portrait}
    assert portrait[-2.0] == (1, 1)   # -2 -> 2 -> 2
    assert portrait["inf"] == (0, 1)
    assert an.is_psf


def test_postsingular_basilica():
    an = postsingular_analysis(BASILICA)
    pts = sorted(("inf" if is_inf(p) else round(p.real, 9)
                  for p in an.postsingular.points), key=str)
    assert pts == [-1.0, 0.0, "inf"]
    portrait = {("inf" if is_inf(v) else round(v.real, 6)): (a, b)
                for v, a, b in an.portrait}
    assert portrait[-1.0] == (0, 2)   # -1 <-> 0


def test_postsingular_forward_invariance():
    for g in (CHEB, BASILICA, SQUARE):
        an = postsingular_analysis(g)
        pts = an.postsingular.points
        for i, j in an.transitions.items():
            assert chordal(g(pts[i]), pts[j]) < 1e-9


def test_not_psf_detected():
    g = RationalMap([0.1, 0, 1])  # z^2 + 0.1: orbit of 0.1 never closes
    with pytest.raises(NotPostsingularlyFinite):
        postsingular_analysis(g)


def test_compose_and_iterate():
    G = compose(CHEB, CHEB)
    assert G.degree == 4
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = complex(*rng.normal(size=2))
        assert abs(G(z) - CHEB(CHEB(z))) < 1e-9 * max(1, abs(G(z)))
    G3 = iterate(SQUARE, 3)
    assert G3.degree == 8
    assert abs(G3(1.1 + 0j) - 1.1 ** 8) < 1e-12


def test_serialization_roundtrip():
    g = RationalMap([1, 0, 1], [0, 1])
    g2 = RationalMap.from_json(g.to_json())
    assert g2.numerator == g.numerator and g2.denominator == g.denominator


def _reference_call(g, z):
    """g(z) as __call__ first wrote it: its own N and D Horner loops."""
    if z is INF:
        return g._eval_at_infinity()[0]
    Nv = 0j
    for c in g._hN:
        Nv = Nv * z + c
    Dv = 0j
    for c in g._hD:
        Dv = Dv * z + c
    if Dv == 0:
        return INF
    w = Nv / Dv
    return w if cmath.isfinite(w) else INF


def _assert_images_match(g, zs):
    want = [_bits(_reference_call(g, z)) for z in zs]
    assert [_bits(w) for w in g.images(zs)] == want, (g, zs)
    assert [_bits(g(z)) for z in zs] == want, (g, zs)
    return want


@kernel
@given(rational_maps(), st.lists(points(), max_size=12))
def test_images_are_the_reference_call_bit_for_bit(g, zs):
    _assert_images_match(g, zs)
    _assert_images_match(g.shifted(0.5 - 0.25j), [z * 1e-60 for z in zs])


def test_images_at_a_pole_and_a_non_finite_value():
    # a pole gives INF, as does a quotient past double range, in the batch
    # at the place of the sample, between finite values
    pole = RationalMap([0, 0, 1], [1, 4])      # z^2 / (1 + 4z), pole -1/4
    inv_tiny = RationalMap([1e10, 0, 1], [0, 1])
    got = _assert_images_match(pole, [0.5j, -0.25 + 0j, 1e200 + 0j, 2 + 0j])
    assert got[1] == got[2] == "INF" and "INF" not in (got[0], got[3])
    got = _assert_images_match(inv_tiny, [1 + 0j, 1e-310 + 0j, 0j])
    assert got[1:] == ["INF", "INF"]
    assert pole(INF) is INF and pole.images([]) == []
