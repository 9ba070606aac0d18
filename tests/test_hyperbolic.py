import math
import random

import numpy as np
import pytest

from pullbacklab.errors import NoApplicableComparison
from pullbacklab.hyperbolic import (ELL_STAR, DiskComparisons, RoundAnnulus,
                                    _segment_upper_sum,
                                    annulus_modulus, anchored_step_bound,
                                    geodesic_length_bound,
                                    path_length_upper_bound,
                                    punctured_disk_radial_bound)
from pullbacklab.lifting import Path
from pullbacklab.local import ScaledComplex
from pullbacklab.sphere import INF


def test_ell_star_closed_form():
    # numeric evaluation of log(3 + 2 sqrt(2))
    assert abs(ELL_STAR - 1.7627471740) < 1e-9
    assert abs(math.exp(ELL_STAR) - (3 + 2 * math.sqrt(2))) < 1e-12


def test_annulus_modulus_identities():
    a = RoundAnnulus.from_radii(0j, 1.0, math.exp(2 * math.pi))
    assert annulus_modulus(a) == 1.0  # exact
    b = RoundAnnulus.from_radii(0j, 1.0, math.e)
    assert abs(annulus_modulus(b) - 1 / (2 * math.pi)) < 1e-15


def test_annulus_modulus_chart_invariance():
    # the modulus is computed from the radii alone, so transporting the
    # annulus by a chart translation changes nothing
    a = RoundAnnulus.from_radii(1 + 2j, 0.1, 3.0)
    b = RoundAnnulus.from_radii(0j, 0.1, 3.0, anchor=1 + 2j)
    assert abs(annulus_modulus(a) - annulus_modulus(b)) < 1e-15


def test_annulus_validation_and_json():
    with pytest.raises(ValueError):
        RoundAnnulus.from_radii(0j, 2.0, 1.0)
    with pytest.raises(ValueError):
        RoundAnnulus.from_radii(0j, -1.0, 1.0)
    for anchor, form in ((None, None), (2.0, [2.0, 0.0]), (INF, "inf")):
        a = RoundAnnulus.from_radii(1j, 1e-70, 3.0, anchor=anchor)
        assert a.to_json().get("anchor") == form
        b = RoundAnnulus.from_json(a.to_json())
        assert b.log_rin == a.log_rin and b.center == a.center
        assert b.anchor == a.anchor


def test_geodesic_length_bound():
    assert float(geodesic_length_bound(math.pi)) == 1.0
    assert abs(float(geodesic_length_bound(10.0)) - 0.3141592653589793) < 1e-15
    # at the certificate threshold the bound equals ell* exactly
    k, d0 = 1, 0.7
    thr = (k + 4) * math.pi * math.exp(k * d0) / ELL_STAR
    assert abs((k + 4) * math.pi * math.exp(k * d0) / thr - ELL_STAR) < 1e-12
    with pytest.raises(ValueError):
        geodesic_length_bound(0.0)


def test_density_upper_bound_examples():
    # frozen from the closed form 1/(d log(R/d))
    got = DiskComparisons([-2 + 0j, 2 + 0j, INF]).densities([0j])[0]
    assert abs(got - 0.7213475204444817) < 1e-12
    got = DiskComparisons([0j, 1 + 0j, INF]).densities([0.5 + 0j])[0]
    assert abs(got - 2.8853900817779268) < 1e-12
    # oo has its disk |z| > 1, the largest finite modulus
    got = DiskComparisons([0j, 1 + 0j, INF]).densities([10 + 0j])[0]
    assert abs(got - 1.0 / (10.0 * math.log(10.0))) < 1e-15
    with pytest.raises(NoApplicableComparison):
        DiskComparisons([0j, 1 + 0j, INF]).densities([-1 + 0j])[0]
    with pytest.raises(NoApplicableComparison):  # oo is no puncture
        DiskComparisons([0j, 1 + 0j, 2j]).densities([10 + 0j])[0]


def test_density_closed_form_property():
    # the reported value equals the min of the per-puncture closed forms
    pts = [-2 + 0j, 2 + 0j, 1j, INF]
    comp = DiskComparisons(pts)
    assert comp.r_inf == 2.0
    rng = np.random.default_rng(41)
    hits = 0
    for _ in range(100):
        z = complex(*rng.uniform(-3, 3, size=2))
        cands = []
        for p, R in comp.pairs:
            d = abs(z - p)
            if 0 < d < R:
                cands.append(1.0 / (d * math.log(R / d)))
        if abs(z) > comp.r_inf:
            cands.append(1.0 / (abs(z) * math.log(abs(z) / comp.r_inf)))
        if not cands:
            continue
        hits += 1
        assert abs(comp.densities([z])[0] - min(cands)) < 1e-12
    assert hits > 50


def test_path_bound_chebyshev_window():
    # the reference segment [0, sqrt(2)] with punctures {-2, 2, oo}: any
    # value in [1.0, 1.6] is acceptable, and it must dominate the exact
    # punctured-disk distance from the inclusion into D(2, 4) - {2}
    path = Path([0, math.sqrt(2)])
    bound = float(path_length_upper_bound([-2 + 0j, 2 + 0j, INF], path))
    oracle = math.log(math.log(4 / (2 - math.sqrt(2))) / math.log(2.0))
    assert oracle < bound < 1.6
    assert bound >= 1.0


def test_path_bound_degenerate_and_subadditive():
    pts = [-2 + 0j, 2 + 0j, INF]
    assert float(path_length_upper_bound(pts, Path([0.5 + 0j]))) == 0.0
    concat = float(path_length_upper_bound(pts, Path([0, 0.5 + 0j, 1 + 0j])))
    a = float(path_length_upper_bound(pts, Path([0, 0.5 + 0j])))
    b = float(path_length_upper_bound(pts, Path([0.5 + 0j, 1 + 0j])))
    assert concat <= a + b + 1e-12


def test_path_bound_refinement_stability():
    # refining the polyline changes the converged upper sum only within the
    # numerical slack of the rounding pad
    pts = [-2 + 0j, 2 + 0j, INF]
    path = Path([0, math.sqrt(2)])
    coarse = float(path_length_upper_bound(pts, path))
    fine = float(path_length_upper_bound(pts, path.refine(10)))
    assert fine >= 0.98 * coarse
    assert fine <= 1.02 * coarse


def test_radial_closed_form():
    # punctured-disk distance between radii on a ray: exact formula
    R = 4.0
    got = punctured_disk_radial_bound(R, math.log(2 - math.sqrt(2)),
                                      math.log(2.0))
    oracle = math.log(math.log(4 / (2 - math.sqrt(2))) / math.log(2.0))
    assert abs(got - oracle) < 1e-12
    with pytest.raises(NoApplicableComparison):
        punctured_disk_radial_bound(1.0, math.log(2.0), math.log(0.5))


def test_anchored_step_bound_matches_radial():
    R = 4.0
    a = ScaledComplex(0.3 + 0j, -200)
    b = a.mul_complex(0.25)
    got = anchored_step_bound(R, a, b)
    ln2 = math.log(2.0)
    la = math.log(0.3) - 200 * ln2
    oracle = punctured_disk_radial_bound(R, la, la + math.log(0.25))
    assert abs(got - oracle) < 0.02 * oracle
    # non-radial pairs run the upper sum; still close to the radial value
    # for a small twist, and always an upper bound of it
    c = a.mul_complex(0.25 * complex(math.cos(0.3), math.sin(0.3)))
    twisted = anchored_step_bound(R, a, c)
    assert twisted >= 0.95 * oracle


def test_length_bounds_are_floats_that_refuse_non_finite_values():
    assert type(geodesic_length_bound(1.0)) is float
    assert type(path_length_upper_bound([-2 + 0j, 2 + 0j, INF],
                                        Path([0j, 0.5 + 0j]))) is float
    # pi / 5e-324 overflows to inf: refused, not returned
    with pytest.raises(ValueError, match="length bound must be finite"):
        geodesic_length_bound(5e-324)


def _reference_segment_upper_sum(density, a, b):
    # the sum as first written: every sample evaluated again at each level
    L = abs(b - a)
    if L == 0.0:
        return 0.0
    prev = None
    n = 4
    while True:
        total = 0.0
        samples = [density(a + (b - a) * (i / (2 * n))) for i in range(2 * n + 1)]
        for i in range(n):
            rho = max(samples[2 * i], samples[2 * i + 1], samples[2 * i + 2])
            total += rho * (L / n)
        if prev is not None and abs(total - prev) <= 0.01 * total:
            return max(total, prev) * 1.01
        prev = total
        n *= 2
        if n > 4096:
            return prev * 1.01


def _sum_with_calls(upper_sum, densities, a, b):
    """(result or raised message, density samples taken): the reference
    takes one point a call, the sum a list of points a call."""
    calls = []

    def counted(z):
        if isinstance(z, list):
            calls.extend(z)
            return densities(z)
        calls.append(z)
        return densities([z])[0]
    try:
        return upper_sum(counted, a, b).hex(), len(calls)
    except NoApplicableComparison as exc:
        return "raised: %s" % exc, len(calls)


def test_segment_upper_sum_reuses_samples_bit_for_bit():
    # refinement keeps each level's samples as the next level's even ones
    # and evaluates only the new odd points: the same sums, bit for bit,
    # and the same message when a sample lies in no comparison disk
    comp = DiskComparisons([0j, 1 + 0j, -1 + 0j, 2j, 3 - 1j])
    rng = random.Random(5)
    stops = set()
    for _ in range(60):
        c, R = rng.choice(comp.pairs)
        scale = 10 ** rng.uniform(-8, 0)
        a = c + 0.9 * R * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * \
            (scale if rng.random() < 0.5 else 1.0)
        b = c + 0.9 * R * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale
        want, ref_calls = _sum_with_calls(_reference_segment_upper_sum,
                                          comp.densities, a, b)
        got, calls = _sum_with_calls(_segment_upper_sum, comp.densities, a, b)
        assert got == want, (a, b)
        if want.startswith("raised"):
            stops.add("raised")
            continue
        # the reference sampled 2n + 1 points at n = 4, 8, ..., n_stop
        n, evaluated = 4, 9
        while evaluated < ref_calls:
            n *= 2
            evaluated += 2 * n + 1
        assert evaluated == ref_calls
        assert calls == 2 * n + 1
        stops.add(n)
    assert {8, 16, 32, 64, 4096, "raised"} <= stops
    # a segment that stops at n = 8 takes 9 + 8 samples, not 9 + 17
    got, calls = _sum_with_calls(_segment_upper_sum, comp.densities,
                                 0.3 + 0j, 0.4 + 0j)
    want, ref_calls = _sum_with_calls(_reference_segment_upper_sum,
                                      comp.densities, 0.3 + 0j, 0.4 + 0j)
    assert (got, calls, ref_calls) == (want, 17, 26)
    # a segment 1e-12 from a puncture refines to the cap without agreeing
    comp = DiskComparisons([0j, 3 + 0j, -3 + 0j, 1.5j])
    a, b = -1e-3 + 1e-12j, 2.3e-3 + 1e-12j
    got, calls = _sum_with_calls(_segment_upper_sum, comp.densities, a, b)
    want, _ = _sum_with_calls(_reference_segment_upper_sum, comp.densities,
                              a, b)
    assert (got, calls) == (want, 2 * 4096 + 1)


def _reference_density(comp, z):
    # density as first written: one point a call, min() for the minimum
    best = math.inf
    for p, R in comp.pairs:
        d = abs(z - p)
        if d <= 0.0 or d >= R:
            continue
        best = min(best, 1.0 / (d * math.log(R / d)))
    if comp.r_inf is not None:
        r = abs(z)
        if r > comp.r_inf:
            best = min(best, 1.0 / (r * math.log(r / comp.r_inf)))
    if not math.isfinite(best):
        raise NoApplicableComparison(
            "point %r lies in no punctured-disk comparison region" % (z,))
    return best


def _density_or_raise(density, z):
    try:
        return density(z).hex()
    except NoApplicableComparison as exc:
        return "raised: %s" % exc


def test_densities_are_the_reference_density_bit_for_bit():
    # the batch takes the same operations in the same order, and raises
    # the same text at the first sample that lies in no comparison region
    rng = random.Random(17)
    raised = 0
    for points in ([0j, 1 + 0j, -1 + 0j, 2j, 3 - 1j],
                   [-2 + 0j, 2 + 0j, 1j, INF], [0j, 1 + 0j, INF],
                   [0.3 - 0.1j, 1e-7 + 0j, -4 + 2j, INF]):
        comp = DiskComparisons(points)
        zs = []
        for _ in range(400):
            p, R = rng.choice(comp.pairs)
            zs.append(p + R * 10 ** rng.uniform(-12, 0.3) *
                      complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        zs += [p for p, _ in comp.pairs] + [10 + 0j, -1e6j]
        want = [_density_or_raise(lambda z: _reference_density(comp, z), z)
                for z in zs]
        assert [_density_or_raise(lambda w: comp.densities([w])[0], z)
                for z in zs] == want
        ok = [z for z, w in zip(zs, want) if not w.startswith("raised")]
        assert [x.hex() for x in comp.densities(ok)] == \
            [w for w in want if not w.startswith("raised")]
        bad = [z for z, w in zip(zs, want) if w.startswith("raised")]
        raised += len(bad)
        for z in bad[:5]:
            batch = ok[:7] + [z] + bad + ok[7:]
            with pytest.raises(NoApplicableComparison) as exc:
                comp.densities(batch)
            assert "raised: %s" % exc.value == \
                _density_or_raise(lambda w: _reference_density(comp, w), z)
    assert raised > 10
