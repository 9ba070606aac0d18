"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Quantitative targets come from independent scalar oracles (the
inverse-branch recurrences of the corpus maps), not from the engine.
"""

import cmath
import copy
import math
import time

import numpy as np
import pytest

from pullbacklab.certify import (certify_obstructed, classify_run,
                                 emit_levy_certificate, verify_certificate)
from pullbacklab.fiber import (BranchDatum, TrivialMarkedSpec,
                               compose_iterate_run, init_run, run_until)
from pullbacklab.hyperbolic import (ELL_STAR, RoundAnnulus, annulus_modulus,
                                    geodesic_length_bound)
from pullbacklab.lifting import Path, lift_closed_curve, lift_path
from pullbacklab.ratmap import (RationalMap, critical_points, critical_values,
                                iterate, preimages)
from pullbacklab.sphere import (Configuration, INF, forget_coordinates,
                                is_inf, normalize_configuration)

CHEB = RationalMap([-2, 0, 1])
BASILICA = RationalMap([-1, 0, 1])
SQUARE = RationalMap([0, 0, 1])

GOLDEN_CONJ = (1 - math.sqrt(5)) / 2


def report(num, name, ok, detail=""):
    line = "ACCEPTANCE %02d %-28s %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared runs

@pytest.fixture(scope="module")
def cheb_run():
    run = init_run(CHEB, [BranchDatum(0.0, math.sqrt(2))])
    trace, status = run_until(run, max_iters=2000)
    return run, trace, status


@pytest.fixture(scope="module")
def squaring_runs():
    out = []
    for b in (0.5 + 0j, 0.5 + 0.25j, -1 / 3 + 0.5j):
        run = init_run(SQUARE, [BranchDatum(b, b ** 0.5)],
                       extra_punctures=[1.0])
        trace, status = run_until(run, max_iters=2000)
        out.append((run, trace, status))
    return out


@pytest.fixture(scope="module")
def basilica_run():
    run = init_run(BASILICA, [BranchDatum(-0.6, -math.sqrt(0.4))])
    trace, status = run_until(run, max_iters=200)
    return run, trace, status


def test_criterion_01_chebyshev_obstructed(cheb_run):
    run, trace, status = cheb_run
    cls = classify_run(trace, CHEB, run.punctures)
    ok = cls.verdict == "obstructed" and cls.puncture == 2 + 0j

    fresh = init_run(CHEB, [BranchDatum(0.0, math.sqrt(2))])
    t0 = time.perf_counter()
    logs = []
    for _ in range(1000):
        fresh.pullback_step()
        logs.append(fresh.dist_log10(fresh.marked[0], "p1"))
    elapsed = time.perf_counter() - t0
    ratios = [10.0 ** (logs[i + 1] - logs[i]) for i in range(19, 99)]
    ok = ok and all(0.24 <= r <= 0.26 for r in ratios)
    ok = ok and elapsed < 1.0
    report(1, "chebyshev-obstructed", ok,
           "ratio in [%.4f, %.4f], 1000 steps in %.3fs"
           % (min(ratios), max(ratios), elapsed))


def test_criterion_02_squaring_runs(squaring_runs):
    details = []
    ok = True
    for run, trace, status in squaring_runs:
        cls = classify_run(trace, SQUARE, run.punctures)
        ok = ok and cls.verdict == "obstructed" and cls.puncture == 1 + 0j
        ok = ok and 0.49 <= cls.rate_estimate <= 0.51
        details.append("%.4f" % cls.rate_estimate)
    report(2, "squaring-same-puncture", ok, "rates " + ", ".join(details))


def test_criterion_03_basilica_realized(basilica_run):
    run, trace, status = basilica_run
    cls = classify_run(trace, BASILICA, run.punctures)
    ok = cls.verdict == "realized" and status.steps <= 200
    err = abs(cls.x_star - GOLDEN_CONJ)
    res = abs(BASILICA(cls.x_star) - cls.x_star)
    ok = ok and err < 1e-8 and res < 1e-8
    report(3, "basilica-realized", ok,
           "|x*-(1-sqrt5)/2| = %.2e, residual %.2e, %d steps"
           % (err, res, status.steps))


def test_criterion_04_chebyshev_realized():
    run = init_run(CHEB, [BranchDatum(0.0, -math.sqrt(2))])
    trace, status = run_until(run, max_iters=200)
    cls = classify_run(trace, CHEB, run.punctures)
    ok = cls.verdict == "realized"
    err = abs(cls.x_star - (-1.0))
    ok = ok and err < 1e-8
    report(4, "chebyshev-realized", ok, "|x* + 1| = %.2e" % err)


def _corpus_runs():
    yield init_run(CHEB, [BranchDatum(0.0, math.sqrt(2))]), 80
    yield init_run(CHEB, [BranchDatum(0.0, -math.sqrt(2))]), 80
    yield init_run(BASILICA, [BranchDatum(-0.6, -math.sqrt(0.4))]), 80
    for b in (0.5 + 0j, 0.5 + 0.25j, -1 / 3 + 0.5j):
        yield init_run(SQUARE, [BranchDatum(b, b ** 0.5)],
                       extra_punctures=[1.0]), 80
    yield init_run(CHEB, [BranchDatum(0.0, -math.sqrt(2))],
                   trivial=[TrivialMarkedSpec(-2.0, 0.0, start=0.5)]), 60
    yield compose_iterate_run(CHEB, 2, BranchDatum(0.0, math.sqrt(2))), 40


def test_criterion_05_diagram_invariant():
    worst = 0.0
    for run, steps in _corpus_runs():
        for _ in range(steps):
            run.pullback_step()
            rec = run.trace_record()
            worst = max(worst, rec["diagram_residual"])
    report(5, "diagram-invariant", worst < 1e-8, "worst %.2e" % worst)


def test_criterion_06_functoriality():
    worst = 0.0
    for g, datum, extra in (
            (CHEB, BranchDatum(0.0, math.sqrt(2)), ()),
            (SQUARE, BranchDatum(0.5, math.sqrt(0.5)), (1.0,))):
        base = init_run(g, [datum], extra_punctures=extra)
        for _ in range(60):
            base.pullback_step()

        def mat(run, n):
            track = run.marked[0]
            mode, v = track.history[n]
            return v if mode == "free" else track.anchor.chart.materialize(v)

        for m in (2, 3):
            comp = compose_iterate_run(g, m, datum, extra_punctures=extra)
            for _ in range(20):
                comp.pullback_step()
            for j in range(1, 21):
                worst = max(worst, abs(mat(base, m * j) - mat(comp, j)))
    report(6, "functoriality-m2-m3", worst < 1e-8, "worst %.2e" % worst)


def test_criterion_07_trivial_marked_point():
    spec = TrivialMarkedSpec(-2.0, 0.0, start=0.5)
    plain = init_run(CHEB, [BranchDatum(0.0, math.sqrt(2))])
    augmented = init_run(CHEB, [BranchDatum(0.0, math.sqrt(2))],
                         trivial=[spec])
    for _ in range(60):
        plain.pullback_step()
        augmented.pullback_step()
    constant = all(v == 0j for _, v in augmented.trivial[0].history[1:])
    worst = 0.0
    for n in range(61):
        a, b = plain.marked[0].history[n], augmented.marked[0].history[n]
        if a[0] == "free" and b[0] == "free":
            worst = max(worst, abs(a[1] - b[1]))
        else:
            same = a[0] == b[0] and a[1].m == b[1].m and a[1].e == b[1].e
            worst = max(worst, 0.0 if same else math.inf)
    ok = constant and worst < 1e-10
    report(7, "trivial-marked-point", ok,
           "constant from step 1, orbit perturbation %.1e" % worst)


def test_criterion_08_lift_correctness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for g, region in ((CHEB, 3 + 0j), (BASILICA, 3 + 0j), (SQUARE, 3 + 0j)):
        cv = critical_values(g)
        done = 0
        while done < 100:
            nodes = region + 0.5 * rng.normal(size=8).view(np.complex128)
            path = Path(nodes.tolist())
            from pullbacklab.lifting import path_clearance
            if path_clearance(path, cv) < 0.05:
                continue
            starts = [p for p, _ in preimages(g, path.start) if not is_inf(p)]
            start = starts[int(rng.integers(len(starts)))]
            res = lift_path(g, path.refine(10), start)
            worst = max(worst, res.max_residual)
            done += 1
    ok = worst < 1e-8

    # null-homotopic loops in critical-value-free disks close
    closures = []
    for _ in range(25):
        center = complex(*rng.uniform(-1, 1, size=2)) + 3 + 0j
        radius = float(rng.uniform(0.1, 0.5))
        loop = Path([center + radius * cmath.exp(2j * math.pi * t / 64)
                     for t in range(65)])
        start = max((p for p, _ in preimages(SQUARE, loop.start)),
                    key=lambda p: p.real)
        res, closes = lift_closed_curve(SQUARE, loop, start,
                                        check_clearance=False)
        closures.append(closes and abs(res.lifted.end - res.lifted.start) < 1e-8)
    ok = ok and all(closures)

    # the unit circle under z -> z^2 has square-root monodromy
    unit = Path([cmath.exp(2j * math.pi * t / 128) for t in range(129)])
    _, closes = lift_closed_curve(SQUARE, unit, 1 + 0j,
                                  check_clearance=False)
    ok = ok and not closes
    report(8, "lift-correctness", ok,
           "worst lift residual %.2e over 300 seeded polylines" % worst)


def test_criterion_09_certificate(cheb_run):
    run, trace, status = cheb_run
    cert = certify_obstructed(run, engine_version="acceptance")
    ok = cert is not None
    if ok:
        threshold = 5 * math.pi * math.exp(run.d0_bound()) / ELL_STAR
        ok = ok and cert.step <= math.ceil((threshold + 3) / 0.22)
        ok = ok and cert.modulus > cert.threshold
        ok = ok and cert.length_bound < ELL_STAR
        ok = ok and abs(ELL_STAR - 1.7627471740) < 1e-9
        ok = ok and cert.inner_count_A >= 2 and cert.inner_count_B <= 1
        ok = ok and cert.outer_count_A >= 2 and cert.outer_count_B >= 2
        ok = ok and verify_certificate(cert, run).ok
        tampered = copy.copy(cert)
        tampered.modulus = cert.modulus * 0.5
        ok = ok and not verify_certificate(tampered, run)
        # modulus growth per step approaches log(4)/(2 pi) within 10%
        for _ in range(5):
            run.pullback_step()
        nxt = emit_levy_certificate(run)
        growth = (nxt.modulus - cert.modulus) / (nxt.step - cert.step)
        target = math.log(4) / (2 * math.pi)
        ok = ok and abs(growth - target) <= 0.1 * target
        detail = ("emitted at n=%d <= %d, modulus %.3f > threshold %.3f, "
                  "growth %.5f" % (cert.step,
                                   math.ceil((threshold + 3) / 0.22),
                                   cert.modulus, cert.threshold, growth))
    else:
        detail = "no certificate emitted"
    report(9, "levy-certificate", ok, detail)


def test_criterion_10_fiber_uniqueness():
    limits = []
    for db in (0j, 0.03 + 0.02j, -0.04j):
        b = -0.6 + db
        bp = -((b + 1) ** 0.5)  # the same branch, homotopic straight delta
        run = init_run(BASILICA, [BranchDatum(b, bp)])
        trace, status = run_until(run, max_iters=300)
        cls = classify_run(trace, BASILICA, run.punctures)
        assert cls.verdict == "realized"
        limits.append(cls.x_star)
    spread = max(abs(a - b) for a in limits for b in limits)
    report(10, "fiber-fixed-point-unique", spread < 1e-8,
           "spread %.2e over 3 perturbed basepoints" % spread)


def test_criterion_11_module_identities():
    ok = annulus_modulus(
        RoundAnnulus.from_radii(0j, 1.0, math.exp(2 * math.pi))) == 1.0
    ok = ok and float(geodesic_length_bound(math.pi)) == 1.0

    cfg5 = Configuration("abcde", [-2 + 0j, 2 + 0j, INF, 0j, 1j])
    cfg4 = Configuration("abcd", [-2 + 0j, 2 + 0j, INF, 0j])
    left = forget_coordinates(
        normalize_configuration(cfg5, ("a", "b", "c")), ["d"])
    right = normalize_configuration(cfg4, ("a", "b", "c"))
    ok = ok and abs(left.coords[0] - right.coords[0]) < 1e-12

    corpus = [CHEB, BASILICA, SQUARE, iterate(CHEB, 2), iterate(SQUARE, 3),
              RationalMap([1, 0, 1], [0, 1])]
    ok = ok and all(
        sum(d - 1 for _, d in critical_points(g)) == 2 * g.degree - 2
        for g in corpus)
    report(11, "module-identities", ok)
