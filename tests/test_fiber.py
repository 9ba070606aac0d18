import cmath
import glob
import math
import os
import random

import pytest

import pullbacklab
from pullbacklab.certify import certify_obstructed, classify_run
from pullbacklab.cli import _build_run, load_config

from pullbacklab import hyperbolic
from pullbacklab.errors import (CollisionDetected, InvalidBranchDatum,
                                NoApplicableComparison)
from pullbacklab.fiber import (BranchDatum, Tolerances, TrivialMarkedSpec,
                               compose_iterate_run, init_run, run_until,
                               stopping_status, teich_step_bound)
from pullbacklab.hyperbolic import punctured_disk_radial_bound
from pullbacklab.lifting import Path, concatenate, lift_path
from pullbacklab.local import ScaledComplex
from pullbacklab.ratmap import RationalMap
from pullbacklab.sphere import chordal, is_inf

CHEB = RationalMap([-2, 0, 1])
BASILICA = RationalMap([-1, 0, 1])
SQUARE = RationalMap([0, 0, 1])


def cheb_run(**kw):
    return init_run(CHEB, [BranchDatum(0.0, math.sqrt(2))], **kw)


def scalar_orbit(x0, steps, branch=+1):
    # independent oracle for the chebyshev runs: x' = branch * sqrt(x + 2)
    xs = [x0]
    for _ in range(steps):
        xs.append(branch * math.sqrt(xs[-1] + 2))
    return xs


def materialized(run, track, n):
    mode, value = track.history[n]
    if mode == "free":
        return value
    return track.anchor.chart.materialize(value)


def test_init_validation():
    run = cheb_run()
    assert run.punctures.labels == ("p0", "p1", "p2")
    assert run.k == 1
    with pytest.raises(InvalidBranchDatum):
        init_run(CHEB, [BranchDatum(2.0, 2.0)])  # basepoint in P
    with pytest.raises(InvalidBranchDatum):
        init_run(CHEB, [BranchDatum(0.0, 1.0)])  # g(b') != b
    with pytest.raises(InvalidBranchDatum):
        init_run(SQUARE, [BranchDatum(0.5, math.sqrt(0.5))])  # |P| = 2
    run = init_run(SQUARE, [BranchDatum(0.5, math.sqrt(0.5))],
                   extra_punctures=[1.0])
    assert len(run.punctures) == 3
    with pytest.raises(InvalidBranchDatum):
        init_run(SQUARE, [BranchDatum(0.5, math.sqrt(0.5))],
                 extra_punctures=[0.7])  # not forward invariant


def test_cyclic_extra_punctures():
    # omega -> omega^2 -> omega under z^2: invariant as a set, not one by one
    w = cmath.exp(2j * math.pi / 3)
    datum = BranchDatum(0.5, math.sqrt(0.5))
    run = init_run(SQUARE, [datum], extra_punctures=[w, w * w])
    assert len(run.punctures) == 4
    with pytest.raises(InvalidBranchDatum):
        init_run(SQUARE, [datum], extra_punctures=[w, w * w, 0.7])
    with pytest.raises(InvalidBranchDatum):
        # sqrt(0.7) -> 0.7 stays in the set, but 0.7 -> 0.49 leaves it
        init_run(SQUARE, [datum], extra_punctures=[math.sqrt(0.7), 0.7])


def test_positions_match_scalar_recurrence():
    run = cheb_run()
    oracle = scalar_orbit(0.0, 10)
    for n in range(1, 11):
        run.pullback_step()
        got = materialized(run, run.marked[0], n)
        assert abs(got - oracle[n]) < 1e-10


def test_deep_ratio_oracle():
    run = cheb_run()
    t = run.marked[0]
    logs = []
    for _ in range(120):
        run.pullback_step()
        logs.append(run.dist_log10(t, "p1"))
    ratios = [10 ** (logs[i + 1] - logs[i]) for i in range(20, 100)]
    assert all(0.24 < r < 0.26 for r in ratios)


def test_diagram_invariant_every_step():
    for g, datum, extra in (
            (CHEB, BranchDatum(0.0, math.sqrt(2)), ()),
            (CHEB, BranchDatum(0.0, -math.sqrt(2)), ()),
            (BASILICA, BranchDatum(-0.6, -math.sqrt(0.4)), ()),
            (SQUARE, BranchDatum(0.5, math.sqrt(0.5)), (1.0,))):
        run = init_run(g, [datum], extra_punctures=extra)
        for _ in range(60):
            run.pullback_step()
            rec = run.trace_record()
            assert rec["diagram_residual"] < 1e-8


def test_incremental_equals_monolithic_lift():
    # the engine lifts only the newest block each step; lifting the whole
    # stored path from the branch point in one call (the literal definition
    # of the sigma step) reproduces the next position bitwise
    run = init_run(BASILICA, [BranchDatum(-0.6, -math.sqrt(0.4))])
    for _ in range(6):
        run.pullback_step()
    track = run.marked[0]
    full = track.full_path()
    datum = track.datum
    monolithic = concatenate(datum.delta,
                             lift_path(BASILICA, full,
                                       datum.branch_point).lifted)
    run.pullback_step()  # the incremental step 7
    assert monolithic.end == materialized(run, track, 7)


def test_trivial_marked_point_stabilizes_bitwise():
    spec = TrivialMarkedSpec(-2.0, 0.0, start=0.5)
    run = init_run(CHEB, [BranchDatum(0.0, -math.sqrt(2))], trivial=[spec])
    for _ in range(20):
        run.pullback_step()
    hist = run.trivial[0].history
    assert hist[0] == ("free", 0.5 + 0j)
    values = [v for _, v in hist[1:]]
    assert all(v == 0j for v in values)  # exactly constant from step 1


def test_trivial_point_does_not_perturb_fixed_orbit():
    plain = cheb_run()
    spec = TrivialMarkedSpec(-2.0, 0.0, start=0.5)
    augmented = init_run(CHEB, [BranchDatum(0.0, math.sqrt(2))],
                         trivial=[spec])
    for _ in range(40):
        plain.pullback_step()
        augmented.pullback_step()
    for n in range(41):
        a = plain.marked[0].history[n]
        b = augmented.marked[0].history[n]
        assert a[0] == b[0]
        if a[0] == "free":
            assert a[1] == b[1]  # bitwise identical
        else:
            assert a[1].m == b[1].m and a[1].e == b[1].e


def test_functoriality_subsampling():
    # composed m-fold runs reproduce the base orbit at multiples of m
    for g, datum, extra in (
            (CHEB, BranchDatum(0.0, math.sqrt(2)), ()),
            (SQUARE, BranchDatum(0.5, math.sqrt(0.5)), (1.0,))):
        base = init_run(g, [datum], extra_punctures=extra)
        for _ in range(60):
            base.pullback_step()
        for m in (2, 3):
            comp = compose_iterate_run(g, m, datum, extra_punctures=extra)
            for _ in range(20):
                comp.pullback_step()
            for j in range(1, 21):
                xb = materialized(base, base.marked[0], m * j)
                xc = materialized(comp, comp.marked[0], j)
                assert abs(xb - xc) < 1e-8


@pytest.mark.parametrize("g, datum, extra, m", [
    *[(CHEB, BranchDatum(0.0, math.sqrt(2)), (), m) for m in (2, 3, 4)],
    *[(SQUARE, BranchDatum(0.5, math.sqrt(0.5)), (1.0,), m) for m in (2, 3)]],
    ids=["cheb-2", "cheb-3", "cheb-4", "square-2", "square-3"])
def test_composed_run_has_the_base_punctures(g, datum, extra, m):
    # P(g^m) = P(g): the iterate's own analysis gives the base run's labels,
    # and its points within rounding
    base = init_run(g, [datum], extra_punctures=extra).punctures
    comp = compose_iterate_run(g, m, datum, extra_punctures=extra).punctures
    assert comp.labels == base.labels
    assert all(chordal(p, q) <= 1e-12
               for p, q in zip(comp.points, base.points))


def test_compose_m1_is_plain_run():
    run = compose_iterate_run(CHEB, 1, BranchDatum(0.0, math.sqrt(2)))
    other = cheb_run()
    run.pullback_step()
    other.pullback_step()
    assert run.marked[0].history[1] == other.marked[0].history[1]


def test_run_until_statuses():
    trace, status = run_until(cheb_run(), max_iters=400)
    assert status.kind == "candidate_puncture"
    assert status.puncture == 2 + 0j

    run = init_run(BASILICA, [BranchDatum(-0.6, -math.sqrt(0.4))])
    trace, status = run_until(run, max_iters=400)
    assert status.kind == "candidate_realized"
    x = run.marked[0].position()
    assert abs(x - (1 - math.sqrt(5)) / 2) < 1e-8

    trace, status = run_until(cheb_run(), max_iters=3)
    assert status.kind == "undecided"


def _seeded_runs():
    """(name, run, max_iters): the corpus, seeded z^d (extra puncture 1)
    and Dickson T_d runs on branches j = 0, 1 (T_d(u + 1/u) = u^d + u^-d,
    postcritical set {-2, 2, oo}), and one capped run."""
    configs = os.path.join(os.path.dirname(pullbacklab.__file__),
                           "demo_configs", "*.json")
    for path in sorted(glob.glob(configs)):
        yield os.path.basename(path), _build_run(load_config(path)), None
    rng = random.Random(7)
    for d in (2, 3, 4, 5):
        prev, cur = [2.0], [0.0, 1.0]
        for _ in range(d - 1):
            prev, cur = cur, [a - c for a, c in zip([0.0] + cur,
                                                    prev + [0.0, 0.0])]
        for j in (0, 1):
            turn = cmath.exp(2j * math.pi * j / d)
            b = cmath.rect(rng.uniform(0.3, 0.8), rng.uniform(0.3, 2.8))
            bp = abs(b) ** (1.0 / d) * cmath.exp(1j * cmath.phase(b) / d)
            yield ("z^%d/%d" % (d, j), init_run(
                RationalMap([0] * d + [1]), [BranchDatum(b, bp * turn)],
                extra_punctures=[1.0]), None)
            b = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.0))
            u = ((b + cmath.sqrt(b * b - 4.0)) / 2.0) ** (1.0 / d) * turn
            yield ("T_%d/%d" % (d, j),
                   init_run(RationalMap(cur), [BranchDatum(b, u + 1.0 / u)]),
                   None)
    yield "capped", cheb_run(), 3


def test_stopping_status_first_fires_where_run_until_stopped():
    kinds = set()
    for name, run, cap in _seeded_runs():
        trace, status = run_until(run, max_iters=cap)
        fired = [stopping_status(trace.records[:end], run.punctures, run.tol)
                 for end in range(1, len(trace.records) + 1)]
        first = next((s for s in fired if s is not None), None)
        kinds.add(status.kind)
        if status.kind == "undecided":
            assert first is None, name
            continue
        assert fired[:-1] == [None] * (len(fired) - 1), name
        assert (first.kind, first.puncture_label, first.puncture,
                first.steps) == (status.kind, status.puncture_label,
                                 status.puncture, status.steps), name
    assert kinds == {"candidate_puncture", "candidate_realized", "undecided"}


def test_run_into_an_inexact_fixed_puncture():
    # z^2 + c whose critical orbit lands on the fixed point alpha, which is
    # no double (T(0) != 0 in the anchored chart): the anchored Newton
    # steps settle at rounding level just above their relative test
    c = -1.5436890126920764
    g = RationalMap([c, 0, 1])
    b = 0.3 + 0.2j
    run = init_run(g, [BranchDatum(b, -cmath.sqrt(b - c))])
    trace, status = run_until(run)
    assert status.kind == "candidate_puncture"
    alpha = status.puncture
    assert abs(alpha + 0.83929) < 1e-5
    cls = classify_run(trace, g, run.punctures, tol=run.tol)
    assert cls.verdict == "obstructed" and cls.puncture == alpha
    _, mult = g.evaluate_with_derivative(alpha)
    assert abs(cls.rate_estimate * abs(mult) - 1.0) < 1e-3


def test_run_anchored_at_infinity():
    # h(w) = w^2 / (4w + 1) is z^2 - 2 conjugated by w = 1/(z - 2), so its
    # repelling fixed puncture sits at oo and the run anchors there; the
    # positions are the chebyshev orbit from 0 in that chart
    h = RationalMap([0, 0, 1], [1, 4])
    run = init_run(h, [BranchDatum(-0.5, 1 / (math.sqrt(2) - 2))])
    assert run.punctures.labels == ("p0", "p1", "p2")
    assert run.punctures.points[:2] == (-0.25, 0)
    assert is_inf(run.punctures.points[2])
    trace, status = run_until(run)
    assert (status.kind, status.puncture_label, status.steps) == \
        ("candidate_puncture", "p2", 15)
    track = run.marked[0]
    assert track.mode == "anchored" and track.anchor.label == "p2"
    xs = scalar_orbit(0.0, run.n)
    for n in range(run.n + 1):
        assert chordal(materialized(run, track, n), 1 / (xs[n] - 2)) < 1e-14
    cls = classify_run(trace, h, run.punctures, tol=run.tol)
    assert cls.verdict == "obstructed" and is_inf(cls.puncture)
    assert abs(cls.rate_estimate - 0.25) < 1e-3


def test_step_bound_monotone_with_slack():
    # assertable shadow of the 1-Lipschitz property: the per-step upper
    # bounds are non-increasing up to 5% numerical slack
    for g, datum, extra in (
            (CHEB, BranchDatum(0.0, math.sqrt(2)), ()),
            (BASILICA, BranchDatum(-0.6, -math.sqrt(0.4)), ()),
            (SQUARE, BranchDatum(0.5, math.sqrt(0.5)), (1.0,))):
        run = init_run(g, [datum], extra_punctures=extra)
        for _ in range(40):
            run.pullback_step()
        bounds = [teich_step_bound(run, n) for n in range(1, 41)]
        for a, b in zip(bounds, bounds[1:]):
            assert b <= a * 1.05


def test_teich_step_bound_first_step_window():
    run = cheb_run()
    run.pullback_step()
    d0 = run.d0_bound()
    assert 1.0 <= d0 <= 1.6


def test_collision_detected_on_merging_marked_points():
    # two fixed marked points driven into the same puncture with the same
    # branch data collide (relative separation below eps_sep eventually);
    # here we force it immediately with nearly identical basepoints
    with pytest.raises(CollisionDetected):
        init_run(CHEB, [BranchDatum(0.0, math.sqrt(2)),
                        BranchDatum(1e-12, math.sqrt(2 + 1e-12))])


def test_collision_messages_and_pairs():
    # punctures of z^2 - 2: p0 = -2, p1 = 2 (the repelling anchor), p2 = oo
    def collision(run):
        with pytest.raises(CollisionDetected) as info:
            run._check_distinct()
        return str(info.value), info.value.pair

    # a free point on a puncture
    run = cheb_run()
    run.marked[0].history[-1] = ("free", 2.0)
    assert collision(run) == ("positions p1 and m0 closer than eps_sep",
                              ("p1", "m0"))

    def two_point_run():
        return init_run(CHEB, [BranchDatum(0.0, math.sqrt(2)),
                               BranchDatum(0.5, math.sqrt(2.5))])

    # two free points
    run = two_point_run()
    run.marked[1].history[-1] = ("free", 0.0)
    assert collision(run) == ("positions m0 and m1 closer than eps_sep",
                              ("m0", "m1"))

    def anchor_both(run, eta0, eta1):
        for track, eta in zip(run.marked, (eta0, eta1)):
            track.anchor = run._anchors[1]
            track.history[-1] = ("anchored", eta)

    # two tracks at the same anchor, merged
    run = two_point_run()
    anchor_both(run, ScaledComplex(1e-3), ScaledComplex(1e-3))
    assert collision(run) == ("marked points m0, m1 merged", ("m0", "m1"))
    # ... and relatively close, although not merged
    run = two_point_run()
    anchor_both(run, ScaledComplex(1e-3), ScaledComplex(1e-3 * (1 + 1e-12)))
    assert collision(run) == (
        "marked points m0, m1 closer than eps_sep relative", ("m0", "m1"))
    # opposite deviations far below double range stay apart in the chart,
    # although both positions materialize to the anchor itself
    run = two_point_run()
    anchor_both(run, ScaledComplex(1.0, -2000), ScaledComplex(-1.0, -2000))
    assert run.marked[0].position() == run.marked[1].position() == 2.0
    run._check_distinct()


def _deep_runs():
    """Seeded z^2 - 2 and z^2 runs whose marked point falls into the
    repelling puncture 2 (resp. 1) on the positive branch."""
    rng = random.Random(20240611)
    for _ in range(2):
        b = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        yield init_run(CHEB, [BranchDatum(b, cmath.sqrt(b + 2))])
        b = complex(rng.uniform(0.3, 0.7), rng.uniform(-0.3, 0.3))
        yield init_run(SQUARE, [BranchDatum(b, cmath.sqrt(b))],
                       extra_punctures=[1.0])


def test_cached_record_values_match_their_formulas():
    # the values a step keeps instead of recomputing (node count, the
    # anchored step residual, distances from an anchor to the other
    # punctures) equal their formulas at every step, through anchoring
    # and past the end of double range
    for run in _deep_runs():
        track = run.marked[0]
        for _ in range(1100):
            run.pullback_step()
            rec = run.trace_record()
            assert rec["path_nodes"] == \
                1 + sum(len(b) - 1 for b in track.blocks) == \
                len(track.full_path())
            (mode_old, old), (mode_new, new) = track.history[-2:]
            if mode_new == "anchored":
                chart = track.anchor.chart
                if mode_old == "free":
                    old = chart.deviation_of(old)
                residual = chart.step_residual(old, new)
            else:
                residual = chordal(run.g(new), old)
            assert rec["diagram_residual"] == residual
            for j, (lab, p) in enumerate(run.punctures):
                if track.anchor is None:
                    want = math.log10(max(chordal(track.position(), p), 1e-300))
                elif track.anchor.index == j:
                    want = track.anchor.chart.log10_dist_to_anchor(track.eta())
                else:
                    want = math.log10(max(chordal(track.anchor.puncture, p),
                                          1e-300))
                assert rec["points"]["m0"]["dist_log10"][lab] == want
                assert run.dist_log10(track, lab) == want
        assert track.mode == "anchored" and track.eta().log2_abs() < -1074


def test_trace_records_shape():
    run = cheb_run()
    trace, status = run_until(run, max_iters=50)
    rec = trace.records[5]
    assert rec["n"] == 5
    entry = rec["points"]["m0"]
    assert entry["type"] == "fixed"
    assert set(entry["dist_log10"]) == {"p0", "p1", "p2"}
    lines = list(trace.jsonl_lines())
    assert len(lines) == len(trace.records)


def test_tolerances_validation():
    tol = Tolerances(eps_P=1e-7, max_iters=100)
    assert tol.eps_P == 1e-7 and tol.max_iters == 100
    assert Tolerances.__slots__ == ("eps_P", "max_iters")
    with pytest.raises(ValueError):
        Tolerances(nonsense=1.0)
    # an integral float is a step cap; an artifact writes it as an int
    assert type(Tolerances(max_iters=40.0).max_iters) is int
    # an int beyond double range is a cap too, not an OverflowError
    assert Tolerances(max_iters=10 ** 400).max_iters == 10 ** 400
    for name, value in (("eps_P", -1.0), ("eps_P", 0.0), ("eps_P", math.nan),
                        ("eps_P", math.inf), ("max_iters", 2.7),
                        ("max_iters", math.inf), ("max_iters", -1)):
        with pytest.raises(ValueError, match="tolerance %s=" % name):
            Tolerances(**{name: value})
    # the other tolerances are fixed: the engine's value is accepted, as a
    # stored artifact gives it, and any other refused by name
    assert Tolerances(eps_sep=1e-9, K=5.0).to_json() == \
        Tolerances().to_json()
    with pytest.raises(ValueError, match="tolerance eps_sep=0.001: a run"):
        Tolerances(eps_sep=1e-3)
    # artifacts still record all 13, at the values runs have always used
    assert Tolerances(eps_P=1e-7, max_iters=100).to_json() == {
        "eps_sep": 1e-9, "eps_lift": 1e-9, "eps_cv": 1e-6,
        "eps_clear": 1e-8, "eps_conv": 1e-10, "eps_P": 1e-7,
        "eps_fix": 1e-9, "K": 5, "max_iters": 100, "eta": 0.25,
        "max_depth": 40, "max_orbit": 200, "eps_cycle": 1e-6}
    assert all(type(value) is int
               for name, value in Tolerances().to_json().items()
               if name in ("K", "max_iters", "max_depth", "max_orbit"))


def test_uncertified_step_bound_on_coordinate_crossing():
    # the fixed coordinate's reference path [0, sqrt(2)] passes through the
    # trivial point's start 0.5: the sequential-move decomposition leaves
    # configuration space there, so the engine refuses to certify that
    # step's bound instead of reporting a capped divergent integral
    from pullbacklab.errors import NoApplicableComparison
    spec = TrivialMarkedSpec(-2.0, 0.0, start=0.5)
    run = init_run(CHEB, [BranchDatum(0.0, math.sqrt(2))], trivial=[spec])
    run.pullback_step()
    assert run.trace_record()["step_bound"] is None
    with pytest.raises(NoApplicableComparison):
        teich_step_bound(run, 1)
    # an off-axis start keeps every bound certified
    clean = init_run(CHEB, [BranchDatum(0.0, math.sqrt(2))],
                     trivial=[TrivialMarkedSpec(-2.0, 0.0, start=0.4j)])
    clean.pullback_step()
    assert clean.trace_record()["step_bound"] > 0


DEMO_CONFIGS = sorted(glob.glob(os.path.join(
    os.path.dirname(pullbacklab.__file__), "demo_configs", "*.json")))


def _finished_runs():
    """The corpus configs run as ``cli run`` runs them (certification tail
    included), a run whose first step crosses a trivial point, and a k = 2
    chebyshev run with a trivial point."""
    for path in DEMO_CONFIGS:
        run = _build_run(load_config(path))
        trace, _ = run_until(run)
        cls = classify_run(trace, run.g, run.punctures, tol=run.tol)
        if cls.verdict == "obstructed":
            certify_obstructed(run, records=trace.records)
        yield os.path.basename(path), run, trace.records
    for name, start in (("crossing", 0.5), ("k2_trivial", 0.4j)):
        run = init_run(CHEB, [BranchDatum(0.0, math.sqrt(2))],
                       trivial=[TrivialMarkedSpec(-2.0, 0.0, start=start)])
        trace, _ = run_until(run, max_iters=60)
        yield name, run, trace.records


def test_past_step_bounds_do_not_drift():
    # a step's bound recomputed on the finished run is the one its record
    # stored when the step was taken, bit for bit
    uncertified = set()
    for name, run, records in _finished_runs():
        assert records[-1]["n"] == run.n
        for rec in records[1:]:
            try:
                again = teich_step_bound(run, rec["n"])
            except NoApplicableComparison:
                again = None
                uncertified.add(name)
            stored = rec["step_bound"]
            assert (stored is None) == (again is None), (name, rec["n"])
            assert stored is None or stored.hex() == again.hex(), \
                (name, rec["n"])
    assert uncertified == {"crossing"}


def test_two_points_anchored_at_one_puncture_step_without_error():
    # both points fall into the puncture 2; once the other point sits on
    # it, the comparison disk around the anchor is empty, and the step has
    # no certified bound rather than a math domain error
    run = init_run(CHEB, [BranchDatum(0, math.sqrt(2)),
                          BranchDatum(0.5 + 0.3j, cmath.sqrt(2.5 + 0.3j))])
    bounds = []
    for _ in range(600):
        run.pullback_step()
        bounds.append(run.trace_record()["step_bound"])
    assert [t.mode for t in run.marked] == ["anchored", "anchored"]
    assert all(b is not None for b in bounds[:3])
    assert all(b is None for b in bounds[3:])


def test_compose_iterate_checks_delta_before_lifting():
    # delta ends at 1, not at b' = sqrt(2): the iterate run rejects the
    # datum as the plain run does, before lifting delta through g
    datum = BranchDatum(0.0, math.sqrt(2), Path([0.0, 1.0]))
    for m in (1, 2):
        with pytest.raises(InvalidBranchDatum,
                           match="delta must run from b to b'"):
            compose_iterate_run(CHEB, m, datum)


def _reference_anchored_step_bound(R, eta_a, eta_b):
    # the bound as first written: both logs and log R taken on every call
    if not R > 0:
        raise NoApplicableComparison("empty comparison disk")
    ln2 = math.log(2.0)
    la = math.log(abs(eta_a.m)) + eta_a.e * ln2
    lb = math.log(abs(eta_b.m)) + eta_b.e * ln2
    lR = math.log(R)
    if la >= lR or lb >= lR:
        raise NoApplicableComparison("deviation outside the comparison disk")
    dtheta = abs(cmath.phase(eta_b.m / eta_a.m))
    arc = dtheta / max(lR - la, lR - lb)
    return (arc + punctured_disk_radial_bound(R, la, lb)) * 1.01


def _reference_log10_row(run, track):
    # the row as first written: one dict built per point and step
    anchor = track.anchor
    if anchor is None:
        x = track.position()
        return {lab: math.log10(max(chordal(x, p), 1e-300))
                for lab, p in run.punctures}
    eta = track.eta()
    own = math.log10(anchor.chart.chordal_factor) + \
        (math.log2(abs(eta.m)) + eta.e) / math.log2(10.0)
    return {lab: own if j == anchor.index else
            math.log10(max(chordal(anchor.puncture, p), 1e-300))
            for j, (lab, p) in enumerate(run.punctures)}


def _reference_min_dist_log10(points, labels):
    rows = [entry["dist_log10"] for entry in points.values()]
    return {lab: min([row[lab] for row in rows]) for lab in labels}


def _hex_items(row):
    return [(lab, d.hex()) for lab, d in row.items()]


def _outcome(bound, *args):
    try:
        return bound(*args).hex()
    except NoApplicableComparison as exc:
        return "raised: %s" % exc


def _reference_runs():
    """(name, run, steps): the demo configs, the alpha-map run, two points
    anchored at one puncture, and a trivial point beside an anchored one."""
    configs = os.path.join(os.path.dirname(pullbacklab.__file__),
                           "demo_configs", "*.json")
    for path in sorted(glob.glob(configs)):
        yield os.path.basename(path), _build_run(load_config(path)), 120
    c, b = -1.5436890126920764, 0.3 + 0.2j
    yield "alpha", init_run(RationalMap([c, 0, 1]),
                            [BranchDatum(b, -cmath.sqrt(b - c))]), 1500
    yield "two anchored", init_run(
        CHEB, [BranchDatum(0, math.sqrt(2)),
               BranchDatum(0.5 + 0.3j, cmath.sqrt(2.5 + 0.3j))]), 600
    yield "trivial", init_run(
        CHEB, [BranchDatum(0.0, math.sqrt(2))],
        trivial=[TrivialMarkedSpec(-2.0, 0.0, start=0.5)]), 600


def test_step_record_numbers_match_their_reference_formulas(monkeypatch):
    # each deviation keeps its logs and each anchored row starts from its
    # anchor's template: the step bounds, log10 rows and minima equal the
    # formulas evaluated afresh, bit for bit and in the same key order
    bound = hyperbolic.anchored_step_bound
    outcomes = []

    def spy(R, eta_a, eta_b):
        outcomes.append((_outcome(bound, R, eta_a, eta_b),
                         _outcome(_reference_anchored_step_bound,
                                  R, eta_a, eta_b)))
        return bound(R, eta_a, eta_b)
    monkeypatch.setattr(hyperbolic, "anchored_step_bound", spy)
    deep = set()
    for name, run, steps in _reference_runs():
        for _ in range(steps):
            run.pullback_step()
            rec = run.trace_record()
            for track in run._tracks:
                want = _hex_items(_reference_log10_row(run, track))
                assert _hex_items(run.log10_distances(track)) == want, name
                assert _hex_items(rec["points"][track.label]["dist_log10"]) \
                    == want, name
            assert _hex_items(rec["min_dist_log10"]) == _hex_items(
                _reference_min_dist_log10(rec["points"],
                                          run.punctures.labels)), name
        if run.marked[0].anchor is not None and \
                run.marked[0].eta().log2_abs() < -1074:
            deep.add(name)
    assert all(got == want for got, want in outcomes)
    assert any(got.startswith("raised") for got, _ in outcomes)
    assert {"alpha", "two anchored", "trivial"} <= deep
