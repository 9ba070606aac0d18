"""Classification of pullback runs per the unit-disk dichotomy, and
emission/verification of quantitative Levy-multicurve certificates.

A certificate witnesses the short-geodesic pigeonhole: a round annulus
separating a collapsing cluster from the rest of the marked configuration,
whose modulus exceeds (k+4) pi e^{k d0} / ell* for an upper bound d0 of the
first Teichmueller step. Emission additionally records injectivity
evidence for the k-fold forward advance of the annulus and the chain of
degree-1 inverse lifts of its core curve. All checks are floating point:
certificates are numerical evidence, with every tolerance embedded.

Emission and ``verify_certificate`` derive a certificate the same way:
``_derive_certificate`` computes every field from the run, the step and
the annulus (the step configuration from ``PullbackRun.step_points``,
charted by ``_step_chart_entries``; the product (k+4) pi e^{k d0} from
``_threshold_product(run)``, its one definition, which the emission
floor and clustering scale read too) and returns the messages of the
conditions that fail (``_annulus_faults``, ``_curve_faults``). Emission finds the
annulus by clustering the step configuration (``_log_euclid_dist``);
verification takes the stored one and compares each stored field with
the derived one.
"""

import math
import operator
import reprlib

from .errors import (InjectivityUndetermined, NoSeparatingAnnulus,
                     PullbackLabError)
from .fiber import EPS_FIX, step_until
from .hyperbolic import ELL_STAR, RoundAnnulus, annulus_modulus
from .lifting import EPS_CV, Path, lift_closed_curve, _newton_preimage
from .ratmap import is_repelling
from .sphere import chordal, encode_point, is_inf, json_float, json_typed

TWO_PI = 2.0 * math.pi
_LN2 = math.log(2.0)
N_SAMP = 512        # boundary sampling for the injectivity test
N_CURVE = 256       # node count of stored representative curves
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
        self.certificate = fields.get("certificate")
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
            "certificate": (self.certificate.to_json()
                            if self.certificate is not None else None),
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
    records with these ``punctures`` and ``tol``. For a realized candidate,
    that rule has already required every fixed marked point of the final
    record to be free and more than 10 eps_P from every puncture: the
    stopping rule applies eps_P, and neither argument is read here."""
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
        gp, mult = g.evaluate_with_derivative(p)
        if chordal(gp, p) >= EPS_FIX:
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
    complement points. ``anchor`` is the translated chart the points live
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
# numpy is imported inside each function that uses it: only certificate
# geometry needs it, so runs that never build or check a certificate do not
# pay for loading it.

def _circle(center, radius, n):
    import numpy as np
    th = np.linspace(0.0, TWO_PI, n + 1)
    return center + radius * np.exp(1j * th)


def _horner(coeffs, zr, zi):
    """Real and imaginary parts of ``ratmap._peval`` on arrays, replaying
    CPython's ``acc * z + c`` one rounded operation at a time."""
    import numpy as np
    ar = np.zeros_like(zr)
    ai = np.zeros_like(zr)
    for c in reversed(coeffs):
        ar, ai = ar * zr - ai * zi + c.real, ar * zi + ai * zr + c.imag
    return ar, ai


def _apply_map(gm, zs):
    """gm on every sample, bit-for-bit equal to ``gm(z)`` per sample: real
    Horner plus CPython's complex division (Smith's method, as
    ``_Py_c_quot``). numpy's complex arithmetic may round differently."""
    import numpy as np
    zr, zi = zs.real, zs.imag
    nr, ni = _horner(gm.numerator, zr, zi)
    dr, di = _horner(gm.denominator, zr, zi)
    with np.errstate(all="ignore"):
        by_real = np.abs(dr) >= np.abs(di)
        ratio = np.where(by_real, di / dr, dr / di)
        denom = np.where(by_real, dr + di * ratio, dr * ratio + di)
        wr = np.where(by_real, nr + ni * ratio, nr * ratio + ni) / denom
        wi = np.where(by_real, ni - nr * ratio, ni * ratio - nr) / denom
        pole = (dr == 0) & (di == 0)
        # np.hypot only preselects; abs(complex) decides as gm's caller did
        far = np.flatnonzero(np.hypot(wr, wi) > 0.5e12)
    if np.any(pole) or not (np.all(np.isfinite(wr)) and
                            np.all(np.isfinite(wi))) or \
            any(abs(complex(wr[i], wi[i])) > 1e12 for i in far):
        raise InjectivityUndetermined(
            "tracked boundary image leaves the working chart")
    out = np.empty(len(zs), dtype=complex)
    out.real = wr
    out.imag = wi
    return out


def _winding(zs, q):
    import numpy as np
    rel = zs - q
    if np.any(rel == 0):
        return None
    ang = np.angle(rel[1:] / rel[:-1])
    return int(round(float(np.sum(ang)) / TWO_PI))


def _closed_winding(curve, q):
    """Winding number around q of a Path closed by joining its last node
    to its first; None when q is a node."""
    import numpy as np
    return _winding(np.array(curve.nodes + (curve.nodes[0],)), q)


def _poly_min_dist(zs, q):
    import numpy as np
    a, b = zs[:-1], zs[1:]
    d = b - a
    L2 = (d * d.conjugate()).real
    t = np.zeros_like(L2)
    mask = L2 > 0
    t[mask] = ((q - a[mask]) * d[mask].conjugate()).real / L2[mask]
    t = np.clip(t, 0.0, 1.0)
    proj = a + t * d
    return float(np.min(np.abs(proj - q)))


def _cross(u, v):
    return u.real * v.imag - u.imag * v.real


def _segments_intersect_any(z1, z2, skip_adjacent):
    """Any proper crossing or collinear overlap between segment families.

    Only pairs whose x- and y-boxes overlap (family 1 padded by
    1e-12 scale) are evaluated: family 2 is sorted by left x-edge, and for
    each family-1 segment a binary search bounds the window of family-2
    segments that start before its right edge and whose running maximum
    right edge reaches its left edge (Shamos-Hoey box sweep). Two segments
    with disjoint boxes can neither cross nor overlap, and the collinear
    test already required overlapping boxes; the predicate on the kept
    pairs is unchanged. So the verdict is that of testing all pairs, save
    one rounding artefact it no longer reports: a "crossing" of two
    box-disjoint segments so nearly collinear that the signs of their
    cross products are rounding noise. Work is (n + m) log m plus the
    kept windows, at most the n m of testing all pairs (long segments
    widen the windows)."""
    import numpy as np
    a, b = z1[:-1], z1[1:]
    c, d = z2[:-1], z2[1:]
    n = len(a)
    scale = max(float(np.max(np.abs(b - a))), float(np.max(np.abs(d - c))), 1e-300)
    eps = (1e-10 * scale) ** 2
    pad = 1e-12 * scale
    lo1 = np.minimum(a.real, b.real) - pad
    hi1 = np.maximum(a.real, b.real) + pad
    lo2 = np.minimum(c.real, d.real)
    hi2 = np.maximum(c.real, d.real)

    order = np.argsort(lo2, kind="stable")
    reach = np.maximum.accumulate(hi2[order])
    start = np.searchsorted(reach, lo1, side="left")
    stop = np.searchsorted(lo2[order], hi1, side="right")
    count = np.maximum(stop - start, 0)
    i = np.repeat(np.arange(n), count)
    offset = np.repeat(start - (np.cumsum(count) - count), count)
    j = order[offset + np.arange(len(i))]

    lo1i = np.minimum(a.imag, b.imag) - pad
    hi1i = np.maximum(a.imag, b.imag) + pad
    lo2i = np.minimum(c.imag, d.imag)
    hi2i = np.maximum(c.imag, d.imag)
    keep = (lo1[i] <= hi2[j]) & (lo2[j] <= hi1[i]) & \
           (lo1i[i] <= hi2i[j]) & (lo2i[j] <= hi1i[i])
    if skip_adjacent:
        gap = np.abs(i - j)
        keep &= (gap > 1) & (gap != n - 1)
    i, j = i[keep], j[keep]

    A, B, C, D = a[i], b[i], c[j], d[j]
    d1 = _cross(D - C, A - C)
    d2 = _cross(D - C, B - C)
    d3 = _cross(B - A, C - A)
    d4 = _cross(B - A, D - A)
    proper = ((d1 * d2) < 0) & ((d3 * d4) < 0)
    collinear = (np.abs(d1) < eps) & (np.abs(d2) < eps) & \
                (np.abs(d3) < eps) & (np.abs(d4) < eps)
    return bool(np.any(proper | collinear))


def injectivity_test(g, annulus, k):
    """Conservative sufficient evidence that g^{ok} is injective on the
    annulus: for each forward stage, no critical point inside the tracked
    region (with clearance), simple and mutually disjoint boundary images,
    and a degree-1 closing inverse lift of the core curve.

    Boundary images are computed on all samples at once, bit-for-bit
    equal to evaluating the map sample by sample (``_apply_map``).
    Simplicity and disjointness are decided by ``_segments_intersect_any``
    on the segment pairs whose bounding boxes touch, found by a sweep
    over sorted x-edges, instead of on all n^2 pairs.

    Raises InjectivityUndetermined on any failed check (which is not a
    proof of non-injectivity)."""
    anchor = annulus.anchor
    gm, crit = g.chart(anchor)
    inner = _circle(annulus.center, annulus.r_in, N_SAMP)
    outer = _circle(annulus.center, annulus.r_out, N_SAMP)
    core = _circle(annulus.center, annulus.core_radius(), N_SAMP)
    stages = []
    for j in range(k):
        clear = math.inf
        for c in crit:
            w_out = _winding(outer, c)
            w_in = _winding(inner, c)
            if w_out is None or w_in is None:
                raise InjectivityUndetermined("critical point on a boundary")
            if w_out != 0 and w_in == 0:
                raise InjectivityUndetermined(
                    "critical point %r inside tracked region at stage %d"
                    % (c, j))
            clear = min(clear, _poly_min_dist(inner, c),
                        _poly_min_dist(outer, c))
        if not clear > EPS_CV:
            raise InjectivityUndetermined(
                "critical clearance %.3g at stage %d" % (clear, j))
        img_inner = _apply_map(gm, inner)
        img_outer = _apply_map(gm, outer)
        img_core = _apply_map(gm, core)
        for side, img in (("inner", img_inner), ("outer", img_outer)):
            if _segments_intersect_any(img, img, skip_adjacent=True):
                raise InjectivityUndetermined(
                    "%s boundary image not simple at stage %d" % (side, j))
        if _segments_intersect_any(img_inner, img_outer, skip_adjacent=False):
            raise InjectivityUndetermined(
                "boundary images intersect at stage %d" % j)
        loop = Path(img_core.tolist(), anchor=anchor)
        res, closes = lift_closed_curve(g, loop, complex(core[0]),
                                        check_clearance=False)
        if not closes:
            raise InjectivityUndetermined(
                "core-curve inverse lift has monodromy at stage %d" % j)
        stages.append({
            "stage": j,
            "critical_clearance": clear if math.isfinite(clear) else None,
            "boundaries_simple": True,
            "boundaries_disjoint": True,
            "core_lift_residual": res.max_residual,
        })
        inner, outer, core = img_inner, img_outer, img_core
    return {"samples": N_SAMP, "stages": stages, "k": k}


# ---------------------------------------------------------------------------
# certificates

class LevyCertificate:
    """Quantitative witness of a degenerate Levy multicurve, built from one
    separating annulus at one recorded step of an obstructed run; every
    other field is one ``_derive_certificate`` derives from those two."""

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
        obj["representative_curves"] = [c.to_json()
                                        for c in self.representative_curves]
        obj["cluster_labels"] = list(self.cluster_labels)
        obj["curve_windings"] = list(self.curve_windings)
        obj["curve_enclosed_labels"] = [list(t)
                                        for t in self.curve_enclosed_labels]
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
            Path.from_json(c, "representative_curves[%d]" % i)
            for i, c in enumerate(curves))
        cert.cluster_labels = tuple(
            json_typed(obj["cluster_labels"], list, "cluster_labels", str))
        cert.curve_windings = tuple(
            json_typed(obj["curve_windings"], list, "curve_windings"))
        cert.curve_enclosed_labels = tuple(
            tuple(json_typed(t, list, "curve_enclosed_labels item", str))
            for t in json_typed(obj["curve_enclosed_labels"], list,
                                "curve_enclosed_labels"))
        cert.engine_version = obj.get("engine_version", "")
        cert.tolerances = json_typed(obj.get("tolerances", {}), dict,
                                     "tolerances")
        cert.trace_digest = obj.get("trace_digest")
        return cert


def _threshold_product(run):
    """(k + 4) pi e^{k d0} for the run's k and first-step bound d0
    (``PullbackRun.d0_bound``): divided by ell* it is the modulus
    threshold, divided by an annulus modulus the length bound of the core
    geodesic."""
    k = run.k
    return (k + 4) * math.pi * math.exp(k * run.d0_bound())


def _annulus_faults(modulus, threshold, counts, ring):
    """Messages of the annulus conditions that fail: modulus above the
    threshold, no configuration point in the ring, at least two points of
    A on each side, at most one point of B inside."""
    inner_A, inner_B, outer_A, _ = counts
    faults = [] if modulus > threshold else ["modulus does not exceed threshold"]
    faults += ["configuration point %s inside the annulus ring" % lab
               for lab in ring]
    if not (inner_A >= 2 and outer_A >= 2):
        faults.append("essential-in-A side condition")
    if not inner_B <= 1:
        faults.append("non-essential-in-B side condition")
    return faults


def _curve_faults(windings, length_bound, enclosed, k):
    """Messages of the curve conditions that fail: each curve winds once
    around the annulus core, length bound below ell*, and at most k
    distinct enclosed-label sets (the short-curve budget: simple closed
    curves on a finitely punctured sphere are homotopic rel the marked set
    iff they separate the labels the same way)."""
    faults = ["curve %d does not wind once around the annulus core" % idx
              for idx, w in enumerate(windings) if w is None or abs(w) != 1]
    if not length_bound < ELL_STAR:
        faults.append("length bound not below ell*")
    if len(set(enclosed)) > k:
        faults.append("short-curve budget exceeded")
    return faults


def _step_chart_entries(points, shift, n):
    """(label, kind, chart position) of the step-n points (``step_points``)
    translated by ``shift``; oo maps to None (always in the outer part). An
    anchored point sits at (p - shift) + eps* + eta."""
    entries = []
    for lab, kind, z, dev in points:
        if is_inf(z):
            z = None
        elif dev is None:
            z = z - shift
        else:
            chart, eta = dev
            eta = eta.to_complex()
            if eta is None:
                raise NoSeparatingAnnulus(
                    "deviation below double range; certificate chart cannot "
                    "represent the cluster at step %d" % n)
            z = (z - shift) + chart.eps_star + eta
        entries.append((lab, kind, z))
    return entries


def _log_euclid_dist(a, b):
    """Natural-log plane distance between two ``step_points`` entries; +inf
    for pairs involving oo (a cluster at oo needs a re-chart). Two points
    anchored in one chart are compared by their deviations (-inf when they
    cancel exactly), an anchored point and its own puncture, the very z
    ``step_points`` gives it, by |eta|."""
    _, _, z1, dev1 = a
    _, _, z2, dev2 = b
    if dev1 is not None and dev2 is not None and dev1[0] is dev2[0]:
        return dev1[1].log2_dist(dev2[1]) * _LN2
    if is_inf(z1) or is_inf(z2):
        return math.inf
    if dev1 is None and dev2 is None:
        d = abs(z1 - z2)
        return math.log(d) if d > 0 else -math.inf
    if (dev1 is None or dev2 is None) and z1 == z2:
        return (dev1 or dev2)[1].log2_abs() * _LN2
    return math.log(max(abs(z1 - z2), 1e-300))


def emit_levy_certificate(run, engine_version=""):
    """Attempt certificate emission at the run's current step.

    Returns None when no cluster at the threshold scale yields a qualifying
    annulus; raises nothing on ordinary failure paths."""
    n = run.n
    if n < 1:
        raise ValueError("run has no step %d" % n)
    if run.k < 1:
        return None
    log_r_cluster = -TWO_PI * (_threshold_product(run) / ELL_STAR)
    points = run.step_points(n)

    # single-linkage clustering at the threshold scale
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if _log_euclid_dist(points[i], points[j]) <= log_r_cluster:
                parent[find(i)] = find(j)

    clusters = {}
    for i in range(len(points)):
        clusters.setdefault(find(i), []).append(points[i])

    for cluster in clusters.values():
        if len(cluster) < 2:
            continue
        cert = _try_cluster(run, n, points, cluster, engine_version)
        if cert is not None:
            return cert
    return None


def _try_cluster(run, n, points, cluster, engine_version):
    """The certificate for the annulus separating the cluster, or None when
    there is no such annulus or its derived certificate has faults."""
    # translate to the chart of the cluster's puncture (or first member)
    shift = next((z for _, kind, z, _ in cluster
                  if kind == "P" and not is_inf(z)), None)
    origin = shift if shift is not None else 0j
    try:
        entries = _step_chart_entries(points, origin, n)
        # keep the forward advance critical-point free: cap by the critical set
        annulus = find_separating_annulus(
            [(lab, z) for lab, _, z in entries],
            [lab for lab, _, _, _ in cluster],
            obstacles=run.g.chart(shift)[1], anchor=shift)
    except NoSeparatingAnnulus:
        return None
    fields, faults = _derive_certificate(run, n, annulus)
    if faults:
        return None
    return LevyCertificate(n, annulus, fields, engine_version=engine_version,
                           tolerances=run.tol.to_json())


def _derive_certificate(run, n, annulus):
    """Every certificate field for the annulus at step n of the run, as a
    dict, and the messages of the conditions they fail (``_annulus_faults``,
    ``_curve_faults``). Emission and ``verify_certificate`` both derive a
    certificate here, from the run, the step and the annulus alone. When
    the annulus conditions fail, the fields stop short of the injectivity
    evidence, so a failed emission attempt costs no forward advance."""
    k = run.k
    d0 = run.d0_bound()
    product = _threshold_product(run)
    shift = annulus.anchor if annulus.anchor is not None else 0j
    entries = _step_chart_entries(run.step_points(n), shift, n)
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
    curves = _representative_curves(run, annulus, k)
    if curves is None:
        return fields, ["core curve has no chain of %d closing degree-1 "
                        "lifts" % k]
    windings = tuple(_closed_winding(c, annulus.center) for c in curves)
    enclosed = tuple(_enclosed_labels(c, entries) for c in curves)
    length_bound = product / modulus
    fields.update(representative_curves=curves, curve_windings=windings,
                  curve_enclosed_labels=enclosed, length_bound=length_bound,
                  promotion_flag=length_bound < ELL_STAR * math.exp(-k * d0))
    return fields, _curve_faults(windings, length_bound, enclosed, k)


_COUNT_FIELDS = ("inner_count_A", "inner_count_B", "outer_count_A",
                 "outer_count_B")


def _enclosed_labels(curve, entries):
    """Sorted labels of the step configuration enclosed by a closed curve
    (same chart); oo entries are never enclosed."""
    return tuple(sorted(lab for lab, _, z in entries if z is not None and
                        _closed_winding(curve, z) not in (None, 0)))


def _representative_curves(run, annulus, k):
    """The annulus core circle plus k successive closing degree-1
    inverse-branch lifts, or None when a lift does not close."""
    anchor = annulus.anchor
    gm, _ = run.g.chart(anchor)
    core = _circle(annulus.center, annulus.core_radius(), N_CURVE)
    curves = [Path(core.tolist(), anchor=anchor)]
    for _ in range(k):
        start = complex(curves[-1].nodes[0])
        found = _newton_preimage(gm, start, start)
        if found is None:
            return None
        try:
            res, closes = lift_closed_curve(run.g, curves[-1], found[0],
                                            check_clearance=False)
        except PullbackLabError:
            return None
        if not closes:
            return None
        curves.append(res.lifted)
    return tuple(curves)


# certificate clusters and curves live in a translated double chart; below
# this scale the engine declines to emit rather than degrade silently
_EMISSION_FLOOR_LOG = math.log(1e-290)


def certify_obstructed(run, engine_version="", max_steps=None,
                       with_reason=False, records=None):
    """Step the run forward until a certificate is emitted (or the cap),
    appending each step's ``trace_record`` to ``records`` when given.

    The annulus modulus grows like log|g'(p)| / 2 pi per step, so emission
    happens within O(threshold) further steps of an obstructed run. When the
    cluster scale e^{-2 pi threshold} falls below double range the engine
    returns None immediately: the certificate chart cannot represent the
    collapsing cluster at that depth."""
    cap = run.tol.max_iters if max_steps is None else max_steps

    def attempt():
        if run.n < 1:
            return None
        try:
            threshold = _threshold_product(run) / ELL_STAR
        except PullbackLabError as exc:
            return None, "no certified first-step bound: %s" % exc
        if -TWO_PI * threshold < _EMISSION_FLOOR_LOG:
            return None, ("cluster scale exp(-2 pi * %.4g) is below the "
                          "double-range certificate chart" % threshold)
        cert = emit_levy_certificate(run, engine_version=engine_version)
        return None if cert is None else (cert, "emitted at step %d"
                                          % cert.step)

    outcome = step_until(run, attempt, cap, records) or \
        (None, "no qualifying annulus within %d steps" % cap)
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


def _same_nodes(got, want):
    """Same node count, each node within 1e-6 of want's largest |node|
    (np.exp, which draws the curves, may round differently elsewhere)."""
    import numpy as np
    scale = max(max(abs(z) for z in want.nodes), 1e-300)
    return len(got.nodes) == len(want.nodes) and bool(np.all(
        np.abs(np.subtract(got.nodes, want.nodes)) <= 1e-6 * scale))


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
    ("curve_windings", "curve windings", operator.eq),
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
    """A count mismatch, or each stored curve (node for node,
    ``_same_nodes``) and enclosed-label set that differs from the derived
    one."""
    curves, enclosed = cert.representative_curves, cert.curve_enclosed_labels
    want_curves = derived["representative_curves"]
    want_enclosed = derived["curve_enclosed_labels"]
    if len(curves) != len(want_curves) or len(enclosed) != len(want_curves):
        return ["curve count mismatch: stored %d curves and %d enclosed-label "
                "sets, derived %d" % (len(curves), len(enclosed),
                                      len(want_curves))]
    bad = ["re-lift of curve %d does not match curve %d" % (idx - 1, idx)
           if idx else "curve 0 is not the annulus core circle"
           for idx, (got, ref) in enumerate(zip(curves, want_curves))
           if not _same_nodes(ref, got)]
    return bad + ["curve %d enclosed labels mismatch: stored %r, derived %r"
                  % (idx, got, ref) for idx, (got, ref)
                  in enumerate(zip(enclosed, want_enclosed)) if got != ref]
