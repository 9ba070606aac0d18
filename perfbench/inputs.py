"""Seeded inputs for the benchmark workloads.

Everything the engine sees is built here from the seed alone: polynomial
coefficients, extra punctures, basepoints and branch choices. Branch
points come from closed forms (z^d: a d-th root; Dickson T_d: the
substitution z = u + 1/u, under which T_d(z) = u^d + u^-d), so no engine
code runs while inputs are made. The same seed gives the same inputs;
``digest`` shows it.
"""

import cmath
import hashlib
import json
import math
import random

MAP_DEGREES = range(2, 9)
ROOT_SETS = (1, 2, 3)            # m-th roots of unity as extra punctures

# clearance of generated branch data from the punctures
BASE_CLEAR = 0.1
SEGMENT_CLEAR = 0.05
STRATUM_TRIES = 50
TOTAL_TRIES = 5000


def dickson(d):
    """Coefficients (low to high) of T_d, T_0 = 2, T_1 = z,
    T_{d+1} = z T_d - T_{d-1}; T_d(u + 1/u) = u^d + u^-d."""
    prev, cur = [2.0], [0.0, 1.0]
    for _ in range(d - 1):
        shifted = [0.0] + cur
        prev = prev + [0.0] * (len(shifted) - len(prev))
        prev, cur = cur, [a - b for a, b in zip(shifted, prev)]
    return cur


def power(d):
    return [0.0] * d + [1.0]


def roots_of_unity(m):
    return [cmath.exp(2j * math.pi * k / m) for k in range(m)]


def dickson_branch(b, d, j):
    """The j-th preimage of b under T_d."""
    w = (b + cmath.sqrt(b * b - 4.0)) / 2.0
    u = w ** (1.0 / d) * cmath.exp(2j * math.pi * j / d)
    return u + 1.0 / u


def power_branch(b, d, j):
    """The j-th preimage of b under z^d."""
    return abs(b) ** (1.0 / d) * cmath.exp(1j * (cmath.phase(b) + 2 * math.pi * j) / d)


def _segment_distance(a, b, q):
    ab = b - a
    t = max(0.0, min(1.0, ((q - a) * ab.conjugate()).real / abs(ab) ** 2))
    return abs(a + t * ab - q)


def _clear(b, bp, punctures):
    return (abs(b - bp) > 1e-3
            and min(abs(b - p) for p in punctures) > BASE_CLEAR
            and min(abs(bp - p) for p in punctures) > SEGMENT_CLEAR
            and min(_segment_distance(b, bp, p) for p in punctures) > SEGMENT_CLEAR)


def _branch_datum(rng, draw, branch, punctures):
    """Draw basepoints (first from the case's stratum, then anywhere) until
    the straight reference path to the chosen preimage clears the punctures."""
    for attempt in range(TOTAL_TRIES):
        b = draw(attempt < STRATUM_TRIES)
        bp = branch(b)
        if _clear(b, bp, punctures):
            return b, bp
    raise RuntimeError("no clear branch datum found")


def _pt(z):
    return [z.real, z.imag]


def generated_cases(seed):
    """Postsingularly finite maps with random branch data.

    Dickson T_d (P = {-2, 2, oo}, k = 1) and z^d with the m-th roots of
    unity as extra punctures (P = {0, oo} + roots, k = m), d = 2..8. Each
    map gets one case per branch j of its d preimages; basepoints are
    stratified (real part for T_d, argument for z^d) so that every seed
    covers the plane alike and per-pass cost varies little between seeds,
    and the pairing of strata with branches is shuffled by the seed."""
    rng = random.Random(seed)
    cases = []
    for d in MAP_DEGREES:
        for stratum, j in enumerate(rng.sample(range(d), d)):
            def draw(in_stratum, d=d, stratum=stratum):
                cell = stratum if in_stratum else rng.randrange(d)
                x = -1.8 + 3.6 * (cell + rng.random()) / d
                return complex(x, rng.uniform(-1.0, 1.0))
            b, bp = _branch_datum(rng, draw,
                                  lambda b, d=d, j=j: dickson_branch(b, d, j),
                                  [-2.0, 2.0])
            cases.append({"name": "T%d.b%d" % (d, j), "numerator": dickson(d),
                          "extra": [], "basepoint": _pt(b),
                          "branch_point": _pt(bp)})
    for d in MAP_DEGREES:
        for m in ROOT_SETS:
            roots = roots_of_unity(m)
            for stratum, j in enumerate(rng.sample(range(d), d)):
                def draw(in_stratum, d=d, stratum=stratum):
                    cell = stratum if in_stratum else rng.randrange(d)
                    theta = -math.pi + 2 * math.pi * (cell + rng.random()) / d
                    return rng.uniform(0.2, 0.95) * cmath.exp(1j * theta)
                b, bp = _branch_datum(rng, draw,
                                      lambda b, d=d, j=j: power_branch(b, d, j),
                                      [0j] + roots)
                cases.append({"name": "z%d.m%d.b%d" % (d, m, j),
                              "numerator": power(d),
                              "extra": [_pt(r) for r in roots],
                              "basepoint": _pt(b), "branch_point": _pt(bp)})
    return cases


def _jitter(rng, centre, radius):
    r = radius * math.sqrt(rng.random())
    return centre + r * cmath.exp(2j * math.pi * rng.random())


def deep_anchor_cases(seed):
    """Three obstructed runs, basepoints jittered around known obstructed
    data: z^2 - 2 (rate 1/4 into 2), z^2 with puncture 1 (rate 1/2 into 1)
    and the m = 2 iterate of z^2 - 2 (rate 1/16 into 2)."""
    rng = random.Random(seed)
    cheb = dickson(2)
    out = []
    for name, numerator, extra, centre, iterate, rate in (
            ("chebyshev", cheb, [], 0j, 1, 0.25),
            ("squaring", power(2), [1.0], 0.5 + 0.25j, 1, 0.5),
            ("iterate2", cheb, [], 0j, 2, 0.0625)):
        b = _jitter(rng, centre, 0.1)
        bp = cmath.sqrt(b + 2.0) if numerator is cheb else cmath.sqrt(b)
        out.append({"name": name, "numerator": numerator,
                    "extra": [_pt(complex(z)) for z in extra],
                    "basepoint": _pt(b), "branch_point": _pt(bp),
                    "compose_iterate": iterate, "rate": rate})
    return out


def cert_search_cases(seed, per_set):
    """z^2 with extra punctures {1, -1} (k = 2) and {1, -1, i} (k = 3).

    Basepoints are jittered around 0.6 + 0.1i, where the first-step bound
    keeps the certificate threshold (at most about 64 for k = 3) inside the
    double-range chart, so every attempt past a pre-roll of 700 steps
    (annulus modulus about 77) reaches the injectivity test."""
    rng = random.Random(seed)
    out = []
    for extra in ([1.0, -1.0], [1.0, -1.0, 1j]):
        for i in range(per_set):
            b = _jitter(rng, 0.6 + 0.1j, 0.05)
            out.append({"name": "k%d.%d" % (len(extra), i),
                        "numerator": power(2),
                        "extra": [_pt(complex(z)) for z in extra],
                        "basepoint": _pt(b), "branch_point": _pt(cmath.sqrt(b))})
    return out


def corpus_order(seed, names):
    """The shipped configs are fixed inputs; the seed only sets their order."""
    order = sorted(names)
    random.Random(seed).shuffle(order)
    return order


def digest(obj):
    """SHA-256 of the canonical JSON form of the inputs."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
