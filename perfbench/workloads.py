"""The four benchmark workloads.

Each workload is built from a seed, and ``run_pass`` does its fixed work
once, logging every operation's latency and outcome into a ``PassLog``.
Engine entry points are looked up on their modules at call time, so the
tracer's wrappers see the calls this file makes.

Outcomes: "ok", "defect:<label>" for a known defect of the engine (counted
in fail_ratio and its histogram), or "error:<detail>" for anything else
(an unexpected exception or a failed output check), which makes the run
incorrect.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time

from pullbacklab import certify, cli, fiber
from pullbacklab.errors import BranchJumpSuspected, InvalidBranchDatum
from pullbacklab.ratmap import RationalMap
from pullbacklab.sphere import is_inf

import inputs

# Timings are CPU seconds of this process: on a shared machine the wall
# clock also counts the time the process waits for a core, which other
# load sets (next to two busy processes, generated runs spread 0.36-0.43
# in wall time and 0.03-0.05 in CPU time).
clock = time.process_time

DEFECT_BRANCH_JUMP = "BranchJumpSuspected: local inverse Newton did not converge"
DEFECT_CYCLIC_PUNCTURES = "InvalidBranchDatum: cyclic extra punctures rejected"
DEFECT_EMISSION_FLOOR = "certificate declined below the 1e-290 floor"
DEFECT_BUDGET = "certify_obstructed exhausted its step budget"


class PassLog:
    """What one pass did, in order: per-op latency (CPU seconds) and
    outcome, engine work outside any op (``work``: pre-rolls), and pullback
    steps. Output checks are not timed."""

    def __init__(self):
        self.ops = []
        self.parts = []
        self.work = []
        self.steps = 0
        self.cert_s = []
        self.check_s = []
        self.bytes_written = 0

    def op(self, seconds, outcome="ok", parts=None):
        """Log one op; ``parts`` are its separately timed stretches, which
        sum to ``seconds`` (by default the op is one stretch)."""
        self.ops.append((seconds, outcome))
        self.parts.append(parts or (seconds,))


def known_defect(exc):
    """Label of a known engine defect, or None."""
    text = str(exc)
    if isinstance(exc, BranchJumpSuspected) and \
            "local inverse Newton did not converge" in text:
        return DEFECT_BRANCH_JUMP
    if isinstance(exc, InvalidBranchDatum) and "not forward invariant" in text:
        return DEFECT_CYCLIC_PUNCTURES
    return None


def failure(exc):
    label = known_defect(exc)
    if label is not None:
        return "defect:" + label
    return "error:%s: %s" % (type(exc).__name__, exc)


def _poly(coeffs, z):
    """Horner evaluation of a polynomial and its derivative (low to high)."""
    value, deriv = 0j, 0j
    for c in reversed(coeffs):
        deriv = deriv * z + value
        value = value * z + c
    return value, deriv


def _trace_digest(trace):
    h = hashlib.sha256()
    for line in trace.jsonl_lines():
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _init(case, **kw):
    """A fresh run for one generated case (fresh map, so no cached state)."""
    datum = fiber.BranchDatum(complex(*case["basepoint"]),
                              complex(*case["branch_point"]))
    extra = [complex(*z) for z in case["extra"]]
    g = RationalMap(case["numerator"])
    if case.get("compose_iterate", 1) > 1:
        return fiber.compose_iterate_run(g, case["compose_iterate"], datum,
                                         extra_punctures=extra, **kw)
    return fiber.init_run(g, [datum], extra_punctures=extra, **kw)


class Workload:
    """A pass runs ``do`` on every item once; the warm-up runs it on the
    first item. Each case's first output digest is remembered so that a
    later pass with a different digest is flagged."""

    def __init__(self, items):
        self.items = items
        self.digests = {}

    def run_pass(self, log):
        for item in self.items:
            self.do(item, log)

    def warm_up(self, log):
        self.do(self.items[0], log)

    def same_digest(self, key, digest):
        return self.digests.setdefault(key, digest) == digest


class Corpus(Workload):
    """The shipped demo configs through ``cli.main(["run", ...])``, then
    ``cli.main(["check", ...])`` on each emitted certificate. One op is
    one config: its run plus its check, timed as two stretches."""

    name = "corpus"
    EXPECTED = {"basilica": "realized", "chebyshev": "obstructed",
                "chebyshev_realized": "realized",
                "iterate_composition": "obstructed", "squaring_a": "obstructed",
                "squaring_b": "obstructed", "squaring_c": "obstructed",
                "trivial_point": "realized"}

    def __init__(self, seed, root, workdir):
        src = os.path.join(root, "src", "pullbacklab", "demo_configs")
        names = [f[:-5] for f in os.listdir(src) if f.endswith(".json")]
        order = inputs.corpus_order(seed, names)
        super().__init__(order)
        self.config_dir = os.path.join(workdir, "configs")
        self.out_dir = os.path.join(workdir, "out")
        os.makedirs(self.config_dir, exist_ok=True)
        configs = {}
        for name in order:
            with open(os.path.join(src, name + ".json")) as fh:
                configs[name] = fh.read()
            with open(os.path.join(self.config_dir, name + ".json"), "w") as fh:
                fh.write(configs[name])
        self.inputs = {"order": order, "configs": configs}

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            status = cli.main(argv)
        return status, out.getvalue()

    def do(self, name, log):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        base = os.path.join(self.out_dir, name)
        t0 = clock()
        status, _ = self._cli(["run", "--config",
                               os.path.join(self.config_dir, name + ".json"),
                               "--out", self.out_dir])
        seconds = clock() - t0
        if status != 0:
            log.op(seconds, "error:%s: run exited %d" % (name, status))
            return
        with open(base + ".report.json") as fh:
            report = json.load(fh)
        outcome = "ok"
        parts = (seconds,)
        if report["certificate"] is not None:
            t1 = clock()
            status, text = self._cli(["check", "--trace", base + ".trace.jsonl",
                                      "--cert", base + ".certificate.json"])
            log.check_s.append(clock() - t1)
            parts = (seconds, log.check_s[-1])
            if status != 0:
                outcome = "error:%s: check exited %d: %s" % (
                    name, status, text.strip().replace("\n", "; "))
        log.op(sum(parts), outcome if outcome != "ok" else self.verify(name, report),
               parts)
        log.steps += report["steps"]
        log.bytes_written += sum(os.path.getsize(os.path.join(self.out_dir, f))
                                 for f in os.listdir(self.out_dir))

    def verify(self, name, report):
        verdict = report["classification"]["verdict"]
        if verdict != self.EXPECTED[name]:
            return "error:%s: verdict %s, expected %s" % (
                name, verdict, self.EXPECTED[name])
        if not self.same_digest(name, report["trace_digest"]):
            return "error:%s: trace digest changed between passes" % name
        if verdict == "obstructed" and report["certificate"] is None:
            note = report["certificate_note"] or ""
            if "below the double-range certificate chart" in note:
                return "defect:" + DEFECT_EMISSION_FLOOR
            return "error:%s: no certificate: %s" % (name, note)
        return "ok"


class DeepAnchor(Workload):
    """Obstructed runs stepped far past anchoring, one trace record and its
    JSONL line per step. One op is one block of BLOCK_STEPS steps; the
    first PRE_ROLL steps (free phase and anchoring) are not an op."""

    name = "deep_anchor"
    PRE_ROLL = 100
    BLOCKS = 8
    BLOCK_STEPS = 250

    def __init__(self, seed, root=None, workdir=None, blocks=BLOCKS,
                 block_steps=BLOCK_STEPS):
        cases = inputs.deep_anchor_cases(seed)
        super().__init__(cases)
        self.blocks, self.block_steps = blocks, block_steps
        self.inputs = {"cases": cases, "pre_roll": self.PRE_ROLL,
                       "blocks": blocks, "block_steps": block_steps}

    @staticmethod
    def _advance(run, steps, lines):
        for _ in range(steps):
            run.pullback_step()
            lines.extend(fiber.Trace([run.trace_record()]).jsonl_lines())

    def do(self, case, log):
        lines = []
        t0 = clock()
        try:
            run = _init(case)
            self._advance(run, self.PRE_ROLL, lines)
        except Exception as exc:  # an op failure must not end the run
            log.op(clock() - t0, failure(exc))
            return
        log.work.append(clock() - t0)
        log.steps += self.PRE_ROLL
        outcome = "ok"
        for _ in range(self.blocks):
            start = len(lines)
            t0 = clock()
            try:
                self._advance(run, self.block_steps, lines)
            except Exception as exc:  # an op failure must not end the run
                log.op(clock() - t0, failure(exc))
                return
            seconds = clock() - t0
            log.steps += self.block_steps
            if outcome == "ok":
                outcome = self.verify(case, lines[start:])
            log.op(seconds, outcome)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        if not self.same_digest(case["name"], digest):
            log.ops[-1] = (log.ops[-1][0],
                           "error:%s: trace digest changed between passes"
                           % case["name"])

    @staticmethod
    def verify(case, block):
        """Every point is anchored and log2|eta| falls by log2(1/rate) per
        step, the linearized inverse branch at the puncture."""
        first, last = json.loads(block[0]), json.loads(block[-1])
        for rec in (first, last):
            if rec["points"]["m0"]["mode"] != "anchored":
                return "error:%s: step %d not anchored" % (case["name"], rec["n"])

        def log2_eta(rec):
            pt = rec["points"]["m0"]
            return math.log2(math.hypot(*pt["eta"])) + pt["exp2"]
        drop = (log2_eta(first) - log2_eta(last)) / (last["n"] - first["n"])
        want = -math.log2(case["rate"])
        if abs(drop - want) > 1e-6 * want:
            return "error:%s: decay %.9g bits/step, expected %.9g" % (
                case["name"], drop, want)
        return "ok"


class Generated(Workload):
    """Seeded psf maps of degree 2..8: Dickson T_d and z^d with roots of
    unity as extra punctures. One op is init_run -> run_until ->
    classify_run, the time to a verdict without a certificate."""

    name = "generated"
    MAX_ITERS = 500

    def __init__(self, seed, root=None, workdir=None, limit=None):
        cases = inputs.generated_cases(seed)[:limit]
        super().__init__(cases)
        self.inputs = {"cases": cases, "max_iters": self.MAX_ITERS}

    def do(self, case, log):
        run = None
        t0 = clock()
        try:
            run = _init(case, tol=fiber.Tolerances(max_iters=self.MAX_ITERS))
            trace, _ = fiber.run_until(run)
            cls = certify.classify_run(trace, run.g, run.punctures, tol=run.tol)
        except Exception as exc:  # an op failure must not end the run
            log.op(clock() - t0, failure(exc))
            log.steps += run.n if run is not None else 0
            return
        log.op(clock() - t0)
        log.steps += run.n
        outcome = self.verify(case, run, cls)
        if outcome == "ok" and not self.same_digest(case["name"],
                                                    _trace_digest(trace)):
            outcome = "error:%s: trace digest changed between passes" % case["name"]
        if outcome != "ok":
            log.ops[-1] = (log.ops[-1][0], outcome)

    @staticmethod
    def verify(case, run, cls):
        """Check the verdict against the map itself, evaluated here."""
        coeffs = case["numerator"]
        if cls.verdict == "realized":
            x = cls.x_star
            gx, _ = _poly(coeffs, x)
            near = min(abs(x - p) for p in run.punctures.points
                       if not is_inf(p))
            if abs(gx - x) > 1e-6 * max(1.0, abs(x)) or near < 1e-6:
                return "error:%s: realized at %r, not a fixed point off P" % (
                    case["name"], x)
        elif cls.verdict == "obstructed":
            p = cls.puncture
            gp, dp = _poly(coeffs, p)
            if abs(gp - p) > 1e-9 * max(1.0, abs(p)) or abs(dp) <= 1.0:
                return "error:%s: obstructed at %r, not a repelling fixed " \
                       "puncture" % (case["name"], p)
        return "ok"


class CertSearch(Workload):
    """Obstructed z^2 runs with k >= 2, where every certificate attempt
    reaches the injectivity test and fails. Each case runs to its verdict
    and is stepped on to PRE_ROLL, past the step where the annulus modulus
    first exceeds the threshold. One op is one ``certify_obstructed`` call
    with max_steps = PRE_ROLL: a single attempt, one full injectivity test
    (about 0.1 s), so that each op can find a quiet moment on a shared
    machine."""

    name = "cert_search"
    PRE_ROLL = 700

    def __init__(self, seed, root=None, workdir=None, per_set=8):
        cases = inputs.cert_search_cases(seed, per_set)
        super().__init__(cases)
        self.inputs = {"cases": cases, "pre_roll": self.PRE_ROLL}

    def do(self, case, log):
        t0 = clock()
        try:
            run = _init(case)
            trace, _ = fiber.run_until(run)
            cls = certify.classify_run(trace, run.g, run.punctures, tol=run.tol)
            while run.n < self.PRE_ROLL:
                run.pullback_step()
            t1 = clock()
            cert, note = certify.certify_obstructed(
                run, max_steps=self.PRE_ROLL, with_reason=True)
            t2 = clock()
        except Exception as exc:  # an op failure must not end the run
            log.op(clock() - t0, failure(exc))
            return
        log.work.append(t1 - t0)
        log.cert_s.append(t2 - t1)
        log.steps += run.n
        log.op(t2 - t1, self.verify(case, trace, cls, cert, note))

    def verify(self, case, trace, cls, cert, note):
        if cls.verdict != "obstructed" or cls.puncture != 1:
            return "error:%s: verdict %r" % (case["name"], cls)
        if cert is not None:
            replay = _init(case)
            while replay.n < cert.step:
                replay.pullback_step()
            result = certify.verify_certificate(cert, replay)
            return "ok" if result else "error:%s: %r" % (case["name"], result)
        if not note.startswith("no qualifying annulus"):
            return "error:%s: %s" % (case["name"], note)
        if not self.same_digest(case["name"], _trace_digest(trace) + note):
            return "error:%s: trace digest changed between passes" % case["name"]
        return "defect:" + DEFECT_BUDGET


WORKLOADS = {w.name: w for w in (Corpus, DeepAnchor, Generated, CertSearch)}
