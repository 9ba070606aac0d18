"""Command-line front end: config ingestion, run orchestration, trace and
certificate persistence, corpus demos.

Subcommands and the flags each reads:

- ``analyze``: one of ``--config FILE`` / ``--batch GLOB``, with ``--out``;
- ``run | certify``: one of ``--config FILE`` / ``--batch GLOB``, with
  ``--out`` and ``--tol eps_P=VALUE|max_iters=N``;
- ``classify``: ``--trace`` and one of ``--config`` / ``--report``, with
  ``--tol``;
- ``check``: ``--trace`` and ``--cert``, with ``--report``;
- ``demo``: ``--out`` and ``--tol``.

Exit codes: 0 done, 2 invalid config/usage, 3 numerical failure;
``check`` exits 1 when a stored artifact fails verification. A batch
(``--batch`` or ``demo``) reports a config's numerical failure, goes on
with the next config and exits 3 at the end.

``run`` drives the engine's one step loop: ``fiber.run_until`` up to the
stopping rule, then ``certify_obstructed`` onwards, both recording into
the same trace. Reports and certificates store the run's config and all
13 tolerances; a config, ``--tol`` or stored value for one of the 11 in
``fiber.FIXED_TOLERANCES`` must be the engine's. ``artifact_config``
rebuilds the run from either artifact. A stored trace is judged by the
same stopping rule, ``fiber.stopping_status``, at the first record where
it fires. ``check`` reads the trace file once, for its SHA-256 and its
records, rebuilds the run from its certificate, steps it through the
stored records 0..step, each of which must be the run's at that step, and
verifies the certificate against it; with ``--report`` the report must
carry the trace's digest, the certificate's config and tolerances, and the
classification, status and steps the stored trace gives. ``run`` hashes
the trace bytes as it writes them.
"""

import argparse
import functools
import glob as globmod
import hashlib
import io
import json
import math
import os
import reprlib
import sys
import time

from . import __version__
from .certify import (LevyCertificate, certify_obstructed, classify_run,
                      same_within, verify_certificate)
from .errors import InvalidBranchDatum, PullbackLabError
from .fiber import (JSON_ENCODER, BranchDatum, RunStatus, Tolerances, Trace,
                    TrivialMarkedSpec, compose_iterate_run, init_run,
                    min_dist_log10, run_until, step_until, stopping_status)
from .lifting import Path
from .ratmap import RationalMap, postsingular_analysis
from .sphere import decode_point, json_complex, json_float, json_typed


def load_config(path, tol_overrides=()):
    """Read a run config file and parse it (see ``parse_config``)."""
    with open(path) as fh:
        raw = json.load(fh)
    return parse_config(raw, tol_overrides,
                        name=os.path.splitext(os.path.basename(path))[0])


def parse_config(raw, tol_overrides=(), name=""):
    """Parse and validate a run config dict; raises ValueError on schema
    issues, naming a mistyped field. ``name`` is used when the config does
    not name itself."""
    if "map" not in json_typed(raw, dict, "config"):
        raise ValueError("config needs a 'map' record")
    g = RationalMap.from_json(raw["map"])
    # each source overrides the one before: config tolerances, config
    # max_iters, --tol
    tols = dict(json_typed(raw.get("tolerances", {}), dict, "tolerances",
                           float))
    if "max_iters" in raw:
        tols["max_iters"] = json_typed(raw["max_iters"], float, "max_iters")
    for tol_name, value in tol_overrides:
        tols[tol_name] = float(value)
    tol = Tolerances(**tols)
    marked, trivial = [], []
    for spec in json_typed(raw.get("marked", []), list, "marked", dict):
        kind = spec.get("type", "fixed")
        if kind == "fixed":
            delta = Path.from_json({"nodes": spec["delta"]}, "delta") \
                if "delta" in spec else None
            marked.append(BranchDatum(
                json_complex(spec["basepoint"], "basepoint"),
                json_complex(spec["branch_point"], "branch_point"), delta))
        elif kind == "trivial":
            trivial.append(TrivialMarkedSpec(
                decode_point(spec["image"], "image"),
                json_complex(spec["preimage"], "preimage"),
                json_complex(spec["start"], "start") if "start" in spec
                else None))
        else:
            raise ValueError("unknown marked type %r" % kind)
    if not marked and not trivial:
        raise ValueError("config needs at least one marked point")
    extra = [decode_point(p, "extra_punctures item") for p in
             json_typed(raw.get("extra_punctures", []), list,
                        "extra_punctures")]
    return {
        "name": json_typed(raw.get("name", name), str, "name"),
        "g": g, "marked": marked, "trivial": trivial, "extra": extra,
        "tol": tol, "compose_iterate": json_typed(
            raw.get("compose_iterate", 1), int, "compose_iterate"),
        "raw": raw,
    }


def artifact_config(payload, tol_overrides=()):
    """The run config a report or certificate embeds, with the tolerances
    its run used in place of the config's own when the artifact stores
    them; ``--tol`` overrides these as it overrides a config's."""
    raw = json_typed(payload["run_config"], dict, "run_config")
    stored = json_typed(payload.get("tolerances", {}), dict, "tolerances")
    if stored:
        raw = {key: value for key, value in raw.items() if key != "max_iters"}
        raw["tolerances"] = stored
    return parse_config(raw, tol_overrides)


def _read_artifact(path):
    """A stored report or certificate: one JSON object."""
    with open(path) as fh:
        return json_typed(json.load(fh), dict, os.path.basename(path))


def _build_run(cfg):
    m = cfg["compose_iterate"]
    if m > 1:
        if len(cfg["marked"]) != 1 or cfg["trivial"]:
            raise ValueError("compose_iterate runs take exactly one fixed "
                             "marked point")
        return compose_iterate_run(cfg["g"], m, cfg["marked"][0],
                                   extra_punctures=cfg["extra"],
                                   tol=cfg["tol"])
    return init_run(cfg["g"], cfg["marked"], trivial=cfg["trivial"],
                    extra_punctures=cfg["extra"], tol=cfg["tol"])


def _out_dir(args):
    out = args.out or os.environ.get("PULLBACK_LAB_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(JSON_ENCODER.encode(obj))
        fh.write("\n")


def _write_trace(path, trace):
    """Write the trace's JSONL lines; returns the sha256 of those bytes."""
    data = "".join(line + "\n" for line in trace.jsonl_lines()).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args):
    cfg = load_config(args.config)
    an = postsingular_analysis(cfg["g"])
    out = os.path.join(_out_dir(args), cfg["name"] + ".analysis.json")
    _write_json(out, an.to_json())
    print("analysis written to", out)
    return 0


def cmd_run(args, force_certificate=False):
    cfg = load_config(args.config, args.tol)
    t_start = time.perf_counter()
    run = _build_run(cfg)
    trace, status = run_until(run)
    cls = classify_run(trace, run.g, run.punctures, tol=cfg["tol"])

    out = _out_dir(args)
    name = cfg["name"]
    cert = None
    cert_note = None
    if cls.verdict == "obstructed":
        # the certification tail extends the stored trace
        cert, cert_note = certify_obstructed(run, engine_version=__version__,
                                             with_reason=True,
                                             records=trace.records)
        if cert is None and force_certificate:
            raise PullbackLabError("no certificate emitted: %s" % cert_note)
    elif force_certificate:
        raise PullbackLabError("run is not obstructed; nothing to certify")

    trace_path = os.path.join(out, name + ".trace.jsonl")
    digest = _write_trace(trace_path, trace)

    cert_path = None
    if cert is not None:
        cert.trace_digest = digest
        cert_path = os.path.join(out, name + ".certificate.json")
        payload = cert.to_json()
        payload["run_config"] = cfg["raw"]
        _write_json(cert_path, payload)

    report = {
        "name": name,
        "engine_version": __version__,
        "classification": cls.to_json(),
        "status": status.to_json(),
        "steps": run.n,
        "trace": os.path.basename(trace_path),
        "trace_digest": digest,
        "certificate": None if cert_path is None
        else os.path.basename(cert_path),
        "certificate_note": cert_note,
        "run_config": cfg["raw"],
        "tolerances": run.tol.to_json(),
        "timing_s": time.perf_counter() - t_start,
    }
    report_path = os.path.join(out, name + ".report.json")
    _write_json(report_path, report)
    print("%s: %s (%d steps) -> %s" % (name, cls, run.n, report_path))
    return 0


def cmd_classify(args):
    if args.report:
        cfg = artifact_config(_read_artifact(args.report), args.tol)
    else:
        cfg = load_config(args.config, args.tol)
    run = _build_run(cfg)  # punctures only; no stepping
    records, status = _stored_status(_read_trace(args.trace), run)
    cls = classify_run(Trace(records, status), run.g, run.punctures,
                       tol=run.tol)
    print(json.dumps(cls.to_json(), sort_keys=True, indent=1))
    return 0


def _stored_status(records, run):
    """(records up to the stopping step, status) of a stored trace.

    The stopping rule is applied to growing prefixes as ``run_until``
    applied it, and the first prefix where it fires ends the trace
    (undecided when none does). Records past the stopping step are the
    certification tail. Each record is typed (``_typed_record``) before
    the rule reads it."""
    prefix = []
    for rec in records:
        prefix.append(_typed_record(rec))
        status = stopping_status(prefix, run.punctures, run.tol)
        if status is not None:
            return prefix, status
    return prefix, RunStatus("undecided", reason="max_iters",
                             steps=prefix[-1]["n"] if prefix else 0)


def _typed_record(rec):
    """A stored trace record, once the fields that ``stopping_status`` and
    ``classify_run`` read have their types: ``n``, ``points`` with each
    point's ``mode``, ``type``, ``value`` (of a free point) and
    ``dist_log10``, and ``min_dist_log10``. Raises ValueError naming the
    first field that has not."""
    what = "trace record n=%d" % json_typed(rec["n"], int, "trace record n")
    for lab, entry in json_typed(rec["points"], dict, what + " points",
                                 dict).items():
        at = "%s point %s" % (what, lab)
        if json_typed(entry["mode"], str, at + " mode") == "free":
            json_complex(entry["value"], at + " value")
        json_typed(entry["type"], str, at + " type")
        _typed_log10s(entry["dist_log10"], at + " dist_log10")
    _typed_log10s(rec["min_dist_log10"], what + " min_dist_log10")
    return rec


_LOG10_MAX_DIST = math.log10(2.0) + 1e-9  # a chordal distance is at most 2


def _typed_log10s(row, what):
    """A record's log10 distances by puncture label: floats in range and
    at most log10 2."""
    for value in json_typed(row, dict, what).values():
        if json_float(value, what + " item") > _LOG10_MAX_DIST:
            raise ValueError("%s item must be at most log10(2), not %s"
                             % (what, reprlib.repr(value)))


def _read_trace(path):
    """A stored trace's records (see ``_trace_records``)."""
    with open(path, "rb") as fh:
        return _trace_records(fh.read())


def _trace_records(data):
    """The records of a stored trace's bytes: one JSON object per non-blank
    line, lines split as a text-mode file splits them."""
    return [json_typed(json.loads(line), dict, "trace line")
            for line in io.StringIO(data.decode(), newline=None)
            if line.strip()]


def cmd_certify(args):
    return cmd_run(args, force_certificate=True)


def cmd_check(args):
    failures = []
    payload = _read_artifact(args.cert)
    cert = LevyCertificate.from_json(payload)
    with open(args.trace, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    if cert.trace_digest != digest:
        failures.append("trace digest mismatch: certificate says %s, file is %s"
                        % (cert.trace_digest, digest))

    if payload.get("run_config") is None:
        failures.append("certificate does not embed its run config")
    else:
        records = _trace_records(data)
        run = _build_run(artifact_config(payload))
        # the steps come first: a forged cert.step must not drive stepping
        if [rec.get("n") for rec in records] != list(range(len(records))) \
                or len(records) != cert.step + 1:
            failures.append("trace records are not the steps 0..%d of the "
                            "certificate, in order" % cert.step)
        else:
            failures.extend(_replay_mismatches(records, run))
            result = verify_certificate(cert, run)
            if not result:
                failures.extend(result.mismatches)
        if args.report:
            failures.extend(_report_mismatches(records, run, payload, digest,
                                               args.report))
    if failures:
        for f in failures:
            print("CHECK FAIL:", f)
        return 1
    print("all checks passed")
    return 0


def _report_mismatches(records, run, payload, digest, report_path):
    """A report belongs to the trace and certificate it is checked with:
    its ``trace_digest`` is the trace file's, its ``run_config`` and
    ``tolerances`` are the certificate's, and its ``classification``,
    ``status`` and ``steps`` are the ones the stored trace gives, each
    compared as JSON. One message per field that differs, or per key that
    differs when both sides are objects."""
    rep = _read_artifact(report_path)
    steps = records[-1]["n"] if records else 0
    records, status = _stored_status(records, run)
    cls = classify_run(Trace(records, status), run.g, run.punctures,
                       tol=run.tol)
    expected = (("trace_digest", "trace file", digest),
                ("run_config", "certificate", payload.get("run_config")),
                ("tolerances", "certificate", payload.get("tolerances")),
                ("classification", "derived", cls.to_json()),
                ("status", "derived", status.to_json()),
                ("steps", "derived", steps))
    bad = []
    for name, source, value in expected:
        stored = rep.get(name)
        if _same_json(stored, value):
            continue
        fields = [(name, stored, value)]
        if isinstance(stored, dict) and isinstance(value, dict):
            fields = [("%s %s" % (name, key), stored.get(key), value.get(key))
                      for key in sorted(stored.keys() | value.keys())
                      if key not in stored or key not in value
                      or not _same_json(stored[key], value[key])]
        bad += ["report %s mismatch: stored %s, %s %s"
                % (field, reprlib.repr(got), source, reprlib.repr(other))
                for field, got, other in fields]
    return bad


def _same_json(a, b):
    return JSON_ENCODER.encode(a) == JSON_ENCODER.encode(b)


def _replay_mismatches(records, run):
    """Step ``run`` through consecutive records from ``run.n`` on, with
    the engine's one step loop (``fiber.step_until``); each record's points
    and minima must be the run's, floats within 1e-12 max(1, |x|) (another
    machine's libm may round the last bit apart)."""
    differ = []
    for rec in records:
        step_until(run, lambda: None, rec["n"])
        points = run.point_entries()
        want = {"points": points, "min_dist_log10": min_dist_log10(points)}
        got = {key: rec.get(key) for key in want}
        if got != want and not same_within(got, want, 1e-12, 1.0):
            differ.append(rec["n"])
    if differ:
        return ["trace differs from the re-stepped run at %d of %d records, "
                "first at n=%d" % (len(differ), len(records), differ[0])]
    return []


def cmd_demo(args):
    from importlib import resources
    out = _out_dir(args)
    names = []
    pkg_files = resources.files("pullbacklab") / "demo_configs"
    for item in sorted(pkg_files.iterdir(), key=lambda p: p.name):
        if not item.name.endswith(".json"):
            continue
        target = os.path.join(out, item.name)
        with open(target, "w") as fh:
            fh.write(item.read_text())
        names.append(target)
    return _each_config(cmd_run, args, names)


def _each_config(handler, args, paths):
    """``handler`` on each config path in turn. A numerical failure is
    reported and the loop goes on with the next config; the status is 3
    when any config failed. Input errors end the loop."""
    status = 0
    for path in paths:
        args.config = path
        try:
            status = max(status, handler(args))
        except InvalidBranchDatum:
            raise
        except PullbackLabError as exc:
            print("numerical failure: %s: %s" % (path, exc), file=sys.stderr)
            status = 3
    return status


# ---------------------------------------------------------------------------

def _tol_pair(text):
    if "=" not in text:
        raise argparse.ArgumentTypeError("--tol needs NAME=VALUE")
    name, value = text.split("=", 1)
    return name.strip(), value.strip()


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process (parsing leaves it
    unchanged)."""
    ap = argparse.ArgumentParser(
        prog="pullback-lab",
        description="Pullback iteration on Bers fibers: realized/obstructed "
                    "classification with Levy-multicurve certificates.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def tolerances(p):
        p.add_argument("--tol", action="append", type=_tol_pair, default=[],
                       help="eps_P=VALUE or max_iters=N")

    def runs(name, help):
        p = sub.add_parser(name, help=help)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--config")
        source.add_argument("--batch",
                            help="glob of config files to run in sequence")
        p.add_argument("--out", default=None)
        return p

    runs("analyze", "postsingular analysis of the map")
    tolerances(runs("run", "execute a pullback run end to end"))
    p = sub.add_parser("classify", help="re-classify a stored trace")
    p.add_argument("--trace", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config")
    source.add_argument("--report",
                        help="rebuild the run from this report's config and "
                             "tolerances")
    tolerances(p)
    tolerances(runs("certify", "run and require a Levy certificate"))
    p = sub.add_parser("check", help="verify a stored trace + certificate")
    p.add_argument("--trace", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--report", default=None,
                   help="also require this report to belong to the trace and "
                        "certificate")
    p = sub.add_parser("demo", help="run the shipped demo corpus")
    p.add_argument("--out", default=None)
    tolerances(p)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {"analyze": cmd_analyze, "run": cmd_run,
                "classify": cmd_classify, "certify": cmd_certify,
                "check": cmd_check, "demo": cmd_demo}
    handler = handlers[args.command]
    try:
        if getattr(args, "batch", None):
            return _each_config(handler, args,
                                sorted(globmod.glob(args.batch)))
        return handler(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError,
            InvalidBranchDatum) as exc:
        print("invalid config/input: %s" % exc, file=sys.stderr)
        return 2
    except PullbackLabError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
