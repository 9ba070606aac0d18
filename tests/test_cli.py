import glob
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import pullbacklab
from pullbacklab.cli import load_config, main


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_config(tmp_path, cfgname="cheb", **overrides):
    cfg = {
        "name": cfgname,
        "map": {"numerator": [[-2, 0], [0, 0], [1, 0]],
                "denominator": [[1, 0]]},
        "marked": [{"type": "fixed", "basepoint": [0.0, 0.0],
                    "branch_point": [math.sqrt(2), 0.0]}],
        "max_iters": 2000,
    }
    cfg.update(overrides)
    path = tmp_path / (cfgname + ".json")
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_obstructed_with_certificate(tmp_path):
    cfgp = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfgp, "--out", out]) == 0
    report = read_json(os.path.join(out, "cheb.report.json"))
    assert report["classification"]["verdict"] == "obstructed"
    assert report["classification"]["puncture"] == [2.0, 0.0]
    assert report["certificate"] == "cheb.certificate.json"
    cert = read_json(os.path.join(out, "cheb.certificate.json"))
    assert cert["trace_digest"] == report["trace_digest"]


def test_run_realized(tmp_path):
    cfgp = write_config(
        tmp_path, cfgname="bas",
        map={"numerator": [[-1, 0], [0, 0], [1, 0]],
             "denominator": [[1, 0]]},
        marked=[{"type": "fixed", "basepoint": [-0.6, 0.0],
                 "branch_point": [-math.sqrt(0.4), 0.0]}])
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfgp, "--out", out]) == 0
    report = read_json(os.path.join(out, "bas.report.json"))
    assert report["classification"]["verdict"] == "realized"
    assert abs(report["classification"]["x_star"][0]
               - (1 - math.sqrt(5)) / 2) < 1e-8
    assert report["certificate"] is None


def test_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"marked": []}))
    assert main(["run", "--config", str(missing), "--out", str(tmp_path)]) == 2
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


# (case, config fields replaced, extra run flags, how the message starts:
# it names the field)
MALFORMED_RUNS = [
    ("marked_int", {"marked": [5]}, [], "marked item must be"),
    ("numerator_int", {"map": {"numerator": 5, "denominator": [[1, 0]]}},
     [], "map numerator must be"),
    ("extra_punctures_int", {"extra_punctures": 5}, [],
     "extra_punctures must be"),
    ("compose_iterate_string", {"compose_iterate": "2"}, [],
     "compose_iterate must be"),
    ("name_int", {"name": 5}, [], "name must be"),
    ("basepoint_string",
     {"marked": [{"type": "fixed", "basepoint": "ab",
                  "branch_point": [math.sqrt(2), 0.0]}]}, [],
     "basepoint must be"),
    ("max_iters_string", {"max_iters": "20"}, [], "max_iters must be"),
    ("tolerance_list", {"tolerances": {"K": [1]}}, [],
     "tolerances item must be"),
    ("config_fixed_tolerance", {"tolerances": {"eps_sep": 1e-3}}, [],
     "tolerance eps_sep=0.001: "),
    ("tol_fixed", {}, ["--tol", "eps_sep=1e-3"], "tolerance eps_sep=0.001: "),
    ("tol_max_iters_overflow", {}, ["--tol", "max_iters=1e400"],
     "tolerance max_iters=inf is not"),
    ("tol_max_iters_fraction", {}, ["--tol", "max_iters=2.7"],
     "tolerance max_iters=2.7 is not"),
    ("tol_eps_P_negative", {}, ["--tol", "eps_P=-1"],
     "tolerance eps_P=-1.0 is not"),
    ("tol_eps_P_nan", {}, ["--tol", "eps_P=nan"], "tolerance eps_P=nan is not"),
    ("max_iters_negative", {}, ["--tol", "max_iters=-1"],
     "tolerance max_iters=-1 is not"),
    ("eps_P_huge_int", {"tolerances": {"eps_P": 10 ** 400}}, [],
     "tolerance eps_P=inf is not"),
    ("basepoint_huge_int",
     {"marked": [{"type": "fixed", "basepoint": [10 ** 400, 0],
                  "branch_point": [math.sqrt(2), 0.0]}]}, [],
     "basepoint must be [re, im] within double range"),
    # a marked datum on a puncture of z^2 - 2 (P = {-2, 2, oo})
    ("basepoint_on_puncture",
     {"marked": [{"type": "fixed", "basepoint": [2.0, 0.0],
                  "branch_point": [2.0, 0.0]}]}, [],
     "basepoint lies on a puncture"),
    ("branch_point_on_puncture",
     {"marked": [{"type": "fixed", "basepoint": [0.0, 0.0],
                  "branch_point": [2.0, 0.0]}]}, [],
     "branch point lies on a puncture"),
    ("trivial_preimage_on_puncture",
     {"marked": [{"type": "trivial", "image": [2.0, 0.0],
                  "preimage": [2.0, 0.0]}]}, [],
     "trivial q' collides with a puncture"),
    ("trivial_start_on_puncture",
     {"marked": [{"type": "trivial", "image": [-2.0, 0.0],
                  "preimage": [0.0, 0.0], "start": [2.0, 0.0]}]}, [],
     "trivial start collides with a puncture"),
]


@pytest.mark.parametrize("row", MALFORMED_RUNS, ids=lambda r: r[0])
def test_run_rejects_malformed_fields_and_tolerances(tmp_path, row, capsys):
    _, fields, flags, message = row
    cfgp = write_config(tmp_path, **fields)
    capsys.readouterr()
    assert main(["run", "--config", cfgp, "--out", str(tmp_path / "out")]
                + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config/input: " + message), err


def test_check_valid_and_tampered(tmp_path):
    cfgp = write_config(tmp_path)
    out = str(tmp_path / "out")
    main(["run", "--config", cfgp, "--out", out])
    trace = os.path.join(out, "cheb.trace.jsonl")
    cert = os.path.join(out, "cheb.certificate.json")
    assert main(["check", "--trace", trace, "--cert", cert]) == 0

    # edit one stored position: the replay comparison and digest both fail
    lines = pathlib.Path(trace).read_text().splitlines()
    rec = json.loads(lines[2])
    rec["points"]["m0"]["value"][0] += 1e-5
    lines[2] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    tampered = os.path.join(out, "tampered.jsonl")
    pathlib.Path(tampered).write_text("\n".join(lines) + "\n")
    assert main(["check", "--trace", tampered, "--cert", cert]) == 1

    # certificate digest mismatch alone also fails
    payload = read_json(cert)
    payload["trace_digest"] = "0" * 64
    cert2 = os.path.join(out, "cert2.json")
    pathlib.Path(cert2).write_text(json.dumps(payload))
    assert main(["check", "--trace", trace, "--cert", cert2]) == 1


def test_check_reports_missing_enclosed_labels(tmp_path, capsys):
    # a certificate with fewer enclosed-label lists than curves is a
    # mismatch, not a crash
    cfgp = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfgp, "--out", out]) == 0
    trace = os.path.join(out, "cheb.trace.jsonl")
    payload = read_json(os.path.join(out, "cheb.certificate.json"))
    payload["curve_enclosed_labels"] = []
    cert = os.path.join(out, "short.json")
    pathlib.Path(cert).write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["check", "--trace", trace, "--cert", cert]) == 1
    assert "CHECK FAIL: curve count mismatch: stored 2 curves and 0 " \
        "enclosed-label sets, derived 2" in capsys.readouterr().out


def test_tolerance_sources_override_in_order(tmp_path):
    # config tolerances, config max_iters, --tol: each source overrides the
    # one before
    cheb = [p for p in DEMO_CONFIGS if p.endswith("chebyshev.json")][0]
    assert load_config(cheb)["tol"].max_iters == 2000
    override = [("max_iters", "40")]
    assert load_config(cheb, override)["tol"].max_iters == 40
    cfgp = write_config(tmp_path, tolerances={"max_iters": 10, "eps_P": 1e-7})
    tol = load_config(cfgp)["tol"]
    assert tol.max_iters == 2000 and tol.eps_P == 1e-7
    tol = load_config(cfgp, tol_overrides=[("eps_P", "1e-6")])["tol"]
    assert tol.max_iters == 2000 and tol.eps_P == 1e-6


def test_reports_and_certificates_are_compact_json(tmp_path):
    cfgp = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfgp, "--out", out]) == 0
    for name in ("cheb.report.json", "cheb.certificate.json"):
        text = pathlib.Path(out, name).read_text()
        obj = json.loads(text)
        assert text == json.dumps(obj, sort_keys=True,
                                  separators=(",", ":")) + "\n"


def test_determinism_byte_identical_traces(tmp_path):
    cfgp = write_config(tmp_path)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    main(["run", "--config", cfgp, "--out", out1])
    main(["run", "--config", cfgp, "--out", out2])
    t1 = pathlib.Path(out1, "cheb.trace.jsonl").read_bytes()
    t2 = pathlib.Path(out2, "cheb.trace.jsonl").read_bytes()
    assert t1 == t2


def test_classify_subcommand(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    out = str(tmp_path / "out")
    main(["run", "--config", cfgp, "--out", out])
    trace = os.path.join(out, "cheb.trace.jsonl")
    report = os.path.join(out, "cheb.report.json")
    capsys.readouterr()  # drop cmd_run's summary line
    # the run is rebuilt from the report's config, or from the config file
    assert main(["classify", "--trace", trace, "--report", report]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "obstructed"
    assert main(["classify", "--config", cfgp, "--trace", trace]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "obstructed"


def test_check_reproduces_report_verdict(tmp_path):
    cfgp = write_config(tmp_path)
    out = str(tmp_path / "out")
    main(["run", "--config", cfgp, "--out", out])
    assert main(["check",
                 "--trace", os.path.join(out, "cheb.trace.jsonl"),
                 "--cert", os.path.join(out, "cheb.certificate.json"),
                 "--report", os.path.join(out, "cheb.report.json")]) == 0
    # a forged verdict in the report is caught
    rep = read_json(os.path.join(out, "cheb.report.json"))
    rep["classification"]["verdict"] = "realized"
    forged = os.path.join(out, "forged.report.json")
    pathlib.Path(forged).write_text(json.dumps(rep))
    assert main(["check",
                 "--trace", os.path.join(out, "cheb.trace.jsonl"),
                 "--cert", os.path.join(out, "cheb.certificate.json"),
                 "--report", forged]) == 1


def test_analyze_subcommand(tmp_path):
    cfgp = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["analyze", "--config", cfgp, "--out", out]) == 0
    an = read_json(os.path.join(out, "cheb.analysis.json"))
    assert an["is_psf"]
    assert len(an["postsingular"]) == 3


def test_tol_override_and_env(tmp_path, monkeypatch):
    cfgp = write_config(tmp_path)
    out = str(tmp_path / "envout")
    monkeypatch.setenv("PULLBACK_LAB_OUT", out)
    assert main(["run", "--config", cfgp, "--tol", "max_iters=40",
                 "--tol", "eps_P=1e-6"]) == 0
    report = read_json(os.path.join(out, "cheb.report.json"))
    assert report["steps"] <= 120  # certification tail included
    # --out wins over the environment variable
    os.remove(os.path.join(out, "cheb.report.json"))
    flag_out = str(tmp_path / "flagout")
    assert main(["run", "--config", cfgp, "--tol", "max_iters=40",
                 "--out", flag_out]) == 0
    assert os.path.exists(os.path.join(flag_out, "cheb.report.json"))
    assert not os.path.exists(os.path.join(out, "cheb.report.json"))


def test_batch_flag(tmp_path):
    write_config(tmp_path, cfgname="a")
    write_config(tmp_path, cfgname="b")
    out = str(tmp_path / "out")
    assert main(["run", "--batch", str(tmp_path / "*.json"),
                 "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "a.report.json"))
    assert os.path.exists(os.path.join(out, "b.report.json"))


def test_check_composed_run_and_functoriality(tmp_path):
    base_cfg = write_config(tmp_path, cfgname="base")
    comp_cfg = write_config(tmp_path, cfgname="comp", compose_iterate=2)
    out = str(tmp_path / "out")
    assert main(["run", "--config", base_cfg, "--out", out]) == 0
    assert main(["run", "--config", comp_cfg, "--out", out]) == 0
    # the composed trace verifies against the iterated map (that its
    # positions subsample the base run's is test_functoriality_subsampling)
    assert main(["check",
                 "--trace", os.path.join(out, "comp.trace.jsonl"),
                 "--cert", os.path.join(out, "comp.certificate.json")]) == 0


def test_console_script_version():
    proc = subprocess.run([sys.executable, "-m", "pullbacklab.cli",
                           "--version"], capture_output=True, text=True)
    assert proc.returncode == 0


DEMO_CONFIGS = sorted(glob.glob(os.path.join(
    os.path.dirname(pullbacklab.__file__), "demo_configs", "*.json")))


@pytest.fixture(scope="module")
def corpus_out(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("corpus"))
    for path in DEMO_CONFIGS:
        assert main(["run", "--config", path, "--out", out]) == 0
    return out


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=os.path.basename)
def test_classify_without_report_matches_run(corpus_out, path, capsys):
    name = os.path.splitext(os.path.basename(path))[0]
    report = read_json(os.path.join(corpus_out, name + ".report.json"))
    capsys.readouterr()
    assert main(["classify", "--config", path, "--trace",
                 os.path.join(corpus_out, name + ".trace.jsonl")]) == 0
    assert capsys.readouterr().out == json.dumps(
        report["classification"], sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=os.path.basename)
def test_certification_tail_records_are_full(corpus_out, path):
    name = os.path.splitext(os.path.basename(path))[0]
    report = read_json(os.path.join(corpus_out, name + ".report.json"))
    lines = pathlib.Path(corpus_out, name + ".trace.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert [rec["n"] for rec in records] == list(range(report["steps"] + 1))
    for rec in records[report["status"]["steps"] + 1:]:
        assert "tail" not in rec
        for key in ("step_bound", "lift_residual", "path_nodes",
                    "diagram_residual"):
            assert rec[key] is not None, (rec["n"], key)
    if report["certificate"] is not None:
        base = os.path.join(corpus_out, name)
        check = ["check", "--trace", base + ".trace.jsonl",
                 "--cert", base + ".certificate.json"]
        assert main(check) == 0
        assert main(check + ["--report", base + ".report.json"]) == 0


def test_check_judges_with_the_runs_tolerances(tmp_path):
    # a run with a looser eps_P stops earlier; check rebuilds its run with
    # the tolerances the certificate stores, so the stored trace's
    # stopping step is the report's, not the config's default one
    from pullbacklab.cli import (_build_run, _read_trace, _stored_status,
                                 artifact_config, parse_config)
    config = [p for p in DEMO_CONFIGS if p.endswith("squaring_b.json")][0]
    out = str(tmp_path)
    assert main(["run", "--config", config, "--tol", "eps_P=1e-3",
                 "--out", out]) == 0
    base = os.path.join(out, "squaring_b")
    report = read_json(base + ".report.json")
    payload = read_json(base + ".certificate.json")
    assert report["status"]["steps"] == 10
    records = _read_trace(base + ".trace.jsonl")
    run = _build_run(artifact_config(payload))
    assert run.tol.eps_P == 1e-3
    assert _stored_status(records, run)[1].steps == 10
    # the config alone carries the default eps_P, which fires later
    default = _build_run(parse_config(payload["run_config"]))
    assert _stored_status(records, default)[1].steps > 10
    assert main(["check", "--trace", base + ".trace.jsonl",
                 "--cert", base + ".certificate.json",
                 "--report", base + ".report.json"]) == 0
    # a stored fixed tolerance other than the engine's does not rebuild
    for kind, argv in (("certificate", ["check", "--cert"]),
                       ("report", ["classify", "--report"])):
        payload = read_json("%s.%s.json" % (base, kind))
        payload["tolerances"]["eps_sep"] = 1e-3
        pathlib.Path(base + ".changed.json").write_text(json.dumps(payload))
        assert main(argv + [base + ".changed.json",
                            "--trace", base + ".trace.jsonl"]) == 2


def test_parser_is_built_once_and_keeps_no_options(tmp_path, monkeypatch):
    from pullbacklab import cli
    assert cli.build_parser() is cli.build_parser()
    seen = []

    def record(args):
        seen.append(args)
        return 0
    monkeypatch.setattr(cli, "cmd_run", record)
    cfgp = write_config(tmp_path)
    assert main(["run", "--config", cfgp, "--tol", "eps_P=1e-3"]) == 0
    assert main(["run", "--config", cfgp]) == 0
    assert seen[0].tol == [("eps_P", "1e-3")]
    assert seen[1].tol == []


def _write_records(path, records):
    pathlib.Path(path).write_text("".join(
        json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
        for rec in records))


def _stored_records(out, name):
    return [json.loads(line) for line in pathlib.Path(
        out, name + ".trace.jsonl").read_text().splitlines()]


def _realized_branch(records, out):
    # the realized branch of the same map, stepped as far as the
    # chebyshev certificate
    from pullbacklab.cli import _build_run
    run = _build_run(load_config(
        [p for p in DEMO_CONFIGS if p.endswith("chebyshev_realized.json")][0]))
    stepped = [run.trace_record()]
    while run.n < records[-1]["n"]:
        run.pullback_step()
        stepped.append(run.trace_record())
    return stepped


def _lower_dist_log10(records, out):
    records[5]["points"]["m0"]["dist_log10"]["p0"] -= 3.0
    return records


def _move_position(records, out):
    records[2]["points"]["m0"]["value"][0] += 1e-6
    return records


# (case, the stored trace for the chebyshev certificate as an edit of its
# own records, the report passed to check or None, check's exit status);
# each trace's digest is rewritten into the certificate
TRACE_TAMPER_ROWS = [
    ("genuine_with_report", lambda records, out: records, "chebyshev", 0),
    ("realized_trace_and_report",
     lambda records, out: _stored_records(out, "chebyshev_realized"),
     "chebyshev_realized", 1),
    ("realized_branch_same_steps", _realized_branch, None, 1),
    ("last_record_dropped", lambda records, out: records[:-1], None, 1),
    ("dist_log10_lowered_at_5", _lower_dist_log10, None, 1),
    ("last_record_duplicated", lambda records, out: records + records[-1:],
     None, 1),
    ("position_moved_at_2", _move_position, None, 1),
]


@pytest.mark.parametrize("row", TRACE_TAMPER_ROWS, ids=lambda r: r[0])
def test_check_ties_the_trace_to_the_restepped_run(corpus_out, tmp_path, row):
    _, edit, report_name, want = row
    payload = read_json(os.path.join(corpus_out, "chebyshev.certificate.json"))
    trace = str(tmp_path / "stored.trace.jsonl")
    _write_records(trace, edit(_stored_records(corpus_out, "chebyshev"),
                               corpus_out))
    payload["trace_digest"] = hashlib.sha256(
        pathlib.Path(trace).read_bytes()).hexdigest()
    cert = str(tmp_path / "stored.certificate.json")
    pathlib.Path(cert).write_text(json.dumps(payload))
    argv = ["check", "--trace", trace, "--cert", cert]
    if report_name is not None:
        argv += ["--report", os.path.join(corpus_out,
                                          report_name + ".report.json")]
    assert main(argv) == want


def test_trace_lines_must_be_json_objects(corpus_out, tmp_path, capsys):
    trace = tmp_path / "list.trace.jsonl"
    trace.write_text(json.dumps({"n": 0}) + "\n[1, 2]\n")
    base = os.path.join(corpus_out, "chebyshev")
    for argv in (["check", "--cert", base + ".certificate.json"],
                 ["classify", "--report", base + ".report.json"]):
        capsys.readouterr()
        assert main(argv + ["--trace", str(trace)]) == 2
        assert capsys.readouterr().err == \
            "invalid config/input: trace line must be dict, not [1, 2]\n"


def test_check_report_accepts_every_corpus_certificate(corpus_out):
    certs = sorted(glob.glob(os.path.join(corpus_out, "*.certificate.json")))
    assert [os.path.basename(c).split(".")[0] for c in certs] == [
        "chebyshev", "iterate_composition", "squaring_a", "squaring_b"]
    for cert in certs:
        base = cert[:-len(".certificate.json")]
        assert main(["check", "--trace", base + ".trace.jsonl", "--cert", cert,
                     "--report", base + ".report.json"]) == 0, base


# (demo config, exit status, start of stderr) of ``certify``
CERTIFY_OUTCOMES = [
    ("chebyshev", 0, ""),
    ("basilica", 3,
     "numerical failure: run is not obstructed; nothing to certify\n"),
    ("squaring_c", 3,
     "numerical failure: no certificate emitted: cluster scale "),
]


@pytest.mark.parametrize("row", CERTIFY_OUTCOMES, ids=lambda r: r[0])
def test_certify_requires_a_certificate(tmp_path, capsys, row):
    name, status, err = row
    out = str(tmp_path / "out")
    assert main(["certify", "--config", os.path.join(
        os.path.dirname(DEMO_CONFIGS[0]), name + ".json"),
        "--out", out]) == status
    stderr = capsys.readouterr().err
    assert stderr.startswith(err) and (status or stderr == "")
    if status:
        assert os.listdir(out) == []
        return
    base = os.path.join(out, name)
    assert main(["check", "--trace", base + ".trace.jsonl",
                 "--cert", base + ".certificate.json",
                 "--report", base + ".report.json"]) == 0


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=os.path.basename)
def test_stored_trace_replays_against_its_rebuilt_run(corpus_out, path):
    # every stored record, trivial points included, is its rebuilt run's
    # record at that step; a last-bit change in one float is within the
    # comparison's tolerance
    from pullbacklab.cli import _build_run, _read_trace, _replay_mismatches
    name = os.path.splitext(os.path.basename(path))[0]
    records = _read_trace(os.path.join(corpus_out, name + ".trace.jsonl"))
    assert _replay_mismatches(records, _build_run(load_config(path))) == []
    entry = records[-1]["points"]["m0"]
    key = "value" if entry["mode"] == "free" else "eta"
    entry[key][0] = math.nextafter(entry[key][0], math.inf)
    assert _replay_mismatches(records, _build_run(load_config(path))) == []
    entry[key][0] += 1e-9 * max(1.0, abs(entry[key][0]))
    assert len(_replay_mismatches(records, _build_run(load_config(path)))) \
        == 1


def _set(keys, value):
    def edit(payload):
        target = payload
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return payload
    return edit


# (case, an edit of the chebyshev certificate, the field the error names)
MISTYPED_FIELDS = [
    ("step_string", _set(("step",), "116"), "step"),
    ("k_float", _set(("k",), 1.0), "k"),
    ("log_rin_string", _set(("annulus", "log_rin"), "x"), "annulus log_rin"),
    ("step_bool", _set(("step",), True), "step"),
    ("curve_node_string",
     _set(("representative_curves", 0, "nodes", 0), ["a", 0]),
     "representative_curves[0] node item"),
    ("curve_nodes_int", _set(("representative_curves", 0, "nodes"), 7),
     "representative_curves[0] nodes"),
    ("curves_int", _set(("representative_curves",), 3),
     "representative_curves"),
    ("curves_of_ints", _set(("representative_curves",), [5, 6]),
     "representative_curves[0]"),
    ("cluster_labels_int", _set(("cluster_labels",), 5), "cluster_labels"),
    ("curve_windings_int", _set(("curve_windings",), 5), "curve_windings"),
    ("curve_windings_string", _set(("curve_windings",), "ab"),
     "curve_windings"),
    ("enclosed_labels_int", _set(("curve_enclosed_labels",), 5),
     "curve_enclosed_labels"),
    ("annulus_list", _set(("annulus",), [1]), "annulus"),
    ("tolerances_list", _set(("tolerances",), [1]), "tolerances"),
    ("tolerance_list", _set(("tolerances", "K"), [1]), "tolerances item"),
    ("top_level_list", lambda payload: [payload],
     "mistyped.certificate.json"),
    # a JSON integer past double range is refused where it is read
    ("d0_bound_huge_int", _set(("d0_bound",), 10 ** 400), "d0_bound"),
    ("log_rin_huge_int", _set(("annulus", "log_rin"), 10 ** 400),
     "annulus log_rin"),
]


@pytest.mark.parametrize("row", MISTYPED_FIELDS, ids=lambda r: r[0])
def test_check_rejects_mistyped_certificate_fields(corpus_out, tmp_path,
                                                   row, capsys):
    _, edit, field = row
    payload = edit(read_json(os.path.join(corpus_out,
                                          "chebyshev.certificate.json")))
    cert = str(tmp_path / "mistyped.certificate.json")
    pathlib.Path(cert).write_text(json.dumps(payload))
    trace = os.path.join(corpus_out, "chebyshev.trace.jsonl")
    capsys.readouterr()
    assert main(["check", "--trace", trace, "--cert", cert]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config/input: %s must be " % field), err


# (case, an edit of the chebyshev certificate, how the report line starts):
# each stored number overflows double range if check feeds it to a formula
OVERFLOWING_FIELDS = [
    ("k_2000", _set(("k",), 2000), "k mismatch"),
    ("d0_bound_1e6", _set(("d0_bound",), 1e6), "d0 bound mismatch"),
    ("log_rout_1000", _set(("annulus", "log_rout"), 1000.0),
     "modulus mismatch"),
]


@pytest.mark.parametrize("row", OVERFLOWING_FIELDS, ids=lambda r: r[0])
def test_check_fails_overflowing_certificate_fields(corpus_out, tmp_path,
                                                    row, capsys):
    _, edit, message = row
    payload = edit(read_json(os.path.join(corpus_out,
                                          "chebyshev.certificate.json")))
    cert = str(tmp_path / "overflowing.certificate.json")
    pathlib.Path(cert).write_text(json.dumps(payload))
    trace = os.path.join(corpus_out, "chebyshev.trace.jsonl")
    capsys.readouterr()
    assert main(["check", "--trace", trace, "--cert", cert]) == 1
    out, err = capsys.readouterr()
    assert "\nCHECK FAIL: " + message in "\n" + out and err == "", (out, err)


# (case, an edit of record 3 of the chebyshev trace, how the message starts)
MISTYPED_RECORDS = [
    ("points_list", _set(("points",), [1]),
     "trace record n=3 points must be dict"),
    ("dist_log10_string", _set(("points", "m0", "dist_log10", "p0"), "x"),
     "trace record n=3 point m0 dist_log10 item must be float"),
    # a chordal distance is at most 2, so no stored log10 may exceed log10 2
    ("dist_log10", _set(("points", "m0", "dist_log10", "p0"), 1e300),
     "trace record n=3 point m0 dist_log10 item must be at most log10(2)"),
    ("min_dist_log10", _set(("min_dist_log10", "p0"), 1e300),
     "trace record n=3 min_dist_log10 item must be at most log10(2)"),
]


@pytest.mark.parametrize("command", ["classify", "check"])
@pytest.mark.parametrize("row", MISTYPED_RECORDS, ids=lambda r: r[0])
def test_stored_verdict_rejects_mistyped_trace_records(corpus_out, tmp_path,
                                                        row, command, capsys):
    _, edit, message = row
    base = os.path.join(corpus_out, "chebyshev")
    lines = pathlib.Path(base + ".trace.jsonl").read_text().splitlines()
    lines[3] = json.dumps(edit(json.loads(lines[3])))
    trace = str(tmp_path / "mistyped.trace.jsonl")
    pathlib.Path(trace).write_text("\n".join(lines) + "\n")
    argv = {"classify": ["classify"],
            "check": ["check", "--cert", base + ".certificate.json"]}[command]
    capsys.readouterr()
    assert main(argv + ["--trace", trace,
                        "--report", base + ".report.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config/input: " + message), err


# (case, an edit of the chebyshev report, the field the message names)
REPORT_EDITS = [
    ("trace_digest", _set(("trace_digest",), "0" * 64), "trace_digest"),
    ("run_config", _set(("run_config", "max_iters"), 1999),
     "run_config max_iters"),
    ("tolerances", _set(("tolerances", "eps_P"), 1e-3), "tolerances eps_P"),
    ("puncture", _set(("classification", "puncture"), [123, 0]),
     "classification puncture"),
    ("rate_estimate", _set(("classification", "rate_estimate"), 0.9),
     "classification rate_estimate"),
    ("steps", _set(("steps",), 7), "steps"),
    ("status_steps", _set(("status", "steps"), 3), "status steps"),
    ("another_configs_report", None, "trace_digest"),
]


@pytest.mark.parametrize("row", REPORT_EDITS, ids=lambda r: r[0])
def test_check_report_must_belong_to_the_trace(corpus_out, tmp_path, row,
                                               capsys):
    _, edit, field = row
    base = os.path.join(corpus_out, "chebyshev")
    if edit is None:
        report = read_json(os.path.join(corpus_out, "squaring_a.report.json"))
    else:
        report = edit(read_json(base + ".report.json"))
    path = str(tmp_path / "edited.report.json")
    pathlib.Path(path).write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["check", "--trace", base + ".trace.jsonl",
                 "--cert", base + ".certificate.json", "--report", path]) == 1
    out = capsys.readouterr().out
    assert "\nCHECK FAIL: report %s mismatch: " % field in "\n" + out, out


SRC_DIR = os.path.dirname(os.path.dirname(
    os.path.abspath(pullbacklab.__file__)))


def _python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_importing_the_cli_does_not_load_numpy():
    proc = _python("import sys, pullbacklab.cli; "
                   "sys.exit('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def _without_timing(path):
    report = read_json(path)
    del report["timing_s"]
    return report


def test_realized_run_and_analyze_need_no_numpy(corpus_out, tmp_path):
    # numpy = None in sys.modules makes any import of it fail
    out = str(tmp_path / "no_numpy")
    basilica, chebyshev = (
        [p for p in DEMO_CONFIGS if p.endswith(name + ".json")][0]
        for name in ("basilica", "chebyshev"))
    proc = _python(
        "import sys; sys.modules['numpy'] = None\n"
        "from pullbacklab import cli\n"
        "out, basilica, chebyshev = sys.argv[1:]\n"
        "assert cli.main(['run', '--config', basilica, '--out', out]) == 0\n"
        "assert cli.main(['analyze', '--config', chebyshev,\n"
        "                 '--out', out]) == 0",
        out, basilica, chebyshev)
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(out)) == ["basilica.report.json",
                                       "basilica.trace.jsonl",
                                       "chebyshev.analysis.json"]
    normal = str(tmp_path / "normal")
    assert main(["analyze", "--config", chebyshev, "--out", normal]) == 0
    assert pathlib.Path(out, "chebyshev.analysis.json").read_bytes() == \
        pathlib.Path(normal, "chebyshev.analysis.json").read_bytes()
    assert pathlib.Path(out, "basilica.trace.jsonl").read_bytes() == \
        pathlib.Path(corpus_out, "basilica.trace.jsonl").read_bytes()
    assert _without_timing(os.path.join(out, "basilica.report.json")) == \
        _without_timing(os.path.join(corpus_out, "basilica.report.json"))


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=os.path.basename)
def test_classify_from_the_report_alone_matches_run(corpus_out, path, capsys):
    name = os.path.splitext(os.path.basename(path))[0]
    base = os.path.join(corpus_out, name)
    report = read_json(base + ".report.json")
    capsys.readouterr()
    assert main(["classify", "--trace", base + ".trace.jsonl",
                 "--report", base + ".report.json"]) == 0
    assert capsys.readouterr().out == json.dumps(
        report["classification"], sort_keys=True, indent=1) + "\n"


def test_classify_from_the_report_uses_the_runs_tolerances(tmp_path, capsys):
    # the config alone carries the default eps_P, whose stopping step and
    # rate estimate differ from the run's
    config = [p for p in DEMO_CONFIGS if p.endswith("squaring_b.json")][0]
    out = str(tmp_path)
    assert main(["run", "--config", config, "--tol", "eps_P=1e-3",
                 "--out", out]) == 0
    base = os.path.join(out, "squaring_b")
    report = read_json(base + ".report.json")
    assert report["tolerances"]["eps_P"] == 1e-3
    want = json.dumps(report["classification"], sort_keys=True, indent=1)
    capsys.readouterr()
    assert main(["classify", "--trace", base + ".trace.jsonl",
                 "--report", base + ".report.json"]) == 0
    assert capsys.readouterr().out == want + "\n"
    assert main(["classify", "--trace", base + ".trace.jsonl",
                 "--config", config]) == 0
    from_config = capsys.readouterr().out
    assert from_config != want + "\n"
    # --tol overrides the stored tolerances
    assert main(["classify", "--trace", base + ".trace.jsonl",
                 "--report", base + ".report.json",
                 "--tol", "eps_P=1e-8"]) == 0
    assert capsys.readouterr().out == from_config


def test_report_tolerances_are_the_runs(corpus_out):
    for path in DEMO_CONFIGS:
        base = os.path.join(corpus_out,
                            os.path.splitext(os.path.basename(path))[0])
        report = read_json(base + ".report.json")
        assert report["tolerances"] == load_config(path)["tol"].to_json()
        if report["certificate"] is not None:
            cert = read_json(base + ".certificate.json")
            assert report["tolerances"] == cert["tolerances"]


# argv lists with a flag the subcommand does not read, or without exactly
# one source of configs
UNREAD_FLAGS = [
    ("classify_out", ["classify", "--trace", "t", "--config", "c",
                      "--out", "o"]),
    ("classify_batch", ["classify", "--trace", "t", "--batch", "*.json"]),
    ("classify_config_and_report", ["classify", "--trace", "t",
                                    "--config", "c", "--report", "r"]),
    ("demo_batch", ["demo", "--batch", "*.json"]),
    ("run_without_config", ["run", "--out", "o"]),
    ("run_config_and_batch", ["run", "--config", "c", "--batch", "*.json"]),
    ("analyze_tol", ["analyze", "--config", "c", "--tol", "eps_P=1e-3"]),
    ("analyze_max_iters", ["analyze", "--config", "c", "--max-iters", "5"]),
    ("run_max_iters", ["run", "--config", "c", "--max-iters", "5"]),
    ("certify_max_iters", ["certify", "--config", "c", "--max-iters", "5"]),
    ("classify_max_iters", ["classify", "--trace", "t", "--config", "c",
                            "--max-iters", "5"]),
    ("demo_max_iters", ["demo", "--max-iters", "5"]),
    ("check_base_trace", ["check", "--trace", "t", "--cert", "c",
                          "--base-trace", "b"]),
]


@pytest.mark.parametrize("row", UNREAD_FLAGS, ids=lambda r: r[0])
def test_subcommands_take_only_the_flags_they_read(row, capsys):
    with pytest.raises(SystemExit) as exc:
        main(row[1])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_batch_goes_on_after_a_numerical_failure(tmp_path, capsys):
    # z^2 + 0.3 sorts first and fails in its postsingular analysis
    failing = write_config(
        tmp_path, cfgname="a",
        map={"numerator": [[0.3, 0], [0, 0], [1, 0]],
             "denominator": [[1, 0]]},
        marked=[{"type": "fixed", "basepoint": [0.0, 0.0],
                 "branch_point": [0.0, math.sqrt(0.3)]}])
    write_config(tmp_path, cfgname="b")
    out = str(tmp_path / "out")
    assert main(["run", "--batch", str(tmp_path / "*.json"),
                 "--out", out]) == 3
    assert sorted(os.listdir(out)) == ["b.certificate.json", "b.report.json",
                                       "b.trace.jsonl"]
    assert "numerical failure: %s: orbit points" % failing in \
        capsys.readouterr().err


BAD_DELTA = [{"type": "fixed", "basepoint": [0.0, 0.0],
              "branch_point": [math.sqrt(2), 0.0],
              "delta": [[0.0, 0.0], [1.0, 0.0]]}]


@pytest.mark.parametrize("m", [1, 2])
def test_delta_off_its_branch_point_is_invalid_input(tmp_path, capsys, m):
    # delta ends at 1, not at b' = sqrt(2): invalid input whether or not
    # the run composes iterates, which would lift delta first
    cfgp = write_config(tmp_path, marked=BAD_DELTA, compose_iterate=m)
    assert main(["run", "--config", cfgp,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        "invalid config/input: delta must run from b to b'\n"


def test_batch_ends_at_an_invalid_branch_datum(tmp_path, capsys):
    write_config(tmp_path, cfgname="a", marked=BAD_DELTA)
    write_config(tmp_path, cfgname="b")
    out = tmp_path / "out"
    assert main(["run", "--batch", str(tmp_path / "*.json"),
                 "--out", str(out)]) == 2
    assert not out.exists() or os.listdir(out) == []
    assert capsys.readouterr().err == \
        "invalid config/input: delta must run from b to b'\n"


def test_batch_ends_at_a_basepoint_on_a_puncture(tmp_path, capsys):
    write_config(tmp_path, cfgname="a",
                 marked=[{"type": "fixed", "basepoint": [2.0, 0.0],
                          "branch_point": [2.0, 0.0]}])
    write_config(tmp_path, cfgname="b")
    out = tmp_path / "out"
    assert main(["run", "--batch", str(tmp_path / "*.json"),
                 "--out", str(out)]) == 2
    assert not out.exists() or os.listdir(out) == []
    assert capsys.readouterr().err == \
        "invalid config/input: basepoint lies on a puncture\n"
