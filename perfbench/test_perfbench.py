"""Tests of the benchmark itself: tiny runs of each workload, span
arithmetic, wrapper restoration, seeded inputs and the output contract."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import inputs
import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _tiny(name, tmp_path):
    if name == "corpus":
        return workloads.Corpus(0, ROOT, str(tmp_path))
    if name == "deep_anchor":
        return workloads.DeepAnchor(0, blocks=2, block_steps=10)
    if name == "generated":
        return workloads.Generated(0, limit=6)
    return workloads.CertSearch(0, per_set=1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_is_correct_and_repeatable(name, tmp_path):
    workload = _tiny(name, tmp_path)
    logs = [workloads.PassLog(), workloads.PassLog()]
    for log in logs:
        workload.run_pass(log)
    outcomes = [o for log in logs for _, o in log.ops]
    assert outcomes and len(logs[0].ops) == len(logs[1].ops)
    assert not [o for o in outcomes if o.startswith("error:")]
    assert all(log.steps > 0 and min(s for s, _ in log.ops) > 0 for log in logs)


def test_known_defects_are_counted_not_hidden(tmp_path):
    log = workloads.PassLog()
    workloads.Corpus(0, ROOT, str(tmp_path)).run_pass(log)
    assert ("defect:" + workloads.DEFECT_EMISSION_FLOOR) in [o for _, o in log.ops]
    log = workloads.PassLog()
    workloads.CertSearch(0, per_set=1).run_pass(log)
    assert {o for _, o in log.ops} == {"defect:" + workloads.DEFECT_BUDGET}


def test_self_time_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 3.5, 6.0, 0),     # overlaps a: union of children is [1, 6]
        ("c", 8.0, 12.0, 0),    # runs past root's end: clipped to [8, 10]
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 4.0])


def test_best_pass_takes_each_stretch_at_its_fastest():
    first, second = workloads.PassLog(), workloads.PassLog()
    first.op(5.0, parts=(1.0, 4.0))
    second.op(5.0, parts=(3.0, 2.0))
    first.op(1.0)
    second.op(2.0)
    first.work.append(0.5)
    second.work.append(0.25)
    ops, seconds = run.best_pass([first, second])
    assert ops == [3.0, 1.0] and seconds == 4.25


def test_tracer_restores_every_wrapped_attribute():
    originals = {(owner, attr): vars(tracing._resolve(owner))[attr]
                 for _, owner, attr in tracing.TARGETS}
    workload = workloads.Generated(0, limit=3)
    with tracing.Tracer() as tracer:
        for (owner, attr), original in originals.items():
            assert vars(tracing._resolve(owner))[attr] is not original
        workload.run_pass(workloads.PassLog())
        tracer.fold()
    for (owner, attr), original in originals.items():
        assert vars(tracing._resolve(owner))[attr] is original
    assert tracer.calls["fiber.run_until"] == 3
    assert tracer.self_s["hyperbolic.path_length_upper_bound"] > 0


def test_inputs_depend_only_on_the_seed():
    for make in (inputs.generated_cases, inputs.deep_anchor_cases,
                 lambda seed: inputs.cert_search_cases(seed, 2)):
        assert inputs.digest(make(3)) == inputs.digest(make(3))
        assert inputs.digest(make(3)) != inputs.digest(make(4))


def test_generated_branch_points_are_preimages():
    for case in inputs.generated_cases(5):
        b = complex(*case["basepoint"])
        bp = complex(*case["branch_point"])
        value, _ = workloads._poly(case["numerator"], bp)
        assert abs(value - b) < 1e-9
    t3 = inputs.dickson(3)
    assert t3 == [0.0, -3.0, 0.0, 1.0]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")]
                          + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_output_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--workload", "deep_anchor", "--seed", "2", "--seconds",
                      "0.2", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        names = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_fails_without_engine_sources(tmp_path):
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    proc = _bench("--workload", "corpus", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
