"""Tests of the benchmark itself, on tiny inputs (well under a minute).

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

import hostspeed  # noqa: E402
import layers  # noqa: E402
import studies  # noqa: E402
from studies import Inputs  # noqa: E402

#: Tiny inputs of each workload: the same code paths, well under a second.
TINY = {
    "ge-search": Inputs(nodes=(2, 4), target=0.1),
    "mm-study": Inputs(nodes=(2, 4), target=0.1),
}
#: Tiny inputs have no pinned reference, so tests use a non-default seed.
SEED = 1


def _spec(kind: str) -> dict[str, str]:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _cold(name: str, cache_dir: Path) -> dict:
    return studies.STUDIES[name].run_pass(TINY[name], cache_dir)


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_are_emitted_with_units(name):
    result = run.measure(studies.STUDIES[name], TINY[name], SEED,
                         seconds=0.0, setup=[0.5])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + run.MIN_WARM
    assert _units(result) == _spec("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_are_emitted_with_units(name, tmp_path):
    result = run.trace(studies.STUDIES[name], TINY[name], SEED,
                       out_dir=tmp_path)
    assert result["correct"] and result["attempted"] == 3
    assert _units(result) == _spec("per_layer")
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["sim.engine.events"] == metrics["apps.resumes"] > 0
    assert metrics["warm.experiments.executor.cache_misses"] == 0
    artifact = json.loads(
        (tmp_path / f"trace-{name}-seed{SEED}.json").read_text())
    layers_seen = {row["layer"] for row in artifact["passes"]["cold"]["layers"]}
    assert {"sim.engine.run", "apps.generator"} <= layers_seen
    assert 0.9 < artifact["passes"]["cold"]["coverage"] <= 1.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_passes_give_identical_outputs(name, tmp_path):
    study = studies.STUDIES[name]
    plain = _cold(name, tmp_path / "plain")
    cold, warm = layers.Trace(), layers.Trace()
    with run._traced(cold, name):
        traced = _cold(name, tmp_path / "traced")
    assert traced == plain
    with run._traced(warm, name):
        replay = study.run_pass(TINY[name], tmp_path / "traced")
    assert replay == plain
    assert cold.self_times()["sim.engine.run"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_output_check_fails_a_perturbed_reference(name, tmp_path):
    study = studies.STUDIES[name]
    output = _cold(name, tmp_path)
    pins = studies.reference_of(study, output)
    assert studies.check_reference(study, output, {name: pins}) == []

    perturbed = json.loads(json.dumps(pins))
    perturbed["ranks"][-1] = round(perturbed["ranks"][-1] * 1.05)
    assert studies.check_reference(study, output, {name: perturbed})

    checker = studies.Checker(study, SEED, TINY[name])
    checker.reference = {name: perturbed}
    checker.check(output, "cold")
    assert (checker.attempted, checker.failed) == (1, 1)


def test_reference_check_covers_psi_and_trend_sizes(tmp_path):
    study = studies.STUDIES["mm-study"]
    output = _cold("mm-study", tmp_path)
    pins = studies.reference_of(study, output)
    for key, index, factor in (("psi", 0, 1.10),
                               ("trend_sizes", 0, 1.0 + 1e-6)):
        perturbed = json.loads(json.dumps(pins))
        if key == "psi":
            perturbed[key][index] *= factor
        else:
            perturbed[key][index][1] *= factor
        assert studies.check_reference(
            study, output, {"mm-study": perturbed}), key


@pytest.mark.parametrize("name", sorted(TINY))
def test_certificate_needs_a_witness_probe_and_the_target(name, tmp_path):
    study = studies.STUDIES[name]
    with studies.recording_probes() as probes:
        output = _cold(name, tmp_path)
    assert studies.certify(study, TINY[name], output, probes) == []
    assert studies.certify(study, TINY[name], output, {})
    lower = Inputs(nodes=TINY[name].nodes, target=TINY[name].target - 0.05)
    assert studies.certify(study, lower, output, probes)


def test_a_pass_that_differs_from_the_first_fails(tmp_path):
    output = _cold("mm-study", tmp_path)
    changed = json.loads(json.dumps(output))
    makespan = changed["curves"][0][1][0][2]
    changed["curves"][0][1][0][2] = math.nextafter(makespan, math.inf)
    checker = studies.Checker(
        studies.STUDIES["mm-study"], SEED, TINY["mm-study"])
    checker.check(output, "cold")
    checker.check(changed, "warm")
    assert (checker.attempted, checker.failed) == (2, 1)


def test_inputs_come_from_the_seed():
    for name, study in studies.STUDIES.items():
        assert study.make_inputs(5) == study.make_inputs(5)
    search = studies.STUDIES["ge-search"]
    mm = studies.STUDIES["mm-study"]
    assert search.make_inputs(studies.DEFAULT_SEED).target == 0.3
    assert mm.make_inputs(studies.DEFAULT_SEED).target == 0.2
    targets = {search.make_inputs(seed).target for seed in range(1, 30)}
    assert len(targets) == 29
    assert all(abs(t - 0.3) <= 0.005 for t in targets)
    assert all(abs(mm.make_inputs(seed).target - 0.2) <= 0.005
               for seed in range(1, 30))


def test_host_speed_samples_scale_and_stay_out_of_the_pass(tmp_path):
    host = hostspeed.Sampler(every_s=0.005)
    study = studies.STUDIES["mm-study"]
    with host.running():
        took, output = run._timed_pass(study, TINY["mm-study"], tmp_path,
                                       host)
    assert output == _cold("mm-study", tmp_path / "plain")
    assert len(host.samples) >= 2 and 0 < took
    assert host.spent >= sum(host.samples)
    mark = len(host.samples)
    assert len(host.since(mark)) == 1
    assert host.since(mark, least=3) == host.samples[-3:]
    assert hostspeed.scale([hostspeed.NOMINAL_S * 2]) == 0.5
    assert hostspeed.reference_work() == 16 * 40


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mm-study",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
