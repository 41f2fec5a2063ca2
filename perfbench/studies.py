"""The benchmark's paper studies: seeded inputs, one study pass each,
and the output check every pass must satisfy.

A *pass* runs one whole study through the public ``repro.experiments``
API, as the CLI does with its default ``jobs=1``: one client, serial, in
this process.  Its *output* is a plain structure of ints, floats and
lists, so that warm, traced and repeated passes compare for exact
equality.

Seed 0 gives the paper's inputs; its outputs are checked against the
values pinned in ``reference.json``.  Every seed is checked by the search
certificate (:func:`certify`), by warm output == cold output, and by
every cold pass of a run giving the same output.
"""

from __future__ import annotations

import json
import math
import random
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.apps.gaussian import GE_COMPUTE_EFFICIENCY
from repro.apps.matmul import MM_COMPUTE_EFFICIENCY
from repro.experiments import figures, sweep, tables
from repro.experiments.executor import RunCache, SweepExecutor, sweep_execution
from repro.experiments.runner import marked_speed_of, run_app
from repro.machine.cluster import ClusterSpec
from repro.machine.sunwulf import ge_configuration, mm_configuration

#: The searches' relative precision (``required_rank_hybrid``'s default).
RTOL = 0.01
#: Largest relative move of a pinned psi when every rank moves by at most
#: RTOL: W grows as N^3 for both GE and MM, and psi is a ratio of two W.
PSI_RTOL = (1.0 + RTOL) ** 6 - 1.0
#: Figure 2's trend-read sizes come from fixed-size runs and a polynomial
#: fit; only floating-point noise of the fit may move them.
TREND_RTOL = 1e-9
#: The seed that reproduces the paper's inputs.
DEFAULT_SEED = 0

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Inputs:
    """Everything a study pass is given.  Generated from the seed."""

    nodes: tuple[int, ...]
    target: float


def _jitter(seed: int) -> float:
    """A seeded draw in [-1, 1]; exactly 0 for the default seed."""
    if seed == DEFAULT_SEED:
        return 0.0
    return random.Random(seed).uniform(-1.0, 1.0)


# -- study passes ---------------------------------------------------------------

def _rows_output(rows: list[tables.RequiredRankRow], curve) -> dict[str, Any]:
    return {
        "rows": [
            [r.nodes, r.nranks, r.rank_n, r.workload, r.marked_speed,
             r.efficiency]
            for r in rows
        ],
        "psi": [p.psi for p in curve.points],
    }


def _curve_output(curve: sweep.EfficiencyCurve) -> list[list[float]]:
    return [
        [r.measurement.problem_size, r.speed_efficiency, r.measurement.time,
         r.run.events]
        for r in curve.records
    ]


def ge_search_pass(inputs: Inputs, cache_dir: Path) -> dict[str, Any]:
    """GE Tables 3/4: the required-rank search on each node count, with the
    default serial executor and a run cache at ``cache_dir``."""
    with sweep_execution(SweepExecutor(cache=RunCache(cache_dir))):
        rows = tables.table3_required_rank(
            node_counts=inputs.nodes, target=inputs.target
        )
        curve = tables.table4_ge_scalability(rows)
    return _rows_output(rows, curve)


def mm_study_pass(inputs: Inputs, cache_dir: Path) -> dict[str, Any]:
    """The full MM study: the Table 5 search plus the Figure 2 curves."""
    with sweep_execution(SweepExecutor(cache=RunCache(cache_dir))):
        rows = tables.table5_mm_required_rank(
            node_counts=inputs.nodes, target=inputs.target
        )
        curve = tables.table5_mm_scalability(rows)
        figure = figures.figure2_mm_curves(
            node_counts=inputs.nodes, target=inputs.target
        )
    out = _rows_output(rows, curve)
    out["trend_sizes"] = [
        [label, size] for label, size in figure.required_sizes().items()
    ]
    out["curves"] = [[s.label, _curve_output(s.curve)] for s in figure.series]
    return out


@dataclass(frozen=True)
class Study:
    """One benchmark workload."""

    name: str
    make_inputs: Callable[[int], Inputs]
    run_pass: Callable[[Inputs, Path], dict[str, Any]]
    app: str
    compute_efficiency: float
    configuration: Callable[[int], ClusterSpec]

    def setup(self, inputs: Inputs) -> None:
        """What a study needs before its first pass: the marked speed of
        every configuration and the base-case machine-parameter fit."""
        for nodes in inputs.nodes:
            marked_speed_of(self.configuration(nodes))
        tables.base_machine_parameters(
            self.configuration(2), self.compute_efficiency
        )


def _ge_search_inputs(seed: int) -> Inputs:
    return Inputs(
        nodes=(2, 4, 8),
        target=tables.GE_TARGET_EFFICIENCY + 0.005 * _jitter(seed),
    )


def _mm_study_inputs(seed: int) -> Inputs:
    return Inputs(
        nodes=(2, 4, 8, 16, 32),
        target=tables.MM_TARGET_EFFICIENCY + 0.005 * _jitter(seed),
    )


STUDIES: dict[str, Study] = {
    "ge-search": Study(
        name="ge-search",
        make_inputs=_ge_search_inputs,
        run_pass=ge_search_pass,
        app="ge",
        compute_efficiency=GE_COMPUTE_EFFICIENCY,
        configuration=ge_configuration,
    ),
    "mm-study": Study(
        name="mm-study",
        make_inputs=_mm_study_inputs,
        run_pass=mm_study_pass,
        app="mm",
        compute_efficiency=MM_COMPUTE_EFFICIENCY,
        configuration=mm_configuration,
    ),
}


# -- output checks ----------------------------------------------------------------

@contextmanager
def recording_probes() -> Iterator[dict[str, dict[int, float]]]:
    """Record every search probe at the ``run_points`` boundary.

    Yields ``{cluster name: {N: E_S}}``, filled by points that
    ``required_rank_hybrid`` evaluates (curve points are not probes).
    """
    probes: dict[str, dict[int, float]] = defaultdict(dict)
    searching: list[str] = []
    run_points = SweepExecutor.run_points
    search = tables.required_rank_hybrid

    def recorded_run_points(self, points):
        records = run_points(self, points)
        if searching:
            for point, record in zip(points, records):
                probes[point.cluster.name][point.n] = record.speed_efficiency
        return records

    def recorded_search(app, cluster, *args, **kwargs):
        searching.append(cluster.name)
        try:
            return search(app, cluster, *args, **kwargs)
        finally:
            searching.pop()

    SweepExecutor.run_points = recorded_run_points
    tables.required_rank_hybrid = recorded_search
    try:
        yield probes
    finally:
        SweepExecutor.run_points = run_points
        tables.required_rank_hybrid = search


def reference_of(study: Study, output: dict[str, Any]) -> dict[str, Any]:
    """The values a default-seed output pins, in ``reference.json`` form.

    To re-pin after a deliberate change of results::

        {name: reference_of(study, output) for each study at seed 0}
    """
    pins = {"ranks": [row[2] for row in output["rows"]],
            "psi": list(output["psi"])}
    if "trend_sizes" in output:
        pins["trend_sizes"] = [list(pair) for pair in output["trend_sizes"]]
    return pins


def load_reference() -> dict[str, Any]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def check_reference(
    study: Study, output: dict[str, Any], reference: dict[str, Any]
) -> list[str]:
    """Problems of a default-seed output against the pinned values."""
    ref = reference[study.name]
    problems: list[str] = []
    ranks = [row[2] for row in output["rows"]]
    if len(ranks) != len(ref["ranks"]):
        return [f"{len(ranks)} ranks, pinned {len(ref['ranks'])}"]
    for got, want in zip(ranks, ref["ranks"]):
        if _rel(got, want) > RTOL:
            problems.append(f"rank {got} is more than {RTOL:.0%} from {want}")
    for got, want in zip(output["psi"], ref["psi"]):
        if _rel(got, want) > PSI_RTOL:
            problems.append(f"psi {got!r} is too far from {want!r}")
    if "trend_sizes" in ref:
        got = dict((label, size) for label, size in output["trend_sizes"])
        for label, want in ref["trend_sizes"]:
            if label not in got or _rel(got[label], want) > TREND_RTOL:
                problems.append(
                    f"trend-read size {label}: {got.get(label)!r} != {want!r}"
                )
    return problems


def certify(
    study: Study,
    inputs: Inputs,
    output: dict[str, Any],
    probes: dict[str, dict[int, float]],
) -> list[str]:
    """Certify every search answer ``n`` of a pass.

    ``E(n)`` is re-simulated without the cache and must reach the target
    and equal the efficiency the study reported.  One of the search's own
    probes ``m`` in ``[floor(n(1 - RTOL)), n)`` must miss the target.
    Efficiency is sawtoothed in N, so the witness is a probe the search
    actually made, not the fixed point ``floor(n(1 - RTOL))``.
    """
    problems: list[str] = []
    target = inputs.target
    for nodes, _nranks, n, _work, _marked, efficiency in output["rows"]:
        cluster = study.configuration(nodes)
        record = run_app(
            study.app, cluster, n, marked=marked_speed_of(cluster),
            compute_efficiency=study.compute_efficiency,
        )
        e_n = record.speed_efficiency
        if e_n < target:
            problems.append(f"{nodes} nodes: E({n}) = {e_n!r} < {target!r}")
        if e_n != efficiency:
            problems.append(
                f"{nodes} nodes: re-simulated E({n}) = {e_n!r}, "
                f"study reported {efficiency!r}"
            )
        floor = math.floor(n * (1.0 - RTOL))
        seen = probes.get(cluster.name, {})
        if not any(floor <= m < n and e < target for m, e in seen.items()):
            problems.append(
                f"{nodes} nodes: no probe in [{floor}, {n}) below {target!r}"
            )
    return problems


def sane(output: dict[str, Any]) -> list[str]:
    """Problems any output shows by itself: efficiencies outside (0, 1]."""
    effs = [row[5] for row in output.get("rows", ())]
    for entry in output.get("curves", ()):
        effs.extend(point[1] for point in entry[-1])
    bad = [e for e in effs if not 0.0 < e <= 1.0]
    return [f"efficiency {e!r} outside (0, 1]" for e in bad]


class Checker:
    """Counts passes and the ones whose output check fails."""

    def __init__(self, study: Study, seed: int, inputs: Inputs) -> None:
        self.study = study
        self.inputs = inputs
        self.reference = load_reference() if seed == DEFAULT_SEED else None
        self.first: dict[str, Any] | None = None
        self.probes: dict[str, dict[int, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, output: dict[str, Any], kind: str,
              probes: dict | None = None) -> None:
        """Check one pass.  The first pass is the run's reference; every
        later pass (warm, traced or another cold one) must equal it."""
        self.attempted += 1
        problems = sane(output)
        if self.first is None:
            self.first = output
            self.probes = {k: dict(v) for k, v in (probes or {}).items()}
            if self.reference is not None:
                problems += check_reference(
                    self.study, output, self.reference)
        elif output != self.first:
            problems.append(f"{kind} pass output differs from the first pass")
        if problems:
            self.failed += 1
            self.problems.extend(f"{kind}: {p}" for p in problems)

    def certify(self) -> None:
        """Certify the search answers; a failure fails every pass."""
        if self.first is None:
            return
        problems = certify(
            self.study, self.inputs, self.first, self.probes)
        if problems:
            self.failed = self.attempted
            self.problems.extend(f"certificate: {p}" for p in problems)
