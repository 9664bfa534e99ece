"""Tests of the benchmark's own checks and bookkeeping.

  python3 -m pytest -q bench

Each output check must pass on the program's real output and fail on a
corrupted copy of it.  The workloads here are shrunk copies of the
benchmark's, so the tests take seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from mpanderson import _parallel, harness, msa, spectral  # noqa: E402
from tracing import COMMON_LAYERS, TASK_LAYERS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def _shrunk(name: str, **settings) -> Workload:
    base = WORKLOADS[name]
    return Workload(name, base.why, {**base.settings, **settings})


MSA = _shrunk("msa_1d", **{"task.L_values": (2, 4), "task.energy_grid_step": 1e-2, "run.realizations": 6})
DECAY = _shrunk("decay_1d", **{"task.L": 20, "run.realizations": 2})
MOMENT = _shrunk(
    "moment_2p",
    **{"task.L": 3, "task.E_lo": 2.0, "task.E_hi": 4.0, "task.vertex_limit": 6, "run.realizations": 6},
)
SEED = 3


def _output(workload: Workload, tmp_path, seed: int = SEED) -> str:
    config = harness.parse_config(workload.config_text())
    harness.run(config, cli_seed=seed, cli_workers=1, out_override=str(tmp_path))
    return (tmp_path / f"{workload.task}.csv").read_text()


def _edit(text: str, row: int, column: int, value: str) -> str:
    """Replace one field of the row-th data row of a CSV text."""
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    fields = lines[data[row]].split(",")
    fields[column] = value
    lines[data[row]] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _fails(workload, text, seed=SEED, containing=""):
    failures, _ = checks.check_round(workload, seed, text)
    return any(containing in f for f in failures)


# -- msa ----------------------------------------------------------------------


def test_msa_check_passes_on_program_output(tmp_path):
    failures, stats = checks.check_round(MSA, SEED, _output(MSA, tmp_path))
    assert failures == []
    assert stats["undecided"] == 0


def test_msa_check_catches_a_wrong_event_count(tmp_path):
    text = _output(MSA, tmp_path)
    R = MSA.realizations
    estimate = float(text.splitlines()[-1].split(",")[3])
    hits = round(estimate * R)
    hits = hits + 1 if hits < R else hits - 1
    lo, hi = checks.wilson(hits, R)
    for column, value in ((3, hits / R), (4, lo), (5, hi)):
        text = _edit(text, 1, column, f"{value:.17g}")
    # the interval is consistent with the corrupted estimate: only the events differ
    failures, _ = checks.check_round(MSA, SEED, text)
    assert [f for f in failures if "events" in f] == failures != []


@pytest.mark.parametrize("column, value, message", [(5, "0.999", "Wilson"), (6, "1e-3", "target"), (8, "17", "probe")])
def test_msa_check_catches_corrupted_columns(tmp_path, column, value, message):
    assert _fails(MSA, _edit(_output(MSA, tmp_path), 0, column, value), containing=message)


def test_msa_check_catches_a_wrong_seed(tmp_path):
    assert _fails(MSA, _output(MSA, tmp_path), seed=SEED + 1)


# -- decay --------------------------------------------------------------------


def test_decay_check_passes_on_program_output(tmp_path):
    failures, stats = checks.check_round(DECAY, SEED, _output(DECAY, tmp_path))
    assert failures == []
    assert stats["fits_compared"] > 0


def test_decay_check_catches_a_missing_row(tmp_path):
    text = _output(DECAY, tmp_path)
    assert _fails(DECAY, "\n".join(text.splitlines()[:-1]) + "\n", containing="rows")


def test_decay_check_catches_a_wrong_eigenvalue(tmp_path):
    text = _output(DECAY, tmp_path)
    energy = float(text.splitlines()[5].split(",")[2])
    assert _fails(DECAY, _edit(text, 3, 2, repr(energy + 1e-6)), containing="trace")


def test_decay_check_catches_a_wrong_fit(tmp_path):
    text = _output(DECAY, tmp_path)
    row = next(i for i, line in enumerate(checks._data_rows(text)) if line[6] == "ok")
    rate = float(checks._data_rows(text)[row][3])
    assert _fails(DECAY, _edit(text, row, 3, repr(rate * (1 + 1e-6))), containing="rate")


def test_decay_check_catches_slow_decay(tmp_path):
    text = _output(DECAY, tmp_path)
    for row in range(len(checks._data_rows(text))):
        text = _edit(text, row, 3, "0.1")
    assert _fails(DECAY, text, containing="median rate")


# -- moment -------------------------------------------------------------------


def test_moment_check_passes_on_program_output(tmp_path):
    text = _output(MOMENT, tmp_path)
    failures, stats = checks.check_round(MOMENT, SEED, text)
    assert failures == []
    methods = {row[3] for row in checks._data_rows(text)}
    assert methods == {"ExactVertex", "UpperBound"}
    assert stats["exact_compared"] > 0


def test_moment_check_catches_a_negative_value(tmp_path):
    assert _fails(MOMENT, _edit(_output(MOMENT, tmp_path), 0, 2, "-1e-3"), containing="< 0")


def test_moment_check_catches_a_wrong_header_mean(tmp_path):
    text = _output(MOMENT, tmp_path).replace("# disorder-averaged mean = ", "# disorder-averaged mean = 1")
    assert _fails(MOMENT, text, containing="header mean")


def test_moment_check_catches_a_wrong_method(tmp_path):
    text = _output(MOMENT, tmp_path)
    method = checks._data_rows(text)[0][3]
    other = "UpperBound" if method == "ExactVertex" else "ExactVertex"
    assert _fails(MOMENT, _edit(text, 0, 3, other), containing="method")


@pytest.mark.parametrize("factor, message", [(1 + 1e-4, "recomputed"), (1e3, "bounds")])
def test_moment_check_catches_a_wrong_value(tmp_path, factor, message):
    text = _output(MOMENT, tmp_path)
    rows = checks._data_rows(text)
    # the corrupted value moves the mean too; only the value checks are asserted
    hits = 0
    for index, row in enumerate(rows):
        corrupted = _edit(text, index, 2, repr(float(row[2]) * factor))
        hits += _fails(MOMENT, corrupted, containing=message)
    assert hits > 0


# -- tracing ------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1, 0, None],
        ["b", 1.0, 4.0, 0, 0, None],
        ["c", 2.0, 3.0, 1, 0, None],
        ["b", 5.0, 6.0, 0, 0, None],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_restores_the_program():
    originals = (msa.eigensolve, spectral.sla, _parallel.run_indexed)
    tracer = Tracer()
    tracer.install()
    try:
        assert msa.eigensolve is not originals[0]
    finally:
        tracer.uninstall()
    assert (msa.eigensolve, spectral.sla, _parallel.run_indexed) == originals


def test_traced_decay_round_gives_every_layer_metric(tmp_path):
    config = harness.parse_config(DECAY.config_text())
    tracer = Tracer()
    walls = []
    for k in range(2):
        tracer.round = k
        first = len(tracer.spans)
        tracer.install()
        try:
            with tracer.span("harness.run"):
                harness.run(config, cli_seed=k, cli_workers=1, out_override=str(tmp_path))
        finally:
            tracer.uninstall()
        walls.append(tracer.spans[first][2] - tracer.spans[first][1])
    measured = {
        "parse_config_s": 1e-4, "output_bytes": [1, 1], "untraced_wall_s": walls,
        "traced_wall_s": walls, "wall_w1_s": 1.0, "wall_w2_s": 1.0,
    }
    values = layer_metrics("decay", tracer.spans, measured)
    assert set(values) == {name for name, _ in TASK_LAYERS["decay"] + COMMON_LAYERS}
    assert values["observables.decay_fit.calls"] == 2 * 41
    assert values["spectral.eigensolve.calls"] == 2


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    expected = [
        (f"{w.name}.{name}", unit)
        for w in WORKLOADS.values()
        for name, unit in TASK_LAYERS[w.task] + COMMON_LAYERS
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == expected
