"""Spans around the calls into mpanderson's layers, recorded from outside.

`Tracer.install` replaces each traced function by a timing wrapper in the
namespace of the module that calls it (for example `mpanderson.msa.eigensolve`,
not `mpanderson.spectral.eigensolve`), so the program's own code is untouched;
`uninstall` puts the originals back.  Spans (name, start, end, parent, round,
attributes) stay in memory and are written once, at the end of the run.

A span's self time is its duration minus the durations of its direct
children.  The program is single-threaded when traced (one worker), so child
spans never overlap and the subtraction is exact.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager

#: a finite verdict means classify_cube_energies factorized (H - E) for that probe
LU_FLOP_FACTOR = 2.0 / 3.0


class _ModuleProxy:
    """Stands in for a module object inside one caller, overriding a few names."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, round, attrs]
        self.round = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.round, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, attrs: dict | None = None) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][5] = attrs
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- wrapping -------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Time every call of owner.attr; describe(args, result) adds attributes."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                self._close(index, {"error": type(exc).__name__})
                raise
            self._close(index, describe(args, result) if describe else None)
            return result

        self._patch(owner, attr, traced)

    def install(self) -> None:
        from mpanderson import _parallel, harness, msa, observables, spectral, hamiltonian

        for module in (msa, harness, observables):
            self.wrap(module, "sample", "disorder.sample")
            self.wrap(module, "build", "hamiltonian.build", _describe_size)
            self.wrap(module, "eigensolve", "spectral.eigensolve", _describe_size)
        for module in (hamiltonian, harness):
            self.wrap(module, "sites", "geometry.sites")
        sla = _ModuleProxy(spectral.sla)
        self._patch(spectral, "sla", sla)
        self.wrap(sla, "eigh", "spectral.eigh")
        self.wrap(spectral, "internal_boundary", "geometry.internal_boundary")
        self.wrap(msa, "probe_energies", "msa.probe_energies")
        self.wrap(msa, "classify_cube_energies", "spectral.classify_cube_energies", _describe_classify)
        self.wrap(msa, "estimate_pair_probability", "msa.estimate_pair_probability", _describe_estimate)
        self.wrap(harness, "decay_fit", "observables.decay_fit")
        self.wrap(observables, "hs_moment", "observables.hs_moment", _describe_moment)
        self.wrap(observables, "moment_matrix", "observables.moment_matrix")

        run_indexed = _parallel.run_indexed

        def traced_run_indexed(worker, payload, count, workers=1):
            if workers != 1:
                raise ValueError("traced runs use one worker: span closures do not pickle")

            def task(job, index):
                with self.span("_parallel.task"):
                    return worker(job, index)

            return run_indexed(task, payload, count, workers)

        self._patch(_parallel, "run_indexed", traced_run_indexed)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, round_index, attrs in self.spans:
                out.write(json.dumps([name, start, end, parent, round_index, attrs]) + "\n")


def _describe_size(args, result):
    """Sites of a HamiltonianMatrix or a Spectrum."""
    return {"sites": result.size}


def _describe_classify(args, verdicts):
    cube, hm = args[0], args[1]
    finite = sum(1 for v in verdicts if math.isfinite(v.max_boundary_green))
    return {
        "probes": len(verdicts),
        "finite": finite,
        "sites": hm.size,
        # canonical_pair puts the first cube of every pair at the origin
        "first": not any(cube.center.coords),
    }


def _describe_estimate(args, estimate):
    return {"L": estimate.L, "samples": estimate.samples_used, "events": round(estimate.estimate * estimate.samples_used)}


def _describe_moment(args, result):
    return {"method": result.method, "multiplicity": result.multiplicity}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its direct children's."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _per_round(spans, selves, rounds, value) -> float:
    """Median over traced rounds of the per-round sum of value(span, self)."""
    totals = dict.fromkeys(rounds, 0.0)
    for span, own in zip(spans, selves):
        v = value(span, own)
        if v:
            totals[span[4]] += v
    return statistics.median(totals.values())


def _self_of(name):
    return lambda span, own: own if span[0] == name else 0.0


def _total_of(name):
    return lambda span, own: span[2] - span[1] if span[0] == name else 0.0


def _count_of(name):
    return lambda span, own: 1 if span[0] == name else 0


def _attr_of(name, key):
    return lambda span, own: span[5][key] if span[0] == name and span[5] else 0


COMMON_LAYERS = (
    ("spectral.eigensolve.s", "s"),
    ("spectral.eigensolve.calls", "count"),
    ("spectral.eigensolve.sites", "count"),
    ("spectral.eigh.s", "s"),
    ("spectral.certify.s", "s"),
    ("hamiltonian.build.s", "s"),
    ("hamiltonian.build.sites", "count"),
    ("geometry.sites.s", "s"),
    ("disorder.sample.s", "s"),
    ("disorder.sample.calls", "count"),
    ("harness.run.self_s", "s"),
    ("harness.output_bytes", "B"),
    ("harness.parse_config.s", "s"),
    ("_parallel.task.median_s", "s"),
    ("_parallel.efficiency_w2", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
)

TASK_LAYERS = {
    "msa": (
        ("spectral.classify_cube_energies.s", "s"),
        ("spectral.classify_cube_energies.probes", "count"),
        ("spectral.classify_cube_energies.resonant", "count"),
        ("spectral.classify_cube_energies.lu_gflop", "GFLOP"),
        ("msa.probe_energies.s", "s"),
        ("msa.L8.s_per_realization", "s"),
        ("msa.L16.s_per_realization", "s"),
        ("msa.L32.s_per_realization", "s"),
        ("msa.events", "count"),
        ("msa.candidate_ratio", "ratio"),
        ("geometry.internal_boundary.s", "s"),
        ("_parallel.task.tail_s", "s"),
    ),
    "decay": (
        ("observables.decay_fit.s", "s"),
        ("observables.decay_fit.calls", "count"),
        ("observables.decay_fit.skips", "count"),
    ),
    "moment": (
        ("observables.moment_matrix.s", "s"),
        ("observables.vertex_enumeration.s", "s"),
        ("observables.hs_moment.exact", "count"),
        ("observables.hs_moment.upper_bound", "count"),
        ("observables.hs_moment.multiplicity_max", "count"),
    ),
}

#: the task-span percentile reported as tail_s; it needs at least 40 task
#: spans, which MIN_TRACED_ROUNDS rounds of msa_1d give (2 x 24)
TAIL_PERCENTILE = 75
MIN_TRACED_ROUNDS = 2


def layer_units(task: str) -> dict[str, str]:
    return dict(TASK_LAYERS[task] + COMMON_LAYERS)


def layer_metrics(task: str, spans, measured: dict) -> dict[str, float]:
    """Per-layer metrics of one workload's traced rounds.

    measured holds what the spans cannot give: parse_config time, output
    bytes per round, and the untraced and two-worker wall times.
    """
    selves = self_times(spans)
    rounds = sorted({span[4] for span in spans})

    def per_round(value):
        return _per_round(spans, selves, rounds, value)

    values = {
        "spectral.eigensolve.s": per_round(_total_of("spectral.eigensolve")),
        "spectral.eigensolve.calls": per_round(_count_of("spectral.eigensolve")),
        "spectral.eigensolve.sites": per_round(_attr_of("spectral.eigensolve", "sites")),
        "spectral.eigh.s": per_round(_self_of("spectral.eigh")),
        "spectral.certify.s": per_round(_self_of("spectral.eigensolve")),
        "hamiltonian.build.s": per_round(_self_of("hamiltonian.build")),
        "hamiltonian.build.sites": per_round(_attr_of("hamiltonian.build", "sites")),
        "geometry.sites.s": per_round(_self_of("geometry.sites")),
        "disorder.sample.s": per_round(_self_of("disorder.sample")),
        "disorder.sample.calls": per_round(_count_of("disorder.sample")),
        "harness.run.self_s": per_round(_self_of("harness.run")),
        "harness.output_bytes": statistics.median(measured["output_bytes"]),
        "harness.parse_config.s": measured["parse_config_s"],
    }
    tasks = sorted(end - start for name, start, end, *_ in spans if name == "_parallel.task")
    values["_parallel.task.median_s"] = statistics.median(tasks)
    values["_parallel.efficiency_w2"] = measured["wall_w1_s"] / (2.0 * measured["wall_w2_s"])
    untraced = statistics.median(measured["untraced_wall_s"])
    traced = statistics.median(measured["traced_wall_s"])
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced

    if task == "msa":
        name = "spectral.classify_cube_energies"
        values[name + ".s"] = per_round(_self_of(name))
        values[name + ".probes"] = per_round(_attr_of(name, "probes"))
        values[name + ".resonant"] = per_round(
            lambda span, own: span[5]["probes"] - span[5]["finite"] if span[0] == name else 0
        )
        values[name + ".lu_gflop"] = per_round(
            lambda span, own: LU_FLOP_FACTOR * span[5]["sites"] ** 3 * span[5]["finite"] / 1e9
            if span[0] == name
            else 0.0
        )
        values["msa.probe_energies.s"] = per_round(_self_of("msa.probe_energies"))
        for L in (8, 16, 32):
            values[f"msa.L{L}.s_per_realization"] = per_round(
                lambda span, own, L=L: (span[2] - span[1]) / span[5]["samples"]
                if span[0] == "msa.estimate_pair_probability" and span[5]["L"] == L
                else 0.0
            )
        values["msa.events"] = per_round(_attr_of("msa.estimate_pair_probability", "events"))
        first = sum(s[5]["probes"] for s in spans if s[0] == name and s[5]["first"])
        second = sum(s[5]["probes"] for s in spans if s[0] == name and not s[5]["first"])
        values["msa.candidate_ratio"] = second / first
        values["geometry.internal_boundary.s"] = per_round(_self_of("geometry.internal_boundary"))
        if len(tasks) < 40:
            raise ValueError(f"tail_s needs at least 40 task spans, got {len(tasks)}")
        values["_parallel.task.tail_s"] = statistics.quantiles(tasks, n=100)[TAIL_PERCENTILE - 1]
    elif task == "decay":
        values["observables.decay_fit.s"] = per_round(_self_of("observables.decay_fit"))
        values["observables.decay_fit.calls"] = per_round(_count_of("observables.decay_fit"))
        values["observables.decay_fit.skips"] = per_round(
            lambda span, own: 1 if span[0] == "observables.decay_fit" and span[5] else 0
        )
    else:
        values["observables.moment_matrix.s"] = per_round(_self_of("observables.moment_matrix"))
        values["observables.vertex_enumeration.s"] = per_round(_self_of("observables.hs_moment"))
        for key, method in (("exact", "ExactVertex"), ("upper_bound", "UpperBound")):
            values[f"observables.hs_moment.{key}"] = per_round(
                lambda span, own, method=method: 1
                if span[0] == "observables.hs_moment" and span[5]["method"] == method
                else 0
            )
        values["observables.hs_moment.multiplicity_max"] = max(
            s[5]["multiplicity"] for s in spans if s[0] == "observables.hs_moment"
        )
    return values
