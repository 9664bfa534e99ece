"""Experiment configuration, dispatch, persistence, and plot-data emission.

Config files are flat key-value text: one `section.key = value` assignment
per line, full-line `#` comments, no nesting.  Sections: model, disorder,
interaction (optional), task, run.  Unknown keys, duplicate keys, syntax
errors and constraint violations are all collected with line numbers and
reported together.

The key table (`_KEYS`, with one sub-table per task type in `_TASK_KEYS`)
is the one place where the keys are declared: each key's converter, its
default or `_REQUIRED`, and which keys each task type takes.  Parsing,
default filling and `dumps_config` all follow it; a key's name is the field
name of the block it fills.

Every run writes its CSV outputs atomically (temp file + rename) plus a
JSON manifest echoing the effective configuration, so a run can be
reproduced bit-for-bit from its output directory.  CSV bytes depend only on
(config, seed), never on the worker count or the wall clock.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import _parallel
from .disorder import (
    BERNOULLI,
    FINITE_DISCRETE,
    UNIFORM,
    DisorderSpec,
    sample,
    validate_assumption_P,
)
from .geometry import ConfigPoint, Cube, single_particle_sites, sites
from .hamiltonian import (
    FINITE_RANGE,
    SUB_EXPONENTIAL,
    InteractionSpec,
    build,
    validate_interaction_bound,
)
from .msa import EXACT_BERNOULLI, MONTE_CARLO, MsaParams, msa_report, scale_sequence
from .observables import (
    DEFAULT_SHELL_FLOOR,
    DEFAULT_VERTEX_LIMIT,
    DecayFit,
    DecayFitError,
    decay_fit,
    moment_samples,
)
from .spectral import DENSE_LIMIT, Spectrum, eigensolve


class ConfigError(Exception):
    """Carries a structured list of (line, message) config problems."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = list(errors)
        summary = "; ".join(
            f"line {line}: {msg}" if line else msg for line, msg in self.errors
        )
        super().__init__(summary)


# ---------------------------------------------------------------------------
# Config model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelBlock:
    N: int
    n: int
    d: int
    h: float
    dense_limit: int


@dataclass(frozen=True)
class TaskBlock:
    type: str
    # msa
    m: float | None = None
    p: float | None = None
    E_lo: float | None = None
    E_hi: float | None = None
    energy_grid_step: float | None = None
    L_values: tuple[int, ...] | None = None
    mode: str | None = None
    # decay / moment / spectrum
    L: int | None = None
    s: float | None = None
    K_radius: int | None = None
    vertex_limit: int | None = None
    shell_floor: float | None = None
    min_shells: int | None = None


@dataclass(frozen=True)
class RunBlock:
    master_seed: int
    realizations: int
    workers: int
    out: str


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelBlock
    disorder: DisorderSpec
    task: TaskBlock
    run: RunBlock
    interaction: InteractionSpec | None = None


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(","))


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(","))


_REQUIRED = object()

# section -> key -> (converter, default).  A default of None leaves the key
# unset; _REQUIRED makes it an error to leave out.  Sections appear in the
# order dumps_config writes them.
_KEYS: dict[str, dict[str, tuple]] = {
    "model": {
        "N": (int, 1),
        "n": (int, None),  # unset: n = N
        "d": (int, 1),
        "h": (float, 0.0),
        "dense_limit": (int, DENSE_LIMIT),
    },
    "disorder": {
        "kind": (str, _REQUIRED),
        "values": (_floats, _REQUIRED),
        "probabilities": (_floats, None),  # FiniteDiscrete only
        "q": (float, 0.5),  # Bernoulli only: the probability of values[1]
        "amplitude": (float, 1.0),
    },
    "interaction": {
        "kind": (str, SUB_EXPONENTIAL),
        "C": (float, 1.0),
        "c": (float, 1.0),
        "tau": (float, 0.5),
        "cutoff": (int, None),  # FiniteRange only
    },
    "task": {"type": (str, _REQUIRED)},
    "run": {
        "master_seed": (int, 0),
        "realizations": (int, 1),
        "workers": (int, 1),
        "out": (str, "out"),
    },
}

# task type -> the task keys it takes besides task.type, as in _KEYS
_TASK_KEYS: dict[str, dict[str, tuple]] = {
    "msa": {
        "m": (float, _REQUIRED),
        "p": (float, 7.0),
        "E_lo": (float, 0.0),
        "E_hi": (float, 1.0),
        "energy_grid_step": (float, 1e-3),
        # the scales: L_values, or the recursion L0, count, alpha
        "L_values": (_ints, None),
        "L0": (int, None),
        "count": (int, None),
        "alpha": (float, 1.5),
        "mode": (str, MONTE_CARLO),
    },
    "decay": {
        "L": (int, _REQUIRED),
        "shell_floor": (float, DEFAULT_SHELL_FLOOR),
        "min_shells": (int, 3),
    },
    "moment": {
        "L": (int, _REQUIRED),
        "E_lo": (float, _REQUIRED),
        "E_hi": (float, _REQUIRED),
        "s": (float, _REQUIRED),
        "K_radius": (int, _REQUIRED),
        "vertex_limit": (int, DEFAULT_VERTEX_LIMIT),
    },
    "spectrum": {"L": (int, _REQUIRED)},
}

TASK_TYPES = tuple(_TASK_KEYS)

_CONVERTERS = {
    f"{section}.{key}": converter
    for section, table in [*_KEYS.items(), *(("task", t) for t in _TASK_KEYS.values())]
    for key, (converter, _) in table.items()
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config; raises ConfigError listing all problems."""
    errors: list[tuple[int, str]] = []
    values: dict[str, object] = {}
    lines: dict[str, int] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            errors.append((lineno, f"syntax error: expected 'section.key = value', got {stripped!r}"))
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONVERTERS:
            errors.append((lineno, f"unknown key {key!r}"))
        elif key in lines:
            errors.append((lineno, f"duplicate key {key!r} (first set on line {lines[key]})"))
        else:
            try:
                values[key] = _CONVERTERS[key](raw)
                lines[key] = lineno
            except ValueError:
                errors.append((lineno, f"bad value for {key!r}: {raw!r}"))

    if errors:
        raise ConfigError(errors)

    def bad(key: str, message: str) -> None:
        errors.append((lines.get(key, 0), f"{key}: {message}"))

    model_values = _fill("model", _KEYS["model"], values, bad)
    if model_values["n"] is None:
        model_values["n"] = model_values["N"]
    model = ModelBlock(**model_values)
    if model.N < 1:
        bad("model.N", "particle count must be >= 1")
    elif not 1 <= model.n <= model.N:
        bad("model.n", f"must satisfy 1 <= n <= N = {model.N}")
    if model.d < 1:
        bad("model.d", "dimension must be >= 1")
    if model.dense_limit < 1:
        bad("model.dense_limit", "dense limit must be >= 1")

    disorder = _parse_disorder(values, bad)
    interaction = _parse_interaction(values, bad)
    task = _parse_task(values, bad)
    run_block = RunBlock(**_fill("run", _KEYS["run"], values, bad))
    if run_block.realizations < 1:
        bad("run.realizations", "must be >= 1")
    if run_block.workers < 0:
        bad("run.workers", "must be >= 0 (0 = auto)")

    if task is not None and task.type == "msa" and task.mode == EXACT_BERNOULLI:
        if disorder is not None and disorder.kind != BERNOULLI:
            bad("task.mode", "ExactBernoulli requires disorder.kind = Bernoulli")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        model=model,
        disorder=disorder,
        task=task,
        run=run_block,
        interaction=interaction,
    )


def _fill(section: str, table: dict, values: dict, bad) -> dict | None:
    """The section's values by key name, with defaults filled in; None (and
    an error per key) when a required key is missing."""
    filled = {key: values.get(f"{section}.{key}", default) for key, (_, default) in table.items()}
    missing = [key for key, value in filled.items() if value is _REQUIRED]
    for key in missing:
        bad(f"{section}.{key}", "missing required key")
    return None if missing else filled


def _parse_disorder(values: dict, bad) -> DisorderSpec | None:
    kind = values.get("disorder.kind")
    if kind is not None and kind not in (BERNOULLI, FINITE_DISCRETE, UNIFORM):
        bad("disorder.kind", f"unsupported kind {kind!r}")
        return None
    d = _fill("disorder", _KEYS["disorder"], values, bad)
    if d is None:
        return None
    vals, amplitude = d["values"], d["amplitude"]
    if kind == BERNOULLI:
        if "disorder.probabilities" in values:
            bad("disorder.probabilities", "Bernoulli uses disorder.q instead")
        if len(vals) != 2:
            bad("disorder.values", "Bernoulli takes exactly two values a,b")
            return None
        if not 0.0 <= d["q"] <= 1.0:
            bad("disorder.q", "must lie in [0, 1]")
            return None
        spec = DisorderSpec.bernoulli(vals[0], vals[1], d["q"], amplitude)
    elif kind == FINITE_DISCRETE:
        if "disorder.q" in values:
            bad("disorder.q", "only valid for Bernoulli")
        if d["probabilities"] is None:
            bad("disorder.probabilities", "missing required key")
            return None
        spec = DisorderSpec.finite_discrete(vals, d["probabilities"], amplitude)
    else:
        for key in ("disorder.q", "disorder.probabilities"):
            if key in values:
                bad(key, "not valid for Uniform")
        if len(vals) != 2:
            bad("disorder.values", "Uniform takes an interval a,b")
            return None
        spec = DisorderSpec.uniform(vals[0], vals[1], amplitude)
    try:
        spec.validate()
    except ValueError as exc:
        bad("disorder.values", str(exc))
        return None
    return spec


def _parse_interaction(values: dict, bad) -> InteractionSpec | None:
    if not any(key.startswith("interaction.") for key in values):
        return None
    i = _fill("interaction", _KEYS["interaction"], values, bad)
    if i["kind"] not in (SUB_EXPONENTIAL, FINITE_RANGE):
        bad("interaction.kind", f"unsupported kind {i['kind']!r}")
        return None
    if i["kind"] != FINITE_RANGE and i["cutoff"] is not None:
        bad("interaction.cutoff", "only valid for FiniteRange")
    try:
        return InteractionSpec(**i)
    except ValueError as exc:
        bad("interaction.kind", str(exc))
        return None


def _parse_task(values: dict, bad) -> TaskBlock | None:
    head = _fill("task", _KEYS["task"], values, bad)
    if head is None:
        return None
    task_type = head["type"]
    if task_type not in TASK_TYPES:
        bad("task.type", f"unknown task {task_type!r}; expected one of {TASK_TYPES}")
        return None
    table = _TASK_KEYS[task_type]
    for key in values:
        section, _, name = key.partition(".")
        if section == "task" and name != "type" and name not in table:
            bad(key, f"not valid for task type {task_type!r}")
    t = _fill("task", table, values, bad)
    if t is None:
        return None

    if task_type == "msa":
        L0, count, alpha = t.pop("L0"), t.pop("count"), t.pop("alpha")
        if L0 is not None or count is not None:
            if t["L_values"] is not None:
                bad("task.L_values", "give either L_values or L0/count, not both")
                return None
            if L0 is None or count is None:
                bad("task.L0", "scale recursion needs both task.L0 and task.count")
                return None
            try:
                t["L_values"] = tuple(scale_sequence(L0, count, alpha))
            except ValueError as exc:
                bad("task.L0", str(exc))
                return None
        if t["L_values"] is None:
            bad("task.L_values", "missing scales: give L_values or L0/count")
            return None
        if any(L < 1 for L in t["L_values"]):
            bad("task.L_values", "scales must be >= 1")
        if t["mode"] not in (MONTE_CARLO, EXACT_BERNOULLI):
            bad("task.mode", f"unknown mode {t['mode']!r}")
        if t["m"] <= 0:
            bad("task.m", "mass must be positive")
        if t["energy_grid_step"] <= 0:
            bad("task.energy_grid_step", "grid step must be positive")
    if "E_lo" in t and t["E_lo"] > t["E_hi"]:
        bad("task.E_lo", "must satisfy E_lo <= E_hi")
    if t.get("L", 0) < 0:
        bad("task.L", "cube radius must be >= 0")
    if t.get("s", 0) < 0:
        bad("task.s", "only s >= 0 is supported")
    for key in ("K_radius", "vertex_limit"):
        if t.get(key, 0) < 0:
            bad(f"task.{key}", "must be >= 0")
    if t.get("min_shells", 2) < 2:
        bad("task.min_shells", "a line fit needs at least 2 shells")
    return TaskBlock(type=task_type, **t)


def _dump_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_dump_value(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def dumps_config(config: ExperimentConfig) -> str:
    """Canonical text form; parse_config(dumps_config(c)) == c."""
    lines: list[str] = []
    for section in _KEYS:
        block = getattr(config, section)
        if block is None:
            continue
        for key, value in asdict(block).items():
            if section == "disorder" and key == "probabilities" and block.kind == BERNOULLI:
                key, value = "q", value[1]
            if value is not None:
                lines.append(f"{section}.{key} = {_dump_value(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    config_echo: str
    artifact_version: str
    timestamp: str
    outputs: list[str]
    wall_time_s: float


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _write_lines(path: Path, lines: list[str], header: str = "") -> Path:
    """Write header plus one newline-terminated line per entry, atomically."""
    _atomic_write_text(path, header + "\n".join(lines) + ("\n" if lines else ""))
    return path


def run(
    config: ExperimentConfig,
    cli_seed: int | None = None,
    cli_workers: int | None = None,
    out_override: str | None = None,
    plot: bool = False,
) -> RunManifest:
    """Dispatch the configured task, write outputs atomically, emit manifest."""
    start = time.perf_counter()
    if cli_seed is not None:
        config = replace(config, run=replace(config.run, master_seed=cli_seed))
    workers = _parallel.effective_workers(config.run.workers, cli_workers)
    out_dir = Path(out_override or config.run.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    runner = {"msa": _run_msa, "decay": _run_decay, "moment": _run_moment, "spectrum": _run_spectrum}
    outputs = runner[config.task.type](config, workers, out_dir, plot)

    manifest = RunManifest(
        config_echo=dumps_config(config),
        artifact_version=__version__,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        outputs=[str(p) for p in outputs],
        wall_time_s=time.perf_counter() - start,
    )
    _atomic_write_text(
        out_dir / "run_manifest.json",
        json.dumps(manifest.__dict__, indent=2) + "\n",
    )
    return manifest


def _run_msa(config: ExperimentConfig, workers: int, out_dir: Path, plot: bool) -> list[Path]:
    t, m_block, r = config.task, config.model, config.run
    params = MsaParams(
        N=m_block.N,
        n=m_block.n,
        d=m_block.d,
        m=t.m,
        p=t.p,
        h=m_block.h,
        interval=(t.E_lo, t.E_hi),
        L_values=t.L_values,
        realizations=r.realizations,
        master_seed=r.master_seed,
        energy_grid_step=t.energy_grid_step,
        mode=t.mode,
        dense_limit=m_block.dense_limit,
    )
    estimates = msa_report(params, config.disorder, config.interaction, workers)
    constraint = 6 * params.N * params.d
    ok = "satisfied" if params.p > constraint else "NOT satisfied"
    header = (
        "# msa pair-singularity estimates (grid-relative)\n"
        f"# p = {_fmt(params.p)}; theory constraint p > 6*N*d = {constraint} is {ok}\n"
        "# L,n,N,estimate,ci_low,ci_high,target,samples,energy_points,seed\n"
    )
    rows = [
        f"{e.L},{params.n},{params.N},{_fmt(e.estimate)},{_fmt(e.ci_low)},"
        f"{_fmt(e.ci_high)},{_fmt(e.target)},{e.samples_used},{e.energy_points_used},"
        f"{params.master_seed}"
        for e in estimates
    ]
    outputs = [_write_lines(out_dir / "msa.csv", rows, header)]
    if plot:
        est_lines = [
            f"{e.L} {_fmt(math.log10(e.estimate))}" for e in estimates if e.estimate > 0
        ]
        tgt_lines = [f"{e.L} {_fmt(math.log10(e.target))}" for e in estimates]
        outputs.append(_write_lines(out_dir / "msa_estimate.dat", est_lines))
        outputs.append(_write_lines(out_dir / "msa_target.dat", tgt_lines))
    return outputs


def _realize(config: ExperimentConfig, index: int, sectors: bool = False) -> Spectrum:
    """Eigensolve realization `index` on the task's cube about the origin,
    in the swap sectors if asked (see eigensolve)."""
    m_block = config.model
    region = Cube(ConfigPoint.origin(m_block.n, m_block.d), config.task.L)
    realization = sample(
        config.disorder, single_particle_sites(region), config.run.master_seed, index
    )
    hm = build(region, realization, config.interaction, m_block.h)
    return eigensolve(hm, m_block.dense_limit, sectors=sectors)


def _decay_worker(config: ExperimentConfig, index: int):
    """CSV rows of one realization's fits, and its first fit of highest r^2."""
    t = config.task
    spectrum = _realize(config, index)
    rows = []
    best: DecayFit | None = None
    for j in range(spectrum.size):
        energy = spectrum.eigenvalues[j]
        try:
            fit = decay_fit(
                spectrum, j, min_shells=t.min_shells, floor=t.shell_floor
            )
        except DecayFitError:
            rows.append(f"{index},{j},{_fmt(energy)},nan,nan,0,skip:too_few_shells")
            continue
        rows.append(
            f"{index},{j},{_fmt(energy)},{_fmt(fit.rate)},{_fmt(fit.r_squared)},"
            f"{fit.shells_used},ok"
        )
        if best is None or fit.r_squared > best.r_squared:
            best = fit
    return rows, best


def _run_decay(config: ExperimentConfig, workers: int, out_dir: Path, plot: bool) -> list[Path]:
    results = _parallel.run_indexed(
        _decay_worker, config, config.run.realizations, workers
    )
    header = "# eigenfunction decay fits\n# realization,eigen_index,energy,rate,r_squared,shells,status\n"
    rows = [line for worker_rows, _ in results for line in worker_rows]
    outputs = [_write_lines(out_dir / "decay.csv", rows, header)]
    if plot:
        chosen = results[0][1]
        shell_lines, line_lines = [], []
        if chosen is not None:
            shell_lines = [
                f"{_fmt(r)} {_fmt(v)}"
                for r, v in zip(chosen.shell_radii, chosen.shell_log_maxima)
            ]
            line_lines = [
                f"{_fmt(r)} {_fmt(chosen.intercept - chosen.rate * r)}"
                for r in chosen.shell_radii
            ]
        outputs.append(_write_lines(out_dir / "decay_shells.dat", shell_lines))
        outputs.append(_write_lines(out_dir / "decay_fitline.dat", line_lines))
    return outputs


def _run_moment(config: ExperimentConfig, workers: int, out_dir: Path, plot: bool) -> list[Path]:
    m_block, t, r = config.model, config.task, config.run
    region = Cube(ConfigPoint.origin(m_block.n, m_block.d), t.L)
    K = [x for x in sites(region) if max(abs(c) for c in x.coords) <= t.K_radius]
    results = moment_samples(
        region,
        config.disorder,
        config.interaction,
        m_block.h,
        (t.E_lo, t.E_hi),
        t.s,
        K,
        r.realizations,
        r.master_seed,
        vertex_limit=t.vertex_limit,
        dense_limit=m_block.dense_limit,
        workers=workers,
    )
    mean = float(np.mean([res.value for res in results]))
    header = (
        "# Hilbert-Schmidt dynamical-localization moments\n"
        f"# disorder-averaged mean = {_fmt(mean)}\n"
        "# realization,seed,value,method\n"
    )
    rows = [
        f"{i},{r.master_seed},{_fmt(res.value)},{res.method}"
        for i, res in enumerate(results)
    ]
    outputs = [_write_lines(out_dir / "moment.csv", rows, header)]
    if plot:
        lines = [f"{i} {_fmt(res.value)}" for i, res in enumerate(results)]
        outputs.append(_write_lines(out_dir / "moment_values.dat", lines))
    return outputs


def _spectrum_worker(config: ExperimentConfig, index: int) -> list[float]:
    return _realize(config, index, sectors=True).eigenvalues.tolist()


def _run_spectrum(config: ExperimentConfig, workers: int, out_dir: Path, plot: bool) -> list[Path]:
    results = _parallel.run_indexed(
        _spectrum_worker, config, config.run.realizations, workers
    )
    header = "# finite-volume eigenvalues\n# realization,index,eigenvalue\n"
    rows = [
        f"{i},{j},{_fmt(val)}"
        for i, eigenvalues in enumerate(results)
        for j, val in enumerate(eigenvalues)
    ]
    outputs = [_write_lines(out_dir / "spectrum.csv", rows, header)]
    if plot:
        lines = [f"{j} {_fmt(val)}" for j, val in enumerate(results[0])]
        outputs.append(_write_lines(out_dir / "spectrum_eigenvalues.dat", lines))
    return outputs


def validate_report(config: ExperimentConfig) -> tuple[bool, list[str]]:
    """Model-assumption checks used by the `validate` CLI command."""
    lines: list[str] = []
    report = validate_assumption_P(config.disorder)
    status = "pass" if report.passed else "FAIL"
    lines.append(f"disorder bounded-measure check: {status} (bound M = {report.bound:g})")
    lines.extend(f"  violation: {v}" for v in report.violations)
    lines.extend(f"  warning: {w}" for w in report.warnings)
    lines.extend(f"  note: {n}" for n in report.notes)
    passed = report.passed
    if config.interaction is not None:
        bound = validate_interaction_bound(config.interaction, radius=64)
        status = "pass" if bound.passed else "FAIL"
        lines.append(
            f"interaction envelope check (distances 0..64): {status} "
            f"(max ratio {bound.max_ratio:.6g} at distance {bound.worst_distance})"
        )
        passed = passed and bound.passed
    else:
        lines.append("interaction: none configured")
    return passed, lines
