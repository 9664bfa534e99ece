import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpanderson import cli, harness
from mpanderson._parallel import effective_workers
from mpanderson.observables import DecayFit, DecayFitError
from mpanderson.harness import (
    ConfigError,
    _atomic_write_text,
    _decay_worker,
    dumps_config,
    parse_config,
    run,
)

MSA_CONFIG = """
# minimal Monte-Carlo pair study
disorder.kind = Bernoulli
disorder.values = 0,1
disorder.amplitude = 8.0

task.type = msa
task.m = 0.5
task.E_lo = 0.5
task.E_hi = 0.52
task.L_values = 1

run.master_seed = 5
run.realizations = 6
"""

DECAY_CONFIG = """
disorder.kind = Bernoulli
disorder.values = 0,8

task.type = decay
task.L = 12

run.master_seed = 2
run.realizations = 2
"""

SPECTRUM_FREE_CONFIG = """
disorder.kind = Bernoulli
disorder.values = 0,1
disorder.amplitude = 0.0

task.type = spectrum
task.L = 10

run.master_seed = 0
"""

MOMENT_CONFIG = """
disorder.kind = Uniform
disorder.values = -1,1

task.type = moment
task.L = 5
task.E_lo = 0.0
task.E_hi = 2.0
task.s = 1.0
task.K_radius = 2

run.master_seed = 3
run.realizations = 4
"""


INTERACTING_CONFIG = """
model.N = {n}
model.n = {n}
model.h = 0.5

disorder.kind = Bernoulli
disorder.values = 0,8

interaction.kind = SubExponential
interaction.C = 1.0
interaction.c = 1.0
interaction.tau = 0.5

task.type = {task}
task.L = {L}
{extra}
run.master_seed = 4
run.realizations = 3
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_msa_defaults():
    config = parse_config(MSA_CONFIG)
    assert config.task.energy_grid_step == 1e-3
    assert config.task.mode == "MonteCarlo"
    assert config.task.p == 7.0
    assert config.model.N == config.model.n == config.model.d == 1
    assert config.run.workers == 1


def test_parse_scale_recursion_defaults():
    text = MSA_CONFIG.replace("task.L_values = 1", "task.L0 = 4\ntask.count = 3")
    config = parse_config(text)
    assert config.task.L_values == (4, 8, 23)  # default alpha = 1.5


def test_unsupported_disorder_kind():
    text = MSA_CONFIG.replace("disorder.kind = Bernoulli", "disorder.kind = Gaussian")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert any("disorder.kind" in msg for _, msg in info.value.errors)
    assert any(line > 0 for line, _ in info.value.errors)


def test_duplicate_key_names_both_lines():
    text = MSA_CONFIG + "\ntask.m = 0.7\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    (line, message), = info.value.errors
    assert "duplicate" in message and "task.m" in message
    assert str(MSA_CONFIG.splitlines().index("task.m = 0.5") + 1) in message


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config(MSA_CONFIG + "\nrun.banana = 1\n")
    assert any("unknown key" in msg for _, msg in info.value.errors)


def test_syntax_error_reported_with_line():
    with pytest.raises(ConfigError) as info:
        parse_config("disorder.kind Bernoulli\n")
    line, message = info.value.errors[0]
    assert line == 1 and "syntax" in message


def test_task_key_mismatch():
    with pytest.raises(ConfigError) as info:
        parse_config(MSA_CONFIG + "\ntask.s = 1.0\n")
    assert any("not valid for task type" in msg for _, msg in info.value.errors)


def test_missing_required_key():
    with pytest.raises(ConfigError) as info:
        parse_config("task.type = msa\nrun.master_seed = 1\n")
    messages = [msg for _, msg in info.value.errors]
    assert any("disorder.kind" in m for m in messages)
    assert any("task.m" in m for m in messages)


def test_exact_mode_requires_bernoulli():
    text = MOMENT_CONFIG.replace("task.type = moment", "task.type = msa")
    text = text.replace("task.s = 1.0", "task.m = 0.5")
    text = text.replace("task.K_radius = 2", "task.L_values = 1\ntask.mode = ExactBernoulli")
    text = text.replace("task.L = 5\n", "")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert any("ExactBernoulli" in msg for _, msg in info.value.errors)


@pytest.mark.parametrize(
    "text, key, phrase",
    [
        pytest.param(MSA_CONFIG.replace("task.m = 0.5", "task.m = 0"), "task.m", "positive", id="msa-m-zero"),
        pytest.param(MSA_CONFIG.replace("task.m = 0.5", "task.m = -0.5"), "task.m", "positive", id="msa-m-negative"),
        pytest.param(MSA_CONFIG + "task.energy_grid_step = 0\n", "task.energy_grid_step", "positive", id="msa-grid-step-zero"),
        pytest.param(MSA_CONFIG + "task.energy_grid_step = -1e-3\n", "task.energy_grid_step", "positive", id="msa-grid-step-negative"),
        pytest.param(MOMENT_CONFIG.replace("task.K_radius = 2", "task.K_radius = -1"), "task.K_radius", ">= 0", id="moment-K-radius-negative"),
        pytest.param(MOMENT_CONFIG + "task.vertex_limit = -3\n", "task.vertex_limit", ">= 0", id="moment-vertex-limit-negative"),
        pytest.param(DECAY_CONFIG + "task.min_shells = 1\n", "task.min_shells", "at least 2", id="decay-one-shell"),
        pytest.param(
            DECAY_CONFIG + "interaction.kind = SubExponential\ninteraction.cutoff = 2\n",
            "interaction.cutoff",
            "only valid for FiniteRange",
            id="cutoff-with-sub-exponential",
        ),
        pytest.param(DECAY_CONFIG + "interaction.cutoff = 2\n", "interaction.cutoff", "only valid for FiniteRange", id="cutoff-with-default-kind"),
    ],
)
def test_bad_value_rejected_with_its_line(text, key, phrase):
    line = next(i for i, entry in enumerate(text.splitlines(), start=1) if entry.startswith(f"{key} ="))
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert any(
        at == line and message.startswith(key) and phrase in message
        for at, message in info.value.errors
    ), info.value.errors


@pytest.mark.parametrize(
    "text", [MSA_CONFIG, DECAY_CONFIG, SPECTRUM_FREE_CONFIG, MOMENT_CONFIG]
)
def test_round_trip(text):
    config = parse_config(text)
    assert parse_config(dumps_config(config)) == config


def test_round_trip_with_interaction_and_finite_discrete():
    text = """
model.N = 2
model.n = 2
model.h = 0.25
disorder.kind = FiniteDiscrete
disorder.values = -1,0,2.5
disorder.probabilities = 0.25,0.5,0.25
interaction.kind = FiniteRange
interaction.C = 2.0
interaction.tau = 1.0
interaction.cutoff = 3
task.type = spectrum
task.L = 2
run.realizations = 1
"""
    config = parse_config(text)
    assert parse_config(dumps_config(config)) == config
    assert config.interaction.cutoff == 3


_FLOATS = st.floats(-1e6, 1e6)


def _format(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(_format(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def config_texts(draw):
    """Valid config texts over every task type, disorder kind, optional
    interaction, either form of the MSA scales, and omitted defaults."""
    entries = {}

    def maybe(key, strategy):
        if draw(st.booleans()):
            entries[key] = draw(strategy)

    N = draw(st.integers(1, 3))
    if N > 1 or draw(st.booleans()):
        entries["model.N"] = N
    maybe("model.n", st.integers(1, N))
    maybe("model.d", st.integers(1, 3))
    maybe("model.h", _FLOATS)
    maybe("model.dense_limit", st.integers(1, 10**6))

    kind = draw(st.sampled_from(["Bernoulli", "FiniteDiscrete", "Uniform"]))
    entries["disorder.kind"] = kind
    if kind == "FiniteDiscrete":
        values = draw(st.lists(_FLOATS, min_size=2, max_size=4, unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values)))
        entries["disorder.probabilities"] = [w / sum(weights) for w in weights]
    else:
        values = draw(st.lists(_FLOATS, min_size=2, max_size=2, unique=True))
    entries["disorder.values"] = sorted(values) if kind == "Uniform" else values
    if kind == "Bernoulli":
        maybe("disorder.q", st.floats(0, 1, exclude_min=True, exclude_max=True))
    maybe("disorder.amplitude", st.floats(0, 1e3))

    if draw(st.booleans()):
        interaction = draw(st.sampled_from(["SubExponential", "FiniteRange", None]))
        if interaction is not None:
            entries["interaction.kind"] = interaction
        if interaction == "FiniteRange":
            entries["interaction.cutoff"] = draw(st.integers(0, 10))
        maybe("interaction.C", st.floats(0, 10))
        maybe("interaction.c", st.floats(0, 10, exclude_min=True))
        maybe("interaction.tau", st.floats(0, 1, exclude_min=True))

    task = draw(st.sampled_from(["msa", "decay", "moment", "spectrum"]))
    entries["task.type"] = task
    if task != "msa":
        entries["task.L"] = draw(st.integers(0, 50))
    if task in ("msa", "moment"):
        interval = sorted(draw(st.lists(_FLOATS, min_size=2, max_size=2)))
        if task == "moment" or draw(st.booleans()):
            entries["task.E_lo"], entries["task.E_hi"] = interval
    if task == "msa":
        entries["task.m"] = draw(st.floats(0, 10, exclude_min=True))
        maybe("task.p", _FLOATS)
        maybe("task.energy_grid_step", st.floats(0, 1, exclude_min=True))
        if draw(st.booleans()):
            entries["task.L_values"] = draw(st.lists(st.integers(1, 64), min_size=1, max_size=4))
        else:
            entries["task.L0"] = draw(st.integers(2, 6))
            entries["task.count"] = draw(st.integers(1, 3))
            maybe("task.alpha", st.floats(1, 2.5, exclude_min=True))
        modes = ["MonteCarlo", "ExactBernoulli"] if kind == "Bernoulli" else ["MonteCarlo"]
        maybe("task.mode", st.sampled_from(modes))
    elif task == "decay":
        maybe("task.shell_floor", st.floats(0, 1))
        maybe("task.min_shells", st.integers(2, 10))
    elif task == "moment":
        entries["task.s"] = draw(st.floats(0, 4))
        entries["task.K_radius"] = draw(st.integers(0, 5))
        maybe("task.vertex_limit", st.integers(0, 30))

    maybe("run.master_seed", st.integers(0, 2**32))
    maybe("run.realizations", st.integers(1, 1000))
    maybe("run.workers", st.integers(0, 8))
    maybe("run.out", st.text("abz_/-09.", min_size=1))
    ordered = draw(st.permutations(list(entries.items())))
    return "".join(f"{key} = {_format(value)}\n" for key, value in ordered)


@settings(max_examples=300, deadline=None)
@given(config_texts())
def test_round_trip_property(text):
    config = parse_config(text)
    dumped = dumps_config(config)
    assert parse_config(dumped) == config
    assert dumps_config(parse_config(dumped)) == dumped


# ---------------------------------------------------------------------------
# running tasks
# ---------------------------------------------------------------------------


def test_spectrum_task_matches_path_oracle(tmp_path):
    config = parse_config(SPECTRUM_FREE_CONFIG)
    manifest = run(config, out_override=str(tmp_path))
    csv_path = tmp_path / "spectrum.csv"
    assert str(csv_path) in manifest.outputs
    rows = [
        line.split(",")
        for line in csv_path.read_text().splitlines()
        if not line.startswith("#")
    ]
    values = np.array([float(r[2]) for r in rows])
    length = 21
    oracle = 2.0 - 2.0 * np.cos(np.arange(1, length + 1) * np.pi / (length + 1))
    assert np.max(np.abs(np.sort(values) - oracle)) < 1e-10
    assert (tmp_path / "run_manifest.json").exists()


def _spectrum_rows(path):
    return [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]


@pytest.mark.parametrize("n, L", [(2, 4), (3, 2)])
def test_spectrum_task_sector_eigenvalues_match_the_full_solve(tmp_path, n, L):
    config = parse_config(INTERACTING_CONFIG.format(n=n, task="spectrum", L=L, extra=""))
    run(config, out_override=str(tmp_path))
    rows = _spectrum_rows(tmp_path / "spectrum.csv")
    for index in range(config.run.realizations):
        full = harness._realize(config, index).eigenvalues
        got = np.array([float(r[2]) for r in rows if int(r[0]) == index])
        assert len(got) == len(full) == (2 * L + 1) ** n
        assert np.max(np.abs(got - full)) <= 1e-12 * (1.0 + np.max(np.abs(full)))
        assert [r[2] for r in rows if int(r[0]) == index] == [
            harness._fmt(E) for E in harness._realize(config, index, sectors=True).eigenvalues
        ]


def _without_sectors(monkeypatch):
    full_solve = harness.eigensolve

    def full_only(hm, dense_limit, sectors=False):
        return full_solve(hm, dense_limit)

    monkeypatch.setattr(harness, "eigensolve", full_only)


def test_one_particle_spectrum_bytes_do_not_change_with_sectors(tmp_path, monkeypatch):
    config = parse_config(DECAY_CONFIG.replace("task.type = decay", "task.type = spectrum"))
    run(config, out_override=str(tmp_path / "sectors"), plot=True)
    _without_sectors(monkeypatch)
    run(config, out_override=str(tmp_path / "full"), plot=True)
    for name in ("spectrum.csv", "spectrum_eigenvalues.dat"):
        assert (tmp_path / "sectors" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_two_particle_decay_keeps_the_full_solve(tmp_path, monkeypatch):
    config = parse_config(INTERACTING_CONFIG.format(n=2, task="decay", L=4, extra=""))
    run(config, out_override=str(tmp_path / "task"), plot=True)
    _without_sectors(monkeypatch)
    run(config, out_override=str(tmp_path / "full"), plot=True)
    for name in ("decay.csv", "decay_shells.dat", "decay_fitline.dat"):
        assert (tmp_path / "task" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_decay_worker_ships_its_first_fit_of_highest_r_squared(monkeypatch):
    config = parse_config(DECAY_CONFIG)
    size = 2 * config.task.L + 1
    r_squared = [0.5, 0.9, None, 0.9, 0.1] + [0.2] * (size - 5)  # None: too few shells

    def scripted_fit(spectrum, j, **kwargs):
        if r_squared[j] is None:
            raise DecayFitError("scripted skip")
        return DecayFit(float(j), 0.0, r_squared[j], 3, spectrum.site_list[j], np.arange(3.0), np.zeros(3))

    monkeypatch.setattr(harness, "decay_fit", scripted_fit)
    rows, best = _decay_worker(config, 1)
    assert len(rows) == size and rows[2].endswith("skip:too_few_shells")
    assert best.rate == 1.0


def test_decay_task_row_per_eigenvector(tmp_path):
    config = parse_config(DECAY_CONFIG)
    run(config, out_override=str(tmp_path))
    lines = [
        line
        for line in (tmp_path / "decay.csv").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert len(lines) == 2 * 25  # realizations x sites
    for line in lines:
        fields = line.split(",")
        assert fields[-1] == "ok" or fields[-1].startswith("skip:")
        if fields[-1] == "ok":
            assert np.isfinite(float(fields[3]))


def test_msa_task_csv_and_plots(tmp_path):
    config = parse_config(MSA_CONFIG)
    run(config, out_override=str(tmp_path), plot=True)
    body = [
        line
        for line in (tmp_path / "msa.csv").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert len(body) == 1
    fields = body[0].split(",")
    assert fields[0] == "1" and fields[7] == "6"
    target_lines = (tmp_path / "msa_target.dat").read_text().splitlines()
    assert len(target_lines) == 1
    estimate_lines = (tmp_path / "msa_estimate.dat").read_text().splitlines()
    assert len(estimate_lines) <= 1  # dropped when the estimate is zero


def test_moment_task_mean_in_header(tmp_path):
    config = parse_config(MOMENT_CONFIG)
    run(config, out_override=str(tmp_path), plot=True)
    text = (tmp_path / "moment.csv").read_text()
    assert "disorder-averaged mean" in text
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert len(body) == 4
    plot_lines = (tmp_path / "moment_values.dat").read_text().splitlines()
    assert len(plot_lines) == 4


def test_worker_count_does_not_change_bytes(tmp_path):
    config = parse_config(MSA_CONFIG)
    run(config, cli_workers=1, out_override=str(tmp_path / "w1"))
    run(config, cli_workers=2, out_override=str(tmp_path / "w2"))
    a = (tmp_path / "w1" / "msa.csv").read_bytes()
    b = (tmp_path / "w2" / "msa.csv").read_bytes()
    assert a == b


def test_worker_count_does_not_change_moment_bytes(tmp_path):
    extra = "task.E_lo = 5.0\ntask.E_hi = 5.6\ntask.s = 2.0\ntask.K_radius = 1\n"
    config = parse_config(INTERACTING_CONFIG.format(n=2, task="moment", L=5, extra=extra))
    run(config, cli_workers=1, out_override=str(tmp_path / "w1"))
    run(config, cli_workers=2, out_override=str(tmp_path / "w2"))
    a = (tmp_path / "w1" / "moment.csv").read_bytes()
    b = (tmp_path / "w2" / "moment.csv").read_bytes()
    assert a == b
    assert a.count(b"ExactVertex") == config.run.realizations


def test_seed_override_changes_results(tmp_path):
    config = parse_config(DECAY_CONFIG)
    run(config, out_override=str(tmp_path / "a"))
    run(config, cli_seed=99, out_override=str(tmp_path / "b"))
    a = (tmp_path / "a" / "decay.csv").read_text()
    b = (tmp_path / "b" / "decay.csv").read_text()
    assert a != b


def test_atomic_write_cleans_up_on_failure(tmp_path, monkeypatch):
    target = tmp_path / "data.csv"

    def boom(src, dst):
        raise OSError("simulated replace failure")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        _atomic_write_text(target, "partial")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_failed_task_leaves_no_csv(tmp_path):
    text = MOMENT_CONFIG + "\nmodel.dense_limit = 4\n"
    config = parse_config(text)
    with pytest.raises(Exception):
        run(config, out_override=str(tmp_path))
    assert not (tmp_path / "moment.csv").exists()


def test_effective_workers_precedence(monkeypatch):
    monkeypatch.delenv("ANDERSON_WORKERS", raising=False)
    assert effective_workers(3) == 3
    monkeypatch.setenv("ANDERSON_WORKERS", "5")
    assert effective_workers(3) == 5
    assert effective_workers(3, cli_value=2) == 2
    monkeypatch.setenv("ANDERSON_WORKERS", "0")
    assert effective_workers(3) == os.cpu_count()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_success_and_outputs(tmp_path, capsys):
    path = _write(tmp_path, "msa.cfg", MSA_CONFIG)
    code = cli.main(["msa", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "msa.csv" in capsys.readouterr().out


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "bad.cfg", "disorder.kind = Gaussian\n")
    assert cli.main(["msa", "--config", path]) == 1
    assert "config error" in capsys.readouterr().err

    # a bad task value is a config error with its line, not a runtime error
    path = _write(tmp_path, "neg.cfg", MSA_CONFIG.replace("task.m = 0.5", "task.m = -0.5"))
    line = MSA_CONFIG.splitlines().index("task.m = 0.5") + 1
    assert cli.main(["msa", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert f"config error: line {line}: task.m" in capsys.readouterr().err


def test_cli_missing_file_exit_code(tmp_path):
    assert cli.main(["msa", "--config", str(tmp_path / "absent.cfg")]) == 1


def test_cli_task_mismatch_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "msa.cfg", MSA_CONFIG)
    assert cli.main(["decay", "--config", path]) == 1
    assert "task.type" in capsys.readouterr().err


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "m.cfg", MOMENT_CONFIG + "\nmodel.dense_limit = 4\n")
    code = cli.main(["moment", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "runtime error" in capsys.readouterr().err


def test_cli_validate(tmp_path, capsys):
    path = _write(tmp_path, "msa.cfg", MSA_CONFIG)
    assert cli.main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "bounded-measure check: pass" in out

    bad = _write(
        tmp_path,
        "flat.cfg",
        MSA_CONFIG.replace("disorder.amplitude = 8.0", "disorder.amplitude = 0.0"),
    )
    assert cli.main(["validate", "--config", bad]) == 1


def test_cli_seed_flag(tmp_path):
    path = _write(tmp_path, "msa.cfg", MSA_CONFIG)
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert cli.main(["msa", "--config", path, "--seed", "5", "--out", str(out1)]) == 0
    assert cli.main(["msa", "--config", path, "--out", str(out2)]) == 0
    # run.master_seed is already 5, so an explicit --seed 5 matches the default
    assert (out1 / "msa.csv").read_bytes() == (out2 / "msa.csv").read_bytes()
