"""The benchmark's workloads: fixed config settings plus seed-derived master seeds.

Pure Python, so that the driver can import it without numpy.  Every round of
a workload is one `harness.run` call on the settings below; round k of a run
started with `--seed S` uses master seed `round_seed(S, k)`, so the same seed
gives the same inputs and a longer run only appends rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: the {0, 8} Bernoulli chain of configs/msa_bernoulli.cfg
_BERNOULLI_08 = {
    "disorder.kind": "Bernoulli",
    "disorder.values": (0, 1),
    "disorder.q": 0.5,
    "disorder.amplitude": 8.0,
}

#: set-up runs one eigensolve on a cube of this radius, on realization
#: (WARMUP_SEED, 0) whatever --seed is
WARMUP_RADIUS = 4
WARMUP_SEED = 2_147_483_647

#: a run measures at least this many rounds, however short --seconds is
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    settings: dict = field(default_factory=dict)

    @property
    def task(self) -> str:
        return self.settings["task.type"]

    @property
    def realizations(self) -> int:
        return self.settings["run.realizations"]

    @property
    def events_per_round(self) -> int:
        """Realizations one round attempts (one pair event per L for msa)."""
        if self.task == "msa":
            return self.realizations * len(self.settings["task.L_values"])
        return self.realizations

    def config_text(self) -> str:
        lines = []
        for key, value in self.settings.items():
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


def round_seed(seed: int, round_index: int) -> int:
    return seed * 10_000 + round_index


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "msa_1d",
            "msa task of configs/msa_bernoulli.cfg at 8 realizations: the per-probe LU loop of classify_cube_energies",
            {
                **_BERNOULLI_08,
                "task.type": "msa",
                "task.m": 0.2,
                "task.p": 7.0,
                "task.E_lo": 0.0,
                "task.E_hi": 1.0,
                "task.energy_grid_step": 1e-3,
                "task.L_values": (8, 16, 32),
                "task.mode": "MonteCarlo",
                "run.realizations": 8,
                "run.workers": 1,
            },
        ),
        Workload(
            "decay_1d",
            "decay task on the same chain at L = 200 (criterion 9): the Python loop of decay_fit and CSV rows",
            {
                **_BERNOULLI_08,
                "task.type": "decay",
                "task.L": 200,
                "run.realizations": 6,
                "run.workers": 1,
            },
        ),
        Workload(
            "moment_2p",
            "moment task at n = N = 2, L = 16 (1089 sites), h = 0.5: dense eigh plus vertex enumeration",
            {
                "model.N": 2,
                "model.n": 2,
                "model.d": 1,
                "model.h": 0.5,
                **_BERNOULLI_08,
                "interaction.kind": "SubExponential",
                "interaction.C": 1.0,
                "interaction.c": 1.0,
                "interaction.tau": 0.5,
                "task.type": "moment",
                "task.L": 16,
                "task.E_lo": 2.0,
                "task.E_hi": 2.3,
                "task.s": 2.0,
                "task.K_radius": 1,
                "task.vertex_limit": 18,
                "run.realizations": 3,
                "run.workers": 1,
            },
        ),
    )
}
