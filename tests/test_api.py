"""The public API: every exported name and the signature of each function
and class, pinned to a literal table so that a change to either fails here."""

import inspect

import mpanderson

# name -> str(inspect.signature(obj)); exceptions, which have none, by base class
PUBLIC_API = {
    'ConfigPoint': "(coords: 'tuple[int, ...]', n: 'int', d: 'int') -> None",
    'Cube': "(center: 'ConfigPoint', radius: 'int') -> None",
    'Rectangle': "(centers: 'tuple[tuple[int, ...], ...]', radii: 'tuple[int, ...]') -> None",
    'external_boundary': "(region: 'Region') -> 'set[ConfigPoint]'",
    'internal_boundary': "(region: 'Region') -> 'set[ConfigPoint]'",
    'is_J_separable': "(x: 'ConfigPoint', y: 'ConfigPoint', L: 'int', J: 'Iterable[int]') -> 'bool'",
    'is_separable_pair': "(x: 'ConfigPoint', y: 'ConfigPoint', L: 'int', N: 'int') -> 'bool'",
    'l1_norm': "(x: 'ConfigPoint', y: 'ConfigPoint') -> 'int'",
    'sites': "(region: 'Region') -> 'list[ConfigPoint]'",
    'sup_norm': "(x: 'ConfigPoint', y: 'ConfigPoint') -> 'int'",
    'DisorderRealization': "(values: 'Mapping[tuple[int, ...], float]', provenance: 'tuple[int, int] | None' = None) -> None",
    'DisorderSpec': "(kind: 'str', values: 'tuple[float, ...]', probabilities: 'tuple[float, ...] | None' = None, amplitude: 'float' = 1.0) -> None",
    'multi_particle_potential': "(real: 'DisorderRealization', x: 'ConfigPoint') -> 'float'",
    'sample': "(spec: 'DisorderSpec', region: 'Iterable[tuple[int, ...]]', master_seed: 'int', realization_index: 'int') -> 'DisorderRealization'",
    'validate_assumption_P': "(spec: 'DisorderSpec') -> 'AssumptionReport'",
    'HamiltonianMatrix': "(site_list: 'tuple[ConfigPoint, ...]', index: 'dict[ConfigPoint, int]', matrix: 'sp.csr_matrix', n: 'int', d: 'int', h: 'float', region: 'Region | None' = None, provenance: 'tuple[int, int] | None' = None, _dense: 'np.ndarray | None' = None) -> None",
    'InteractionSpec': "(kind: 'str', C: 'float', c: 'float', tau: 'float', cutoff: 'int | None' = None) -> None",
    'apply': "(hm: 'HamiltonianMatrix', v: 'np.ndarray') -> 'np.ndarray'",
    'build': "(region: 'Region', realization: 'DisorderRealization', ispec: 'InteractionSpec | None' = None, h: 'float' = 0.0) -> 'HamiltonianMatrix'",
    'interaction_energy': "(ispec: 'InteractionSpec | None', x: 'ConfigPoint') -> 'float'",
    'validate_interaction_bound': "(ispec: 'InteractionSpec', radius: 'int', envelope: 'InteractionSpec | None' = None) -> 'InteractionBoundReport'",
    'GreenSolver': "(hm: 'HamiltonianMatrix', energy: 'float', spectrum: 'Spectrum | None' = None, dense_limit: 'int' = 4096) -> 'None'",
    'NearSpectrumError': 'raises RuntimeError',
    'NsVerdict': "(nonsingular: 'bool', max_boundary_green: 'float', threshold: 'float', margin: 'float', spectral_gap: 'float') -> None",
    'Spectrum': "(eigenvalues: 'np.ndarray', eigenvectors: 'np.ndarray', site_list: 'tuple[ConfigPoint, ...]', residual_bound: 'float', orthonormality_defect: 'float') -> None",
    'classify_cube': "(cube: 'Cube', hm: 'HamiltonianMatrix', energy: 'float', m: 'float', N: 'int', spectrum: 'Spectrum | None' = None, dense_limit: 'int' = 4096) -> 'NsVerdict'",
    'eigensolve': "(hm: 'HamiltonianMatrix', dense_limit: 'int' = 4096, *, sectors: 'bool' = False) -> 'Spectrum'",
    'gamma': "(m: 'float', L: 'int', n: 'int', N: 'int') -> 'float'",
    'green': "(hm: 'HamiltonianMatrix', energy: 'float', x: 'ConfigPoint', y: 'ConfigPoint', spectrum: 'Spectrum | None' = None, dense_limit: 'int' = 4096) -> 'float'",
    'MsaParams': "(N: 'int', n: 'int', d: 'int', m: 'float', p: 'float', h: 'float', interval: 'tuple[float, float]', L_values: 'tuple[int, ...]', realizations: 'int', master_seed: 'int', energy_grid_step: 'float' = 0.001, mode: 'str' = 'MonteCarlo', dense_limit: 'int' = 4096) -> None",
    'NonSeparablePairError': 'raises ValueError',
    'PairEstimate': "(L: 'int', estimate: 'float', ci_low: 'float', ci_high: 'float', target: 'float', samples_used: 'int', energy_points_used: 'int') -> None",
    'estimate_pair_probability': "(u: 'ConfigPoint', v: 'ConfigPoint', L: 'int', params: 'MsaParams', disorder_spec: 'DisorderSpec', ispec: 'InteractionSpec | None' = None, workers: 'int' = 1) -> 'PairEstimate'",
    'msa_report': "(params: 'MsaParams', disorder_spec: 'DisorderSpec', ispec: 'InteractionSpec | None' = None, workers: 'int' = 1) -> 'list[PairEstimate]'",
    'pair_singular_event': "(u: 'ConfigPoint', v: 'ConfigPoint', L: 'int', params: 'MsaParams', realization: 'DisorderRealization', ispec: 'InteractionSpec | None' = None) -> 'bool'",
    'scale_sequence': "(L0: 'int', count: 'int', alpha: 'float' = 1.5) -> 'list[int]'",
    'DecayFit': "(rate: 'float', intercept: 'float', r_squared: 'float', shells_used: 'int', center: 'ConfigPoint', shell_radii: 'np.ndarray', shell_log_maxima: 'np.ndarray') -> None",
    'MomentResult': "(s: 'float', interval: 'tuple[float, float]', value: 'float', method: 'str', multiplicity: 'int', provenance: 'tuple[int, int] | None' = None) -> None",
    'decay_fit': "(spectrum: 'Spectrum', eigen_index: 'int', center: 'ConfigPoint | None' = None, min_shells: 'int' = 3, floor: 'float' = 1e-14) -> 'DecayFit'",
    'disorder_averaged_moment': "(region: 'Region', disorder_spec: 'DisorderSpec', ispec: 'InteractionSpec | None', h: 'float', interval: 'tuple[float, float]', s: 'float', K: 'Iterable[ConfigPoint]', realizations: 'int', master_seed: 'int', vertex_limit: 'int' = 20, dense_limit: 'int' = 4096, workers: 'int' = 1) -> 'float'",
    'eigenfunction_correlator': "(spectrum: 'Spectrum', interval: 'tuple[float, float]') -> 'np.ndarray'",
    'hs_moment': "(spectrum: 'Spectrum', interval: 'tuple[float, float]', s: 'float', K: 'Iterable[ConfigPoint]', vertex_limit: 'int' = 20, origin: 'ConfigPoint | None' = None, provenance: 'tuple[int, int] | None' = None) -> 'MomentResult'",
    'ExperimentConfig': "(model: 'ModelBlock', disorder: 'DisorderSpec', task: 'TaskBlock', run: 'RunBlock', interaction: 'InteractionSpec | None' = None) -> None",
    'RunManifest': "(config_echo: 'str', artifact_version: 'str', timestamp: 'str', outputs: 'list[str]', wall_time_s: 'float') -> None",
    'parse_config': "(text: 'str') -> 'ExperimentConfig'",
    'run': "(config: 'ExperimentConfig', cli_seed: 'int | None' = None, cli_workers: 'int | None' = None, out_override: 'str | None' = None, plot: 'bool' = False) -> 'RunManifest'",
}


def _shape(obj) -> str:
    if inspect.isclass(obj) and issubclass(obj, BaseException):
        return "raises " + obj.__mro__[1].__name__
    return str(inspect.signature(obj))


def test_exported_names_are_unchanged():
    assert mpanderson.__all__ == list(PUBLIC_API)


def test_exported_signatures_are_unchanged():
    shapes = {name: _shape(getattr(mpanderson, name)) for name in mpanderson.__all__}
    assert shapes == PUBLIC_API
