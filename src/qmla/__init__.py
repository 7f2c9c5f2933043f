"""Bayesian learning of interpretable Hamiltonian models for spin systems.

The package trains candidate models against a quantum system (simulated or
recorded) with sequential Monte Carlo inference, compares them via Bayes
factors, searches a growing graph of models for a champion, and estimates
the size of a nuclear spin bath from Hahn-echo data.
"""

from .bath import (
    BathHyperparameters,
    BathRealization,
    MhaTrace,
    cle_train,
    estimate_T2,
    fit_logistic,
    hahn_signal,
    mha_run,
    pseudospin,
    sample_bath_realization,
)
from .bayes import (
    BayesFactorResult,
    TrainedModel,
    bayes_factor,
    cumulative_log_likelihood,
    min_particle_bound,
    union_dataset,
)
from .harness import (
    BatchReport,
    ConfigError,
    RunConfig,
    emit_plot_data,
    estimate_runtime,
    load_config,
    parse_config,
    run_batch,
    run_single_instance,
)
from .pauli import (
    ModelExpression,
    ModelParseError,
    PauliTerm,
    assemble_hamiltonian,
    evolve_unitary,
    parse_model,
    term_matrix,
)
from .search import (
    GrowthRule,
    SearchState,
    classify_result,
    consolidate,
    parental_consolidation,
    reduced_model_check,
    run_instance,
    spawn,
)
from .smc import (
    ParticleCloud,
    PriorSpec,
    TrainingRecord,
    bayes_update,
    design_heuristic,
    effective_sample_size,
    initialize_cloud,
    liu_west_resample,
    run_qhl,
    should_resample,
    volume,
)
from .system import (
    ExperimentDesign,
    ExperimentTable,
    NoiseConfig,
    RecordedDataset,
    ReplaySystem,
    SimulatedSystem,
    expectation_value,
    open_system_likelihood,
    randomized_probe,
    replay_probability,
    sample_datum,
)

__version__ = "0.1.0"
