"""qstoch: memory cost of simulating a two-switch stochastic process,
classically and with non-orthogonal qubit encodings, at desk scale."""

from .qmath import (
    DensityMatrix,
    InvalidDistributionError,
    Ket,
    Unitary,
    eig_hermitian,
    fidelity,
    ry,
    shannon_entropy,
    tensor,
    trace_distance,
    von_neumann_entropy,
)
from .process import (
    CausalMachine,
    IidMachine,
    ReducibleChainError,
    SwitchConfig,
    block_distribution,
    classical_complexity,
    excess_entropy,
    merge_equivalent_states,
    naive_switch_entropy,
    reduce_to_causal_machine,
    stationary_distribution,
    two_switch_block_distribution,
    two_switch_step,
)
from .qmodel import (
    QuantumModel,
    StepGates,
    SynthesisError,
    construct_cu,
    quantum_causal_states,
    quantum_complexity,
    steady_state_rho,
)
from .circuit import (
    CircuitState,
    NoiseModel,
    RunResult,
    apply_noise,
    calibrate_noise,
    classical_step,
    depolarizing_average,
    measure_qubit,
    quantum_step,
    run_trace,
    sampled_machine,
    trace_blocks,
)
from .tomo import (
    TomographyCounts,
    TomographyResult,
    entropy_with_error,
    reconstruct_rho,
    simulate_counts,
)
from .cli import ExperimentConfig

__version__ = "0.1.0"
