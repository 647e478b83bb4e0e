"""qstoch: memory cost of simulating a two-switch stochastic process,
classically and with non-orthogonal qubit encodings, at desk scale."""

from .qmath import (
    InvalidDistributionError,
    shannon_entropy,
    trace_distance,
    von_neumann_entropy,
)
from .process import (
    CausalMachine,
    ReducibleChainError,
    block_distribution,
    classical_complexity,
    excess_entropy,
    stationary_distribution,
)
from .qmodel import (
    depolarized_complexity,
    quantum_causal_states,
    quantum_complexity,
    steady_state_rho,
)
from .circuit import (
    RunResult,
    calibrate_noise,
    run_trace,
    sampled_machine,
    trace_blocks,
)
from .tomo import (
    TomographyCounts,
    TomographyResult,
    entropy_with_error,
    reconstruct_rho,
    reconstructed_entropy,
    simulate_counts,
)

__version__ = "0.1.0"
