"""Desk-scale simulator for Chebyshev quantum Kolmogorov-Arnold networks.

Builds diagonal block-encodings as explicit linear operators, runs the
layer pipeline (dilate, Chebyshev transform, weight product, LCU, input
summation) exactly, checks the error and resource claims against a
classical oracle, and trains the weight tensors numerically.
"""

from .block_encoding import (
    BlockEncoding,
    StatePrepPair,
    adjoint_encoding,
    dilate,
    extract_block,
    extract_diagonal,
    hadamard_product,
    identity_encoding,
    lcu,
    pair_for_weights,
    perturb,
    product,
    remove_offdiagonal,
    split_system,
    uniform_pair,
    verify,
)
from .chebyshev import chebyshev_be
from .encoders import (
    encode_diagonal_exact,
    encode_from_stateprep,
    encode_real_weights,
    stateprep_for_real_vector,
)
from .errors import (
    ContractViolationError,
    DegenerateOutputError,
    DivergenceError,
    DomainError,
    QkanError,
    ResourceLimitError,
)
from .network import (
    LayerAssembler,
    LayerSpec,
    NetworkBuild,
    QkanSpec,
    build_layer,
    build_network,
    chebyshev_basis,
    classical_layer_eval,
    classical_network_eval,
    sum_over_inputs,
)
from .operators import (
    Dense,
    Diagonal,
    Embedded,
    Identity,
    LinearOperator,
    Multiplexed,
    Permutation,
    Query,
    SystemBlocks,
    WalshHadamard,
    compose,
    describe,
    describe_text,
    hadamard_layer,
    kron,
    query_counts,
    qubit_budget,
    random_unitary,
    state_prep_unitary,
    unitarity_defect,
)
from .readout import (
    PreparedState,
    ReadoutResult,
    StateVector,
    check_stateprep_bound,
    estimate_all_outputs,
    hadamard_test,
    prepare_state_postselect,
    stateprep_thresholds,
)
from .resources import CostReport, analytic_cost, reconcile, selector_qubits
from .trainer import (
    ClassicalModel,
    Dataset,
    SimulatedModel,
    TrainConfig,
    TrainResult,
    finite_diff_grad,
    loss,
    spsa_step,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
