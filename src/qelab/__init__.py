"""Desk-scale laboratory for quantum encryption.

Dense density-matrix arithmetic, a quantum one-time-pad core, toy
classical primitives (trapdoor permutation, hard-core bits, generator,
tree PRF), two tag-plus-pad encryption schemes, seven executable security
games with exact-enumeration and sampling modes, and the reductions
connecting them.
"""

# Set before the submodules load: reports read it through `serialize`.
__version__ = "0.1.0"

from .errors import QelabError
from .estimate import AdvantageEstimate, GameArm, estimate, wilson_halfwidth
from .games import (
    GAME_NAMES,
    GameConfig,
    GeneratorFunctionPair,
    OraclePolicy,
    Oracles,
    ind_prime_ind_identity_check,
    run_ind,
    run_ind_prime,
    run_sem,
    run_sem2,
    run_sem3,
)
from .primitives import (
    ConstantPrf,
    ConstantPrg,
    GgmPrf,
    InnerProductPredicate,
    IteratedPermutationPrg,
    RandomFunctionOracle,
    ToyRsaPermutationFamily,
    TowpIndex,
    TowpTrapdoor,
    embed_seed,
    ggm_prf,
    hardcore_eval,
    prf_distinguisher_advantage,
    prg_iterated,
)
from .quantum import (
    MAX_EXHAUSTIVE_QUBITS,
    TOL_ALGEBRA,
    TOL_PSD,
    DensityMatrix,
    Register,
    apply_pauli,
    basis_state,
    bell_state,
    channel_choi_distance,
    maximally_mixed,
    measure_computational,
    measure_registers_into,
    measurement_distribution,
    minus_state,
    partial_trace,
    pauli_from_key,
    plus_state,
    qotp_average,
    random_mixed_state,
    random_pure_state,
    rename_register,
    replace_with_zero_state,
    tensor,
    trace_distance,
)
from .reductions import (
    PaddedStatePair,
    cca1_to_prf_exact_check,
    ind_to_sem_pipeline,
    reduction_cca1_to_prf,
    reduction_ind_to_sem,
    reduction_qotp_to_prg,
    reduction_sem_to_ind,
    run_prg_pad_reduction,
    sem_to_ind_identity_check,
)
from .rng import Stream
from .schemes import (
    SCHEME_BUILDERS,
    Ciphertext,
    IdentityScheme,
    KeyPair,
    PadSkippingDecryptScheme,
    PermutationPublicScheme,
    PkeCiphertext,
    PrfSymmetricScheme,
    QotpScheme,
    RandomPadSymmetricScheme,
    SkeCiphertext,
    UniformPadPublicScheme,
    build_ggm_prf,
    build_scheme,
    ciphertext_as_state,
)
