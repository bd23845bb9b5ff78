"""Numerical toolkit for identifying quantum channels from entangled probes."""

from .linalg import (
    DensityOperator,
    Spectrum,
    hermitian_part,
    maximally_mixed,
    pure_state,
    random_unitary,
    spectral_decomposition,
    state_fidelity,
)
from .channel import (
    ChoiMatrix,
    KrausChannel,
    NotCompletelyPositiveError,
    amplitude_damping_channel,
    choi,
    compose,
    depolarizing_channel,
    from_choi,
    identity_channel,
    is_completely_dominated,
    random_channel,
    stinespring,
    tensor_channels,
    tensor_with_identity,
    unitary_channel,
    zero_map,
)
from .identify import (
    NotAdmissibleError,
    ReconstructionResult,
    ReferenceState,
    RNOperator,
    apply_rn,
    forward_map,
    make_reference,
    reconstruct,
    rn_operator,
    v_isometry,
)
from .metrics import (
    BoundReport,
    CertificateError,
    NormInterval,
    cb_distance_interval,
    cb_norm_of_channel,
    cb_objective,
    channel_fidelity,
    fidelity_lower_bound,
    fvdg_gap,
    worst_case_bound,
)
from .harness import (
    ExperimentConfig,
    NoiseSpec,
    RefSpec,
    SelfCheckError,
    TrialRecord,
    apply_noise,
    run_roundtrip,
    run_spectrum_sweep,
    records_to_csv,
    write_records_csv,
)

__version__ = "0.1.0"
