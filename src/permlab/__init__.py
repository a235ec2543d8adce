"""permlab: exact desk-scale simulation of permutation oracles, a subset
verification protocol, coset-structured randomized channels and their unitary
dilation, subset-family structure extraction, and adversary-style query lower
bounds, behind a deterministic seeded CLI."""

from .core import (
    DensityMatrix,
    PureState,
    Subset,
    SubsetFamily,
    enumerate_family,
    partial_trace,
    philox_stream,
    sample_family,
    subset_state,
    trace_distance,
)
from .oracles import (
    apply_randomized_preimage,
    block_permutations,
    block_twirl,
    representative_sigma,
)
from .verifier import (
    PreimageInstance,
    acceptance_operator,
    optimal_witness_prob,
    sweep_honest,
    sweep_lambda,
    test_i,
    test_ii,
)
from .dilation import (
    DilationRun,
    QueryAlgorithm,
    check_dilation,
    chi_state,
    run_channel_picture,
    run_dilated_picture,
)
from .structure import (
    DistributedCertificate,
    TargetClass,
    bound_crossover,
    check_distributed,
    fixing_procedure,
    witness_pigeonhole,
)
from .adversary import (
    AdversaryStats,
    OracleRelation,
    ProgressTrace,
    adversary_bound,
    build_preimage_relation,
    build_subset_relation,
    end_to_end_bound_check,
    progress_trace,
    relation_stats,
)
from .harness import ExperimentConfig, load_config, main, run

__version__ = "0.1.0"
