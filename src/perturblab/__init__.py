"""perturblab: how badly conditioned can a perturbed integer matrix stay?

Discrete noise laws with verified cosine envelopes, exact small-ball
concentration against Fourier product bounds, generalized arithmetic
progression discretization, witness rounding and classification, and a
seeded experiment harness over the singular spectrum.
"""

from .concentration import (
    ConcentrationQuery,
    ConcentrationValue,
    DominanceReport,
    NondegeneracyReport,
    RichnessReport,
    check_dominance,
    check_nondegeneracy,
    classify_rich,
    exact_concentration,
    exact_point_mass,
    fourier_bound,
    parse_query,
)
from .config import KINDS, ExperimentConfig, default_b_exponent, load_config, save_config
from .errors import (
    ConvergenceError,
    PerturbLabError,
    ResourceError,
    ValidationError,
)
from .experiments import (
    CondTailResult,
    FrozenResult,
    GeResult,
    MinorsResult,
    TailResult,
    build_mask,
    condition_tail,
    frozen_entries_experiment,
    gaussian_matrix,
    ge_error_experiment,
    minors_experiment,
    singularity_probability,
    tail_curve,
)
from .gaps import (
    DiscretizationResult,
    Gap,
    SearchOutcome,
    discretize_rank1,
    format_discretization,
    format_gap,
    inverse_lo_search,
    parse_discretization,
    parse_gap,
    sumset,
    verify_discretization,
)
from .linalg import (
    IntegerMatrix,
    RealMatrix,
    SingularSpectrum,
    condition_number,
    exact_inverse_norm,
    frobenius_norm,
    load_integer_matrix,
    matrix_from_spec,
    operator_norm,
    perturb,
    save_integer_matrix,
    svd,
    svd_stack,
)
from .noise import (
    BoundednessCertificate,
    CertificateCheck,
    DiscreteDistribution,
    bernoulli,
    certificate_from_symmetric,
    char_magnitude,
    discretized_gaussian,
    distribution_from_spec,
    lazy_coin,
    parse_distribution,
    sample_iid_matrix,
    sample_vector,
    symmetric_chain_margins,
    symmetric_discretization,
    verify_certificate,
)
from .rational import determinant, invert_exact, solve_exact
from .records import (
    ExperimentRecord,
    format_records_csv,
    format_summary_json,
    run_trials,
    write_records_csv,
    write_summary_json,
)
from .util import derive_seed, read_text, wilson_interval
from .witness import (
    EpsilonNet,
    SmallImageReport,
    WitnessClass,
    WitnessVector,
    classify_witness,
    embed_zero_padded,
    greedy_net,
    round_witness,
    small_image_event,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
