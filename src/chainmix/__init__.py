"""Countable mixtures of Markov chains and i.i.d. sequences as hidden Markov
models: exact finite-horizon laws, law-preserving conversions in both
directions, mixing-measure recovery from trajectories, exchangeability tests
on successors arrays, and stopping-time identity checks."""

from .config import DEFAULT, RunConfig
from .model_core import (
    DELTA,
    Alphabet,
    Distribution,
    FiniteLaw,
    HMMModel,
    IIDMixtureModel,
    MarkovMixtureModel,
    Partition,
    PartitionedKernelMixture,
    StochasticMatrix,
    hmm_law,
    iid_mixture_law,
    markov_mixture_law,
    model_law,
    partitioned_mixture_law,
    validate_model,
)
from .exact_law import (
    condition_on_first,
    laws_equal,
    lift_with_prefix,
    marginalize_first,
    marginalize_last,
    total_variation,
)
from .chain_analysis import (
    ClassDecomposition,
    cesaro_limit,
    decompose,
    is_recurrent,
    stationary_distribution,
)
from .sim import RandomSource, Trajectory, empirical_law, sample, sample_many
from .successors import SuccessorsArray, extract, extract_partitioned
from .constructions import (
    hmm_to_iid_mixture,
    hmm_to_markov_mixture_exact,
    iid_mixture_to_hmm,
    markov_mixture_to_hmm,
    partitioned_mixture_to_hmm,
)
from .recovery import (
    ExchangeabilityReport,
    RecoveredMixingMeasure,
    lln_recover,
    lln_row_estimate,
    test_partial_exchangeability,
    test_row_exchangeability,
)
from .stopping_verifier import (
    HittingTimeSpec,
    JointChain,
    LemmaCheckResult,
    check_hitting_time_lemmas,
    check_lemmas_mc,
    check_splitting,
    check_strong_splitting,
    event_probability,
)

__version__ = "0.1.0"
