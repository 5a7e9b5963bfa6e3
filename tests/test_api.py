"""The public API: the names the package exports and the parameters of its entry
points. A change to either is a change to the API, so it must show up here."""

import dataclasses
import inspect

import pytest

import chainmix

EXPORTS = [
    "Alphabet", "ClassDecomposition", "DEFAULT", "DELTA", "Distribution",
    "ExchangeabilityReport", "FiniteLaw", "HMMModel", "HittingTimeSpec", "IIDMixtureModel",
    "JointChain", "LemmaCheckResult", "MarkovMixtureModel", "Partition",
    "PartitionedKernelMixture", "RandomSource", "RecoveredMixingMeasure", "RunConfig",
    "StochasticMatrix", "SuccessorsArray", "Trajectory", "cesaro_limit",
    "check_hitting_time_lemmas", "check_lemmas_mc", "check_splitting",
    "check_strong_splitting", "condition_on_first", "decompose", "empirical_law",
    "event_probability", "extract", "extract_partitioned", "hmm_law", "hmm_to_iid_mixture",
    "hmm_to_markov_mixture_exact", "iid_mixture_law", "iid_mixture_to_hmm", "is_recurrent",
    "laws_equal", "lift_with_prefix", "lln_recover", "lln_row_estimate", "marginalize_first",
    "marginalize_last", "markov_mixture_law", "markov_mixture_to_hmm", "model_law",
    "partitioned_mixture_law", "partitioned_mixture_to_hmm", "sample", "sample_many",
    "stationary_distribution", "test_partial_exchangeability", "test_row_exchangeability",
    "total_variation", "validate_model",
]

RUN_CONFIG_FIELDS = ["tol_exact", "enum_budget", "min_row_count", "cluster_tol", "alpha",
                     "mc_samples", "horizon_floor"]

SIGNATURES = {
    "iid_mixture_law": "(m, N, budget=None)",
    "markov_mixture_law": "(m, N, budget=None)",
    "hmm_law": "(m, N, budget=None)",
    "partitioned_mixture_law": "(m, N, budget=None)",
    "extract": "(t, alphabet=None)",
    "extract_partitioned": "(t, partition)",
    "sample_many": "(model, length, count, src, trace_hidden=False)",
}


def test_exported_names():
    # submodules are attributes too once imported, but they are not what the package exports
    names = [n for n in dir(chainmix)
             if not n.startswith("_") and not inspect.ismodule(getattr(chainmix, n))]
    assert names == EXPORTS


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_entry_point_parameters(name):
    params = inspect.signature(getattr(chainmix, name)).parameters.values()
    shown = ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                      for p in params)
    assert f"({shown})" == SIGNATURES[name]


def test_run_config_fields():
    # each field is a config-file key; a key no code reads is not one of them
    assert [f.name for f in dataclasses.fields(chainmix.RunConfig)] == RUN_CONFIG_FIELDS
