import json
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import rng, split_hidden_state
from chainmix.cli import main
from chainmix import stopping_verifier
from chainmix.fixtures import (
    iid_rows_three_state,
    separated_recovery_mixture,
    two_cell_partitioned_mixture,
    two_component_mixture,
    two_state_noisy,
)
from chainmix.constructions import markov_mixture_to_hmm
from chainmix.model_io import load_model, model_to_dict, save_model
from chainmix.model_core import validate_model
from chainmix.sim import RandomSource, sample_many
from chainmix.model_io import write_trajectories


@pytest.fixture()
def mix_file(tmp_path):
    path = tmp_path / "mix.json"
    save_model(two_component_mixture(), path)
    return str(path)


@pytest.fixture()
def hmm_file(tmp_path):
    path = tmp_path / "hmm.json"
    save_model(markov_mixture_to_hmm(two_component_mixture()), path)
    return str(path)


@pytest.fixture()
def traj_file(tmp_path):
    path = tmp_path / "trajs.txt"
    trajs = sample_many(separated_recovery_mixture(), 3000, 30, RandomSource(1))
    with open(path, "w") as fh:
        write_trajectories(fh, trajs)
    return str(path)


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_validate_ok(mix_file, capsys):
    status, out, _ = run(capsys, "validate", mix_file)
    assert status == 0
    assert "valid" in out


def test_validate_broken_names_row(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({
        "type": "iid_mixture", "alphabet": ["a", "b"],
        "weights": [1.0], "components": [[0.5, 0.6]],
    }))
    status, out, _ = run(capsys, "validate", str(path))
    assert status == 1
    assert "component 0" in out and "1.1" in out


def test_validate_malformed_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    status, _, err = run(capsys, "validate", str(path))
    assert status == 2
    assert "error:" in err


def _partitioned_file(tmp_path, **fields):
    path = tmp_path / "partitioned.json"
    path.write_text(json.dumps({**model_to_dict(two_cell_partitioned_mixture()), **fields}))
    return str(path)


@pytest.mark.parametrize("fields, violation", [
    ({"partition": [["1", "2"], [], ["3", "4"]], "kernels": [[[0.25] * 4] * 3] * 2},
     "partition: cell 2 is empty"),
    ({"partition": [["1", "2", "9"], ["3", "4"]]}, "partition: cell 1 contains unknown symbol '9'"),
    ({"partition": [["1", "2"], ["2", "3", "4"]]},
     "partition: symbol '2' appears in more than one cell"),
    ({"partition": [["1", "2"], ["3"]]}, "partition: symbols ['4'] belong to no cell"),
    ({"y0": "9"}, "y0: '9' not in the alphabet"),
], ids=["empty cell", "unknown symbol", "two cells", "no cell", "y0"])
def test_validate_lists_what_a_file_holds(fields, violation, tmp_path, capsys):
    # what a field holds is a violation (exit 1); only shapes the types refuse are exit 2
    path = _partitioned_file(tmp_path, **fields)
    assert run(capsys, "validate", path) == (1, f"{violation}\n", "")
    status, out, _ = run(capsys, "validate", path, "--json")
    assert (status, json.loads(out)) == (1, {"valid": False, "violations": [violation]})


def test_validate_json_of_a_valid_file(mix_file, capsys):
    status, out, _ = run(capsys, "validate", mix_file, "--json")
    assert (status, json.loads(out)) == (0, {"valid": True, "violations": []})


def test_an_unusable_path_is_an_input_error(tmp_path, traj_file, capsys):
    # IsADirectoryError used to escape main: a traceback and exit 1, validate's "invalid"
    status, out, err = run(capsys, "validate", str(tmp_path))
    assert (status, out) == (2, "") and err.startswith("error: ") and str(tmp_path) in err
    status, _, err = run(capsys, "recover", traj_file, "--out", str(tmp_path))
    assert status == 2 and err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 95.4 GiB"), "Unable to allocate 95.4 GiB"),
    (MemoryError(), "MemoryError"),
], ids=["numpy's message", "no message"])
def test_a_failed_allocation_is_an_input_error(exc, message, mix_file, capsys):
    with mock.patch("chainmix.cli.sample_many", side_effect=exc):
        assert run(capsys, "simulate", mix_file, "--length", "5") == (2, "", f"error: {message}\n")


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_compare_round_trip_within_tolerance(mix_file, hmm_file, capsys):
    status, out, _ = run(capsys, "compare", mix_file, hmm_file, "--horizon", "4")
    assert status == 0
    tv = float(out.splitlines()[0].split()[1])
    assert tv <= 1e-12


def test_compare_distinct_models_fail(mix_file, tmp_path, capsys):
    other = tmp_path / "other.json"
    save_model(separated_recovery_mixture(), other)
    status, out, _ = run(capsys, "compare", mix_file, str(other), "--horizon", "3")
    assert status == 1
    assert "worst_string" in out


def test_simulate_deterministic_output(mix_file, hmm_file, capsys):
    args = ("simulate", mix_file, "--length", "12", "--count", "3", "--seed", "7")
    s1, out1, _ = run(capsys, *args)
    s2, out2, _ = run(capsys, *args)
    assert s1 == s2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 3
    traced = ("simulate", hmm_file, "--length", "6", "--count", "2",
              "--seed", "7", "--trace-hidden")
    s3, out3, _ = run(capsys, *traced)
    assert s3 == 0
    assert sum(l.startswith("# hidden:") for l in out3.splitlines()) == 2
    # tracing a mixture is an input error, not a crash
    s4, _, err = run(capsys, "simulate", mix_file, "--length", "3", "--trace-hidden")
    assert s4 == 2 and "HMM" in err


def test_law_sorted_output(mix_file, capsys):
    status, out, _ = run(capsys, "law", mix_file, "--horizon", "2")
    assert status == 0
    lines = [l.rsplit(" ", 1)[0] for l in out.splitlines()]
    assert lines == sorted(lines)
    probs = [float(l.rsplit(" ", 1)[1]) for l in out.splitlines()]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_law_json(mix_file, capsys):
    status, out, _ = run(capsys, "law", mix_file, "--horizon", "2", "--json")
    payload = json.loads(out)
    assert payload["length"] == 2
    assert sum(p for _, p in payload["entries"]) == pytest.approx(1.0, abs=1e-12)


def test_convert_and_check(mix_file, tmp_path, capsys):
    out_path = tmp_path / "conv.json"
    status, _, err = run(capsys, "convert", mix_file, "--to", "hmm",
                         "--out", str(out_path), "--check", "4")
    assert status == 0
    assert "tv" in err
    assert validate_model(load_model(out_path)) == []


@pytest.mark.parametrize("out", [False, True])
def test_convert_check_past_the_budget_writes_nothing(out, tmp_path, capsys):
    # the check's laws are refused before the converted model goes to stdout or --out
    model = Path(__file__).resolve().parent.parent / "models" / "stay_swap_mixture.json"
    cfg, out_path = tmp_path / "cfg.json", tmp_path / "hmm.json"
    cfg.write_text('{"enum_budget": 2}')
    argv = ["convert", str(model), "--to", "hmm", "--check", "3", "--config", str(cfg)]
    status, stdout, err = run(capsys, *argv, *(["--out", str(out_path)] if out else []))
    assert (status, stdout) == (2, "")
    assert err.startswith("error: enumeration needs 3 entries") and "budget of 2" in err
    assert not out_path.exists()


@pytest.mark.parametrize("name", ["noisy_hmm.json", "stay_swap_hmm.json"])
def test_convert_refuses_a_lumping_without_the_hmm_law(name, tmp_path, capsys):
    model = Path(__file__).resolve().parent.parent / "models" / name
    out_path = tmp_path / "iid.json"
    status, out, err = run(capsys, "convert", str(model), "--to", "iid_mixture",
                           "--out", str(out_path))
    assert (status, out) == (2, "")
    assert "rounding bound" in err and "lln_recover" in err
    assert not out_path.exists()


def test_convert_inverts_a_split_state_hmm(tmp_path, capsys):
    # one hidden state of a mixture image split into two copies: not the product form,
    # but its law is the mixture's
    path = tmp_path / "split.json"
    save_model(split_hidden_state(markov_mixture_to_hmm(two_component_mixture()), rng(0)), path)
    status, out, err = run(capsys, "convert", str(path), "--to", "markov_mixture",
                           "--check", "6")
    assert status == 0
    assert json.loads(out)["type"] == "markov_mixture"
    assert err.startswith("check horizon=6 tv ")
    assert float(err.split()[-1]) <= 1e-12


def test_convert_unsupported_route(hmm_file, tmp_path, capsys):
    status, _, err = run(capsys, "convert", hmm_file, "--to", "hmm")
    assert status == 2
    assert "no conversion" in err


def test_convert_from_flag(mix_file, capsys):
    status, out, _ = run(capsys, "convert", "--from", mix_file, "--to", "hmm")
    assert status == 0
    assert json.loads(out)["type"] == "hmm"
    status, _, err = run(capsys, "convert", "--to", "hmm")
    assert status == 2 and "exactly one input" in err


def test_compare_drop_first(mix_file, hmm_file, capsys):
    status, out, _ = run(capsys, "compare", mix_file, hmm_file,
                         "--horizon", "4", "--drop-first")
    assert status == 0
    assert float(out.splitlines()[0].split()[1]) <= 1e-12


def test_successors_partitioned(tmp_path, capsys):
    from chainmix.fixtures import two_cell_partitioned_mixture

    pm = two_cell_partitioned_mixture()
    model = tmp_path / "pm.json"
    save_model(pm, model)
    traj = tmp_path / "t.txt"
    s, out, _ = run(capsys, "simulate", str(model), "--length", "30", "--seed", "2")
    traj.write_text(out)
    part = tmp_path / "p.json"
    part.write_text(json.dumps({"cells": [list(c) for c in pm.partition.cells]}))
    status, out, _ = run(capsys, "successors", str(traj), "--partition", str(part))
    assert status == 0
    keys = [l.split(":")[0] for l in out.splitlines()]
    assert keys == ["1", "2"]


def test_analyze_reports_classes(mix_file, capsys):
    status, out, _ = run(capsys, "analyze", mix_file, "--json")
    assert status == 0
    payload = json.loads(out)
    assert payload[0]["classes"] == [["a"], ["b"]]
    assert payload[1]["classes"] == [["a", "b"]]


# Cell 3's kernel is all zero. y0 never reaches it, so the model is valid and the
# edgeless symbol c is a class of its own; its stationary solve used to be refused
ZERO_KERNEL = {"type": "partitioned_kernel_mixture", "alphabet": ["a", "b", "c"],
               "partition": [["a"], ["b"], ["c"]], "y0": "a", "weights": [1.0],
               "kernels": [[[0.5, 0.5, 0], [0.3, 0.7, 0], [0, 0, 0]]]}


def test_analyze_partitioned_symbol_chain(tmp_path, capsys):
    path = tmp_path / "pm.json"
    for raw, classes in [
            (model_to_dict(two_cell_partitioned_mixture()), [[["1", "2", "3", "4"]]] * 2),
            (ZERO_KERNEL, [[["a", "b"], ["c"]]])]:
        path.write_text(json.dumps(raw))
        status, out, _ = run(capsys, "analyze", str(path), "--json")
        assert status == 0
        # one symbol chain per component
        assert [e["classes"] for e in json.loads(out)] == classes


# Cells c, d, e are unreachable from y0 = a; cell e's kernel has a negative weight,
# which made the elimination divide by zero and print "stationary [nan, nan, nan]"
NEGATIVE_UNREACHED_KERNEL = {
    "type": "partitioned_kernel_mixture", "alphabet": ["a", "b", "c", "d", "e"],
    "partition": [["a"], ["b"], ["c"], ["d"], ["e"]], "y0": "a", "weights": [1.0],
    "kernels": [[[0.5, 0.5, 0, 0, 0], [0.3, 0.7, 0, 0, 0], [0, 0, 0, 1, 0],
                 [0, 0, 0, 0, 1], [0, 0, 1, -1, 1]]]}


@pytest.mark.parametrize("argv, status", [
    (["validate"], 1), (["analyze"], 2), (["law", "--horizon", "2"], 2)])
def test_negative_kernel_weight_in_an_unreached_cell_is_invalid(argv, status, tmp_path, capsys):
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(NEGATIVE_UNREACHED_KERNEL))
    got, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert got == status
    assert "kernel[0] cell 5: weight 3 is negative (-1)" in out + err
    assert "nan" not in out


def test_analyze_iid_mixture_rejected(tmp_path, capsys):
    path = tmp_path / "iid.json"
    path.write_text(json.dumps({"type": "iid_mixture", "alphabet": ["a"],
                                "weights": [1.0], "components": [[1.0]]}))
    status, _, err = run(capsys, "analyze", str(path))
    assert status == 2
    assert "no underlying matrix" in err


def test_successors_lines(traj_file, capsys):
    status, out, _ = run(capsys, "successors", traj_file)
    assert status == 0
    keys = [l.split(":")[0] for l in out.splitlines()]
    assert keys == ["a", "b"]


def test_recover_writes_model(traj_file, tmp_path, capsys):
    out_path = tmp_path / "recovered.json"
    status, out, _ = run(capsys, "recover", traj_file, "--min-count", "50",
                         "--out", str(out_path), "--json")
    assert status == 0
    payload = json.loads(out)
    assert len(payload["weights"]) == 2
    model = load_model(out_path)
    assert model.n_components == 2


def test_recover_into_a_directory_prints_no_report(traj_file, tmp_path, capsys):
    status, out, err = run(capsys, "recover", traj_file, "--out", str(tmp_path))
    assert (status, out) == (2, "")
    assert err.startswith("error: [Errno 21] Is a directory")


def test_exchangeability_exit_codes(traj_file, tmp_path, capsys):
    status, out, _ = run(capsys, "test-exchangeability", traj_file,
                         "--permutations", "300", "--seed", "3")
    assert status == 0
    # the aab pattern makes row 'a' alternate, which is rejected
    alt = tmp_path / "alt.txt"
    alt.write_text(" ".join(["a", "a", "b"] * 200) + "\n")
    status, out, _ = run(capsys, "test-exchangeability", str(alt),
                         "--permutations", "2000", "--seed", "3")
    assert status == 1
    assert "REJECT" in out


def test_verify_lemmas_json(hmm_file, capsys):
    status, out, _ = run(capsys, "verify-lemmas", "--model", hmm_file,
                         "--lemma", "all", "--json")
    assert status == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert {r["lemma"] for r in payload["results"]} == {
        "splitting", "strong_splitting", "generalized_strong_splitting",
        "shifted_strong_splitting", "readout_at_stopping_time",
        "conditional_independence_product"}


def test_verify_lemmas_flags_generic_chain_product(tmp_path, capsys):
    # the jointly-conditioned product check reports its real gap on generic
    # chains; exit status must say so
    path = tmp_path / "noisy.json"
    save_model(two_state_noisy(), path)
    status, out, _ = run(capsys, "verify-lemmas", "--model", str(path),
                         "--lemma", "hitting")
    assert status == 1
    assert "conditional_independence_product: FAIL" in out
    for line in out.splitlines():
        if line.startswith(("generalized", "shifted", "readout")):
            assert "PASS" in line


def test_verify_lemmas_needs_hmm(mix_file, capsys):
    status, _, err = run(capsys, "verify-lemmas", "--model", mix_file)
    assert status == 2
    assert "hmm" in err


def test_no_subcommand_mutates_inputs(mix_file, traj_file, capsys):
    before_m = open(mix_file).read()
    before_t = open(traj_file).read()
    run(capsys, "validate", mix_file)
    run(capsys, "law", mix_file, "--horizon", "3")
    run(capsys, "successors", traj_file)
    run(capsys, "recover", traj_file, "--min-count", "50")
    assert open(mix_file).read() == before_m
    assert open(traj_file).read() == before_t


def test_config_flows_through(mix_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"enum_budget": 2}))
    status, _, err = run(capsys, "law", mix_file, "--horizon", "3",
                         "--config", str(cfg))
    assert status == 2
    assert "budget" in err


@pytest.mark.parametrize("flag", ["--seed", "--stream"])
def test_simulate_rejects_negative_seed_or_stream(mix_file, flag, capsys):
    status, out, err = run(capsys, "simulate", mix_file, "--length", "5", "--count", "2",
                           flag, "-1")
    assert status == 2
    assert out == "" and "[0, 2**64)" in err


@pytest.mark.parametrize("mode", [["--mc", "--samples", "10000"], []])
def test_verify_lemmas_horizon_below_the_realization_floor_is_an_error(mode, capsys):
    model = Path(__file__).resolve().parent.parent / "models" / "noisy_hmm.json"
    status, out, err = run(capsys, "verify-lemmas", "--model", str(model), "--lemma", "hitting",
                           "--horizon", "0", *mode)
    assert status == 2
    assert out == "" and "< floor 0.99" in err


@pytest.mark.parametrize("mode", [["--mc"], []])
def test_verify_lemmas_needs_an_occurrence(mode, capsys):
    model = Path(__file__).resolve().parent.parent / "models" / "noisy_hmm.json"
    status, out, err = run(capsys, "verify-lemmas", "--model", str(model), "--lemma", "hitting",
                           "--occurrences", "0", *mode)
    assert status == 2
    assert out == "" and "need at least one occurrence" in err


@pytest.mark.parametrize("how", ["flag", "config"])
def test_recover_rejects_min_count_below_one(how, tmp_path, capsys):
    # at 0 the unvisited row b used to come out observed, as NaN, in an invalid --out file
    trajs = tmp_path / "t.txt"
    trajs.write_text("a a a a b\na a a a a\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"min_row_count": 0}))
    out_file = tmp_path / "rec.json"
    extra = ["--min-count", "0"] if how == "flag" else ["--config", str(cfg)]
    status, out, err = run(capsys, "recover", str(trajs), "--out", str(out_file), *extra)
    assert status == 2
    assert out == "" and "min_count must be >= 1" in err
    assert not out_file.exists()
    status, out, _ = run(capsys, "recover", str(trajs), "--min-count", "1")
    assert status == 0 and out.startswith("clusters 2\n")


@pytest.mark.parametrize("permutations", ["0", "-5"])
def test_exchangeability_rejects_permutations_below_one(permutations, tmp_path, capsys):
    trajs = tmp_path / "t.txt"
    trajs.write_text(" ".join(np.random.default_rng(3).choice(["a", "b"], 200)) + "\n")
    status, out, err = run(capsys, "test-exchangeability", str(trajs),
                           "--permutations", permutations)
    assert status == 2
    assert out == "" and "permutations must be >= 1" in err
    status, _, _ = run(capsys, "test-exchangeability", str(trajs), "--permutations", "1")
    assert status == 0


@pytest.mark.parametrize("tol", ["nan", "-1", "-1e-300"])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_recover_rejects_bad_cluster_tol(tol, how, tmp_path, capsys):
    # a NaN or negative tolerance used to merge nothing: one cluster per trajectory
    trajs = tmp_path / "t.txt"
    trajs.write_text("a b " * 100 + "\n" + "a b " * 100 + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"cluster_tol": %s}' % ("NaN" if tol == "nan" else tol))
    extra = [f"--cluster-tol={tol}"] if how == "flag" else ["--config", str(cfg)]
    status, out, err = run(capsys, "recover", str(trajs), "--min-count", "1", *extra)
    assert status == 2
    assert out == "" and "cluster_tol must be >= 0" in err
    for ok in ("0", "inf"):
        status, out, _ = run(capsys, "recover", str(trajs), "--min-count", "1",
                             "--cluster-tol", ok)
        assert status == 0 and out.startswith("clusters 1\n")


@pytest.mark.parametrize("argv, message", [
    (["--lemma", "splitting", "--steps", "1"], "at least 2 time steps"),
    (["--lemma", "splitting", "--steps", "0"], "at least 2 time steps"),
    (["--lemma", "all", "--steps", "1"], "at least 2 time steps"),
    (["--lemma", "strong-splitting", "--lag", "-1"], "lag k must be >= 0"),
    (["--lemma", "all", "--lag", "-2"], "lag k must be >= 0"),
    (["--lemma", "strong-splitting", "--horizon", "0"], "horizon >= 1"),
    (["--lemma", "hitting", "--target-symbol", "z"],
     "hitting target matches no (hidden, symbol) pair"),
    (["--mc", "--lemma", "splitting"], "Monte Carlo mode covers the hitting-time lemmas"),
])
def test_verify_lemmas_rejects_vacuous_steps_and_negative_lag(argv, message, capsys):
    # --steps 1 and --horizon 0 used to print "PASS (0 instances ...)"; a
    # negative lag has no T^k (the lag loop would take no step), so it is refused.
    # stay_swap_hmm hits its target at time 0 surely, so no floor error intervenes.
    model = Path(__file__).resolve().parent.parent / "models" / "stay_swap_hmm.json"
    status, out, err = run(capsys, "verify-lemmas", "--model", str(model), *argv)
    assert status == 2
    assert out == "" and message in err


MODELS = Path(__file__).resolve().parent.parent / "models"


@pytest.mark.parametrize("tol", ["-1", "nan"])
@pytest.mark.parametrize("argv, how", [
    (["compare", "stay_swap_mixture.json", "stay_swap_hmm.json", "--horizon", "3"], "flag"),
    (["compare", "stay_swap_mixture.json", "stay_swap_hmm.json", "--horizon", "3"], "config"),
    (["verify-lemmas", "--model", "stay_swap_hmm.json", "--lemma", "splitting"], "config"),
    (["convert", "stay_swap_mixture.json", "--to", "hmm", "--check", "3"], "config"),
], ids=["compare --tol", "compare", "verify-lemmas", "convert --check"])
def test_a_negative_or_nan_tolerance_is_refused(argv, how, tol, tmp_path, capsys):
    # each used to print a verdict and exit 1: compare "worst_string a a a a", the
    # splitting lemma "FAIL ... allowed -1", convert a model it then called unequal
    argv = [str(MODELS / a) if a.endswith(".json") else a for a in argv]
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tol_exact": %s}' % ("NaN" if tol == "nan" else tol))
    extra = ["--tol", tol] if how == "flag" else ["--config", str(cfg)]
    status, out, err = run(capsys, *argv, *extra)
    assert (status, out) == (2, "")
    assert err == f"error: tolerance must be >= 0, got {float(tol)}\n"
    cfg.write_text('{"tol_exact": 0}')
    assert run(capsys, *argv, "--config", str(cfg))[0] == 0


@pytest.mark.parametrize("mode", [["--mc"], []])
def test_verify_lemmas_refuses_an_instance_table_past_the_budget(mode, tmp_path, capsys,
                                                                 monkeypatch):
    # 60,369 instances at 5 occurrences: refused before any mass or path
    def never(*args):
        raise AssertionError("evaluated past the budget")

    monkeypatch.setattr(stopping_verifier._MassRequests, "evaluate", never)
    monkeypatch.setattr(stopping_verifier, "_sample_joint_paths", never)
    battery = tmp_path / "battery.json"
    save_model(iid_rows_three_state(), battery)
    start = time.perf_counter()
    status, out, err = run(capsys, "verify-lemmas", "--model", str(battery), "--lemma",
                           "hitting", "--occurrences", "5", "--horizon", "16",
                           "--target-symbol", "a", *mode)
    assert time.perf_counter() - start < 1.0
    assert status == 2
    assert out == "" and "need 60369 instances" in err and "budget" in err


def test_verify_lemmas_refuses_splitting_past_the_budget(tmp_path, capsys):
    # at --steps 6 the last step would mask 4,084,101 trails by 21 options over 9 pairs
    # (5.75 GiB); the refusal comes at n=5, before its 36,756,909 entries are formed
    import tracemalloc

    battery = tmp_path / "battery.json"
    save_model(iid_rows_three_state(), battery)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        status, out, err = run(capsys, "verify-lemmas", "--model", str(battery), "--lemma",
                               "splitting", "--steps", "6")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert (status, out) == (2, "")
    assert err == ("error: splitting at n=5 needs 36756909 entries (194481 live trails x 21 "
                   "options x 9 pairs), exceeding the budget of 20000000\n")
    assert peak < 128e6


@pytest.mark.parametrize("seed", [19, 22, 47, 71])
def test_verify_lemmas_mc_is_family_wise(seed, tmp_path, capsys):
    # the benchmark's MC command failed at these seeds with per-instance 3 sigma
    # bounds; the noisy HMM's real boundary terms still fail at each of them
    battery = tmp_path / "battery.json"
    save_model(iid_rows_three_state(), battery)
    status, out, _ = run(capsys, "verify-lemmas", "--model", str(battery), "--lemma", "hitting",
                         "--mc", "--samples", "100000", "--seed", str(seed),
                         "--target-symbol", "a")
    assert status == 0, out
    noisy = Path(__file__).resolve().parent.parent / "models" / "noisy_hmm.json"
    status, out, _ = run(capsys, "verify-lemmas", "--model", str(noisy), "--lemma", "all",
                         "--mc", "--seed", str(seed))
    assert status == 1
    assert "conditional_independence_product: FAIL" in out


def test_verify_lemmas_mc_reads_alpha_from_the_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0}))
    noisy = Path(__file__).resolve().parent.parent / "models" / "noisy_hmm.json"
    status, out, err = run(capsys, "verify-lemmas", "--model", str(noisy), "--mc",
                           "--lemma", "hitting", "--config", str(cfg))
    assert status == 2
    assert out == "" and "alpha must lie in (0, 1)" in err


@pytest.mark.parametrize("alpha", ["-1", "nan", "0", "1", "2"])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_exchangeability_rejects_alpha_outside_the_unit_interval(alpha, how, tmp_path, capsys):
    # -1 and nan used to print "no rejection at level ..." (exit 0); 2 rejected a
    # row whose p-value is far above any sensible level (exit 1)
    trajs = tmp_path / "t.txt"
    trajs.write_text(" ".join(np.random.default_rng(3).choice(["a", "b"], 300)) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"alpha": %s}' % ("NaN" if alpha == "nan" else alpha))
    extra = [f"--alpha={alpha}"] if how == "flag" else ["--config", str(cfg)]
    status, out, err = run(capsys, "test-exchangeability", str(trajs), "--permutations", "50",
                           *extra)
    assert status == 2
    assert out == "" and "alpha must lie in (0, 1)" in err
    status, out, _ = run(capsys, "test-exchangeability", str(trajs), "--permutations", "50",
                         "--alpha", "0.5")
    assert status in (0, 1) and "at level 0.5\n" in out


# One closed class whose stationary vector an LU solve got with an entry of
# -1.3e-11 for +5.1e-15; validation, and later analyze, refused the model (exit 2)
ONE_CLASS = {"type": "markov_mixture", "alphabet": ["a", "b", "c", "d"], "y0": "a",
             "weights": [1.0],
             "components": [[[0.5810080474077637, 0.4189919493739122, 0, 3.218324051619733e-09],
                             [4.763828870125957e-13, 0.99999999897514, 1.0243836033544743e-09, 0],
                             [0, 0.003593233028217118, 0.9964067669717829, 0],
                             [0, 7.117181022142321e-07, 0, 0.9999992882818978]]]}


def test_recurrence_is_decided_by_reachability_without_a_stationary_solve(tmp_path, capsys):
    path = tmp_path / "one_class.json"
    path.write_text(json.dumps(ONE_CLASS))
    assert run(capsys, "validate", str(path)) == (0, "valid\n", "")
    for argv in (["law", "--horizon", "2"], ["simulate", "--length", "5"],
                 ["convert", "--to", "hmm"], ["analyze"]):
        status, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (status, err) == (0, "") and out


def test_convert_refuses_a_y0_outside_the_alphabet(tmp_path, capsys):
    # the y0 "transient" used to pass for a recurrence violation, and looking the
    # label up raised a KeyError out of the command
    path = tmp_path / "bad_y0.json"
    path.write_text(json.dumps({"type": "markov_mixture", "alphabet": ["a", "b"],
                                "y0": "transient", "weights": [1.0],
                                "components": [[[0.5, 0.5], [0.5, 0.5]]]}))
    assert run(capsys, "convert", str(path), "--to", "hmm") == (
        2, "", "error: invalid model: y0: 'transient' not in the alphabet\n")


@pytest.mark.parametrize("command", ["successors", "test-exchangeability"])
def test_successors_input_errors(command, tmp_path, capsys):
    trajs = tmp_path / "t.txt"
    trajs.write_text("a b a c\na a b\n")
    part = tmp_path / "p.json"
    part.write_text(json.dumps({"cells": [["a"], ["b"]]}))
    for index in ("2", "-1"):
        assert run(capsys, command, str(trajs), "--index", index) == (
            2, "", f"error: trajectory index {index} out of range (file has 2)\n")
    assert run(capsys, command, str(trajs), "--partition", str(part)) == (
        2, "", "error: \"symbol 'c' belongs to no cell of the partition\"\n")


# ---------------------------------------------------------------------------
# Trajectory files: labels they can carry, counts, reading up to --index


@pytest.mark.parametrize("raw, label", [
    ({"type": "iid_mixture", "alphabet": ["a b", "c"], "weights": [1.0],
      "components": [[0.5, 0.5]]}, "alphabet label 'a b'"),
    # every line would read as a comment
    ({"type": "markov_mixture", "alphabet": ["#a", "b"], "y0": "#a", "weights": [1.0],
      "components": [[[0.5, 0.5], [0.5, 0.5]]]}, "alphabet label '#a'"),
    # the trajectories that start with #a would be dropped
    ({"type": "iid_mixture", "alphabet": ["#a", "b"], "weights": [0.5, 0.5],
      "components": [[0.9, 0.1], [0.1, 0.9]]}, "alphabet label '#a'"),
    ({"type": "iid_mixture", "alphabet": ["a", ""], "weights": [1.0],
      "components": [[0.5, 0.5]]}, "alphabet label ''"),
    ({"type": "hmm", "alphabet": ["a"], "hidden_states": ["s\u00a00", "s1"],
      "pi": [0.5, 0.5], "P": [[0.5, 0.5], [0.5, 0.5]], "readout": [[1.0], [1.0]]},
     "hidden_states label 's\\xa00'"),
])
def test_labels_a_trajectory_file_cannot_carry_are_refused(raw, label, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(raw))
    assert run(capsys, "simulate", str(path), "--length", "5", "--count", "4") == (
        2, "", f"error: {path}: {label} is empty, holds whitespace or starts with '#', "
        "which trajectory files cannot carry\n")


@pytest.mark.parametrize("count", ["0", "-3"])
def test_simulate_refuses_a_count_below_one(count, mix_file, capsys):
    assert run(capsys, "simulate", mix_file, "--length", "5", "--count", count) == (
        2, "", "error: count must be >= 1\n")


def test_simulate_refuses_a_count_past_the_substreams_before_sampling(mix_file, capsys):
    # trajectory 2**20 would reuse another stream; no block may be sampled first
    with mock.patch("chainmix.sim._sample_streams", side_effect=AssertionError("sampled")):
        assert run(capsys, "simulate", mix_file, "--length", "10000", "--count", "1048577") == (
            2, "", "error: substream 1048576 is outside [0, 2**20) "
                   "and would reuse another stream\n")


def test_index_reads_only_as_far_as_the_wanted_trajectory(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("a b a\n# hidden: s t s\nb b\nb a b a\n# hidden: s t\na a\n")
    assert run(capsys, "successors", str(path), "--index", "0") == (0, "a: b\nb: a\n", "")
    assert run(capsys, "successors", str(path), "--index", "2") == (
        2, "", f"error: {path}:5: hidden trace length 2 != trajectory length 4\n")


def test_successors_refuses_a_second_hidden_trace(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("a b\n# hidden: s0 s1\n# hidden: s1 s1\n")
    assert run(capsys, "successors", str(path), "--index", "0") == (
        2, "", f"error: {path}:3: second hidden trace for trajectory 1\n")


@pytest.mark.parametrize("argv", [("recover",), ("successors", "--index", "1"),
                                  ("test-exchangeability", "--index", "2")])
@pytest.mark.parametrize("line, byte", [(b"a b \xff a", "0xff in position 4"),
                                        (b"aa \xc3 bb", "0xc3 in position 3")])
def test_a_trajectory_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, argv, line,
                                                              byte):
    # a one-character line and a line of words: both name the file and the line. The
    # decoder's message used to name neither, with an offset into its read buffer
    path = tmp_path / "t.txt"
    path.write_bytes(b"a b a\r\n# note\n" + line + b"\nb a b\n")
    status, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (status, out) == (2, "")
    assert err.startswith(f"error: {path}:3: not UTF-8 ('utf-8' codec can't decode byte {byte}")


def test_simulate_holds_codes_not_labels(tmp_path, monkeypatch):
    # 200 x 10^4 symbols: one uint8 code array of 2 MB, where label lists took 16 MB
    import sys
    import tracemalloc

    model = Path(__file__).resolve().parent.parent / "models" / "separated_mixture.json"
    path = tmp_path / "t.txt"
    with open(path, "w") as fh:
        monkeypatch.setattr(sys, "stdout", fh)
        tracemalloc.start()
        try:
            status = main(["simulate", str(model), "--length", "10000", "--count", "200"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert status == 0 and peak < 8 * 2 ** 20
    assert path.read_text().count("\n") == 200


def test_a_nan_model_is_invalid_and_has_no_law(tmp_path, capsys):
    # json.load parses NaN; validation, not the reader, refuses it
    path = tmp_path / "nan.json"
    path.write_text('{"type": "iid_mixture", "alphabet": ["a", "b"], "weights": [1.0], '
                    '"components": [[NaN, NaN]]}')
    assert run(capsys, "validate", str(path)) == (
        1, "component 0: weight 0 is NaN\ncomponent 0: sums to nan\n", "")
    assert run(capsys, "law", str(path), "--horizon", "1") == (
        2, "", "error: invalid model: component 0: weight 0 is NaN; component 0: sums to nan\n")


@pytest.mark.parametrize("row, violations", [
    ("[0.7, 0.5]", "matrix: row 0 sums to 1.2"),
    ("[NaN, 0.5]", "matrix: row 0 has a NaN entry; matrix: row 0 sums to nan"),
])
def test_analyze_refuses_what_validate_refuses(row, violations, tmp_path, capsys):
    # analyze used to print a class decomposition of these matrices with exit 0
    path = tmp_path / "matrix.json"
    path.write_text('{"type": "stochastic_matrix", "labels": ["u", "v"], '
                    f'"rows": [{row}, [0.0, 1.0]]}}')
    assert run(capsys, "validate", str(path))[0] == 1
    assert run(capsys, "analyze", str(path)) == (2, "", f"error: invalid model: {violations}\n")


def test_simulate_on_a_matrix_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text('{"type": "stochastic_matrix", "labels": ["u", "v"], '
                    '"rows": [[0.5, 0.5], [0.0, 1.0]]}')
    assert run(capsys, "simulate", str(path), "--length", "5") == (
        2, "", "error: StochasticMatrix is not a mixture of symbol chains\n")


@pytest.mark.parametrize("text, message", [
    ("[1e-12]", "top level must be an object"),
    ('{"alpha": "0.05"}', "alpha must be a number"),
    ('{"enum_budget": true}', "enum_budget must be a number"),
])
def test_malformed_config_files_are_refused(text, message, mix_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run(capsys, "validate", mix_file, "--config", str(cfg)) == (
        2, "", f"error: config {cfg}: {message}\n")


IID = {"type": "iid_mixture", "alphabet": ["a", "b"], "weights": [1.0],
       "components": [[0.5, 0.5]]}


@pytest.mark.parametrize("raw, message", [
    ([IID], "top level must be an object"),
    ({**IID, "alphabet": ["a", 2]}, "alphabet must be a list of strings"),
    ({**IID, "alphabet": "ab"}, "alphabet must be a list of strings"),
    ({**IID, "alphabet": ["a", "a"]}, "alphabet labels are not unique"),
    ({**IID, "weights": 1.0}, "weights is not a numeric array (float, not a list)"),
    ({**model_to_dict(two_cell_partitioned_mixture()), "partition": [["1", "2"], "34"]},
     "partition must be a list of symbol lists"),
    ({"type": "stochastic_matrix", "labels": [], "rows": []},
     "labels must be a nonempty list of strings"),
    ({"type": "stochastic_matrix", "labels": ["u", 1], "rows": [[1, 0], [0, 1]]},
     "labels must be a nonempty list of strings"),
], ids=["top level", "label type", "labels not a list", "duplicate labels", "field",
        "partition", "no matrix labels", "matrix label type"])
def test_malformed_model_files_are_refused(raw, message, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(raw))
    assert run(capsys, "validate", str(path)) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--length", "0"], "length must be >= 1"),
    (["law", "--horizon", "0"], "horizon N must be >= 1"),
    (["law", "--horizon", "-2"], "horizon N must be >= 1"),
])
def test_a_length_or_horizon_below_one_is_refused(argv, message, mix_file, capsys):
    assert run(capsys, argv[0], mix_file, *argv[1:]) == (2, "", f"error: {message}\n")


def test_config_key_tol_sum_is_unknown(mix_file, tmp_path, capsys):
    # law tables are checked against the constant model_core.LAW_SUM_TOL; no key sets it
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tol_sum": 1e-9}')
    assert run(capsys, "validate", mix_file, "--config", str(cfg)) == (
        2, "", f"error: config {cfg}: unknown keys ['tol_sum']\n")
