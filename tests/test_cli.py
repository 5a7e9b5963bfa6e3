import json
from pathlib import Path

import numpy as np
import pytest

from chainmix.cli import main
from chainmix.fixtures import (
    separated_recovery_mixture,
    two_component_mixture,
    two_state_noisy,
)
from chainmix.constructions import markov_mixture_to_hmm
from chainmix.model_io import load_model, save_model
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


def test_analyze_partitioned_symbol_chain(tmp_path, capsys):
    from chainmix.fixtures import two_cell_partitioned_mixture

    path = tmp_path / "pm.json"
    save_model(two_cell_partitioned_mixture(), path)
    status, out, _ = run(capsys, "analyze", str(path), "--json")
    assert status == 0
    assert len(json.loads(out)) == 2      # one symbol chain per component


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
