import pytest

from conftest import load_script

bench_pairs = load_script("bench_pairs")


def test_summary_counts_wins_and_ties_and_reads_quartiles():
    parent = [0.20, 0.18, 0.17, 0.19, 0.21]
    change = [0.15, 0.18, 0.12, 0.20, 0.14]
    s = bench_pairs.summarize(parent, change, "lower")
    assert (s["wins"], s["ties"], s["pairs"]) == (3, 1, 5)
    assert s["parent"] == pytest.approx((0.18, 0.19, 0.20))
    assert s["change"] == pytest.approx((0.14, 0.15, 0.18))
    assert s["beyond_parent_iqr"]          # 0.19 - 0.15 > 0.20 - 0.18


def test_summary_of_a_higher_is_better_metric():
    s = bench_pairs.summarize([1.0, 2.0, 3.0, 4.0], [1.5, 2.0, 2.5, 4.0], "higher")
    assert (s["wins"], s["ties"]) == (1, 2)
    assert s["parent"] == pytest.approx((1.75, 2.5, 3.25))
    assert not s["beyond_parent_iqr"]


def test_summary_of_one_pair_and_of_unequal_sides():
    assert bench_pairs.summarize([2.0], [1.0])["parent"] == (2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0])


def test_a_checkout_holding_bytecode_is_refused(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    bench_pairs.refuse_bytecode(tmp_path)
    (tmp_path / "src" / "__pycache__").mkdir(parents=True)
    with pytest.raises(SystemExit, match="holds bytecode"):
        bench_pairs.refuse_bytecode(tmp_path)


@pytest.mark.parametrize("change, verdict", [
    ([1.05, 1.04, 1.06, 1.05, 1.05], "yes"),     # 0.05 worse, within 0.25 of 1.0
    ([1.30, 1.28, 1.31, 1.30, 1.29], "no"),      # 0.30 worse
    ([0.80, 0.90, 0.70, 0.85, 0.80], "yes"),     # better
])
def test_no_regression_reads_the_bound_as_a_share_of_the_parent_median(change, verdict):
    parent = [1.00, 1.01, 0.99, 1.00, 1.02]      # median 1.0, IQR 0.01
    assert bench_pairs.summarize(parent, change, "lower", 0.25)["no_regression"] == verdict


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]           # median 3, IQR 2 > 0.25 * 3
    assert bench_pairs.summarize(parent, [2.9] * 5, "lower", 0.25)["no_regression"] == (
        "unresolved")
    assert bench_pairs.summarize(parent, [0.5, 0.9, 0.1, 0.2, 0.3], "lower",
                                 0.25)["no_regression"] == "yes"
    assert bench_pairs.summarize(parent, [0.5, 0.9, 1.0, 0.2, 0.3], "lower",
                                 0.25)["no_regression"] == "unresolved"   # one tie


def test_no_regression_of_a_higher_is_better_metric():
    parent = [10.0, 10.0, 10.0, 10.0]            # allowance 0.05 * 10 = 0.5
    assert bench_pairs.summarize(parent, [9.6] * 4, "higher", 0.05)["no_regression"] == "yes"
    assert bench_pairs.summarize(parent, [9.4] * 4, "higher", 0.05)["no_regression"] == "no"


def test_all_names_every_workload_once():
    spec = {"workloads": [{"name": "recover"}, {"name": "lemmas"}, {"name": "laws"}]}
    assert bench_pairs.workloads_of(["all"], spec) == ["recover", "lemmas", "laws"]
    assert bench_pairs.workloads_of(["laws", "all", "laws"], spec) == [
        "laws", "recover", "lemmas"]


def test_command_medians_are_the_per_command_entries_of_a_record():
    end_to_end = {"setup_s": {"median": 3.0, "n": 5}, "peak_rss_mb": {"median": 50.0, "n": 1},
                  "pipeline_s": {"median": 0.3, "n": 9}, "simulate_s": {"median": 0.02, "n": 9},
                  "verify_exact_s": {"median": 0.04, "n": 9}}
    assert bench_pairs.command_medians(end_to_end) == {"simulate_s": 0.02,
                                                       "verify_exact_s": 0.04}


def test_report_gives_commands_quartiles_and_wins_but_no_verdict():
    def run(pipeline, command):
        return {"pipeline_s": pipeline}, {"verify_exact_s": command}

    runs = {"parent": [run(0.30, 0.060), run(0.31, 0.062), run(0.29, 0.058)],
            "change": [run(0.30, 0.043), run(0.28, 0.042), run(0.33, 0.061)]}
    lines = bench_pairs.report_lines(runs, {"pipeline_s": ("lower", 0.25)})
    pipeline = [line for line in lines if "no regression" in line]
    assert len(pipeline) == 1 and pipeline[0].rstrip().endswith(": yes")
    command = [line.split() for line in lines if line.startswith("verify_exact_s")]
    assert [row[:5] for row in command] == [
        ["verify_exact_s", "parent", "0.059", "0.06", "0.061"],
        ["verify_exact_s", "change", "0.0425", "0.043", "0.052"]]
    assert lines[-1].split() == ["change", "wins", "2/3", "(0", "ties);", "per-command",
                                 "median,", "a", "diagnostic"]
