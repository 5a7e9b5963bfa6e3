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
