"""Tests of the benchmark's own code: span arithmetic, output checks, wrappers.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(tr, name, start, end, parent=None, pass_id=0):
    tr.spans.append([name, start, end, parent, pass_id])
    return len(tr.spans) - 1


def test_self_time_subtracts_children_and_not_grandchildren():
    tr = tracing.Tracer()
    root = _span(tr, "cli.cmd", 0.0, 10.0)
    a = _span(tr, "a", 1.0, 4.0, root)
    _span(tr, "a.inner", 2.0, 3.0, a)
    _span(tr, "b", 5.0, 6.5, root)
    assert tracing.self_times(tr.spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    tr = tracing.Tracer()
    root = _span(tr, "root", 0.0, 10.0)
    _span(tr, "c", 1.0, 5.0, root)
    _span(tr, "c", 3.0, 6.0, root)
    _span(tr, "c", 9.0, 12.0, root)   # clipped to the parent's end
    assert tracing.self_times(tr.spans)[0] == pytest.approx(4.0)


def test_pass_metrics_totals_union_of_nested_same_name_spans():
    tr = tracing.Tracer()
    outer = _span(tr, "f", 0.0, 4.0)
    _span(tr, "f", 1.0, 2.0, outer)
    _span(tr, "f", 0.0, 9.0, pass_id=1)   # another pass is ignored
    m = tracing.pass_metrics(tr, 0)
    assert m["f.total_s"] == pytest.approx(4.0)
    assert m["f.self_s"] == pytest.approx(4.0)
    assert m["f.calls"] == 2


def test_live_span_records_parent_and_pass():
    tr = tracing.Tracer()
    tr.pass_id = 3
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    assert [(s[0], s[3], s[4]) for s in tr.spans] == [("outer", None, 3), ("inner", 0, 3)]
    assert tr.spans[0][1] <= tr.spans[1][1] <= tr.spans[1][2] <= tr.spans[0][2]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_law_check_rejects_mass_of_point_nine(tmp_path):
    good = _write(tmp_path, "good", "a a 0.5\na b 0.25\nb b 0.25\n")
    short = _write(tmp_path, "short", "a a 0.5\na b 0.25\nb b 0.15\n")
    assert checks.law(3)(0, good) == []
    assert any("sum to" in p for p in checks.law(3)(0, short))
    assert checks.law(4)(0, good) != []
    assert checks.law()(2, good) != []
    zero = _write(tmp_path, "zero", "a a 1\na b 0\n")
    assert any("not positive" in p for p in checks.law()(0, zero))


def test_compare_check_rejects_tv_of_1e_6(tmp_path):
    assert checks.compare()(0, _write(tmp_path, "ok", "tv 0\nmax_gap 0\n")) == []
    bad = _write(tmp_path, "bad", "tv 9.9999999999999995e-07\nmax_gap 1e-06\n")
    assert checks.compare()(0, bad) != []
    assert checks.compare()(0, _write(tmp_path, "none", "")) != []


TRUTH = [[[0.85, 0.15], [0.3, 0.7]], [[0.25, 0.75], [0.8, 0.2]]]


def _recovered(tmp_path, components, weights):
    model = _write(tmp_path, "rec.json", json.dumps({"components": components}))
    lines = [f"clusters {len(components)}"] + [
        f"component {h} weight {w} members 100" for h, w in enumerate(weights)]
    return model, _write(tmp_path, "rec.out", "\n".join(lines) + "\n")


def test_recover_check_accepts_two_close_clusters(tmp_path):
    comps = [[[0.84, 0.16], [0.31, 0.69]], [[0.26, 0.74], [0.79, 0.21]]]
    model, out = _recovered(tmp_path, comps, [0.52, 0.48])
    assert checks.recover(model, TRUTH, 0.1)(0, out) == []


def test_recover_check_rejects_one_cluster(tmp_path):
    model, out = _recovered(tmp_path, [[[0.55, 0.45], [0.55, 0.45]]], [1.0])
    assert checks.recover(model, TRUTH, 0.1)(0, out) == ["1 clusters, expected 2"]


def test_recover_check_rejects_far_component_and_skewed_weights(tmp_path):
    comps = [[[0.84, 0.16], [0.31, 0.69]], [[0.5, 0.5], [0.5, 0.5]]]
    model, out = _recovered(tmp_path, comps, [0.75, 0.25])
    problems = checks.recover(model, TRUTH, 0.1)(0, out)
    assert len(problems) == 3


def _run_check(tmp_path, check, output):
    """``Run.check`` of one command whose captured stdout is ``output``."""
    import run

    cmd = workloads.Command("cmd", ("cmd",), check)
    bench_run = run.Run(cli=None, commands=[cmd], work=tmp_path)
    _write(tmp_path, "cmd.out", output)
    bench_run.check(cmd, 0)
    return bench_run


def test_garbled_output_fails_its_command_without_stopping_the_run(tmp_path):
    garbled_law = _run_check(tmp_path, checks.law(1), "a a 0.5\na b half\n")
    assert garbled_law.attempted == 1 and garbled_law.failed == 1
    assert garbled_law.problems[0].startswith("cmd (exit 0): check raised ValueError")
    model, _ = _recovered(tmp_path, TRUTH, [0.5, 0.5])
    short_line = _run_check(tmp_path, checks.recover(model, TRUTH, 0.1),
                            "clusters 2\ncomponent 0\ncomponent 1 weight 0.5\n")
    assert short_line.failed == 1
    assert "check raised IndexError" in short_line.problems[0]


def test_simulate_check_rejects_bad_lines(tmp_path):
    good = _write(tmp_path, "good", "a b a\n# hidden: s0 s1 s0\nb b a\n# hidden: s1 s1 s0\n")
    assert checks.simulate(2, 3, "ab", hidden=True)(0, good) == []
    assert checks.simulate(2, 3, "ab", hidden=False)(0, good) != []
    assert checks.simulate(3, 3, "ab", hidden=True)(0, good) != []
    bad = _write(tmp_path, "bad", "a b c\nb b\n")
    assert len(checks.simulate(2, 3, "ab", hidden=False)(0, bad)) == 2


def test_live_strings_matches_brute_force():
    raw = workloads.sparse_mixture(3)
    import itertools

    import numpy as np

    comps = [np.array(c) for c in raw["components"]]
    N = 4
    live = 0
    for path in itertools.product(range(6), repeat=N):
        seq = (0,) + path
        if any(all(P[s, t] > 0 for s, t in zip(seq, seq[1:])) for P in comps):
            live += 1
    assert workloads.live_strings(raw, N) == live


def test_wrappers_trace_every_caller_and_restore_the_bindings():
    import chainmix.cli
    import chainmix.fixtures
    import chainmix.model_core
    import chainmix.recovery
    import chainmix.sim
    import chainmix.successors

    original = {
        "sample_many": chainmix.sim.sample_many,
        "extract": chainmix.successors.extract,
        "require_valid": chainmix.model_core.require_valid,
    }
    tr = tracing.Tracer()
    with tracing.installed(tr):
        assert chainmix.cli.sample_many is chainmix.sim.sample_many
        assert chainmix.cli.sample_many is not original["sample_many"]
        assert chainmix.recovery.extract is not original["extract"]
        assert chainmix.sim.require_valid is chainmix.model_core.require_valid
        assert chainmix.sim.require_valid is not original["require_valid"]
        model = chainmix.fixtures.separated_recovery_mixture()
        trajs = chainmix.cli.sample_many(model, 50, 2, chainmix.sim.RandomSource(0))
        chainmix.recovery.lln_recover(trajs, 0.5, min_count=1)
        # a module first imported while tracing binds the wrapper
        late = types.ModuleType("chainmix._imported_late")
        late.extract = chainmix.successors.extract
        sys.modules[late.__name__] = late
    del sys.modules[late.__name__]
    assert late.extract is original["extract"]
    assert chainmix.cli.sample_many is original["sample_many"]
    assert chainmix.sim.sample_many is original["sample_many"]
    assert chainmix.recovery.extract is original["extract"]
    assert chainmix.successors.extract is original["extract"]
    assert chainmix.sim.require_valid is original["require_valid"]
    assert chainmix.model_core.require_valid is original["require_valid"]
    names = [s[0] for s in tr.spans]
    assert names.count("successors.extract") == 2
    assert "model_core.require_valid" in names
    assert tr.counts[None]["sim.steps"] == 100


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = tracing.metric_units()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == units
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
