"""Command-line interface: one binary, subcommand per operation.

Exit status: 0 = success / check passed, 1 = a check failed (validation
violations, law mismatch beyond tolerance, rejected exchangeability, failed
lemma instance), 2 = usage or input error, an unreadable path and a failed
allocation included. Data goes to stdout, diagnostics to stderr; ``--json``
switches reports to machine-readable JSON. A reader that closes stdout early
(``| head``) is not an error. No subcommand mutates its input files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import chain_analysis, constructions, exact_law, model_core, recovery, successors
from .config import DEFAULT, RunConfig, _require_tol, load_config
from .errors import ChainmixError, ModelFormatError
from .model_core import (
    HMMModel,
    IIDMixtureModel,
    MarkovMixtureModel,
    PartitionedKernelMixture,
    StochasticMatrix,
    validate_model,
)
from .model_io import (
    load_model,
    load_partition,
    model_to_dict,
    read_trajectories,
    save_model,
    write_trajectories,
)
from .sim import RandomSource, sample_many
from .stopping_verifier import (
    HittingTimeSpec,
    check_hitting_time_lemmas,
    check_lemmas_mc,
    check_splitting,
    check_strong_splitting,
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def comparable_laws(a, b, N: int, budget, drop_first: bool = False):
    """Laws of the two models over a common string set.

    Models with a fixed start symbol produce laws over ``Y_1..Y_N``; the others
    over ``Y_0..Y_N``. By default the fixed-start laws are lifted with their
    deterministic ``Y_0``; with ``drop_first`` the time-0 symbol is instead
    marginalized out of the ``Y_0..Y_N`` laws.
    """
    laws = []
    for m in (a, b):
        law = model_core.model_law(m, N, budget)
        y0 = getattr(m, "y0", None)
        if drop_first:
            if y0 is None:
                law = exact_law.marginalize_first(law)
        elif y0 is not None:
            law = exact_law.lift_with_prefix(law, y0)
        laws.append(law)
    return laws


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_validate(args, cfg: RunConfig) -> int:
    model = load_model(args.model)
    violations = validate_model(model)
    if args.json:
        _emit_json({"valid": not violations, "violations": violations})
    else:
        for v in violations:
            print(v)
        if not violations:
            print("valid")
    return 1 if violations else 0


def cmd_simulate(args, cfg: RunConfig) -> int:
    model = load_model(args.model)
    src = RandomSource(args.seed, args.stream)
    trajs = sample_many(model, args.length, args.count, src,
                        trace_hidden=args.trace_hidden)
    write_trajectories(sys.stdout, trajs, trace_hidden=args.trace_hidden)
    return 0


def cmd_law(args, cfg: RunConfig) -> int:
    model = load_model(args.model)
    law = model_core.model_law(model, args.horizon, cfg.enum_budget)
    sys.stdout.writelines(_law_json_blocks(law) if args.json else law.text_blocks())
    return 0


def _law_json_blocks(law):
    """``_emit_json({"length": ..., "entries": [[labels, p], ...]})`` of a law of length
    at least 1, written ``BLOCK`` entries at a time by ``law.text_blocks``: each symbol
    as ``json.dumps`` writes it and each probability by ``repr``, as ``json.dumps``
    writes a float. Every entry opens with a comma, dropped from the first."""
    entry = ",\n    [\n      [\n        %s\n      ],\n      %s\n    ]"
    yield '{\n  "entries": ['
    for i, block in enumerate(law.text_blocks(entry, json.dumps, ",\n        ", repr)):
        yield block if i else block[1:]
    yield ("\n  ]" if law.ranks.size else "]") + f',\n  "length": {law.length}\n}}\n'


def cmd_compare(args, cfg: RunConfig) -> int:
    tol = _require_tol(cfg.tol_exact if args.tol is None else args.tol)
    a, b = load_model(args.model_a), load_model(args.model_b)
    la, lb = comparable_laws(a, b, args.horizon, cfg.enum_budget,
                             drop_first=args.drop_first)
    tv = exact_law.total_variation(la, lb)
    cmp_ = exact_law.laws_equal(la, lb, tol)
    if args.json:
        _emit_json({"tv": tv, "max_gap": cmp_.max_gap, "tol": tol,
                    "within_tol": bool(cmp_),
                    "worst_string": list(cmp_.worst_string) if cmp_.worst_string else None})
    else:
        print(f"tv {_fmt(tv)}")
        print(f"max_gap {_fmt(cmp_.max_gap)}")
        if not cmp_:
            print("worst_string", " ".join(cmp_.worst_string))
    return 0 if tv <= tol else 1


def cmd_convert(args, cfg: RunConfig) -> int:
    source = args.model or args.model_from
    if not source or (args.model and args.model_from):
        raise ModelFormatError("convert takes exactly one input model "
                               "(positional or --from)")
    tol = _require_tol(cfg.tol_exact)     # refused before the converted model is written
    model = load_model(source)
    routes = {
        (MarkovMixtureModel, "hmm"): constructions.markov_mixture_to_hmm,
        (IIDMixtureModel, "hmm"): constructions.iid_mixture_to_hmm,
        (PartitionedKernelMixture, "hmm"): constructions.partitioned_mixture_to_hmm,
        (HMMModel, "iid_mixture"): constructions.hmm_to_iid_mixture,
        (HMMModel, "markov_mixture"): constructions.hmm_to_markov_mixture_exact,
    }
    fn = routes.get((type(model), args.to))
    if fn is None:
        raise ModelFormatError(
            f"no conversion from {type(model).__name__} to {args.to!r}"
        )
    result = fn(model)
    if args.check is not None:      # decided before the converted model is written
        tv = exact_law.total_variation(*comparable_laws(model, result, args.check,
                                                        cfg.enum_budget))
    if args.out:
        save_model(result, args.out)
    else:
        _emit_json(model_to_dict(result))
    if args.check is not None:
        print(f"check horizon={args.check} tv {_fmt(tv)}", file=sys.stderr)
    return 0 if args.check is None or tv <= tol else 1


# the named matrices that ``analyze`` decomposes, by model type
_MATRICES = {StochasticMatrix: lambda m: [("matrix", m)],
             HMMModel: lambda m: [("underlying chain", m.P)],
             MarkovMixtureModel: lambda m: [(f"component {h}", c)
                                            for h, c in enumerate(m.components)],
             PartitionedKernelMixture: lambda m: [      # symbol chains: rows[:, state]
                 (f"component {h} (symbol chain)", StochasticMatrix(c, m.alphabet.emittable))
                 for h, c in enumerate(np.take(*model_core.symbol_chains(m)[1:3], axis=1))]}


def cmd_analyze(args, cfg: RunConfig) -> int:
    model = model_core.require_valid(load_model(args.model))
    if type(model) not in _MATRICES:
        raise ModelFormatError(f"{type(model).__name__} has no underlying matrix to analyze")
    report = []
    for name, mat in _MATRICES[type(model)](model):
        dec = chain_analysis.decompose(mat)
        entry = {
            "matrix": name,
            "classes": [[dec.labels[i] for i in members] for members in dec.classes],
            "transient": [dec.labels[i] for i in dec.transient],
            "stationary": [s.weights.tolist() for s in dec.stationary],
        }
        report.append(entry)
    if args.json:
        _emit_json(report)
    else:
        for entry in report:
            print(f"[{entry['matrix']}]")
            for k, (members, stat) in enumerate(zip(entry["classes"], entry["stationary"])):
                print(f"  class {k}: {{{', '.join(members)}}} "
                      f"stationary [{', '.join(_fmt(x) for x in stat)}]")
            print(f"  transient: {{{', '.join(entry['transient'])}}}"
                  if entry["transient"] else "  transient: none")
    return 0


def _successors_of(args):
    """Successors array of trajectory ``--index`` of the file, cell-keyed under
    ``--partition``. A bad index or a symbol outside the partition exits 2."""
    t = read_trajectories(args.trajectories, index=args.index)
    if args.partition:
        return successors.extract_partitioned(t, load_partition(args.partition))
    return successors.extract(t)


def cmd_successors(args, cfg: RunConfig) -> int:
    arr = _successors_of(args)
    for key in sorted(arr.rows, key=str):
        print(f"{key}: {' '.join(arr.rows[key])}")
    return 0


def cmd_recover(args, cfg: RunConfig) -> int:
    trajs = [t for path in args.trajectories for t in read_trajectories(path)]
    tol = cfg.cluster_tol if args.cluster_tol is None else args.cluster_tol
    min_count = cfg.min_row_count if args.min_count is None else args.min_count
    measure = recovery.lln_recover(trajs, tol, min_count=min_count)
    report = {
        "weights": measure.weights.weights.tolist(),
        "components": [
            {"matrix": [[None if np.isnan(v) else v for v in row] for row in comp.matrix],
             "observed_rows": [measure.alphabet.emittable[i]
                               for i, ok in enumerate(comp.observed) if ok],
             "row_counts": list(comp.row_counts),
             "member_trajectories": comp.members}
            for comp in measure.support
        ],
        "n_trajectories": measure.diagnostics.n_trajectories,
        "cluster_tol": measure.diagnostics.cluster_tol,
        "min_row_count": measure.diagnostics.min_count,
        "row_tv_stderr": [[None if np.isnan(e) else e for e in row]
                          for row in measure.diagnostics.row_tv_stderr],
    }
    if args.out:        # saved before the report, which a failed save would leave behind
        _write_recovered_model(measure, trajs, args.out)
    if args.json:
        _emit_json(report)
    else:
        print(f"clusters {len(measure.support)}")
        for h, comp in enumerate(measure.support):
            print(f"component {h} weight {_fmt(measure.weights[h])} "
                  f"members {comp.members}")
    return 0


def _write_recovered_model(measure, trajs, path) -> None:
    """Emit the recovered measure as a markov_mixture file.

    Unobserved rows carry no evidence; they are filled uniform and listed on
    stderr. The mixing measure has no canonical start symbol, so y0 is the most
    frequent initial symbol of the input trajectories.
    """
    from collections import Counter

    from .model_core import Distribution as D

    alphabet = measure.alphabet
    K = alphabet.size
    comps = []
    for h, comp in enumerate(measure.support):
        rows = np.array(comp.matrix)
        for y in range(K):
            if not comp.observed[y]:
                rows[y] = np.full(K, 1.0 / K)
                print(f"component {h}: row {alphabet.emittable[y]!r} unobserved, "
                      "filled uniform", file=sys.stderr)
        comps.append(StochasticMatrix(rows, alphabet.emittable))
    y0 = Counter(t.labels[t.codes[0]] for t in trajs).most_common(1)[0][0]
    model = MarkovMixtureModel(alphabet, y0, D(measure.weights.weights), tuple(comps))
    save_model(model, path)


def cmd_test_exchangeability(args, cfg: RunConfig) -> int:
    arr = _successors_of(args)
    alpha = cfg.alpha if args.alpha is None else args.alpha
    report = recovery.test_partial_exchangeability(
        arr, alpha, RandomSource(args.seed), permutations=args.permutations)
    if args.json:
        _emit_json({"reject": report.reject, "level": report.level,
                    "tested_rows": report.tested,
                    "rows": [{"key": str(r.row_key), "length": r.length,
                              "statistic": r.statistic, "p_value": r.p_value,
                              "reject": r.reject} for r in report.rows]})
    else:
        for r in report.rows:
            print(f"row {r.row_key}: length {r.length} statistic {r.statistic} "
                  f"p {_fmt(r.p_value)}{' REJECT' if r.reject else ''}")
        print(f"overall: {'REJECT' if report.reject else 'no rejection'} "
              f"at level {report.level}")
    return 1 if report.reject else 0


def _lemma_report(results) -> list[dict]:
    out = []
    for r in results:
        out.append({
            "lemma": r.lemma,
            "passed": r.passed,
            "instances": len(r.checked),
            "skipped": len(r.skipped),
            "max_gap": r.max_gap,
            "residual": r.residual,
            "failures": [{"label": c.label, "lhs": c.lhs, "rhs": c.rhs,
                          "gap": c.gap, "allowed": c.allowed}
                         for c in r.failures()[:20]],
        })
    return out


def cmd_verify_lemmas(args, cfg: RunConfig) -> int:
    model = load_model(args.model)
    if not isinstance(model, HMMModel):
        raise ModelFormatError("verify-lemmas needs an hmm model file")
    target = args.target_symbol or model.alphabet.emittable[0]
    spec = HittingTimeSpec.for_symbol(target, occurrences=args.occurrences)
    results = []
    if args.mc:
        if args.lemma not in ("hitting", "all"):
            raise ModelFormatError("Monte Carlo mode covers the hitting-time lemmas "
                                   "(--lemma hitting or all)")
        samples = cfg.mc_samples if args.samples is None else args.samples
        results.extend(check_lemmas_mc(model, spec, samples,
                                       RandomSource(args.seed),
                                       horizon=args.horizon, floor=cfg.horizon_floor,
                                       alpha=cfg.alpha, budget=cfg.enum_budget))
    else:
        if args.lemma in ("splitting", "all"):
            results.append(check_splitting(model, args.steps, cfg.tol_exact,
                                           budget=cfg.enum_budget))
        if args.lemma in ("strong-splitting", "all"):
            results.append(check_strong_splitting(
                model, spec, args.lag, args.horizon,
                tol=cfg.tol_exact, floor=cfg.horizon_floor))
        if args.lemma in ("hitting", "all"):
            results.extend(check_hitting_time_lemmas(
                model, spec, args.occurrences, args.horizon,
                tol=cfg.tol_exact, floor=cfg.horizon_floor, budget=cfg.enum_budget))
    report = _lemma_report(results)
    if args.json:
        _emit_json({"results": report, "passed": all(r["passed"] for r in report)})
    else:
        for r in report:
            print(f"{r['lemma']}: {'PASS' if r['passed'] else 'FAIL'} "
                  f"({r['instances']} instances, {r['skipped']} skipped, "
                  f"max gap {_fmt(r['max_gap'])}, residual {_fmt(r['residual'])})")
            for f in r["failures"]:
                print(f"  FAIL {f['label']}: lhs {_fmt(f['lhs'])} rhs {_fmt(f['rhs'])} "
                      f"gap {_fmt(f['gap'])} allowed {_fmt(f['allowed'])}")
    return 0 if all(r["passed"] for r in report) else 1


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainmix",
        description="Mixtures of Markov chains / i.i.d. sequences as HMMs: "
                    "exact laws, conversions, recovery, exchangeability and "
                    "stopping-time checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON file overriding tolerances/budgets")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("validate", cmd_validate, "check a model file's invariants")
    p.add_argument("model")

    p = add("simulate", cmd_simulate, "sample seeded trajectories")
    p.add_argument("model")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--trace-hidden", action="store_true")

    p = add("law", cmd_law, "dump the exact finite-horizon law")
    p.add_argument("model")
    p.add_argument("--horizon", type=int, required=True)

    p = add("compare", cmd_compare, "total variation between two models' laws")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--drop-first", action="store_true",
                   help="compare laws of Y_1..Y_N (marginalize the first symbol)")

    p = add("convert", cmd_convert, "convert between model classes")
    p.add_argument("model", nargs="?", default=None)
    p.add_argument("--from", dest="model_from", default=None,
                   help="input model file (alternative to the positional form)")
    p.add_argument("--to", required=True,
                   choices=["hmm", "iid_mixture", "markov_mixture"])
    p.add_argument("--out", help="write the converted model here (default: stdout)")
    p.add_argument("--check", type=int, default=None,
                   help="verify law equality at this horizon")

    p = add("analyze", cmd_analyze, "recurrence classes, transient states, "
                                    "stationary vectors")
    p.add_argument("model")

    p = add("successors", cmd_successors, "extract the successors array")
    p.add_argument("trajectories")
    p.add_argument("--partition", help="partition file for the cell-keyed variant")
    p.add_argument("--index", type=int, default=0)

    p = add("recover", cmd_recover, "recover the mixing measure from trajectories")
    p.add_argument("trajectories", nargs="+")
    p.add_argument("--cluster-tol", type=float, default=None)
    p.add_argument("--min-count", type=int, default=None)
    p.add_argument("--out", help="write the recovered measure as a model file")

    p = add("test-exchangeability", cmd_test_exchangeability,
            "permutation tests on successors rows")
    p.add_argument("trajectories")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--permutations", type=int, default=2000,
                   help="most permutation draws per row, m; a row stops once both "
                        "tails have h hits, h = max(10, least h with 2h/m >= its "
                        "level): verdicts and p-values below 2h/m are those of "
                        "all m draws")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--partition")
    p.add_argument("--index", type=int, default=0)

    p = add("verify-lemmas", cmd_verify_lemmas, "stopping-time identity checks")
    p.add_argument("--model", required=True)
    p.add_argument("--lemma", default="all",
                   choices=["splitting", "strong-splitting", "hitting", "all"])
    p.add_argument("--horizon", type=int, default=8)
    p.add_argument("--steps", type=int, default=3,
                   help="time steps for the splitting check")
    p.add_argument("--occurrences", type=int, default=2)
    p.add_argument("--lag", type=int, default=1,
                   help="lag k for the strong splitting check")
    p.add_argument("--target-symbol", default=None)
    p.add_argument("--mc", action="store_true", help="Monte Carlo mode")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    status = 0
    try:
        cfg = load_config(args.config) if args.config else DEFAULT
        status = args.handler(args, cfg)
        sys.stdout.flush()   # a reader that went away shows up here, not at exit
        return status
    except BrokenPipeError:
        # the reader stopped early (``| head``): not an error. The unflushed rest goes
        # to os.devnull, so the interpreter's final flush stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return status
    except (ChainmixError, OSError, MemoryError, ValueError) as exc:
        # BrokenPipeError, an OSError, is caught above; the rest are input errors, not verdicts
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
