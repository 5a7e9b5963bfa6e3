"""The three benchmark workloads, one per README pipeline.

``prepare`` writes a workload's seeded inputs into the run's work directory
and returns the commands of one pass, in order, each with the check its output
must pass. Inputs never go under ``models/``; the program sees only these files
and the argv.

* ``recover``: sample 200 trajectories of 10^4 steps from a two-component
  Markov mixture, recover the mixing measure, permutation-test one trajectory.
  Sampling, trajectory IO, successors and recovery do all the work.
* ``lemmas``: sample the noisy HMM with hidden traces (write-only IO), check the
  stopping-time identities exactly on a battery model and on a negative
  control, then by Monte Carlo on the battery model.
* ``laws``: exact laws and law comparisons one horizon below the largest the
  default enumeration budget allows, on dense tables (every string live) and
  sparse ones (few strings live). Nothing is sampled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

NAMES = ("recover", "lemmas", "laws")

RECOVER_LENGTH, RECOVER_COUNT, CLUSTER_TOL = 10_000, 200, 0.1
HMM_LENGTH, HMM_COUNT = 10_000, 100
MC_SAMPLES = 100_000
# One below the largest horizons the default enumeration budget allows, so a
# pass takes seconds rather than tens of seconds and a run holds several.
DENSE_LAW_HORIZON, SPARSE_LAW_HORIZON = 16, 8
DENSE_COMPARE_HORIZON, SPARSE_COMPARE_HORIZON = 16, 20
SPARSE_SYMBOLS, SPARSE_COMPONENTS, SPARSE_ROW_SUPPORT = 6, 2, 4


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    check: Callable[[int, Path], list[str]]
    identical: bool = False   # stdout must be byte-identical in every pass


def prepare(name: str, root: Path, work: Path, seed: int) -> tuple[list[Command], dict]:
    """Write the inputs of workload ``name``; return its pass and facts about the inputs."""
    work.mkdir(parents=True, exist_ok=True)
    models = root / "models"
    return {"recover": _recover, "lemmas": _lemmas, "laws": _laws}[name](models, work, seed)


def _out(work: Path, label: str) -> Path:
    """Where the runner captures a command's stdout."""
    return work / f"{label}.out"


def _recover(models: Path, work: Path, seed: int):
    mixture = models / "separated_mixture.json"
    raw = json.loads(mixture.read_text())
    trajectories = str(_out(work, "simulate"))
    recovered = work / "recovered.json"
    commands = [
        Command("simulate", ("simulate", str(mixture), "--length", str(RECOVER_LENGTH),
                             "--count", str(RECOVER_COUNT), "--seed", str(seed)),
                checks.simulate(RECOVER_COUNT, RECOVER_LENGTH, raw["alphabet"], hidden=False),
                identical=True),
        Command("recover", ("recover", trajectories, "--cluster-tol", str(CLUSTER_TOL),
                            "--out", str(recovered)),
                checks.recover(recovered, raw["components"], CLUSTER_TOL)),
        # The rows come from a Markov chain, so a rejection is a wrong answer.
        Command("exchangeability", ("test-exchangeability", trajectories, "--alpha", "0.01",
                                    "--seed", str(seed)),
                checks.exit_status(0)),
    ]
    return commands, {}


def _lemmas(models: Path, work: Path, seed: int):
    from chainmix import fixtures
    from chainmix.model_io import save_model

    hmm = models / "noisy_hmm.json"
    battery = work / "battery_hmm.json"
    save_model(fixtures.iid_rows_three_state(), battery)
    alphabet = json.loads(hmm.read_text())["alphabet"]
    commands = [
        Command("simulate", ("simulate", str(hmm), "--length", str(HMM_LENGTH),
                             "--count", str(HMM_COUNT), "--seed", str(seed), "--trace-hidden"),
                checks.simulate(HMM_COUNT, HMM_LENGTH, alphabet, hidden=True),
                identical=True),
        Command("verify_exact", ("verify-lemmas", "--model", str(battery), "--lemma", "all",
                                 "--occurrences", "3", "--horizon", "16",
                                 "--target-symbol", "a"),
                checks.exit_status(0)),
        # The noisy HMM has real boundary terms, so the exact check must fail.
        Command("verify_negative", ("verify-lemmas", "--model", str(hmm), "--lemma", "all",
                                    "--horizon", "12"),
                checks.exit_status(1)),
        Command("verify_mc", ("verify-lemmas", "--model", str(battery), "--lemma", "hitting",
                              "--mc", "--samples", str(MC_SAMPLES), "--seed", str(seed),
                              "--target-symbol", "a"),
                checks.exit_status(0)),
    ]
    return commands, {}


def _laws(models: Path, work: Path, seed: int):
    from chainmix.cli import main

    sparse = work / "sparse_mixture.json"
    raw = sparse_mixture(seed)
    sparse.write_text(json.dumps(raw, indent=2) + "\n")
    live = live_strings(raw, SPARSE_LAW_HORIZON)
    table = SPARSE_SYMBOLS ** SPARSE_LAW_HORIZON

    separated = models / "separated_mixture.json"
    separated_hmm = work / "separated_hmm.json"
    if main(["convert", str(separated), "--to", "hmm", "--out", str(separated_hmm)]) != 0:
        raise RuntimeError("convert of separated_mixture.json failed")

    noisy = models / "noisy_hmm.json"
    # The noisy HMM's transition and read-out matrices are strictly positive,
    # so every string over its 2 symbols is live.
    dense_entries = 2 ** (DENSE_LAW_HORIZON + 1)
    commands = [
        Command("law_dense", ("law", str(noisy), "--horizon", str(DENSE_LAW_HORIZON)),
                checks.law(dense_entries)),
        Command("law_sparse", ("law", str(sparse), "--horizon", str(SPARSE_LAW_HORIZON)),
                checks.law(live)),
        Command("compare_dense", ("compare", str(separated), str(separated_hmm),
                                  "--horizon", str(DENSE_COMPARE_HORIZON)),
                checks.compare()),
        Command("compare_sparse", ("compare", str(models / "stay_swap_mixture.json"),
                                   str(models / "stay_swap_hmm.json"),
                                   "--horizon", str(SPARSE_COMPARE_HORIZON)),
                checks.compare()),
    ]
    return commands, {"sparse_live_entries": live, "sparse_table_entries": table,
                      "sparse_live_share": live / table}


def sparse_mixture(seed: int) -> dict:
    """Seeded Markov mixture over 6 symbols, 2 components, 4 positive entries
    per row, redrawn until chainmix validates it."""
    from chainmix.model_core import validate_model
    from chainmix.model_io import model_from_dict

    rng = np.random.default_rng([seed, 0x5EED])
    K = SPARSE_SYMBOLS
    while True:
        components = []
        for _ in range(SPARSE_COMPONENTS):
            rows = np.zeros((K, K))
            for y in range(K):
                support = rng.choice(K, SPARSE_ROW_SUPPORT, replace=False)
                rows[y, support] = rng.dirichlet(np.ones(SPARSE_ROW_SUPPORT))
            components.append(rows.tolist())
        raw = {"type": "markov_mixture",
               "alphabet": [chr(ord("a") + i) for i in range(K)],
               "y0": "a",
               "weights": rng.dirichlet(np.ones(SPARSE_COMPONENTS)).tolist(),
               "components": components}
        if not validate_model(model_from_dict(raw)):
            return raw


def live_strings(raw: dict, N: int) -> int:
    """Number of strings ``y_1..y_N`` with positive probability under a Markov
    mixture file, by inclusion-exclusion over the components' support graphs."""
    supports = [np.array(c) > 0 for c in raw["components"]]
    y0 = raw["alphabet"].index(raw["y0"])
    total = 0
    for mask in range(1, 2 ** len(supports)):
        members = [s for h, s in enumerate(supports) if mask >> h & 1]
        adjacency = np.logical_and.reduce(members).astype(np.int64)
        paths = np.linalg.matrix_power(adjacency, N)[y0].sum()
        total += (-1) ** (len(members) + 1) * int(paths)
    return total
