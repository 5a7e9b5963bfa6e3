"""Run-wide tolerances and budgets.

All numerical thresholds used by checks and estimators live here so they can
be overridden from one place (or a JSON config file via the CLI) instead of
being scattered as magic numbers.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import ModelFormatError


@dataclass(frozen=True)
class RunConfig:
    tol_exact: float = 1e-12      # algebraic identities (law equalities, round trips)
    tol_sum: float = 1e-9         # rounding budget for enumerated probability tables
    enum_budget: int = 20_000_000  # max law-step entries (live prefixes x values), paths,
                                   # or hitting-lemma rows x (N + 1) x pairs x horizon
    min_row_count: int = 100      # minimum visits before a successors row is estimated
    cluster_tol: float = 0.1      # single-linkage threshold for mixing-measure recovery
    alpha: float = 0.01           # family-wise level: exchangeability tests, MC lemma checks
    mc_samples: int = 100_000     # default Monte Carlo sample count
    horizon_floor: float = 0.99   # required realization mass for truncated stopping times


DEFAULT = RunConfig()

_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def load_config(path) -> RunConfig:
    """Read a RunConfig from a JSON file; unknown keys are rejected."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"config {path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ModelFormatError(f"config {path}: top level must be an object")
    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise ModelFormatError(f"config {path}: unknown keys {unknown}")
    kwargs = {}
    for key, value in raw.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ModelFormatError(f"config {path}: {key} must be a number")
        kwargs[key] = int(value) if key in ("enum_budget", "min_row_count", "mc_samples") else float(value)
    return RunConfig(**kwargs)
