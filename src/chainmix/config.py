"""Run-wide tolerances and budgets.

All numerical thresholds used by checks and estimators live here so they can
be overridden from one place (or a JSON config file via the CLI) instead of
being scattered as magic numbers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ModelFormatError


@dataclass(frozen=True)
class RunConfig:
    tol_exact: float = 1e-12      # algebraic identities (law equalities, round trips)
    enum_budget: int = 20_000_000  # max law-step entries (live prefixes x values), paths,
                                   # hitting-lemma rows x (N + 1) x pairs x horizon,
                                   # or splitting-step live trails x options x pairs
    min_row_count: int = 100      # minimum visits before a successors row is estimated
    cluster_tol: float = 0.1      # single-linkage threshold for mixing-measure recovery
    alpha: float = 0.01           # family-wise level: exchangeability tests, MC lemma checks
    mc_samples: int = 100_000     # default Monte Carlo sample count
    horizon_floor: float = 0.99   # required realization mass for truncated stopping times


DEFAULT = RunConfig()


def _require_level(level: float | None) -> float:
    """The test level (default ``DEFAULT.alpha``), refused outside (0, 1)."""
    level = DEFAULT.alpha if level is None else level
    if not 0.0 < level < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {level}")
    return level


def _require_tol(tol: float | None, name: str = "tolerance") -> float:
    """A tolerance (default ``DEFAULT.tol_exact``), refused below 0 or NaN."""
    tol = DEFAULT.tol_exact if tol is None else tol
    if not tol >= 0:
        raise ValueError(f"{name} must be >= 0, got {tol}")
    return tol


def load_config(path) -> RunConfig:
    """Read a RunConfig from a JSON file; unknown keys are rejected."""
    from .model_io import read_json     # late import: model_io builds on this module

    raw = read_json(path, f"config {path}")
    if not isinstance(raw, dict):
        raise ModelFormatError(f"config {path}: top level must be an object")
    unknown = sorted(set(raw) - set(dataclasses.asdict(DEFAULT)))
    if unknown:
        raise ModelFormatError(f"config {path}: unknown keys {unknown}")
    kwargs = {}
    for key, value in raw.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ModelFormatError(f"config {path}: {key} must be a number")
        kwargs[key] = type(getattr(DEFAULT, key))(value)     # int or float, as the default
    return RunConfig(**kwargs)
