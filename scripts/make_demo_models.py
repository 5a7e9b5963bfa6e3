#!/usr/bin/env python3
"""Write the demo model files used by the README examples, under models/ or --out DIR."""

import argparse
import pathlib

from chainmix.constructions import markov_mixture_to_hmm
from chainmix.fixtures import (
    separated_recovery_mixture,
    two_cell_partitioned_mixture,
    two_component_mixture,
    two_state_noisy,
)
from chainmix.model_io import save_model


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent / "models")
    out = ap.parse_args(argv).out
    out.mkdir(exist_ok=True)
    save_model(two_component_mixture(), out / "stay_swap_mixture.json")
    save_model(markov_mixture_to_hmm(two_component_mixture()),
               out / "stay_swap_hmm.json")
    save_model(separated_recovery_mixture(), out / "separated_mixture.json")
    save_model(two_state_noisy(), out / "noisy_hmm.json")
    save_model(two_cell_partitioned_mixture(), out / "two_cell_partitioned.json")
    print(f"wrote 5 model files to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
