#!/usr/bin/env python3
"""Run the stopping-time identity checks over the whole fixture battery.

Prints one row per model and identity with instance counts, worst gaps and
truncation residuals, then the negative control (a corrupted joint law whose
emissions depend on the previous symbol), which must fail the splitting check.
"""

import argparse

from chainmix.fixtures import lemma_battery, splitting_negative_control
from chainmix.stopping_verifier import (
    check_hitting_time_lemmas,
    check_splitting,
    check_strong_splitting,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=8)
    ap.add_argument("--steps", type=int, default=3, help="splitting time steps")
    ap.add_argument("--occurrences", type=int, default=2)
    ap.add_argument("--lag", type=int, default=1)
    args = ap.parse_args(argv)

    overall = True
    for name, model, spec in lemma_battery():
        results = [check_splitting(model, args.steps),
                   check_strong_splitting(model, spec, args.lag, args.horizon)]
        results += list(check_hitting_time_lemmas(model, spec, args.occurrences,
                                                  args.horizon))
        print(f"{name}")
        for r in results:
            overall &= r.passed
            print(f"  {r.lemma:34s} {'PASS' if r.passed else 'FAIL'} "
                  f"instances={len(r.checked):5d} skipped={len(r.skipped):4d} "
                  f"max_gap={r.max_gap:.2e} residual={r.residual:.2e}")

    neg = check_splitting(splitting_negative_control(), args.steps)
    print("negative control (previous-symbol read-out)")
    print(f"  splitting                          "
          f"{'FAIL (expected)' if not neg.passed else 'PASS (unexpected!)'} "
          f"max_gap={neg.max_gap:.2e}")
    overall &= not neg.passed
    print("battery:", "PASS" if overall else "FAIL")
    return 0 if overall else 1


if __name__ == "__main__":
    raise SystemExit(main())
