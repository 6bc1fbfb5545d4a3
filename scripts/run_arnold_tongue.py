#!/usr/bin/env python3
"""Sweep the coupling-detuning grid and fit peak locking against entanglement.

Writes the full grid as CSV and prints the two regressions that summarize
the tongue: peak S_rel against negativity and against mutual information.
"""

import argparse
import pathlib
import sys
import time

from spinsync import arnold_sweep, linear_regression, write_sweep_csv
from spinsync.cli import load_config

REPO = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_CONFIG = REPO / "configs" / "reversed_cycles.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(DEFAULT_CONFIG))
    parser.add_argument("--out", default="arnold_tongue.csv")
    parser.add_argument("--eps-steps", type=int, default=101)
    parser.add_argument("--delta-steps", type=int, default=101)
    args = parser.parse_args()

    params, quad = load_config(args.config)
    start = time.perf_counter()
    records = arnold_sweep(
        params,
        steps=(args.eps_steps, args.delta_steps),
        quad=quad,
    )
    elapsed = time.perf_counter() - start
    write_sweep_csv(records, args.out)

    solved = [r for r in records if r.status == "ok"]
    peaks = [r.max_s_rel for r in solved]
    vs_neg = linear_regression([r.negativity for r in solved], peaks)
    vs_mi = linear_regression([r.mutual_info for r in solved], peaks)

    print(f"{len(records)} points in {elapsed:.1f}s "
          f"({len(records) - len(solved)} failed) -> {args.out}")
    print(f"peak S_rel vs negativity:  slope {vs_neg.slope:.4f}, "
          f"intercept {vs_neg.intercept:.2e}, R^2 {vs_neg.r_squared:.4f}")
    print(f"peak S_rel vs mutual info: slope {vs_mi.slope:.4f}, "
          f"intercept {vs_mi.intercept:.2e}, R^2 {vs_mi.r_squared:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
