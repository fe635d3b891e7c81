#!/usr/bin/env python3
"""Shootout: six indirect predictors over a slice of the paper's suite.

Runs the Table 2 predictors plus the two related-work extras (the 2-bit
BTB of Calder & Grunwald and Chang et al.'s Target Cache) over an
evenly-spaced sample of the 88-trace suite and prints a per-trace MPKI
table in the paper's Fig. 8 organization.

Run:  python examples/predictor_shootout.py  [--scale SMALL_FLOAT]
"""

import argparse

from repro import (
    BLBP,
    ITTAGE,
    BranchTargetBuffer,
    TargetCache,
    TwoBitBTB,
    VPCPredictor,
)
from repro.sim import format_mpki_table, run_campaign
from repro.workloads.suite import suite88_specs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="trace-length scale factor (default 1.0)")
    parser.add_argument("--stride", type=int, default=8,
                        help="take every Nth suite trace (default 8)")
    args = parser.parse_args()

    entries = suite88_specs(scale=args.scale)[:: args.stride]
    print(f"generating {len(entries)} traces at scale {args.scale} ...")
    traces = [entry.generate() for entry in entries]

    factories = {
        "BTB": BranchTargetBuffer,
        "2bit-BTB": TwoBitBTB,
        "TgtCache": TargetCache,
        "VPC": VPCPredictor,
        "ITTAGE": ITTAGE,
        "BLBP": BLBP,
    }
    campaign = run_campaign(
        traces,
        factories,
        progress=lambda trace, name, mpki, index, total: print(
            f"  [{index + 1:>3}/{total}] {trace:<24} {name:<9} {mpki:7.4f}"
        ),
    )
    print()
    print(format_mpki_table(campaign, sort_by="BLBP"))


if __name__ == "__main__":
    main()
