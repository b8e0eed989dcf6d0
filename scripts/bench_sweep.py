#!/usr/bin/env python3
"""Sequential benchmark sweep over set sizes and offline backends.

Each cell runs one full PSI (offline generation + online protocol over the
in-memory transport) and prints the structured bench report. Single
threaded by design; expect the ot backend, at ceil(log2 q) transfers per
tuple, to dominate.
"""

import argparse
import sys

from olepsi.offline import BACKENDS
from olepsi.params import derive_params
from olepsi.prg import Seed
from olepsi.runner import bench_run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[256, 1024, 4096])
    ap.add_argument("--k", type=int, default=3, choices=(2, 3, 4))
    ap.add_argument("--sigma", type=int, default=32)
    ap.add_argument("--backends", nargs="+", default=list(BACKENDS),
                    choices=BACKENDS)
    ap.add_argument("--seed", type=str, default="00" * 32, metavar="HEX")
    args = ap.parse_args(argv)

    master = Seed.from_hex(args.seed)
    failures = 0
    for backend in args.backends:
        for n in args.sizes:
            p = derive_params(n, args.k, sigma=args.sigma)
            report = bench_run(p, backend=backend, master_seed=master)
            print(report.format())
            print()
            failures += 0 if report.correct else 1
    if failures:
        print(f"{failures} incorrect runs", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
