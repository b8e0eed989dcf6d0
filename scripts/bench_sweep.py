#!/usr/bin/env python3
"""Sequential benchmark sweep over set sizes and offline backends.

Each (backend, size) cell is one `olepsi bench` run, a full PSI (offline
generation + online protocol over the in-memory transport) that prints its
bench report; a cell that exits non-zero, such as an incorrect result or a
cuckoo failure (exit 3), is counted and the sweep goes on. Single threaded
by design; expect the ot backend, at ceil(log2 q) transfers per tuple, to
dominate.
"""

import argparse
import sys

from olepsi.cli import main as olepsi_main
from olepsi.offline import BACKENDS


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[256, 1024, 4096])
    ap.add_argument("--k", type=int, default=3, choices=(2, 3, 4))
    ap.add_argument("--sigma", type=int, default=32)
    ap.add_argument("--backends", nargs="+", default=list(BACKENDS),
                    choices=BACKENDS)
    ap.add_argument("--seed", type=str, default="00" * 32, metavar="HEX")
    args = ap.parse_args(argv)

    failures = 0
    for backend in args.backends:
        for n in args.sizes:
            rc = olepsi_main(["bench", "--n", str(n), "--k", str(args.k),
                              "--sigma", str(args.sigma), "--offline", backend,
                              "--seed", args.seed])
            print()
            failures += rc != 0
    if failures:
        print(f"{failures} failed runs", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
