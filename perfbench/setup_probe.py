"""One set-up of a workload, in a fresh interpreter (timed by run.py).

Imports the program and builds the workload's inputs, then exits: the
wall time of this process is one ``setup_s`` sample.
"""

import argparse
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, Path(args.workdir), args.scale).prepare()
    return 0


if __name__ == "__main__":
    sys.exit(main())
