"""Write one workload's inputs, made from the workload seed.

    python3 bench/generate.py --workload suggest --seed 1 --out DIR [--size tiny]

bench/run.py calls this in a child process, so that generating the inputs
neither runs in the timed region nor counts toward the measured process's
peak memory.
"""

import argparse
from pathlib import Path

from run import use_checkout_src


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    use_checkout_src()
    from workloads import CONFIGS, generate

    generate(args.workload, CONFIGS[args.size][args.workload], args.seed, args.out)


if __name__ == "__main__":
    main()
