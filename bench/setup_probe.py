"""Everything a thermoch run does before its first step, in a fresh process.

    python bench/setup_probe.py run.ini [--seed N] [--partition]

Imports ``thermoch.cli``, loads the config, builds the initial state and,
with ``--partition``, the dyadic partition picard-verify needs.  The
benchmark times this process from spawn to exit as ``setup_s``.
"""

import argparse

from thermoch import cli  # noqa: F401  (the CLI's imports are part of set-up)
from thermoch.besov import build_partition
from thermoch.config import generate_initial, load_config, with_seed


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--partition", action="store_true")
    args = parser.parse_args()

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    generate_initial(cfg)
    if args.partition:
        build_partition(cfg.grid)


if __name__ == "__main__":
    main()
