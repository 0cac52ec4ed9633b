"""``PYTHONPATH=src python -m tests.golden --check | --update [CASE ...]``,
from the repo root (see :mod:`tests.golden`)."""

import argparse
import sys

from tests import golden

parser = argparse.ArgumentParser(prog="python -m tests.golden")
mode = parser.add_mutually_exclusive_group(required=True)
mode.add_argument("--check", action="store_true", help="name what moved")
mode.add_argument("--update", action="store_true", help="rerecord")
parser.add_argument("cases", nargs="*", metavar="CASE",
                    help="default: every case")
args = parser.parse_args()
if unknown := sorted(set(args.cases) - set(golden.CASES)):
    parser.error(f"unknown cases: {unknown}")
names = args.cases or list(golden.CASES)
sys.exit(golden.check(names) if args.check else golden.update(names))
