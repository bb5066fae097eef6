"""``python3 -m perf {run,compare}`` (``child`` is the runner's own)."""

from __future__ import annotations

import argparse
import sys

from perf import runner


def main() -> int:
    if sys.argv[1:2] == ["child"]:
        from perf import child

        return child.main(sys.argv[2:])
    parser = argparse.ArgumentParser(prog="python3 -m perf", description=runner.__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    runner.add_arguments(commands.add_parser("run", help="measure and print every metric"))
    compare_parser = commands.add_parser("compare", help="apply the bounds to two result files")
    compare_parser.add_argument("a")
    compare_parser.add_argument("b")
    args = parser.parse_args()
    if args.command == "compare":
        from perf.compare import compare

        return compare(args.a, args.b)
    return runner.run(args)


if __name__ == "__main__":
    sys.exit(main())
