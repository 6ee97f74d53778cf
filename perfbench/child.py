"""Traced drplane CLI child.

    PERFBENCH_SPANS=spans.json python3 perfbench/child.py <drplane CLI arguments>

Behaves like ``python -m drplane`` (same output, same exit code) with spans
around drplane's public functions and the subcommand, written as JSON to
$PERFBENCH_SPANS when the command ends.
"""

import json
import os
import sys

from common import load_drplane
from tracing import Tracer


def main() -> int:
    dp = load_drplane()
    tracer = Tracer()
    tracer.job = "child"
    tracer.install(dp)
    for name, fn in list(dp.cli.COMMANDS.items()):
        dp.cli.COMMANDS[name] = tracer.wrap(f"cli.{name}", fn, None)
    try:
        return dp.cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fp:
            json.dump({"spans": tracer.spans}, fp)


if __name__ == "__main__":
    sys.exit(main())
