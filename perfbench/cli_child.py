"""The rosterstat CLI with layer tracing, for the traced cli-session run.

    PERFBENCH_SPANS=FILE python perfbench/cli_child.py <rosterstat arguments>

Behaves like ``python -m rosterstat.cli`` and writes its spans to FILE on
exit, for the parent benchmark process to attach to the op that ran it.
"""

import os
import sys

import rosterstat.cli
from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return rosterstat.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
