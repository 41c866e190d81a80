"""Set-up probe, run in a fresh interpreter by the benchmark.

Imports anisostokes from the checkout's ``src``, runs one CLI study and
stops it at its first ``march`` call.  Prints one JSON line with
``time.monotonic()`` at that call (a system-wide clock, so the parent can
subtract its own spawn time) and the package import time, then exits
without running the march.

    python3 bench/probe.py <subcommand> <config> --out <dir>
"""

import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv):
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import anisostokes  # noqa: F401  (timed: the package import is set-up cost)

    import_s = time.perf_counter() - t0
    from anisostokes import cli

    def stop(*_args, **_kwargs):
        at = time.monotonic()
        print(json.dumps({"at": at, "import_s": import_s}), flush=True)
        os._exit(0)

    cli.march = stop
    cli.main([*argv, "--strict"])
    print("study finished without calling march", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
