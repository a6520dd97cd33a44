"""Run the quartics command line with the layer hooks installed.

    python bench/traced_cli.py <quartics arguments>

Stdout and the exit code are the command's own.  When ``main`` returns,
one line ``MARKER`` + JSON goes to stderr: the in-process import time,
the ``invariant_sections`` cache counters and every span.
"""

import json
import sys
import time

MARKER = "bench-trace: "


def main() -> int:
    start = time.perf_counter()
    import quartics.cli

    import_s = time.perf_counter() - start
    from quartics import repring
    from tracehooks import Recorder

    recorder = Recorder()
    recorder.install()
    code = recorder.wrap("cli.main", quartics.cli.main)(sys.argv[1:])
    sys.stdout.flush()
    cache = repring.invariant_sections.cache_info()
    payload = {
        "import_s": import_s,
        "cache": [cache.hits, cache.misses],
        "spans": recorder.spans,
    }
    sys.stderr.write(MARKER + json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
