"""Fresh-interpreter launcher for one ``paneljump`` CLI run.

    python3 bench/cli_child.py <paneljump arguments>
    python3 bench/cli_child.py --trace <spans.json> <spawn time> <pass id> <paneljump arguments>

The plain form does what the ``paneljump`` console script does, against the
package under ``src/``.  The traced form records ``cli.import_s`` (from the
parent's ``time.monotonic()`` at spawn until ``paneljump.cli`` is imported),
then wraps the layer functions and writes the spans when the run ends.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

argv = sys.argv[1:]
if argv[:1] == ["--trace"]:
    spans_path, spawn_t, pass_id = argv[1], float(argv[2]), int(argv[3])
    import paneljump.cli

    import_s = time.monotonic() - spawn_t
    import tracer

    spans = tracer.Tracer()
    spans.pass_id = pass_id
    tracer.install(spans)
    code = paneljump.cli.cli_main(argv[4:])
    spans.dump(spans_path, {"cli.import_s": import_s})
    sys.exit(code)

from paneljump.cli import cli_main

sys.exit(cli_main(argv))
