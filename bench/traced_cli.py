"""Run the designlab CLI with its layer functions traced.

Usage: python3 bench/traced_cli.py TOTALS.json ARGS...

Behaves like ``python -m designlab.cli ARGS...`` (same output, same exit
status, same traceback on an uncaught exception) and writes the span totals
to TOTALS.json on the way out.
"""

import json
import sys

from tracer import Tracer

tracer = Tracer()
tracer.install()
from designlab import cli  # noqa: E402  (after install, as a user would import it)

tracer.enabled = True
try:
    status = cli.main(sys.argv[2:])
finally:
    tracer.enabled = False
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.totals(), fh)
sys.exit(status)
