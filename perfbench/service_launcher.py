"""Start ``python -m repro.service`` for the service-mix workload.

Both the timed and the traced runs start the service through this
script, so they have the same process layout. With ``--trace`` it first
wraps the layer functions (see ``layers.py``) and, once the service has
shut down, prints every span and counter as one ``SPANS <json>`` line on
stdout. Every other argument goes to the service unchanged::

    python3 perfbench/service_launcher.py [--trace] --budget 8
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]


def main(argv: list) -> int:
    trace = "--trace" in argv
    argv = [arg for arg in argv if arg != "--trace"]
    tracer = None
    if trace:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    from repro.service.__main__ import main as service_main

    code = service_main(argv)
    if tracer is not None:
        print("SPANS " + json.dumps(tracer.dump()), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
