"""Set-up probe: import every ridekit module and load a config in a fresh process.

Usage: python3 bench/probe.py SRC_DIR [CONFIG]

Prints one JSON line with ``import_s`` and ``load_s``.  It imports nothing
of the benchmark's own, so the parent's timing of this process is the
program's set-up cost: interpreter start, imports and config loading.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ridekit.cli  # noqa: E402  (pulls in every module of the package)

t1 = time.perf_counter()
if len(sys.argv) > 2:
    ridekit.config.load_config(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
