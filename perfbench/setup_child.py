"""One set-up sample, timed inside a fresh process.

    python3 perfbench/setup_child.py <workload> <seed>
        imports sccforge, builds the workload's inputs; prints {"raw_s": ...}
    python3 perfbench/setup_child.py reference
        imports a fixed list of standard-library modules that neither
        sccforge nor numpy loads; prints {"raw_s": ...}

The parent brackets each set-up sample with two reference samples and
scales by calib.REF_IMPORT_S over their mean, as it does for ops.
"""

import json
import sys
import time

REFERENCE = ("decimal", "sqlite3", "xml.dom.minidom", "email.mime.multipart", "http.server", "unittest", "asyncio")

if sys.argv[1] == "reference":
    t0 = time.perf_counter()
    for name in REFERENCE:
        __import__(name)
    print(json.dumps({"raw_s": time.perf_counter() - t0}))
    sys.exit(0)

import checkout  # noqa: E402

if not checkout.use_source():
    sys.exit("perfbench: no src/sccforge in this checkout")

t0 = time.perf_counter()
import sccforge  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).cycle()
print(json.dumps({"raw_s": time.perf_counter() - t0}))
