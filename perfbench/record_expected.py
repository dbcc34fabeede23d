"""Record the stdout digest of every interactive command.

Run once at the commit whose output is the reference:

    python3 perfbench/record_expected.py

The interactive workload then requires byte-identical stdout.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import COMMANDS, EXPECTED_PATH, digest, run_cli  # noqa: E402

expected = {}
for argv, _ in COMMANDS:
    code, text = run_cli(argv)
    if code != 0:
        sys.exit(f"{' '.join(argv)} exited {code}")
    expected[" ".join(argv)] = digest(text)
EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
print(f"recorded {len(expected)} commands")
