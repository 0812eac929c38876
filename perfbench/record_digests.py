"""Record the stdout digest of every request of every workload at the default seed.

    python3 perfbench/record_digests.py

Each request runs once as a subprocess and must pass its own checks; the
SHA-256 of its stdout is written to perfbench/digests.json, which run.py
compares against on later runs with the default seed.  Re-record only in a
change that means to alter the program's output.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from run import DIGESTS, RESULTS, ROOT, check_request, child_env, run_subprocess
from workloads import DEFAULT_SEED, WORKLOADS, requests_for


def main() -> int:
    os.chdir(ROOT)
    (RESULTS / "tmp").mkdir(parents=True, exist_ok=True)
    env = child_env()
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for req in requests_for(workload, DEFAULT_SEED):
            res = run_subprocess(["-m", "ghostseries", *req.argv], env)
            _, error = check_request(req, res["code"], res["stdout"], res["stderr"], {})
            if error:
                print(f"{workload}/{req.name}: {error}", file=sys.stderr)
                return 1
            table[workload][req.name] = hashlib.sha256(res["stdout"]).hexdigest()
    DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": table}, indent=1) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
