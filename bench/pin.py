"""Write reference.json from one cold pass of each workload.

    python3 bench/pin.py

Run it only when the expected answers change on purpose: every benchmark run
is judged against what it writes.  It refuses to pin an answer that raised
anything but a typed IsogenionError or that failed a cross-check.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import spawn  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main():
    reference = {}
    for workload in WORKLOADS:
        answers = spawn("pass", 0, workload)["answers"]
        bad = sorted(key for key, (_, status) in answers.items() if status == "error")
        if bad:
            sys.exit(f"{workload}: not pinning failed answers: {', '.join(bad)}")
        reference[workload] = {key: digest for key, (digest, _) in sorted(answers.items())}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
