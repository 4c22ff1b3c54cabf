#!/usr/bin/env python3
"""Write reference.json: what the known-answer run must reproduce on each
workload's model, per step the loss and two figures of each parameter's
gradient (see checks.known_answer).

    python3 perfbench/make_reference.py

Regenerate only when a change is meant to alter the numbers, and say so in
the change: the reference is what catches a wrong gradient.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from metrics import Tally  # noqa: E402
from workloads import WORKLOADS, reset  # noqa: E402


def main() -> int:
    ref = {}
    for wl in WORKLOADS.values():
        st = wl.setup(0, ROOT / ".perfbench_tmp", Tally())
        reset(st)
        key = checks.reference_key(st.model)
        ref[key] = checks.known_answer_run(st.model)
        print(key, [step["loss"] for step in ref[key]])
        del st
    checks.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
