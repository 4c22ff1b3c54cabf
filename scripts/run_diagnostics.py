#!/usr/bin/env python3
"""Train a small multi-task model with every diagnostic enabled and print a
short summary of the emitted artifacts.

Example:
    python3 scripts/run_diagnostics.py --out runs/diag --epochs 3
"""

import argparse
import json
from pathlib import Path

from spalmtl.cli import main as cli_main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/diag")
    ap.add_argument("--epochs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    cfg = {
        "backbone": "toy",
        "spal_hidden": 12,
        "probe": True,
        "plan": {"epochs": args.epochs, "eval_interval": 10, "seed": args.seed},
        "data": {"generator": {
            "tasks": [
                {"id": "a", "kind": "seq_classification", "num_classes": 3,
                 "sizes": [48, 16, 16], "batch_size": 8},
                {"id": "b", "kind": "seq_classification", "num_classes": 3,
                 "sizes": [48, 16, 16], "batch_size": 8},
                {"id": "c", "kind": "token_classification", "num_classes": 3,
                 "sizes": [32, 8, 8], "batch_size": 8},
            ],
            "seed": 0,
        }},
        "analysis": {"rep_gen": True, "grad_snapshots": True,
                     "embeddings": True, "snapshot_cadence": 20},
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    rc = cli_main(["train", "--config", str(cfg_path), "--seed", str(args.seed),
                   "--out", args.out])
    if rc != 0:
        return rc
    print("artifacts:")
    for p in sorted(out.iterdir()):
        print(f"  {p.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
