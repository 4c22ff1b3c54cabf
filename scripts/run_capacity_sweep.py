#!/usr/bin/env python3
"""Sweep the adapter hidden size over several seeds on a synthetic
six-task suite and emit per-width aggregates plus diagnostics.

Example:
    python3 scripts/run_capacity_sweep.py --out runs/sweep \
        --hidden 12,60,204 --seeds 1-3 --epochs 4
"""

import argparse
import json
from pathlib import Path

from spalmtl.cli import main as cli_main


def build_config(epochs: int, scale: float) -> dict:
    return {
        "backbone": "toy",
        "spal_hidden": 12,
        "plan": {"epochs": epochs, "eval_interval": 20, "seed": 1},
        "data": {"generator": {
            "tasks": [
                {"id": "tsa", "kind": "seq_regression",
                 "sizes": [max(1, int(91 * scale)), 23, 23], "batch_size": 16},
                {"id": "sc", "kind": "seq_classification", "num_classes": 3,
                 "sizes": [max(1, int(387 * scale)), 48, 48], "batch_size": 16},
                {"id": "nad", "kind": "seq_classification", "num_classes": 2,
                 "sizes": [max(1, int(719 * scale)), 104, 104], "batch_size": 32},
                {"id": "cd", "kind": "token_classification", "num_classes": 5,
                 "sizes": [max(1, int(67 * scale)), 23, 23], "batch_size": 16},
            ],
            "seed": 0,
        }},
        "analysis": {"rep_gen": True, "grad_snapshots": True,
                     "snapshot_cadence": 2000},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/sweep")
    ap.add_argument("--hidden", default="12,60,204")
    ap.add_argument("--seeds", default="1-3")
    ap.add_argument("--epochs", type=int, default=4)
    ap.add_argument("--scale", type=float, default=0.25,
                    help="training-split size multiplier")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(build_config(args.epochs, args.scale)))
    return cli_main(["sweep-capacity", "--config", str(cfg_path),
                     "--hidden", args.hidden, "--seeds", args.seeds,
                     "--out", args.out])


if __name__ == "__main__":
    raise SystemExit(main())
