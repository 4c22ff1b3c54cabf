#!/usr/bin/env python3
"""Compare joint training against single-task training on two fully
related synthetic tasks, averaged over seeds.

Example:
    python3 scripts/run_positive_transfer.py --seeds 1-5 --epochs 40
"""

import argparse

import numpy as np

from spalmtl.backbone import BackboneConfig
from spalmtl.cli import _parse_int_list
from spalmtl.engine import TrainPlan, run_training
from spalmtl.model import MtlModel
from spalmtl.synthdata import GeneratorSpec, SynthTaskSpec, gen_synthetic_suite

BACKBONE = BackboneConfig(num_layers=2, model_dim=16, num_heads=2, ff_dim=32,
                          vocab_size=128, max_seq_len=16)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--base-lr", type=float, default=1e-2)
    ap.add_argument("--spal-hidden", type=int, default=8)
    args = ap.parse_args(argv)

    tasks = tuple(SynthTaskSpec(t, "seq_classification", (64, 32, 32), 1.0,
                                num_classes=2, batch_size=8)
                  for t in ("alpha", "beta"))
    data = gen_synthetic_suite(GeneratorSpec(
        tasks=tasks, vocab_size=96, seq_len=(6, 8), latent_dim=3, bins=6,
        seed=0))

    mtl_scores, stl_scores = [], []
    for seed in _parse_int_list(args.seeds, "--seeds"):
        plan = TrainPlan(epochs=args.epochs, eval_interval=16, seed=seed,
                         base_lr=args.base_lr, warmup_steps=20)
        model = MtlModel.build(BACKBONE, [data[t].spec for t in sorted(data)],
                               spal_hidden=args.spal_hidden, seed=seed)
        rec = run_training(plan, model, data)
        mtl_scores.append(rec.best["alpha"]["score"])

        stl_model = MtlModel.build(BACKBONE, [data["alpha"].spec],
                                   spal_hidden=args.spal_hidden, seed=seed)
        stl_rec = run_training(plan, stl_model, {"alpha": data["alpha"]})
        stl_scores.append(stl_rec.best["alpha"]["score"])
        print(f"seed {seed}: joint {mtl_scores[-1]:.2f} "
              f"single {stl_scores[-1]:.2f}")

    print(f"mean joint {np.mean(mtl_scores):.2f} +- {np.std(mtl_scores):.2f}")
    print(f"mean single {np.mean(stl_scores):.2f} +- {np.std(stl_scores):.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
