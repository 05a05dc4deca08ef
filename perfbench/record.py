"""Record the values the benchmark's output checks compare against.

    python3 perfbench/record.py

For each seed 0..31 this stores the norm of the first train update, the
loss of the second train step (the loss after the first update), and the
first inference batch's logits (row 0, sum and absolute sum), and writes
``perfbench/reference.json``. Re-record only when the workloads' inputs
change, never to make a failing check pass.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


SEEDS = 32


def main() -> int:
    workdir = HERE.parent / ".perfbench_out" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    table = {"train-wr-inception": {}, "infer-wr-inception": {}}
    try:
        for seed in range(SEEDS):
            train = workloads.TrainWorkload(seed, str(workdir), None)
            train.setup()
            train.op()
            norm = train.update_norm()
            table["train-wr-inception"][str(seed)] = {
                "train_update_norm_step1": norm, "train_loss_step2": train.op()}
            infer = workloads.InferWorkload(seed, str(workdir), None)
            infer.setup()
            _, logits = infer.op()
            table["infer-wr-inception"][str(seed)] = {
                "infer_logits_row0": logits[0].tolist(),
                "infer_logits_sum": float(logits.sum()),
                "infer_logits_abs_sum": float(abs(logits).sum()),
            }
            print(f"seed {seed}: loss {table['train-wr-inception'][str(seed)]}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
