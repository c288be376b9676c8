"""Regenerate fixture.json, the trained GCN that the eval workloads load.

    python3 perfbench/make_fixture.py

Runs ``linksched train --episodes 1000 --seed 0`` (the default training
configuration, a (1,1) GCN) in-process from ``src/`` and stores the trained
parameters with every digit. Takes about two minutes on one core.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys

from run import HERE, WORK, import_cli, run_cli

COMMAND = ["train", "--episodes", "1000", "--seed", "0"]


def main() -> int:
    cli = import_cli()
    from linksched.gcn import load_checkpoint
    out = WORK / "fixture"
    shutil.rmtree(out, ignore_errors=True)
    try:
        code, seconds = run_cli(cli, COMMAND + ["--out", str(out)])
        if code != 0:
            print(f"error: training exited with {code}", file=sys.stderr)
            return 1
        ckpt = load_checkpoint(out / "checkpoint.ckpt")
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    fixture = {
        "command": "linksched " + " ".join(COMMAND),
        "layer_dims": list(ckpt.params.layer_dims),
        "slope": ckpt.slope,
        "theta0": [t.tolist() for t in ckpt.params.theta0],
        "theta1": [t.tolist() for t in ckpt.params.theta1],
    }
    (HERE / "fixture.json").write_text(json.dumps(fixture, indent=2) + "\n")
    print(f"trained in {seconds:.1f} s; wrote {HERE / 'fixture.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
