#!/usr/bin/env python3
"""Run the full desk-scale pipeline end to end for one or more seeds.

Builds a synthetic corpus if the configured image directory is missing.
All seeds then run at the same time, each in seed_<N>/ under --out, one
`python -m cgdbm.cli` process per stage; their stdout is printed grouped
by seed.  Exits 1 if a seed fails, 2 on a bad config or a repeated seed.
"""

import argparse
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

from cgdbm.config import load_config
from cgdbm.errors import ConfigError
from cgdbm.synth import write_corpus


def ensure_corpus(image_dir: Path) -> None:
    if image_dir.is_dir() and any(image_dir.iterdir()):
        return
    write_corpus(image_dir, 12, 128, seed=0, n_shapes=220)
    print(f"built synthetic corpus in {image_dir}")


def run_seed(config: str, out: str, seed: int) -> tuple[str, str | None]:
    """One seed's pipeline: its stdout, and a failure message or None."""
    out_dir = str(Path(out) / f"seed_{seed}")
    base = ["--config", config, "--out-dir", out_dir, "--seed", str(seed)]
    stdout = ""
    for step in ("prepare", "train", "sample", "analyze", "report"):
        args = base if step != "report" else ["--out-dir", out_dir]
        proc = subprocess.run([sys.executable, "-m", "cgdbm.cli", step, *args],
                              capture_output=True, text=True)
        stdout += proc.stdout
        if proc.returncode != 0:
            return stdout, (f"seed {seed}: {step} exited {proc.returncode}: "
                            f"{proc.stderr}")
    return stdout, None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/desk.cfg")
    ap.add_argument("--out", default="desk_runs")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = ap.parse_args()
    if len(set(args.seeds)) < len(args.seeds):
        ap.error("a seed is repeated in --seeds")
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ensure_corpus(Path(cfg.data.image_dir))
    failed = False
    with ThreadPoolExecutor(max_workers=len(args.seeds)) as pool:
        runs = pool.map(partial(run_seed, args.config, args.out), args.seeds)
        for stdout, failure in runs:
            print(stdout, end="", flush=True)
            if failure is not None:
                print(failure, file=sys.stderr, flush=True)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
