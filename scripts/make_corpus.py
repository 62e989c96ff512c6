#!/usr/bin/env python3
"""Generate a synthetic grayscale corpus for self-contained runs.

Writes 16-bit PGM occlusion scenes (anisotropic ellipses over a mid-gray
canvas) that carry oriented edge structure at all angles.
"""

import argparse

from cgdbm.synth import write_corpus


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--n-images", type=int, default=12)
    ap.add_argument("--side", type=int, default=128)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--shapes", type=int, default=220,
                    help="ellipses per image")
    args = ap.parse_args()
    write_corpus(args.out, args.n_images, args.side, args.seed,
                 n_shapes=args.shapes)
    print(f"wrote {args.n_images} images of {args.side}x{args.side} "
          f"to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
