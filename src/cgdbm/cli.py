"""Command-line driver tying the pipeline together.

Subcommands: prepare (patches + whitening), train, sample (free-running
session), analyze (maps, correlations, SOM, figures), report (aggregate
a run directory).  Every subcommand is deterministic given the config
and seed; artifacts carry no timestamps, so reruns are byte-identical.
Each stage's seed is derived here, from the global seed with
`stage_seed`, and passed to the stage.

Exit codes: 0 success, 2 configuration or usage error, 3 numeric
failure (including training divergence), 4 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from .analysis import analyze
from .config import RunConfig, load_config, stage_seed
from .errors import (ConfigError, DomainError, FormatError, NumericError,
                     ShapeError)
from .io import (format_float, load_matrix, load_model, open_atomic,
                 save_matrix, save_model, write_csv)
from .sampling import average_initial_probability, run_spontaneous_session
from .stimuli import (extract_patches, fit_whitener, load_grayscale_images,
                      load_whitener, mean_centered_norm, save_whitener, whiten)
from .training import EpochRecord, train
from .viz import save_montage_pgm

# artifact filenames within the run directory
TRAIN_WHITE = "train_white.cgmat"
TEST_WHITE = "test_white.cgmat"
WHITENER = "whitener.cgmat"
MODEL = "model.cgdbm"
CHECKPOINT = "checkpoint.cgdbm"
TRAIN_LOG = "train_log.csv"
FRAMES = "frames.cgmat"
P_INIT = "p_init.cgmat"


def _require(path: Path, hint: str) -> Path:
    if not path.is_file():
        raise ConfigError(f"{path} not found; run '{hint}' first")
    return path


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed).validate()
    return cfg


# --- prepare ----------------------------------------------------------------

def cmd_prepare(cfg: RunConfig, out_dir: Path) -> int:
    image_dir = Path(cfg.data.image_dir)
    if not image_dir.is_dir():
        raise ConfigError(f"image directory {image_dir} does not exist")
    rng = np.random.default_rng(stage_seed(cfg.seed, "prepare"))
    images = load_grayscale_images(image_dir)
    train_px, test_px = extract_patches(images, cfg.data.patch_side,
                                        cfg.data.n_patches,
                                        cfg.data.train_fraction, rng)
    w = fit_whitener(train_px, cfg.data.pca_k)
    train_white = whiten(w, train_px)
    test_white = whiten(w, test_px)
    norm = mean_centered_norm(train_px)
    common = {"patch_side": str(cfg.data.patch_side),
              "pca_k": str(cfg.data.pca_k)}
    save_matrix(out_dir / TRAIN_WHITE, train_white,
                meta={"kind": "whitened_train", **common})
    save_matrix(out_dir / TEST_WHITE, test_white,
                meta={"kind": "whitened_test", **common})
    save_whitener(out_dir / WHITENER, w, cfg.data.patch_side, norm)
    print(f"prepare: {len(images)} images, "
          f"train {train_white.shape[0]}x{train_white.shape[1]}, "
          f"test {test_white.shape[0]}x{test_white.shape[1]}")
    print(f"prepare: leading variance {format_float(float(w.eigvals[0]))}, "
          f"mean patch norm {format_float(norm)}")
    return 0


# --- train ------------------------------------------------------------------

LOG_COLUMNS = [f.name for f in fields(EpochRecord)]


def cmd_train(cfg: RunConfig, out_dir: Path, epochs: int | None) -> int:
    data, _ = load_matrix(_require(out_dir / TRAIN_WHITE, "prepare"))
    dims = cfg.model.dims
    if data.shape[1] != dims[0]:
        raise ShapeError(f"training data width {data.shape[1]} does not "
                         f"match model L={dims[0]}")
    tcfg = cfg.training if epochs is None \
        else replace(cfg.training, epochs_max=epochs).validate()

    for state in train(data, dims, tcfg, stage_seed(cfg.seed, "train")):
        # a divergence raises here and leaves the last finite state's files
        save_model(out_dir / CHECKPOINT, state.params, state.offsets)
        write_csv(out_dir / TRAIN_LOG, LOG_COLUMNS, map(astuple, state.log))
    save_model(out_dir / MODEL, state.params, state.offsets)
    last = state.log[-1].reconstruction_error if state.log else float("nan")
    print(f"train: {len(state.log)} epochs, "
          f"final validation error {format_float(last)}"
          + (" (stopped early)" if state.stall >= tcfg.patience else ""))
    return 0


# --- sample -------------------------------------------------------------------

def cmd_sample(cfg: RunConfig, out_dir: Path) -> int:
    params, offsets = load_model(_require(out_dir / MODEL, "train"))
    data, _ = load_matrix(_require(out_dir / TRAIN_WHITE, "prepare"))
    scfg = cfg.sampling
    seed = stage_seed(cfg.seed, "sample")
    p_init = average_initial_probability(params, offsets, data, cfg.training)
    frames = run_spontaneous_session(params, offsets, p_init, scfg, seed)
    save_matrix(out_dir / FRAMES, frames,
                meta={"kind": "spontaneous", "layout": "recording-major",
                      "n_chains": str(scfg.n_chains),
                      "n_iterations": str(scfg.n_iterations),
                      "record_every": str(scfg.record_every),
                      "seed": str(seed)})
    save_matrix(out_dir / P_INIT, p_init[None, :],
                meta={"kind": "initial_probability"})
    print(f"sample: {frames.shape[0]} frames of width {frames.shape[1]}")
    return 0


# --- analyze ------------------------------------------------------------------

def _correlation_rows(report, orientations) -> list[list]:
    """One row per frame: its index, r against each orientation, the
    largest |r|, 1 if significant else 0, and the preferred orientation
    or -1, as one (F, K + 4) float table."""
    r = report.r
    preference = np.where(report.preference >= 0,
                          orientations[report.preference], -1.0)
    return np.column_stack([np.arange(r.shape[0]), r, np.abs(r).max(axis=1),
                            report.significant, preference]).tolist()


def cmd_analyze(cfg: RunConfig, out_dir: Path) -> int:
    params, offsets = load_model(_require(out_dir / MODEL, "train"))
    frames, _ = load_matrix(_require(out_dir / FRAMES, "sample"))
    whitener, wmeta = load_whitener(_require(out_dir / WHITENER, "prepare"))
    p_init, _ = load_matrix(_require(out_dir / P_INIT, "sample"))
    L, M, N = params.dims
    if frames.shape[1] != M:
        raise ShapeError(f"frame width {frames.shape[1]} does not match "
                         f"model M={M}")
    if whitener.k != L:
        raise ShapeError(f"whitener k={whitener.k} does not match model "
                         f"L={L}")
    if p_init.shape != (1, M):
        raise ShapeError(f"p_init has shape {p_init.shape}, expected "
                         f"(1, {M})")
    res = analyze(params, offsets, whitener, int(wmeta["patch_side"]),
                  float(wmeta["mean_patch_norm"]), frames, p_init[0],
                  cfg.analysis, cfg.training,
                  som_seed=stage_seed(cfg.seed, "analyze"),
                  control_seed=stage_seed(cfg.seed, "analyze", 1))

    orientations = res.maps.orientations
    save_matrix(out_dir / "orientation_maps.cgmat", res.maps.maps,
                meta={"kind": "orientation_maps",
                      "orientations": ",".join(format_float(t) for t in
                                               orientations)})
    corr_header = (["frame"] + [f"r_{format_float(t)}" for t in orientations]
                   + ["max_abs_r", "significant", "preference_deg"])
    write_csv(out_dir / "correlation.csv", corr_header,
              _correlation_rows(res.spontaneous, orientations))
    write_csv(out_dir / "control_correlation.csv", corr_header,
              _correlation_rows(res.control, orientations))
    write_csv(out_dir / "preference_hist.csv",
              ["orientation_deg", "relative_occurrence"],
              zip(orientations, res.spontaneous.preference_hist))
    write_csv(out_dir / "som.csv", ["node", "best_orientation_deg", "r"],
              [[i, orientations[best], r] for i, (best, r) in
               enumerate(zip(res.som_best, res.som_best_r))])
    write_csv(out_dir / "osi.csv", ["unit", "osi"], enumerate(res.osi))

    # montage tiles run row-major: filters and receptive fields in unit
    # order, the most active filters in the rank order of top_active.csv
    cols = int(np.ceil(np.sqrt(M)))
    save_montage_pgm(out_dir / "filters.pgm", res.filters, cols)
    rf_cols = int(np.ceil(np.sqrt(N)))
    save_montage_pgm(out_dir / "rf_second_layer.pgm", res.rf_second_layer,
                     rf_cols)
    top = res.top_active
    save_montage_pgm(out_dir / "top_active.pgm", res.filters[top], 5)
    write_csv(out_dir / "top_active.csv", ["rank", "unit"], enumerate(top))

    with open_atomic(out_dir / "summary.txt") as fh:
        fh.write("\n".join(res.summary) + "\n")
    for line in res.summary:
        print(f"analyze: {line}")
    return 0


# --- report -------------------------------------------------------------------

def cmd_report(out_dir: Path) -> int:
    lines = ["run directory report", f"directory = {out_dir}"]
    summary = out_dir / "summary.txt"
    if summary.is_file():
        lines.append("")
        lines.append("[analysis summary]")
        lines.extend(summary.read_text().strip().split("\n"))
    log = out_dir / TRAIN_LOG
    if log.is_file():
        rows = log.read_text().strip().split("\n")
        lines.append("")
        lines.append("[training]")
        lines.append(f"epochs_logged = {max(len(rows) - 1, 0)}")
        if len(rows) > 1:
            lines.append(f"log_columns = {rows[0]}")
            lines.append(f"last_epoch = {rows[-1]}")
    lines.append("")
    lines.append("[artifacts]")
    for path in sorted(out_dir.iterdir()):
        # never inventory the report itself: reruns must be byte-identical
        if path.name == "report.txt":
            continue
        if path.is_file() and path.suffix in (".cgmat", ".cgdbm", ".csv",
                                              ".pgm", ".txt"):
            lines.append(f"{path.name} bytes={path.stat().st_size}")
    text = "\n".join(lines) + "\n"
    with open_atomic(out_dir / "report.txt") as fh:
        fh.write(text)
    print(text, end="")
    return 0


# --- entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgdbm",
        description="Centered Gaussian-binary deep Boltzmann machine "
                    "pipeline: whiten patches, train, sample, analyze.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, config_required=True):
        if config_required:
            sp.add_argument("--config", required=True,
                            help="run configuration file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config's global seed")
        sp.add_argument("--out-dir", default=".",
                        help="artifact directory (default: current)")

    common(sub.add_parser("prepare", help="extract and whiten patches"))
    p_train = sub.add_parser("train", help="train a model on prepared data")
    common(p_train)
    p_train.add_argument("--epochs", type=int, default=None,
                         help="override training epochs (0 saves the "
                              "initialized model)")
    common(sub.add_parser("sample", help="run a free-running session"))
    common(sub.add_parser("analyze", help="maps, correlations, SOM, figures"))
    p_report = sub.add_parser("report", help="aggregate a run directory")
    p_report.add_argument("--out-dir", default=".")
    return parser


def run(args) -> int:
    out_dir = Path(args.out_dir)
    if args.command == "report":
        if not out_dir.is_dir():
            raise ConfigError(f"run directory {out_dir} does not exist")
        return cmd_report(out_dir)
    cfg = _load_run_config(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.command == "prepare":
        return cmd_prepare(cfg, out_dir)
    if args.command == "train":
        return cmd_train(cfg, out_dir, args.epochs)
    if args.command == "sample":
        return cmd_sample(cfg, out_dir)
    if args.command == "analyze":
        return cmd_analyze(cfg, out_dir)
    raise ConfigError(f"unknown command {args.command!r}")


def _pin_blas_threads() -> None:
    """Run numpy's OpenBLAS on one thread, whatever OPENBLAS_NUM_THREADS
    says.  Results then do not depend on the thread count (a second
    thread changes the last bits of some products, and training amplifies
    them), and training's worker thread does not oversubscribe the cores.
    Does nothing if numpy's BLAS does not export the call."""
    try:
        from numpy._core import _multiarray_umath
        # dlsym on numpy's core module also finds the OpenBLAS it links
        set_threads = ctypes.CDLL(
            _multiarray_umath.__file__).scipy_openblas_set_num_threads64_
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)
    except (ImportError, OSError, AttributeError):
        pass


def main(argv=None) -> int:
    _pin_blas_threads()
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (ConfigError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, DomainError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (FormatError, OSError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
