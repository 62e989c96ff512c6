"""Command-line driver tying the pipeline together.

Subcommands: prepare (patches + whitening), train, sample (free-running
session), analyze (maps, correlations, SOM, figures), report (aggregate
a run directory).  Every subcommand is deterministic given the config
and seed; artifacts carry no timestamps, so reruns are byte-identical.

Exit codes: 0 success, 2 configuration or usage error, 3 numeric
failure (including training divergence), 4 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (correlate, correlate_som, first_layer_filters,
                       orientation_maps, orientation_selectivity,
                       second_layer_rf, significance_threshold,
                       top_active_filters, train_som)
from .config import RunConfig, load_config, stage_seed, with_stage_seeds
from .errors import (ConfigError, DomainError, FormatError, NumericError,
                     ShapeError)
from .io import (format_float, load_matrix, load_model, save_matrix,
                 save_model, write_csv)
from .sampling import (average_initial_probability, random_control_frames,
                       run_spontaneous_session)
from .stimuli import (default_frequencies, extract_patches, fit_whitener,
                      generate_gratings, group_by_orientation,
                      load_grayscale_images, load_whitener,
                      mean_centered_norm, save_whitener, whiten)
from .training import TrainingDiverged, train
from .viz import save_montage_pgm, save_svg_montage

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
        cfg = with_stage_seeds(replace(cfg, seed=args.seed)).validate()
    return cfg


# --- prepare ----------------------------------------------------------------

def cmd_prepare(cfg: RunConfig, out_dir: Path) -> int:
    image_dir = Path(cfg.data.image_dir)
    if not image_dir.is_dir():
        raise ConfigError(f"image directory {image_dir} does not exist")
    rng = np.random.default_rng(stage_seed(cfg.seed, "prepare"))
    images = load_grayscale_images(image_dir)
    pcfg = cfg.data.patch_config(seed=stage_seed(cfg.seed, "prepare"))
    train_px, test_px = extract_patches(images, pcfg, rng)
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
    save_whitener(out_dir / WHITENER, w,
                  extra_meta={"patch_side": cfg.data.patch_side,
                              "mean_patch_norm": format_float(norm)})
    print(f"prepare: {len(images)} images, "
          f"train {train_white.shape[0]}x{train_white.shape[1]}, "
          f"test {test_white.shape[0]}x{test_white.shape[1]}")
    print(f"prepare: leading variance {format_float(float(w.eigvals[0]))}, "
          f"mean patch norm {format_float(norm)}")
    return 0


# --- train ------------------------------------------------------------------

LOG_COLUMNS = ["epoch", "reconstruction_error", "learning_rate", "momentum",
               "grad_norm_W", "grad_norm_U", "mean_sigma"]


def _log_rows(log) -> list[list]:
    return [[rec.epoch, rec.recon_error, rec.lr, rec.momentum,
             rec.grad_norm_W, rec.grad_norm_U, rec.mean_sigma]
            for rec in log]


def cmd_train(cfg: RunConfig, out_dir: Path, epochs: int | None) -> int:
    data, _ = load_matrix(_require(out_dir / TRAIN_WHITE, "prepare"))
    dims = cfg.model.dims
    if data.shape[1] != dims[0]:
        raise ShapeError(f"training data width {data.shape[1]} does not "
                         f"match model L={dims[0]}")
    tcfg = cfg.training if epochs is None \
        else replace(cfg.training, epochs_max=epochs).validate()

    def checkpoint(rec, params, offsets, log):
        save_model(out_dir / CHECKPOINT, params, offsets)
        write_csv(out_dir / TRAIN_LOG, LOG_COLUMNS, _log_rows(log))

    try:
        result = train(data, dims, tcfg, progress=checkpoint)
    except TrainingDiverged as exc:
        # keep the preceding epoch's checkpoint and log, then report
        save_model(out_dir / CHECKPOINT, exc.params, exc.offsets)
        write_csv(out_dir / TRAIN_LOG, LOG_COLUMNS, _log_rows(exc.log))
        raise
    save_model(out_dir / MODEL, result.params, result.offsets)
    write_csv(out_dir / TRAIN_LOG, LOG_COLUMNS, _log_rows(result.log))
    last = result.log[-1].recon_error if result.log else float("nan")
    print(f"train: {len(result.log)} epochs, "
          f"final validation error {format_float(last)}"
          + (" (stopped early)" if result.stopped_early else ""))
    return 0


# --- sample -------------------------------------------------------------------

def cmd_sample(cfg: RunConfig, out_dir: Path, chains: int | None,
               iters: int | None, every: int | None) -> int:
    params, offsets = load_model(_require(out_dir / MODEL, "train"))
    data, _ = load_matrix(_require(out_dir / TRAIN_WHITE, "prepare"))
    scfg = cfg.sampling
    if chains is not None:
        scfg = replace(scfg, n_chains=chains)
    if iters is not None:
        scfg = replace(scfg, n_iterations=iters)
    if every is not None:
        scfg = replace(scfg, record_every=every)
    scfg.validate()
    p_init = average_initial_probability(params, offsets, data, cfg.training)
    frames = run_spontaneous_session(params, offsets, p_init, scfg)
    meta = {k: str(v) for k, v in frames.meta.items()}
    meta["kind"] = frames.kind
    save_matrix(out_dir / FRAMES, frames.frames, meta=meta)
    save_matrix(out_dir / P_INIT, p_init[None, :],
                meta={"kind": "initial_probability"})
    print(f"sample: {frames.frames.shape[0]} frames of width "
          f"{frames.frames.shape[1]}")
    return 0


# --- analyze ------------------------------------------------------------------

def _write_map_csv(path, map_set) -> None:
    header = ["orientation_deg"] + [f"unit_{j}" for j in
                                    range(map_set.width)]
    rows = [[theta] + list(row) for theta, row in
            zip(map_set.orientations, map_set.maps)]
    write_csv(path, header, rows)


def cmd_analyze(cfg: RunConfig, out_dir: Path) -> int:
    params, offsets = load_model(_require(out_dir / MODEL, "train"))
    frames, frames_meta = load_matrix(_require(out_dir / FRAMES, "sample"))
    whitener, wmeta = load_whitener(_require(out_dir / WHITENER, "prepare"))
    L, M, N = params.dims
    if frames.shape[1] != M:
        raise ShapeError(f"frame width {frames.shape[1]} does not match "
                         f"model M={M}")
    if whitener.k != L:
        raise ShapeError(f"whitener k={whitener.k} does not match model "
                         f"L={L}")
    acfg = cfg.analysis
    patch_side = int(wmeta.get("patch_side", "0"))
    if patch_side < 2:
        raise FormatError("whitener container lacks a valid patch_side")
    mean_patch_norm = float(wmeta.get("mean_patch_norm", "0"))

    # grating battery at the amplitude of a typical training patch
    orientations = acfg.orientations()
    freqs = default_frequencies(patch_side, acfg.grating_frequency_count)
    phases = np.arange(acfg.grating_phase_count) * (
        2.0 * np.pi / acfg.grating_phase_count)
    unit, specs = generate_gratings(patch_side, orientations, freqs, phases,
                                    amplitude=1.0)
    unit_norm = float(np.mean(np.linalg.norm(unit, axis=1)))
    amplitude = mean_patch_norm / unit_norm if unit_norm > 0 else 1.0
    _, groups = group_by_orientation(amplitude * unit, specs)
    map_set = orientation_maps(params, offsets, groups, orientations,
                               whitener=whitener, mf_cfg=cfg.training)

    threshold = significance_threshold(acfg.threshold_n, acfg.alpha)
    threshold_at_m = significance_threshold(M, acfg.alpha) if M >= 4 \
        else float("nan")
    rep = correlate(frames, map_set, threshold)

    # random control frames from the same initial distribution
    p_init_mat, _ = load_matrix(_require(out_dir / P_INIT, "sample"))
    n_control = acfg.n_control if acfg.n_control > 0 else frames.shape[0]
    ctrl_rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, 4, 1]).generate_state(1)[0])
    control = random_control_frames(p_init_mat[0], n_control, ctrl_rng)
    ctrl_rep = correlate(control.frames, map_set, threshold)

    som = train_som(frames, acfg.som_config(stage_seed(cfg.seed, "analyze")))
    som_best, som_best_r, _ = correlate_som(som, map_set)
    osi = orientation_selectivity(map_set)

    # tabular artifacts
    save_matrix(out_dir / "orientation_maps.cgmat", map_set.maps,
                meta={"kind": "orientation_maps",
                      "orientations": ",".join(format_float(t) for t in
                                               map_set.orientations)})
    _write_map_csv(out_dir / "orientation_maps.csv", map_set)
    corr_header = (["frame"] + [f"r_{format_float(t)}" for t in
                                map_set.orientations]
                   + ["max_abs_r", "significant", "preference_deg"])

    def corr_rows(report):
        rows = []
        for i in range(report.r.shape[0]):
            pref = report.preference[i]
            rows.append([i] + list(report.r[i])
                        + [np.max(np.abs(report.r[i])),
                           int(report.significant[i]),
                           map_set.orientations[pref] if pref >= 0 else -1.0])
        return rows

    write_csv(out_dir / "correlation.csv", corr_header, corr_rows(rep))
    write_csv(out_dir / "control_correlation.csv", corr_header,
              corr_rows(ctrl_rep))
    write_csv(out_dir / "preference_hist.csv",
              ["orientation_deg", "relative_occurrence"],
              [[t, h] for t, h in zip(map_set.orientations,
                                      rep.preference_hist)])
    write_csv(out_dir / "som.csv",
              ["node", "best_orientation_deg", "r"],
              [[i, map_set.orientations[som_best[i]], som_best_r[i]]
               for i in range(som.n_nodes)])
    write_csv(out_dir / "osi.csv", ["unit", "osi"],
              [[j, osi[j]] for j in range(M)])

    # figure montages
    side = patch_side
    filters = first_layer_filters(params, whitener)
    tiles = [filters[j].reshape(side, side) for j in range(M)]
    cols = int(np.ceil(np.sqrt(M)))
    save_montage_pgm(out_dir / "filters.pgm", tiles, cols)
    save_svg_montage(out_dir / "filters.svg", tiles, cols,
                     title="first-layer filters")
    rf_tiles, rf_labels = [], []
    for k_unit in range(N):
        img, idx = second_layer_rf(params, whitener, k_unit)
        rf_tiles.append(img.reshape(side, side))
        rf_labels.append(f"z{k_unit}")
    rf_cols = int(np.ceil(np.sqrt(N)))
    save_montage_pgm(out_dir / "rf_second_layer.pgm", rf_tiles, rf_cols)
    save_svg_montage(out_dir / "rf_second_layer.svg", rf_tiles, rf_cols,
                     labels=rf_labels, title="second-layer receptive fields")
    mean_activity = frames.mean(axis=0)
    top = top_active_filters(mean_activity, k=min(25, M))
    save_montage_pgm(out_dir / "top_active.pgm",
                     [tiles[j] for j in top], 5)
    save_svg_montage(out_dir / "top_active.svg", [tiles[j] for j in top], 5,
                     labels=[f"y{j}" for j in top],
                     title="most active filters")

    # summary
    ratio = (rep.significant_fraction / ctrl_rep.significant_fraction
             if ctrl_rep.significant_fraction > 0 else float("inf"))
    max_r = (float(np.nanmax(rep.max_r_per_orientation))
             if np.any(rep.significant) else float("nan"))
    lines = [
        f"frames = {frames.shape[0]}",
        f"frame_width = {M}",
        f"alpha = {format_float(acfg.alpha)}",
        f"threshold_n = {acfg.threshold_n}",
        f"threshold = {format_float(threshold)}",
        f"threshold_at_M = {format_float(threshold_at_m)}",
        f"significant_fraction = {format_float(rep.significant_fraction)}",
        f"control_frames = {n_control}",
        "control_significant_fraction = "
        + format_float(ctrl_rep.significant_fraction),
        f"significant_ratio = {format_float(ratio)}",
        f"max_significant_correlation = {format_float(max_r)}",
        f"osi_fraction_ge_0.3 = {format_float(float(np.mean(osi >= 0.3)))}",
        f"som_nodes = {som.n_nodes}",
        f"som_max_r = {format_float(float(np.max(som_best_r)))}",
        "som_nodes_above_threshold = "
        + str(int(np.sum(np.abs(som_best_r) >= threshold))),
    ]
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
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
                                              ".pgm", ".svg", ".txt"):
            lines.append(f"{path.name} bytes={path.stat().st_size}")
    text = "\n".join(lines) + "\n"
    (out_dir / "report.txt").write_text(text)
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
    p_sample = sub.add_parser("sample", help="run a free-running session")
    common(p_sample)
    p_sample.add_argument("--chains", type=int, default=None)
    p_sample.add_argument("--iters", type=int, default=None)
    p_sample.add_argument("--every", type=int, default=None)
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
        return cmd_sample(cfg, out_dir, args.chains, args.iters, args.every)
    if args.command == "analyze":
        return cmd_analyze(cfg, out_dir)
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
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
