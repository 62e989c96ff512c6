#!/usr/bin/env python3
"""Pipeline benchmark: wall time of each cgdbm CLI stage, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports cgdbm from ./src and
works in ./.bench_work.  Each workload generates its inputs (a synthetic
image corpus and a run configuration) from the seed, then drives the real
stages through ``cgdbm.cli.main``, one fresh process per stage, one stage
after another: a closed loop with a single client.  BLAS runs on one
thread (see BLAS_THREADS).

With ``--trace 0`` the run sets up three times and makes one checked
pass over the whole pipeline, keeping a copy of the run directory before
each stage.  Until ``--seconds`` have passed since the pass began, it then
reruns single stages from those copies, always the stage with the fewest
timings that still fits in the time left, so every stage is sampled across
the whole run.  Each end-to-end metric is a median of its stage's timings.
With ``--trace 1`` one untraced and one traced pass run back to back; the
per-layer metrics come from the traced pass, whose artifacts must be
byte-identical to the untraced pass's.

The last line of stdout is one JSON object: correct, attempted (stage
processes started), failed (stages with a nonzero exit or a failed output
check) and metrics.  Without a cgdbm source tree the script exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0     # a run must end within 180 s
SETUPS = 3              # set-ups per untraced run; setup_s is their median
BATCH = 100
PATIENCE = 60
GIBBS_STEPS = 5
TRAIN_FRACTION = 0.9
VAL_FRACTION = 0.1
RECORD_EVERY = 10
ORIENTATIONS = 8
P99_MIN_SAMPLES = 1000  # ten samples beyond the 99th percentile
# One BLAS thread: on a small shared VM a second thread makes the first
# LAPACK call after a second of single-threaded work up to six times
# slower, at random (perfbench/README.md, "Noise and bounds").
BLAS_THREADS = 1
PIPELINE = ("prepare", "train", "sample", "analyze", "report")


@dataclass(frozen=True)
class Workload:
    dims: tuple[int, int, int]
    patch_side: int
    n_patches: int
    epochs: int            # fixed and below PATIENCE: no early stop
    chains: int
    iters: int
    threshold_n: int


# Why these two: see perfbench/README.md.
WORKLOADS = {
    "desk_pipeline": Workload(
        dims=(100, 64, 16), patch_side=12, n_patches=20000, epochs=4,
        chains=100, iters=500, threshold_n=64),
    "full_train": Workload(
        dims=(256, 900, 100), patch_side=32, n_patches=3000, epochs=4,
        chains=20, iters=100, threshold_n=200),
}


# --- inputs ------------------------------------------------------------------

def make_corpus(directory: Path, seed: int, n_images: int = 12,
                side: int = 128, n_shapes: int = 220) -> None:
    """Dead-leaves occlusion scenes (ellipses at every orientation) as
    16-bit PGM files.  Kept here, not taken from cgdbm, so a change to the
    program cannot change the benchmark's inputs."""
    import numpy as np
    rng = np.random.default_rng([seed, 0xC0])
    rr, cc = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    directory.mkdir(parents=True)
    for i in range(n_images):
        img = np.full((side, side), rng.uniform(0.3, 0.7))
        for _ in range(n_shapes):
            cy, cx = rng.uniform(-0.1 * side, 1.1 * side, size=2)
            a = np.exp(rng.uniform(np.log(0.04 * side), np.log(0.5 * side)))
            b = a * rng.uniform(1.0 / 6.0, 1.0)
            theta = rng.uniform(0.0, np.pi)
            ct, st = np.cos(theta), np.sin(theta)
            u = (cc - cx) * ct + (rr - cy) * st
            v = -(cc - cx) * st + (rr - cy) * ct
            img[(u / a) ** 2 + (v / b) ** 2 <= 1.0] = rng.uniform(0.0, 1.0)
        pixels = np.rint(img * 65535).astype(">u2")
        with open(directory / f"scene_{i:03d}.pgm", "wb") as fh:
            fh.write(f"P5\n{side} {side}\n65535\n".encode("ascii"))
            fh.write(pixels.tobytes())


def config_text(wl: Workload, seed: int) -> str:
    L, M, N = wl.dims
    return "\n".join([
        f"seed = {seed}",
        "[data]",
        "image_dir = corpus",
        f"patch_side = {wl.patch_side}",
        f"n_patches = {wl.n_patches}",
        f"train_fraction = {TRAIN_FRACTION}",
        f"pca_k = {L}",
        "[model]",
        f"L = {L}", f"M = {M}", f"N = {N}",
        "[training]",
        f"epochs_max = {wl.epochs}",
        f"patience = {PATIENCE}",
        f"batch_size = {BATCH}",
        f"gibbs_steps_per_batch = {GIBBS_STEPS}",
        f"val_fraction = {VAL_FRACTION}",
        "[sampling]",
        f"n_chains = {wl.chains}",
        f"n_iterations = {wl.iters}",
        f"record_every = {RECORD_EVERY}",
        "[analysis]",
        "alpha = 0.01",
        f"threshold_n = {wl.threshold_n}",
        f"orientation_count = {ORIENTATIONS}",
        "",
    ])


def stage_argv(stage: str, wl: Workload, out_dir: str) -> list[str]:
    if stage == "report":
        return ["report", "--out-dir", out_dir]
    argv = [stage, "--config", "run.cfg", "--out-dir", out_dir]
    return argv + (["--epochs", str(wl.epochs)] if stage == "train" else [])


def train_rows(wl: Workload) -> int:
    n = int(round(TRAIN_FRACTION * wl.n_patches))
    return min(max(n, 1), wl.n_patches - 1)


def batches_per_epoch(wl: Workload) -> int:
    n = train_rows(wl)
    n_val = int(round(VAL_FRACTION * n))
    fit = n - n_val if 0 < n_val < n else n
    return math.ceil(fit / BATCH)


# --- output checks -----------------------------------------------------------

def check_outputs(stage: str, run: Path, wl: Workload) -> list[str]:
    """Load each artifact the stage wrote through cgdbm's own readers
    (which verify checksums) and check shapes against the config."""
    import numpy as np
    from cgdbm.io import load_matrix, load_model
    from cgdbm.stimuli import load_whitener
    L, M, N = wl.dims
    errors = []

    def expect(ok, message):
        if not ok:
            errors.append(f"{stage}: {message}")

    try:
        if stage == "prepare":
            n = train_rows(wl)
            for name, rows in (("train_white", n),
                               ("test_white", wl.n_patches - n)):
                a, _ = load_matrix(run / f"{name}.cgmat")
                expect(a.shape == (rows, L), f"{name} shape {a.shape}")
                expect(np.all(np.isfinite(a)), f"{name} not finite")
            w, _ = load_whitener(run / "whitener.cgmat")
            expect(w.k == L, f"whitener k={w.k}")
        elif stage == "train":
            for name in ("model.cgdbm", "checkpoint.cgdbm"):
                p, c = load_model(run / name)
                expect(p.dims == wl.dims, f"{name} dims {p.dims}")
                expect(all(np.all(np.isfinite(a)) for a in
                           (p.W, p.U, p.b_y, p.b_z, p.sigma2)),
                       f"{name} parameters not finite")
            lines = (run / "train_log.csv").read_text().splitlines()[1:]
            expect(len(lines) == wl.epochs,
                   f"train_log.csv has {len(lines)} rows, expected "
                   f"{wl.epochs}")
            values = [float(v) for line in lines for v in line.split(",")]
            expect(all(math.isfinite(v) for v in values),
                   "train_log.csv has non-finite values")
        elif stage == "sample":
            frames, _ = load_matrix(run / "frames.cgmat")
            rows = wl.chains * wl.iters // RECORD_EVERY
            expect(frames.shape == (rows, M), f"frames shape {frames.shape}")
            expect(np.all((frames >= 0) & (frames <= 1)),
                   "frames outside [0, 1]")
            p_init, _ = load_matrix(run / "p_init.cgmat")
            expect(p_init.shape == (1, M), f"p_init shape {p_init.shape}")
        elif stage == "analyze":
            summary = {}
            for line in (run / "summary.txt").read_text().splitlines():
                key, _, value = line.partition(" = ")
                summary[key] = float(value)
            expect(summary.get("frames") == wl.chains * wl.iters
                   // RECORD_EVERY, f"summary frames {summary.get('frames')}")
            expect(summary.get("frame_width") == M, "summary frame_width")
            maps, _ = load_matrix(run / "orientation_maps.cgmat")
            expect(maps.shape == (ORIENTATIONS, M), f"maps {maps.shape}")
        elif stage == "report":
            text = (run / "report.txt").read_text()
            expect("summary.txt" in text, "report.txt lacks the artifacts")
    except Exception as exc:  # any unreadable artifact is a failed check
        errors.append(f"{stage}: {type(exc).__name__}: {exc}")
    return errors


def digests(run: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run.iterdir()) if p.is_file()}


# --- expected call counts of a traced stage ----------------------------------

def expected_calls(stage: str, wl: Workload) -> dict[str, tuple[str, int]]:
    """Counts the workload implies: exact for the algorithm's loops and
    once-per-stage calls, a lower bound where only the binding is at
    stake (artifact writers, helpers a refactor may batch)."""
    E, nb = wl.epochs, batches_per_epoch(wl)
    once = ("==", 1)
    some = (">=", 1)
    return {
        "prepare": {
            "cli.prepare": once, "stimuli.load_grayscale_images": once,
            "stimuli.extract_patches": once, "stimuli.fit_whitener": once,
            "stimuli.whiten": some, "io.save_matrix": (">=", 3)},
        "train": {
            "cli.train": once, "training.train": once,
            "training.gibbs_model_step": ("==", E * nb * GIBBS_STEPS),
            "training.mean_field_data": ("==", E * nb),
            "training.batch_gradient_stats": ("==", 2 * E * nb),
            "training.apply_updates": ("==", E * nb),
            "training.update_offsets": ("==", E * nb),
            "training.reconstruction_error": ("==", E),
            "model.cond_hidden1": some, "model.cond_hidden2": some,
            "model.cond_visible": some, "io.load_matrix": some,
            "io.save_model": (">=", E + 1), "io.write_csv": some},
        "sample": {
            "cli.sample": once, "sampling.run_spontaneous_session": once,
            "sampling.average_initial_probability": once,
            "training.gibbs_model_step": ("==", wl.iters),
            "training.mean_field_data": some, "model.cond_hidden1": some,
            "io.load_model": some, "io.load_matrix": some,
            "io.save_matrix": (">=", 2)},
        "analyze": {
            "cli.analyze": once, "analysis.orientation_maps": once,
            "analysis.correlate": ("==", 2), "analysis.train_som": once,
            "analysis.correlate_som": once,
            "analysis.orientation_selectivity": once,
            "sampling.random_control_frames": once,
            "stimuli.generate_gratings": once, "stimuli.whiten": some,
            "training.mean_field_data": some, "io.load_model": some,
            "io.load_matrix": (">=", 3), "io.save_matrix": some,
            "io.write_csv": some, "viz.save_montage_pgm": some,
            "viz.save_svg_montage": some},
        "report": {"cli.report": once},
    }[stage]


def check_calls(stage: str, wl: Workload, trace: dict) -> list[str]:
    stats, absent = trace["stats"], set(trace["absent"])
    errors = []
    for name, (op, n) in expected_calls(stage, wl).items():
        if name in absent:
            continue
        got = stats[name]["calls"]
        if (got != n) if op == "==" else (got < n):
            errors.append(f"{stage}: {name} called {got} times, "
                          f"expected {op} {n}")
    if "io.crc64" not in absent:
        framed = sum(stats[f"io.{fn}"]["calls"] for fn in (
            "save_matrix", "load_matrix", "save_model", "load_model")
            if f"io.{fn}" in stats)
        if stats["io.crc64"]["calls"] != framed:
            errors.append(f"{stage}: io.crc64 called "
                          f"{stats['io.crc64']['calls']} times for {framed} "
                          f"framed reads and writes")
    return errors


# --- running stages ----------------------------------------------------------

class Session:
    """One benchmark run: spawns the stage processes and counts attempts
    and failures."""

    def __init__(self, name: str, seed: int, work: Path, env: dict,
                 deadline: float):
        self.seed, self.wl = seed, WORKLOADS[name]
        self.work, self.env, self.deadline = work, env, deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.log = work / "stages.log"

    def fail(self, messages: list[str]) -> bool:
        """Record one failed operation if there are messages; return
        whether there were none."""
        if messages:
            self.failed += 1
            self.errors.extend(messages)
        return not messages

    def spawn(self, argv: list[str], trace_out: Path | None = None):
        """Run stage.py in a fresh process; return (ok, seconds, peak MB)."""
        self.attempted += 1
        cmd = [sys.executable, str(BENCH_DIR / "stage.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        with open(self.log, "ab") as log:
            log.write(f"$ {' '.join(argv)}\n".encode())
            log.flush()
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd + argv, cwd=self.work, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            budget = max(self.deadline - time.monotonic(), 1.0)
            watchdog = threading.Timer(budget, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = self.fail([] if proc.returncode == 0 else
                       [f"{argv[0]} exited with code {proc.returncode}"])
        return ok, seconds, usage.ru_maxrss / 1024.0

    def stages(self, stages, out_dir: str, check: bool,
               trace_dir: Path | None = None):
        """Run stages in order into out_dir; stop at the first failure.
        Returns ({stage: seconds}, peak MB), or None on failure."""
        times, peak = {}, 0.0
        for stage in stages:
            trace_out = None if trace_dir is None \
                else trace_dir / f"{stage}.json"
            ok, seconds, rss = self.spawn(
                stage_argv(stage, self.wl, out_dir), trace_out)
            if ok and check:
                ok = self.fail(check_outputs(stage, self.work / out_dir,
                                             self.wl))
            if not ok:
                return None
            times[stage] = seconds
            peak = max(peak, rss)
        return times, peak

    def setup(self) -> float | None:
        """Inputs from the seed and a warm-up import.  Returns the wall
        seconds, or None on failure."""
        t0 = time.perf_counter()
        shutil.rmtree(self.work / "corpus", ignore_errors=True)
        make_corpus(self.work / "corpus", self.seed)
        (self.work / "run.cfg").write_text(config_text(self.wl, self.seed))
        # first import compiles bytecode and fills the page cache
        if not self.spawn(["--help"])[0]:
            return None
        return time.perf_counter() - t0

    def rep(self, check: bool, trace_dir: Path | None = None):
        """One pass over the pipeline in a fresh run directory."""
        run = self.work / "run"
        shutil.rmtree(run, ignore_errors=True)
        run.mkdir()
        return self.stages(PIPELINE, "run", check, trace_dir)

    def snapshot_pass(self):
        """One checked pass that copies the run directory to snap/<stage>
        before each stage and records the artifact digests after it.
        Returns ({stage: seconds}, peak MB, {stage: digests}) or None."""
        run, snap = self.work / "run", self.work / "snap"
        shutil.rmtree(run, ignore_errors=True)
        run.mkdir()
        times, peak, after = {}, 0.0, {}
        for stage in PIPELINE:
            shutil.copytree(run, snap / stage)
            result = self.stages([stage], "run", check=True)
            if result is None:
                return None
            times[stage] = result[0][stage]
            peak = max(peak, result[1])
            after[stage] = digests(run)
        return times, peak, after

    def rerun(self, stage: str, want: dict):
        """Rerun one stage on its snapshot; its artifacts must equal the
        first pass's.  Returns (seconds, peak MB), or None on failure."""
        run = self.work / "run"
        shutil.rmtree(run, ignore_errors=True)
        shutil.copytree(self.work / "snap" / stage, run)
        result = self.stages([stage], "run", check=False)
        if result is None or not self.same_digests(
                want, digests(run), f"rerun of {stage}"):
            return None
        return result[0][stage], result[1]

    def same_digests(self, want: dict, got: dict, what: str) -> bool:
        diff = sorted(k for k in set(want) | set(got)
                      if want.get(k) != got.get(k))
        return self.fail([f"{what}: artifacts differ: {', '.join(diff)}"]
                         if diff else [])


# --- metrics -----------------------------------------------------------------

def end_to_end(setups, samples, peak_mb) -> dict[str, tuple[float, str]]:
    def med(stages):
        return sum(statistics.median(samples[s]) for s in stages)

    return {
        "setup_s": (statistics.median(setups), "s"),
        "prepare_s": (med(["prepare"]), "s"),
        "train_s": (med(["train"]), "s"),
        "sample_s": (med(["sample"]), "s"),
        "analyze_s": (med(["analyze", "report"]), "s"),
        "total_s": (med(PIPELINE), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def merge_traces(traces: list[dict]) -> tuple[dict, list[str]]:
    merged: dict[str, dict] = {}
    for trace in traces:
        for name, stat in trace["stats"].items():
            into = merged.setdefault(name, {})
            for key, value in stat.items():
                if key == "samples_s":
                    into.setdefault(key, []).extend(value)
                elif key == "iters_max":
                    into[key] = max(into.get(key, 0), value)
                else:
                    into[key] = into.get(key, 0) + value
    absent = sorted(set().union(*(t["absent"] for t in traces)))
    return merged, absent


def per_layer(traces: list[dict], overhead: float,
              notes: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced stages.  A function the stages
    never reached, or one the program no longer has, reads 0."""
    from tracer import all_names
    stats, absent = merge_traces(traces)
    if absent:
        notes.append("absent from the program: " + ", ".join(absent))

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    out: dict[str, tuple[float, str]] = {}
    for name in all_names():
        if name.startswith("cli."):
            out[f"{name}.self_s"] = (get(name, "self_s"), "s")
        else:
            out[f"{name}.calls"] = (get(name, "calls"), "count")
            out[f"{name}.total_s"] = (get(name, "total_s"), "s")
    for name in ("training.gibbs_model_step", "training.mean_field_data"):
        samples = sorted(get(name, "samples_s") or [])
        p50 = statistics.median(samples) * 1e6 if samples else 0.0
        p99 = 0.0
        if len(samples) >= P99_MIN_SAMPLES:
            p99 = statistics.quantiles(samples, n=100)[98] * 1e6
        elif samples:
            notes.append(f"{name}.p99_us: {len(samples)} calls, fewer than "
                         f"{P99_MIN_SAMPLES}; reported as 0")
        out[f"{name}.p50_us"] = (p50, "us")
        out[f"{name}.p99_us"] = (p99, "us")
    gibbs_s = get("training.gibbs_model_step", "total_s")
    out["training.gibbs_model_step.self_s"] = (
        get("training.gibbs_model_step", "self_s"), "s")
    out["training.gibbs_model_step.gflop_per_s"] = (
        get("training.gibbs_model_step", "flops") / gibbs_s / 1e9
        if gibbs_s else 0.0, "GFLOP/s")
    mf_calls = get("training.mean_field_data", "calls")
    out["training.mean_field_data.iters_mean"] = (
        get("training.mean_field_data", "iters_sum") / mf_calls
        if mf_calls else 0.0, "iterations")
    out["training.mean_field_data.iters_max"] = (
        get("training.mean_field_data", "iters_max"), "iterations")
    out["training.mean_field_data.unconverged_frac"] = (
        get("training.mean_field_data", "unconverged") / mf_calls
        if mf_calls else 0.0, "fraction")
    out["training.train.self_s"] = (get("training.train", "self_s"), "s")
    out["sampling.run_spontaneous_session.self_s"] = (
        get("sampling.run_spontaneous_session", "self_s"), "s")
    for fn in ("crc64", "save_matrix", "load_matrix", "write_csv"):
        out[f"io.{fn}.bytes"] = (get(f"io.{fn}", "bytes"), "B")
    crc_s = get("io.crc64", "total_s")
    out["io.crc64.mb_per_s"] = (
        get("io.crc64", "bytes") / crc_s / 1e6 if crc_s else 0.0, "MB/s")
    out["trace.overhead_frac"] = (overhead, "fraction")
    return out


def environment(seed: int, threads: int) -> dict:
    import numpy as np
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": threads, "seed": seed}


# --- main --------------------------------------------------------------------

def measure(sess: Session, seconds: float) -> dict | None:
    """Untraced run: set up SETUPS times, make one checked pass, then rerun
    single stages until `seconds` have passed since the pass began."""
    setups = []
    for _ in range(SETUPS):
        seconds_taken = sess.setup()
        if seconds_taken is None:
            return None
        setups.append(seconds_taken)
    deadline = time.perf_counter() + seconds
    first = sess.snapshot_pass()
    if first is None:
        return None
    times, peak, after = first
    samples = {stage: [t] for stage, t in times.items()}
    while True:
        left = deadline - time.perf_counter()
        fits = [s for s in PIPELINE if max(samples[s]) < left]
        if not fits:
            break
        stage = min(fits, key=lambda s: len(samples[s]))
        result = sess.rerun(stage, after[stage])
        if result is None:
            return None
        samples[stage].append(result[0])
        peak = max(peak, result[1])
    for stage in PIPELINE:
        print(f"{stage} timings: " + " ".join(
            f"{t:.3f}" for t in samples[stage]))
    return end_to_end(setups, samples, peak)


def measure_traced(sess: Session, notes: list[str]) -> dict | None:
    """One untraced and one traced pass over the timed stages."""
    if sess.setup() is None:
        return None
    plain = sess.rep(check=True)
    if plain is None:
        return None
    want = digests(sess.work / "run")
    trace_dir = sess.work / "trace"
    trace_dir.mkdir()
    traced = sess.rep(check=False, trace_dir=trace_dir)
    if traced is None:
        return None
    if not sess.same_digests(want, digests(sess.work / "run"),
                             "traced pass"):
        return None
    traces = []
    for stage in PIPELINE:
        trace = json.loads((trace_dir / f"{stage}.json").read_text())
        if not sess.fail(check_calls(stage, sess.wl, trace)):
            return None
        traces.append(trace)
    overhead = sum(traced[0].values()) / sum(plain[0].values()) - 1.0
    return per_layer(traces, overhead, notes)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "cgdbm" / "cli.py").is_file():
        print(f"error: no cgdbm sources under {SRC}; run from the root of "
              "a cgdbm checkout", file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    print("env " + json.dumps(environment(args.seed, BLAS_THREADS)))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sess = Session(args.workload, args.seed, work, env,
                   time.monotonic() + RUN_LIMIT_S)
    notes: list[str] = []
    try:
        if args.trace:
            metrics = measure_traced(sess, notes)
        else:
            metrics = measure(sess, args.seconds)
        if sess.errors:
            tail = sess.log.read_text(errors="replace")[-4000:]
            print(f"--- last stage output ---\n{tail}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in sess.errors:
        print(f"FAILED {message}")
    for note in notes:
        print(f"note: {note}")
    metrics = metrics or {}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": not sess.errors and bool(metrics),
        "attempted": max(sess.attempted, 1),
        "failed": sess.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
