"""Outside-in layer tracer for the cgdbm pipeline.

Wraps public functions of the cgdbm modules from outside the package.
Modules bind names with ``from .x import y``, so each wrapper replaces
the original in every loaded ``cgdbm`` namespace that holds it; the
harness asserts exact call counts afterwards, so a binding the scan
misses shows up as a wrong count instead of a silent zero.  A function
that no longer exists is recorded as absent.

Spans are kept in memory per function (calls, total and self time, and
a few counters read off the arguments or results) and written as one
JSON file when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

TRACED = {
    "training": ("gibbs_model_step", "mean_field_data", "batch_gradient_stats",
                 "apply_updates", "update_offsets", "reconstruction_error",
                 "train"),
    "model": ("cond_hidden1", "cond_hidden2", "cond_visible"),
    "sampling": ("run_spontaneous_session", "average_initial_probability",
                 "random_control_frames"),
    "io": ("crc64", "save_matrix", "load_matrix", "save_model", "load_model",
           "write_csv"),
    "stimuli": ("load_grayscale_images", "extract_patches", "fit_whitener",
                "whiten", "generate_gratings"),
    "analysis": ("orientation_maps", "correlate", "train_som",
                 "correlate_som", "orientation_selectivity"),
    "viz": ("save_montage_pgm", "save_svg_montage"),
}
# classes whose construction (validation included) is timed
CONSTRUCTED = {"model": ("ModelParams", "Offsets")}
# cli.cmd_<stage> is traced as cli.<stage>
CLI_STAGES = ("prepare", "train", "sample", "analyze", "report")
# functions whose per-call durations are kept for percentiles
SAMPLED = ("training.gibbs_model_step", "training.mean_field_data")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _gibbs_flops(stat, args, kwargs, result):
    # computed from array dims: z|y, x|y, y|(x,z) products, 2 flops per MAC
    B = _arg(args, kwargs, 0, "chains").y.shape[0]
    L, M, N = _arg(args, kwargs, 1, "p").dims
    stat["flops"] += 4 * B * M * (L + N)


def _mean_field_iters(stat, args, kwargs, result):
    stat["iters_sum"] += result.iterations_used
    stat["iters_max"] = max(stat["iters_max"], result.iterations_used)
    stat["unconverged"] += 0 if result.converged else 1


def _saved_bytes(stat, args, kwargs, result):
    stat["bytes"] += 8 * np.size(_arg(args, kwargs, 1, "array"))


def _loaded_bytes(stat, args, kwargs, result):
    stat["bytes"] += result[0].nbytes


def _crc_bytes(stat, args, kwargs, result):
    stat["bytes"] += len(_arg(args, kwargs, 0, "data"))


def _csv_bytes(stat, args, kwargs, result):
    stat["bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# per function: a hook that reads counters off the call, and their zeros
HOOKS = {
    "training.gibbs_model_step": (_gibbs_flops, {"flops": 0}),
    "training.mean_field_data": (_mean_field_iters, {
        "iters_sum": 0, "iters_max": 0, "unconverged": 0}),
    "io.save_matrix": (_saved_bytes, {"bytes": 0}),
    "io.load_matrix": (_loaded_bytes, {"bytes": 0}),
    "io.crc64": (_crc_bytes, {"bytes": 0}),
    "io.write_csv": (_csv_bytes, {"bytes": 0}),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []   # child time of each open span

    def _wrap(self, name: str, fn):
        hook, counters = HOOKS.get(name, (None, {}))
        stat = {"calls": 0, "total_s": 0.0, "self_s": 0.0, **counters}
        if name in SAMPLED:
            stat["samples_s"] = []
        self.stats[name] = stat
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat["calls"] += 1
                stat["total_s"] += dt
                stat["self_s"] += dt - child
                if "samples_s" in stat:
                    stat["samples_s"].append(dt)
            if hook is not None:
                hook(stat, args, kwargs, result)
            return result

        return traced

    def install(self) -> "Tracer":
        """Wrap every traced function in every cgdbm namespace that binds
        it.  Import cgdbm.cli (and so every module it uses) first."""
        targets = [(f"{mod}.{fn}", mod, fn)
                   for mod, names in TRACED.items() for fn in names]
        targets += [(f"cli.{stage}", "cli", f"cmd_{stage}")
                    for stage in CLI_STAGES]
        namespaces = [m for key, m in sys.modules.items()
                      if key == "cgdbm" or key.startswith("cgdbm.")]
        for name, mod, attr in targets:
            original = getattr(importlib.import_module(f"cgdbm.{mod}"),
                               attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
        for mod, names in CONSTRUCTED.items():
            module = importlib.import_module(f"cgdbm.{mod}")
            for cls_name in names:
                cls = getattr(module, cls_name, None)
                if cls is None:
                    self.absent.append(f"{mod}.{cls_name}")
                    continue
                cls.__init__ = self._wrap(f"{mod}.{cls_name}", cls.__init__)
        return self

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"stats": self.stats, "absent": self.absent}, fh)


def all_names() -> list[str]:
    """Every traced name, in report order."""
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    names += [f"{mod}.{cls}" for mod, classes in CONSTRUCTED.items()
              for cls in classes]
    return names + [f"cli.{stage}" for stage in CLI_STAGES]
