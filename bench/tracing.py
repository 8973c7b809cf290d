"""In-memory span recorder that wraps dynmd's public calls from outside.

Each wrapped call records one span (name, start, end, parent, run id).
Spans stay in memory until the run ends and are written once, so the
trace never does I/O while the workload is being timed.  Self time of a
layer is its span time minus the time of its direct child spans; calls
are single-threaded and nested, so the children never overlap.

A function bound elsewhere by ``from ... import`` is a separate name in
every importing module, so `install` rebinds each such name to the
wrapper, not only the defining module's attribute.
"""

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

# (layer name, module, attribute) for every wrapped call.  Several
# attributes may share one layer name: the three feasible sets all count
# as geometry.project, the four CSV writers as runner.write_csv.
LAYERS = (
    ("video.generate_video", "dynmd.experiments.video", "generate_video"),
    ("video.loss", "dynmd.experiments.video", "VideoData.loss"),
    ("votes.synthetic_votes", "dynmd.experiments.votes", "synthetic_votes"),
    ("votes.loss", "dynmd.experiments.votes", "VoteStream.loss"),
    ("losses.value", "dynmd.losses", "CompositeLoss.value"),
    ("losses.f_gradient", "dynmd.losses", "CompositeLoss.f_gradient"),
    ("losses.subgradient", "dynmd.losses", "CompositeLoss.subgradient"),
    ("losses.prox_r", "dynmd.losses", "CompositeLoss.prox_r"),
    ("geometry.project", "dynmd.geometry", "Box.project"),
    ("geometry.project", "dynmd.geometry", "Ball.project"),
    ("geometry.project", "dynmd.geometry", "Unconstrained.project"),
    ("geometry.divergence", "dynmd.geometry", "SquaredEuclidean.divergence"),
    ("dynamics.PixelShift.apply", "dynmd.dynamics", "PixelShift.apply"),
    ("dynamics.NetworkAttraction.apply", "dynmd.dynamics",
     "NetworkAttraction.apply"),
    ("dynamics.IdentityModel.apply", "dynmd.dynamics", "IdentityModel.apply"),
    ("dmd.dmd_step", "dynmd.dmd", "dmd_step"),
    ("fixedshare.dfs_step", "dynmd.fixedshare", "dfs_step"),
    ("runner.run_scenario", "dynmd.experiments.runner", "run_scenario"),
    ("runner.evaluate_run", "dynmd.experiments.runner", "evaluate_run"),
    ("runner.write_csv", "dynmd.experiments.runner", "write_losses_csv"),
    ("runner.write_csv", "dynmd.experiments.runner", "write_weights_csv"),
    ("runner.write_csv", "dynmd.experiments.runner", "write_regret_csv"),
    ("runner.write_csv", "dynmd.experiments.runner", "write_agents_csv"),
    ("regret.tracking_decomposition_from_losses", "dynmd.regret",
     "tracking_decomposition_from_losses"),
    ("regret.theorem2_curve", "dynmd.regret", "theorem2_curve"),
    ("regret.moving_average", "dynmd.regret", "moving_average"),
)

# layers whose first positional argument is a path the call writes
WRITES_FILE = {"runner.write_csv"}


def now():
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Span store plus the stack of open spans.

    A span is a tuple (name, start, end, parent, run_id); parent is the
    index of the enclosing span in `spans`, or -1 for a root.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []  # indices into spans of the spans still running
        self.bytes = {}

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, now(), None, parent, self.run_id))
        self._open.append(len(self.spans) - 1)

    def end(self):
        i = self._open.pop()
        name, start, _, parent, run_id = self.spans[i]
        self.spans[i] = (name, start, now(), parent, run_id)

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, name, fn):
        tracer = self
        writes = name in WRITES_FILE

        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()
                if writes:
                    tracer.bytes[name] = (tracer.bytes.get(name, 0)
                                          + os.path.getsize(args[0]))

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every entry of LAYERS and rebind all names bound to it."""
        for name, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, method, self.wrap(name, vars(owner)[method]))
            else:
                original = getattr(module, attr)
                _rebind(original, self.wrap(name, original))

    def summary(self):
        """Per layer: calls, total span seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
        for name, n in self.bytes.items():
            out[name]["bytes"] = n
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _rebind(original, replacement):
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("dynmd"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
