"""Per-layer spans recorded from outside the library.

The tracer wraps the public functions of each scfde layer by patching
the name every caller looks up at call time, and restores the original
objects on exit. Spans nest on a thread-local stack, because blocks of a
sweep with parallel_width > 1 run in pool threads. For each layer it
accumulates, over all threads:

* calls: exact call count;
* self_s: span wall time minus the wall time of the traced spans it
  called;
* wait_s: self wall time minus self thread CPU time, i.e. time the span
  spent waiting for the GIL or the scheduler rather than computing;
* raised: calls that ended in an exception;
* ops: an operation count computed from the arguments, where the layer
  has one.
"""

import functools
import threading
import time

from scfde import kernels, modem, numerics, simulator


def _levinson_cmacs(autocov, order):
    # iteration i does i-1 multiply-adds for the reflection coefficient
    # and i-1 for the tap update
    return order * (order - 1)


def _feedback_ops(z_t, fbf, tail, points, real_metric):
    # per position: one multiply-add per feedback tap, one distance per point
    return z_t.shape[0] * (fbf.shape[0] + points.shape[0])


# (metric prefix, [(owner, attribute) each caller looks up], op counter)
LAYERS = (
    ("kernels.levinson_recursion", [(kernels, "levinson_recursion")], _levinson_cmacs),
    ("kernels.dd_feedback", [(kernels, "dd_feedback")], _feedback_ops),
    ("numerics.RngStream.generator", [(numerics.RngStream, "generator")], None),
    ("channel.draw_channel", [(simulator, "draw_channel")], None),
    ("channel.apply_channel_freq", [(simulator, "apply_channel_freq")], None),
    ("modem.map_bits", [(simulator, "map_bits")], None),
    ("modem.precode", [(simulator, "precode")], None),
    # equalize_dfe imports demod_hard from scfde.modem inside the call
    ("modem.demod_hard", [(simulator, "demod_hard"), (modem, "demod_hard")], None),
    ("modem.count_bit_errors", [(simulator, "count_bit_errors")], None),
    ("equalizer.synthesize", [(simulator, "synthesize")], None),
    ("equalizer.equalize_le", [(simulator, "equalize_le")], None),
    ("equalizer.equalize_dfe", [(simulator, "equalize_dfe")], None),
    ("simulator.run_block", [(simulator, "run_block")], None),
    ("simulator.mfb_reference_curve", [(simulator, "mfb_reference_curve")], None),
    ("simulator.gap_at_ber", [(simulator, "gap_at_ber")], None),
)

# the objects each patched name points at outside a traced run; a name
# the library no longer has is skipped and its layer reports 0 calls
ORIGINALS = {
    (owner, attr): owner.__dict__[attr]
    for _, targets, _ in LAYERS for owner, attr in targets
    if attr in owner.__dict__
}


def patched_names():
    """Names that do not point at their original object; empty after a run."""
    return [f"{owner.__name__}.{attr}"
            for (owner, attr), original in ORIGINALS.items()
            if owner.__dict__[attr] is not original]


class Tracer:
    """Context manager that installs the layer wrappers while it is entered."""

    FIELDS = ("calls", "self_s", "wait_s", "raised", "ops")

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats = {name: dict.fromkeys(self.FIELDS, 0) for name, _, _ in LAYERS}

    def _wrap(self, name, fn, count_ops):
        local, lock, stats = self._local, self._lock, self.stats[name]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            children = [0.0, 0.0]  # wall, cpu of traced callees
            stack.append(children)
            raised = False
            w0, c0 = time.perf_counter(), time.thread_time()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                wall = time.perf_counter() - w0
                cpu = time.thread_time() - c0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += cpu
                self_wall = wall - children[0]
                self_cpu = cpu - children[1]
                ops = count_ops(*args, **kwargs) if count_ops else 0
                with lock:
                    stats["calls"] += 1
                    stats["self_s"] += self_wall
                    stats["wait_s"] += self_wall - self_cpu
                    stats["raised"] += raised
                    stats["ops"] += ops

        return span

    def __enter__(self):
        for name, targets, count_ops in LAYERS:
            targets = [t for t in targets if t in ORIGINALS]
            if targets:
                span = self._wrap(name, ORIGINALS[targets[0]], count_ops)
                for owner, attr in targets:
                    setattr(owner, attr, span)
        return self

    def __exit__(self, *exc):
        for (owner, attr), original in ORIGINALS.items():
            setattr(owner, attr, original)
        return False
