"""A time-weighted stack sampler that charges host time to ``repro`` layers.

A daemon thread wakes every millisecond, reads the target thread's
frame with ``sys._current_frames`` and charges the wall time since its
previous sample to that stack.  Weighting by elapsed time, rather than
counting samples, matters under the interpreter lock: while a long numpy
call holds the lock the sampler cannot run, and the next sample then
carries the whole stall instead of counting it once.

Self time goes to the innermost frame that belongs to the ``repro``
package, so time in C code, numpy or the standard library is charged to
the ``repro`` frame that called it.  Stacks with no ``repro`` frame (the
benchmark's own code) go to ``other``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter

__all__ = ["LAYERS", "StackSampler"]

#: the host-time layers, one per ``repro`` subpackage (``workloads`` is
#: charged to ``mllib``: both are the client side of the GPU API)
LAYERS = ("sim", "simnet", "simcuda", "core", "faas", "obs", "mllib", "other")
_LAYER_OF = {name: name for name in LAYERS[:-1]}
_LAYER_OF["workloads"] = "mllib"

_PAYLOAD_FILE = os.path.join("simcuda", "kernels.py")
_INTERVAL_S = 0.001


class StackSampler:
    """Samples one thread's stack; use as a context manager around the
    code to measure.

    ``package_dir`` is the directory of the ``repro`` package whose
    frames are attributed to layers.
    """

    def __init__(self, package_dir: str):
        self.package_dir = os.path.abspath(package_dir) + os.sep
        #: layer -> seconds of self time
        self.layer_seconds = dict.fromkeys(LAYERS, 0.0)
        #: seconds with a ``simcuda.kernels._payload_*`` frame on the stack
        self.payload_seconds = 0.0
        #: folded stack ("outer;...;inner") -> seconds
        self.stacks: Counter = Counter()
        self._code_info: dict = {}
        self._stop = threading.Event()
        self._thread = None
        self._target = None

    def __enter__(self) -> "StackSampler":
        self._target = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="stack-sampler",
                                        daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        if self._thread.is_alive():
            raise RuntimeError("stack sampler thread did not stop")

    @property
    def total_seconds(self) -> float:
        return sum(self.layer_seconds.values())

    def shares(self) -> dict:
        """Layer -> share of sampled time (sums to 1)."""
        total = self.total_seconds
        return {layer: (s / total if total else 0.0)
                for layer, s in self.layer_seconds.items()}

    def payload_share(self) -> float:
        total = self.total_seconds
        return self.payload_seconds / total if total else 0.0

    def folded_lines(self) -> list[str]:
        """``stack weight_us`` lines, loadable in speedscope or
        ``flamegraph.pl``."""
        return [f"{stack} {round(seconds * 1e6)}"
                for stack, seconds in sorted(self.stacks.items())]

    # -- sampling ----------------------------------------------------------
    def _run(self) -> None:
        last = time.perf_counter()
        while not self._stop.wait(_INTERVAL_S):
            frame = sys._current_frames().get(self._target)
            now = time.perf_counter()
            if frame is not None:
                self._record(frame, now - last)
            last = now

    def _record(self, frame, seconds: float) -> None:
        labels = []
        layer = None
        payload = False
        while frame is not None:
            label, frame_layer, is_payload = self._info(frame.f_code)
            labels.append(label)
            if layer is None:
                layer = frame_layer
            payload = payload or is_payload
            frame = frame.f_back
        self.layer_seconds[layer or "other"] += seconds
        if payload:
            self.payload_seconds += seconds
        labels.reverse()
        self.stacks[";".join(labels)] += seconds

    def _info(self, code) -> tuple:
        info = self._code_info.get(code)
        if info is None:
            info = self._code_info[code] = self._classify(code)
        return info

    def _classify(self, code) -> tuple:
        path = os.path.abspath(code.co_filename)
        if not path.startswith(self.package_dir):
            module = os.path.splitext(os.path.basename(path))[0]
            # "<frozen runpy>": folded stacks allow no spaces or semicolons
            label = f"{module}:{code.co_name}".replace(" ", "_").replace(";", "_")
            return label, None, False
        rel = path[len(self.package_dir):]
        module = "repro." + os.path.splitext(rel)[0].replace(os.sep, ".")
        top = rel.split(os.sep, 1)[0] if os.sep in rel else ""
        layer = _LAYER_OF.get(top, "other")
        payload = rel == _PAYLOAD_FILE and code.co_name.startswith("_payload_")
        return f"{module}:{code.co_name}", layer, payload
