"""Host-speed scaling of timed work.

On a shared VM the speed of the same code flips between modes about 25%
apart, for anything from a fraction of a second to minutes; CPU time tracks
wall time, so no clock escapes it. A HostClock cuts each timed unit of work
into segments at natural boundaries (epochs, gradcheck cases, prediction
chunks, simulator bands), runs a fixed probe kernel at every cut, and scales
each segment by the probe times on either side of it. The scaled time is what
the segment would have taken on a host where one probe takes PROBE_REF_S.
Probe time itself is left out of both the raw and the scaled figures.
"""

import statistics
import time

import numpy as np

PROBE_REF_S = 0.008


class HostProbe:
    """A small numpy recurrent loop: the program's mix of interpreter work and tiny GEMMs."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.w = rng.standard_normal((32, 32)) * 0.1
        self.x = rng.standard_normal((32, 16))
        self.times = []

    def _kernel(self):
        h = np.zeros((32, 16))
        for _ in range(400):
            a = np.concatenate([h, self.x], axis=1) @ self.w
            h = np.clip(0.2 * a[:, :16] + 0.5, 0.0, 1.0) * np.tanh(a[:, 16:])
        return h

    def measure(self):
        runs = []
        for _ in range(3):
            tic = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - tic)
        self.times.append(statistics.median(runs))
        return self.times[-1]


class HostClock:
    """Splits a unit of work into probed segments of (raw seconds, scaled seconds).

    With scaling off (traced runs) it only splits, and scaled equals raw.
    """

    def __init__(self, scale: bool):
        self.scale = scale
        self.probe = HostProbe()
        self.segments = []
        self._since = None

    def begin(self):
        self.segments = []
        self._since = time.perf_counter()

    def mark(self):
        """Close the current segment; a no-op outside a unit."""
        if self._since is None:
            return
        raw = time.perf_counter() - self._since
        scaled = raw
        if self.scale:
            before = self.probe.times[-1]
            scaled = raw * 2.0 * PROBE_REF_S / (before + self.probe.measure())
        self.segments.append((raw, scaled))
        self._since = time.perf_counter()

    def end(self):
        """Close the unit; returns its segments."""
        self.mark()
        self._since = None
        return self.segments

    def hook(self, module, name):
        """Mark after every call of module.name, a boundary inside the program."""
        original = getattr(module, name)

        def marked(*args, **kwargs):
            out = original(*args, **kwargs)
            self.mark()
            return out

        setattr(module, name, marked)
