"""Operation times scaled to a reference host speed.

On a shared host the speed a process gets drifts by up to 2x over
seconds to minutes, with its CPU time tracking its wall time, so raw
times say as much about the neighbours as about the program.  Every
operation time is therefore scaled by REFERENCE_PROBE_S over the time of
a fixed probe kernel measured just before and just after the operation.
The kernel mimics the model's mix (small matmuls, a softmax, a layer
norm, a per-row Python loop, a checked wrapper around every op output);
of the kernels tried it tracked the model's own times best as the host's
speed moved.  Scaled times read as seconds on a host where the probe
takes REFERENCE_PROBE_S.  The kernel lives here, not in the library, so
no change to the library moves it.
"""

import statistics
from collections import deque
from time import perf_counter

import numpy as np

REFERENCE_PROBE_S = 5e-4
PROBE_SHARE = 0.1   # probe time per operation, as a share of its time
PROBE_WINDOW = 9    # fewest probes that make up one level
LEVEL_SECONDS = 1.0  # a level never looks further back than this
LEVEL_SPAN = 8.0     # ... nor further than this many operation lengths
_PROBE_RNG = np.random.default_rng(12345)
_PROBE_STATES = _PROBE_RNG.normal(size=(8, 16))
_PROBE_WEIGHT = _PROBE_RNG.normal(size=(16, 16)) * 0.25


class _ProbeTensor:
    """A checked array wrapper, as the model wraps every op output."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError("probe kernel produced a non-finite value")
        self.data = arr


def probe() -> float:
    """Seconds taken by one run of the fixed probe kernel: six rounds of
    attention over 8 states, a per-row loop and a layer norm."""
    started = perf_counter()
    x = _ProbeTensor(_PROBE_STATES)
    for _ in range(6):
        q = _ProbeTensor(x.data @ _PROBE_WEIGHT)
        logits = q.data @ x.data.T / 4.0
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        attention = _ProbeTensor(e / e.sum(axis=-1, keepdims=True))
        message = _ProbeTensor(attention.data @ x.data)
        rows = [_ProbeTensor(message.data[r]) for r in range(message.data.shape[0])]
        y = np.vstack([r.data for r in rows]) + x.data
        mu = y.mean(axis=-1, keepdims=True)
        var = ((y - mu) ** 2).mean(axis=-1, keepdims=True)
        x = _ProbeTensor((y - mu) / np.sqrt(var + 1e-5))
    return perf_counter() - started


class Clock:
    """Scales operation times to the reference host speed."""

    def __init__(self):
        for _ in range(PROBE_WINDOW):  # warm caches and lazy set-up first
            probe()
        self.probes: deque[tuple[float, float]] = deque()  # (finished at, seconds)
        self.level = self._probe(PROBE_WINDOW, LEVEL_SECONDS)
        self.last: dict[str, float] = {}
        self.speed: list[float] = []

    def _probe(self, count: int, span: float) -> float:
        """Run ``count`` probes; return the median of the probes of the
        last ``span`` seconds, or of the latest PROBE_WINDOW if fewer."""
        for _ in range(count):
            took = probe()
            self.probes.append((perf_counter(), took))
        now = perf_counter()
        while len(self.probes) > PROBE_WINDOW and self.probes[0][0] < now - LEVEL_SECONDS:
            self.probes.popleft()
        window = [took for at, took in self.probes if at >= now - span]
        if len(window) < PROBE_WINDOW:
            window = [took for _, took in list(self.probes)[-PROBE_WINDOW:]]
        self.level = statistics.median(window)
        return self.level

    def run(self, phase: str, op) -> float:
        """Time of ``op()`` (which returns its own seconds) at reference speed.

        Probing takes PROBE_SHARE of the operation's time, half just
        before it (sized by the phase's previous operation) and half just
        after it, at least one probe after.  The host's speed over the
        operation is the mean of the levels before and after, each taken
        over a window LEVEL_SPAN times the operation's length, within
        LEVEL_SECONDS: a short operation is matched with the probes
        closest to it, a long one with enough probes to average out the
        host's jitter over its length.
        """
        owed = PROBE_SHARE / 2 / self.level
        expected = self.last.get(phase, 0.0)
        before = self._probe(int(owed * expected), min(LEVEL_SECONDS, LEVEL_SPAN * expected))
        seconds = self.last[phase] = op()
        after = self._probe(max(1, int(owed * seconds)), min(LEVEL_SECONDS, LEVEL_SPAN * seconds))
        speed = 2.0 * REFERENCE_PROBE_S / (before + after)
        self.speed.append(speed)
        return seconds * speed
