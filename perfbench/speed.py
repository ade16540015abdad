"""How fast the machine ran while a job was timed.

The host this benchmark was written on lends its CPUs to other guests. A
fixed pure-Python kernel there takes either about REFERENCE_S or about
twice that, flipping many times a second, and the share of slow time drifts
over minutes. That drift moved whole runs by up to 40%, far more than a
change worth measuring. So each job samples the kernel while it is timed:

    speed = mean over samples of REFERENCE_S / kernel seconds,

and the benchmark gates on time x speed, the time the job would have taken
on a machine on which the kernel always takes REFERENCE_S. Samples come
from a SIGALRM timer during one long call (about 1.5% overhead), or from
explicit calls between short timed sections. The kernel belongs to the
benchmark, so no change to the package can move it.
"""
from __future__ import annotations

# the C module: `signal` would import `enum` ahead of the package's import,
# which set-up time samples
import _signal as signal
from time import perf_counter

REFERENCE_S = 150e-6  # the kernel's time when the host runs it at full speed


def kernel_seconds() -> float:
    start = perf_counter()
    acc, base, mask = 0, 3 ** 300, (1 << 1500) - 1
    for i in range(150):
        acc = (acc * base + i) & mask
    return perf_counter() - start


class SpeedSampler:
    """Samples of the kernel; ``with`` it to sample on a timer."""

    def __init__(self, period_s: float = 0.02) -> None:
        self.period_s = period_s
        self.samples: list[float] = []
        self._previous = None

    def sample(self) -> None:
        self.samples.append(kernel_seconds())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean relative speed over the samples; one is taken if there are none."""
        if not self.samples:
            self.sample()
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)
