"""Timing, percentiles, memory and the run stamp.

Every time here is read with ``time.perf_counter`` (the clock the
program's own ``repro.util.timer.Timer`` and trace spans read).
"""

import hashlib
import os
import pathlib
import platform
import statistics
import sys
import time

#: The percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)

#: Samples a reported tail percentile must have beyond it.
TAIL_SAMPLES_BEYOND = 10


def tail_percentile(samples):
    """The highest ladder percentile that leaves at least
    :data:`TAIL_SAMPLES_BEYOND` of ``samples`` (a count) beyond it, or
    ``None`` when even the lowest does not."""
    chosen = None
    for percentile in TAIL_LADDER:
        if samples * (100.0 - percentile) / 100.0 >= TAIL_SAMPLES_BEYOND:
            chosen = percentile
    return chosen


def percentile(values, pct):
    """Linear-interpolated percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class RunClock:
    """Accumulates only the time spent inside the program's calls, so
    the benchmark's own answer checks never count as run time."""

    def __init__(self):
        self.elapsed = 0.0

    def time(self, call, *args, **kwargs):
        """Run ``call`` and return ``(result, seconds)``."""
        started = time.perf_counter()
        result = call(*args, **kwargs)
        seconds = time.perf_counter() - started
        self.elapsed += seconds
        return result, seconds


def median_of(calls, call):
    """Median seconds of ``calls`` runs of ``call()``."""
    times = []
    for _ in range(calls):
        started = time.perf_counter()
        call()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def peak_rss_mb():
    """Peak resident memory of this process, in MB."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def process_peak_rss_mb(pid):
    """Peak resident memory of another (live) process, in MB, from
    ``/proc/<pid>/status``; ``None`` where that file is unavailable."""
    try:
        text = pathlib.Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def reference_loop_s(repeats=5, size=200_000):
    """Median time of a fixed pure-Python loop: a yardstick for the
    machine, so drift in it can be told apart from program changes."""

    def loop():
        total = 0
        for value in range(size):
            total += value * value % 7
        return total

    return median_of(repeats, loop)


def cpu_ticks():
    """``(steal, total)`` CPU ticks of the whole machine from
    ``/proc/stat``, or ``None`` where that file is unavailable.  Steal
    is time the hypervisor gave this machine's CPUs to other guests."""
    try:
        fields = pathlib.Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    ticks = [int(value) for value in fields[1:]]
    steal = ticks[7] if len(ticks) > 7 else 0
    return steal, sum(ticks[:8])


def steal_share(before, after):
    """Share of the machine's CPU time stolen between two
    :func:`cpu_ticks` readings (``None`` if either is missing)."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def _git_commit(root):
    """The commit checked out at ``root``, read from ``.git`` without
    running git; ``None`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root):
    """SHA-256 over the program's source files (path and content), which
    names the program version where no git metadata is present."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def nproc():
    """Processors this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(root, workload, seed, steal=None):
    """What a result was measured on: program version, interpreter and
    machine, plus two yardsticks of the machine's own state: the
    reference-loop time and the share of CPU time stolen by the
    hypervisor during the run (``steal``)."""
    return {
        "steal_share": steal,
        "git_commit": _git_commit(root),
        "source_digest": source_digest(root),
        "python": platform.python_version(),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "workload": workload,
        "seed": seed,
        "reference_loop_s": reference_loop_s(),
    }
