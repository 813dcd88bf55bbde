"""Statistics, process hygiene and run metadata shared by every workload.

Nothing here imports ``repro``: the helpers work on plain numbers, on the
``/proc`` view of this process tree, and on the checkout's files.
"""

from __future__ import annotations

import bisect
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

#: A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10
#: The host-speed probe: a pointer chase of PROBE_STEPS hops through a cycle
#: over PROBE_CELLS cells (8 MiB), and the probe time that defines the
#: reference speed.
PROBE_CELLS, PROBE_STEPS = 1 << 20, 30_000
REFERENCE_PROBE_S = 0.005
#: An operation's speed is the median of this many probes on either side of it.
PROBE_WINDOW = 4


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation (0.0 if empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> int:
    """The highest whole percentile (capped at 99) with >= 10 samples beyond it.

    With fewer than 20 samples no percentile above the median qualifies, and
    the median stands in for the tail; the printed table says which percentile
    was used and over how many samples.
    """
    if count < 2 * TAIL_SAMPLES_BEYOND:
        return 50
    return max(50, min(99, int(100 * (1 - TAIL_SAMPLES_BEYOND / count))))


def latency_summary(seconds: list[float]) -> dict:
    """Median and supported tail of a latency sample, in milliseconds."""
    tail = tail_percentile(len(seconds))
    return {
        "p50_ms": percentile(seconds, 50) * 1000.0,
        "tail_ms": percentile(seconds, tail) * 1000.0,
        "tail_percentile": tail,
        "samples": len(seconds),
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


class HostSpeed:
    """How fast the machine runs pointer-heavy interpreter code right now.

    On a shared virtual machine the same code runs up to about 1.8x slower
    in phases that last from seconds to minutes, as neighbours contend for
    caches and memory; a run of tens of seconds often sits inside one phase.
    Routing is pointer-heavy Python, and a pointer chase through an array
    larger than a core's own caches slows with it.  The workloads run :meth:`probe`
    between operations (never inside one), and :meth:`scale` turns an
    operation's wall time into time at the reference speed, the speed at
    which one probe takes :data:`REFERENCE_PROBE_S`.  The probe does not
    touch the program, so a change to the program moves the scaled times
    as much as the wall times.
    """

    def __init__(self) -> None:
        import numpy

        order = numpy.random.default_rng(0).permutation(PROBE_CELLS)
        following = numpy.empty(PROBE_CELLS, dtype=numpy.int64)
        following[order[:-1]] = order[1:]  # one cycle through every cell
        following[order[-1]] = order[0]
        self._next = array("q")
        self._next.frombytes(following.data.cast("B"))
        # Each probe goes on from where the last one stopped, so probes run
        # back to back do not find their cells in the caches.
        self._cell = 0
        self.times: list[float] = []
        self.durations: list[float] = []

    def probe(self, count: int = 1) -> None:
        following, cell = self._next, self._cell
        for _ in range(count):
            begin = time.perf_counter()
            for _ in range(PROBE_STEPS):
                cell = following[cell]
            end = time.perf_counter()
            self.times.append(end)
            self.durations.append(end - begin)
        self._cell = cell

    def scale(self, at: float) -> float:
        """Reference seconds per wall second around ``at`` (a ``perf_counter`` time)."""
        index = bisect.bisect_left(self.times, at)
        window = self.durations[max(0, index - PROBE_WINDOW) : index + PROBE_WINDOW]
        if not window:
            raise RuntimeError("HostSpeed.scale before any probe")
        return REFERENCE_PROBE_S / statistics.median(window)


# -- process tree ---------------------------------------------------------------


def _children_of(pid: int) -> list[int]:
    children: list[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return children
    for task in tasks:
        try:
            children.extend(int(c) for c in (task / "children").read_text().split())
        except OSError:
            continue
    return children


def descendants() -> list[int]:
    """Every live descendant process of this process."""
    found: list[int] = []
    frontier = [os.getpid()]
    while frontier:
        current = frontier.pop()
        for child in _children_of(current):
            if child not in found:
                found.append(child)
                frontier.append(child)
    return found


def _peak_rss_kib(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus every live descendant, in MiB.

    Call it before shutdown: a process that has exited no longer reports
    its peak.
    """
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kib + sum(_peak_rss_kib(pid) for pid in descendants())) / 1024.0


def shm_segments() -> set[str]:
    """The repro shared-memory segment names present in ``/dev/shm``."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro-shm")}
    except OSError:
        return set()


def stop_resource_tracker() -> None:
    """Stop the resource tracker that shared-memory use started, and wait for it.

    Otherwise it outlives the run by a moment.  Count leaked segments first:
    a stopping tracker unlinks the segments still registered with it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class StderrCapture:
    """Route file descriptor 2 (inherited by child processes) through a file.

    Child processes write their tracebacks to the stderr they inherited, so
    capturing the descriptor is the only way to count them.  On exit the
    captured text is echoed to the real stderr unchanged: nothing is hidden,
    only counted.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.text = ""
        self._saved: int | None = None

    def __enter__(self) -> "StderrCapture":
        sys.stderr.flush()
        self._saved = os.dup(2)
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(fd, 2)
        os.close(fd)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.stderr.flush()
        assert self._saved is not None
        os.dup2(self._saved, 2)
        os.close(self._saved)
        self.text = self.path.read_text(errors="replace")
        if self.text:
            sys.stderr.write(self.text)
            sys.stderr.flush()

    @property
    def tracebacks(self) -> int:
        return self.text.count("Traceback (most recent call last)")


# -- metadata ---------------------------------------------------------------------


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git_dir = root / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def filesystem_type(path: Path) -> str:
    """The filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    target = str(path.resolve())
    best, best_type = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return best_type
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount_point = fields[1]
        inside = target == mount_point or target.startswith(mount_point.rstrip("/") + "/")
        if inside and len(mount_point) > len(best):
            best, best_type = mount_point, fields[2]
    return best_type


def run_metadata(root: Path, journal_dir: Path) -> dict:
    import numpy

    from repro.kernels import active_kernel

    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "kernel": active_kernel(),
        "journal_fs": filesystem_type(journal_dir),
        "platform": platform.platform(),
    }
