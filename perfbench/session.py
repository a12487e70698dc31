"""Ray session for the benchmark: one CPU, quiet, preflighted.

One :class:`RaySession` owns one local Ray cluster at a time. ``start()``
returns the set-up time the ``setup_s`` metric reports: ``ray.init``, a
preflight task proving workers import the checkout's ``pii_filter_ray``,
and a warm-up pipeline that spawns the worker and builds the workload's
stage (LM included) in it. ``stop()`` shuts Ray down and waits for every
process the session started to exit.

:class:`RssSampler` reports the peak summed RSS of the benchmark process
and all its descendants (Ray's daemons and worker processes), read from
``/proc``.
"""

from __future__ import annotations

import logging
import os
import shutil
import signal
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

OBJECT_STORE_BYTES = 256 * 1024 * 1024


# One Ray CPU whatever the affinity mask holds. On a 4-vCPU VM, four Ray
# CPUs made curate_dedup slower (median wall 9.75 s against 6.45 s over the
# same five seeds) and doubled its peak RSS (2470 MB against 1360 MB): the
# extra workers contend with Ray's own daemons and this process for the vCPUs.
RAY_CPUS = 1


def _parent_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may contain spaces: fields resume after ')'
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(name))
    return children


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant of it."""
    children = _parent_map()
    tree = [root]
    for pid in tree:
        tree.extend(children.get(pid, ()))
    return tree


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper counts as
    ended)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class RssSampler:
    """Background sampler of the summed RSS of this process's tree."""

    def __init__(self, interval_s: float = 0.05):
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        total = sum(rss_bytes(p) for p in process_tree(os.getpid()))
        self.peak_bytes = max(self.peak_bytes, total)

    def _run(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "RssSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


@contextmanager
def sockets_in(sock_dir: str) -> Iterator[None]:
    """Have a ``ray.init`` inside the block put its plasma and raylet Unix
    sockets in ``sock_dir``. Ray puts them in its session directory, up to
    66 bytes below the temp dir, and a socket path may not exceed 107
    bytes, so under most checkouts Ray's session would otherwise have to
    live outside the checkout."""
    import ray._private.parameter as parameter

    base = parameter.RayParams

    class Params(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.plasma_store_socket_name = os.path.join(sock_dir, "plasma")
            self.raylet_socket_name = os.path.join(sock_dir, "raylet")

    parameter.RayParams = Params
    try:
        yield
    finally:
        parameter.RayParams = base


def quiet_ray_data() -> None:
    """No progress bars and no INFO/WARNING chatter from Ray Data, so the
    metrics line stays the last line of stdout."""
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    logging.getLogger("ray").setLevel(logging.ERROR)


class RaySession:
    """A local Ray cluster rooted at the checkout ``root``."""

    def __init__(self, root: str, work_dir: str, warm_stage_kwargs: Dict):
        self.root = root
        self.warm_stage_kwargs = warm_stage_kwargs
        self.temp_dir = os.path.join(work_dir, "ray")
        self.sock_dir = os.path.join(work_dir, "sock")
        self._pids: List[int] = []

    def start(self) -> float:
        """Start Ray, preflight the workers and warm the stage; returns the
        seconds it took."""
        import ray

        pythonpath = os.pathsep.join(
            [self.root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        # a previous session's socket files would block the new binds
        shutil.rmtree(self.sock_dir, ignore_errors=True)
        os.makedirs(self.sock_dir)
        t0 = time.perf_counter()
        with sockets_in(self.sock_dir):
            ray.init(
                address="local",
                num_cpus=RAY_CPUS,
                object_store_memory=OBJECT_STORE_BYTES,
                include_dashboard=False,
                logging_level="ERROR",
                log_to_driver=False,
                _temp_dir=self.temp_dir,
                runtime_env={"env_vars": {"PYTHONPATH": pythonpath}},
            )
        quiet_ray_data()
        self.preflight()
        self.warm()
        elapsed = time.perf_counter() - t0
        self._pids = process_tree(os.getpid())[1:]
        return elapsed

    def preflight(self) -> None:
        """Fail loudly unless a Ray worker imports this checkout's package."""
        import ray

        def package_dir() -> str:  # nested, so it ships by value
            import pii_filter_ray

            return os.path.dirname(os.path.abspath(pii_filter_ray.__file__))

        expected = os.path.join(self.root, "pii_filter_ray")
        try:
            found = ray.get(ray.remote(num_cpus=0)(package_dir).remote())
        except Exception as e:  # the worker's import error, re-raised here
            raise RuntimeError(
                f"Ray workers cannot import pii_filter_ray from {self.root}: {e}") from e
        if os.path.realpath(found) != os.path.realpath(expected):
            raise RuntimeError(
                f"Ray workers import pii_filter_ray from {found}, not {expected}")

    def warm(self) -> None:
        import pyarrow as pa
        import ray.data

        from pii_filter_ray.pipelines.quality_pipeline import quality_scrub

        rows = 16
        tbl = pa.table({
            "repo": ["org/warm"] * rows,
            "path": [f"w{i}.py" for i in range(rows)],
            "commit": ["0"] * rows,
            "lang": ["python"] * rows,
            "content": ["def f(x):\n    # mail a.b@corp.com\n    return x + 1\n"] * rows,
        })
        quality_scrub(ray.data.from_arrow(tbl), **self.warm_stage_kwargs).materialize()

    def stop(self) -> None:
        """Shut Ray down and wait (then force) every process it started."""
        import ray

        pids = set(self._pids) | set(process_tree(os.getpid())[1:])
        ray.shutdown()
        deadline = time.monotonic() + 20
        while pids and time.monotonic() < deadline:
            pids = {p for p in pids if _alive(p)}
            time.sleep(0.05)
        for p in pids:
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
        self._pids = []
