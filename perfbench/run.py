"""Benchmark of the integer engine and the serving fleet (see README.md).

Run from the root of a checkout::

    python3 perfbench/run.py --workload engine_offline --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run (spans are written to
``perfbench/out/``).  Every run checks the outputs it produced, prints an
environment fingerprint and a per-phase table, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  A run fails (nonzero
exit, no JSON line) when it is interrupted, when a child process outlives
it, or when a shared-memory segment it created is left behind.
"""

from __future__ import annotations

import os

# Pin BLAS threading before numpy loads (spawned workers inherit it).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SHM_DIR = Path("/dev/shm")   # where POSIX shared memory lives on Linux
WORKLOADS = ("engine_offline", "fleet_thread_open")


class Interrupted(BaseException):
    """SIGTERM or SIGINT arrived; unwinds so every ``finally`` runs."""


class Interrupt:
    """Turns SIGTERM/SIGINT into :class:`Interrupted` in the main thread.

    Callbacks registered with :meth:`on_signal` run first (the open-loop
    pacer's ``abort``, so ingestion stops while the fleet tears down).
    """

    def __init__(self) -> None:
        self.signum: int | None = None
        self._callbacks: list = []

    def install(self) -> None:
        signal.signal(signal.SIGTERM, self._handle)
        signal.signal(signal.SIGINT, self._handle)

    def on_signal(self, callback) -> None:
        self._callbacks.append(callback)

    def forget(self, callback) -> None:
        self._callbacks.remove(callback)

    def _handle(self, signum, frame) -> None:
        # Further signals must not interrupt the cleanup this one starts.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        self.signum = signum
        for callback in self._callbacks:
            callback()
        raise Interrupted(signal.Signals(signum).name)


class ShmLedger:
    """Names of the shared-memory segments this process creates."""

    def __init__(self) -> None:
        self.created: list[str] = []

    def install(self) -> None:
        from multiprocessing import shared_memory

        original = shared_memory.SharedMemory.__init__
        created = self.created

        def init(segment, *args, **kwargs):
            original(segment, *args, **kwargs)
            if kwargs.get("create", args[1] if len(args) > 1 else False):
                created.append(segment.name)

        shared_memory.SharedMemory.__init__ = init

    def left_behind(self) -> list[str]:
        return [name for name in self.created if (SHM_DIR / name).exists()]


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head_file = ROOT / ".git" / "HEAD"
    try:
        head = head_file.read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def fingerprint() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(),
    }


def reap_children() -> list[str]:
    """Terminate and join any child still alive; returns their names."""
    leftovers = multiprocessing.active_children()
    for child in leftovers:
        child.terminate()
        child.join(timeout=10.0)
        if child.is_alive():
            child.kill()
            child.join(timeout=10.0)
    return [child.name for child in leftovers]


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker if it started.

    The tracker unlinks any segment still registered before it exits.
    """
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def expected_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args, interrupt: Interrupt):
    import workloads
    from spans import SpanRecorder

    recorder = SpanRecorder() if args.trace else None
    if args.workload == "engine_offline":
        result = workloads.engine_offline(args.seed, args.seconds, recorder)
    else:
        result = workloads.fleet_thread_open(args.seed, args.seconds, recorder, interrupt)
    if recorder is not None:
        path = recorder.save(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        result.notes["spans"] = str(path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    expected = expected_metrics(args.trace)
    interrupt = Interrupt()
    interrupt.install()
    ledger = ShmLedger()
    ledger.install()
    # Temporary files (the process fleet's exported plans) stay inside the
    # checkout, in a directory removed at the end of the run.
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    result = None
    errors: list[str] = []
    try:
        result = run(args, interrupt)
    except Interrupted as exc:
        errors.append(f"interrupted by {exc}")
    finally:
        leftovers = reap_children()
        if leftovers:
            errors.append(f"child processes outlived the run: {leftovers}")
        leaked = ledger.left_behind()
        if leaked:
            errors.append(f"shared-memory segments left behind: {leaked}")
        stop_resource_tracker()
        shutil.rmtree(work, ignore_errors=True)
    if result is not None:
        wrong = {name: unit for name, (_, unit) in result.metrics.items()
                 if expected.get(name) != unit}
        if wrong:
            errors.append(f"metrics not listed in BENCHMARK.json as reported: {wrong}")
        absent = sorted(set(expected) - set(result.metrics))
        if absent and not args.trace:
            errors.append(f"end-to-end metrics not measured: {absent}")
        elif absent:
            # A layer the workload does not exercise reads 0 and is named.
            for name in absent:
                result.metrics[name] = (0.0, expected[name])
            result.notes["absent"] = {"reason": "layer not exercised by this workload",
                                      "metrics": absent}
    if errors:
        for error in errors:
            print(f"perfbench: {error}", file=sys.stderr)
        return 128 + interrupt.signum if interrupt.signum else 1

    print(json.dumps({"environment": fingerprint()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **result.notes}))
    print(json.dumps({
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in sorted(result.metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    sys.exit(main())
