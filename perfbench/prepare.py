"""The prepare step: characterize every library the workloads need into
the benchmark-owned cache, once per checkout, before any timed run.

Characterization is minutes of transistor-level simulation per corner;
left to the first timed call it would make ``setup_s`` bimodal.  The
step runs the libraries in parallel worker processes (this file run as
a script, one ``--task`` each, every one reaped before the step
returns), records its wall time as ``charlib.characterize_s`` in a
stamp file, and is skipped while the stamp matches the program sources.  Timed runs then verify that no
characterization happened while they ran (:func:`assert_no_new_libraries`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    CHARLIB_CACHE, SRC, BenchmarkError, activate, clock, log, reap, spawn,
)

#: Corners of the vector-resolved polynomial library the workloads use.
CORNERS = ("90nm", "65nm", "130nm")
#: The sizing request the service mix sends; priming it characterizes
#: exactly the sized cells of its circuit.
SIZE_REQUEST = {"netlist": "iscas:c432@0.3", "required_ps": 900.0,
                "max_moves": 4}
STAMP = CHARLIB_CACHE / "prepared.json"


def source_digest() -> str:
    """Digest of the program sources: a stamp (or a cached expected
    output) is valid only for the code that produced it."""
    digest = hashlib.blake2b(digest_size=12)
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def library_files() -> Set[str]:
    return {p.name for p in CHARLIB_CACHE.glob("charlib_*.json")}


def _prime(task: str) -> None:
    """Worker: load (characterizing on a miss) one library, or prime
    the sized cells of the service mix's sizing request."""
    activate()
    if task == "size":
        from repro.service.requests import execute_size

        execute_size(**SIZE_REQUEST)
    else:
        from repro.gates.library import default_library
        from repro.service.requests import cached_charlib
        from repro.tech.presets import TECHNOLOGIES

        cached_charlib(default_library(), TECHNOLOGIES[task])


def _run_tasks(tasks: List[str], workers: int) -> Dict[str, float]:
    """Run each task in its own worker process, at most ``workers`` at
    a time; returns each task's wall seconds."""
    queue = list(tasks)
    running: Dict[str, Tuple[subprocess.Popen, float]] = {}
    per_task: Dict[str, float] = {}
    try:
        while queue or running:
            while queue and len(running) < workers:
                task = queue.pop(0)
                running[task] = (spawn(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--task", task], stdout=subprocess.DEVNULL), clock())
            for task, (proc, started) in list(running.items()):
                if proc.poll() is None:
                    continue
                per_task[task] = clock() - started
                reap(proc)
                del running[task]
                if proc.returncode != 0:
                    raise BenchmarkError(
                        f"prepare task {task} exited {proc.returncode}")
            time.sleep(0.1)
    finally:
        for proc, _ in running.values():
            reap(proc)
    return per_task


def ensure_prepared() -> Dict[str, object]:
    """Run the prepare step unless a valid stamp says it already ran;
    returns the stamp."""
    digest = source_digest()
    if STAMP.is_file():
        stamp = json.loads(STAMP.read_text())
        if (stamp.get("source_digest") == digest
                and set(stamp.get("files", [])) <= library_files()):
            return stamp
    tasks: List[str] = [*CORNERS, "size"]
    workers = max(1, min(2, os.cpu_count() or 1))
    log(f"prepare: characterizing {len(tasks)} libraries with "
        f"{workers} workers (one-time, minutes on a cold cache)")
    started = clock()
    per_task = _run_tasks(tasks, workers)
    stamp = {
        "source_digest": digest,
        "characterize_s": clock() - started,
        "per_library_s": per_task,
        "files": sorted(library_files()),
    }
    STAMP.write_text(json.dumps(stamp, indent=1))
    log(f"prepare: done in {stamp['characterize_s']:.1f} s")
    return stamp


def assert_no_new_libraries(before: Set[str]) -> None:
    """Fail loudly if a library was characterized during a timed run."""
    new = library_files() - before
    if new:
        raise BenchmarkError(
            "characterization ran during a timed run (cold cache for "
            f"{sorted(new)}); the prepare step must cover every library")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="prepare worker: characterize one library")
    parser.add_argument("--task", required=True,
                        choices=(*CORNERS, "size"))
    _prime(parser.parse_args().task)
