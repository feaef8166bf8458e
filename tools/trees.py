"""What the tools share: exporting a tree, and running children that TERM or INT stop.

A tool works in ``workspace()``.  A TERM or INT then raises ``SystemExit`` (143 or 130);
``run`` kills its child's whole process group as the exception passes, and the workspace
is removed after that.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def copy_tree(rev: str | None, dest: Path, parts: tuple[str, ...]) -> None:
    """Copy ``parts`` (paths relative to the repository root) of REV, exported with
    ``git archive``, or of the working tree when REV is None, into ``dest``."""
    dest.mkdir(parents=True, exist_ok=True)
    if rev is None:
        for part in parts:
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, dest / part)
        return
    archive = dest / "export.tar"
    run(["git", "-C", str(ROOT), "archive", "-o", str(archive), rev, *parts]).check_returncode()
    shutil.unpack_archive(archive, dest)
    archive.unlink()


def run(command: list[str], timeout: float | None = None, **popen_args):
    """Run ``command`` to completion, as ``subprocess.run`` does, in a process group of its
    own, which is killed whole if the wait ends early: on a timeout (``TimeoutExpired``
    is raised) or on the ``SystemExit`` of a TERM or INT."""
    with subprocess.Popen(command, start_new_session=True, **popen_args) as child:
        try:
            stdout, stderr = child.communicate(timeout=timeout)
        finally:
            if child.returncode is None:  # not yet reaped, so its group id is still its own
                os.killpg(child.pid, signal.SIGKILL)
    return subprocess.CompletedProcess(command, child.returncode, stdout, stderr)


def stop(signum: int, frame) -> None:
    """End the tool by SystemExit, so that the child is stopped and the directory removed."""
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def workspace(prefix: str):
    """Make TERM and INT end the tool by ``stop``, then yield a temporary directory."""
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, stop)
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        yield Path(tmp)
