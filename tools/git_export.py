"""Extract a revision's files with `git archive`, or copy the working tree, for tools that
run two checkouts side by side."""

from __future__ import annotations

import io
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(rev: str, tree: str, *paths: str) -> None:
    """Extract `paths` (all files if none) of `rev` into `tree`. If git cannot
    archive `rev`, print `cannot export REV: git archive REV: <git's message>`
    and exit 2: the line names REV after the colon too, since git's message
    need not (outside a checkout it is `fatal: not a git repository ...`)."""
    done = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, *paths], capture_output=True)
    if done.returncode:
        message = " ".join(done.stderr.decode(errors="replace").split())
        print(f"cannot export {rev}: git archive {rev}: {message}", file=sys.stderr)
        raise SystemExit(2)
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(tree, filter="data")


def copy_worktree(tree: str) -> None:
    """Copy this checkout's files as they are on disk, tracked or new but not
    ignored, into `tree`: the working tree as a fresh export would hold it."""
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            capture_output=True, check=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted on disk stays out
            (Path(tree) / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, Path(tree) / name)
