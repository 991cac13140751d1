"""Child processes of the benchmark: environment, bounded runs, CLI output."""

from __future__ import annotations

import json
import os
import signal
import subprocess


def child_env(root: str) -> dict:
    """Environment for workload processes started from checkout ``root``.

    ``TROPGW_CACHE`` is removed so that a user's cache file cannot change
    what the CLI computes; ``src`` goes first on ``PYTHONPATH`` so the
    checkout's own package is measured; a fixed hash seed makes the traced
    counters repeat exactly.
    """
    env = {k: v for k, v in os.environ.items() if k != "TROPGW_CACHE"}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run(cmd: list[str], timeout: float, env: dict | None = None) -> tuple[int, str, str]:
    """Run ``cmd`` in its own process group and wait for it.

    On timeout the whole group is killed, so no grandchild outlives the
    run, and the exit code is reported as -9.
    """
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        return -9, stdout, stderr
    return proc.returncode, stdout, stderr


def cli_result(code: int, stdout: str, stderr: str) -> dict:
    """The count printed by ``tropgw count --format json``, or the failure."""
    if code != 0:
        return {"error": f"exit {code}: {stderr.strip()[-300:]}"}
    try:
        rows = json.loads(stdout)
        return {"value": [[c["rep"], c["mult"]] for c in rows[0]["classes"]]}
    except (ValueError, LookupError, TypeError) as exc:
        return {"error": f"unreadable output: {exc}"}
