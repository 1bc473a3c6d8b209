"""A routed fleet started the way an operator starts it:
``python -m repro.service route --spawn 2``.
"""

from __future__ import annotations

import os
import re
import selectors
import signal
import subprocess
import sys
import time

SHARDS = 2
_ROUTING = re.compile(r"routing on \S+:(\d+)")


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise OSError(f"no VmHWM for pid {pid}")


class Fleet:
    """One router process and the shard daemons it spawned."""

    def __init__(self, env: dict[str, str], log_path: str) -> None:
        self.env = env
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> "Fleet":
        log = open(self.log_path, "ab")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "route",
                 "--spawn", str(SHARDS), "--port", "0", "--quiet"],
                env=self.env, stdout=subprocess.PIPE, stderr=log,
            )
        finally:
            log.close()
        deadline = time.monotonic() + timeout_s
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            while time.monotonic() < deadline:
                if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                    continue
                line = self.proc.stdout.readline().decode(errors="replace")
                if not line:
                    break
                m = _ROUTING.search(line)
                if m:
                    self.port = int(m.group(1))
                    return self
        finally:
            sel.close()
        self.stop()
        raise RuntimeError(f"router did not come up; see {self.log_path}")

    def pids(self) -> list[int]:
        if self.proc is None:
            return []
        return [self.proc.pid, *_children(self.proc.pid)]

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the router and its shards."""
        pids = self.pids()
        if len(pids) < 1 + SHARDS:
            raise RuntimeError(f"expected router + {SHARDS} shards, got {pids}")
        return sum(vm_hwm_mb(p) for p in pids)

    def stop(self, timeout_s: float = 30.0) -> None:
        """SIGTERM drains the router, which drains and reaps its shards;
        wait for all of them."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        shards = _children(proc.pid)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            for pid in shards:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            proc.kill()
            proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()
        deadline = time.monotonic() + 10.0
        for pid in shards:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.02)
