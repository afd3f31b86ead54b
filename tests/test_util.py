"""Process-level helpers of util.py."""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_thread_limits_never_start_ray():
    """On a driver with no Ray session, ensure_worker_thread_limits is a
    no-op: it starts no session (library code never calls ray.init)."""
    code = (
        "import ray\n"
        "from crawler_uni_ray.util import ensure_worker_thread_limits\n"
        "ensure_worker_thread_limits()\n"
        "print('initialized', ray.is_initialized())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "initialized False" in proc.stdout
