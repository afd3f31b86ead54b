"""End-to-end runs of the benchmark command.

    python -m pytest crawlbench/test_run.py -q

Started from a directory outside the repository, the smallest workload
must still import the package in every Ray worker (the seen-shard actors
included), finish with a correct result and leave no process behind.
Sent SIGTERM mid-run, it must exit non-zero without a result and leave no
process behind either.  In a directory holding only the benchmark's own
files it must fail fast without printing a result.

The test process makes itself a child subreaper, so a process the run
leaves behind is re-parented to it, where ``descendants`` finds it.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

sys.path.insert(0, HERE)

from procstat import descendants  # noqa: E402
from run import become_subreaper, stop_tree  # noqa: E402


def _cmd(run=RUN, seconds="1"):
    return [sys.executable, run, "--workload", "crawl_budget_hub", "--seed", "3",
            "--seconds", seconds, "--trace", "0"]


def _env():
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def _left_behind() -> int:
    """Processes still running when the run has exited (killed here, so a
    failing test leaves none either)."""
    left = sum(descendants(os.getpid()).values())
    stop_tree(grace=0)
    return left


def test_smallest_workload_from_another_cwd(tmp_path):
    become_subreaper()
    p = subprocess.run(_cmd(), cwd=str(tmp_path), env=_env(), capture_output=True,
                       text=True, timeout=180)
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert res["correct"] is True
    assert res["attempted"] > 0 and res["failed"] == 0
    assert set(res["metrics"]) >= {"setup_s", "crawl_s", "urls_per_s"}
    assert "leftover" not in p.stderr
    assert _left_behind() == 0
    assert not list(tmp_path.iterdir())  # nothing written to the cwd


def test_sigterm_stops_every_process(tmp_path):
    become_subreaper()
    p = subprocess.Popen(_cmd(seconds="60"), cwd=str(tmp_path), env=_env(),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 90
    while len(descendants(p.pid)) < 4 and time.monotonic() < deadline:
        time.sleep(0.5)  # until the Ray session and its workers are up
    time.sleep(3)
    p.send_signal(signal.SIGTERM)
    out, err = p.communicate(timeout=60)
    assert p.returncode != 0
    assert not out.strip(), out
    assert "terminated" in err, err[-3000:]
    assert _left_behind() == 0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "crawlbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(_cmd(run=str(tmp_path / "crawlbench" / "run.py")), cwd=str(tmp_path),
                       env=_env(), capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert not p.stdout.strip()
