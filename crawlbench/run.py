"""Crawl-engine benchmark: one workload, one seed, one Ray session.

    python3 crawlbench/run.py --workload crawl_budget_hub --seed 1 --seconds 40 --trace 0

Workloads (see README.md): ``crawl_budget_hub``, ``level_heavy_pages``.
The seed makes the corpus; the engine only reads the generated Parquet.
After a timed set-up (process start → Ray session →
first engine built) and an untimed warm-up, whole rounds run until
``--seconds`` have passed (at least MIN_ROUNDS); every round's committed
output is checked against the single-threaded oracle and the corpus.

The last line of stdout is one JSON object: ``correct``, ``attempted``
(urls scheduled in measured rounds), ``failed`` and ``metrics`` — the
end-to-end metrics (medians over rounds) with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (which also writes the span file under
``.crawlbench/spans/``).  Everything the run writes lives under
``.crawlbench/`` at the repository root; corpora are cached there by spec.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".crawlbench"

# Logical CPUs of the Ray session.  Four seen shards reserve 0.25 CPU each
# (1 CPU), which leaves 3: room for the partitioned fetch's num_cpus=2
# map_groups plus one whole-CPU Ray Data task.  Fewer hangs the crawl.
NUM_CPUS = 4
OBJECT_STORE_MB = 400
DEADLINE_S = 165  # the whole run; past it the process tree is killed
PR_SET_CHILD_SUBREAPER = 36
MIN_ROUNDS = 2  # measured rounds per run, however long they take


def declared_metrics(trace: bool) -> dict[str, str]:
    """name → unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def ray_temp_dir() -> str | None:
    """Ray's session directory inside the checkout, when its unix socket
    paths (<dir>/session_<date>_<pid>/sockets/plasma_store) fit the 107-byte
    limit; otherwise None (Ray's default temp dir)."""
    d = str(OUT / "ray")
    longest = "/session_2026-01-01_00-00-00_000000_4194304/sockets/plasma_store"
    return d if len((d + longest).encode()) <= 107 else None


def start_ray() -> str:
    """Start the run's Ray session; returns its session directory."""
    import ray
    import ray.data

    # workers import the package from the repo root whatever the cwd: the
    # raylet and every worker inherit this process's environment (set here,
    # not through a runtime_env, which slows every actor start by ~0.7 s)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p
    )
    kw = {}
    tmp = ray_temp_dir()
    if tmp is None:
        print("crawlbench: checkout path too long for Ray sockets; using Ray's temp dir",
              file=sys.stderr)
    else:
        kw["_temp_dir"] = tmp
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_MB << 20,
        **kw,
    )
    signal.signal(signal.SIGTERM, on_sigterm)  # ray.init installs its own
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return ray._private.worker._global_node.get_session_dir_path()


def become_subreaper() -> None:
    """Make this process the reaper of its orphaned descendants: a Ray
    worker whose raylet has exited is re-parented here, not to init, so
    ``stop_tree`` still finds it."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print("crawlbench: cannot become a child subreaper; orphans may escape",
              file=sys.stderr)


def reap() -> None:
    """Collect the exit status of every ended child."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_tree(grace: float) -> int:
    """Wait up to ``grace`` seconds for every descendant process to end,
    SIGKILL what still runs, and return once all have ended and been
    reaped (or after a further 10 s).  Returns the number killed."""
    from procstat import descendants

    killed: set[int] = set()
    deadline = time.monotonic() + grace
    while True:
        reap()
        kids = descendants(os.getpid())
        if not kids or time.monotonic() > deadline + 10:
            return len(killed)
        if time.monotonic() > deadline:
            for p, running in kids.items():
                if running and p not in killed:
                    try:
                        os.kill(p, signal.SIGKILL)
                        killed.add(p)
                    except OSError:
                        pass
        time.sleep(0.1)


def stop_ray(sampler) -> int:
    """Shut the session down and wait until every process this run started
    has ended; kill what is still alive after 20 s.  Returns the number
    killed."""
    try:
        if sampler is not None:
            sampler.stop()
        import ray

        ray.shutdown()
    except Exception:
        traceback.print_exc()
    return stop_tree(grace=20)


_FIRED = threading.Lock()


def kill_run(why: str) -> None:
    """Kill every process this run started and exit with code 3."""
    if not _FIRED.acquire(blocking=False):
        return
    try:
        print(f"crawlbench: {why}; killing the run", file=sys.stderr)
        stop_tree(grace=0)
    finally:
        os._exit(3)


def on_sigterm(*_) -> None:
    threading.Thread(target=kill_run, args=("terminated",), daemon=True).start()


def watchdog() -> None:
    """Kill the run and every process it started if it outlives the
    deadline (a hung Ray execution must not outlive the benchmark) or is
    sent SIGTERM."""
    t = threading.Timer(DEADLINE_S - (time.perf_counter() - T_START), kill_run,
                        args=(f"run exceeded {DEADLINE_S} s",))
    t.daemon = True
    t.start()
    signal.signal(signal.SIGTERM, on_sigterm)


def make_frontier(urls):
    import ray.data

    from crawler_uni_ray.stages.frontier import frontier_table

    return ray.data.from_arrow(frontier_table(sorted(urls))), len(urls)


def bench(args, wl, tracer, sampler_ref, session_ref) -> dict:
    from checks import run_checks
    from procstat import ProcSampler
    from workloads import (
        close_seen, corpus_path, ensure_corpus, new_engine, read_corpus, read_output,
        reference, run_round,
    )

    declared = declared_metrics(bool(args.trace))

    work = OUT / "work" / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    cache = str(OUT / "corpus")
    spec = wl.spec(args.seed)
    path = corpus_path(spec, cache)
    try:
        with tracer.span("setup"):
            with tracer.span("ray.init"):
                session_ref.append(start_ray())
            sampler_ref.append(ProcSampler())
            with tracer.span("engine.construct"):  # the warm-up engine, cut at 3 levels
                eng = new_engine(wl.config(path, str(work / "warm"), max_levels=3))
        setup_s = time.perf_counter() - T_START
        sampler = sampler_ref[0]

        with tracer.span("corpus.ensure"):
            _, gen_s = ensure_corpus(spec, cache)
        corpus = read_corpus(path)
        with tracer.span("oracle"):
            ref = reference(wl, path, corpus)
        errors = []

        def one_round(eng, ckpt):
            frontier = make_frontier(corpus["url"]) if wl.mode == "level" else None
            r = run_round(wl, eng, str(ckpt), sampler, tracer, frontier)
            with tracer.span("checks"):
                out = read_output(str(ckpt), r["links_path"], r["seen_size"])
                errs = run_checks(out, ref)
            errors.extend(f"round {ckpt.name}: {e}" for e in errs)
            return r

        # warm-up: the first engine crawls up to 3 levels (the level workload:
        # its one level) and builds the links artifact once, so Ray worker
        # processes and imports are in place before anything is timed
        with tracer.span("warmup"):
            if wl.mode == "level":
                ds, n = make_frontier(corpus["url"])
                eng.process_frontier(ds, k=0, n_frontier=n)
            else:
                eng.run()
            eng.save_links_txt(str(work / "warm-links.txt"))
            close_seen(eng.seen)
        # measured rounds: whole rounds while --seconds have not passed, and
        # at least MIN_ROUNDS
        rounds = []
        t_meas = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - t_meas < args.seconds:
            ckpt = work / f"r{len(rounds)}"
            if rounds:  # keep only the last round's checkpoint (the traced run reads it)
                shutil.rmtree(work / f"r{len(rounds) - 1}", ignore_errors=True)
            with tracer.span("round", index=len(rounds)):
                with tracer.span("engine.construct"):
                    eng = new_engine(wl.config(path, str(ckpt)))
                rounds.append(one_round(eng, ckpt))
        if args.trace:
            from layers import layer_metrics

            with tracer.span("layers"):
                metrics = layer_metrics(wl, rounds, str(ckpt), path, corpus, tracer)
        else:
            metrics = {
                k: setup_s if k == "setup_s" else statistics.median(r[k] for r in rounds)
                for k in declared
            }
        print(
            f"crawlbench: {wl.name} seed={args.seed} rounds={len(rounds)} "
            f"corpus_gen_s={gen_s:.2f} errors={len(errors)} "
            + " ".join(f"{k}={[round(r[k], 3) for r in rounds]}"
                       for k in ("crawl_s", "first_level_s", "links_s")),
            file=sys.stderr,
        )
        for e in errors[:20]:
            print(f"crawlbench: CHECK FAILED {e}", file=sys.stderr)
        return {
            "correct": not errors,
            "attempted": sum(r["scheduled"] for r in rounds),
            "failed": 0,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in declared.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT), str(HERE)]
    try:
        import crawler_uni_ray  # noqa: F401
    except ImportError as e:
        print(f"crawlbench: cannot import crawler_uni_ray from {ROOT}: {e}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"crawlbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tracer = Tracer(bool(args.trace))
    sampler_ref: list = []
    session_ref: list = []
    become_subreaper()
    watchdog()
    result, code = None, 1
    try:
        result = bench(args, wl, tracer, sampler_ref, session_ref)
        code = 0
    except Exception:
        traceback.print_exc()
    finally:
        killed = stop_ray(sampler_ref[0] if sampler_ref else None)
        if killed:
            print(f"crawlbench: killed {killed} leftover processes", file=sys.stderr)
        for d in [OUT / "ray", *session_ref]:  # this session's logs, wherever they went
            shutil.rmtree(d, ignore_errors=True)
        tracer.write(str(OUT / "spans" / f"{wl.name}-seed{args.seed}.json"))
    if result is not None:
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
