"""Command-line pipeline: ingest -> stats -> topics -> citenet -> collabnet
-> predict, driven by one config file.

Every stage of one invocation reads one lazy :class:`litla.stages.Corpus`:
``all`` parses, builds the knowledge graph with its text index, runs the CD
index and DBSCAN once, and a single stage computes only what it reads. A
run of several stages runs the first in process and the others in forked
workers, one per usable CPU (see :func:`run_stages`). Each stage writes its
reports into the output directory and has an entry in ``run_manifest.json``.
Outputs are byte-identical across re-runs for a fixed config and seed;
durations in the manifest are the one exception. The stages, numpy and the
analysis modules load only once a run begins, not to parse the arguments or
read the config.
"""

from __future__ import annotations

import os

# litla forks one worker per usable CPU and its BLAS calls are tiny, so a
# BLAS thread pool would only spin on CPUs the workers need. Set before
# anything can load numpy; a caller's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import gc
import sys
import threading
import time
import traceback
import warnings
from typing import TYPE_CHECKING, NoReturn

from .config import ConfigError, RunConfig, load_config

if TYPE_CHECKING:
    from .stages import Corpus

STAGES = ("ingest", "stats", "topics", "citenet", "collabnet", "predict")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="litla",
        description="Literature-landscape analytics over bibliographic records.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in STAGES + ("all",):
        p = sub.add_parser(name, help=f"run the {name} stage" if name != "all"
                           else "run every stage in dependency order")
        p.add_argument("--config", required=True, help="path to the run config (TOML)")
        p.add_argument("--output", default=None, help="override the output directory")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
    return parser


def _run_stage(corpus: Corpus, outdir, name: str) -> dict:
    """Run one stage and return its manifest entry; a failure is recorded,
    not raised. The stage writes each report to ``out(name)``, which lists
    ``name`` in the entry's ``outputs`` unless the stage fails."""
    from .stages import STAGE_FUNCS  # loaded by run_stages

    start = time.monotonic()
    entry = {"stage": name, "status": "ok", "error": None, "outputs": []}
    written = []

    def out(filename: str):
        written.append(filename)
        return outdir / filename
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the same list whatever the caller's filters
        try:
            STAGE_FUNCS[name](corpus, out)
            entry["outputs"] = written
        except Exception as exc:  # record per-stage failures, keep going
            entry["status"] = "failed"
            entry["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
    entry["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    entry["duration_s"] = round(time.monotonic() - start, 6)
    return entry


# Forked stages start in this order, the ones that usually take longest
# first. Predict leads so that the parent's DBSCAN, which collabnet waits
# for, overlaps it.
_LAUNCH_ORDER = ("predict", "collabnet", "citenet", "topics", "stats", "ingest")


def _die_with_parent(parent: int) -> None:
    """Have the kernel SIGKILL this worker once ``parent`` dies (Linux only),
    and end the worker now if ``parent`` died before it could ask."""
    import signal  # see _run_forked
    if sys.platform.startswith("linux"):
        import ctypes
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


def _worker(conn, parent: int, corpus: Corpus, outdir, name: str) -> None:
    """Body of a forked worker: run one stage and send its entry to ``conn``."""
    import signal  # see _run_forked

    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})  # blocked by _run_forked
    _die_with_parent(parent)
    conn.send(_run_stage(corpus, outdir, name))


def _worker_error(name: str, code: int, start: float) -> dict:
    """The failed entry of a worker that exited with ``code`` before it sent one."""
    import signal  # see _run_forked

    if code < 0:
        try:
            how = f"was killed by {signal.Signals(-code).name}"
        except ValueError:
            how = f"was killed by signal {-code}"
    else:
        how = f"exited with status {code}"
    return {"stage": name, "status": "failed", "outputs": [], "warnings": [],
            "error": f"WorkerError: the {name} worker {how} before it sent its entry",
            "duration_s": round(time.monotonic() - start, 6)}


def _run_forked(corpus: Corpus, outdir, names: list[str], workers: int) -> dict[str, dict]:
    """Run each stage in a forked worker, at most ``workers`` at a time, and
    return their entries by stage; after a failed fork, the rest run here."""
    # imported here, so that a process that forks no worker, such as every
    # single-stage command, does not load them
    import multiprocessing
    import signal
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")  # the workers share the built corpus's pages
    pending = sorted(names, key=_LAUNCH_ORDER.index)
    # built once here, before the first of its two readers starts, if the graph is
    share_assignment = {"topics", "collabnet"} <= set(names) and "built" in vars(corpus)
    running: dict = {}  # receive end -> (stage, process, start)
    entries = {}
    try:
        while pending or running:
            while pending and len(running) < workers:
                name = pending.pop(0)
                if share_assignment and name in ("topics", "collabnet"):
                    share_assignment = False
                    try:
                        corpus.assignment
                    except Exception:  # not cached: each stage that reads it fails alike
                        pass
                start = time.monotonic()
                conn, send_end = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_worker,
                                   args=(send_end, os.getpid(), corpus, outdir, name))
                # a SIGINT waits until the worker is in ``running``, which the
                # finally below kills and reaps, and is raised on unblocking
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    proc.start()
                except OSError:  # each failed start leaks 4 fds: fork no more
                    conn.close()
                    send_end.close()
                    proc = None
                else:
                    send_end.close()  # else the receive end sees no EOF if the worker dies
                    running[conn] = (name, proc, start)
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                if proc is None:
                    entries.update((n, _run_stage(corpus, outdir, n)) for n in [name, *pending])
                    pending = []
                    break
            for conn in wait(list(running)) if running else ():  # wait([]) never returns
                name, proc, start = running[conn]
                try:
                    entry = conn.recv()
                except (EOFError, OSError):
                    entry = None
                proc.join()
                del running[conn]
                conn.close()
                entries[name] = (entry if proc.exitcode == 0 and entry is not None
                                 else _worker_error(name, proc.exitcode, start))
                proc.close()  # frees the sentinel's descriptors now
    finally:  # workers are left running only when the loop above raised
        for conn, (_, proc, _) in running.items():
            proc.kill()
            proc.join()
            proc.close()
            conn.close()
    return entries


def run_stages(cfg: RunConfig, stage_names: list[str]) -> int:
    """Run the stages and write ``run_manifest.json``; 1 if any stage failed.

    The first stage runs in process and leaves the graph built. When more
    stages follow, the platform has ``os.fork``, a CPU is left over and no
    other thread runs, the parent forks one worker per remaining stage, at
    most one per usable CPU at a time, and builds the topic assignment
    first if both topics and collabnet are among them.
    A worker that dies without sending its entry fails only its own stage.
    The manifest lists the stages in the order given; the output directory must exist.
    """
    # imported here, so that parsing the arguments and reading the config
    # load neither numpy nor any analysis module
    from .exports import write_json
    from .stages import Corpus

    outdir = cfg.output_dir
    corpus = Corpus(cfg)
    # a caller that froze objects itself keeps its collector as it is
    corpus._freeze_built = gc.get_freeze_count() == 0
    rest = stage_names[1:]
    entries = {}
    try:
        for name in stage_names[:1]:  # every stage reads the graph: the workers inherit it
            entries[name] = _run_stage(corpus, outdir, name)
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers = min(cpus, len(rest))
        if workers > 1 and threading.active_count() == 1 and hasattr(os, "fork"):
            entries.update(_run_forked(corpus, outdir, rest, workers))
        else:
            entries.update((name, _run_stage(corpus, outdir, name)) for name in rest)
    finally:
        if corpus._freeze_built:
            gc.unfreeze()
    stages = [entries[name] for name in stage_names]
    write_json(outdir / "run_manifest.json", {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "stages": stages,
    })
    return 1 if any(e["status"] != "ok" for e in stages) else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, output_override=args.output,
                          seed_override=args.seed)
        try:
            cfg.output_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {cfg.output_dir}: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    stage_names = list(STAGES) if args.command == "all" else [args.command]
    return run_stages(cfg, stage_names)


def entry() -> NoReturn:
    """``python -m litla`` and the ``litla`` script: :func:`main`, then flush
    stdout and stderr and end the process with its code. Every report and
    the manifest are closed by then, so the interpreter's teardown, which
    would free the corpus object by object, is skipped."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
