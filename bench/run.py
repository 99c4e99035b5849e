"""designlab benchmark.

    python3 bench/run.py --workload bound-ladder|certify-files|cli-cold
                         --seed N --seconds S --trace 0|1

Run from a checkout of the repository: designlab is imported from its
``src/``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  See bench/README.md.
"""

import os

# One BLAS/OpenMP thread in this process and every child, set before numpy
# loads: with the default two threads a ladder pass burns ~1.6x the CPU for
# the same wall time, and the spare thread competes with the timed one.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import selftest  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("bound-ladder", "certify-files", "cli-cold")
MIN_ROUNDS = 3           # every item gets at least this many samples
IMPORT_SAMPLES = 3       # fresh interpreters timed for setup_s, before and again after
PROBE_SAMPLES = 3        # cold and warm samples per subcommand in a traced run

IMPORT_PROBE = ("import sys, time\n"
                "t = time.perf_counter()\n"
                "import designlab\n"
                "t = time.perf_counter() - t\n"
                "print(repr(t), len(sys.modules), designlab.__file__)\n")


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def time_imports(env: dict, samples: int, warm_up: bool) -> tuple[list[float], int]:
    """Seconds to ``import designlab`` in fresh interpreters.  The warm-up
    import is not timed: it writes the bytecode cache, as any installed copy
    has."""
    times, modules = [], 0
    for i in range(samples + warm_up):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        secs, modules, origin = out.stdout.split(maxsplit=2)
        if not Path(origin.strip()).resolve().is_relative_to(SRC):
            raise SystemExit(f"designlab imported from {origin}, not {SRC}")
        if i or not warm_up:
            times.append(float(secs))
    return times, int(modules)


def measure(items, seconds: float, tracer=None) -> dict:
    """Closed loop, one call at a time: whole rounds over ``items`` until
    ``seconds`` have passed (at least MIN_ROUNDS).  Every execution is timed
    and every result checked."""
    samples = {it.name: [] for it in items}
    attempted = failed = rounds = 0
    problems: dict[str, str] = {}
    start = time.perf_counter()
    # stop before a round that would end after `seconds`, by the mean so far
    while rounds < MIN_ROUNDS or \
            (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        gc.collect()
        for it in items:
            for rep in range(it.reps):
                attempted += 1
                if tracer is not None:
                    tracer.weight = 1.0 / it.reps
                    tracer.enabled = True
                t0 = time.perf_counter()
                try:
                    out = it.run()
                except Exception as exc:        # the operation failed; keep measuring
                    out = exc
                samples[it.name].append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.enabled = False
                if isinstance(out, Exception):
                    failed += 1
                    problems.setdefault(f"failed: {it.name}", f"{type(out).__name__}: {out}")
                    continue
                try:
                    it.check(out)
                    if rounds == 0 and rep == 0 and it.cross is not None:
                        it.cross(out)
                except Exception as exc:        # a wrong or unreadable answer
                    problems.setdefault(f"incorrect: {it.name}", f"{type(exc).__name__}: {exc}")
                del out
        rounds += 1
    medians = [statistics.median(v) for v in samples.values()]
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "pass_s": sum(medians),
        "item_gmean_s": math.exp(statistics.fmean(math.log(m) for m in medians)),
        "medians": dict(zip(samples, medians)),
    }


def cli_probe(rng, work: Path, env: dict) -> dict:
    """cli.<command>.cold_s (fresh process) and .run_s (``cli.run`` in this,
    warm, process) for one succeeding request per subcommand."""
    from designlab import cli

    out = {}
    for name, argv, _ in workloads.cli_requests(rng, work)[:7]:
        cold, warm = [], []
        for _ in range(PROBE_SAMPLES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "designlab.cli"] + argv, cwd=work,
                           env=env, capture_output=True, timeout=120, check=True)
            cold.append(time.perf_counter() - t0)
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                cli.run(argv)
                warm.append(time.perf_counter() - t0)
        out[f"cli.{name}.cold_s"] = (statistics.median(cold), "s")
        out[f"cli.{name}.run_s"] = (statistics.median(warm), "s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "designlab" / "__init__.py").is_file():
        print(f"error: no designlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import designlab as dl

    if not Path(dl.__file__).resolve().is_relative_to(SRC):
        print(f"error: designlab imported from {dl.__file__}", file=sys.stderr)
        return 2
    broken = selftest.run()
    if broken:
        print("error: benchmark self-test failed:\n  " + "\n  ".join(broken),
              file=sys.stderr)
        return 3

    env = child_env()
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        rng = np.random.default_rng(args.seed)
        setup_t0 = time.perf_counter()
        import_times, modules = time_imports(env, IMPORT_SAMPLES, warm_up=True)
        tracer = Tracer() if args.trace else None
        in_process = args.workload != "cli-cold"
        if tracer is not None:
            tracer.install()
        if args.workload == "bound-ladder":
            items = workloads.bound_ladder(dl, rng, work)
        elif args.workload == "certify-files":
            items = workloads.certify_files(dl, rng, work)
        else:   # the children's span totals are summed into these zeros
            child_totals = tracer.totals() if tracer is not None else None
            items = workloads.cli_cold(rng, work, env, child_totals)
        print(f"# workload {args.workload} seed {args.seed}: {len(items)} items; "
              f"setup {time.perf_counter() - setup_t0:.2f} s; nproc {os.cpu_count()}; "
              + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))

        res = measure(items, args.seconds, tracer if in_process else None)
        # a second set of imports, so that one slow spell cannot set setup_s
        import_times += time_imports(env, IMPORT_SAMPLES, warm_up=False)[0]
        for name, med in res["medians"].items():
            print(f"#   {med:10.6f} s  {name}")
        print(f"# {res['rounds']} rounds; pass {res['pass_s']:.4f} s")
        for key, msg in res["problems"].items():
            print(f"{key}: {msg}", file=sys.stderr)

        if not args.trace:
            maxrss = resource.getrusage(resource.RUSAGE_SELF if in_process
                                        else resource.RUSAGE_CHILDREN).ru_maxrss
            metrics = {
                "setup_s": (statistics.median(import_times), "s"),
                "pass_s": (res["pass_s"], "s"),
                "item_gmean_s": (res["item_gmean_s"], "s"),
                "peak_rss_mb": (maxrss / 1024, "MB"),
            }
        else:
            totals = tracer.totals() if in_process else child_totals
            metrics = {"cli.import_s": (statistics.median(import_times), "s"),
                       "cli.modules_loaded": (modules, "count")}
            metrics.update(cli_probe(rng, work, env))
            for layer, secs in totals["self_s"].items():
                metrics[f"{layer}.self_s"] = (secs / res["rounds"], "s/pass")
                metrics[f"{layer}.calls"] = (totals["calls"][layer] / res["rounds"],
                                             "calls/pass")
            metrics["spaces.spectral_decomposition.projector_mb"] = (
                totals["projector_mb"], "MB")
            metrics["trace.pass_s"] = (res["pass_s"], "s")
            results = BENCH / "results"
            results.mkdir(exist_ok=True)
            (results / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(
                {"metrics": metrics, "medians": res["medians"], "spans": tracer.spans}))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not any(k.startswith("incorrect") for k in res["problems"])
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
