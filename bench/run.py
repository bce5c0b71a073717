"""Benchmark of the uqc command line on seeded documents with a planted truth.

    python3 bench/run.py --workload check_scan --seed 1 --seconds 16 --trace 0

Run from the root of a source tree; the program under test is ``src/uqc``,
run as ``python -m uqc`` with ``src`` on ``PYTHONPATH``.  ``--workload all``
runs every workload in turn.

``--trace 0`` is a closed loop with one client: it spawns one ``uqc``
invocation per document, waits for it with ``wait4`` and only then starts
the next.  A run is a fixed number of whole blocks of documents, as many
as take about ``--seconds`` on the reference machine (see
``Workload.block_seconds``), so that every run of a seed sees the same
documents.  Child output goes to files and is checked against the planted
truth after the clock stops.  It reports:

- ``ref_cpu_s_per_doc``: CPU seconds (user plus system, from each child's
  rusage) the ``uqc`` invocations used per document, at the host speed of
  the reference machine: the run's ``cpu_s_per_doc`` times
  ``PROBE_REF_S`` over the mean CPU time of ``probe.py`` (fixed work that
  runs no ``uqc`` code) in the same run;
- ``cpu_s_per_doc``: the same without that scaling;
- ``docs_per_s``: documents completed per second of the timed loop;
- ``doc_s_p50``: median wall time of one invocation, spawn to exit;
- ``doc_s_tail``: the invocation time with exactly ten slower invocations
  beyond it, i.e. the highest percentile with at least ten samples beyond
  it at the run's count (the percentile used is printed);
- ``peak_rss_mb``: largest max-RSS of any child, from its rusage;
- ``setup_s``: median CPU time of ``uqc --version`` (interpreter start,
  ``import uqc`` and argparse), which every invocation also pays, scaled to
  the reference host speed in the same way; ``setup_cpu_s`` and
  ``setup_wall_s`` are the unscaled medians of CPU and wall time;
- ``failed_frac``: failed invocations over attempted ones (nonzero exit,
  timeout, unparsable output, or a graph-level answer that differs from the
  planted truth); the result line carries it as ``failed``/``attempted``;
- ``wrong_verdict_frac``: over the run's connected documents whose drift has
  a known truth (printed as its base), the share whose status is not the
  expected one.  It exposes the drift scan's known false verdicts; it is
  exact for a seed.

``BENCHMARK.json`` gates ``ref_cpu_s_per_doc``, ``peak_rss_mb`` and
``setup_s``, which the result line carries; the others are printed above
it.  On a shared 2-core VM the wall-clock figures moved with the host's
load, by up to 2x between runs of the same documents.  A child's CPU time
leaves out the time the host gave to others (``host_steal_frac`` reports
that share of the run), and the probe takes out the host's speed, which
moved CPU times as well.  ``failed_frac`` is 0 at the seed commit, and the
verdict rate is 0 or undefined on two workloads and moves with the seed.
The children run with one BLAS thread (unless the caller sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``), so
that CPU time is not inflated by BLAS threads spinning on two cores.

``--trace 1`` runs ``uqc.cli.main`` in-process on the workload's first
``trace_docs`` documents, once untraced and once with spans around every
layer (see ``tracing.py``), and reports per-layer totals over those
documents plus the start-up breakdown from ``python -X importtime``.
End-to-end figures come only from ``--trace 0``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the environment and a
readable report come before it, and the full result (and the spans of a
traced run) is written under ``.bench_work/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# one BLAS thread, here and in every child; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from workloads import WORKLOADS, Workload, check_answer, make_doc, wrong_verdict  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: an invocation running longer than this counts as failed
DOC_TIMEOUT_S = 120.0
#: ``uqc --version`` runs whose median is setup_s, and as many probe runs
SETUP_RUNS = 9
#: mean CPU seconds of ``probe.py`` on the reference machine, a 2-core
#: Intel Xeon VM (Python 3.11, numpy 2.4 with one OpenBLAS thread)
PROBE_REF_S = 0.42
PROBE = Path(__file__).resolve().parent / "probe.py"
#: ``python -X importtime`` runs whose median gives the cli.import_* metrics
IMPORTTIME_RUNS = 5
#: invocations beyond the tail percentile
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def reap(proc: subprocess.Popen):
    """``os.wait4`` on ``proc``, setting its return code.

    The child is killed and reaped if the wait is cut short.
    """
    try:
        pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return pid, status, usage
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def spawn(argv: list, stdout_path: Path, stderr_path: Path) -> tuple[int | None, float, object]:
    """Run ``python -m uqc argv`` to completion.

    Returns (exit code or None on timeout, wall seconds from spawn to exit,
    the child's rusage).
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "uqc", *argv],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT,
        )
        timer = threading.Timer(DOC_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, _, usage = reap(proc)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    timed_out = proc.returncode == -9 and wall >= DOC_TIMEOUT_S
    return (None if timed_out else proc.returncode), wall, usage


def argv_for(workload: Workload, doc_path: Path, out_path: Path) -> list:
    if workload.name == "repair":
        return ["repair", str(doc_path), "--out", str(out_path)]
    if workload.name == "oracle":
        return ["check", "--oracle", str(doc_path)]
    return ["check", str(doc_path)]


def judge(workload: Workload, truth: dict, code, stdout_path: Path, out_path: Path):
    """(failure reason or None, wrong verdict: True/False/None) of one answer."""
    if code is None:
        return "timeout", None
    if code != 0:
        return f"exit code {code}", None
    try:
        out = json.loads(stdout_path.read_text())
        repaired = json.loads(out_path.read_text()) if out_path.exists() else None
    except (OSError, ValueError) as exc:
        return f"unparsable output: {exc}", None
    try:
        problem = check_answer(workload, truth, out, repaired)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}", None
    return problem, (None if problem else wrong_verdict(truth, out))


def tail(times: list) -> tuple[float, float]:
    """(value, nearest-rank percentile) with TAIL_BEYOND samples above the value."""
    xs = sorted(times)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / len(xs)


def host_cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of the whole machine so far, 0s if unknown."""
    with contextlib.suppress(OSError, ValueError, IndexError):
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
        return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])
    return 0, 0


def verdict_rate(wrong: list) -> tuple[float, int]:
    counted = [w for w in wrong if w is not None]
    return (sum(counted) / len(counted) if counted else 0.0), len(counted)


def measure_setup(work: Path) -> tuple[float, float, bool]:
    """CPU and wall time of one ``uqc --version``, and whether it printed the version."""
    code, wall, usage = spawn(["--version"], work / "version.out", work / "version.err")
    ok = code == 0 and (work / "version.out").read_text().startswith("uqc ")
    return usage.ru_utime + usage.ru_stime, wall, ok


def measure_probe() -> float:
    """CPU time of one run of ``probe.py``."""
    proc = subprocess.Popen([sys.executable, str(PROBE)], stdin=subprocess.DEVNULL, cwd=ROOT)
    _, _, usage = reap(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"{PROBE.name} exited with code {proc.returncode}")
    return usage.ru_utime + usage.ru_stime


def verify_all(workload: Workload, docs: list, codes: list, work: Path, tag: str = ""):
    """Check the answer to docs[i], left in ``doc{i}{tag}.*`` files under ``work``.

    Returns the failures and, per document, whether its verdict was wrong
    (None where it does not count).
    """
    failures, wrong = [], []
    for i, (doc, code) in enumerate(zip(docs, codes)):
        problem, is_wrong = judge(
            workload, doc.truth, code,
            work / f"doc{i}{tag}.stdout", work / f"doc{i}{tag}.repaired.json",
        )
        if problem:
            failures.append({"doc": i, "problem": problem})
        wrong.append(is_wrong)
    return failures, wrong


def run_untraced(workload: Workload, seed: int, work: Path, n_docs: int) -> dict:
    """Closed loop of ``n_docs`` uqc invocations, one at a time.

    A fixed count keeps every run of a seed on the same documents, so the
    order statistics and the verdict rate compare across runs.  The
    ``uqc --version`` runs behind setup_s, and the probe runs, are spread
    over the loop, outside its clock, so that they sample the same stretch
    of machine time.
    """
    setup_before = {j * n_docs // SETUP_RUNS for j in range(SETUP_RUNS)}
    setup_cpu, setup_wall, probes, setup_ok = [], [], [], True
    docs, codes, walls, cpus, rss = [], [], [], [], []
    paused = 0.0
    steal0, ticks0 = host_cpu_ticks()
    t_start = time.perf_counter()
    for i in range(n_docs):
        p0 = time.perf_counter()
        if i in setup_before:
            cpu, wall, ok = measure_setup(work)
            setup_cpu.append(cpu)
            setup_wall.append(wall)
            setup_ok = setup_ok and ok
            probes.append(measure_probe())
        docs.append(make_doc(workload, seed, i))
        (work / f"doc{i}.json").write_text(docs[i].text)
        paused += time.perf_counter() - p0
        code, wall, usage = spawn(
            argv_for(workload, work / f"doc{i}.json", work / f"doc{i}.repaired.json"),
            work / f"doc{i}.stdout", work / f"doc{i}.stderr",
        )
        codes.append(code)
        walls.append(wall)
        cpus.append(usage.ru_utime + usage.ru_stime)
        rss.append(usage.ru_maxrss)
    elapsed = time.perf_counter() - t_start - paused
    steal1, ticks1 = host_cpu_ticks()
    # the mean, not the median: single probes fall into a fast and a slow
    # cluster, and a median of a few samples jumps between them
    scale = PROBE_REF_S / statistics.fmean(probes)
    # the clock has stopped: check every answer
    failures, wrong = verify_all(workload, docs, codes, work)
    wrong_frac, wrong_base = verdict_rate(wrong)
    tail_s, tail_pct = tail(walls)
    return {
        "attempted": len(docs),
        "failed": len(failures),
        "correct": setup_ok and not failures,
        "failures": failures[:20],
        "metrics": {
            "ref_cpu_s_per_doc": {"value": sum(cpus) / len(docs) * scale, "unit": "s"},
            "peak_rss_mb": {"value": max(rss) / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_cpu) * scale, "unit": "s"},
        },
        "report": {
            "docs_per_s": (len(docs) / elapsed, "1/s"),
            "cpu_s_per_doc": (sum(cpus) / len(docs), "s"),
            "probe_cpu_s": (statistics.fmean(probes), "s"),
            "setup_cpu_s": (statistics.median(setup_cpu), "s"),
            "setup_wall_s": (statistics.median(setup_wall), "s"),
            "doc_s_p50": (statistics.median(walls), "s"),
            "doc_s_tail": (tail_s, "s"),
            "failed_frac": (len(failures) / len(docs), "ratio"),
            "wrong_verdict_frac": (wrong_frac, "ratio"),
            "wrong_verdict_base": (wrong_base, "count"),
            "doc_s_tail_percentile": (tail_pct, "%"),
            "elapsed_s": (elapsed, "s"),
            "host_steal_frac": ((steal1 - steal0) / max(1, ticks1 - ticks0), "ratio"),
            "setup_runs_cpu_s": (setup_cpu, "s"),
            "probe_runs_cpu_s": (probes, "s"),
        },
        "docs": docs,
    }


def importtime_metrics() -> dict:
    from tracing import median_of, parse_importtime

    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import uqc.cli"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import uqc.cli failed: {proc.stderr[-500:]}")
        runs.append(parse_importtime(proc.stderr))
    return median_of(runs)


def run_traced(workload: Workload, seed: int, work: Path, n_docs: int) -> dict:
    """Untraced and traced in-process passes over the first ``n_docs`` documents."""
    from tracing import Tracer, layer_metrics

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import uqc.cli

    if Path(uqc.cli.__file__).resolve().parent != SRC / "uqc":
        raise RuntimeError(f"imported uqc from {uqc.cli.__file__}, not {SRC}")
    metrics = importtime_metrics()
    docs = [make_doc(workload, seed, i) for i in range(n_docs)]
    for i, doc in enumerate(docs):
        (work / f"doc{i}.json").write_text(doc.text)

    tracer = Tracer()

    def invoke(i: int, tag: str) -> tuple[float, object]:
        stem = work / f"doc{i}{tag}"
        argv = argv_for(workload, work / f"doc{i}.json", Path(f"{stem}.repaired.json"))
        with open(f"{stem}.stdout", "w") as out, open(f"{stem}.stderr", "w") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tag == ".traced":
                    tracer.doc = i
                    with tracer.installed(), tracer.span("cli.main"):
                        code = uqc.cli.main(argv)
                else:
                    code = uqc.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed document, not a crashed run
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
            return time.perf_counter() - t0, code

    invoke(0, ".warmup")  # lazy imports and first-call set-up, before either pass
    walls = {".plain": 0.0, ".traced": 0.0}
    codes = []
    for i in range(n_docs):
        for tag in ((".plain", ".traced") if i % 2 == 0 else (".traced", ".plain")):
            wall, code = invoke(i, tag)
            walls[tag] += wall
            if tag == ".traced":
                codes.append(code)
    failures, _ = verify_all(workload, docs, codes, work, ".traced")
    metrics.update(layer_metrics(tracer))
    metrics["io.bytes_out"] = sum(
        path.stat().st_size for path in work.glob("doc*.traced.*")
        if path.name.endswith((".stdout", ".repaired.json"))
    )
    metrics["trace.overhead_frac"] = walls[".traced"] / walls[".plain"] - 1.0
    spans_path = WORK / "results" / f"{workload.name}-seed{seed}-spans.json"
    spans_path.write_text(json.dumps([vars(s) for s in tracer.spans]))
    return {
        "attempted": n_docs,
        "failed": len(failures),
        "correct": not failures,
        "failures": failures[:20],
        "metrics": metrics,
        "report": {"plain_s": (walls[".plain"], "s"), "traced_s": (walls[".traced"], "s"),
                   "spans": (str(spans_path.relative_to(ROOT)), "path")},
        "docs": docs,
    }


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    def source_digest() -> str:
        h = hashlib.sha256()
        for path in sorted((SRC / "uqc").rglob("*.py")):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
        return h.hexdigest()[:16]

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n_docs: int | None = None) -> dict:
    """One run; ``n_docs`` overrides the workload's document count."""
    workload = WORKLOADS[name]
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            result = run_traced(workload, seed, work, n_docs or workload.trace_docs)
        else:
            result = run_untraced(workload, seed, work, n_docs or workload.timed_docs(seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    docs = result.pop("docs")
    dims = [d.truth["dimension"] for d in docs]
    env = environment(seed)
    env.update({"workload": name, "trace": int(trace), "seconds": seconds,
                "documents": len(docs), "d_min": min(dims), "d_max": max(dims)})
    result["env"] = env
    if trace:
        result["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in result["metrics"].items()}
    out = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(result, indent=1))
    return result


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_frac") or metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("bytes_in") or metric.endswith("bytes_out"):
        return "B"
    return "count"


def print_result(result: dict):
    print("env " + json.dumps(result["env"], sort_keys=True))
    lines = [*result["report"].values(), *((m["value"], m["unit"]) for m in result["metrics"].values())]
    for name, (value, unit) in zip([*result["report"], *result["metrics"]], lines):
        if isinstance(value, float):
            value = f"{value:.6g}"
        elif isinstance(value, list):
            value = " ".join(f"{v:.4g}" for v in value)
        print(f"  {name} = {value} {unit}")
    for failure in result["failures"]:
        print(f"  FAILED doc {failure['doc']}: {failure['problem']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "uqc" / "__init__.py").is_file():
        print(f"error: no uqc sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(f"workload {name}: {WORKLOADS[name].why}")
        print_result(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
