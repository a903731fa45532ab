"""Measurement loops, metrics and output checks behind ``run.py``.

Imports the program, so ``run.py`` puts the checkout's ``src/`` on the path
(and checks it is there) before importing this module.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List

import numpy
from repro.campaign import worker
from repro.campaign.cache import code_fingerprint
from repro.campaign.registry import experiment_names, get_experiment

from fidelity import VALIDATION_NOTE, output_digest, paper_err_pct
from layers import LAYERS, LayerTracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS_PATH = BENCH_DIR / "digests.json"


@dataclass(frozen=True)
class Workload:
    experiment: str
    kwargs: Dict[str, int]

    @property
    def job(self) -> str:
        args = " ".join(f"{k}={v}" for k, v in sorted(self.kwargs.items()))
        return f"{self.experiment} {args}"

    def payload(self, seed: int) -> tuple:
        return (self.experiment, tuple(sorted(self.kwargs.items())), seed)


#: one workload per experiment class of the paper (README.md says why);
#: each job takes about two host seconds on a 2-core host, so a run holds
#: enough repetitions for a steady median
WORKLOADS: Dict[str, Workload] = {
    "load_latency": Workload("table3", {"samples": 600}),
    "fio_nvm": Workload("fio", {"ios": 16}),
    "accel_kernels": Workload("table5", {"size_mib": 2}),
}

#: fewest timed repetitions (traced: untraced/traced pairs) a run makes,
#: whatever --seconds says
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
#: fresh-interpreter imports timed per run for setup_s
IMPORT_SAMPLES = 7
IMPORT_TIMEOUT_S = 60

#: work counts that must repeat exactly across traced repetitions
EXACT_COUNTS = ("sim.events", "dmi.frames_sent", "memory.reads",
                "memory.writes", "storage.ios", "accel.fft_blocks",
                "telemetry.journeys")


# -- host stamp ---------------------------------------------------------------


def _commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_stamp() -> Dict[str, object]:
    return {
        "commit": _commit(),
        "code_fingerprint": code_fingerprint(str(SRC / "repro"))[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- one repetition -------------------------------------------------------------


def _summarize(out: dict, payload: tuple, phase: str, wall: float) -> dict:
    """Keep what the metrics and checks need; drop tables and journeys."""
    experiment, _, seed = payload
    rep = {"phase": phase, "seed": seed, "wall_s": wall, "status": out["status"],
           "error": out.get("error"), "digest": None, "paper_err_pct": None,
           "metrics": {}, "journeys": 0}
    if out["status"] == "ok":
        rep["digest"] = output_digest(out["result"], out["metrics"])
        rep["paper_err_pct"] = paper_err_pct(experiment, out["result"])
        rep["metrics"] = out["metrics"]
        rep["journeys"] = len(out["attribution"])
    return rep


def run_untraced(payload: tuple, phase: str = "untraced") -> dict:
    """One job with tracing off; only ContuttoSystem.build is timed inside."""
    with LayerTracer([("build", "repro.core.system", "ContuttoSystem.build")]) as timer:
        t0 = perf_counter()
        out = worker.execute_job(payload)
        wall = perf_counter() - t0
    rep = _summarize(out, payload, phase, wall)
    rep["build_s"] = timer.inclusive_s["build"]
    rep["rss_mib"] = peak_rss_mib()
    return rep


def run_traced(payload: tuple) -> dict:
    """One job under every layer wrapper."""
    tracer = LayerTracer()
    with tracer:
        t0 = perf_counter()
        # looked up on the module: the tracer has replaced execute_job there
        out = worker.execute_job(payload)
        wall = perf_counter() - t0
    rep = _summarize(out, payload, "traced", wall)
    rep["build_s"] = None
    rep["rss_mib"] = peak_rss_mib()
    rep["tracer"] = tracer
    return rep


# -- per-layer metrics ------------------------------------------------------------


def layer_self_s(rep: dict) -> Dict[str, float]:
    """Self time per layer; ``other`` also takes time outside every span."""
    tracer = rep["tracer"]
    self_s = dict(tracer.self_s)
    self_s["other"] += rep["wall_s"] - tracer.outermost_s
    return self_s


def layer_metrics(rep: dict) -> Dict[str, tuple]:
    """Per-layer metrics of one traced repetition: name -> (value, unit).

    A metric whose layer has no installed wrapper is absent.
    """
    tracer, snap, wall = rep["tracer"], rep["metrics"], rep["wall_s"]
    self_s = layer_self_s(rep)
    present = tracer.present | {"other"}
    metrics: Dict[str, tuple] = {}

    def put(name, value, unit, layer=None):
        if layer is None or layer in present:
            metrics[name] = (value, unit)

    def calls(module, *targets):
        return sum(tracer.calls_of(module, t) or 0 for t in targets)

    events = calls("repro.sim.kernel", "Simulator.call_at", "Simulator.call_after")
    put("sim.self_s", self_s["sim"], "s", "sim")
    put("sim.events", events, "count", "sim")
    put("sim.ns_per_event", 1e9 * self_s["sim"] / events if events else 0.0, "ns", "sim")

    for part in ("crc", "codec", "scramble", "link"):
        put(f"dmi.{part}_s", self_s[f"dmi.{part}"], "s", f"dmi.{part}")
    put("dmi.frames_sent", snap.get("dmi.frames_sent", 0), "count")
    packed = calls("repro.dmi.frames", "DownstreamFrame.pack", "UpstreamFrame.pack")
    put("dmi.idle_frame_ratio", tracer.idle_frames / packed if packed else 0.0,
        "ratio", "dmi.codec")
    put("dmi.replays", snap.get("dmi.replays", 0), "count")

    put("processor.commands", snap.get("processor.commands", 0), "count")
    put("processor.self_s", self_s["processor"], "s", "processor")
    put("processor.cmd_ps.p50", snap.get("processor.cmd_ps.p50", 0), "ps")
    put("processor.cmd_ps.p99", snap.get("processor.cmd_ps.p99", 0), "ps")

    commands = sum(v for k, v in snap.items()
                   if re.fullmatch(r"buffer\.[^.]+\.commands", k))
    hits = snap.get("buffer.cache.hits", 0)
    lookups = hits + snap.get("buffer.cache.misses", 0)
    put("buffer.commands", commands, "count")
    put("buffer.self_s", self_s["buffer"], "s", "buffer")
    put("buffer.cache_hit_ratio", hits / lookups if lookups else 0.0, "ratio")
    put("buffer.service_ps.p99", snap.get("buffer.service_ps.p99", 0), "ps")

    put("memory.reads", snap.get("memory.reads", 0), "count")
    put("memory.writes", snap.get("memory.writes", 0), "count")
    put("memory.self_s", self_s["memory"], "s", "memory")

    ios = (calls("repro.storage.block", "BlockDevice.submit_read",
                 "BlockDevice.submit_write")
           + calls("repro.storage.pmem", "PmemBlockDevice.submit_read",
                   "PmemBlockDevice.submit_write")
           + calls("repro.storage.slram", "SlramDevice.submit_read",
                   "SlramDevice.submit_write"))
    put("storage.ios", ios, "count", "storage")
    put("storage.self_s", self_s["storage"], "s", "storage")

    put("accel.fft_blocks", calls("repro.accel.fft", "radix2_fft"), "count", "accel.fft")
    put("accel.fft_s", self_s["accel.fft"], "s", "accel.fft")
    put("accel.dma_bytes", snap.get("accel.dma_bytes_read", 0)
        + snap.get("accel.dma_bytes_written", 0), "B")
    put("accel.self_s", self_s["accel.fft"] + self_s["accel.dma"], "s", "accel.dma")

    put("telemetry.journeys", rep["journeys"], "count")
    put("telemetry.self_s", self_s["telemetry"], "s", "telemetry")
    put("telemetry.share", self_s["telemetry"] / wall, "ratio", "telemetry")

    put("campaign.self_s", self_s["campaign"], "s", "campaign")
    put("firmware.boot_s", self_s["firmware"], "s", "firmware")
    put("other.self_s", self_s["other"], "s")
    return metrics


# -- output checks -----------------------------------------------------------------


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def check_reps(name: str, reps: List[dict]) -> List[str]:
    """Mark each repetition ``ok``; return the reasons any one failed.

    A repetition fails if its job failed, or its output digest differs from
    the one pinned for (workload, seed) -- or, for a seed with no pinned
    digest, from the run's first repetition of that seed.
    """
    pinned = load_digests()["workloads"].get(name, {})
    problems = []
    stale = bool(pinned) and pinned.get("job") != WORKLOADS[name].job
    if stale:
        problems.append(f"digests.json pins {pinned.get('job')!r}, the workload "
                        f"runs {WORKLOADS[name].job!r}: re-record the digests")
    expected = dict(pinned.get("digests", {}))
    for i, rep in enumerate(reps):
        if rep["status"] != "ok":
            rep["ok"] = False
            problems.append(f"rep {i}: {rep['error']}")
            continue
        want = expected.setdefault(str(rep["seed"]), rep["digest"])
        rep["ok"] = rep["digest"] == want and not stale
        if rep["digest"] != want:
            problems.append(f"rep {i} ({rep['phase']}, seed {rep['seed']}): output "
                            f"digest {rep['digest'][:16]} != {want[:16]}")
    return problems


# -- run table ---------------------------------------------------------------------

RUN_TABLE_COLUMNS = [
    "commit", "code_fingerprint", "nproc", "python", "numpy",
    "workload", "job", "seed", "trace", "rep", "phase",
    "wall_s", "build_s", "status", "digest", "digest_ok",
    "paper_err_pct", "kernel_events", "dmi_frames_sent", "journeys",
    "peak_rss_mib",
]


def _fmt(value, spec: str) -> str:
    return "" if value is None else format(value, spec)


def append_run_table(out_dir: Path, stamp: dict, name: str, trace: int,
                     reps: List[dict]) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "run_table.csv"
    new = not path.exists()
    with path.open("a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RUN_TABLE_COLUMNS)
        if new:
            writer.writeheader()
        for i, rep in enumerate(reps):
            snap = rep["metrics"]
            writer.writerow({
                **stamp, "workload": name, "job": WORKLOADS[name].job,
                "seed": rep["seed"], "trace": trace, "rep": i, "phase": rep["phase"],
                "wall_s": _fmt(rep["wall_s"], ".6f"),
                "build_s": _fmt(rep["build_s"], ".6f"),
                "status": rep["status"], "digest": rep["digest"] or "",
                "digest_ok": rep["ok"],
                "paper_err_pct": _fmt(rep["paper_err_pct"], ".6f"),
                "kernel_events": snap.get("kernel.events", ""),
                "dmi_frames_sent": snap.get("dmi.frames_sent", ""),
                "journeys": rep["journeys"],
                "peak_rss_mib": _fmt(rep["rss_mib"], ".1f"),
            })
    return path


# -- modes -------------------------------------------------------------------------


def import_seconds() -> List[float]:
    """Time ``import repro`` in fresh interpreters (setup_s's first part).

    Timed with bytecode compiled, as an installed package has it: an
    untimed first import writes it, whatever PYTHONDONTWRITEBYTECODE says.
    """
    code = ("import time; t0 = time.perf_counter(); import repro; "
            "print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    for _ in range(1 + IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=IMPORT_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times[1:]


def measure(name: str, seed: int, seconds: int, trace: int, out_dir: Path) -> dict:
    """One benchmark run; returns the result object ``run.py`` prints."""
    payload = WORKLOADS[name].payload(seed)
    stamp = host_stamp()
    print(f"# {name}: {WORKLOADS[name].job} seed={seed} trace={trace} "
          f"host: {json.dumps(stamp)}")
    # first, untimed, the job at the default seed against its pinned digest:
    # a change in simulated behaviour fails every run whatever --seed is,
    # and lazy set-up is done before the timed repetitions
    reps = [run_untraced(WORKLOADS[name].payload(load_digests()["default_seed"]),
                         "check")]
    if not trace:
        imports = import_seconds()
    deadline = perf_counter() + seconds
    timed: List[dict] = []
    while len(timed) < (2 * MIN_TRACED_PAIRS if trace else MIN_REPS) \
            or perf_counter() < deadline:
        timed += [run_untraced(payload), run_traced(payload)] if trace \
            else [run_untraced(payload)]
    reps += timed

    problems = check_reps(name, reps)
    untraced = [rep for rep in reps if rep["ok"] and rep["phase"] == "untraced"]
    traced = [rep for rep in reps if rep["ok"] and rep["phase"] == "traced"]
    metrics: Dict[str, tuple] = {}
    if not untraced or (trace and not traced):
        problems.append("no successful repetition to report")
    elif not trace:
        metrics["wall_s"] = (statistics.median(r["wall_s"] for r in untraced), "s")
        metrics["setup_s"] = (statistics.median(imports)
                              + statistics.median(r["build_s"] for r in untraced), "s")
        metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
        metrics["paper_err_pct"] = (untraced[0]["paper_err_pct"], "%")
        print(f"# {VALIDATION_NOTE}")
    else:
        problems += check_traced(traced)
        chosen = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
        metrics = layer_metrics(chosen)
        untraced_wall = statistics.median(r["wall_s"] for r in untraced)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_pct"] = (100.0 * (traced_wall / untraced_wall - 1), "%")
        print(f"# traced wall {chosen['wall_s']:.4f} s = sum of the layer self "
              f"times below; untraced median {untraced_wall:.4f} s")
        if chosen["tracer"].missing:
            print("# not wrapped (absent from the program): "
                  + ", ".join(chosen["tracer"].missing))

    table = append_run_table(out_dir, stamp, name, trace, reps)
    for problem in problems:
        print(f"# FAIL {problem}")
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} = {value:.6g} {unit}")
    failed = sum(1 for rep in reps if not rep["ok"])
    print(f"# {len(reps)} repetitions, {failed} failed; run table: {table}")
    return {
        "correct": not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def check_traced(traced: List[dict]) -> List[str]:
    """Work counts repeat exactly; layer self times add up to the wall."""
    problems = []
    per_rep = [layer_metrics(rep) for rep in traced]
    for count in EXACT_COUNTS:
        values = {m[count][0] for m in per_rep if count in m}
        if len(values) > 1:
            problems.append(f"{count} differs across traced reps: {sorted(values)}")
    for rep in traced:
        residual = sum(layer_self_s(rep).values()) - rep["wall_s"]
        if abs(residual) > 1e-6 * rep["wall_s"]:
            problems.append(f"layer self times miss the traced wall by {residual:.3g} s")
    return problems


def ledger(seed: int, out_dir: Path) -> Path:
    """Every public registered experiment once at its default knobs:
    untraced wall clock plus the traced per-layer breakdown (not gated)."""
    rows = []
    for experiment in experiment_names():
        defaults = get_experiment(experiment).defaults
        payload = Workload(experiment, defaults).payload(seed)
        plain, traced = run_untraced(payload), run_traced(payload)
        for rep in (plain, traced):
            if rep["status"] != "ok":
                raise RuntimeError(f"{experiment} ({rep['phase']}): {rep['error']}")
        self_s = layer_self_s(traced)
        rows.append({
            "experiment": experiment, "kwargs": defaults, "seed": seed,
            "wall_s": plain["wall_s"], "build_s": plain["build_s"],
            "traced_wall_s": traced["wall_s"], "self_s": self_s,
        })
        top = sorted(self_s.items(), key=lambda kv: -kv[1])[:3]
        print(f"{experiment:14s} wall {plain['wall_s']:8.3f} s  traced "
              f"{traced['wall_s']:8.3f} s  top: "
              + ", ".join(f"{k} {v:.3f}" for k, v in top), flush=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "ledger.json"
    path.write_text(json.dumps({"host": host_stamp(), "layers": list(LAYERS),
                                "experiments": rows}, indent=1) + "\n")
    return path


def record_digests(names: List[str]) -> None:
    """Pin the output digest of each workload at the default and held-out seeds."""
    data = load_digests()
    for name in names:
        digests = {}
        for seed in (data["default_seed"], data["held_out_seed"]):
            rep = run_untraced(WORKLOADS[name].payload(seed))
            if rep["status"] != "ok":
                raise RuntimeError(f"{name} seed {seed}: {rep['error']}")
            digests[str(seed)] = rep["digest"]
            print(f"{name} seed {seed}: {rep['digest']}")
        data["workloads"][name] = {"job": WORKLOADS[name].job, "digests": digests}
    DIGESTS_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
