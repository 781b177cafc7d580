"""Cold-CLI benchmark for hopfgal.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload cli-docs --seed 0 --seconds 25 --trace 0

Each invocation is a fresh `python -m hopfgal.cli ... --json` process with
PYTHONPATH=src, run one at a time from this process (a closed loop with one
client).  HOPFGAL_THREADS is removed from the child environment so the
CLI's pool sizes itself as it does for users.  The mix of a workload runs
in whole passes; the number of passes is --seconds divided by the share of
it one pass is given (workloads.SECONDS_PER_PASS), and at least MIN_PASSES,
so every run of a workload, on any commit, measures the same invocations.
Between groups of invocations a fixed yardstick process runs, and times are
scaled by it to the reference machine's speed (see Reference).

With --trace 0 the last line of stdout holds the end-to-end metrics.  With
--trace 1 the run makes half as many untraced passes, then one pass
through perfbench/traced.py, and the last line holds the per-layer metrics.
The line before it is a JSON object with the details: provenance, scaling
rows, unscaled times, the tail percentile and every failure by name.

Run with --record on the seed commit to store the documents and the
--json outputs that later runs of the default seed are compared with.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from traced import COUNTED, TIMED  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
MIN_PASSES = 2      # so each invocation's mean has more than one sample
# The yardstick: a child that starts the interpreter and imports the CLI's
# third-party dependencies, with nothing from src/, and a fixed scale, about
# its wall time on the quiet reference machine (2 cores, Python 3.11.7).
REFERENCE_CODE = "import numpy, jsonschema, fractions"
REFERENCE_S = 0.20
REFERENCE_EVERY_S = 1.0  # of invocation wall time between two yardstick runs
TIMEOUT_S = 30.0    # per invocation; the slowest takes about 4 s
DEADLINE_S = 140.0  # no invocation starts later, so a run ends within 180 s


class DeadlineReached(Exception):
    pass


def _child_env(pycache: Path) -> dict:
    env = dict(os.environ)
    env.pop("HOPFGAL_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


class Reference:
    """Times the yardstick child, with its own warm bytecode cache.

    The shared host this was tuned on changes speed by 20-40% within
    seconds and drifts over minutes, and program and yardstick slow down
    together.  Invocations run in groups of about REFERENCE_EVERY_S with a
    yardstick run between groups; each invocation's times are scaled by
    REFERENCE_S over the mean of the yardstick runs just before and just
    after its group, which gives seconds at the reference machine's speed."""

    def __init__(self, work: Path):
        self.env = dict(os.environ)
        self.env.pop("PYTHONPATH", None)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(work / "refcache")
        self.walls = []
        self.measure()  # fills the bytecode cache; every later run reads it
        self.walls.clear()
        self.measure()

    def measure(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", REFERENCE_CODE], env=self.env, cwd=ROOT,
                       check=True, timeout=TIMEOUT_S, stdout=subprocess.DEVNULL)
        self.walls.append(time.perf_counter() - t0)
        return self.walls[-1]

    def scale_after(self) -> float:
        """Scale for what ran since the last yardstick run; runs the next."""
        before = self.walls[-1]
        return REFERENCE_S / ((before + self.measure()) / 2)


class Runner:
    """Spawns CLI processes one at a time and checks every answer."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.expected = workloads.DATA / "expected" / workload
        self.failures = []

    def run(self, inv, env, traced_out: Path | None = None) -> dict:
        if time.perf_counter() > self.deadline:
            raise DeadlineReached(inv.name)
        cmd = [sys.executable]
        if traced_out is None:
            cmd += ["-m", "hopfgal.cli"]
        else:
            cmd += [str(HERE / "traced.py"), str(traced_out)]
        cmd += list(inv.argv) + ["--json"]
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=env, cwd=ROOT)
            timer = threading.Timer(TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = out_path.read_bytes()
        reason = self.check(inv, proc.returncode, out, timed_out=wall >= TIMEOUT_S)
        if reason:
            self.failures.append({"name": inv.name, "reason": reason,
                                  "stderr": err_path.read_text(errors="replace")[-300:]})
        return {"name": inv.name, "size": inv.size, "wall": wall, "ok": not reason,
                "cpu": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss,
                "multi": _name_count(inv) > 1}

    def check(self, inv, code: int, out: bytes, timed_out: bool) -> str:
        if timed_out:
            return f"timed out after {TIMEOUT_S:.0f} s"
        if code != inv.exit_code:
            return f"exit code {code}, expected {inv.exit_code}"
        if self.seed == workloads.DEFAULT_SEED:
            want = (self.expected / f"{inv.name}.out").read_bytes()
            return "" if out == want else "--json output differs from the stored bytes"
        if code == 2:
            return "" if not out else "printed a verdict on malformed input"
        try:
            got = json.loads(out)
        except ValueError:
            return "--json output is not JSON"
        for path, want in inv.fields:
            value = got
            for key in path.split("/"):
                if isinstance(value, list) and key.isdigit() and int(key) < len(value):
                    value = value[int(key)]
                else:
                    value = value.get(key) if isinstance(value, dict) else None
            if value != want:
                return f"{path} is {value!r}, expected {want!r}"
        return ""


def _name_count(inv) -> int:
    """Number of objects an invocation names after its document argument."""
    if inv.argv[0] == "pushforward":  # one bundle and one morphism
        return 1
    for i, arg in enumerate(inv.argv):
        if arg.endswith(".json"):
            return len(inv.argv) - i - 1
    return 0


def _check_documents(runner: Runner, docs: Path) -> None:
    """On the default seed the generated documents must match the stored ones."""
    stored = workloads.DATA / "seed0" / runner.workload
    for path in sorted(stored.iterdir()):
        if (docs / path.name).read_bytes() != path.read_bytes():
            runner.failures.append({"name": f"document {path.name}",
                                    "reason": "generated document differs from the stored one"})


def _remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:  # another run still has its directory there
        pass


def setup_once(runner: Runner, ref: Reference, k: int):
    """Write the documents, compile bytecode into a fresh cache, warm up once.

    Returns the set-up's wall time, also scaled by the yardstick."""
    base = runner.work / f"setup{k}"
    t0 = time.perf_counter()
    mix, warmup = workloads.build(runner.workload, runner.seed, base / "docs")
    env = _child_env(base / "pycache")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "hopfgal")],
                   env=env, check=True, cwd=ROOT, timeout=TIMEOUT_S)
    runner.run(warmup, env)
    wall = time.perf_counter() - t0
    return wall, wall * ref.scale_after(), mix, env, base / "docs"


def timed_passes(runner: Runner, ref: Reference, mix, env, passes: int,
                 samples: list) -> list:
    """Whole passes of the mix, appending to samples; returns the summed
    invocation wall time of each pass (yardstick runs excluded)."""
    walls = []
    for _ in range(passes):
        group = []
        for i, inv in enumerate(mix):
            group.append(runner.run(inv, env))
            if sum(s["wall"] for s in group) >= REFERENCE_EVERY_S or i == len(mix) - 1:
                scale = ref.scale_after()
                for s in group:
                    s["scale"] = scale
                samples.extend(group)
                group = []
        walls.append(sum(s["wall"] for s in samples[-len(mix):]))
    return walls


def tail(values: list) -> tuple:
    """The highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); needs more than ten samples.
    """
    xs = sorted(values)
    n = len(xs)
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)  # nearest rank, 1-based
    return xs[rank - 1], pct, n


def scaling_rows(samples: list) -> dict:
    rows = {}
    for s in samples:
        if s["size"]:
            rows.setdefault(s["size"], []).append(s)
    return {k: {"p50_s": statistics.median(s["wall"] for s in v),
                "scaled_p50_s": statistics.median(s["wall"] * s["scale"] for s in v),
                "samples": len(v)}
            for k, v in sorted(rows.items())}


def end_to_end(samples: list, setup_s: float) -> tuple:
    """Times are scaled by the yardstick (see Reference).  Each invocation's
    times are averaged over the passes, so every command of the mix counts
    once; with two or three passes a mean uses every sample, a median not.
    The unscaled figures, the median over all samples and the tail
    percentile are in the detail line."""
    by_inv = {}
    for s in samples:
        by_inv.setdefault(s["name"], []).append(s)
    wall_mean = [statistics.fmean(s["wall"] * s["scale"] for s in v)
                 for v in by_inv.values()]
    cpu_mean = [statistics.fmean(s["cpu"] * s["scale"] for s in v)
                for v in by_inv.values()]
    metrics = {
        "ops_per_s": (len(by_inv) / sum(wall_mean), "1/s"),
        "latency_geomean_s": (statistics.geometric_mean(wall_mean), "s"),
        "cpu_s_per_op": (sum(cpu_mean) / len(by_inv), "s"),
        "peak_rss_mb": (max(s["rss_kb"] for s in samples) / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    walls = [s["wall"] for s in samples]
    scaled = [s["wall"] * s["scale"] for s in samples]
    latency = {"samples": len(walls), "p50_s": statistics.median(walls),
               "scaled_p50_s": statistics.median(scaled)}
    if len(walls) > 10:
        value, pct, _ = tail(walls)
        latency.update(percentile=pct, tail_s=value, scaled_tail_s=tail(scaled)[0])
    unscaled = [statistics.fmean(s["wall"] for s in v) for v in by_inv.values()]
    return metrics, {"latency": latency,
                     "unscaled_ops_per_s": len(by_inv) / sum(unscaled)}


def cpu_over_wall(samples: list) -> tuple:
    multi = [s for s in samples if s["multi"]]
    chosen = multi or samples
    ratio = sum(s["cpu"] for s in chosen) / sum(s["wall"] for s in chosen)
    return ratio, ("multi-name invocations" if multi else "all invocations")


def per_layer(runner: Runner, mix, env, untraced: list, pass_walls: list) -> tuple:
    spans_dir = runner.work / "spans"
    spans_dir.mkdir()
    imports, merged = [], {}
    t0 = time.perf_counter()
    for i, inv in enumerate(mix):
        out = spans_dir / f"{i}.json"
        runner.run(inv, env, traced_out=out)
        if not out.is_file():
            runner.failures.append({"name": inv.name, "reason": "traced run wrote no spans"})
            continue
        data = json.loads(out.read_text())
        imports.append(data["import_s"])
        for name, row in data["spans"].items():
            acc = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                           "hits": 0})
            for key in acc:
                acc[key] += row[key]
    traced_wall = time.perf_counter() - t0
    ratio, basis = cpu_over_wall(untraced)
    metrics = {
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.cpu_over_wall": (ratio, "ratio"),
        "trace.overhead": (statistics.median(pass_walls) / traced_wall, "ratio"),
    }
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0}
    # Times only for layers every workload enters: a layer a workload never
    # reaches would report exactly 0 s on every run.  All span times are in
    # the detail line.
    for name in ("document.load_document", "document.validate_raw"):
        metrics[f"{name}.total_s"] = (merged[name]["total_s"], "s")
    metrics["document.resolve.self_s"] = (merged["document.resolve"]["self_s"], "s")
    for _, _, name in TIMED:
        metrics[f"{name}.calls"] = (merged.get(name, zero)["calls"], "count")
    tries = merged.get("rings.try_inverse", zero)
    metrics["rings.try_inverse.unit_share"] = (
        tries["hits"] / tries["calls"] if tries["calls"] else 0.0, "ratio")
    for name in ("rings.element_mul", "fields.mul", "fields.add", "fields.inv"):
        metrics[f"{name}.calls"] = (merged.get(name, zero)["calls"], "count")
    counted = {name for _, _, name in COUNTED}
    spans = {name: ({"calls": row["calls"]} if name in counted else
                    {k: row[k] for k in ("calls", "total_s", "self_s")})
             for name, row in sorted(merged.items())}
    return metrics, {"cpu_over_wall_basis": basis, "traced_pass_s": traced_wall,
                     "spans": spans}


def provenance() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "hopfgal").glob("*")):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "numpy": metadata.version("numpy"),
            "jsonschema": metadata.version("jsonschema")}


def record(workload: str) -> None:
    """Store the default seed's documents and --json outputs."""
    seed = workloads.DEFAULT_SEED
    work = WORK_ROOT / f"{workload}-record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    mix, _ = workloads.build(workload, seed, work / "docs")
    stored = workloads.DATA / "seed0" / workload
    expected = workloads.DATA / "expected" / workload
    for d in (stored, expected):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    for path in sorted((work / "docs").iterdir()):
        if path.name != "taft6.json":  # a copy of a file under data/
            shutil.copyfile(path, stored / path.name)
    env = _child_env(work / "pycache")
    for inv in mix:
        proc = subprocess.run([sys.executable, "-m", "hopfgal.cli", *inv.argv, "--json"],
                              env=env, cwd=ROOT, capture_output=True, timeout=TIMEOUT_S)
        if proc.returncode != inv.exit_code:
            sys.exit(f"{inv.name}: exit {proc.returncode}, expected {inv.exit_code}")
        (expected / f"{inv.name}.out").write_bytes(proc.stdout)
    _remove_work(work)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store the default seed's documents and outputs, then exit")
    args = ap.parse_args()
    if not (SRC / "hopfgal" / "cli.py").is_file():
        print(f"error: no hopfgal source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hopfgal  # noqa: F401  the generator builds documents with the library

    if args.record:
        record(args.workload)
        return 0

    work = WORK_ROOT / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work, time.perf_counter() + DEADLINE_S)
    samples, detail, metrics = [], {"workload": args.workload, "seed": args.seed}, {}
    try:
        ref = Reference(work)
        setups = [setup_once(runner, ref, k) for k in range(SETUP_REPEATS)]
        _, _, mix, env, docs = setups[-1]
        if args.seed == workloads.DEFAULT_SEED:
            _check_documents(runner, docs)
        if args.trace:
            passes = max(1, round(args.seconds / 2 / workloads.SECONDS_PER_PASS[args.workload]))
        else:
            passes = max(MIN_PASSES,
                         round(args.seconds / workloads.SECONDS_PER_PASS[args.workload]))
        pass_walls = timed_passes(runner, ref, mix, env, passes, samples)
        detail.update({"provenance": provenance(), "pass_walls_s": pass_walls,
                       "invocations_per_pass": len(mix),
                       "setup_s_each": [s[0] for s in setups],
                       "scaled_setup_s_each": [s[1] for s in setups],
                       "reference_s": {"median": statistics.median(ref.walls),
                                       "min": min(ref.walls), "runs": len(ref.walls)},
                       "scaling": scaling_rows(samples),
                       "omitted_sizes": workloads.OMITTED_SIZES.get(args.workload)})
        if args.trace:
            metrics, extra = per_layer(runner, mix, env, samples, pass_walls)
        else:
            metrics, extra = end_to_end(samples, statistics.median(s[1] for s in setups))
        detail.update(extra)
    except DeadlineReached as exc:
        runner.failures.append({"name": str(exc), "reason": "not started: run deadline reached"})
    finally:
        _remove_work(work)
    for f in runner.failures:
        print(f"FAIL {f['name']}: {f['reason']}", file=sys.stderr)
    if not metrics:
        return 1
    failed = sum(1 for s in samples if not s["ok"])
    detail["failed_share"] = failed / len(samples)
    detail["failures"] = runner.failures
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
