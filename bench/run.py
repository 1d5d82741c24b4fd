"""Benchmark of the qturan CLI: construct, verify and certify.

    python3 bench/run.py --workload pipeline-n18 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run from the repository root; qturan is imported from ./src.  With --trace 0
each workload's CLI calls run in fresh processes, in whole rounds until
--seconds have passed, and the run reports the end-to-end metrics wall_s,
peak_rss_mb and setup_s.  With --trace 1 it times calls into the public
functions of each module in this process and reports the per-layer
metrics.  The last line of stdout is a JSON object with the keys correct,
attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import selftest
import tracing
from workloads import OUT, WORKLOADS, Call, Result

SETUPS = 5  # set-ups per run; setup_s is their median
RUN_LIMIT_S = 150  # a call still running this long after the run started is killed

# The speed of this shared machine drifts by a fifth over minutes, and CPU
# time drifts with wall time: over 30 s windows the median time of one
# `pipeline --n 18` call spread 21% (interquartile range over the median).
# Each run therefore also times a fixed piece of pure-Python work, the
# probe, before each set-up and each round and once at the end, and scales
# its times by PROBE_REF_S over the mean probe time; over the same windows
# the scaled time spread 7%.  PROBE_REF_S is about the mean probe time on
# the machine of the reference figures in README.md, so that scaled times
# read as seconds there.
PROBE_REF_S = 0.12
PROBE_VECTORS = (160, 66, 190, 92, 204, 177, 242, 216, 190, 167, 237, 136, 8, 216, 120, 199, 242)


class Probe:
    """The reference survivor count of a fixed assignment, which is light
    on memory, and a set of 400k integers built and queried, which is not."""

    def __init__(self):
        rng = random.Random(3)
        self.keys = [rng.getrandbits(40) for _ in range(400_000)]
        self.times: list[float] = []
        # the first calls fault in the memory of the set: leave them out
        self.work()
        self.work()

    def work(self) -> None:
        reference.independent_subsets(PROBE_VECTORS, 8, [])
        members = set(self.keys)
        sum(1 for x in self.keys[::2] if x ^ 1 in members)

    def __call__(self) -> None:
        t0 = time.perf_counter()
        self.work()
        self.times.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return PROBE_REF_S / statistics.mean(self.times)


class Runner:
    """Runs qturan CLI calls in fresh processes, through bench/launch.py,
    and times them."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.count = 0
        self.launcher = subprocess.Popen(
            [sys.executable, str(root / "bench" / "launch.py")],
            cwd=root,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def spawn(self, argv: list[str], stdout: str | None, stderr: str | None) -> tuple[float, int, int]:
        """Wall time, peak RSS in KiB over the process and the children it
        waited for (pool workers included), and the exit status."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        request = {"argv": argv, "stdout": stdout, "stderr": stderr, "timeout": timeout}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        answer = json.loads(self.launcher.stdout.readline())
        return answer["wall"], answer["rss_kb"], answer["code"]

    def cli(self, call: Call) -> Result:
        self.count += 1
        base = self.work / f"call{self.count}"
        out = None
        argv = list(call.argv)
        if OUT in argv:
            out = Path(f"{base}.out")
            argv[argv.index(OUT)] = str(out)
        wall, rss, code = self.spawn(
            [sys.executable, "-m", "qturan.cli", *argv], f"{base}.stdout", f"{base}.stderr"
        )
        return Result(
            call,
            wall,
            rss,
            code,
            Path(f"{base}.stdout").read_text(),
            Path(f"{base}.stderr").read_text(),
            out,
        )

    def setup(self, workload: str, dest: Path) -> float:
        dest.mkdir()
        prepare = self.root / "bench" / "prepare.py"
        wall, _, code = self.spawn([sys.executable, str(prepare), workload, str(dest)], None, None)
        if code != 0:
            raise RuntimeError(f"set-up of {workload} exited with {code}")
        return wall


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def digest(res: Result) -> str:
    """Everything a call leaves behind: exit status, stdout, stderr and artifacts."""
    artifacts = dir_digest(res.out) if res.out is not None else ""
    return hashlib.sha256(f"{res.code}\0{res.stdout}\0{res.stderr}\0{artifacts}".encode()).hexdigest()


def source_digest(root: Path) -> str:
    """A hash of the program's and the benchmark's source files."""
    h = hashlib.sha256()
    for p in sorted([*(root / "src" / "qturan").rglob("*.py"), *(root / "bench").glob("*.py")]):
        h.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Call digests of earlier runs of the same source in this checkout, so
    that output is compared across runs and sets of runs."""

    def __init__(self, path: Path, source: str):
        self.path = path
        self.source = source
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def agree(self, key: str, value: str) -> bool:
        key = f"{self.source}/{key}"
        if self.data.setdefault(key, value) != value:
            return False
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        tmp.replace(self.path)
        return True


def measure(name: str, root: Path, work: Path, seed: int, seconds: float) -> dict:
    with Runner(root, work) as runner:
        return measure_with(WORKLOADS[name], runner, root, work, seed, seconds)


def measure_with(w, runner: Runner, root: Path, work: Path, seed: int, seconds: float) -> dict:
    name = w.name
    store = DigestStore(root / "bench" / "out" / "digests.json", source_digest(root))
    wrong = []  # outputs that disagree with the reference or with each other

    probe = Probe()
    setups = []
    for i in range(SETUPS):
        probe()
        setups.append(runner.setup(name, work / f"setup{i}"))
    inputs = work / "setup0"
    inputs_digest = dir_digest(inputs)
    if any(dir_digest(work / f"setup{i}") != inputs_digest for i in range(1, SETUPS)):
        wrong.append("the set-ups of this run wrote different inputs")
    if not store.agree(f"{name}/inputs", inputs_digest):
        wrong.append("set-up wrote other inputs than an earlier run")

    calls = w.calls(inputs)
    first: dict[str, tuple[Result, str]] = {}
    times: dict[str, list[float]] = {c.key: [] for c in calls}
    rss = attempted = failed = rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        probe()
        for call in calls:
            res = runner.cli(call)
            attempted += 1
            if res.code != call.exit_code:
                failed += 1
                print(f"{name}: {call.key} exited {res.code}: {res.stderr[-500:]}", file=sys.stderr)
                continue
            times[call.key].append(res.wall)
            rss = max(rss, res.rss_kb)
            d = digest(res)
            if call.key not in first:
                first[call.key] = (res, d)
                continue
            if d != first[call.key][1]:
                wrong.append(f"{call.key}: output differs between rounds")
            if res.out is not None:
                shutil.rmtree(res.out)
        rounds += 1
    probe()

    try:
        if len(first) == len(calls):
            w.check({key: res for key, (res, _) in first.items()}, inputs)
        for key, (_, d) in first.items():
            if not store.agree(f"{name}/{key}", d):
                wrong.append(f"{key}: output differs from an earlier run of the same source")
        for call, check in w.controls(work, seed):
            res = runner.cli(call)
            reference.require(
                res.code == call.exit_code, f"{call.key}: exit {res.code}, expected {call.exit_code}"
            )
            check(res)
        selftest.run()
    except reference.CheckError as exc:
        wrong.append(str(exc))
    for problem in wrong:
        print(f"{name}: {problem}", file=sys.stderr)

    if not all(times.values()):
        raise RuntimeError(f"{name}: a call failed in every round, so there is no time to report")
    wall = sum(statistics.mean(t) for t in times.values())
    print(
        f"{name}  unscaled: wall {wall:.4f} s, setup {statistics.median(setups):.4f} s; "
        f"probe mean {statistics.mean(probe.times):.4f} s over {len(probe.times)}"
    )
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall * probe.scale(), "unit": "s"},
            "peak_rss_mb": {"value": rss / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups) * probe.scale(), "unit": "s"},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qturan" / "cli.py").is_file():
        print("error: run from the repository root; src/qturan/cli.py is missing", file=sys.stderr)
        return 2
    # the traced run covers every workload at once
    names = list(WORKLOADS) if args.workload == "all" and not args.trace else [args.workload]
    for name in names:
        work = root / "bench" / "out" / f"{name}-s{args.seed}-p{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            if args.trace:
                result = tracing.run(root, work, args.seed)
            else:
                result = measure(name, root, work, args.seed, args.seconds)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for metric, m in result["metrics"].items():
            print(f"{name}  {metric}  {m['value']:.6g} {m['unit']}")
        print(
            f"{name}  attempted {result['attempted']}  failed {result['failed']}  "
            f"correct {result['correct']}"
        )
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
