"""hcms benchmark: two workloads driven through hcms.cli.main, in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs are generated from --seed by perfbench/gen.py):

- train-default    `hcms train`, paper default config, ~1k tweets, 1 epoch
- predict-default  `hcms predict` over 4k unlabeled tweets; the checkpoint
                   is trained during set-up

A set-up generates the inputs and makes one short CLI call that warms the
code path or trains the checkpoint. With --trace 0 a run sets up and runs
the timed command in turns, at least three rounds and then for as long as
--seconds allows, and prints the end-to-end metrics of BENCHMARK.json: the
median set-up time (setup_s), the mean command time (wall_s: total over
count, which drifts less than a median of a few commands when the machine
changes speed during the run), the process's peak RSS (set-ups and output
checks included) and the share of CLI calls whose outputs passed every
check. With --trace 1 it sets up once, runs the command once untraced and
once with every public function of the package wrapped
(perfbench/tracing.py), and prints the per-layer metrics of that one
traced command. Lines before the last one give the machine record and
further figures ("info"); the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. Work files, result.json and
trace spans go to .perfbench_work/<workload>/.

`--quick` shrinks every workload to a few examples (for the benchmark's
own test). Exits 2 without a result when the hcms sources are missing.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fixed before numpy loads: one BLAS thread keeps the timings steady on a
# small shared machine; the value is recorded with every run.
BLAS_THREADS = 1
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, NPROC))

import gen  # noqa: E402 - loads numpy, so after the BLAS settings
import tracing  # noqa: E402

MIN_ROUNDS = 3      # set-ups and timed commands in an untraced run, at least
LABELS = ("positive", "negative", "neutral")

# The paper's default model.
DEFAULT_CONFIG = {"embed_dim": 200, "filters": 200, "kernel": 8, "stride": 1,
                  "pool": 2, "pool_stride": 2, "attn_hidden": 64, "max_len": 48,
                  "batch_size": 32, "lr": 0.01, "shuffle": True}


# ---------------------------------------------------------------------------
# running the CLI and checking what it wrote

class CliRunner:
    """Runs CLI commands, checks their outputs, counts failures."""

    def __init__(self, work_dir, seed):
        self.work = work_dir
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.around = contextlib.nullcontext   # wraps the CLI call, not the checks
        self._n = 0

    def cli(self, argv, check):
        """Run `hcms <argv> --out-dir <fresh dir>`; returns (out_dir, seconds)."""
        import hcms.cli
        self._n += 1
        out = self.work / f"out-{self._n}"
        argv = list(argv) + ["--seed", str(self.seed), "--out-dir", str(out)]
        t0 = time.perf_counter()
        try:
            with self.around():
                code = hcms.cli.main(argv)
        except SystemExit as exc:       # argparse rejects the arguments
            code = exc.code
        seconds = time.perf_counter() - t0
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            try:
                problems = check(out)
            except Exception as exc:  # noqa: BLE001 - a broken output is a failed check
                problems = [f"{type(exc).__name__}: {exc}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: hcms {argv[0]} ({out.name}): {p}", file=sys.stderr)
        return out, seconds


def write_config(path, cfg):
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
    return str(path)


def read_epochs(out):
    return [dict(kv.split("=") for kv in line.split())
            for line in (out / "epochs.log").read_text(encoding="utf-8").splitlines()]


def check_train(out, probes):
    """epochs.log finite; model.ckpt reloads bit-identical to the saved model."""
    from hcms.train import load_checkpoint
    problems = []
    epochs = read_epochs(out)
    if not epochs or not all(math.isfinite(float(e["train_loss"])) for e in epochs):
        problems.append(f"non-finite or missing train_loss in epochs.log: {epochs}")
    if not all(0.0 <= float(e["val_f1"]) <= 1.0 for e in epochs):
        problems.append(f"val_f1 outside [0, 1] in epochs.log: {epochs}")
    model, _, _ = load_checkpoint(out / "model.ckpt")
    if tracing.param_digests(model) != probes.saved:
        problems.append("checkpoint parameters differ from the trained model")
    return problems


def check_predictions(out, n_records):
    lines = (out / "predictions.tsv").read_text(encoding="utf-8").splitlines()
    pairs = [line.split("\t") for line in lines]
    if [p[0] for p in pairs] != [str(i) for i in range(1, n_records + 1)]:
        return [f"predictions.tsv has {len(lines)} rows for {n_records} records"]
    bad = [p for p in pairs if len(p) != 2 or p[1] not in LABELS]
    return [f"invalid labels: {bad[:3]}"] if bad else []


# ---------------------------------------------------------------------------
# workloads: set-up writes the inputs and runs one short CLI call that warms
# the code path (or trains the checkpoint); command() is the timed call.

class Workload:
    sizes = quick_sizes = {}
    outputs = ()        # files every rerun must reproduce byte for byte

    def __init__(self, runner, quick):
        self.s = runner
        self.n = self.quick_sizes if quick else self.sizes
        self.first = None

    def write(self, name, tweets, labeled=True):
        path = self.s.work / name
        path.write_text(gen.to_conll(tweets, labeled), encoding="utf-8")
        return str(path)

    def command(self, probes):
        out, seconds = self.s.cli(self.argv(), lambda out: self.check(out, probes)
                                  + self._same_as_first(out))
        self.first = self.first or out
        return out, seconds

    def info(self, out):
        """Figures printed beside the metrics, from the last command's outputs."""
        return {}

    def _same_as_first(self, out):
        return [f"{name} differs from the first run" for name in self.outputs
                if self.first and (out / name).read_bytes() != (self.first / name).read_bytes()]


class TrainDefault(Workload):
    sizes = {"train": 1024, "val": 128, "warm": 64}
    quick_sizes = {"train": 24, "val": 8, "warm": 8}
    outputs = ("epochs.log", "model.ckpt")

    def setup(self, probes):
        tweets = gen.cue_corpus(self.n["train"] + self.n["val"], self.s.seed)
        self.train = self.write("train.conll", tweets[:self.n["train"]])
        self.val = self.write("val.conll", tweets[self.n["train"]:])
        warm = self.write("warm.conll", tweets[:self.n["warm"]])
        self.config = write_config(self.s.work / "config.txt", dict(DEFAULT_CONFIG, epochs=1))
        self.s.cli(["train", "--train", warm, "--val", warm, "--config", self.config],
                   lambda out: check_train(out, probes))

    def argv(self):
        return ["train", "--train", self.train, "--val", self.val, "--config", self.config]

    def check(self, out, probes):
        return check_train(out, probes)

    def info(self, out):
        return {"val_weighted_f1": max(float(e["val_f1"]) for e in read_epochs(out))}


class PredictDefault(Workload):
    sizes = {"predict": 4096, "train": 256, "val": 32}
    quick_sizes = {"predict": 16, "train": 16, "val": 8}
    outputs = ("predictions.tsv",)

    def setup(self, probes):
        tweets = gen.cue_corpus(self.n["predict"], self.s.seed + 5000)
        self.input = self.write("predict.conll", tweets, labeled=False)
        fit = gen.cue_corpus(self.n["train"] + self.n["val"], self.s.seed)
        train = self.write("train.conll", fit[:self.n["train"]])
        val = self.write("val.conll", fit[self.n["train"]:])
        config = write_config(self.s.work / "config.txt", dict(DEFAULT_CONFIG, epochs=1))
        out, _ = self.s.cli(["train", "--train", train, "--val", val, "--config", config],
                            lambda out: check_train(out, probes))
        self.checkpoint = str(out / "model.ckpt")

    def argv(self):
        return ["predict", "--checkpoint", self.checkpoint, "--input", self.input]

    def check(self, out, probes):
        return check_predictions(out, self.n["predict"])


WORKLOADS = {"train-default": TrainDefault, "predict-default": PredictDefault}


# ---------------------------------------------------------------------------

def machine_record():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "git_sha": sha}


def blas_threads():
    """Thread count the loaded OpenBLAS reports, else the requested count."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                return int(getattr(handle, fn)())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_hcms():
    """Import hcms from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hcms
    except ImportError as exc:
        print(f"error: cannot import hcms from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(hcms.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: hcms imported from {hcms.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    import hcms.cli  # noqa: F401 - loads every module the tracer wraps


def run(workload, seed, seconds, traced, quick):
    work = ROOT / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = CliRunner(work, seed)
    wl = WORKLOADS[workload](runner, quick)

    probes = tracing.Probes()
    setups, walls = [], []
    with probes.installed():
        # set up and run the command in turns, so the set-ups are spread over
        # the run like the commands; stop before a round that would end past
        # the deadline (judged by the last one)
        t_end = time.perf_counter() + seconds
        while len(walls) < (1 if traced else MIN_ROUNDS) or (
                not traced and time.perf_counter() + setups[-1] + walls[-1] <= t_end):
            t0 = time.perf_counter()
            wl.setup(probes)
            setups.append(time.perf_counter() - t0)
            out, wall = wl.command(probes)
            walls.append(wall)
    if traced:
        tracer = tracing.Tracer()
        runner.around = tracer.installed
        with probes.installed():
            _, traced_wall = wl.command(probes)
        result = tracing.summarize(tracer)
        result["trace.overhead_s"] = traced_wall - walls[0]
        tracer.save(work / "spans.npz")
    else:
        result = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(walls) / len(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if runner.failed == 0:
            result.update(wl.info(out))
    result["ok_ratio"] = 1.0 - runner.failed / max(runner.attempted, 1)
    result["samples.rounds"] = len(walls)
    return runner, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_hcms()
    machine = machine_record()
    runner, values = run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for name, value in values.items():
        note = " (computed from shapes)" if name in tracing.COMPUTED else ""
        print(f"{'metric' if name in units else 'info'} {name} = {value} {units.get(name, '')}{note}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    (runner.work / "result.json").write_text(
        json.dumps(dict(result, machine=machine, info=values), indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
