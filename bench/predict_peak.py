"""Standalone peak memory of `hcms predict` or `hcms train`: a fresh process
per run, on HEAD and on this checkout's working tree, over several sizes of
input.

    python3 bench/predict_peak.py [--mode predict|train] [--scales S ...]
                                  [--repeats N] [--seed S] [--quick]

predict (the default) runs at scales 1, 4 and 16. Scale s is
perfbench/gen.py's corpus of s times predict-default's 4096 unlabeled
tweets, drawn as perfbench/run.py's set-up draws them (seed + 5000). The
checkpoint is trained once, as that set-up trains it (the first 256 of
seed's 288 tweets, the last 32 as validation, run.py's default config, one
epoch), by the working tree's `hcms train`; both sides predict with it.

train runs at scales 1 and 4: train-default's command on s times its 1024
training tweets, the first s·1024 of seed's corpus of s·1024 + 128, the
last 128 as validation, at run.py's default config and one epoch. Its
saving grows with the vocabulary that the corpus gives.

Each run is a new Python process that runs the command through
hcms.cli.main and reports its own peak resident set (VmHWM, read from
/proc/self/status in the child, as ru_maxrss keeps the peak of the process
that called exec), its minor page faults (ru_minflt) and the command's wall
time, imports included. BLAS runs on run.py's thread count. The runs of a
scale alternate sides, HEAD first in even repeats. The two sides' outputs
(predictions.tsv; epochs.log and model.ckpt) must be byte-identical; the
script exits 1 when they are not or when a command fails.

`--quick` runs run.py's quick sizes of the mode's workload at scales 1 and
4, once a side (for this script's own test).
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "bench"))
import run  # noqa: E402 - sets the BLAS thread count, before numpy loads
import gen  # noqa: E402
from record import export  # noqa: E402

# the child: hcms.cli.main(argv) from the src/ given first, then one JSON line
CHILD = """\
import json, resource, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hcms.cli
code = hcms.cli.main(sys.argv[2:])
wall = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"exit": code, "wall_s": wall, "vmhwm_mb": hwm / 1024,
                  "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt}))
"""


def hcms(src, argv):
    """The child's {"exit", "wall_s", "vmhwm_mb", "minflt"} for `hcms <argv>`."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), *map(str, argv)],
                          capture_output=True, text=True, timeout=3600)
    if proc.returncode != 0:
        sys.exit(f"error: hcms {argv[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def train_checkpoint(work, sizes, seed):
    """model.ckpt trained as perfbench/run.py's predict-default set-up trains it."""
    fit = gen.cue_corpus(sizes["train"] + sizes["val"], seed)
    train, val = work / "train.conll", work / "val.conll"
    train.write_text(gen.to_conll(fit[:sizes["train"]]), encoding="utf-8")
    val.write_text(gen.to_conll(fit[sizes["train"]:]), encoding="utf-8")
    config = run.write_config(work / "config.txt", dict(run.DEFAULT_CONFIG, epochs=1))
    out = work / "train"
    result = hcms(ROOT / "src", ["train", "--train", train, "--val", val, "--config", config,
                                 "--seed", seed, "--out-dir", out])
    if result["exit"] != 0:
        sys.exit(f"error: hcms train exited {result['exit']}")
    return out / "model.ckpt"


def predict_runs(work, seed, quick):
    """The predict mode's runs: a scale's (tweets, argv without --out-dir,
    outputs compared), from the checkpoint trained here."""
    sizes = run.PredictDefault.quick_sizes if quick else run.PredictDefault.sizes
    checkpoint = train_checkpoint(work, sizes, seed)

    def runs(scale):
        n = sizes["predict"] * scale
        path = work / f"predict-{scale}x.conll"
        path.write_text(gen.to_conll(gen.cue_corpus(n, seed + 5000), labeled=False),
                        encoding="utf-8")
        return (n, ["predict", "--checkpoint", checkpoint, "--input", path],
                ("predictions.tsv",))
    return runs


def train_runs(work, seed, quick):
    """The train mode's runs: a scale's (tweets, argv without --out-dir,
    outputs compared)."""
    sizes = run.TrainDefault.quick_sizes if quick else run.TrainDefault.sizes
    config = run.write_config(work / "config.txt", dict(run.DEFAULT_CONFIG, epochs=1))

    def runs(scale):
        n = sizes["train"] * scale
        tweets = gen.cue_corpus(n + sizes["val"], seed)
        train, val = work / f"train-{scale}x.conll", work / f"val-{scale}x.conll"
        train.write_text(gen.to_conll(tweets[:n]), encoding="utf-8")
        val.write_text(gen.to_conll(tweets[n:]), encoding="utf-8")
        return (n, ["train", "--train", train, "--val", val, "--config", config],
                ("epochs.log", "model.ckpt"))
    return runs


MODES = {"predict": (predict_runs, [1, 4, 16]), "train": (train_runs, [1, 4])}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mode", choices=sorted(MODES), default="predict")
    ap.add_argument("--scales", type=int, nargs="+")
    ap.add_argument("--repeats", type=int, default=3, help="runs per side and scale")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    mode_runs, default_scales = MODES[args.mode]
    scales, repeats = ([1, 4], 1) if args.quick else (args.scales or default_scales,
                                                      args.repeats)

    print("machine " + " ".join(f"{k}={v}" for k, v in run.machine_record().items()))
    ok, peaks = True, {}
    with tempfile.TemporaryDirectory(prefix=f"hcms-{args.mode}-peak-") as tmp:
        work = Path(tmp)
        export("HEAD", work / "base")
        srcs = {"base": work / "base" / "src", "change": ROOT / "src"}
        runs = mode_runs(work, args.seed, args.quick)
        for scale in scales:
            n, command, outputs = runs(scale)
            digests = {"base": set(), "change": set()}
            for i in range(repeats):
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    out = work / f"{side}-{scale}x-{i}"
                    result = hcms(srcs[side], [*command, "--out-dir", out])
                    ok &= result["exit"] == 0
                    if result["exit"] == 0:
                        digests[side].add(tuple(hashlib.sha256((out / name).read_bytes())
                                                .hexdigest() for name in outputs))
                    peaks.setdefault((side, scale), []).append(result["vmhwm_mb"])
                    print(f"{scale}x ({n} tweets) {side:<6} exit {result['exit']}  "
                          f"VmHWM {result['vmhwm_mb']:.1f} MB  minflt {result['minflt']}  "
                          f"wall {result['wall_s']:.2f} s")
            same = len(digests["base"] | digests["change"]) == 1
            ok &= same
            print(f"{scale}x {' and '.join(outputs)} "
                  + ("identical on both sides" if same else f"DIFFER: {digests}"))
    for side in ("base", "change"):
        medians = {s: statistics.median(peaks[side, s]) for s in scales}
        print(f"{side:<6} median VmHWM "
              + "  ".join(f"{s}x {m:.1f} MB" for s, m in medians.items())
              + f"  ({max(scales)}x - {min(scales)}x: "
              f"{medians[max(scales)] - medians[min(scales)]:+.1f} MB)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
