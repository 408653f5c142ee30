"""Paired benchmark record: perfbench/run.py on HEAD and on this checkout's
working tree, in alternating pairs over seeds, written to BENCH_<n>.json.

    python3 bench/record.py [--seeds N] [--traced N]

HEAD is the base, so uncommitted work is measured against the commit it
sits on. Its committed files are exported with `git archive` into a
temporary directory. The change side is the working tree, recorded as the
git tree id of each directory the runs execute (CODE): the id that
`git rev-parse <commit>:<dir>` prints for a commit of those files, so a
record names the code it measured and the recorder that measured it. Pair i runs the base first when i is
even and the change first when i is odd, so a drift in the machine's speed
falls on both sides alike.

Every workload of BENCHMARK.json runs pair i on seed i + 1 for
BENCHMARK.json's run_seconds, and each untraced run gives the end-to-end
metrics; with --traced N each side also makes N traced runs per workload
(seed 1, in alternating pairs), summarised the same way over those runs,
since a single traced run swings by up to about 20%. The record holds every
run's values, and per metric the median and quartiles of each side, the
median of the paired ratios change / base, and the pairs the change won by
the metric's direction. It is printed and written to the next free
BENCH_<n>.json at the repository's root.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CODE = ("src", "perfbench", "bench")  # the code the runs execute, and this recorder

NOTES = [
    "layers.embedding.bwd_examples counts one per batch since dabd4a3 (the "
    "tracer counts the leading axis of the first argument, and the embedding "
    "backward gets one row per distinct key), so layers.embedding.bwd_us_per_ex "
    "is a per-batch time; do not compare it across dabd4a3.",
    "layers.embedding.fwd_examples counts one per chunk of batches in predict "
    "(so in each validation pass too) since predict builds one conv tap table "
    "per chunk: the embedding then gathers each chunk's distinct rows once, "
    "from a 1-D id array. On predict-default layers.embedding.fwd_us_per_ex is "
    "a per-chunk time; do not compare either workload's across that change.",
    "layers.embedding.fwd_examples counts one per training step too since a "
    "training forward gathers only its batch's distinct conv input rows, from "
    "a 1-D id array, and builds no [B, u, d] embedding output. On "
    "train-default layers.embedding.fwd_us_per_ex is then a per-step time "
    "(per chunk in the validation passes); do not compare it across that change.",
    "train.evaluate_ms on train-default no longer includes padding and keying "
    "the validation set since train prepares each corpus once (train.prepare, "
    "at the top of train): each validation pass only builds its tap table and "
    "runs the batches. Compare it across that change with this in mind.",
]


# ---------------------------------------------------------------------------
# one run

def parse_run(stdout):
    """{"machine", "metrics", "correct", "attempted", "failed"} from the stdout
    of one perfbench/run.py call: the "machine k=v ..." line and the JSON
    object on the last line."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # a value may hold spaces ("blas=scipy-openblas 0.3.31"): it runs to the next key=
    machine = next((dict(re.findall(r"(\w+)=(.*?)(?= \w+=|$)", line[len("machine "):]))
                    for line in lines if line.startswith("machine ")), {})
    return {"machine": machine,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            **{k: result[k] for k in ("correct", "attempted", "failed")}}


def run_perfbench(tree, workload, seed, traced):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
            str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(int(traced))]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


# ---------------------------------------------------------------------------
# aggregation

def quartiles(values):
    """(q1, median, q3) of values, inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(base, change, better):
    """Summary of one metric's paired values (base[i] and change[i] share a
    seed); better is "lower" or "higher"."""
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    ratios = [c / b for b, c in zip(base, change) if b]
    sign = -1 if better == "lower" else 1
    return {"better": better, "pairs": len(base),
            "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "base_median": b_med, "base_q1": b_q1, "base_q3": b_q3,
            "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
            "ratio_median": statistics.median(ratios) if ratios else None,
            "base": list(base), "change": list(change)}


def aggregate(pairs, metrics):
    """{metric: compare(...)} over pairs [(base_run, change_run)] of parse_run
    results, for each {"name", "better"} of metrics that the runs report."""
    out = {}
    for m in metrics:
        if all(m["name"] in r["metrics"] for pair in pairs for r in pair):
            out[m["name"]] = compare([b["metrics"][m["name"]] for b, _ in pairs],
                                     [c["metrics"][m["name"]] for _, c in pairs],
                                     m["better"])
    return out


def format_table(record):
    rows = []
    for workload, groups in record["workloads"].items():
        for group in groups.values():
            for name, s in group.items():
                ratio = "n/a" if s["ratio_median"] is None else f"{s['ratio_median']:.3f}"
                rows.append(
                    f"{workload:<16} {name:<36} base {s['base_median']:.4g} "
                    f"[{s['base_q1']:.4g}, {s['base_q3']:.4g}]  change {s['change_median']:.4g} "
                    f"[{s['change_q1']:.4g}, {s['change_q3']:.4g}]  ratio {ratio}  "
                    f"wins {s['wins']}/{s['pairs']} ({s['better']} is better)")
    return "\n".join(rows)


def next_bench_path(root):
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


# ---------------------------------------------------------------------------

def git(*args, cwd=ROOT, env=None):
    return subprocess.run(["git", *args], cwd=cwd, env=env, capture_output=True,
                          text=True, check=True).stdout


def tree_ids(root, dirs):
    """{dir: git tree id} of root's working tree, each dir as `git add --all`
    would commit it (untracked files in, ignored ones out). A scratch index
    is used, so root's own index and refs do not change; the blobs are
    written to its object store."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", cwd=root, env=env)
        git("add", "--all", "--", *dirs, cwd=root, env=env)
        return {d: git("write-tree", f"--prefix={d}/", cwd=root, env=env).strip()
                for d in dirs}


def export(sha, dest):
    """The committed files of commit sha, unpacked into dest."""
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, stdout=tar,
                       check=True)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(dest, filter="data")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10, help="pairs per workload")
    ap.add_argument("--traced", type=int, default=0, help="traced runs per side and workload")
    args = ap.parse_args(argv)
    out = next_bench_path(ROOT)

    head = git("rev-parse", "HEAD").strip()
    # "040000 tree <id>\t<dir>" per directory that HEAD holds
    base = {"sha": head, "trees": {d: None for d in CODE}}
    for line in git("ls-tree", head, "--", *CODE).splitlines():
        meta, name = line.split("\t")
        base["trees"][name] = meta.split()[2]
    change = {"head": head, "trees": tree_ids(ROOT, CODE)}
    seeds = list(range(1, args.seeds + 1))
    record = {"base": base, "change": change, "machine": None,
              "settings": {"seeds": seeds, "seconds": SPEC["run_seconds"],
                           "traced": args.traced, "order": "base first on even pairs"},
              "workloads": {}, "notes": NOTES}
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="hcms-bench-") as tmp:
        export(head, tmp)
        sides = {"base": Path(tmp), "change": ROOT}

        def pair(i, workload, seed, traced):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            runs = {side: run_perfbench(sides[side], workload, seed, traced) for side in order}
            for side, run in runs.items():
                print(f"{workload} seed {seed} {side}{' traced' if traced else ''}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()
                                 if not traced), file=sys.stderr)
            return runs["base"], runs["change"]

        for workload in (w["name"] for w in SPEC["workloads"]):
            pairs = [pair(i, workload, seed, False) for i, seed in enumerate(seeds)]
            record["machine"] = {k: v for k, v in pairs[-1][1]["machine"].items()
                                 if k != "git_sha"}
            groups = {"end_to_end": aggregate(pairs, SPEC["end_to_end"])}
            if args.traced:
                groups["per_layer"] = aggregate(
                    [pair(i, workload, seeds[0], True) for i in range(args.traced)],
                    SPEC["per_layer"])
            record["workloads"][workload] = groups
    record["settings"]["elapsed_s"] = round(time.perf_counter() - t0, 1)

    changed = [d for d in CODE if change["trees"][d] != base["trees"][d]]
    print(f"base {head} (HEAD), change: the working tree"
          + (f", changed {', '.join(changed)}" if changed else ", no code change"))
    print("machine " + " ".join(f"{k}={v}" for k, v in record["machine"].items()))
    print(format_table(record))
    for note in NOTES:
        print(f"note: {note}")
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
