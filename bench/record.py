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
(seed 1, in alternating pairs; an odd N is rounded up, so each side runs
first in half the pairs, and settings.traced records the count run),
summarised the same way over those runs, since a single traced run swings
by up to about 20%. The record holds every
run's values, and per metric the median and quartiles of each side, the
median of the paired ratios change / base, and the pairs the change won by
the metric's direction. Then, in SUITE_PAIRS alternating pairs (base first
when i is even; an even count, so each side runs first in half the pairs,
and settings.suite_pairs records it), each side times the whole test suite
(`python -m pytest -q`), the tiny-regime test alone, and one seed of that
test in one process (ABLATION_SEED: the best of ABLATION_REPEATS in-process
timings, without pytest's start-up or the other nine seeds); every run's
seconds and exit code are kept beside the same summary. These timings are for information: the
benchmark gates on none of them. The record is printed and written to the
next free BENCH_<n>.json at the repository's root.
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
# test_ablation_direction's seed 0 (both models trained and scored) timed in
# one process, best of ABLATION_REPEATS: it swings less than the whole test.
# It reads only the API that every recorded commit has, so the config is
# the test's, written out again.
ABLATION_REPEATS = 3
ABLATION_SEED = f"""
import sys, tempfile, time
from pathlib import Path
sys.path[:0] = ["src", "tests"]
from hcms.cli import train_and_test_f1
from hcms.corpus import serialize_conll
from synthetic import make_long_range_corpus
cfg = {{"seed": 0, "epochs": 100, "batch_size": 8, "lr": 0.01, "beta1": 0.9,
       "beta2": 0.99, "epsilon": 1e-7, "shuffle": True, "embed_dim": 8, "filters": 8,
       "kernel": 3, "stride": 1, "pool": 2, "pool_stride": 1, "attn_hidden": 8,
       "max_len": 6, "include_self": False, "score_sigmoid": True,
       "global_pool": False, "n_classes": 3, "lang_features": False,
       "append_lang_onehot": False, "lowercase": True, "expand_contractions": True,
       "replace_emoji": True, "collapse_repeats": True, "strip_hashtags": True,
       "strip_usernames": True, "strip_links": True, "hashtag_keep_word": True}}
with tempfile.TemporaryDirectory() as tmp:
    paths = {{}}
    for name, n, seed in (("train", 128, 0), ("val", 32, 1000), ("test", 48, 2000)):
        paths[name] = Path(tmp) / f"{{name}}.conll"
        paths[name].write_text(serialize_conll(make_long_range_corpus(n, seed=seed)),
                               encoding="utf-8")
    times = []
    for _ in range({ABLATION_REPEATS}):
        t0 = time.perf_counter()
        for attn in (True, False):
            train_and_test_f1(dict(cfg, attention_enabled=attn), *map(str, paths.values()))
        times.append(time.perf_counter() - t0)
print(f"seconds {{min(times)}}")
"""
# python runs timed on each side: the tier-1 suite, its slowest test, which
# trains 20 tiny models one example at a time (Python overhead, not BLAS),
# and one seed of that test
SUITES = {"tier1": ["-m", "pytest", "-q"],
          "ablation_direction": ["-m", "pytest", "-q",
                                 "tests/test_acceptance.py::test_ablation_direction"],
          "ablation_seed": ["-c", ABLATION_SEED]}
SUITE_PAIRS = 6  # alternating pairs of suite timings per side: even, as --traced

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
    "Predict (so each validation pass too) splits each batch's conv tap "
    "gathers and attention pair scores by examples across all CPUs since "
    "tensor.threads, so layers.conv.fwd_*, layers.attention.fwd_*, "
    "tensor.conv1d_ms and tensor.conv1d_gflop_per_s on predict-default, the "
    "same forward figures on train-default (its validation passes) and "
    "train.evaluate_ms are wall times of work spread over several threads; do "
    "not compare them across that change. perfbench/tracing.py keeps one span "
    "stack per process and takes a span's index before appending it, so a "
    "traced function called on another thread would get a wrong parent and "
    "could take another span's end: the worker threads call numpy alone, and "
    "every traced span stays on the calling thread.",
    "Training runs every step in one tensor.threads(cpus()) block since "
    "train splits each step's tap table and conv backward taps by tap and "
    "Adam's blocks by runs of blocks across all CPUs, so on train-default "
    "tensor.conv1d_backward_ms, train.adam_ms_per_step, layers.conv.* and "
    "layers.attention.fwd_* (and tensor.conv1d_ms, tensor.conv1d_gflop_per_s) "
    "are wall times of work spread over several threads; do not compare them "
    "across that change.",
    "clean_corpus is a generator since predict makes the same corpus calls "
    "as eval (encode_corpus(clean_corpus(...))). The tracer closes a span when "
    "its function returns, and a generator function returns at once, so the "
    "hcms.corpus.clean_corpus span is empty on every workload and its loop "
    "time counts in the caller's module: cli._cleaned's list comprehension "
    "(cli.self_ms) on train-default, encode_corpus on predict-default, where "
    "the hcms.corpus.clean spans now nest in encode_corpus, so "
    "corpus.encode_ms includes the cleaning time that corpus.clean_ms also "
    "counts. Do not compare corpus.clean_ms, corpus.self_ms, cli.self_ms or "
    "predict-default's corpus.encode_ms across that change.",
    "predict parses its input a window of records at a time through the "
    "generator hcms.corpus.iter_conll_file since predict streams its input, "
    "and calls neither read_conll_file nor parse_conll, and it takes each "
    "window's cleaned records before encode_corpus. So on predict-default "
    "corpus.parse_ms reads about 0, corpus.records and corpus.tokens read 0, "
    "the parse's time counts in cli.cmd_predict (cli.self_ms), and the "
    "hcms.corpus.clean spans nest in cli.cmd_predict, so corpus.encode_ms no "
    "longer includes the cleaning. train-default's corpus calls are "
    "unchanged. Do not compare predict-default's corpus.parse_ms, "
    "corpus.encode_ms, corpus.records, corpus.tokens, corpus.self_ms or "
    "cli.self_ms across that change.",
    "EmbeddingLayer.backward scatters nothing since the embedding gradient is "
    "row-sparse (the batch's distinct rows and their sums, with no [vocab, dim] "
    "gradient): adam_step adds the rows into each block of its update, and "
    "train.check_gradient reads the rest of the store's gradient and the rows' "
    "sums instead of a gradient of the whole store. So on both workloads "
    "layers.embedding.bwd_us_per_ex no longer includes the scatter, "
    "train.adam_ms_per_step does, and train.self_ms holds a smaller gradient "
    "check; do not compare them across that change. train.adam_scalars still "
    "counts the whole store.",
    "Each layer's forward is one fan-out by examples since the conv block's "
    "ReLU, length mask and max-pool run in tensor.conv1d's slices and the "
    "attention's sigmoid, self mask, softmax and Q @ C in its pair-score "
    "slices: on both workloads (training steps and validation passes too) "
    "tensor.conv1d_ms and tensor.conv1d_gflop_per_s now hold the ReLU and "
    "pooling, and hcms.tensor.relu, maxpool1d, sigmoid and softmax spans no "
    "longer appear under the layers' forwards (tensor.self_ms moves with "
    "them). predict and eval parse, clean and encode through one generator, "
    "hcms.corpus.encode_records, whose span is empty, so on predict-default "
    "corpus.clean_ms and corpus.encode_ms read 0 and that work counts in "
    "cli.self_ms. Do not compare tensor.conv1d_ms, tensor.conv1d_gflop_per_s, "
    "tensor.self_ms, corpus.clean_ms, corpus.encode_ms, corpus.self_ms or "
    "cli.self_ms across that change.",
    "train reads its files as predict does since its vocabulary is built "
    "from the memo that encodes it (hcms.corpus.TokenIds.fit): the train and "
    "validation files are parsed by the generator hcms.corpus.iter_conll_file "
    "and encoded by the generator hcms.corpus.encode_records, whose spans are "
    "empty, and build_vocab, clean_corpus and encode_corpus are no longer "
    "called. So on train-default corpus.parse_ms, corpus.clean_ms, "
    "corpus.encode_ms and corpus.vocab_ms read 0; the parse, the encoding and "
    "the validation file's cleaning count in cli.self_ms, and the training "
    "file's cleaning and the vocabulary's sort in the TokenIds.fit and "
    "Vocabulary.from_counts spans (corpus.self_ms). Do not compare "
    "train-default's corpus.parse_ms, corpus.clean_ms, corpus.encode_ms, "
    "corpus.vocab_ms, corpus.self_ms or cli.self_ms across that change.",
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


def time_suite(tree, args):
    """{"seconds", "exit"} of one `python <args>` run in tree: the seconds the
    run prints as its last line ("seconds <s>", an in-process timing), or else
    its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=tree, capture_output=True,
                          text=True, timeout=3600)
    seconds = time.perf_counter() - t0
    if (last := proc.stdout.strip().rpartition("\n")[2]).startswith("seconds "):
        seconds = float(last.split()[1])
    return {"seconds": seconds, "exit": proc.returncode}


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


def summarize_suite(pairs):
    """compare() of the seconds of pairs [(base_run, change_run)] of time_suite
    results, with every run's exit code."""
    return {**compare([b["seconds"] for b, _ in pairs], [c["seconds"] for _, c in pairs],
                      "lower"),
            "base_exit": [b["exit"] for b, _ in pairs],
            "change_exit": [c["exit"] for _, c in pairs]}


def format_row(group, name, s):
    ratio = "n/a" if s["ratio_median"] is None else f"{s['ratio_median']:.3f}"
    return (f"{group:<16} {name:<36} base {s['base_median']:.4g} "
            f"[{s['base_q1']:.4g}, {s['base_q3']:.4g}]  change {s['change_median']:.4g} "
            f"[{s['change_q1']:.4g}, {s['change_q3']:.4g}]  ratio {ratio}  "
            f"wins {s['wins']}/{s['pairs']} ({s['better']} is better)")


def format_table(record):
    rows = [format_row(workload, name, s)
            for workload, groups in record["workloads"].items()
            for group in groups.values() for name, s in group.items()]
    rows += [format_row("suite seconds", name, s) + f"  exits base {s['base_exit']} "
             f"change {s['change_exit']}" for name, s in record.get("suites", {}).items()]
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
    ap.add_argument("--traced", type=int, default=0,
                    help="traced runs per side and workload (rounded up to even)")
    args = ap.parse_args(argv)
    traced = args.traced + args.traced % 2  # each side first in half the pairs
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
                           "traced": traced, "suite_pairs": SUITE_PAIRS,
                           "order": "base first on even pairs"},
              "workloads": {}, "suites": {}, "notes": NOTES}
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
            if traced:
                groups["per_layer"] = aggregate(
                    [pair(i, workload, seeds[0], True) for i in range(traced)],
                    SPEC["per_layer"])
            record["workloads"][workload] = groups
        suite_runs = {name: [] for name in SUITES}
        for i in range(SUITE_PAIRS):
            for name, suite in SUITES.items():
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                runs = {side: time_suite(sides[side], suite) for side in order}
                print(f"{name} pair {i} " + " ".join(
                    f"{side}={run['seconds']:.1f}s exit {run['exit']}"
                    for side, run in runs.items()), file=sys.stderr)
                suite_runs[name].append((runs["base"], runs["change"]))
        record["suites"] = {name: summarize_suite(pairs)
                            for name, pairs in suite_runs.items()}
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
