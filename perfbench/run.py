#!/usr/bin/env python3
"""End-to-end benchmark of the `commsig` CLI on four paper workloads.

Run from the repository root:

    python3 perfbench/run.py --workload selfmatch_tt --seed 42 \
        --seconds 15 --trace 0

The script builds `commsig` and `perfbench_tool` from source into
`.bench_build/`, generates the workload's corpus from the seed (cached by
corpus configuration and seed), and then, for `--seconds`, runs the real
`commsig` command one process at a time, checking every output.

--trace 0 prints the end-to-end metrics: wall time, CPU time and peak RSS of
the command, set-up time (parse + window build, timed in-process), the mean
top-k Jaccard of its signatures against the benchmark's exact reference, and
the share of runs that passed every check.

--trace 1 follows each command run with a traced replay of the command's
library calls and prints the per-layer metrics of the median replay: each
layer's time, counts and self-time share of the command's wall time, and
`cli.dark_s`, the part of that wall time no layer accounts for. The replay's
spans are written to .bench_build/traces/ as a Chrome trace.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
See perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
CLI = CMAKE_DIR / "commsig" / "tools" / "commsig"
TOOL = CMAKE_DIR / "perfbench_tool"

WINDOW_LENGTH = 432000  # 5 days, the generator's window
MIN_REPS = 3            # command runs per benchmark run, even past --seconds
SETUP_MIN_REPS = 3      # in-process set-up repetitions for setup_s, and
SETUP_MIN_MS = 2000     # at least this long in total
RUN_TIMEOUT_S = 120     # one tool or command process
DEADLINE_S = 170        # the whole benchmark run, build excluded
CORPUS_CACHE_KEEP = 3   # cached seeds kept per corpus configuration

# Corpus configurations: FlowTraceGenerator local hosts, external hosts,
# windows, and the exact references the workloads on it need.
CORPORA = {
    "full": {
        "S": (300, 20000, 6, "rwr_w0"),
        "M": (3000, 100000, 6, "tt_windows,stream"),
        "L": (3000, 100000, 30, "tt_windows"),
    },
    # For perfbench/smoke_test.py: every code path in a second or two.
    "tiny": {
        "S": (40, 2000, 3, "rwr_w0"),
        "M": (200, 5000, 3, "tt_windows,stream"),
        "L": (200, 5000, 6, "tt_windows"),
    },
}

# Every flag not listed stays at the CLI default (--threads 1,
# --parse-workers 0, --k 10).
WORKLOADS = {
    "timeline_load": ("L", ["timeline", "--scheme", "tt"]),
    "selfmatch_tt": ("M", ["selfmatch", "--scheme", "tt", "--dist", "shel"]),
    "paper_rwr": ("S", ["signatures", "--scheme", "rwr(c=0.1)"]),
    "stream_checkpoint": ("M", ["stream", "--checkpoint-every", "100000"]),
}
EXACT = {"timeline_load", "selfmatch_tt", "paper_rwr"}
# The reference signatures each workload's output is compared with (corpus
# M's reference serves two workloads).
REFERENCE_KEYS = {
    "timeline_load": lambda key: True,
    "selfmatch_tt": lambda key: key.startswith(("w0\t", "w1\t")),
    "paper_rwr": lambda key: True,
    "stream_checkpoint": lambda key: key.endswith(("\ttt", "\tut")),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "sig_jaccard": "ratio",
    "ok_frac": "ratio",
}

LAYERS = ["ingest", "graph", "core.scheme", "core.rwr", "core.incremental",
          "eval", "sketch", "robust"]

PER_LAYER_UNITS = {
    "ingest.parse_s": "s", "ingest.events": "count",
    "ingest.mb_per_s": "MB/s", "ingest.rejected": "count",
    "graph.window_build_s": "s", "graph.windows": "count",
    "graph.edges": "count", "graph.dropped_events": "count",
    "core.scheme_s": "s", "core.signatures_built": "count",
    "core.rwr_s": "s", "core.rwr_iterations": "count",
    "core.rwr_dense_iterations": "count",
    "core.rwr_iters_per_source": "count", "core.rwr_fallbacks": "count",
    "core.incremental_s": "s", "core.nodes_dirty": "count",
    "core.nodes_reused": "count", "core.reuse_ratio": "ratio",
    "eval.selfmatch_roc_s": "s", "eval.properties_s": "s",
    "eval.persistence_s": "s", "core.distance_evals": "count",
    "core.distance_evals_per_s": "1/s",
    "sketch.observe_s": "s", "sketch.extract_s": "s",
    "sketch.updates": "count", "sketch.ss_evictions": "count",
    "sketch.memory_mb": "MB",
    "robust.supervisor_s": "s", "robust.checkpoint_s": "s",
    "robust.checkpoint_mb": "MB", "robust.checkpoints": "count",
    "robust.checkpoint_failures": "count", "robust.epoch_retries": "count",
    "cli.dark_s": "s", "trace.replay_s": "s",
}
PER_LAYER_UNITS.update(
    {f"{layer}.share": "ratio" for layer in LAYERS + ["cli"]})


class BenchError(Exception):
    """A failure that leaves no measurement to report."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------

def build():
    """Configures and builds the CLI and the tool; fails without the repo."""
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR)] +
                     generator)
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target",
                  "commsig_cli", "perfbench_tool", "--parallel", "4"])
    with open(build_log, "wb") as out:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                shutil.rmtree(CMAKE_DIR, ignore_errors=True)
                tail = build_log.read_text(errors="replace")[-2000:]
                raise BenchError(f"build failed: {' '.join(step)}\n{tail}")


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# --- corpora ----------------------------------------------------------------

def corpus(scale, name, seed):
    """Returns (csv path, reference path) for corpus `name` at `seed`.

    Corpora are cached under .bench_build/corpora by configuration, seed and
    tool build; a cached corpus whose files no longer match the fingerprint
    recorded at generation is refused and regenerated.
    """
    local, external, windows, refs = CORPORA[scale][name]
    tool_id = sha256(TOOL)[:12]
    key = f"{name}-{local}x{external}x{windows}-seed{seed}-{tool_id}"
    cache = BUILD / "corpora"
    directory = cache / key
    csv, ref, meta_path = (directory / "trace.csv", directory / "ref.tsv",
                           directory / "meta.json")
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if (meta.get("csv_sha256") == sha256(csv) and
                meta.get("ref_sha256") == sha256(ref)):
            os.utime(directory)
            log(f"corpus {name} seed {seed} (cached): {meta['events']} "
                f"events, {meta['nodes']} nodes, {meta['bytes']} bytes")
            return csv, ref
        log(f"corpus {name} seed {seed}: cached copy fails its fingerprint, "
            "regenerating")
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    out = subprocess.run(
        [str(TOOL), "gen", "--local", str(local), "--external", str(external),
         "--windows", str(windows), "--seed", str(seed),
         "--window-length", str(WINDOW_LENGTH), "--out-csv", str(csv),
         "--out-ref", str(ref), "--ref", refs],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError(f"corpus generation failed: {out.stderr}")
    meta = json.loads(out.stdout.strip().splitlines()[-1])
    meta.update(csv_sha256=sha256(csv), ref_sha256=sha256(ref))
    meta_path.write_text(json.dumps(meta))
    log(f"corpus {name} seed {seed}: {meta['events']} events, "
        f"{meta['nodes']} nodes, {meta['bytes']} bytes")
    siblings = sorted(cache.glob(f"{name}-{local}x{external}x{windows}-*"),
                      key=lambda p: p.stat().st_mtime, reverse=True)
    for old in siblings[CORPUS_CACHE_KEEP:]:
        shutil.rmtree(old, ignore_errors=True)
    return csv, ref


# --- running the command ---------------------------------------------------

def run_process(argv, stdout_path, stderr_path, timeout):
    """Runs one process to completion; returns rc, wall, CPU and peak RSS."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err)
        lock = threading.Lock()
        state = {"done": False, "timed_out": False}

        def kill():
            with lock:
                if not state["done"]:
                    state["timed_out"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        with lock:
            state["done"] = True
        wall = time.perf_counter() - start
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "timed_out": state["timed_out"],
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is KiB
    }


def tool_json(args):
    out = subprocess.run([str(TOOL)] + args, cwd=ROOT, capture_output=True,
                         text=True, timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError(f"perfbench_tool {args[0]} failed: {out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


# --- output checks ----------------------------------------------------------

def parse_signatures(text):
    """`key<TAB>{label:w, ...}` lines -> {key: [labels]}."""
    sigs = {}
    for line in text.splitlines():
        key, _, sig = line.rpartition("\t")
        if not sig.startswith("{") or not sig.endswith("}"):
            raise ValueError(f"not a signature line: {line!r}")
        body = sig[1:-1]
        sigs[key] = ([entry.rpartition(":")[0] for entry in body.split(", ")]
                     if body else [])
    return sigs


def load_reference(path, wanted):
    """ref.tsv lines `key<TAB>top labels<TAB>tied labels` -> {key: (R, T)}
    for the keys `wanted` accepts."""
    ref = {}
    for line in Path(path).read_text().splitlines():
        key, top, tied = line.rsplit("\t", 2)
        if wanted(key):
            ref[key] = (top.split(","),
                        set(tied.split(",")) if tied else set())
    return ref


def mean_jaccard(sigs, ref):
    """Mean top-k Jaccard against the reference; a label tied with the
    reference's k-th weight counts as a match."""
    scores = []
    for key in set(sigs) | set(ref):
        got = set(sigs.get(key, []))
        top, tied = ref.get(key, ([], set()))
        if not got and not top:
            continue
        matches = min(len(got & (set(top) | tied)), len(top))
        scores.append(matches / (len(got) + len(top) - matches))
    return statistics.fmean(scores) if scores else 0.0


NUMBER = r"(-?\d+\.\d+)"


def close(printed, value):
    """A %.4f-printed number equals the computed one up to rounding."""
    return abs(float(printed) - value) <= 6e-5


def check_timeline(text, values):
    header = re.search(r"windows=(\d+) .* focal=(\d+)", text)
    transitions = re.findall(rf"transition \d+->\d+  persistence {NUMBER} "
                             rf"\+- {NUMBER}", text)
    lags = re.findall(rf"lag \d+  persistence {NUMBER} \+- {NUMBER}  "
                      r"\((\d+) pair", text)
    return (header is not None and
            int(header.group(1)) == values["windows"] and
            int(header.group(2)) == values["focal"] and
            len(transitions) == len(values["transitions"]) and
            all(close(m, v[0]) and close(s, v[1])
                for (m, s), v in zip(transitions, values["transitions"])) and
            len(lags) == len(values["lags"]) and
            all(close(m, v[0]) and close(s, v[1]) and int(n) == v[2]
                for (m, s, n), v in zip(lags, values["lags"])))


def check_selfmatch(text, values):
    auc = re.search(rf"self-match AUC\s+{NUMBER}", text)
    pers = re.search(rf"persistence\s+{NUMBER} \+- {NUMBER}", text)
    uniq = re.search(rf"uniqueness\s+{NUMBER} \+- {NUMBER}", text)
    return (auc is not None and pers is not None and uniq is not None and
            close(auc.group(1), values["auc"]) and
            close(pers.group(1), values["persistence"][0]) and
            close(pers.group(2), values["persistence"][1]) and
            close(uniq.group(1), values["uniqueness"][0]) and
            close(uniq.group(2), values["uniqueness"][1]))


class Workload:
    """One workload's command, output check and metrics for one run."""

    def __init__(self, name, scale, seed, tmp):
        self.name = name
        corpus_name, self.argv = WORKLOADS[name]
        self.csv, self.ref_path = corpus(scale, corpus_name, seed)
        self.tmp = tmp
        self.seed = seed
        self.reference = None
        self.expected_text = None   # exact output every run must print
        self.values = None          # replay's numbers, for timeline/selfmatch
        self.jaccard = None
        self.runs = 0

    def command(self, checkpoint_dir=None):
        argv = [str(CLI), self.argv[0], "--trace", str(self.csv),
                "--window-length", str(WINDOW_LENGTH)] + self.argv[1:]
        if checkpoint_dir is not None:
            argv += ["--checkpoint-dir", str(checkpoint_dir)]
        return argv

    def run_replay(self, trace_out=None):
        """Replays the command's library calls once; returns the parsed
        report and the replay's signature dump."""
        dump = self.tmp / "replay_dump.tsv"
        args = ["replay", "--workload", self.name, "--csv", str(self.csv),
                "--window-length", str(WINDOW_LENGTH), "--tmp-dir",
                str(self.tmp), "--dump", str(dump), "--run-id", str(self.seed)]
        if trace_out is not None:
            args += ["--trace-out", str(trace_out)]
        return tool_json(args), dump.read_text()

    def prepare(self):
        """Computes what every command run is checked against."""
        self.reference = load_reference(self.ref_path,
                                        REFERENCE_KEYS[self.name])
        if self.name in ("timeline_load", "selfmatch_tt"):
            # The command prints numbers derived from its signatures: the
            # replay (same library calls) gives both, and each run's numbers
            # must match the replay's.
            report, dump = self.run_replay()
            self.values = report["values"]
            self.jaccard = mean_jaccard(parse_signatures(dump), self.reference)
        elif self.name == "stream_checkpoint":
            # Checkpointing must not change what `stream` prints.
            res = run_process(self.command(), self.tmp / "plain.out",
                              self.tmp / "plain.err", RUN_TIMEOUT_S)
            if res["rc"] != 0:
                raise BenchError("stream without --checkpoint-dir failed")
            self.expected_text = (self.tmp / "plain.out").read_text()
            self.jaccard = mean_jaccard(parse_signatures(self.expected_text),
                                        self.reference)

    def run_once(self, timeout):
        """One command run: its measurements and whether it passed."""
        self.runs += 1
        ckpt = None
        if self.name == "stream_checkpoint":
            ckpt = self.tmp / f"ckpt-{self.runs}"
            shutil.rmtree(ckpt, ignore_errors=True)  # fresh and empty
        out_path = self.tmp / "run.out"
        res = run_process(self.command(ckpt), out_path, self.tmp / "run.err",
                          timeout)
        text = out_path.read_text(errors="replace")
        ok = res["rc"] == 0 and not res["timed_out"]
        if ok and self.name == "timeline_load":
            ok = check_timeline(text, self.values)
        elif ok and self.name == "selfmatch_tt":
            ok = check_selfmatch(text, self.values)
        elif ok and self.name == "paper_rwr":
            if self.expected_text is None:
                self.jaccard = mean_jaccard(parse_signatures(text),
                                            self.reference)
                self.expected_text = text
            ok = text == self.expected_text
        elif ok and self.name == "stream_checkpoint":
            ok = (text == self.expected_text and
                  any(ckpt.glob("*.ckpt")))
        if ckpt is not None:
            shutil.rmtree(ckpt, ignore_errors=True)
        if ok and self.name in EXACT:
            ok = self.jaccard is not None and self.jaccard >= 1.0 - 1e-12
        if not ok:
            log(f"{self.name}: run {self.runs} failed the check "
                f"(rc {res['rc']}, timed out {res['timed_out']}); "
                f"stderr in {self.tmp / 'run.err'}")
        res["ok"] = ok
        return res


def per_layer_metrics(replay, wall_s):
    metrics = dict(replay["metrics"])
    self_s = replay["self_s"]
    attributed = 0.0
    for layer in LAYERS:
        metrics[f"{layer}.share"] = self_s.get(layer, 0.0) / wall_s
        attributed += self_s.get(layer, 0.0)
    metrics["cli.dark_s"] = wall_s - attributed
    metrics["cli.share"] = metrics["cli.dark_s"] / wall_s
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(CORPORA), default="full",
                        help="corpus size; tiny is for the smoke test")
    args = parser.parse_args()

    try:
        build()
        started = time.monotonic()
        tmp = BUILD / "tmp" / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        try:
            result = measure(args, tmp, started)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


def measure(args, tmp, started):
    workload = Workload(args.workload, args.scale, args.seed, tmp)
    setup = []
    if not args.trace:
        setup = tool_json(["setup", "--workload", args.workload, "--csv",
                           str(workload.csv), "--window-length",
                           str(WINDOW_LENGTH), "--min-reps",
                           str(SETUP_MIN_REPS), "--min-ms",
                           str(SETUP_MIN_MS)])["setup_s"]
    workload.prepare()

    # With --trace 1 every command run is followed by a traced replay, so
    # both see the same host conditions; the median replay counts.
    runs, replays = [], []
    loop_start = time.monotonic()
    while (len(runs) < MIN_REPS or
           time.monotonic() - loop_start < args.seconds):
        left = started + DEADLINE_S - time.monotonic()
        step = max((r["wall_s"] for r in runs), default=0.0)
        if args.trace:
            step *= 2  # the replay takes about as long as the command
        if runs and left < 2 * step:
            break  # another step could overrun the deadline
        runs.append(workload.run_once(max(1.0, min(RUN_TIMEOUT_S, left))))
        if args.trace:
            trace = tmp / f"trace-{len(replays)}.json"
            replays.append((workload.run_replay(trace)[0], trace))
    passed = [r for r in runs if r["ok"]]
    failed = len(runs) - len(passed)
    measured = passed or runs
    wall_s = statistics.median(r["wall_s"] for r in measured)
    if args.trace:
        replays.sort(key=lambda r: r[0]["metrics"]["trace.replay_s"])
        report, trace = replays[len(replays) // 2]
        trace_out = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_out.parent.mkdir(exist_ok=True)
        shutil.copyfile(trace, trace_out)
        log(f"chrome trace: {trace_out}")
        values = per_layer_metrics(report, wall_s)
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(r["cpu_s"] for r in measured),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in measured),
            "setup_s": statistics.median(setup),
            "sig_jaccard": workload.jaccard or 0.0,
            "ok_frac": len(passed) / len(runs),
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
