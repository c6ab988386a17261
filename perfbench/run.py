#!/usr/bin/env python3
"""netrel end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds `netrel` and
the benchmark's tracer with dune, generates the workload's graph once
(cached under .perfbench/) and its query file from --seed, then:

  --trace 0  runs `netrel serve -g GRAPH --jobs 1` as one closed-loop
             client with one outstanding request, timing each request
             from writing the query line to reading the full reply line,
             checks every reply, and reports the end-to-end metrics.
  --trace 1  replays the same query file in-process through the tracer
             (spans around each layer's public function, see
             perfbench/tracer/tracer.ml), times memo-hit replies of a
             short serve session, and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Lines before it describe the run (tail percentile, answer
digest, machine fingerprint). See perfbench/NOTES.md for the workloads
and what each metric is expected to move with.
"""

import argparse
import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

NETREL = os.path.join("_build", "default", "bin", "netrel_cli.exe")
TRACER = os.path.join("_build", "default", "perfbench", "tracer", "tracer.exe")
WORK = ".perfbench"
RUN_LIMIT_S = 165.0  # the whole run must end within 180 s
MASK = (1 << 64) - 1


class Fail(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


# ---- seeded generation -------------------------------------------------


class Rng:
    """SplitMix64: the same seed gives the same inputs on any Python."""

    def __init__(self, seed):
        self.s = seed & MASK

    def next(self):
        self.s = (self.s + 0x9E3779B97F4A7C15) & MASK
        z = self.s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def shuffle(self, xs):
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]
        return xs

    def terminals(self, n_vertices, k):
        picked = []
        while len(picked) < k:
            v = self.below(n_vertices)
            if v not in picked:
                picked.append(v)
        return picked

    def query_seed(self):
        return 1 + self.below(1 << 30)


def line(terminals, method, samples, width, seed, kernel=None):
    q = "terminals=%s method=%s samples=%d width=%d seed=%d" % (
        ",".join(map(str, terminals)), method, samples, width, seed)
    return q + (" kernel=%s" % kernel if kernel else "")


def gen_road_cold(rng, n_vertices, blocks):
    """Pro(MC) at the Fig. 3 setting, every terminal set fresh."""
    out = []
    for _ in range(blocks):
        for k in rng.shuffle([5, 10, 20]):
            out.append(line(rng.terminals(n_vertices, k), "pro", 10000, 1000,
                            rng.query_seed()))
    return out


# Six Pro and six sampler queries per block, each budget chosen so that
# every query costs about the same (~0.6 s on the reference machine): the
# latencies then form one group, and the median and the tail percentile
# do not sit on a boundary between a cheap and an expensive method.
DENSE_BLOCK = ([("pro", 3000, 1000, None)] * 3 + [("pro-ht", 3000, 1000, None)] * 3
               + [("sampling-mc", 250, 1000, None)] * 3
               + [("sampling-mc", 768, 1000, "bitsliced")]
               + [("sampling-ht", 150, 1000, None)] * 2)


def gen_dense_methods(rng, n_vertices, blocks):
    """The Pro-vs-Sampling method mix, fixed proportions, seeded order,
    every terminal set fresh. k is balanced over {5, 10, 20} for the
    samplers and over {10, 20} for Pro: Pro at k=5 has a heavy cost tail
    that would set the median and tail on its own."""
    out = []
    for b in range(blocks):
        block = [(m, s, w, kern,
                  [10, 20][(b + i) % 2] if m.startswith("pro") else [5, 10, 20][(b + i) % 3])
                 for i, (m, s, w, kern) in enumerate(DENSE_BLOCK)]
        for m, s, w, kern, k in rng.shuffle(block):
            out.append(line(rng.terminals(n_vertices, k), m, s, w,
                            rng.query_seed(), kern))
    return out


SESSION_RECENT = 8
# k=20 only: at k=10 the cost of a miss varies three times as much between
# terminal sets (CV 0.3-0.44 against 0.11-0.15) and has a heavy tail.
SESSION_K = 20


def gen_serve_session(rng, n_vertices, blocks):
    """One long Pro session: each block of three is, in seeded order, an
    exact repeat of an earlier query (result-memo hit), one of the last
    SESSION_RECENT fresh terminal sets with a new seed (preprocessing hit,
    construction redone) and a fresh terminal set (full miss). Revisits
    spread over all fresh sets of the run, so no handful of sets drawn by
    the seed sets the cost of a third of the session."""
    recent, out = [], []
    for b in range(blocks):
        for kind in rng.shuffle(["repeat", "hot", "fresh"]):
            if kind == "repeat" and out:
                out.append(out[rng.below(len(out))])
                continue
            if kind == "hot" and recent:
                ts = recent[rng.below(len(recent))]
            else:  # fresh, or nothing to revisit yet
                ts = rng.terminals(n_vertices, SESSION_K)
                recent = (recent + [ts])[-SESSION_RECENT:]
            out.append(line(ts, "pro", 10000, 3000, rng.query_seed()))
    return out


# Each workload: dataset (built-in, library seed), scale, the graph format
# serve reads, the query generator, its block size and the nominal
# seconds one block takes on the reference machine, and how many times
# set-up is measured per run.
WORKLOADS = {
    "road-cold": dict(dataset="nyc", scale="16", fmt="txt", gen=gen_road_cold,
                      block_s=3.8, setups=7),
    "dense-methods": dict(dataset="dblp1", scale="4", fmt="nrb",
                          gen=gen_dense_methods, block_s=7.0, setups=25),
    "serve-session": dict(dataset="dblp2", scale="1", fmt="nrb",
                          gen=gen_serve_session, block_s=0.45, setups=25),
}


def blocks_for(spec, seconds):
    """Fixed query count for a given --seconds, so that a seed always
    gives the same work (and the same answers) however fast the program
    runs."""
    return max(1, int(round(seconds / spec["block_s"])))


# ---- build and inputs ----------------------------------------------------


def run_quiet(cmd, timeout):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       timeout=timeout)
    if p.returncode != 0:
        raise Fail("%s failed:\n%s" % (" ".join(cmd), p.stdout.decode(errors="replace")))
    return p.stdout.decode(errors="replace")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        raise Fail("not a netrel source checkout (no dune-project, lib/, bin/)")
    run_quiet(["dune", "build", "--root", ".", "bin/netrel_cli.exe",
               "perfbench/tracer/tracer.exe"], timeout=850)


def graph_files(spec):
    d = os.path.join(WORK, "inputs")
    os.makedirs(d, exist_ok=True)
    stem = os.path.join(d, "%s-x%s" % (spec["dataset"], spec["scale"]))
    text, nrb = stem + ".txt", stem + ".nrb"
    stamp = os.path.getmtime(TRACER)
    if not all(os.path.exists(f) and os.path.getmtime(f) >= stamp
               for f in (text, nrb)):
        run_quiet([TRACER, "gen", spec["dataset"], spec["scale"], text, nrb],
                  timeout=120)
    return text, nrb


def vertex_count(text):
    with open(text) as f:
        for raw in f:
            s = raw.strip()
            if s and not s.startswith("#"):
                return int(s.split()[0])
    raise Fail("empty graph file " + text)


def query_file(name, spec, seed, seconds, n_vertices):
    path = os.path.join(WORK, "inputs", "%s-seed%d-%ds.queries" % (name, seed, seconds))
    mix = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")
    lines = spec["gen"](Rng(mix ^ seed), n_vertices, blocks_for(spec, seconds))
    with open(path + ".tmp", "w") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(path + ".tmp", path)
    return path, lines


# ---- the serve client ----------------------------------------------------


class Serve:
    """`netrel serve` as a child process; one outstanding request."""

    def __init__(self, graph, deadline):
        self.deadline = deadline
        self.buf = b""
        self.err = open(os.path.join(WORK, "serve.stderr"), "ab")
        t0 = time.perf_counter()
        self.p = subprocess.Popen([NETREL, "serve", "-g", graph, "--jobs", "1"],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=self.err)
        stats = self.request("stats")
        self.setup_s = time.perf_counter() - t0
        if not stats or "engine" not in json.loads(stats):
            self.close()
            raise Fail("serve did not answer its first stats line")

    def request(self, text):
        """Send one line, return the reply line (None on EOF/deadline)."""
        try:
            self.p.stdin.write(text.encode() + b"\n")
            self.p.stdin.flush()
        except BrokenPipeError:
            return None
        fd = self.p.stdout.fileno()
        while b"\n" not in self.buf:
            left = self.deadline - time.monotonic()
            if left <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        reply, self.buf = self.buf.split(b"\n", 1)
        return reply.decode()

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.p.pid) as f:
            for s in f:
                if s.startswith("VmHWM:"):
                    return int(s.split()[1]) / 1024.0
        return float("nan")

    def close(self):
        try:
            self.p.stdin.write(b"quit\n")
            self.p.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        try:
            self.p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.p.kill()
            self.p.wait()
        self.p.stdout.close()
        self.err.close()


# ---- answer checks -------------------------------------------------------


def parse_line(q):
    kv = dict(tok.split("=", 1) for tok in q.split())
    return ([int(t) for t in kv["terminals"].split(",")], kv["method"],
            int(kv["seed"]))


def valid_interval(v, lo, hi):
    return (all(isinstance(x, (int, float)) and math.isfinite(x) for x in (v, lo, hi))
            and 0.0 <= lo <= v <= hi <= 1.0)


def check_reply(q, reply, first_answer):
    """(ok, answer tuple or None, result object or None)."""
    try:
        doc = json.loads(reply)
        run, res = doc["run"], doc["result"]
        ts, method, seed = parse_line(q)
        ans = (res["value"], res["lower"], res["upper"])
    except (TypeError, ValueError, KeyError):
        return False, None, None
    ok = (run.get("terminals") == ts and run.get("method") == method
          and run.get("seed") == seed and valid_interval(*ans))
    if q in first_answer and first_answer[q] != res:
        ok = False  # a repeat must be bit-identical to its first answer
    return ok, ans, res


def answer_digest(answers):
    h = hashlib.sha256()
    for a in answers:
        h.update(("%r %r %r\n" % a).encode())
    return h.hexdigest()[:16]


def tail(latencies):
    """The highest percentile with at least ten latencies beyond it
    (nearest rank n - 10); the maximum when there are fewer than 11."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


# ---- machine fingerprint -------------------------------------------------


def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    return [int(x) for x in fields]


def fingerprint_start():
    return {"cpu": cpu_times(), "load": open("/proc/loadavg").read().split()[:3]}


def fingerprint(start):
    def cmd(args):
        try:
            return subprocess.run(args, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, timeout=20
                                  ).stdout.decode().strip()
        except (OSError, subprocess.TimeoutExpired):
            return ""

    commit = cmd(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else ""
    src = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for fn in sorted(files):
                if fn.endswith((".ml", ".mli", "dune")):
                    with open(os.path.join(d, fn), "rb") as f:
                        src.update(fn.encode() + f.read())
    config = cmd(["ocamlfind", "ocamlopt", "-config"]) or cmd(["ocamlopt", "-config"])
    conf = dict(s.split(": ", 1) for s in config.splitlines() if ": " in s)
    model = ""
    with open("/proc/cpuinfo") as f:
        for s in f:
            if s.startswith("model name"):
                model = s.split(":", 1)[1].strip()
                break
    end = cpu_times()
    ticks = [b - a for a, b in zip(start["cpu"], end)]
    steal = ticks[7] if len(ticks) > 7 else 0
    return {
        "commit": commit or "unknown",
        "source_sha256": src.hexdigest()[:16],
        "ocaml": conf.get("version", "unknown"),
        "flambda": conf.get("flambda", "unknown"),
        "cpu": model,
        "nproc": os.cpu_count(),
        "loadavg_start": start["load"],
        "loadavg_end": open("/proc/loadavg").read().split()[:3],
        "steal_ticks": steal,
        "steal_frac": steal / max(1, sum(ticks)),
    }


# ---- the two kinds of run ------------------------------------------------


def end_to_end(spec, graph, qpath, queries, deadline):
    setups = []
    for _ in range(spec["setups"] - 1):
        s = Serve(graph, deadline)
        setups.append(s.setup_s)
        s.close()
    s = Serve(graph, deadline)
    setups.append(s.setup_s)
    latencies, answers, first = [], [], {}
    ok = 0
    t_start = time.perf_counter()
    for q in queries:
        t0 = time.perf_counter()
        reply = s.request(q)
        t1 = time.perf_counter()
        if reply is None:
            break  # EOF or out of time: the rest count as failed
        latencies.append(t1 - t0)
        good, ans, res = check_reply(q, reply, first)
        ok += good
        if ans is not None:
            answers.append(ans)
            first.setdefault(q, res)
    wall = time.perf_counter() - t_start
    rss = s.vm_hwm_mb()
    s.close()
    os.makedirs(os.path.join(WORK, "logs"), exist_ok=True)
    with open(os.path.join(WORK, "logs", os.path.basename(qpath) + ".tsv"), "w") as f:
        for q, dt in zip(queries, latencies):
            f.write("%.6f\t%s\n" % (dt, q))
    if not latencies:
        raise Fail("serve answered no query")
    t_val, t_pct, n = tail(latencies)
    widths = [hi - lo for _, lo, hi in answers]
    info = {
        "tail_percentile": round(t_pct, 2),
        "latency_count": n,
        "answer_digest": answer_digest(answers),
        "interval_width_mean": sum(widths) / max(1, len(widths)),
        "setup_samples_s": setups,
    }
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "queries_per_s": (len(latencies) / wall, "1/s"),
        "query_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "query_ms_tail": (t_val * 1e3, "ms"),
        "ok_frac": (ok / len(queries), "ratio"),
        "rss_peak_mb": (rss, "MB"),
    }
    return ok, len(queries), metrics, info


def traced(spec, graph, text, nrb, qpath, queries, deadline):
    os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
    spans = os.path.join(WORK, "spans", os.path.basename(qpath) + ".jsonl")
    left = deadline - time.monotonic()
    out = run_quiet([TRACER, "replay", graph, text, nrb, qpath, spans],
                    timeout=max(1.0, left))
    rep = json.loads(out.strip().splitlines()[-1])
    answers = [tuple(a) for a in rep["answers"]]
    first, ok = {}, 0
    for q, a in zip(queries, answers):
        good = valid_interval(*a) and first.setdefault(q, a) == a
        ok += good
    metrics = {k: (v["value"], v["unit"]) for k, v in rep["metrics"].items()}
    coverage = metrics["trace.self_time_coverage"][0]
    # Memo-hit reply latency at the client: one miss, then its repeats.
    # The miss must give the answer the in-process replay gave.
    s = Serve(graph, deadline)
    first_reply = s.request(queries[0])
    _, serve_answer, _ = check_reply(queries[0], first_reply, {})
    hits = []
    for _ in range(200):
        t0 = time.perf_counter()
        reply = s.request(queries[0])
        hits.append(time.perf_counter() - t0)
        ok += same_reply(first_reply, reply)
    s.close()
    metrics["serve.hit_reply_us"] = (statistics.median(hits) * 1e6, "us")
    checks_ok = (rep["replica_mismatches"] == 0 and abs(coverage - 1.0) <= 0.10
                 and serve_answer == answers[0])
    info = {
        "answer_digest": answer_digest(answers),
        "replica_mismatches": rep["replica_mismatches"],
        "self_time_coverage": coverage,
        "spans": spans,
    }
    return ok, len(queries) + 200, metrics, info, checks_ok


def same_reply(a, b):
    """Whether two replies agree in everything but run.seconds."""
    try:
        da, db = json.loads(a), json.loads(b)
        del da["run"]["seconds"], db["run"]["seconds"]
    except (TypeError, ValueError, KeyError):
        return False
    return da == db


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = WORKLOADS[args.workload]
    try:
        build()
        deadline = time.monotonic() + RUN_LIMIT_S
        fp0 = fingerprint_start()
        text, nrb = graph_files(spec)
        graph = text if spec["fmt"] == "txt" else nrb
        qpath, queries = query_file(args.workload, spec, args.seed, args.seconds,
                                    vertex_count(text))
        if args.trace:
            ok, attempted, metrics, info, checks_ok = traced(
                spec, graph, text, nrb, qpath, queries, deadline)
        else:
            ok, attempted, metrics, info = end_to_end(spec, graph, qpath, queries, deadline)
            checks_ok = True
        info["fingerprint"] = fingerprint(fp0)
    except (Fail, subprocess.TimeoutExpired, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(2)
    info["workload"], info["seed"], info["queries"] = args.workload, args.seed, len(queries)
    print("run: " + json.dumps(info, sort_keys=True))
    result = {
        "correct": checks_ok and ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
