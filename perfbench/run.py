#!/usr/bin/env python3
"""End-to-end benchmark of `dartmon analyze` and `dartmon serve`.

One run:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds `dartmon` (release) and the `perfbench` helper from the checkout,
generates the workload's input from the seed, and then either

* `--trace 0`: drives the `dartmon` binary with no tracing, checks its
  outputs against the oracle and prints every end-to-end metric, or
* `--trace 1`: runs the helper's traced in-process pass over the same
  input and prints every per-layer metric.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it, `report: {...}`, carries the
host fingerprint, per-operation counts, the input's make-up and the
serve-only figures (lag, scrape time, generator lateness).

Other modes:

    python3 perfbench/run.py --inputs --seed N     # regenerate, print make-up
    python3 perfbench/run.py --steady 10           # interleaved repeat runs

See perfbench/README.md for the workloads and the reference figures.
"""

import argparse
import fcntl
import json
import math
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import termios
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["analyze-native", "analyze-upload", "analyze-pcap", "serve-follow"]

# name -> (unit, better); the end-to-end metrics every --trace 0 run prints.
END_TO_END = {
    "pkts_per_s": ("1/s", "higher"),
    "cpu_ns_per_pkt": ("ns", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

# name -> (unit, better); the per-layer metrics every --trace 1 run prints.
PER_LAYER = {
    "tools.exec_ms": ("ms", "lower"),
    "tools.load_ns_per_pkt": ("ns", "lower"),
    "packet.decode_ns_per_pkt": ("ns", "lower"),
    "packet.alloc_bytes_per_pkt": ("B", "lower"),
    "packet.source_ns_per_pkt": ("ns", "lower"),
    "packet.source_reads_per_pkt": ("count", "lower"),
    "core.build_ms": ("ms", "lower"),
    "core.match_ns_per_pkt": ("ns", "lower"),
    "core.flush_ms": ("ms", "lower"),
    "core.slowpath_per_pkt": ("ratio", "lower"),
    "core.recirc_per_pkt": ("ratio", "lower"),
    "core.samples_per_kpkt": ("count", "higher"),
    "sharded.feed_ns_per_pkt": ("ns", "lower"),
    "sharded.drain_ms": ("ms", "lower"),
    "sharded.allocs_per_kpkt": ("count", "lower"),
    "daemon.start_ms": ("ms", "lower"),
    "daemon.ns_per_pkt": ("ns", "lower"),
    "telemetry.observe_ns": ("ns", "lower"),
    "telemetry.scrape_us": ("us", "lower"),
    "telemetry.exposition_bytes": ("B", "lower"),
    "telemetry.http_get_us": ("us", "lower"),
    "analytics.report_ns_per_sample": ("ns", "lower"),
}

# Header-only invocations whose median is an analyze workload's setup_s.
ANALYZE_SETUP_REPS = 41
# Fewest timed commands per analyze run, however short --seconds is.
MIN_COMMANDS = 3

# serve-follow. The daemon pulls 1024-packet blocks; every phase is whole
# blocks so that no packet waits in a half-filled block at a phase end.
BLOCK = 1024
NATIVE_HEADER = 16
NATIVE_RECORD = 43
# Open-loop rate: about 6% of the ~1.7M pkts/s the follow path sustains on
# a 2-core Xeon, so the open loop measures latency, not a backlog.
OPEN_LOOP_RATE = 100_000
# Generator tick and scrape cadence of the open loop.
WRITE_TICK_S = 0.001
SCRAPE_EVERY_S = 0.020
# The open loop lasts this share of --seconds, and never less than enough
# for MIN_LAG_OBS scrapes.
OPEN_LOOP_SHARE = 0.5
MIN_LAG_OBS = 250
# Closed-loop burst: rounds of BURST_BLOCKS blocks each (about 0.17 s at
# the sustained rate), written as fast as the fifo accepts; pkts_per_s is
# the median round. The rounds take about BURST_SHARE of --seconds: single
# rounds on this host vary by +-20%, so many short ones give a steady median.
BURST_BLOCKS = 256
BURST_ROUND_S = 0.17
BURST_SHARE = 0.28
MIN_BURST_ROUNDS = 3
# Spawns of the daemon whose spawn-to-healthy median is setup_s.
SERVE_SETUP_REPS = 31
# How long to wait for the daemon to count every packet written, to
# answer /healthz after spawn, and to exit after a shutdown request.
DRAIN_TIMEOUT_S = 60.0
STARTUP_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0
# Longest a single dartmon analyze command may run.
COMMAND_TIMEOUT_S = 60.0
# Longest one call of the helper (generation, scoring, traced run) may take.
HELPER_TIMEOUT_S = 150
# Longest one benchmark run may take in --steady mode.
RUN_TIMEOUT_S = 180


class Ops:
    """Attempted and failed operations, by kind."""

    KINDS = ("command", "scrape", "packet_written", "check")

    def __init__(self):
        self.counts = {k: [0, 0] for k in self.KINDS}
        self.failures = []

    def add(self, kind, ok=True, n=1, why=""):
        self.counts[kind][0] += n
        if not ok:
            self.counts[kind][1] += n
            self.failures.append(f"{kind}: {why}")
        return ok

    def check(self, ok, why):
        return self.add("check", ok, why=why)

    def attempted(self):
        return sum(a for a, _ in self.counts.values())

    def failed(self):
        return sum(f for _, f in self.counts.values())

    def checks_failed(self):
        return self.counts["check"][1]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nearest_rank(sorted_values, p):
    """The percentile definition `dartmon analyze` prints."""
    n = len(sorted_values)
    rank = min(max(math.ceil(p / 100.0 * n), 1), n)
    return sorted_values[rank - 1]


# ---------------------------------------------------------------- build


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))


def build():
    """Build dartmon and the helper in release mode; return their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "dart-tools", "--bin", "dartmon"],
        [
            "cargo", "build", "--release", "--offline", "-q",
            "--manifest-path", os.path.join("perfbench", "helper", "Cargo.toml"),
        ],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "dartmon"), os.path.join(release, "perfbench")


def helper(exe, *args):
    r = subprocess.run([exe, *map(str, args)], capture_output=True, text=True,
                       timeout=HELPER_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"perfbench {args[0]} failed: {r.stderr.strip()}")
    return json.loads(r.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- fingerprint


def _first_line(cmd, cwd=None):
    try:
        r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip().splitlines()[0] if r.returncode == 0 and r.stdout.strip() else None


def source_revision():
    """git rev with a dirty flag, or "unknown" outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    rev = _first_line(["git", "rev-parse", "HEAD"], cwd=ROOT)
    if rev is None:
        return "unknown"
    dirty = _first_line(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT)
    return rev[:12] + ("-dirty" if dirty else "")


def fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "rustc": _first_line(["rustc", "-V"]) or "unknown",
        "rev": source_revision(),
    }


# ---------------------------------------------------------------- processes


def timed(cmd):
    """Run cmd to completion; return (exit code, stdout, wall s, cpu s, peak RSS MB).
    A command that outlives COMMAND_TIMEOUT_S is killed and reads as failed."""
    t = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, p.kill)
    watchdog.start()
    try:
        out = p.stdout.read()
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------- analyze


REPORT_PACKETS = re.compile(r"^input\s*: .* \((\d+) packets, \d+ skipped\)$", re.M)
REPORT_SAMPLES = re.compile(r"^samples\s*: (\d+)$", re.M)


def report_percentile(out, label):
    m = re.search(rf"^{label}\s*: ([\d.]+) ms$", out, re.M)
    return m.group(1) if m else None


def read_csv(path):
    with open(path) as f:
        lines = f.read().splitlines()
    return lines[0], lines[1:]


def check_analyze_outputs(w, dartmon, exe, man, work, ops):
    """Untimed checks: oracle score, counts, printed percentiles, and (pcap)
    identical samples from the native encoding of the same packets."""
    inp = man["file"]
    csv = os.path.join(work, "samples.csv")
    code, out, *_ = timed([dartmon, "analyze", inp, "--csv", csv])
    if not ops.add("command", code == 0, why=f"analyze --csv exit {code}"):
        ops.check(False, "output checks not run: analyze --csv failed")
        return
    m = REPORT_PACKETS.search(out)
    ops.check(m is not None and int(m.group(1)) == man["packets"],
              f"reported packets {m and m.group(1)} != generated {man['packets']}")
    verdict = helper(exe, "score", "--input", inp, "--csv", csv)
    ops.check(verdict["impossible"] == 0, f"{verdict['impossible']} fabricated samples")
    ops.check(verdict["packets"] == man["packets"], "oracle saw another packet count")
    _, rows = read_csv(csv)
    m = REPORT_SAMPLES.search(out)
    ops.check(m is not None and int(m.group(1)) == len(rows) == verdict["samples"],
              "printed sample count differs from the CSV")
    rtts = sorted(int(r.rsplit(",", 1)[1]) for r in rows)
    for label, p in (("p50", 50.0), ("p95", 95.0), ("p99", 99.0)):
        mine = "%.3f" % (nearest_rank(rtts, p) / 1e6) if rtts else None
        ops.check(report_percentile(out, label) == mine,
                  f"printed {label} {report_percentile(out, label)} != {mine} from the CSV")
    if w == "analyze-pcap":
        same_csv = os.path.join(work, "same.csv")
        code, *_ = timed([dartmon, "analyze", os.path.join(work, "same.trace"), "--csv", same_csv])
        ok = ops.add("command", code == 0, why=f"analyze same.trace exit {code}")
        ops.check(ok and sorted(read_csv(same_csv)[1]) == sorted(rows),
                  "pcap and native encodings of the same packets gave different samples")


def run_analyze(w, seconds, dartmon, exe, man, work, ops):
    empty = os.path.join(work, "empty.pcap" if w == "analyze-pcap" else "empty.trace")
    setup = []
    for _ in range(ANALYZE_SETUP_REPS):
        code, out, wall, *_ = timed([dartmon, "analyze", empty])
        if ops.add("command", code == 0 and "(0 packets" in out, why=f"header-only analyze exit {code}"):
            setup.append(wall)

    check_analyze_outputs(w, dartmon, exe, man, work, ops)

    rates, cpu, rss = [], [], []
    started = time.perf_counter()
    attempts = 0
    while attempts < MIN_COMMANDS or time.perf_counter() - started < seconds:
        attempts += 1
        code, out, wall, cpu_s, rss_mb = timed([dartmon, "analyze", man["file"]])
        m = REPORT_PACKETS.search(out)
        ok = code == 0 and m is not None and int(m.group(1)) == man["packets"]
        if ops.add("command", ok, why=f"timed analyze exit {code}"):
            rates.append(man["packets"] / wall)
            cpu.append(cpu_s * 1e9 / man["packets"])
            rss.append(rss_mb)
    if not rates or not setup:
        raise RuntimeError("no successful timed command")
    return {
        "pkts_per_s": statistics.median(rates),
        "cpu_ns_per_pkt": statistics.median(cpu),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }, {"commands_timed": len(rates)}


# ---------------------------------------------------------------- serve


class Plane:
    """HTTP client of the daemon's observability plane over loopback."""

    def __init__(self, addr):
        host, port = addr.rsplit(":", 1)
        self.addr = (host, int(port))

    def request(self, path, method="GET"):
        with socket.create_connection(self.addr, timeout=10) as s:
            s.sendall(f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n"
                      f"Connection: close\r\n\r\n".encode())
            chunks = []
            while True:
                c = s.recv(1 << 16)
                if not c:
                    break
                chunks.append(c)
        raw = b"".join(chunks).decode()
        head, _, body = raw.partition("\r\n\r\n")
        return head.startswith("HTTP/1.1 200"), body


def parse_exposition(text):
    """Prometheus text -> {series key: value}, the key being the line's
    name plus its label block exactly as exposed."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        series[key] = float(value)
    return series


def counted(series):
    """Packets the daemon's one shard has accounted for: processed plus
    monitor misses."""
    return int(series.get('dart_shard_packets_total{shard="0"}', 0)
               + series.get('dart_shard_monitor_miss_total{shard="0"}', 0))


def histogram_buckets(text, name, labels):
    """[(le bound, cumulative count)] of one histogram series, bounds read
    from the `le` labels (+Inf as math.inf), in ascending order."""
    pat = re.compile(rf'^{re.escape(name)}_bucket\{{(.*)\}} (\d+)$')
    want = dict(labels)
    out = []
    for line in text.splitlines():
        m = pat.match(line)
        if not m:
            continue
        labs = dict(re.findall(r'(\w+)="([^"]*)"', m.group(1)))
        le = labs.pop("le", None)
        if le is None or labs != want:
            continue
        out.append((math.inf if le == "+Inf" else float(le), int(m.group(2))))
    out.sort()
    return out


def bucket_of_value(buckets, v):
    return next(i for i, (le, _) in enumerate(buckets) if v <= le)


def bucket_of_quantile(buckets, q):
    total = buckets[-1][1]
    rank = min(max(math.ceil(q * total), 1), total)
    return next(i for i, (_, c) in enumerate(buckets) if c >= rank)


def lag_observations(scrapes, t0, rate):
    """One lag per scrape: completion time minus the time the newest
    counted packet was due. scrapes: [(completion time, counted)]."""
    return [tc - (t0 + (c - 1) / rate) for tc, c in scrapes if c > 0]


def pipe_backlog(fd):
    """Bytes written to a fifo and not yet read."""
    buf = bytearray(4)
    fcntl.ioctl(fd, termios.FIONREAD, buf)
    return int.from_bytes(buf, sys.byteorder)


def reap(proc, timeout):
    """Wait for proc; kill it if it outlives timeout. Returns (status, rusage)."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if watchdog.finished.is_set() and proc.returncode == -9:
        raise RuntimeError(f"{proc.args[0]} outlived {timeout} s and was killed")
    return status, ru


class Daemon:
    """`dartmon serve --mode follow --shards 1` on a fifo the benchmark owns."""

    def __init__(self, dartmon, fifo, header):
        # O_RDWR never blocks on a fifo and keeps a reader on it, so the
        # daemon's own open and re-open cannot race our writes.
        self.fd = os.open(fifo, os.O_RDWR)
        self.write(header)
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [dartmon, "serve", fifo, "--mode", "follow", "--shards", "1", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            addr = None
            for line in self.proc.stderr:
                m = re.search(r"http://([\d.]+:\d+)", line)
                if m:
                    addr = m.group(1)
                    break
            if addr is None:
                raise RuntimeError("dartmon serve did not report its address")
            self.plane = Plane(addr)
            # The plane listens before it prints its address, so polling
            # needs no pause between attempts.
            deadline = time.perf_counter() + STARTUP_TIMEOUT_S
            while True:
                try:
                    if self.plane.request("/healthz")[0]:
                        break
                except OSError:
                    pass
                if time.perf_counter() > deadline:
                    raise RuntimeError("dartmon serve never became healthy")
            self.setup_s = time.perf_counter() - self.t_spawn
        except BaseException:
            self.proc.kill()
            reap(self.proc, STOP_TIMEOUT_S)
            os.close(self.fd)
            raise

    def write(self, data):
        view = memoryview(data)
        while view:
            n = os.write(self.fd, view)
            view = view[n:]

    def close(self):
        """Request shutdown, end the stream, reap; return (code, stdout, cpu s, RSS MB).

        Waits until the daemon has read everything written, the header
        included: until then its tail may still be opening the fifo, which
        blocks past a shutdown request once our end is closed."""
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        while pipe_backlog(self.fd) and time.perf_counter() < deadline:
            time.sleep(0.001)
        try:
            self.plane.request("/control/shutdown", "POST")
        except OSError:
            pass
        os.close(self.fd)
        try:
            _, ru = reap(self.proc, STOP_TIMEOUT_S)
        finally:
            out = self.proc.stdout.read()
            self.proc.stdout.close()
            self.proc.stderr.close()
        return self.proc.returncode, out, ru.ru_utime + ru.ru_stime, ru.ru_maxrss * 1024 / 1e6


def serve_plan(seconds):
    open_s = max(OPEN_LOOP_SHARE * seconds, MIN_LAG_OBS * SCRAPE_EVERY_S)
    open_pkts = max(1, round(OPEN_LOOP_RATE * open_s / BLOCK)) * BLOCK
    rounds = max(MIN_BURST_ROUNDS, round(BURST_SHARE * seconds / BURST_ROUND_S))
    return open_pkts, rounds, BURST_BLOCKS * BLOCK


def wait_counted(d, target, ops):
    """Scrape until the daemon counts `target` packets; return the
    completion time of that scrape and the exposition."""
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    while True:
        ok, body = d.plane.request("/metrics")
        done = time.perf_counter()
        ops.add("scrape", ok, why="GET /metrics failed")
        if ok and counted(parse_exposition(body)) >= target:
            return done, body
        if done > deadline:
            raise RuntimeError(f"daemon did not count {target} packets in {DRAIN_TIMEOUT_S} s")
        time.sleep(0.001)


def run_serve(seconds, dartmon, man, work, ops):
    open_pkts, rounds, burst = serve_plan(seconds)
    total = open_pkts + rounds * burst
    with open(man["file"], "rb") as f:
        stream = f.read()
    header = stream[:NATIVE_HEADER]
    body = memoryview(stream)[NATIVE_HEADER:]
    if len(body) != total * NATIVE_RECORD:
        raise RuntimeError(f"stream holds {len(body) // NATIVE_RECORD} packets, plan {total}")
    fifo = os.path.join(work, "ingest.trace")

    setup = []
    for _ in range(SERVE_SETUP_REPS - 1):
        os.mkfifo(fifo)
        d = Daemon(dartmon, fifo, header)
        setup.append(d.setup_s)
        code, out, *_ = d.close()
        ops.add("command", code == 0, why=f"serve (set-up probe) exit {code}")
        os.unlink(fifo)

    os.mkfifo(fifo)
    d = Daemon(dartmon, fifo, header)
    setup.append(d.setup_s)
    try:
        # Phase 1: open loop at OPEN_LOOP_RATE, scraping every SCRAPE_EVERY_S.
        t0 = time.perf_counter() + 0.005
        written, lateness, scrapes, scrape_rtt = 0, [], [], []
        next_scrape = t0 + SCRAPE_EVERY_S
        end = t0 + open_pkts / OPEN_LOOP_RATE
        while True:
            now = time.perf_counter()
            due = min(open_pkts, int((now - t0) * OPEN_LOOP_RATE))
            if due > written:
                lateness.append(now - (t0 + written / OPEN_LOOP_RATE))
                d.write(body[written * NATIVE_RECORD:due * NATIVE_RECORD])
                ops.add("packet_written", n=due - written)
                written = due
            if now >= next_scrape:
                sent = time.perf_counter()
                ok, text = d.plane.request("/metrics")
                done = time.perf_counter()
                if ops.add("scrape", ok, why="GET /metrics failed"):
                    scrapes.append((done, counted(parse_exposition(text))))
                    scrape_rtt.append(done - sent)
                next_scrape += SCRAPE_EVERY_S
            if written >= open_pkts and now >= end:
                break
            time.sleep(max(0.0, min(next_scrape, now + WRITE_TICK_S) - time.perf_counter()))
        wait_counted(d, open_pkts, ops)

        # Phase 2: closed-loop bursts.
        burst_rates = []
        for r in range(rounds):
            lo = (open_pkts + r * burst) * NATIVE_RECORD
            start = time.perf_counter()
            d.write(body[lo:lo + burst * NATIVE_RECORD])
            ops.add("packet_written", n=burst)
            done, text = wait_counted(d, open_pkts + (r + 1) * burst, ops)
            burst_rates.append(burst / (done - start))

        # Checks on the live plane before shutdown.
        series = parse_exposition(text)
        ops.check(counted(series) == total, f"daemon counted {counted(series)} of {total} written")
        samples = int(series.get('dart_shard_samples_total{shard="0"}', -1))
        ops.check(samples == man["samples"],
                  f"daemon samples {samples} != serial engine {man['samples']}")
        buckets = histogram_buckets(text, "dart_rtt_ns", {"shard": "0"})
        for q, key in ((0.50, "oracle_p50_ns"), (0.99, "oracle_p99_ns")):
            ok = bool(buckets) and buckets[-1][1] > 0 and abs(
                bucket_of_quantile(buckets, q) - bucket_of_value(buckets, man[key])) <= 1
            ops.check(ok, f"histogram q{q} more than one bucket from the oracle's {man[key]} ns")
        ok, health = d.plane.request("/healthz")
        ops.add("scrape", ok, why="GET /healthz failed")
        ops.check(ok and json.loads(health)["supervisor"]["healthy"] is True,
                  f"/healthz not healthy: {health}")
    finally:
        code, out, cpu_s, rss_mb = d.close()
    ops.add("command", code == 0, why=f"serve exit {code}")
    ops.check(re.search(rf"^packets\s*: {total}$", out, re.M) is not None,
              "serve report packet count")
    ops.check("ended by          : shutdown request" in out, "serve did not end by the request")
    ops.check("supervisor        : healthy" in out, "serve ended degraded")

    lags = sorted(lag_observations(scrapes, t0, OPEN_LOOP_RATE)) or [math.nan]
    ops.check(len(lags) >= 200, f"only {len(lags)} lag observations")
    lateness.sort()
    extra = {
        "lag_p50_ms": nearest_rank(lags, 50) * 1e3,
        "lag_p95_ms": nearest_rank(lags, 95) * 1e3,
        "scrape_p50_ms": statistics.median(scrape_rtt) * 1e3,
        "lag_observations": len(lags),
        "open_loop_rate": OPEN_LOOP_RATE,
        "open_loop_pkts": open_pkts,
        "burst_rounds": rounds,
        "burst_pkts": burst,
        "burst_rates": [round(r) for r in burst_rates],
        "generator_late_p50_ms": nearest_rank(lateness, 50) * 1e3,
        "generator_late_p99_ms": nearest_rank(lateness, 99) * 1e3,
        "generator_late_max_ms": lateness[-1] * 1e3,
    }
    return {
        "pkts_per_s": statistics.median(burst_rates),
        "cpu_ns_per_pkt": cpu_s * 1e9 / total,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup),
    }, extra


# ---------------------------------------------------------------- modes


def generate(exe, w, seed, seconds, work):
    args = ["gen", "--workload", w, "--seed", seed, "--dir", work]
    if w == "serve-follow":
        open_pkts, rounds, burst = serve_plan(seconds)
        args += ["--packets", open_pkts + rounds * burst]
    return helper(exe, *args)


def one_run(args):
    ops = Ops()
    dartmon, exe = build()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        man = generate(exe, args.workload, args.seed, args.seconds, work)
        if args.trace:
            traced = helper(exe, "trace", "--workload", args.workload, "--dir", work,
                            "--dartmon", dartmon, "--seconds", args.seconds)
            ops.add("command", n=traced["calls"])
            ops.add("check", n=traced["checks"])
            values = traced.pop("metrics")
            names = PER_LAYER
            extra = traced
        elif args.workload == "serve-follow":
            values, extra = run_serve(args.seconds, dartmon, man, work, ops)
            names = END_TO_END
        else:
            values, extra = run_analyze(args.workload, args.seconds, dartmon, exe, man, work, ops)
            names = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(names):
        raise RuntimeError(f"metric names {sorted(values)} differ from {sorted(names)}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": fingerprint(),
        "input": man,
        "ops": {k: {"attempted": a, "failed": f} for k, (a, f) in ops.counts.items()},
        "failures": ops.failures[:20],
        "extra": extra,
    }
    print("report: " + json.dumps(report, sort_keys=True))
    for name, (unit, _) in names.items():
        print(f"{name:32s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": ops.checks_failed() == 0,
        "attempted": ops.attempted(),
        "failed": ops.failed(),
        "metrics": {n: {"value": values[n], "unit": u} for n, (u, _) in names.items()},
    }))


def inputs_mode(args):
    _, exe = build()
    print(f"host {json.dumps(fingerprint())}")
    for w in WORKLOADS:
        work = os.path.join(ROOT, ".bench_work", f"inputs-{w}-{args.seed}-{os.getpid()}")
        try:
            man = generate(exe, w, args.seed, args.seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{w:15s} seed={args.seed} checksum={man['checksum']} packets={man['packets']} "
              f"bytes/pkt={man['bytes_per_pkt']} fast-path={man['fast_path_share']:.4f} "
              f"seq-tracked={man['seq_tracked_share']:.4f} sample={man['sample_share']:.4f}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady_mode(args):
    """Run every workload args.steady times, interleaved (the order rotates
    each round), and print median and quartiles per metric."""
    build()
    results = {w: [] for w in WORKLOADS}
    for i in range(args.steady):
        order = WORKLOADS[i % len(WORKLOADS):] + WORKLOADS[:i % len(WORKLOADS)]
        for w in order:
            seed = args.seed + i
            p = subprocess.Popen([sys.executable, __file__, "--workload", w, "--seed", str(seed),
                                  "--seconds", str(args.seconds), "--trace", "0"],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                 start_new_session=True)
            try:
                out, err = p.communicate(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(p.pid, signal.SIGKILL)
                out, err = p.communicate()
            lines = out.strip().splitlines()
            if p.returncode != 0 or not lines:
                log(f"{w} seed {seed}: exit {p.returncode}\n{err[-2000:]}")
                continue
            final = json.loads(lines[-1])
            report = json.loads(next(l for l in lines if l.startswith("report: "))[8:])
            values = {k: v["value"] for k, v in final["metrics"].items()}
            for k in ("lag_p50_ms", "lag_p95_ms", "scrape_p50_ms"):
                if k in report["extra"]:
                    values[k] = report["extra"][k]
            values["_failed_share"] = final["failed"] / final["attempted"]
            results[w].append(values)
            log(f"round {i} {w} seed {seed}: "
                + " ".join(f"{k}={v:.4g}" for k, v in values.items()))
    print(f"host {json.dumps(fingerprint())}")
    print(f"{'workload':15s} {'metric':16s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    summary = {}
    for w, runs in results.items():
        if not runs:
            continue
        for k in runs[0]:
            vals = [r[k] for r in runs if k in r]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            summary.setdefault(w, {})[k] = {"n": len(vals), "median": med, "q1": q1, "q3": q3,
                                            "spread": spread}
            print(f"{w:15s} {k:16s} {len(vals):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}")
    print("steady: " + json.dumps(summary, sort_keys=True))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", action="store_true",
                    help="regenerate every workload's inputs from --seed and print their make-up")
    ap.add_argument("--steady", type=int, metavar="RUNS",
                    help="run each workload RUNS times, interleaved, seeds --seed.. --seed+RUNS-1")
    args = ap.parse_args()
    if args.inputs:
        inputs_mode(args)
    elif args.steady:
        steady_mode(args)
    elif args.workload:
        one_run(args)
    else:
        ap.error("--workload, --inputs or --steady is required")


if __name__ == "__main__":
    try:
        main()
    except RuntimeError as e:
        raise SystemExit(f"perfbench: {e}")
