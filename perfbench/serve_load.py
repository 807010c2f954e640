"""Child process for the serve workloads: one closed-loop client.

Starts ``python -m repro serve`` with a fresh cache directory, then sends
the workload's distinct reach requests one at a time over one connection,
each only after the previous reply arrived.  ``serve-cold`` times the
first sight of every request (admission, worker pool, supervised fork,
checkpoint and cache writes), on a fresh server and cache per pass.
``serve-warm`` fills the cache once, untimed, then times repeat passes
that the result cache answers.  Set-up is server start until its first
``status`` reply.  The last line of standard output is one JSON object
for ``run.py``.

    python3 perfbench/serve_load.py WORKLOAD --seed N --seconds S
        --scratch DIR [--trace-out PATH]
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from common import (  # noqa: E402
    Calibrator,
    dir_bytes,
    peak_rss_kb,
    pin_to_one_cpu,
    proc_cpu_s,
    speed_now,
)
from layers import SpanRecorder  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

BANNER = re.compile(r"serving on ([\d.]+):(\d+) \(pid (\d+)\)")


class Server:
    """One ``repro serve`` subprocess with its own cache directory."""

    def __init__(self, scratch, tag, traced=False):
        self.cache_dir = os.path.join(scratch, "cache-%s" % tag)
        command = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--cache-dir", self.cache_dir, "--pool", "2",
        ]
        self.journal = None
        if traced:
            self.journal = os.path.join(scratch, "journal-%s.jsonl" % tag)
            command += [
                "--trace-dir", os.path.join(scratch, "trace-%s" % tag),
                "--journal", self.journal,
            ]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        try:
            match = BANNER.search(self.proc.stdout.readline())
            if not match:
                raise RuntimeError("no serve banner")
            self.client = ServeClient(
                match.group(1), int(match.group(2)), timeout=120.0
            )
            if self.client.status()["status"] != "ok":
                raise RuntimeError("first status reply not ok")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.perf_counter() - start

    def cpu_s(self):
        return proc_cpu_s(self.proc.pid)

    def close(self):
        """Graceful shutdown; the server reaps its workers first."""
        self.client.close()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("server ignored SIGTERM")
        self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        if code != 0:
            raise RuntimeError("server exited %r" % code)


def send_all(server, requests, recorder=None):
    """One closed-loop pass; returns the pass record."""
    ops = []
    calibrator = Calibrator()
    calibrator.sample()
    server_cpu0 = server.cpu_s()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for index, request in enumerate(requests):
        calibrator.sample()
        fields = dict(
            request,
            max_nodes=workloads.MAX_LIVE_NODES,
            max_iterations=workloads.MAX_ITERATIONS,
        )
        if recorder is not None:
            recorder.cell = "request-%d" % index
            call = recorder.wrap("serve.request", server.client.reach)
        else:
            call = server.client.reach
        start = time.perf_counter()
        reply = call(**fields)
        end = time.perf_counter()
        result = reply.get("result") or {}
        extra = result.get("extra") or {}
        cache = (extra.get("cache") or {}).get("total") or {}
        cached = bool(reply.get("cached"))
        ops.append(
            {
                "key": "%(circuit)s/%(engine)s/%(order)s/%(count_states)s"
                % request,
                "circuit": request["circuit"],
                "engine": request["engine"],
                "cached": cached,
                "completed": result.get("completed", False),
                "failure": result.get("failure"),
                "iterations": result.get("iterations"),
                "num_states": result.get("num_states"),
                "count_states": request["count_states"],
                "peak_live_nodes": result.get("peak_live_nodes", 0),
                "reached_nodes": result.get("reached_size", 0),
                "wall_ms": (end - start) * 1000.0,
                "span": (start, end),
                "engine_s": result.get("seconds", 0.0),
                "cache_hits": 0 if cached else cache.get("hits", 0),
                "cache_misses": 0 if cached else cache.get("misses", 0),
                "obs": None if cached else extra.get("obs"),
            }
        )
    cpu_s = time.process_time() - cpu0 + server.cpu_s() - server_cpu0
    wall1 = time.perf_counter()
    calibrator.sample(force=True)
    for op in ops:
        op["ref_wall_ms"] = op["wall_ms"] * calibrator.factor(*op.pop("span"))
    factor = calibrator.factor(wall0, wall1)
    return {
        "cpu_s": cpu_s,
        "wall_s": wall1 - wall0,
        "ref_cpu_s": cpu_s * factor,
        "ref_wall_s": (wall1 - wall0) * factor,
        "ops": ops,
    }


def server_layers(server, recorder):
    """Per-layer figures of a traced pass, read from the server."""
    metrics = server.client.metrics()
    status = server.client.status()
    counters = metrics["counters"]
    histograms = metrics["metrics"]["histograms"]

    def p50(disposition):
        name = 'serve_request_seconds{disposition="%s"}' % disposition
        return histograms.get(name, {}).get("p50", 0.0)

    retries = 0
    if server.journal and os.path.exists(server.journal):
        with open(server.journal) as handle:
            events = [json.loads(line).get("event") for line in handle]
        retries = events.count("retry")
    return {
        "serve_requests": counters.get("requests", 0),
        "serve_cache_hits": counters.get("cache_hits", 0),
        "serve_shed": counters.get("shed", 0),
        "request_s_cold": p50("cold"),
        "request_s_cache_hit": p50("cache_hit"),
        "attempts": status["pool"]["submitted"],
        "retries": retries,
        "checkpoint_bytes": dir_bytes(server.cache_dir, "ckpt"),
        "spans": {
            name: list(value) for name, value in recorder.totals().items()
        },
        "span_count": len(recorder.spans),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=workloads.SERVE)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    os.makedirs(args.scratch, exist_ok=True)
    # Client, server and its workers share one core with the host-speed
    # samples.  One client in a closed loop never has two requests in
    # flight, so the second core would sit idle anyway.
    pin_to_one_cpu()

    setups = []  # (raw, reference) seconds per server start
    passes = []
    fills = []
    serial = iter(range(1000))

    def start(traced=False):
        # The host's speed is sampled on both sides of the start.
        before = speed_now()
        server = Server(args.scratch, next(serial), traced)
        factor = (before + speed_now()) / 2
        setups.append((server.setup_s, server.setup_s * factor))
        return server

    started = time.perf_counter()
    salt = 0
    warm = args.workload == "serve-warm"
    traced = args.trace_out is not None
    while True:
        requests = workloads.ordered_ops(args.workload, args.seed, salt)
        server = start()
        try:
            if warm:
                # The fill is untimed: the run's seconds start after it.
                fills.append(send_all(server, requests))
                started = time.perf_counter()
                while True:
                    salt += 1
                    requests = workloads.ordered_ops(
                        args.workload, args.seed, salt
                    )
                    passes.append(send_all(server, requests))
                    if traced or not workloads.another_pass(
                        started, passes[-1]["wall_s"], args.seconds
                    ):
                        break
            else:
                passes.append(send_all(server, requests))
        finally:
            server.close()
        salt += 1
        if traced or warm or not workloads.another_pass(
            started, passes[-1]["wall_s"], args.seconds
        ):
            break
    # Set-up samples are server starts, the timed passes' ones included.
    while not traced and len(setups) < workloads.setup_samples(
        args.workload
    ):
        start().close()

    out = {"setup_samples": setups, "passes": passes, "fills": fills}
    if traced:
        recorder = SpanRecorder()
        requests = workloads.ordered_ops(args.workload, args.seed, salt)
        server = start(traced=True)
        try:
            if warm:
                send_all(server, requests)
                requests = workloads.ordered_ops(
                    args.workload, args.seed, salt + 1
                )
            traced = send_all(server, requests, recorder)
            traced.update(server_layers(server, recorder))
        finally:
            server.close()
        recorder.write(args.trace_out)
        out["traced"] = traced
    out["maxrss_kb"] = peak_rss_kb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
