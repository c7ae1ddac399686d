"""perfbench: the end-to-end benchmark of ``repro serve`` over real sockets.

Each run boots ``python -m repro serve`` as a separate process, drives it
over keep-alive HTTP from this one process (at most two client threads),
checks every answer, and prints one JSON object as its last line::

    python3 perfbench/run.py --workload predict_vectors --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics (a user's view); ``--trace
1`` runs an untraced phase, then a traced phase, and reports the
per-layer metrics, including the tracing overhead between the two.
Workloads: predict_vectors, predict_items_pool, search_ivfpq and
ingest_while_serving (see README.md in this directory).

Exit status 0 with a result line; 2 without one (no program sources to
benchmark, or a run that could not complete).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback

import numpy as np

from harness import (PROBE_REQUESTS, SRC, WORK_ROOT, Sample, ServerProcess,
                     Tracer, closed_loop, delta_count, delta_mean_ms, mean,
                     peak_rss_mb, percentile, wait_first_ok)

#: End-to-end metrics (``--trace 0``), name -> unit.
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "ratio",
    "server_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``), name -> unit.  A layer a workload
#: never calls reports 0.
PER_LAYER = {
    "serve.http.handle_ms": "ms",
    "serve.http.unattributed_ms": "ms",
    "serve.http.json_decode_ms": "ms",
    "serve.http.json_encode_ms": "ms",
    "serve.http.request_kb": "KiB",
    "serve.http.response_kb": "KiB",
    "serve.router.hop_ms": "ms",
    "serve.router.retries": "count",
    "serve.router.rejected": "count",
    "serve.batching.queue_wait_ms": "ms",
    "serve.batching.forward_ms": "ms",
    "serve.batching.rows_per_batch": "rows",
    "serve.batching.requests": "count",
    "serve.batching.batches": "count",
    "serve.service.call_ms": "ms",
    "dc.predict_ms": "ms",
    "embeddings.embed_ms": "ms",
    "embeddings.server_embed_ms": "ms",
    "cache.predict_hit_ratio": "ratio",
    "cache.predict_lookups": "count",
    "cache.embed_hit_ratio": "ratio",
    "cache.embed_lookups": "count",
    "index.query_ms": "ms",
    "index.query_p90_ms": "ms",
    "index.build_s": "s",
    "index.resident_mb": "MiB",
    "serialize.load_ms": "ms",
    "serialize.rotate_ms": "ms",
    "serialize.checkpoint_mb": "MiB",
    "serve.registry.reload_ms": "ms",
    "serve.registry.reloads": "count",
    "wal.append_ms": "ms",
    "stream.update_ms": "ms",
    "stream.batches": "count",
    "stream.write_rows_per_s": "rows/s",
    "obs.trace_overhead": "ratio",
}

#: Untimed closed-loop traffic before the measured phase.
_WARMUP_S = 0.5


def _check(workload, samples: list[Sample]) -> dict:
    """Classify every sample; returns counts and the successful samples."""
    ok, transport, http_errors, wrong = [], 0, 0, 0
    for sample in samples:
        if sample.status == 0:
            transport += 1
            continue
        if sample.status != 200:
            http_errors += 1
            continue
        try:
            answer = json.loads(sample.body)
        except ValueError:
            answer = None
        if isinstance(answer, dict) and workload.expected_ok(sample, answer):
            ok.append(sample)
        else:
            wrong += 1
    return {"ok": ok, "attempted": len(samples), "transport": transport,
            "http": http_errors, "wrong": wrong,
            "failed": len(samples) - len(ok)}


def _phase(workload, server: ServerProcess, tag: str, seconds: float,
           on_sample=None):
    workload.start_phase(tag)
    try:
        return closed_loop(server.address, workload.streams(tag), seconds,
                           on_sample=on_sample)
    finally:
        workload.stop_phase()


def _service_replay(workload, samples: list[Sample], tracer: Tracer) -> dict:
    """``PredictService`` in-process on the decoded payloads: no transport.

    In pool mode the requests are replayed shard by shard, each shard with
    its own fresh artifact cache, as the workers hold them.
    """
    from repro.cache import reset_cache
    from repro.obs.metrics import get_registry
    from repro.serve import ModelRegistry, PredictService
    from repro.serve.pool import shard_for

    groups: dict[int, list[tuple[str, dict]]] = {}
    for sample in samples[:PROBE_REQUESTS]:
        payload = json.loads(sample.request)
        parts = sample.path.strip("/").split("/")
        name = parts[2] if parts[1] == "models" else payload.get("index")
        groups.setdefault(shard_for(name, workload.workers), []).append(
            (name, payload))
    memo = get_registry().counter(
        "repro_predict_cache_hits_total",
        "Raw-item predict requests answered from the memo cache", ("model",))
    names = {name for group in groups.values() for name, _ in group}
    hits = misses = 0
    memo_before = sum(memo.value(model=name) for name in names)
    for shard in sorted(groups):
        cache = reset_cache()
        with PredictService(ModelRegistry(workload.model_dir)) as service:
            for i, (name, payload) in enumerate(groups[shard]):
                if workload.endpoint == "search":
                    tracer.call("serve.service.call", service.search,
                                payload, trace=i)
                else:
                    tracer.call("serve.service.call", service.predict,
                                name, payload, trace=i)
        hits += cache.stats.hits
        misses += cache.stats.misses
    reset_cache()
    # The shared LRU counts memo hits too; separate the item lookups.
    memo_hits = sum(memo.value(model=name) for name in names) - memo_before
    embed_hits = hits - memo_hits
    embed_lookups = embed_hits + misses
    return {
        "serve.service.call_ms": mean(
            tracer.durations_ms("serve.service.call")),
        "cache.embed_hit_ratio":
            embed_hits / embed_lookups if embed_lookups else 0.0,
        "cache.embed_lookups": float(embed_lookups),
    }


def _timed_median_ms(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append((time.perf_counter() - started) * 1000.0)
    return float(np.median(times))


def _json_costs(samples: list[Sample], tracer: Tracer) -> dict:
    """The server's decode of each request and encode of each reply."""
    for i, sample in enumerate(samples[:PROBE_REQUESTS]):
        tracer.call("json.decode", json.loads, sample.request, trace=i)
        answer = json.loads(sample.body)
        tracer.call("json.encode",
                    lambda value: json.dumps(value).encode("utf-8"), answer,
                    trace=i)
    return {"serve.http.json_decode_ms": mean(tracer.durations_ms(
                "json.decode")),
            "serve.http.json_encode_ms": mean(tracer.durations_ms(
                "json.encode"))}


def _server_layers(workload, before: dict, after: dict, stats: tuple,
                   traced_ok: list[Sample]) -> dict:
    """Per-layer figures from the server's own metrics, over one phase."""
    endpoint = workload.endpoint
    pool = workload.workers > 1
    handle = delta_mean_ms(before, after, "repro_http_request_seconds",
                           endpoint=endpoint)
    routed = (delta_mean_ms(before, after, "repro_router_request_seconds",
                            endpoint=endpoint) if pool else 0.0)
    round_trip = mean([s.seconds * 1000.0 for s in traced_ok])
    batches = delta_count(before, after, "repro_batch_batches_total")
    rows = delta_count(before, after, "repro_batch_rows_total")
    lookups = (delta_count(before, after, "repro_predict_requests_total",
                           kind="predict") if workload.sends_items else 0.0)
    memo_hits = delta_count(before, after, "repro_predict_cache_hits_total")
    router0 = stats[0].get("router", {})
    router1 = stats[1].get("router", {})
    return {
        "serve.http.handle_ms": handle,
        "serve.http.unattributed_ms": round_trip - (routed if pool
                                                    else handle),
        "serve.http.request_kb": mean([len(s.request)
                                       for s in traced_ok]) / 1024.0,
        "serve.http.response_kb": mean([len(s.body)
                                        for s in traced_ok]) / 1024.0,
        "serve.router.hop_ms": routed - handle if pool else 0.0,
        "serve.router.retries": float(router1.get("retries", 0)
                                      - router0.get("retries", 0)),
        "serve.router.rejected": float(router1.get("rejected_overload", 0)
                                       - router0.get("rejected_overload", 0)),
        "serve.batching.queue_wait_ms": delta_mean_ms(
            before, after, "repro_batch_queue_wait_seconds"),
        "serve.batching.forward_ms": delta_mean_ms(
            before, after, "repro_batch_forward_seconds"),
        "serve.batching.rows_per_batch": rows / batches if batches else 0.0,
        "serve.batching.requests": delta_count(
            before, after, "repro_batch_queue_wait_seconds", histogram=True),
        "serve.batching.batches": batches,
        "embeddings.server_embed_ms": delta_mean_ms(before, after,
                                                    "repro_embed_seconds"),
        "cache.predict_hit_ratio": memo_hits / lookups if lookups else 0.0,
        "cache.predict_lookups": lookups,
        "serve.registry.reloads": delta_count(before, after,
                                              "repro_reload_total"),
    }


def run(workload, seconds: float, trace: bool,
        inject_wrong: bool = False) -> tuple[dict, list[str]]:
    """One benchmark run: set-up(s), warm-up, measured phase(s), checks."""
    workdir_root = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    server: ServerProcess | None = None
    problems: list[str] = []
    lines: list[str] = []
    setups: list[float] = []
    checks: list[dict] = []

    def stop_server() -> None:
        nonlocal server
        if server is not None:
            pid = server.pid
            server.close()
            server = None
            problems.extend(workload.after_close(pid))

    try:
        repeats = 1 if (trace or workload.tiny) else workload.setup_repeats
        for repeat in range(repeats):
            stop_server()
            shutil.rmtree(workdir_root, ignore_errors=True)
            started = time.perf_counter()
            model_dir = workload.build(workdir_root / f"setup{repeat}")
            server = ServerProcess(model_dir,
                                   ("--workers", str(workload.workers)))
            for probe in workload.probes():
                wait_first_ok(server.address, probe)
            setups.append(time.perf_counter() - started)

        warm = _phase(workload, server, "warm",
                      _WARMUP_S / 4 if workload.tiny else _WARMUP_S)
        main = _phase(workload, server, "main", seconds)
        if inject_wrong:
            first_ok = next(s for s in main.samples if s.status == 200)
            first_ok.body = b"{}"
        checks.append(_check(workload, warm.samples))
        main_check = _check(workload, main.samples)
        checks.append(main_check)

        if trace:
            tracer = Tracer()
            before = server.metrics()
            stats0 = server.get_json("/v1/stats")
            traced = _phase(
                workload, server, "traced", seconds,
                on_sample=lambda s: tracer.spans.append(
                    (s.key, "http.request", s.started, s.finished)))
            after = server.metrics()
            stats1 = server.get_json("/v1/stats")
            traced_check = _check(workload, traced.samples)
            checks.append(traced_check)
        rss = peak_rss_mb(server.pids())
        problems.extend(workload.final_problems(server))

        if trace:
            layers = dict.fromkeys(PER_LAYER, 0.0)
            layers.update(_server_layers(workload, before, after,
                                         (stats0, stats1),
                                         traced_check["ok"]))
            layers.update(_json_costs(traced_check["ok"], tracer))
            layers.update(_service_replay(workload, traced_check["ok"],
                                          tracer))
            layers.update(workload.layer_metrics(tracer,
                                                 traced_check["ok"]))
            layers["serialize.load_ms"] = _timed_median_ms(workload.load)
            layers["serialize.checkpoint_mb"] = \
                workload.checkpoint.stat().st_size / 2 ** 20
            untraced_p50 = percentile(
                [s.seconds for s in main_check["ok"]], 50)
            traced_p50 = percentile(
                [s.seconds for s in traced_check["ok"]], 50)
            layers["obs.trace_overhead"] = (traced_p50 / untraced_p50
                                            if untraced_p50 else 0.0)
            tracer.dump(WORK_ROOT / "traces"
                        / f"{workload.name}-seed{workload.seed}.json")
            metrics = {name: (layers[name], PER_LAYER[name])
                       for name in PER_LAYER}
        else:
            metrics = _end_to_end(main_check, main.elapsed, setups, rss)
        lines.extend(_report(workload, main_check, metrics, setups, rss))
        lines.extend(workload.report_lines())
    finally:
        stop_server()
        workload.close()
        shutil.rmtree(workdir_root, ignore_errors=True)

    measured = checks[1:]  # the warm-up is checked, not counted
    wrong = sum(check["wrong"] for check in checks)
    lines.extend(f"problem: {problem}" for problem in problems)
    result = {
        "correct": wrong == 0 and not problems,
        "attempted": sum(check["attempted"] for check in measured),
        "failed": sum(check["failed"] for check in measured),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def _end_to_end(check: dict, elapsed: float, setups: list[float],
                rss: float) -> dict:
    latencies = [s.seconds * 1000.0 for s in check["ok"]]
    values = {
        "setup_s": float(np.median(setups)),
        "throughput_rps": len(check["ok"]) / elapsed,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "success_rate": len(check["ok"]) / max(check["attempted"], 1),
        "server_rss_mb": rss,
    }
    return {name: (values[name], END_TO_END[name]) for name in END_TO_END}


def _report(workload, check: dict, metrics: dict, setups: list[float],
            rss: float) -> list[str]:
    """Human-readable lines: every metric with its unit and sample count."""
    n_ok = len(check["ok"])
    beyond = n_ok - int(np.ceil(0.9 * n_ok))
    error_rate = check["failed"] / max(check["attempted"], 1)
    notes = {
        "setup_s": f"median of {len(setups)} set-up(s)",
        "latency_p50_ms": f"n={n_ok} successful requests",
        "latency_p90_ms": f"n={n_ok}, {beyond} beyond p90",
        "success_rate": f"{n_ok} of {check['attempted']}",
    }
    lines = [f"{name} = {value:.6g} {unit}"
             + (f" ({notes[name]})" if name in notes else "")
             for name, (value, unit) in metrics.items()]
    lines.append(f"error_rate = {error_rate:.6g} ratio ({check['failed']} "
                 f"of {check['attempted']}: {check['transport']} transport, "
                 f"{check['http']} non-200, {check['wrong']} wrong answers)")
    if "server_rss_mb" not in metrics:
        lines.append(f"server_rss_mb = {rss:.6g} MiB")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny artifacts and one set-up (smoke test)")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="corrupt one reply before it is checked "
                             "(smoke test of the answer checks)")
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so its server is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    try:
        result, lines = run(workload, args.seconds, bool(args.trace),
                            inject_wrong=args.inject_wrong_answer)
    except Exception:  # noqa: BLE001 - report, print no result line
        traceback.print_exc()
        return 2
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in lines:
        print(f"  {line}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
