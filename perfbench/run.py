#!/usr/bin/env python3
"""spdp benchmark: three single-thread workloads, one JSON result line.

    python3 perfbench/run.py --workload {train,infer,curate,all} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics with nothing patched except one timestamp per ``AdamW.step`` on
train. ``--trace 1`` runs the measured phase twice, untraced then traced,
and reports the per-layer metrics and the tracing overhead. Human-readable
lines come first; the last line of standard output is the JSON result.
Per-run results with raw samples go to ``perfbench/out/<workload>/``, the
traced run's spans to their own ``*.spans.tsv.gz`` files next to them.
Exit codes: 0 all gates passed, 1 a gate or the set-up failed, 2 the
checkout is incomplete.
"""

import os

# One BLAS thread, fixed before NumPy loads here or in any set-up process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("train", "infer", "curate")
SETUP_REPS = 3
SETUP_TIMEOUT_S = 150
TAIL_Q = 90
MIN_COVERAGE = 0.95
# The quality metric each workload reports; on the other workloads it is
# not applicable and reads as this fixed value (the result needs every
# metric on every workload, and never a zero).
QUALITY = {"train": "loss_final", "infer": "fused_accuracy", "curate": "planted_recall"}
NOT_APPLICABLE = 1.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: write the workload's inputs into this directory and exit.
    parser.add_argument("--prepare", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "spdp" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a full spdp checkout (src/spdp or BENCHMARK.json "
              "missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.prepare:
        return _prepare(args)
    if args.workload == "all":
        return _run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return _run(args, spec)


# -- set-up --------------------------------------------------------------------------


def _prepare(args) -> int:
    """Set-up process body: write inputs, print their digest (and span totals)."""
    import spans
    import workloads

    dest = Path(args.prepare)
    totals = None
    if args.trace:
        tracer = spans.Tracer()
        with tracer.installed():
            digest = workloads.prepare(args.workload, args.seed, dest)
        tracer.write(_setup_spans_path(dest))
        totals = spans.totals(tracer.spans)
    else:
        digest = workloads.prepare(args.workload, args.seed, dest)
    print(json.dumps({"digest": digest, "totals": totals}))
    return 0


def _setup_spans_path(dest: Path) -> Path:
    return dest.parent / f"{dest.name}.spans.tsv.gz"


def _setups(args, work: Path) -> tuple[list[float], list[str], dict | None]:
    """Run the set-up SETUP_REPS times, each in a fresh process, timed start to ready.

    On a traced run the first set-up is traced, for the corpus layer.
    """
    times, digests, totals = [], [], None
    for rep in range(SETUP_REPS):
        dest = work / f"setup-{rep}"
        traced = bool(args.trace) and rep == 0
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(traced)), "--prepare", str(dest)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up {rep} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        digests.append(info["digest"])
        if traced:
            totals = info["totals"]
    return times, digests, totals


# -- one workload --------------------------------------------------------------------


def _run(args, spec: dict) -> int:
    import stats
    import workloads

    w = args.workload
    out = OUT_DIR / w
    out.mkdir(parents=True, exist_ok=True)
    tag = f"seed{args.seed}-trace{args.trace}"
    work = out / f"work-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        try:
            setup_times, digests, setup_totals = _setups(args, work)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
            print(f"error: {w} set-up failed: {err}", file=sys.stderr)
            return 1
        inputs = work / "setup-0"
        measure = workloads.MEASURE[w]
        workloads.warm_up(w, inputs, work)
        gates = {"set-ups identical": len(set(digests)) == 1}
        record: dict = {"workload": w, "seed": args.seed, "seconds": args.seconds,
                        "trace": args.trace,
                        "setup": {"seconds": setup_times, "digests": digests}}
        if args.trace:
            m, values, extra = _traced(args, measure, inputs, work, setup_totals,
                                       out / f"{tag}.spans.tsv.gz", gates)
            record.update(extra)
            if _setup_spans_path(inputs).exists():
                shutil.move(_setup_spans_path(inputs), out / f"{tag}.setup-spans.tsv.gz")
            wanted = spec["per_layer"]
        else:
            m = measure(inputs, args.seed, args.seconds, stats.min_samples_for(TAIL_Q), work)
            try:
                values = _end_to_end(w, m, setup_times)
            except ValueError as err:
                print(f"error: {w}: {err} {' '.join(m.errors)}", file=sys.stderr)
                return 1
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    gates.update(m.gates)
    correct = all(gates.values())
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in wanted}
    facts = _facts(args, m)
    record.update({"facts": facts, "measurement": dataclasses.asdict(m), "gates": gates,
                   "correct": correct, "values": values})
    (out / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"== {w}: seed {args.seed}, {args.seconds:g} s, trace {args.trace} ==")
    for e in wanted:
        note = ""
        if e["name"] in QUALITY.values() and QUALITY[w] != e["name"]:
            note = f"(not applicable to {w}; fixed value)"
        print(f"  {e['name']:<40} {values[e['name']]:>14.6g} {e['unit']:<8} {note}")
    if not args.trace:
        print(f"  {'failed_frac':<40} {values['failed_frac']:>14.6g} {'frac':<8} "
              f"({m.failed} of {m.attempted})")
    verdict = "PASS" if correct else "FAIL"
    print(f"  correctness {verdict}: " + "; ".join(
        f"{name} {'ok' if ok else 'FAILED'}" for name, ok in gates.items()))
    for err in m.errors:
        print(f"  error: {err}")
    print("  facts: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _end_to_end(w: str, m, setup_times: list[float]) -> dict[str, float]:
    """End-to-end values.

    On FASTEST_BY_POSITION workloads, items_per_s and step_ms_p50 come from
    each step position's fastest samples; otherwise from every sample and the
    whole measured window. step_ms_p90 is the tail a user waits for, load
    included, so it always comes from every sample.
    """
    import stats
    import workloads

    if workloads.FASTEST_BY_POSITION[w]:
        kept = stats.fastest_by_position(m.step_ms, m.round_steps,
                                         stats.min_samples_for(TAIL_Q))
        items_per_s = m.round_items / (sum(statistics.fmean(col) for col in kept) / 1e3)
        step_ms_p50 = stats.percentile([ms for col in kept for ms in col], 50)
    else:
        items_per_s = m.items / m.wall_s
        step_ms_p50 = stats.percentile(m.step_ms, 50)
    failed_frac = m.failed / m.attempted
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": items_per_s,
        "step_ms_p50": step_ms_p50,
        f"step_ms_p{TAIL_Q}": stats.percentile(m.step_ms, TAIL_Q),
        "failed_frac": failed_frac,
        "ok_frac": 1.0 - failed_frac,
    }
    for name in QUALITY.values():
        values[name] = m.quality.get(name, 0.0) if QUALITY[w] == name else NOT_APPLICABLE
    return values


def _traced(args, measure, inputs: Path, work: Path, setup_totals, spans_path: Path,
            gates: dict):
    """Untraced then traced measured phase; per-layer metrics from the second."""
    import spans
    import workloads

    half = args.seconds / 2.0
    base = measure(inputs, args.seed, half, 1, work)
    tracer = spans.Tracer(item_start=workloads.ITEM_START[args.workload])
    before = [(owner, attr, vars(owner)[attr]) for owner, attr in spans.patch_targets()]
    with tracer.installed():
        m = measure(inputs, args.seed, half, 1, work)
    gates["untraced phase gates"] = all(base.gates.values())
    gates["wrappers removed after the traced run"] = all(
        vars(owner)[attr] is fn for owner, attr, fn in before)
    tracer.write(spans_path)
    totals = spans.totals(tracer.spans)
    coverage = spans.top_level_ns(tracer.spans) / (m.window_ns[1] - m.window_ns[0])
    gates[f"top-level spans cover >= {MIN_COVERAGE:.0%} of the traced wall time"] = \
        coverage >= MIN_COVERAGE
    overhead = (m.wall_s / m.items) / (base.wall_s / base.items) - 1.0
    values = _per_layer(totals, tracer.counters, setup_totals or {},
                        workloads.ITEM_START[args.workload])
    values["trace.overhead_frac"] = overhead
    values["trace.top_level_coverage"] = coverage
    extra = {"untraced": dataclasses.asdict(base), "layer_totals": totals,
             "setup_layer_totals": setup_totals, "counters": dict(tracer.counters)}
    return m, values, extra


def _per_layer(totals: dict, counters: dict, setup_totals: dict,
               item_start: str) -> dict[str, float]:
    """Per-item layer figures: item = optimizer step / utterance / WAV file.

    Layers that run once per batch of items (checkpoint, corpus set-up,
    compute_bins) are reported per call instead.
    """
    import spans

    def get(name):
        return totals.get(name, (0, 0, 0))

    items = max(1, get(item_start)[0])

    def per_item(ns):
        return ns / 1e6 / items

    def per_call(name, table=totals):
        calls, incl, _ = table.get(name, (0, 0, 0))
        return incl / 1e6 / calls if calls else 0.0

    out: dict[str, float] = {}
    for prim in spans.REPORTED_PRIMS:
        if prim in spans.COMPOSITES:
            bwd = sum(v[1] for k, v in totals.items() if k.endswith(f".bwd@{prim}"))
        else:
            bwd = sum(v[1] for k, v in totals.items()
                      if k == f"tensor.{prim}.bwd" or k.startswith(f"tensor.{prim}.bwd@"))
        out[f"tensor.{prim}.fwd_self_ms"] = per_item(get(f"tensor.{prim}")[2])
        out[f"tensor.{prim}.bwd_ms"] = per_item(bwd)
        out[f"tensor.{prim}.calls"] = get(f"tensor.{prim}")[0] / items
    backwards = get("tensor.backward")[0]
    for key in ("tensor.graph_nodes", "tensor.graph_nodes_with_backward"):
        out[key] = counters.get(key, 0) / backwards if backwards else 0.0
    for name in ("tensor.backward", "serial.teacher_forced_loss", "serial.generate_greedy",
                 "layers.MultiHeadAttention", "layers.TransformerLayer", "fusion.predict"):
        out[f"{name}.self_ms"] = per_item(get(name)[2])
    for name in ("optim.step", "serial.encode", "serial.adapt", "parallel.forward",
                 "serial.decode_hidden", "layers.Conv1d", "audio.load_wav",
                 "audio.extract_features5"):
        out[f"{name}.ms"] = per_item(get(name)[1])
    out["serial.decode_hidden.calls"] = get("serial.decode_hidden")[0] / items
    tokens = counters.get("serial.generate_greedy.tokens", 0)
    greedy_ns = get("serial.generate_greedy")[1]
    out["serial.generate_greedy.tokens"] = tokens / items
    out["serial.generate_greedy.tok_per_s"] = tokens / (greedy_ns / 1e9) if greedy_ns else 0.0
    for name in ("checkpoint.save", "checkpoint.load", "audio.compute_bins"):
        out[f"{name}.ms"] = per_call(name)
    saves = get("checkpoint.save")[0]
    out["checkpoint.save.bytes"] = counters.get("checkpoint.save.bytes", 0) / saves if saves else 0.0
    out["corpus.generate.ms"] = per_call("corpus.generate", setup_totals)
    out["trainer.self_ms"] = per_item(sum(v[2] for k, v in totals.items()
                                          if k.startswith("trainer.")))
    return out


# -- all workloads -------------------------------------------------------------------


def _run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own); one summary line."""
    results = {}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            results[w] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[w] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0 if correct else 1


# -- run facts -----------------------------------------------------------------------


def _facts(args, m) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_version, "blas_threads": _blas_threads(),
            "git_commit": _git_commit(), "source_sha256": _source_digest()[:16],
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "measured_s": round(m.wall_s, 3), "items": m.items, "steps": len(m.step_ms),
            "round_steps": m.round_steps}


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that NumPy loaded, if it is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not its own git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spdp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
