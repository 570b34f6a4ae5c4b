"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload sim_paper --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` alternates untraced and traced blocks and prints every
per-layer metric.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  End-to-end timings
are in reference seconds, scaled by the rate of a reference loop sampled
beside them; each line also shows the time in host seconds.  See README.md.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (the start time is taken before any import)
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from stats import host_reference_rate, validate_name  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = ROOT / "BENCHMARK.json"
#: Set-ups per run: this process's own plus fresh-process probes.
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 120


def load_contract() -> dict:
    """BENCHMARK.json, with every workload and metric name validated."""
    contract = json.loads(CONTRACT.read_text())
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in contract[section]:
            validate_name(entry["name"])
    return contract


def setup_probes(seed: int, count: int) -> list:
    """(host seconds, scale to reference seconds) of the set-ups of
    ``count`` fresh processes (see setup_probe.py)."""
    samples = []
    for _ in range(count):
        completed = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=PROBE_TIMEOUT_S)
        seconds, scale = completed.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(scale)))
    return samples


def report_shortfall(harness, bench, short: list) -> int:
    """Print the failures of a run whose failed ops left a metric without
    the samples it needs, and a result line with ``correct`` false."""
    failed, attempted, failed_frac = harness.failed_share(bench.run)
    print(f"workload {bench.workload}  seed {bench.seed}: too few successful "
          f"{', '.join(short)} ops to compute the metrics")
    print(f"  {'failed_frac':<32} {failed_frac:>14.6g} {'ratio':<12} "
          f"n={attempted}")
    for failure in bench.run.check_failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": False, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    contract = load_contract()
    if args.workload not in [entry["name"] for entry in contract["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    bench = harness.Benchmark(args.workload, args.seed, args.seconds,
                              traced=bool(args.trace))
    setups = [(time.perf_counter() - STARTED, harness.setup_scale())]
    try:
        bench.execute()
        short = bench.sample_shortfall()
        metrics = None
        if args.trace and not short:
            metrics = harness.per_layer_metrics(bench, host_reference_rate())
            harness.WORK.joinpath("spans").mkdir(parents=True, exist_ok=True)
            bench.tracer.write(harness.WORK / "spans" /
                               f"{args.workload}-seed{args.seed}.jsonl")
    finally:
        bench.close()
    if short:
        return report_shortfall(harness, bench, short)
    host_rate = host_reference_rate()
    raw = {}
    if metrics is None:
        peak_mb = harness.peak_rss_mb()
        setups += setup_probes(args.seed, SETUP_SAMPLES - 1)
        metrics = harness.end_to_end_metrics(
            args.workload, harness.host_scaled(bench.run),
            [seconds * scale for seconds, scale in setups], peak_mb)
        raw = harness.end_to_end_metrics(
            args.workload, bench.run.ops, [seconds for seconds, _ in setups],
            peak_mb)

    section = "per_layer" if args.trace else "end_to_end"
    wanted = [entry["name"] for entry in contract[section]]
    if sorted(metrics) != sorted(wanted):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match the "
                           f"{section} list {sorted(wanted)}")
    failed, attempted, failed_frac = harness.failed_share(bench.run)
    digest = harness.digest(bench.run)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name in wanted:
        value, unit, count = metrics[name]
        line = f"  {name:<32} {value:>14.6g} {unit:<12} n={count}"
        if name in raw and raw[name][0] != value:
            line += f"  (host {raw[name][0]:.6g})"
        print(line)
    print(f"  {'failed_frac':<32} {failed_frac:>14.6g} {'ratio':<12} "
          f"n={attempted}")
    print(f"  host reference loop: {host_rate:.4f} Mops/s")
    print(f"  results digest: {digest}")
    for failure in bench.run.check_failures[:20]:
        print(f"  FAILED {failure}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest": digest, "host_ref_mops": host_rate,
        "failed_frac": failed_frac,
        "metrics": {name: value for name, (value, _, _) in metrics.items()},
        "host_metrics": {name: value for name, (value, _, _) in raw.items()},
    }
    records = harness.WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not bench.run.check_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
