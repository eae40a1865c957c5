"""hapstack benchmark entry point.

    python3 perfbench/run.py --workload filter-long --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. The run generates its inputs from the seed into a temporary
directory under ``.perfbench_tmp/``, times set-up in fresh processes,
runs the workload in a fresh worker process, checks every output, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0``, the ``per_layer`` ones with ``--trace 1``. The full
record (machine, input and output sha256, check notes, every metric) is
written to ``.perfbench_out/``, next to the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("filter-long", "filter-web", "interactive")
SETUP_PROBES = {0: 5, 1: 3}
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_probes(bundle: Path, trace: bool) -> list[dict]:
    """Start fresh processes that import hapstack and load the bundle.
    Generating the inputs has already imported hapstack and written the
    bundle, so byte-code and page cache are warm."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(bundle)] + (["--trace"] if trace else [])
    results = []
    for _ in range(SETUP_PROBES[int(trace)]):
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if SRC.resolve() not in Path(probe["module"]).resolve().parents:
            raise RuntimeError(f"set-up probe imported hapstack from {probe['module']}")
        probe["setup_s"] = probe["done"] - started
        results.append(probe)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so a running child is killed and
    # waited for and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "hapstack" / "__init__.py").is_file():
        return fail(f"no hapstack sources under {SRC}; run from a source checkout")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))
    import inputs

    tmp_root = ROOT / ".perfbench_tmp"
    out_dir = ROOT / ".perfbench_out"
    tmp_root.mkdir(exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=tmp_root))
    try:
        started = time.perf_counter()
        manifest = inputs.generate(tmp, args.seed, args.workload)
        generate_s = time.perf_counter() - started
        bundle = tmp / manifest["bundle"]
        probes = setup_probes(bundle, bool(args.trace))
        result_path = tmp / "result.json"
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
               "--inputs", str(tmp), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--seed", str(args.seed), "--out", str(result_path)]
        if args.trace:
            cmd += ["--spans", str(out_dir / f"{stem}.spans.jsonl")]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            return fail(f"workload process exited with {proc.returncode}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        bundle_mb = bundle.stat().st_size / 2**20
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        return fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    metrics = result["metrics"]
    if args.trace:
        metrics["hapstack.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["model_io.load_s"] = statistics.median(p["load_s"] for p in probes)
        metrics["model_io.bundle_mb"] = bundle_mb
    else:
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not produced: {missing}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "generate_s": generate_s, "setup_probes": probes,
        "inputs_sha256": manifest["sha256"], **result,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True),
                                          encoding="utf-8")
    for note in result["failures"]:
        print(f"check failed: {note}")
    print(f"{stem}: attempted={result['attempted']} failed={result['failed']} "
          f"samples={result.get('samples')} record={out_dir.name}/{stem}.json")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
