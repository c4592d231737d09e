"""xmlir benchmark: per-topic latency per system, ``report`` wall time, and a
traced per-layer run, over three generated workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sparse-or --seed 1 --seconds 20 --trace 0

The workload's corpus, topics and assessments are generated from ``--seed``
into ``.perfbench_out/`` and measured by ``bench.py`` in a child process.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 1`` reports per-layer metrics and writes the spans to
``.perfbench_out/spans-<workload>.tsv``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time of the untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="workload size factor (tests use a tiny one)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "xmlir" / "__init__.py").is_file():
        print(f"error: no xmlir package under {src}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        generated = workloads.generate(args.workload, args.seed, args.scale, work / "data")
        spec = {"docs": len(generated.docs), "topics": len(generated.topics), "scale": args.scale}
        (work / "data" / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        result_path = work / "result.json"
        command = [
            sys.executable, str(HERE / "bench.py"),
            "--work", str(work / "data"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--spans", str(out / f"spans-{args.workload}.tsv"),
            "--result", str(result_path), "--src", str(src),
        ]
        print(f"workload {args.workload} seed {args.seed} scale {args.scale} trace {args.trace}")
        sys.stdout.flush()
        try:
            child = subprocess.run(command, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: {args.workload} ran longer than {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if child.returncode != 0:
            print(f"error: {args.workload} exited with {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
