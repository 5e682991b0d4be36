#!/usr/bin/env python3
"""Self-test of the benchmark: counts from the traced run must repeat exactly.

    python3 perfbench/selftest.py

Runs every workload's traced run (`run.py --trace 1`) twice with seed 7 and
exits 1 unless both runs pass their oracles and agree exactly on every count
below.  A traced run also checks that the attack tables it makes with the
span wrappers installed are byte-identical to the untraced reference run of
the same op.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 7
# op time per traced run: one untraced and one traced cycle
SECONDS = 1.0
COUNTS = ("channel.cdf_calls", "channel.pdf_calls", "secrecy.numeric_calls",
          "secrecy.saving_sop_evals", "secrecy.mc_bytes_computed", "covert.dfp_mc_trials",
          "images.blur_calls", "images.pnm_bytes", "attack.run_calls", "attack.iters",
          "attack.encode_calls", "harness.render_bytes")


def traced_run(workload: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
                          cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"selftest: traced run of {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for w in (w["name"] for w in config["workloads"]):
        a, b = traced_run(w), traced_run(w)
        for run in (a, b):
            if not run["correct"]:
                print(f"FAIL {w}: {run['failed']} of {run['attempted']} ops failed their oracle")
                ok = False
        for name in COUNTS:
            x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
            same = x == y
            ok &= same
            print(f"{'ok  ' if same else 'FAIL'} {w:15s} {name:28s} {x!r:>14} {y!r:>14}")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
