#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The first form builds perfbench/main.exe with dune (build output goes to
standard error) and then replaces itself with the executable, so the last
line of standard output is the executable's JSON result. The second form
runs every workload over a short simulated horizon and checks that each
metric named in BENCHMARK.json is emitted with its unit, and that two runs
of one seed give identical simulated metrics.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
OUT = os.path.join(ROOT, "_perfbench_out")


def build():
    # No shared dune cache: the build reads and writes only inside ROOT.
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)


def environment():
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT)
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if r.returncode == 0:
            env["PERFBENCH_COMMIT"] = r.stdout.strip()
    return env


def run_json(args, env):
    r = subprocess.run([EXE] + args, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return r.returncode, result, r.stderr


def self_check(env):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in [w["name"] for w in spec["workloads"]]:
        before = len(problems)
        sims = []
        for trace in (0, 0, 1):
            args = ["--workload", w, "--seed", "1", "--seconds", "0", "--min-reps", "1",
                    "--trace", str(trace), "--quick", "--out", OUT]
            code, result, err = run_json(args, env)
            tag = "%s --trace %d" % (w, trace)
            if code != 0 or result is None or not result["correct"]:
                problems.append("%s: exit %d, %s" % (tag, code, err.strip()[-300:]))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])
                problems.append("%s: missing %s, unexpected %s, wrong unit %s"
                                % (tag, missing, extra, units))
            if trace == 0:
                sims.append({k: v["value"] for k, v in result["metrics"].items()
                             if k.startswith("sim_")})
        if len(sims) == 2 and sims[0] != sims[1]:
            problems.append("%s: same-seed runs differ: %s vs %s" % (w, sims[0], sims[1]))
        print("self-check %s: %s" % (w, "ok" if len(problems) == before else "FAILED"),
              flush=True)
    for p in problems:
        print("self-check FAILED: " + p)
    return 1 if problems else 0


def main():
    build()
    env = environment()
    if sys.argv[1:] == ["--self-check"]:
        sys.exit(self_check(env))
    os.chdir(ROOT)
    os.execve(EXE, [EXE, "--out", OUT] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
