"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py                 # BENCHMARK.json and result files
    python3 perfbench/selfcheck.py --corrupt SEED  # each output check catches corruption

The first form checks that ``BENCHMARK.json`` lists exactly the workloads
``run.py`` defines, and that every result file under ``.bench_results/``
parses and reports exactly the metric names and units ``BENCHMARK.json``
defines for its trace mode. The second runs every workload's commands once
on the seed's inputs, confirms that all checks pass, then damages each output
file in turn and confirms that its check reports a problem.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shutil
import sys

import run

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_spec(spec: dict) -> list[str]:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(spec)}")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
    errors += [f"bad or repeated name {n!r}" for n in names if not NAME.match(n) or names.count(n) > 1]
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload entry {w['name']}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errors.append(f"end_to_end entry {m['name']}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per_layer entry {m['name']}")
    setup = next((m for m in spec["end_to_end"] if m["name"] == "setup_s"), {})
    if (setup.get("unit"), setup.get("better")) != ("s", "lower") or \
            setup["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errors.append("setup_s must be an end_to_end metric in s, lower is better, with the largest bound")
    if not all(os.path.isdir(os.path.join(run.ROOT, p)) for p in spec["paths"]):
        errors.append(f"paths {spec['paths']} are not all directories")
    return errors


def check_result(spec: dict, path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    result = record["result"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{path}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1 and isinstance(result["failed"], int)):
        errors.append(f"{path}: attempted/failed must be whole numbers, attempted >= 1")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if record["trace"] else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        errors.append(f"{path}: metric names/units differ from BENCHMARK.json: "
                      f"{sorted(set(got.items()) ^ set(wanted.items()))}")
    if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
        errors.append(f"{path}: non-numeric metric value")
    return errors


def _edit(path: str, line_no: int, field: int, change) -> None:
    """Apply ``change`` to one numeric field of one CSV line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    cells = lines[line_no].split(",")
    cells[field] = repr(change(float(cells[field])))
    lines[line_no] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _swap_docs(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    a, b = lines[0].split(), lines[1].split()
    a[2], b[2] = b[2], a[2]
    lines[0], lines[1] = " ".join(a), " ".join(b)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _truncate(path: str) -> None:
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)


# (output file, damage) per command; every command's check must catch each.
# Line numbers count the comment and header lines of each file.
DAMAGE = {
    "threshold": [("thresholds.csv", lambda p: _edit(p, 1, 2, lambda x: x + 2e-4)),
                  ("curve.csv", lambda p: _edit(p, 1202, 1, lambda x: x * (1 - 1e-6)))],
    "uncertainty": [("uncertainty.csv", lambda p: _edit(p, 252, 2, lambda x: int(x) + 1)),
                    ("histogram.csv", lambda p: _edit(p, 252, 2, lambda x: int(x) + 1))],
    "index": [("index.json.gz", _truncate)],
    "search": [("run_{policy}.txt", _swap_docs)],
    "evaluate": [("report_{policy}.csv", lambda p: _edit(p, 3, 1, lambda x: x + 1e-6))],
    "compare": [("compare.csv", lambda p: _edit(p, 1, 4, lambda x: x * 1.01))],
}


def corruption_check(seed: int) -> list[str]:
    sys.path.insert(0, run.SRC)
    errors = []
    for workload in run.WORKLOADS.values():
        inputs, manifest = run.cached_inputs(workload, seed)
        out = os.path.join(run.WORK, f"selfcheck-{workload.name}")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        try:
            commands = workload.commands(inputs, out, manifest)
            rep = run.repeat(commands, out, traced=False)
            for n, (cmd, outcome) in enumerate(zip(commands, rep.outcomes)):
                if outcome.problems:
                    errors.append(f"{workload.name}: clean output fails its check: {outcome.problems}")
                    continue
                policy = cmd.argv[cmd.argv.index("--policy") + 1] if "--policy" in cmd.argv else ""
                if "--run" in cmd.argv:
                    policy = os.path.basename(cmd.argv[cmd.argv.index("--run") + 1])[4:-4]
                with open(os.path.join(out, f"cmd{n}.out"), encoding="utf-8") as fh:
                    stdout = fh.read()
                for name, damage in DAMAGE[cmd.argv[0]]:
                    path = os.path.join(out, name.format(policy=policy))
                    with open(path, "rb") as fh:
                        original = fh.read()
                    damage(path)
                    caught = cmd.check(stdout) if os.path.exists(path) else ["missing"]
                    with open(path, "wb") as fh:
                        fh.write(original)
                    status = "caught" if caught else "MISSED"
                    print(f"{workload.name:<22} {cmd.argv[0]:<12} {os.path.basename(path):<20} {status}"
                          + (f": {caught[0][:90]}" if caught else ""))
                    if not caught:
                        errors.append(f"{workload.name}: damaged {path} passed its check")
        finally:
            shutil.rmtree(out, ignore_errors=True)
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--corrupt", type=int, metavar="SEED", help="run the corruption check on this seed")
    args = parser.parse_args()
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = check_spec(spec)
    results = sorted(glob.glob(os.path.join(run.RESULTS, "*.json")))
    for path in results:
        errors += check_result(spec, path)
    print(f"BENCHMARK.json and {len(results)} result files checked")
    if args.corrupt is not None:
        errors += corruption_check(args.corrupt)
    for e in errors:
        print("FAIL " + e)
    print("selfcheck " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
