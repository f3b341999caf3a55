#!/usr/bin/env python3
"""Self-test of the benchmark: shows that each output check fires and
that BENCHMARK.json agrees with perfbench/catalog.json.

    python3 perfbench/selftest.py

Builds the benchmark binary like run.py, then runs it with each self-test hook:
a perturbed Calibration must fail vit_timing, a tampered logit must fail
vit_functional, and a broken conservation count must fail fleet_serve.
Each failing run must exit 1 and print "correct": false. Takes about a
minute on a 4-core machine.
"""

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_declarations():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(run.HERE, "catalog.json")) as f:
        catalog = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    assert sorted(workloads) == sorted(catalog["workloads"]), workloads
    names = set()
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(m["name"]) and m["name"] not in names, m
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"), m
        names.add(m["name"])
    for m in bench["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
        assert m["name"] in catalog["end_to_end"], m
    declared = {m["name"] for m in bench["per_layer"]}
    assert declared == set(catalog["per_layer"]), \
        declared ^ set(catalog["per_layer"])
    for name, entry in catalog["per_layer"].items():
        assert set(entry["workloads"]) <= set(workloads), name
        for move in entry["moves"]:
            assert move["metric"] in catalog["end_to_end"], name
            assert move["workload"] in workloads, name


def expect_failure(workload, hook, seconds):
    cmd = [run.BINARY, "--workload", workload, "--seed", "1", "--seconds",
           str(seconds), "--trace", "0", "--root", run.ROOT, hook]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    ok = proc.returncode == 1 and result["correct"] is False and \
        result["failed"] >= 1 and "CHECK FAILED" in proc.stdout
    print("%-15s %-22s -> exit %d, correct %s: %s" % (
        workload, hook, proc.returncode, result["correct"],
        "fires" if ok else "DID NOT FIRE"))
    return ok


def main():
    check_declarations()
    print("BENCHMARK.json and catalog.json agree")
    run.build()
    results = [
        expect_failure("vit_timing", "--perturb-calibration", 1),
        expect_failure("vit_functional", "--tamper-logit", 1),
        expect_failure("fleet_serve", "--tamper-conservation", 1),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
