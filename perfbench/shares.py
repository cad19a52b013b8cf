"""Where the time inside each layer call goes: deep copies versus the rest.

    python3 perfbench/shares.py --seed 1 --passes 5

Replays the ingest and split-merge inputs in-process with the traced run's
spans, plus one more span around every top-level ``copy.deepcopy`` that a
cjtk module makes (the module's ``copy`` name points at a stand-in whose
``deepcopy`` is traced; copies nested inside a copy are not split out).
For each layer it prints the median inclusive time per pass and the share
of it spent in deep copies.  Inside ``geomops.quantize`` the rest is the
per-vertex ``Fraction`` rounding loop.  This is a diagnostic for the
README's baseline table, not part of the benchmark's contract.
"""

from __future__ import annotations

import argparse
import copy
import shutil
import statistics
import sys
import types
from pathlib import Path

import run
from tracing import Tracer


def deepcopy_spans(tracer):
    """Point every cjtk module's ``copy`` at a stand-in with traced deepcopy."""
    stand_in = types.SimpleNamespace(
        copy=copy.copy, deepcopy=tracer.wrap("copy.deepcopy", copy.deepcopy))
    swapped = [m for key, m in sys.modules.items()
               if key.startswith("cjtk.") and getattr(m, "copy", None) is copy]
    for module in swapped:
        module.copy = stand_in
    return swapped


def shares(spans) -> dict:
    """layer -> (inclusive ns, ns in deep copies directly under it)."""
    by_id = {sp.sid: sp for sp in spans}
    out: dict = {}
    for sp in spans:
        if sp.name.startswith("cli.") or sp.name == "copy.deepcopy":
            continue
        entry = out.setdefault(sp.name, [0, 0])
        entry[0] += sp.end - sp.start
    for sp in spans:
        if sp.name == "copy.deepcopy" and sp.parent is not None:
            owner = by_id[sp.parent].name
            if owner in out:
                out[owner][1] += sp.end - sp.start
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args()
    run.require_tree()
    from workloads import WORKLOADS

    work = run.ROOT / ".bench_work" / "shares"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name in ("ingest", "split-merge"):
            workload = WORKLOADS[name]()
            units, _, _ = run.setup(workload, args.seed, work / name / "in", 0)
            per_pass = []
            for k in range(args.passes):
                tracer = Tracer()
                swapped = deepcopy_spans(tracer)
                try:
                    run.replay_pass(workload, units, tracer,
                                    work / name / f"p{k}")
                finally:
                    for module in swapped:
                        module.copy = copy
                per_pass.append(shares(tracer.spans))
            print(f"{name}: median of {args.passes} passes, seed {args.seed}")
            for layer in sorted(per_pass[0], key=lambda n: -per_pass[0][n][0]):
                total = statistics.median(p[layer][0] for p in per_pass) / 1e6
                share = statistics.median(p[layer][1] / p[layer][0]
                                          for p in per_pass if p[layer][0])
                print(f"  {layer:34s} {total:9.1f} ms  deepcopy "
                      f"{100 * share:5.1f}%")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
