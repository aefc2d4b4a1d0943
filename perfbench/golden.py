#!/usr/bin/env python3
"""Write perfbench/golden.json: digests of the canary ops' outputs.

    python3 perfbench/golden.py

The canary ops are the first ops of each workload's stream for the default
seed; every benchmark run replays them and compares digests.  Regenerate
only when an output is meant to change, and say why in the change.
"""

import json
import sys

import run


def main():
    if not (run.SRC / "trilie" / "__init__.py").is_file():
        print(f"error: no trilie sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from checks import SPACE_KINDS
    from inputs import DEFAULT_SEED
    golden = {"seed": DEFAULT_SEED, "cold_spaces_dims": None}
    for name in run.WORKLOADS:
        args = run.argparse.Namespace(workload=name, seed=DEFAULT_SEED, setup_only=False)
        workload = run.make_workload(args, run.Tracer(False), golden)
        ops = run.islice(workload.stream(seed=DEFAULT_SEED), run.CANARY_OPS[name])
        raws = [workload.execute(op, "canary") for op in ops]
        if name == "cold_spaces":
            # the spaces' dimensions do not depend on the basis: record them once
            report = json.loads(raws[0]["result"])
            golden["cold_spaces_dims"] = workload.dims = {
                key: report["spaces"][key]["dim"] for key in SPACE_KINDS}
        golden[name] = []
        for raw in raws:
            rec = workload.finish(raw)
            if rec["problem"]:
                print(f"error: canary op {rec['op']} fails its check: {rec['problem']}",
                      file=sys.stderr)
                return 1
            golden[name].append(rec["digest"])
    run.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    print(f"wrote {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
