"""Traced stand-in for one `python -m trilie.cli spaces --input DOC --json`.

Makes the public calls of the CLI's `spaces` command in the same order, with
a span around each layer, and prints the same report bytes.

    python3 perfbench/cold_driver.py DOC SPANS_OUT

SPANS_OUT receives {"spans": [[name, start, end, parent index], ...],
"counts": {kind: [rows, cols, rank]}}.  Times are time.perf_counter values,
which on Linux read CLOCK_MONOTONIC and so line up with the parent
process's clock.  The "cli.start" span has no start: the parent fills in its
own spawn time, so the span covers interpreter start plus `import trilie.cli`.
"""

import json
import sys
import time

import trilie.cli  # noqa: F401  (imported first: this is what cli.start times)

IMPORTED = time.perf_counter()

from trilie.algebra import LinearMap  # noqa: E402
from trilie.derivations import (  # noqa: E402
    HIGHER,
    LIE_HIGHER,
    LIE_TRIPLE_HIGHER,
    HigherMapSequence,
    derivation_space,
    level_system,
    lie_derivation_space,
    lie_triple_derivation_space,
)
from trilie.linalg import matrix_from_flat  # noqa: E402
from trilie.workspace import load_file, matrix_json  # noqa: E402

SPACES = (("derivation", HIGHER, derivation_space),
          ("lie-derivation", LIE_HIGHER, lie_derivation_space),
          ("lie-triple-derivation", LIE_TRIPLE_HIGHER, lie_triple_derivation_space))


def main(doc_path, spans_path):
    spans = [["cli.start", None, IMPORTED, None]]

    def close(name, start, parent=None):
        end = time.perf_counter()
        spans.append([name, start, end, parent])
        return end

    t = time.perf_counter()
    ws = load_file(doc_path)
    t = close("workspace.load_file", t)
    (name,) = ws.triangular_names()
    tri = ws.triangular(name)
    t = close("triangular.build_triangular", t)
    alg = tri.algebra
    identity = (LinearMap.identity(alg.dim),)
    found = {}
    counts = {}
    for key, kind, space_fn in SPACES:
        outer = len(spans)
        spans.append(["derivations.spaces", t, None, None])
        # the first level_system call builds and caches the coefficient
        # matrix, so the space call after it is the factorization alone
        system = level_system(alg, kind, HigherMapSequence(kind, identity))
        t = close(f"derivations.coefficient_matrix.{kind}", t, outer)
        found[key] = space_fn(alg)
        t = close(f"linalg.factor.{kind}", t, outer)
        spans[outer][2] = t
        counts[kind] = [system.matrix.rows, system.matrix.cols,
                        system.matrix.cols - found[key].dim]
    spaces = {key: {"dim": space.dim,
                    "basis": [matrix_json(matrix_from_flat(v, alg.dim, alg.dim))
                              for v in space.vectors]}
              for key, space in found.items()}
    print(json.dumps({"command": "spaces", "ok": True, "target": name,
                      "spaces": spaces}, sort_keys=True, indent=2), flush=True)
    close("workspace.emit", t)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": spans, "counts": counts}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
