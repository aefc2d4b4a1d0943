#!/usr/bin/env python3
"""Benchmark for trilie: one process, one caller, one op in flight.

    python3 perfbench/run.py --workload {theorem,probe,cold_spaces} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Every input comes from --seed.  Ops run in a
closed loop until S seconds have been spent inside ops; after each op, and
outside its timing, benchmark-side arithmetic (perfbench/checks.py) checks
its output.  Canary ops for the default seed are then replayed and compared
with golden digests.  The last line of stdout is one JSON object {correct,
attempted, failed, metrics}: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  perfbench/README.md describes the
workloads and every metric.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from itertools import islice
from pathlib import Path

START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("theorem", "probe", "cold_spaces")
LEVELS = 4            # top level of every sampled sequence
COLD_DOCS = 40        # distinct documents per cold_spaces run, cycled
CANARY_OPS = {"theorem": 1, "probe": 1, "cold_spaces": 2}
SETUP_REPEATS = 3     # this process plus two fresh ones; setup_s is the median
CHILD_TIMEOUT = 170   # seconds; no single op or set-up comes near this
KINDS = ("higher", "lie-higher", "lie-triple-higher")
# One probe elimination's time on an idle core of the reference machine (a
# 2-vCPU VM, Python 3.11, no gmpy2).  Every reported time is scaled by this
# over the probe time measured around it; see SpeedProbe.
PROBE_NOMINAL_S = 0.006

OP_LAYERS = ("derivations.sample_sequence", "derivations.verify_sequence",
             "decomposition.decompose", "decomposition.verify_properness",
             "decomposition.probe_conjecture")
COLD_LAYERS = (("cli.start", "workspace.load_file", "triangular.build_triangular")
               + tuple(f"derivations.coefficient_matrix.{k}" for k in KINDS)
               + tuple(f"linalg.factor.{k}" for k in KINDS)
               + ("workspace.emit",))
SETUP_LAYERS = ("catalog.load_catalog", "derivations.spaces",
                "extension.build_operator_extension")
COUNTS = (tuple(f"linalg.rows.{k}" for k in KINDS) + ("linalg.cols",)
          + tuple(f"linalg.rank.{k}" for k in KINDS) + ("algebra.struct_nnz", "probe.levels"))


class Tracer:
    """In-memory spans [name, start, end, parent index, op id], written out
    with the run record.  Disabled, span() returns a shared no-op context."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    def span(self, name, op=None):
        if not self.enabled:
            return nullcontext()
        parent = self._stack[-1] if self._stack else None
        return _Span(self, self.add(name, None, None, parent, op))

    def add(self, name, start, end, parent=None, op=None) -> int:
        self.spans.append([name, start, end, parent, op])
        return len(self.spans) - 1

    def self_times(self):
        """(per span: duration minus the time its child spans cover,
        per span: the time its child spans cover)."""
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)], covered


class _Span:
    def __init__(self, tracer, index):
        self.tracer, self.index = tracer, index

    def __enter__(self):
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index][1] = time.perf_counter()

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def env_stamp():
    from trilie.linalg import Scalar
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        top, commit = git.stdout.split()
        if git.returncode != 0 or Path(top).resolve() != ROOT:
            commit = "unknown"
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = "unknown"
    return {"python": platform.python_version(), "backend": Scalar.__module__,
            "nproc": os.cpu_count(), "commit": commit}


# ---------------------------------------------------------------------------
# theorem and probe: warm, in-process ops on the six catalog algebras

class WarmWorkload:
    """One op: for each of the six catalog algebras, sample an L_4 sequence
    with the op's seed, verify it, then decompose and re-verify (theorem) or
    run the Lie-triple probe (probe).

    Set-up loads the catalog, factors each algebra's system for the kind,
    builds each operator extension and runs one warm-up op."""

    def __init__(self, name, seed, tracer):
        from checks import Product
        from inputs import warm_ops
        from trilie import algebra, catalog, decomposition, derivations, extension
        self.name, self.seed, self.tracer = name, seed, tracer
        self.d, self.dec, self.warm_ops = derivations, decomposition, warm_ops
        self.kind = derivations.LIE_HIGHER if name == "theorem" else derivations.LIE_TRIPLE_HIGHER
        space_fn = {derivations.LIE_HIGHER: derivations.lie_derivation_space,
                    derivations.LIE_TRIPLE_HIGHER: derivations.lie_triple_derivation_space}
        self.tris = {}
        self.counts = defaultdict(int)
        for alg_name in catalog.catalog_names():
            with tracer.span("catalog.load_catalog"):
                tri = catalog.load_catalog(alg_name)
            alg = tri.algebra
            with tracer.span("derivations.spaces"):
                # the first level_system call builds and caches the coefficient
                # matrix, so the space call after it is the factorization alone
                with tracer.span(f"derivations.coefficient_matrix.{self.kind}"):
                    prefix = derivations.HigherMapSequence(
                        self.kind, (algebra.LinearMap.identity(alg.dim),))
                    system = derivations.level_system(alg, self.kind, prefix)
                with tracer.span(f"linalg.factor.{self.kind}"):
                    space = space_fn[self.kind](alg)
            with tracer.span("extension.build_operator_extension"):
                extension.build_operator_extension(tri)
            self.tris[alg_name] = tri
            self.counts[f"linalg.rows.{self.kind}"] += system.matrix.rows
            self.counts["linalg.cols"] += system.matrix.cols
            self.counts[f"linalg.rank.{self.kind}"] += system.matrix.cols - space.dim
            self.counts["algebra.struct_nnz"] += sum(
                1 for row in alg.struct_consts for v in row for c in v if c)
        self.products = {n: Product(tri.algebra.struct_consts) for n, tri in self.tris.items()}
        self.records = [self.finish(self.execute(next(warm_ops(name, seed, warmup=True)),
                                                 "warmup"))]

    def stream(self, seed=None):
        return self.warm_ops(self.name, self.seed if seed is None else seed)

    def _pipeline(self, tri, sample_seed, op_id):
        span = self.tracer.span
        with span("derivations.sample_sequence", op_id):
            seq = self.d.sample_sequence(tri.algebra, self.kind, LEVELS, sample_seed)
        with span("derivations.verify_sequence", op_id):
            violations = self.d.verify_sequence(tri.algebra, seq)
        extra = None
        if not violations and self.name == "theorem":
            with span("decomposition.decompose", op_id):
                extra = self.dec.decompose(tri, seq)
            with span("decomposition.verify_properness", op_id):
                violations = self.dec.verify_properness(tri, seq, extra)
        elif not violations:
            with span("decomposition.probe_conjecture", op_id):
                extra = self.dec.probe_conjecture(tri, seq)
        return seq, violations, extra

    def execute(self, op, phase, probe=None):
        """Run one op.  Given a SpeedProbe, probes run between the algebras
        and each pipeline is scaled on its own: a round lasts long enough
        for the speed to change within it."""
        index, sample_seed = op
        op_id = f"{phase}:{index}"
        results = []
        seconds = scaled = 0.0
        speed = probe() if probe else None
        with self.tracer.span("op", op_id):
            for alg_name, tri in self.tris.items():
                start = time.perf_counter()
                try:
                    results.append((alg_name, self._pipeline(tri, sample_seed, op_id), None))
                except Exception as exc:  # an op that raises is a counted failure
                    results.append((alg_name, None, f"{type(exc).__name__}: {exc}"))
                part = time.perf_counter() - start
                seconds += part
                if probe:
                    after = probe()
                    scaled += part * speed_scale(speed, after)
                    speed = after
        return {"phase": phase, "op": [index, sample_seed], "seconds": seconds,
                "scale": scaled / seconds if probe else None, "results": results}

    def finish(self, raw):
        """Check one op's outputs; keep only what the metrics need."""
        rec = {"phase": raw["phase"], "op": raw["op"], "seconds": raw["seconds"],
               "scale": raw["scale"], "digest": None, "problem": None, "bits": 0, "probe": []}
        payloads = []
        for alg_name, result, error in raw["results"]:
            try:
                payload, problem = self._check(rec, alg_name, result, error)
            except Exception as exc:  # malformed output is a counted failure
                payload, problem = None, f"unreadable output: {type(exc).__name__}: {exc}"
            payloads.append(payload)
            if problem and not rec["problem"]:
                rec["problem"] = f"{alg_name}: {problem}"
        if not rec["problem"]:
            from checks import digest
            rec["digest"] = digest(payloads)
        return rec

    def _check(self, rec, alg_name, result, error):
        from checks import frac_grid, grid_text, law_violation
        if error:
            return None, error
        seq, violations, extra = result
        levels = [frac_grid(lm.matrix.entries) for lm in seq.levels]
        rec["bits"] = max([rec["bits"]] + [max(x.numerator.bit_length(),
                                               x.denominator.bit_length())
                                           for row in levels[-1] for x in row])
        if violations:
            return None, f"{len(violations)} violation(s), first: {violations[0]}"
        if seq.kind != self.kind or len(levels) != LEVELS + 1:
            return None, f"wrong sequence: {seq.kind} with {len(levels)} levels"
        problem = law_violation(self.products[alg_name], self.kind, levels)
        payload = {"algebra": alg_name, "levels": [grid_text(g) for g in levels]}
        if self.name == "theorem":
            payload["delta"] = [grid_text(m.matrix.entries) for m in extra.delta]
            payload["chi"] = [grid_text(m.matrix.entries) for m in extra.chi]
        else:
            payload["probe"] = [[lv.level, lv.status, lv.method, lv.freedom]
                                for lv in extra.levels]
            payload["complete"] = extra.complete
            rec["probe"] += [[lv.status, lv.method] for lv in extra.levels[1:]]
            if [lv.level for lv in extra.levels] != list(range(LEVELS + 1)):
                problem = problem or "probe did not report every level"
        return payload, problem

    def layer_counts(self, records):
        out = dict(self.counts)
        out["derivations.max_coeff_bits"] = max(r["bits"] for r in records)
        statuses = [lv for r in records for lv in r["probe"]]
        found = [method for status, method in statuses if status == "found"]
        out["probe.levels"] = len(statuses)
        out["probe.found_ratio"] = len(found) / len(statuses) if statuses else 0.0
        out["probe.display_ratio"] = found.count("display") / len(found) if found else 0.0
        return out


# ---------------------------------------------------------------------------
# cold_spaces: one fresh `trilie spaces` process per op

class ColdWorkload:
    """One op: `python -m trilie.cli spaces --input DOC --json` in a fresh
    process, on a seeded dense-basis Tri(T2, T2, T2) document.

    Set-up generates the documents.  Traced ops run perfbench/cold_driver.py,
    which makes the same calls as the CLI with spans around them."""

    def __init__(self, name, seed, tracer, golden, docs_dir):
        from inputs import write_cold_documents
        self.name, self.seed, self.tracer = name, seed, tracer
        self.dims = golden["cold_spaces_dims"]
        self.write_docs = write_cold_documents
        with tracer.span("inputs.write_cold_documents"):
            self.docs = write_cold_documents(seed, COLD_DOCS, docs_dir)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # one untimed CLI start, so bytecode caches are warm for every timed op
        subprocess.run([sys.executable, "-m", "trilie.cli", "--help"], env=self.env,
                       cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=CHILD_TIMEOUT)
        self.reference = {}   # document path -> its first report, once checked
        self.counts = {}
        self.records = []

    def stream(self, seed=None):
        docs = self.docs
        if seed is not None:
            docs = self.write_docs(seed, CANARY_OPS["cold_spaces"], WORK / "canary")
        index = 0
        while True:
            path, nnz, consts = docs[index % len(docs)]
            yield index, str(path), nnz, consts
            index += 1

    def _spawn(self, argv):
        """Run argv to completion: (stdout, exit code, peak RSS in KiB, stderr tail)."""
        with open(WORK / f"stderr-{os.getpid()}.txt", "w+b") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            with proc.stdout:
                out = proc.stdout.read()
            # wait4 rather than wait: it also returns this child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            tail = err.read()[-400:].decode(errors="replace")
        return out, proc.returncode, usage.ru_maxrss, tail

    def execute(self, op, phase, probe=None):
        index, path, nnz, consts = op
        before = probe() if probe else None
        start = time.perf_counter()
        if not self.tracer.enabled:
            out, code, rss, tail = self._spawn(
                [sys.executable, "-m", "trilie.cli", "spaces", "--input", path, "--json"])
            seconds = time.perf_counter() - start
        else:
            spans_path = WORK / f"spans-{os.getpid()}.json"
            out, code, rss, tail = self._spawn(
                [sys.executable, str(HERE / "cold_driver.py"), path, str(spans_path)])
            seconds = time.perf_counter() - start
            if code == 0:
                self._adopt_spans(spans_path, start, seconds, f"{phase}:{index}")
        return {"phase": phase, "op": [index, Path(path).name, nnz], "path": path,
                "consts": consts, "seconds": seconds,
                "scale": speed_scale(before, probe()) if probe else None,
                "rss_kib": rss, "result": out,
                "error": None if code == 0 else f"exit {code}: {tail}"}

    def _adopt_spans(self, spans_path, start, seconds, op_id):
        data = json.loads(spans_path.read_text(encoding="utf-8"))
        parent = self.tracer.add("op", start, start + seconds, None, op_id)
        first = len(self.tracer.spans)
        for name, s, e, p in data["spans"]:
            self.tracer.add(name, start if s is None else s, e,
                            parent if p is None else first + p, op_id)
        for kind, (rows, cols, rank) in data["counts"].items():
            self.counts[f"linalg.rows.{kind}"] = rows
            self.counts["linalg.cols"] = cols
            self.counts[f"linalg.rank.{kind}"] = rank

    def finish(self, raw):
        from checks import Product, digest, spaces_violation
        rec = {"phase": raw["phase"], "op": raw["op"], "seconds": raw["seconds"],
               "scale": raw["scale"], "rss_kib": raw["rss_kib"], "digest": None,
               "problem": raw["error"]}
        if raw["error"]:
            return rec
        out, path = raw["result"], raw["path"]
        rec["digest"] = digest(out)
        if path not in self.reference:
            rec["problem"] = spaces_violation(Product(raw["consts"]), out, self.dims)
            if rec["problem"]:
                return rec
            self.reference[path] = out
        if out != self.reference[path]:
            rec["problem"] = "report differs from the first report on this document"
        return rec

    def layer_counts(self, records):
        out = {"algebra.struct_nnz": statistics.median(r["op"][2] for r in records)}
        out.update(self.counts)
        return out


# ---------------------------------------------------------------------------

class SpeedProbe:
    """A fixed piece of benchmark-side work that tracks the CPU's speed.

    On a shared machine the speed a process gets drifts by tens of percent
    within a minute, and the drift is common to all pure-Python work: the
    probe (exact Fraction elimination of a fixed 14x14 matrix, the same kind
    of arithmetic as trilie's) slows down together with the program.
    speed_scale(before, after) turns a time measured between two probes into
    the time at PROBE_NOMINAL_S probe speed.  A call returns the mean of
    three eliminations: a single one often sees only a momentary speed.
    """

    def __init__(self):
        from fractions import Fraction
        rng = random.Random("trilie-bench:speed-probe")
        self.matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(14)]
                       for _ in range(14)]

    def __call__(self) -> float:
        from checks import rank
        start = time.perf_counter()
        for _ in range(3):
            rank(self.matrix)
        return (time.perf_counter() - start) / 3


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.

    The two vCPUs drift in speed independently; on one CPU the speed probe
    in this process measures the core a cold_spaces child runs on."""
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError:
            pass


def speed_scale(before, after):
    return PROBE_NOMINAL_S / ((before + after) / 2)


def timed_loop(workload, seconds, phase, probe):
    """Closed loop: the next op starts when the previous one is checked.

    Runs until `seconds` have been spent inside ops (speed probes and checks
    excluded); returns (records, scaled time spent inside ops)."""
    records = []
    raw_busy = busy = 0.0
    stream = workload.stream()
    while not records or raw_busy < seconds:
        rec = workload.finish(workload.execute(next(stream), phase, probe))
        raw_busy += rec["seconds"]
        busy += rec["seconds"] * rec["scale"]
        records.append(rec)
    return records, busy


def make_workload(args, tracer, golden):
    if args.workload == "cold_spaces":
        docs = WORK / ("docs-setup" if args.setup_only else "docs")
        return ColdWorkload(args.workload, args.seed, tracer, golden, docs)
    return WarmWorkload(args.workload, args.seed, tracer)


def setup_seconds_in_child(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-400:]}")
    return float(proc.stdout.split()[-1])


def percentile(values, pct):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end_metrics(workload, timed, busy, setups):
    latencies_ms = [r["seconds"] * r["scale"] * 1e3 for r in timed]
    if isinstance(workload, ColdWorkload):
        peak_kib = max(r["rss_kib"] for r in timed)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (len(timed) / busy, "1/s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_p90_ms": (percentile(latencies_ms, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }


def layer_metrics(workload, tracer, traced, traced_busy, untraced, untraced_busy,
                  setup_scale):
    """Span times are scaled like the op (or set-up) they belong to."""
    self_time, covered = tracer.self_times()
    scale = {f"traced:{r['op'][0]}": r["scale"] for r in traced}
    ops = [i for i, s in enumerate(tracer.spans) if s[0] == "op" and s[4] in scale]
    # op time as measured: speed probes inside an op span are not part of it
    op_total = sum(r["seconds"] * r["scale"] for r in traced)
    in_ops = defaultdict(float)
    in_setup = defaultdict(float)
    for i, (name, start, end, _, op) in enumerate(tracer.spans):
        if op in scale:
            in_ops[name] += self_time[i] * scale[op]
        elif op is None:
            in_setup[name] += (end - start) * setup_scale
    n = len(ops)
    per_op = 1e3 / n if n else 0.0
    of_total = 1 / op_total if op_total else 0.0
    metrics = {}
    for name in OP_LAYERS:
        metrics[f"{name}.ms"] = (in_ops[name] * per_op, "ms")
        metrics[f"{name}.share"] = (in_ops[name] * of_total, "ratio")
    for name in COLD_LAYERS:
        metrics[f"{name}.ms"] = (in_ops[name] * per_op, "ms")
    for name in SETUP_LAYERS:
        metrics[f"{name}.s"] = (in_setup[name], "s")
    counts = workload.layer_counts(traced)
    for key in COUNTS:
        metrics[key] = (counts.get(key, 0), "count")
    metrics["derivations.max_coeff_bits"] = (counts.get("derivations.max_coeff_bits", 0), "bits")
    metrics["probe.display_ratio"] = (counts.get("probe.display_ratio", 0.0), "ratio")
    metrics["probe.found_ratio"] = (counts.get("probe.found_ratio", 0.0), "ratio")
    metrics["bench.span_coverage"] = (
        sum(covered[i] * scale[tracer.spans[i][4]] for i in ops) * of_total, "ratio")
    metrics["bench.trace_overhead"] = (
        1 - (len(traced) / traced_busy) / (len(untraced) / untraced_busy), "ratio")
    metrics["bench.traced_ops"] = (n, "count")
    return metrics


def run(args):
    probe = SpeedProbe()
    before = probe()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    tracer = Tracer(bool(args.trace))
    workload = make_workload(args, tracer, golden)
    setup_raw = time.perf_counter() - START - before
    setup_scale = speed_scale(before, probe())
    setup = setup_raw * setup_scale
    if args.setup_only:
        print(f"{setup:.9f}")
        return 0
    untraced = []
    if args.trace:
        # the same ops twice, untraced then traced: the ops_per_s gap is
        # the tracing overhead
        tracer.enabled = False
        untraced, untraced_busy = timed_loop(workload, args.seconds / 2, "untraced", probe)
        tracer.enabled = True
        timed, busy = timed_loop(workload, args.seconds / 2, "traced", probe)
        tracer.enabled = False
        metrics = layer_metrics(workload, tracer, timed, busy, untraced, untraced_busy,
                                setup_scale)
    else:
        timed, busy = timed_loop(workload, args.seconds, "timed", probe)
        setups = [setup] + [setup_seconds_in_child(args) for _ in range(SETUP_REPEATS - 1)]
        metrics = end_to_end_metrics(workload, timed, busy, setups)

    canary = [workload.finish(workload.execute(op, "canary"))
              for op in islice(workload.stream(seed=golden["seed"]), CANARY_OPS[args.workload])]
    for rec, want in zip(canary, golden[args.workload]):
        if not rec["problem"] and rec["digest"] != want:
            rec["problem"] = f"digest {rec['digest']} differs from golden {want}"
    records = workload.records + untraced + timed + canary
    problems = [[r["phase"], r["op"], r["problem"]] for r in records if r["problem"]]
    failed = len(problems)

    stamp = env_stamp()
    result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": stamp, "metrics": result_metrics,
        "attempted": len(records), "failed": failed, "problems": problems,
        "ops": [[r["phase"], r["op"], r["seconds"], r.get("scale"), r["digest"]]
                for r in records],
        "spans": tracer.spans,
    }, indent=1), encoding="utf-8")

    for phase, op, problem in problems[:10]:
        print(f"# FAILED {phase} op {op}: {problem}")
    print(f"# env {json.dumps(stamp, sort_keys=True)}")
    if not args.trace:
        p90 = metrics["op_p90_ms"][0]
        beyond = sum(r["seconds"] * r["scale"] * 1e3 > p90 for r in timed)
        raw_p50 = statistics.median(r["seconds"] for r in timed) * 1e3
        print(f"# {args.workload} seed {args.seed}: {len(timed)} timed ops; "
              + ", ".join(f"{k} {v:.4f} {u}" for k, (v, u) in metrics.items())
              + f"; p90 has {beyond} samples beyond it; setup_s is the median of "
              f"{SETUP_REPEATS}; fail_ratio {failed}/{len(records)} = {failed / len(records):.4f}; "
              f"unscaled op_p50_ms {raw_p50:.4f}, median speed scale "
              f"{statistics.median(r['scale'] for r in timed):.4f}")
    print(f"# record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": result_metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit "
                             "(a run spawns this to repeat its set-up)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "trilie" / "__init__.py").is_file():
        print(f"error: no trilie sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)
    pin_to_one_cpu()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
