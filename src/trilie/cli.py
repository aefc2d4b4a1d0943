"""Command-line front end.

Subcommands cover the pipeline end to end: validate workspace documents
(`check`), inspect centers and derivation spaces (`center`, `spaces`), build
the operator extension (`extend`), generate seeded map sequences (`sample`),
split Lie higher derivations and recheck every promised property
(`decompose`, `verify`), and run the experimental weakened-split search
(`probe`).

Exit codes: 0 — everything requested passed; 1 — a mathematical check failed
(the report carries the witness); 2 — the input could not be used at all
(parse error, unknown name, bad flags).  With --json the report is a single
deterministic JSON document: identical inputs, seeds, and levels produce
byte-identical output.
"""

import argparse
import json
import sys
from importlib import resources

from .algebra import validate_algebra
from .bimodule import validate_bimodule
from .catalog import catalog_names
from .decomposition import (
    StructureError,
    decompose,
    probe_conjecture,
    verify_properness,
)
from .derivations import (
    HIGHER,
    KINDS,
    LIE_HIGHER,
    LIE_TRIPLE_HIGHER,
    derivation_space,
    lie_derivation_space,
    lie_triple_derivation_space,
    sample_sequence,
    verify_sequence,
)
from .extension import build_operator_extension
from .linalg import matrix_from_flat
from .triangular import center_transfer, center_triangular
from .workspace import (
    Workspace,
    WorkspaceError,
    load_file,
    matrix_json,
    sequence_json,
    vector_json,
)


class InputError(Exception):
    """User-facing input problem → exit code 2."""


class CheckFailure(Exception):
    """Mathematical failure with a report to emit → exit code 1."""

    def __init__(self, report):
        self.report = report
        super().__init__("check failed")


def violation_json(v):
    return {"law": v.law, "where": list(v.where), "message": v.message}


def _load_workspace(args) -> Workspace:
    if args.builtin is not None and args.input is not None:
        raise InputError("use either --input or --builtin, not both")
    if args.builtin is not None:
        if args.builtin not in catalog_names():
            raise InputError(
                f"unknown builtin {args.builtin!r}; choices: {', '.join(catalog_names())}")
        path = resources.files("trilie") / "corpus" / f"{args.builtin}.json"
        with resources.as_file(path) as real:
            return load_file(str(real))
    if args.input is None:
        raise InputError("an input document is required: --input FILE or --builtin NAME")
    return load_file(args.input)


def _target_name(ws: Workspace, args) -> str:
    names = ws.triangular_names()
    if args.target is not None:
        if args.target not in ws.triangular_specs:
            raise InputError(
                f"unknown triangular algebra {args.target!r}; document defines: {', '.join(names) or 'none'}")
        return args.target
    if len(names) == 1:
        return names[0]
    raise InputError(
        f"document defines {len(names)} triangular algebras; choose one with --target "
        f"({', '.join(names) or 'none available'})")


def _build_target(ws: Workspace, args):
    name = _target_name(ws, args)
    try:
        return name, ws.triangular(name)
    except ValueError as exc:
        raise CheckFailure({
            "command": args.command,
            "ok": False,
            "target": name,
            "error": {"kind": "construction", "message": str(exc)},
        }) from None


def _resolve_sequence(ws: Workspace, args, tri_name, tri, allowed_kinds,
                      default_kind):
    """Sequence from the document (--sequence) or freshly sampled."""
    if args.sequence is not None:
        if args.seed is not None or args.levels is not None or \
                getattr(args, "kind", None) is not None:
            raise InputError("--sequence excludes --seed/--levels/--kind "
                             "(the stored sequence fixes them)")
        try:
            on, seq = ws.sequence(args.sequence)
        except KeyError:
            raise InputError(f"unknown sequence {args.sequence!r}") from None
        if on != tri_name:
            raise InputError(
                f"sequence {args.sequence!r} is defined on {on!r}, not on {tri_name!r}")
        if seq.kind not in allowed_kinds:
            raise InputError(
                f"sequence {args.sequence!r} has kind {seq.kind!r}; this command "
                f"accepts: {', '.join(sorted(allowed_kinds))}")
        source = {"sequence": args.sequence}
    else:
        kind = getattr(args, "kind", None) or default_kind
        if kind not in allowed_kinds:
            raise InputError(
                f"kind {kind!r} not accepted here; choices: {', '.join(sorted(allowed_kinds))}")
        levels = args.levels if args.levels is not None else 3
        if levels < 0:
            raise InputError(f"--levels must be nonnegative, got {levels}")
        seed = args.seed if args.seed is not None else 0
        seq = sample_sequence(tri.algebra, kind, levels, seed)
        source = {"sampled": {"kind": kind, "levels": levels, "seed": seed}}
    return seq, source


def cmd_check(ws: Workspace, args):
    objects = []

    def record(name, violations):
        objects.append({
            "name": name,
            "ok": not violations,
            "violations": [violation_json(v) for v in violations],
        })

    for name in sorted(ws.algebras):
        record(f"algebras.{name}", validate_algebra(ws.algebras[name]))
    for name in sorted(ws.bimodules):
        record(f"bimodules.{name}", validate_bimodule(ws.bimodules[name]))
    buildable = {}
    for name in ws.triangular_names():
        try:
            buildable[name] = ws.triangular(name)
            record(f"triangulars.{name}", ())
        except ValueError as exc:
            objects.append({
                "name": f"triangulars.{name}",
                "ok": False,
                "violations": [{"law": "construction", "where": [],
                                "message": str(exc)}],
            })
    for name in sorted(ws.sequence_specs):
        on, seq = ws.sequence(name)
        if on not in buildable:
            objects.append({
                "name": f"sequences.{name}",
                "ok": False,
                "violations": [{"law": "construction", "where": [on],
                                "message": "the underlying triangular algebra failed to build"}],
            })
            continue
        record(f"sequences.{name}", verify_sequence(buildable[on].algebra, seq))
    ok = all(obj["ok"] for obj in objects)
    return {"command": "check", "ok": ok, "objects": objects}, 0 if ok else 1


def cmd_center(ws: Workspace, args):
    name, tri = _build_target(ws, args)
    elements = center_triangular(tri)
    transfer = center_transfer(tri)
    report = {
        "command": "center",
        "ok": True,
        "target": name,
        "dim": len(elements),
        "elements": [{"a_part": vector_json(c.a_part),
                      "b_part": vector_json(c.b_part)} for c in elements],
        "transfer_matrix": matrix_json(transfer.matrix),
    }
    return report, 0


def cmd_spaces(ws: Workspace, args):
    name, tri = _build_target(ws, args)
    alg = tri.algebra
    spaces = {}
    for key, space in (("derivation", derivation_space(alg)),
                       ("lie-derivation", lie_derivation_space(alg)),
                       ("lie-triple-derivation", lie_triple_derivation_space(alg))):
        spaces[key] = {
            "dim": space.dim,
            "basis": [matrix_json(matrix_from_flat(v, alg.dim, alg.dim))
                      for v in space.vectors],
        }
    return {"command": "spaces", "ok": True, "target": name,
            "spaces": spaces}, 0


def cmd_extend(ws: Workspace, args):
    name, tri = _build_target(ws, args)
    ext = build_operator_extension(tri)
    report = {
        "command": "extend",
        "ok": True,
        "target": name,
        "base_dim": tri.dim,
        "extended_dim": ext.extended.dim,
        "a0_dim": ext.dim_a0,
        "b0_dim": ext.dim_b0,
        "strict_a": ext.strict_a,
        "strict_b": ext.strict_b,
    }
    return report, 0


def cmd_sample(ws: Workspace, args):
    name, tri = _build_target(ws, args)
    seq, source = _resolve_sequence(ws, args, name, tri, KINDS, LIE_HIGHER)
    violations = verify_sequence(tri.algebra, seq)
    report = {
        "command": "sample",
        "ok": not violations,
        "target": name,
        **source["sampled"],
        "sequence": sequence_json(seq, name),
        "violations": [violation_json(v) for v in violations],
    }
    return report, 0 if not violations else 1


def cmd_verify(ws: Workspace, args):
    name, tri = _build_target(ws, args)
    seq, source = _resolve_sequence(ws, args, name, tri, KINDS, LIE_HIGHER)
    violations = verify_sequence(tri.algebra, seq)
    report = {
        "command": "verify",
        "ok": not violations,
        "target": name,
        "kind": seq.kind,
        "source": source,
        "top_level": seq.top_level,
        "violations": [violation_json(v) for v in violations],
    }
    return report, 0 if not violations else 1


def cmd_decompose(ws: Workspace, args):
    name, tri = _build_target(ws, args)
    seq, source = _resolve_sequence(ws, args, name, tri,
                                    {HIGHER, LIE_HIGHER}, LIE_HIGHER)
    base = {
        "command": "decompose",
        "target": name,
        "kind": seq.kind,
        "source": source,
        "top_level": seq.top_level,
    }
    violations = verify_sequence(tri.algebra, seq)
    if violations:
        base.update(ok=False, input_violations=[violation_json(v) for v in violations])
        return base, 1
    try:
        dec = decompose(tri, seq)
    except StructureError as exc:
        base.update(ok=False, structure_error={
            "law": exc.law, "where": list(exc.where), "message": str(exc)})
        return base, 1
    report_violations = verify_properness(tri, seq, dec)
    ext = dec.extension
    comps = dec.components
    base.update(
        ok=not report_violations,
        extension={
            "base_dim": tri.dim,
            "extended_dim": ext.extended.dim,
            "a0_dim": ext.dim_a0,
            "b0_dim": ext.dim_b0,
            "strict_a": ext.strict_a,
            "strict_b": ext.strict_b,
        },
        components={
            "diag_a": [matrix_json(m.matrix) for m in comps.diag_a],
            "cross_ab": [matrix_json(m.matrix) for m in comps.cross_ab],
            "cross_ba": [matrix_json(m.matrix) for m in comps.cross_ba],
            "diag_b": [matrix_json(m.matrix) for m in comps.diag_b],
            "mod": [matrix_json(m.matrix) for m in comps.mod],
            "offsets": [vector_json(v) for v in comps.offsets],
        },
        delta=[matrix_json(m.matrix) for m in dec.delta],
        chi=[matrix_json(m.matrix) for m in dec.chi],
        properness={
            "ok": not report_violations,
            "violations": [violation_json(v) for v in report_violations],
        },
    )
    return base, 0 if not report_violations else 1


def cmd_probe(ws: Workspace, args):
    name, tri = _build_target(ws, args)
    seq, source = _resolve_sequence(ws, args, name, tri, KINDS,
                                    LIE_TRIPLE_HIGHER)
    base = {
        "command": "probe",
        "experimental": True,
        "target": name,
        "kind": seq.kind,
        "source": source,
        "top_level": seq.top_level,
    }
    violations = verify_sequence(tri.algebra, seq)
    if violations:
        base.update(ok=False, input_violations=[violation_json(v) for v in violations])
        return base, 1
    report = probe_conjecture(tri, seq)
    base.update(
        ok=True,  # the probe itself ran; outcomes are data, not failures
        complete=report.complete,
        levels=[{"level": lv.level, "status": lv.status, "method": lv.method,
                 "freedom": lv.freedom} for lv in report.levels],
    )
    return base, 0


_COMMANDS = {
    "check": cmd_check,
    "center": cmd_center,
    "spaces": cmd_spaces,
    "extend": cmd_extend,
    "sample": cmd_sample,
    "verify": cmd_verify,
    "decompose": cmd_decompose,
    "probe": cmd_probe,
}


def _render_human(value, indent=0, label=None):
    pad = "  " * indent
    prefix = f"{pad}{label}: " if label is not None else pad
    if isinstance(value, dict):
        if label is not None:
            print(f"{pad}{label}:")
        for key in value:
            _render_human(value[key], indent + (1 if label is not None else 0), key)
    elif isinstance(value, list):
        if all(isinstance(x, str) for x in value):
            print(f"{prefix}[{', '.join(value)}]")
        elif all(isinstance(x, list) and all(isinstance(y, str) for y in x)
                 for x in value) and value:
            print(f"{pad}{label}:" if label is not None else f"{pad}-")
            for row in value:
                print(f"{pad}  [{', '.join(row)}]")
        else:
            print(f"{pad}{label}:" if label is not None else f"{pad}-")
            for item in value:
                _render_human(item, indent + 1)
    else:
        print(f"{prefix}{json.dumps(value)}")


def _emit(report, as_json: bool):
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        _render_human(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trilie",
        description="Exact computations on triangular algebras: centers, "
                    "derivation spaces, operator extensions, and properness "
                    "splits of Lie higher derivations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sampling=False, stored=False):
        p.add_argument("--input", "-i", metavar="FILE",
                       help="workspace JSON document")
        p.add_argument("--builtin", metavar="NAME",
                       help=f"use a shipped triangular algebra ({', '.join(catalog_names())})")
        p.add_argument("--target", metavar="NAME",
                       help="triangular algebra name inside the document "
                            "(optional when the document defines exactly one)")
        p.add_argument("--json", action="store_true",
                       help="emit the machine-readable JSON report")
        if sampling:
            p.add_argument("--levels", type=int, metavar="N",
                           help="top level of the sampled sequence (default 3)")
            p.add_argument("--seed", type=int, metavar="S",
                           help="sampling seed (default 0)")
        if stored:
            p.add_argument("--sequence", metavar="NAME",
                           help="use a sequence stored in the document instead of sampling")

    common(sub.add_parser("check", help="validate every object in the document"))
    common(sub.add_parser("center", help="center of the triangular algebra, "
                                         "with the side-transfer matrix"))
    common(sub.add_parser("spaces", help="derivation, Lie derivation, and Lie "
                                         "triple derivation spaces"))
    common(sub.add_parser("extend", help="build the operator extension and "
                                         "report strictness"))
    p = sub.add_parser("sample", help="generate a seeded verified sequence")
    common(p, sampling=True)
    p.add_argument("--kind", choices=sorted(KINDS),
                   help="sequence kind (default lie-higher)")
    p = sub.add_parser("verify", help="recheck a sequence against its defining law")
    common(p, sampling=True, stored=True)
    p.add_argument("--kind", choices=sorted(KINDS),
                   help="kind for sampled sequences (default lie-higher)")
    p = sub.add_parser("decompose", help="split a Lie higher derivation as "
                                         "Δ + χ and verify every property")
    common(p, sampling=True, stored=True)
    p = sub.add_parser("probe", help="experimental: weakened split search for "
                                     "Lie triple higher derivations")
    common(p, sampling=True, stored=True)
    p.add_argument("--kind", choices=sorted(KINDS),
                   help="kind for sampled sequences (default lie-triple-higher)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "sequence"):
        args.sequence = None
    try:
        ws = _load_workspace(args)
        report, code = _COMMANDS[args.command](ws, args)
    except (InputError, WorkspaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        _emit(exc.report, args.json)
        return 1
    _emit(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
