"""Command-line front end: construction, verification, search, and bounds.

A query command (every one but construct) answers with records and an exit
code, and main() prints them: with --json one JSON object per record, one per
line, and otherwise the text that the command's renderer makes of the same
record, so the two cannot disagree.  bent-search yields its records lazily,
one per hit.  Construct commands write a matrix, vector or code and answer with
no record; bush without --out, --verify-algebra or --json writes its matrix to
stdout, and its record renders as no text.  bush verifies B_a only when it
writes it: otherwise its record reads the order off the unverified table.

Construct commands write the text formats of fileio; a JSON matrix file is
read, never written.  Each command imports the modules it runs, so
`obstructions` and `--help` never load numpy, and only --json output and JSON
matrix files load json.  `python -m butson` and the `butson` script enter
through run(), which flushes stdout and stderr once main() returns and exits
at once with its code, skipping the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from math import isqrt

from .numtheory import _MODES

_DESCRIPTION = """\
Exit codes: 0 on success, 1 when a mathematical check comes out false
(verification fails, an obstruction proves no bent vector exists, no order
found), 2 on usage or I/O errors, on instances too large to allocate and on
input that fails a command's precondition: a non-Hadamard matrix exits 1 from
verify, which decides that property, and 2 from bent-check, bent-search, order
and covering-radius --code-from, which need it.  Numeric output is exact;
rationals print as a/b.
Given a fixed seed and inputs, output bytes are reproducible, including
under --workers changes.
"""


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _cyc_json(z) -> dict | None:
    return None if z is None else {"str": str(z), "phase": z.phase, "coeffs": list(z.coeffs)}


def _write_constructed(h, args):
    from .fileio import serialize_matrix

    _emit(serialize_matrix(h), args.out)
    return (), 0


def _cmd_construct_fourier(args):
    from .matrices import fourier_matrix

    return _write_constructed(fourier_matrix(args.n), args)


def _cmd_construct_sylvester(args):
    from .matrices import sylvester_matrix

    return _write_constructed(sylvester_matrix(args.m), args)


def _cmd_construct_kron(args):
    from .fileio import read_matrix
    from .matrices import kronecker

    left = read_matrix(args.left)
    right = read_matrix(args.right)
    return _write_constructed(kronecker(left, right), args)


def _cmd_construct_bush(args):
    from .bush import bush_circulant

    return _write_constructed(bush_circulant(args.p, args.a), args)


def _cmd_construct_ksw(args):
    from .bent import ksw_vector
    from .fileio import serialize_vector

    _emit(serialize_vector(ksw_vector(args.k, args.m)), args.out)
    return (), 0


def _cmd_construct_rm(args):
    from .codes import min_distance, reed_muller_1

    code = reed_muller_1(args.q, args.m)
    lines = [f"# R_{args.q}(1,{args.m}): length {code.length} over Z_{code.modulus}, "
             f"{len(code)} words, min distance {min_distance(code)}"]
    lines.extend(" ".join(str(e) for e in w) for w in code.words)
    _emit("\n".join(lines) + "\n", args.out)
    return (), 0


def _verdict(record: dict):
    """A verify command's answer: its one record, exit 0 when the check holds and 1 when not."""
    return [record], 0 if record["result"] else 1


def _cmd_verify_hadamard(args):
    from .fileio import read_matrix
    from .matrices import verify_hadamard

    h = read_matrix(args.matrix)
    return _verdict({"check": "hadamard", "n": h.order, "k": h.phase, "result": verify_hadamard(h)})


def _cmd_verify_bush(args):
    from .bush import BushMatrix
    from .fileio import read_matrix

    h = read_matrix(args.matrix)
    block = isqrt(h.order)
    reason = None
    if block * block != h.order:
        reason = f"order {h.order} is not a perfect square"
    else:
        try:
            BushMatrix(h, block)
        except ValueError as e:  # BushStructureError is one
            reason = str(e)
    return _verdict({"check": "bush", "n": h.order, "k": h.phase, "result": reason is None,
                     "reason": reason})


def _cmd_verify_unbiased(args):
    from .fileio import read_matrix
    from .matrices import is_unbiased

    z = is_unbiased(read_matrix(args.left), read_matrix(args.right))
    return _verdict({"check": "unbiased", "result": z is not None, "constant": _cyc_json(z)})


def _text_verify(r):
    line = f"{r['check']}: {str(r['result']).lower()}"
    if r.get("reason") is not None:
        line += f" ({r['reason']})"
    if r.get("constant") is not None:
        line += f" with constant {r['constant']['str']}"
    yield line


def _cmd_bent_check(args):
    from .bent import check_bent
    from .fileio import read_matrix, read_vector

    cert = check_bent(read_matrix(args.matrix), read_vector(args.vector))
    record = {
        "kind": cert.kind,
        "bent": cert.bent,
        "self_dual": cert.self_dual,
        "conjugate_self_dual": cert.conjugate_self_dual,
        "self_dual_unit": _cyc_json(cert.self_dual_unit),
        "conjugate_self_dual_unit": _cyc_json(cert.conjugate_self_dual_unit),
        "dual_entry_orders": list(cert.dual_entry_orders) if cert.dual_entry_orders else None,
    }
    return [record], 0 if cert.bent else 1


def _text_bent_check(r):
    yield f"kind: {r['kind']}"
    if r["self_dual_unit"] is not None:
        yield f"self-dual unit: {r['self_dual_unit']['str']}"
    if r["conjugate_self_dual_unit"] is not None:
        yield f"conjugate self-dual unit: {r['conjugate_self_dual_unit']['str']}"
    if r["dual_entry_orders"] is not None:
        yield "dual entry orders: " + " ".join(str(o) for o in r["dual_entry_orders"])


def _cmd_bent_search(args):
    from .bent import search_bent
    from .fileio import read_matrix

    hits = search_bent(read_matrix(args.matrix), args.mode, args.budget, args.workers)
    return ({"index": hit.index, "vector": list(hit.vector.entries), "kind": hit.kind}
            for hit in hits), 0


def _text_hit(r):
    yield f"{r['index']}: " + " ".join(str(e) for e in r["vector"])


def _cmd_covering_radius(args):
    from .codes import (
        bent_lower_bound,
        code_from_matrix,
        covering_radius,
        has_strength_2,
        is_self_complementary,
        leducq_upper_bound,
        reed_muller_1,
    )
    from .fileio import FileFormatError, read_matrix, read_vector
    from .numtheory import is_prime

    if (args.code_from is None) == (args.rm is None):
        raise FileFormatError("<args>", None, "choose exactly one of --code-from and --rm")
    matrix = None
    if args.code_from is not None:
        matrix = read_matrix(args.code_from)
        _, code = code_from_matrix(matrix)
    else:
        q, m = args.rm
        code = reed_muller_1(q, m)
    lower = None
    if args.bent_vector is not None:
        if matrix is None or matrix.phase != 3:
            raise FileFormatError("<args>", None, "--bent-vector needs --code-from with a phase-3 matrix")
        lower = bent_lower_bound(matrix, read_vector(args.bent_vector)).bound
    if args.sample is None:
        result = covering_radius(code, "exhaustive", budget=args.budget, workers=args.workers)
    else:
        result = covering_radius(code, "sampled", samples=args.sample, seed=args.seed)
    upper = None
    if matrix is not None and matrix.phase > 2 and is_prime(matrix.phase):
        bound = leducq_upper_bound(matrix.order, matrix.phase)
        upper = {"rational_part": str(bound.rational_part),
                 "root_coefficient": str(bound.root_coefficient),
                 "radicand": bound.radicand, "floor": bound.floor}
    record = {
        "radius_or_bound": result.value,
        "exact": result.exact,
        "upper_bound": upper,
        "lower_bound": lower,
        "premises": {
            "self_complementary": is_self_complementary(code),
            "strength_2": has_strength_2(code),
        },
    }
    return [record], 0


def _text_covering_radius(r):
    yield ("radius" if r["exact"] else "radius lower bound (sampled)") + f": {r['radius_or_bound']}"
    if (upper := r["upper_bound"]) is not None:
        yield (f"upper bound: {upper['rational_part']} + {upper['root_coefficient']}"
               f"*sqrt({upper['radicand']}) (floor {upper['floor']})")
    if r["lower_bound"] is not None:
        yield f"lower bound: {r['lower_bound']}"
    yield f"self-complementary: {str(r['premises']['self_complementary']).lower()}"
    yield f"strength 2: {str(r['premises']['strength_2']).lower()}"


def _cmd_obstructions(args):
    from .numtheory import bent_obstructions

    report = bent_obstructions(args.n, args.k)
    record = {
        "n": args.n,
        "k": args.k,
        "any_violated": report.any_violated,
        "verdicts": [
            {"rule": v.rule, "applicable": v.applicable, "violated": v.violated,
             "witness": v.witness}
            for v in report.verdicts
        ],
    }
    return [record], 1 if report.any_violated else 0


def _text_obstructions(r):
    yield f"obstructions for n={r['n']}, k={r['k']}:"
    for v in r["verdicts"]:
        status = "violated" if v["violated"] else ("clear" if v["applicable"] else "n/a")
        yield f"  {v['rule']:<16} {status:<9} {v['witness']}"


def _cmd_order(args):
    from .fileio import read_matrix
    from .matrices import unitary_order

    h = read_matrix(args.matrix)
    t = unitary_order(h, args.max_t)
    return [{"n": h.order, "k": h.phase, "max_t": args.max_t, "order": t}], 0 if t is not None else 1


def _text_order(r):
    yield f"order: {r['order']}" if r["order"] is not None else f"no order up to {r['max_t']}"


def _cmd_bush(args):
    from .bush import BushMatrix, bush_table, verify_projector_algebra
    from .fileio import serialize_matrix

    table = bush_table(args.p, args.a)  # rejects p and a as bush_circulant does, unverified
    if args.out is not None or not (args.verify_algebra or args.json):
        # verified only when written: to --out, or to stdout when nothing else answers
        _emit(serialize_matrix(BushMatrix(table, args.p)), args.out)
    algebra = verify_projector_algebra(args.p) if args.verify_algebra else None
    record = {"p": args.p, "a": args.a, "n": table.order, "written": args.out, "algebra": algebra}
    return [record], 1 if algebra is False else 0


def _text_bush(r):
    if r["algebra"] is not None:
        yield f"projector algebra: {str(r['algebra']).lower()}"


def _parse_rm_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected q,m — got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers q,m — got {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _add_json(p) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _add_out(p) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="butson", description=_DESCRIPTION,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    workers_help = ("most processes a scan may use (default 1); a pool starts only once the "
                    "scan's measured remaining cost passes about a second")

    construct = sub.add_parser("construct", help="build matrices, vectors, and codes")
    csub = construct.add_subparsers(dest="what", required=True)
    p = csub.add_parser("fourier", help="Fourier matrix of the cyclic group C_n")
    p.add_argument("--n", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_construct_fourier)
    p = csub.add_parser("sylvester", help="Sylvester matrix of order 2^m")
    p.add_argument("--m", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_construct_sylvester)
    p = csub.add_parser("kron", help="Kronecker product of two matrix files")
    p.add_argument("left")
    p.add_argument("right")
    _add_out(p)
    p.set_defaults(func=_cmd_construct_kron)
    p = csub.add_parser("bush", help="block-circulant Bush matrix B_a of order p^2")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_construct_bush)
    p = csub.add_parser("ksw", help="quadratic-form bent vector for F(C_k^m)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_construct_ksw)
    p = csub.add_parser("rm", help="first-order generalized Reed-Muller code")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_construct_rm)

    verify = sub.add_parser("verify", help="exact verification of matrix files")
    vsub = verify.add_subparsers(dest="what", required=True)
    p = vsub.add_parser("hadamard", help="rows pairwise orthogonal over the exact ring")
    p.add_argument("matrix")
    _add_json(p)
    p.set_defaults(func=_cmd_verify_hadamard, text=_text_verify)
    p = vsub.add_parser("bush", help="Hadamard plus block row/column sum conditions")
    p.add_argument("matrix")
    _add_json(p)
    p.set_defaults(func=_cmd_verify_bush, text=_text_verify)
    p = vsub.add_parser("unbiased", help="H1 H2* = z L with L a Butson Hadamard matrix")
    p.add_argument("left")
    p.add_argument("right")
    _add_json(p)
    p.set_defaults(func=_cmd_verify_unbiased, text=_text_verify)

    p = sub.add_parser("bent-check", help="certify a vector file against a matrix file")
    p.add_argument("matrix")
    p.add_argument("vector")
    _add_json(p)
    p.set_defaults(func=_cmd_bent_check, text=_text_bent_check)

    p = sub.add_parser("bent-search", help="stream bent vectors over the full candidate space")
    p.add_argument("matrix")
    p.add_argument("--mode", choices=_MODES, default="any")
    p.add_argument("--budget", type=_positive_int, default=None, help="max candidates to scan")
    p.add_argument("--workers", type=_positive_int, default=1, help=workers_help)
    _add_json(p)
    p.set_defaults(func=_cmd_bent_search, text=_text_hit)

    p = sub.add_parser("covering-radius", help="exact or sampled covering radius with bounds")
    p.add_argument("--code-from", default=None, help="matrix file; the code is C_H")
    p.add_argument("--rm", type=_parse_rm_pair, default=None, metavar="Q,M",
                   help="first-order generalized Reed-Muller code")
    p.add_argument("--sample", type=_positive_int, default=None, metavar="N",
                   help="sampled lower bound from N seeded draws (default: exhaustive scan)")
    p.add_argument("--budget", type=_positive_int, default=2**30,
                   help="most ambient vectors an exhaustive scan may cover (default: 2^30)")
    p.add_argument("--workers", type=_positive_int, default=1, help=workers_help)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bent-vector", default=None, help="vector file for the phase-3 lower bound")
    _add_json(p)
    p.set_defaults(func=_cmd_covering_radius, text=_text_covering_radius)

    p = sub.add_parser("obstructions", help="arithmetic non-existence report for bent vectors")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_json(p)
    p.set_defaults(func=_cmd_obstructions, text=_text_obstructions)

    p = sub.add_parser("order", help="least t with (M/sqrt(n))^t = I, up to --max-t")
    p.add_argument("matrix")
    p.add_argument("--max-t", type=int, default=64)
    _add_json(p)
    p.set_defaults(func=_cmd_order, text=_text_order)

    p = sub.add_parser("bush", help="Bush family: write B_a and optionally check the algebra")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    _add_out(p)
    p.add_argument("--verify-algebra", action="store_true")
    _add_json(p)
    p.set_defaults(func=_cmd_bush, text=_text_bush)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    records = ()
    try:
        records, code = args.func(args)
        if getattr(args, "json", False):
            import json  # only JSON output loads it

            for record in records:
                print(json.dumps(record))
        else:
            for record in records:
                for line in args.text(record):
                    print(line)
        sys.stdout.flush()  # a closed pipe surfaces here, inside the handler below
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): a normal end; devnull takes the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError, MemoryError, OverflowError) as e:  # FileFormatError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if hasattr(records, "close"):
            records.close()  # a search's stream: stops its scan and worker pool


def run() -> None:
    """The process entry point: main() on sys.argv with the cycle collector off, both
    streams flushed, then an immediate exit with its code, skipping the interpreter's
    teardown.  A command's objects live until the exit, and its scans leave no cycles
    behind, so collections would only walk the heap; spawned pool workers do not enter
    here and keep theirs."""
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()  # what main() left unflushed: help, usage, output before an error
        sys.stderr.flush()
    except BrokenPipeError:  # the reader has gone, as main() treats it
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
