"""Command-line front end: construction, verification, search, and bounds.

Subcommands
    construct fourier|sylvester|kron|bush|ksw|rm   build an object, write text or JSON
    verify hadamard|bush|unbiased                  exact checks on matrix files
    bent-check                                     certify a vector against a matrix
    bent-search                                    stream bent vectors with candidate indices
    covering-radius                                exact or sampled radius with bounds
    obstructions                                   arithmetic non-existence report for (n, k)
    order                                          multiplicative order of the rescaled matrix
    bush                                           block-circulant family, optional algebra check

Exit codes: 0 on success, 1 when a mathematical check comes out false
(verification fails, an obstruction proves no bent vector exists, no order
found), 2 on usage or I/O errors, on instances too large to allocate and on
input that fails a command's precondition: a non-Hadamard matrix exits 1 from
verify, which decides that property, and 2 from bent-check, bent-search, order
and covering-radius --code-from, which need it.  Numeric output is exact;
rationals print as a/b.
Given a fixed seed and inputs, output bytes are reproducible, including
under --workers changes.

Each command imports the modules it runs, so `obstructions` and `--help` never
load numpy, and only JSON output loads json.  main() builds the parser branch
of the command it is given; help and parse errors come from the whole tree.
`python -m butson` and the `butson` script enter through run(), which flushes
stdout and stderr once main() returns and exits at once with its code,
skipping the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import closing, redirect_stderr, redirect_stdout
from math import isqrt

from .numtheory import _MODES


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _print_json(payload) -> None:
    import json  # only JSON output loads it

    print(json.dumps(payload))


def _cyc_json(z) -> dict:
    return {"str": str(z), "phase": z.phase, "coeffs": list(z.coeffs)}


def _write_constructed(h, args) -> int:
    from .fileio import serialize_matrix, serialize_matrix_json

    if args.format == "json":
        _emit(serialize_matrix_json(h), args.out)
    else:
        _emit(serialize_matrix(h), args.out)
    return 0


def _cmd_construct_fourier(args) -> int:
    from .matrices import fourier_matrix

    return _write_constructed(fourier_matrix(args.n), args)


def _cmd_construct_sylvester(args) -> int:
    from .matrices import sylvester_matrix

    return _write_constructed(sylvester_matrix(args.m), args)


def _cmd_construct_kron(args) -> int:
    from .fileio import read_matrix
    from .matrices import kronecker

    left = read_matrix(args.left)
    right = read_matrix(args.right)
    return _write_constructed(kronecker(left, right), args)


def _cmd_construct_bush(args) -> int:
    from .bush import bush_circulant

    return _write_constructed(bush_circulant(args.p, args.a).base, args)


def _cmd_construct_ksw(args) -> int:
    from .bent import ksw_vector
    from .fileio import serialize_vector

    _emit(serialize_vector(ksw_vector(args.k, args.m)), args.out)
    return 0


def _cmd_construct_rm(args) -> int:
    from .codes import min_distance, reed_muller_1

    code = reed_muller_1(args.q, args.m)
    lines = [f"# R_{args.q}(1,{args.m}): length {code.length} over Z_{code.modulus}, "
             f"{len(code)} words, min distance {min_distance(code)}"]
    lines.extend(" ".join(str(e) for e in w) for w in code.words)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify_hadamard(args) -> int:
    from .fileio import read_matrix
    from .matrices import verify_hadamard

    h = read_matrix(args.matrix)
    ok = verify_hadamard(h)
    if args.json:
        _print_json({"check": "hadamard", "n": h.order, "k": h.phase, "result": ok})
    else:
        print(f"hadamard: {str(ok).lower()}")
    return 0 if ok else 1


def _cmd_verify_bush(args) -> int:
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
    ok = reason is None
    if args.json:
        _print_json({"check": "bush", "n": h.order, "k": h.phase, "result": ok,
                     "reason": reason})
    else:
        print(f"bush: {str(ok).lower()}" + ("" if ok else f" ({reason})"))
    return 0 if ok else 1


def _cmd_verify_unbiased(args) -> int:
    from .fileio import read_matrix
    from .matrices import is_unbiased

    a = read_matrix(args.left)
    b = read_matrix(args.right)
    z = is_unbiased(a, b)
    ok = z is not None
    if args.json:
        _print_json({"check": "unbiased", "result": ok,
                     "constant": _cyc_json(z) if ok else None})
    else:
        print(f"unbiased: {str(ok).lower()}" + (f" with constant {z}" if ok else ""))
    return 0 if ok else 1


def _cmd_bent_check(args) -> int:
    from .bent import check_bent
    from .fileio import read_matrix, read_vector

    h = read_matrix(args.matrix)
    x = read_vector(args.vector)
    cert = check_bent(h, x)
    if args.json:
        payload = {
            "kind": cert.kind,
            "bent": cert.bent,
            "self_dual": cert.self_dual,
            "conjugate_self_dual": cert.conjugate_self_dual,
            "self_dual_unit": _cyc_json(cert.self_dual_unit) if cert.self_dual_unit else None,
            "conjugate_self_dual_unit": (
                _cyc_json(cert.conjugate_self_dual_unit) if cert.conjugate_self_dual_unit else None
            ),
            "dual_entry_orders": list(cert.dual_entry_orders) if cert.dual_entry_orders else None,
        }
        _print_json(payload)
    else:
        print(f"kind: {cert.kind}")
        if cert.self_dual_unit is not None:
            print(f"self-dual unit: {cert.self_dual_unit}")
        if cert.conjugate_self_dual_unit is not None:
            print(f"conjugate self-dual unit: {cert.conjugate_self_dual_unit}")
        if cert.dual_entry_orders is not None:
            print("dual entry orders: " + " ".join(str(o) for o in cert.dual_entry_orders))
    return 0 if cert.bent else 1


def _cmd_bent_search(args) -> int:
    from .bent import search_bent
    from .fileio import read_matrix

    h = read_matrix(args.matrix)
    # closing stops the scan and its worker pool when output ends early
    with closing(search_bent(h, args.mode, args.budget, args.workers)) as hits:
        for hit in hits:
            if args.json:
                _print_json({"index": hit.index, "vector": list(hit.vector.entries),
                             "kind": hit.kind})
            else:
                print(f"{hit.index}: " + " ".join(str(e) for e in hit.vector.entries))
    return 0


def _cmd_covering_radius(args) -> int:
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
        upper = leducq_upper_bound(matrix.order, matrix.phase)
    premises = {
        "self_complementary": is_self_complementary(code),
        "strength_2": has_strength_2(code),
    }
    if args.json:
        payload = {
            "radius_or_bound": result.value,
            "exact": result.exact,
            "upper_bound": (
                {
                    "rational_part": str(upper.rational_part),
                    "root_coefficient": str(upper.root_coefficient),
                    "radicand": upper.radicand,
                    "floor": upper.floor,
                }
                if upper
                else None
            ),
            "lower_bound": lower,
            "premises": premises,
        }
        _print_json(payload)
    else:
        label = "radius" if result.exact else "radius lower bound (sampled)"
        print(f"{label}: {result.value}")
        if upper is not None:
            print(
                f"upper bound: {upper.rational_part} "
                f"+ {upper.root_coefficient}*sqrt({upper.radicand}) "
                f"(floor {upper.floor})"
            )
        if lower is not None:
            print(f"lower bound: {lower}")
        print(f"self-complementary: {str(premises['self_complementary']).lower()}")
        print(f"strength 2: {str(premises['strength_2']).lower()}")
    return 0


def _cmd_obstructions(args) -> int:
    from .numtheory import bent_obstructions

    report = bent_obstructions(args.n, args.k)
    if args.json:
        payload = {
            "n": args.n,
            "k": args.k,
            "any_violated": report.any_violated,
            "verdicts": [
                {"rule": v.rule, "applicable": v.applicable, "violated": v.violated,
                 "witness": v.witness}
                for v in report.verdicts
            ],
        }
        _print_json(payload)
    else:
        print(f"obstructions for n={args.n}, k={args.k}:")
        for v in report.verdicts:
            status = "violated" if v.violated else ("clear" if v.applicable else "n/a")
            print(f"  {v.rule:<16} {status:<9} {v.witness}")
    return 1 if report.any_violated else 0


def _cmd_order(args) -> int:
    from .fileio import read_matrix
    from .matrices import unitary_order

    h = read_matrix(args.matrix)
    t = unitary_order(h, args.max_t)
    if args.json:
        _print_json({"n": h.order, "k": h.phase, "max_t": args.max_t, "order": t})
    else:
        print(f"order: {t}" if t is not None else f"no order up to {args.max_t}")
    return 0 if t is not None else 1


def _cmd_bush(args) -> int:
    from .bush import bush_circulant, verify_projector_algebra
    from .fileio import serialize_matrix

    b = bush_circulant(args.p, args.a)
    if args.out is not None:
        _emit(serialize_matrix(b.base), args.out)
    algebra = None
    if args.verify_algebra:
        algebra = verify_projector_algebra(args.p)
    if args.json:
        _print_json({"p": args.p, "a": args.a, "n": b.base.order,
                     "written": args.out, "algebra": algebra})
    else:
        if args.out is None and not args.verify_algebra:
            sys.stdout.write(serialize_matrix(b.base))
        if algebra is not None:
            print(f"projector algebra: {str(algebra).lower()}")
    return 1 if algebra is False else 0


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
    p.add_argument("--format", choices=("text", "json"), default="text")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser tree, or with a command name its top level and that branch only."""
    parser = argparse.ArgumentParser(prog="butson", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    workers_help = ("most processes a scan may use (default 1); a pool starts only once the "
                    "scan's measured remaining cost passes about a second")

    if command in (None, "construct"):
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
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_construct_ksw)
        p = csub.add_parser("rm", help="first-order generalized Reed-Muller code")
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_construct_rm)

    if command in (None, "verify"):
        verify = sub.add_parser("verify", help="exact verification of matrix files")
        vsub = verify.add_subparsers(dest="what", required=True)
        p = vsub.add_parser("hadamard", help="rows pairwise orthogonal over the exact ring")
        p.add_argument("matrix")
        _add_json(p)
        p.set_defaults(func=_cmd_verify_hadamard)
        p = vsub.add_parser("bush", help="Hadamard plus block row/column sum conditions")
        p.add_argument("matrix")
        _add_json(p)
        p.set_defaults(func=_cmd_verify_bush)
        p = vsub.add_parser("unbiased", help="H1* H2 / sqrt(n) has constant-modulus entries")
        p.add_argument("left")
        p.add_argument("right")
        _add_json(p)
        p.set_defaults(func=_cmd_verify_unbiased)

    if command in (None, "bent-check"):
        p = sub.add_parser("bent-check", help="certify a vector file against a matrix file")
        p.add_argument("matrix")
        p.add_argument("vector")
        _add_json(p)
        p.set_defaults(func=_cmd_bent_check)

    if command in (None, "bent-search"):
        p = sub.add_parser("bent-search", help="stream bent vectors over the full candidate space")
        p.add_argument("matrix")
        p.add_argument("--mode", choices=_MODES, default="any")
        p.add_argument("--budget", type=_positive_int, default=None, help="max candidates to scan")
        p.add_argument("--workers", type=_positive_int, default=1, help=workers_help)
        _add_json(p)
        p.set_defaults(func=_cmd_bent_search)

    if command in (None, "covering-radius"):
        p = sub.add_parser("covering-radius", help="exact or sampled covering radius with bounds")
        p.add_argument("--code-from", default=None, help="matrix file; the code is C_H")
        p.add_argument("--rm", type=_parse_rm_pair, default=None, metavar="Q,M",
                       help="first-order generalized Reed-Muller code")
        strategy = p.add_mutually_exclusive_group()
        strategy.add_argument("--exact", action="store_true",
                              help="exhaustive ambient scan (the default)")
        strategy.add_argument("--sample", type=_positive_int, default=None, metavar="N",
                              help="sampled lower bound from N seeded draws")
        p.add_argument("--budget", type=int, default=2**30)
        p.add_argument("--workers", type=_positive_int, default=1, help=workers_help)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--bent-vector", default=None, help="vector file for the phase-3 lower bound")
        _add_json(p)
        p.set_defaults(func=_cmd_covering_radius)

    if command in (None, "obstructions"):
        p = sub.add_parser("obstructions", help="arithmetic non-existence report for bent vectors")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        _add_json(p)
        p.set_defaults(func=_cmd_obstructions)

    if command in (None, "order"):
        p = sub.add_parser("order", help="least t with (M/sqrt(n))^t = I, up to --max-t")
        p.add_argument("matrix")
        p.add_argument("--max-t", type=int, default=64)
        _add_json(p)
        p.set_defaults(func=_cmd_order)

    if command in (None, "bush"):
        p = sub.add_parser("bush", help="Bush family: write B_a and optionally check the algebra")
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--a", type=int, required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--verify-algebra", action="store_true")
        _add_json(p)
        p.set_defaults(func=_cmd_bush)

    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed by the branch that argv[0] names, built alone.  Help and every
    error, which may print the top-level usage or list the commands, come from
    the whole tree instead: the branch's own output is discarded."""
    if argv:
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                return _build_parser(argv[0]).parse_args(argv)
        except SystemExit:
            pass
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, inside the handler below
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): a normal end; devnull takes the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError, MemoryError) as e:  # FileFormatError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry point: main() on sys.argv, both streams flushed, then an
    immediate exit with its code, skipping the interpreter's teardown."""
    code = main()
    try:
        sys.stdout.flush()  # what main() left unflushed: help, usage, output before an error
        sys.stderr.flush()
    except BrokenPipeError:  # the reader has gone, as main() treats it
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
