"""fp-determinism: the bit-reproducibility contract, checked at the
build-flag AND expression level.

The cross-backend contract (simd/dispatch.h) says the lane kernels —
su3_mul_nn, su3_mul_lanes, project/reconstruct, xpay, the fp16
converters — are BIT-IDENTICAL across scalar and avx2, which only
holds if (a) every TU that compiles them does so with -ffp-contract=off
and no fast-math family flag, and (b) no kernel on the bit-exact list
uses an explicit FMA (std::fma / _mm*_fmadd_*), since separate
mul/add is what the scalar reference computes. clover_pair_lanes and
the MR reductions are the FMA-allowed set (<= 1e-6 contract).

The pass discovers bit-exact TUs semantically: a TU whose include
closure defines a function on the bit-exact list is a bit-exact TU.
For each such TU it verifies the compile_commands.json flags; and for
every bit-exact kernel it walks the local callgraph (helpers like
phase_madd inherit the caller's contract) flagging explicit FMA. When
a bit-exact TU lacks -ffp-contract=off, FMA-contractible `a*b+c`
expressions inside its bit-exact kernels are reported too — those are
the exact sites the compiler would silently fuse.

The same pass enforces the reduction contract (linalg/blas.h): an
OpenMP `reduction(+ : v)` (or `-`/`*`) on a float/double/complex `v` is
a finding, because the runtime combines the per-thread partials in the
order threads arrive and floating-point addition is not associative —
from 3 threads up the last bits change from run to run. Such sums go
through blocked_sum instead. Integer reductions are exact and stay
silent, as do min/max (order-independent). The variable's type is read
from its nearest declaration in the enclosing function.
"""

from __future__ import annotations

import re
from pathlib import Path

from tools.analyze.findings import Finding
from tools.analyze.textmodel import tu_command, tu_path

BIT_EXACT = {
    "su3_mul_nn", "su3_mul_lanes", "project_lanes", "reconstruct_add_lanes",
    "xpay_lanes", "float_to_half_n", "half_to_float_n",
}
FMA_ALLOWED = {"clover_pair_lanes", "mr_dots_lanes", "mr_axpy_lanes"}

_FAST_MATH_FLAGS = ("-ffast-math", "-funsafe-math-optimizations", "-Ofast",
                    "-fassociative-math", "-freciprocal-math",
                    "-ffinite-math-only", "-ffp-contract=fast")
_EXPLICIT_FMA_RE = re.compile(
    r"\b(?:std\s*::\s*)?(fmaf?|__builtin_fmaf?)\s*\(|"
    r"\b(_mm\d*_(?:mask_|maskz_)?f?n?m(?:add|sub)(?:_round)?_p[sdh])\s*\(")
_CONTRACTIBLE_RE = re.compile(
    r"[\w\]\)]\s*\*\s*[\w\(\[][^;]*?[+\-]|[+\-][^;]*?[\w\]\)]\s*\*\s*"
    r"[\w\(\[]")

_REDUCTION_RE = re.compile(r"\breduction\s*\(\s*([+*-])\s*:\s*([^)]*)\)")
_FLOAT_TYPE = (r"(?:long\s+)?double|float|(?:std\s*::\s*)?complex\s*<[^;{}]*?>|"
               r"Complex\s*<[^;{}]*?>")
_OTHER_TYPE = (r"(?:unsigned\s+|signed\s+)?(?:long\s+long|long|int|short|"
               r"char)|bool|auto|(?:std\s*::\s*)?(?:u?int\d+_t|size_t|"
               r"ptrdiff_t)")


def _decl_re(types: str, var: str) -> re.Pattern:
    """`<type> [&*] [a = .., b = .., ] var` followed by = ; , ) [ or {."""
    return re.compile(
        rf"(?<![\w:])(?:{types})\s*[&*]?\s+(?:[^;(){{}}]*?,\s*)?"
        rf"\b{re.escape(var)}\b\s*(?=[=;,)\[{{])")


def _last_match(pattern: re.Pattern, text: str) -> int:
    pos = -1
    for m in pattern.finditer(text):
        pos = m.start()
    return pos


def _fp_reductions(model) -> list[Finding]:
    """OpenMP `reduction(+|-|* : ...)` clauses on floating-point
    variables."""
    findings: list[Finding] = []
    for sf in model.files.values():
        for d in sf.directives:
            fp_vars = []
            for m in _REDUCTION_RE.finditer(d.text):
                start = max((fn.line for fn in model.functions
                             if fn.path == sf.path
                             and fn.line <= d.line <= fn.body[1]),
                            default=1)
                text = "\n".join(sf.lines[start - 1:d.line - 1])
                for var in (v.strip() for v in m.group(2).split(",")):
                    if not re.fullmatch(r"[A-Za-z_]\w*", var):
                        continue
                    if _last_match(_decl_re(_FLOAT_TYPE, var), text) > \
                            _last_match(_decl_re(_OTHER_TYPE, var), text):
                        fp_vars.append(f"{m.group(1)}:{var}")
            if fp_vars:
                findings.append(Finding(
                    "fp-determinism", d.path, d.line,
                    f"OpenMP floating-point reduction ({', '.join(fp_vars)})"
                    " — the runtime combines per-thread partials in "
                    "arrival order, so the last bits depend on thread "
                    "count and timing; use blocked_sum (linalg/blas.h)"))
    return findings


def _include_closure(model, tu: Path) -> set[Path]:
    """Project files reachable from `tu` through quoted includes."""
    closure: set[Path] = set()
    src_root = model.root / "src" if (model.root / "src").is_dir() \
        else model.root
    queue = [tu]
    while queue:
        p = queue.pop()
        if p in closure or p not in model.files:
            continue
        closure.add(p)
        for inc in model.files[p].includes:
            for cand in (src_root / inc, p.parent / inc):
                cand = cand.resolve()
                if cand in model.files and cand not in closure:
                    queue.append(cand)
    return closure


def run(model, options) -> list[Finding]:
    del options
    findings: list[Finding] = []
    by_name = model.by_name()

    defs_by_file: dict[Path, list] = {}
    for fn in model.functions:
        defs_by_file.setdefault(fn.path, []).append(fn)

    def bit_exact_closure(root_fn) -> list:
        """root_fn plus project helpers it (transitively) calls, never
        descending into the FMA-allowed set."""
        out, seen, queue = [], set(), [root_fn]
        while queue:
            fn = queue.pop()
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            out.append(fn)
            for cname, _, _ in fn.calls:
                if cname in FMA_ALLOWED:
                    continue
                for callee in by_name.get(cname, []):
                    if id(callee) not in seen:
                        queue.append(callee)
        return out

    for entry in model.compile_db:
        tu = tu_path(entry)
        if tu not in model.files:
            continue
        closure = _include_closure(model, tu)
        roots = [fn for p in closure for fn in defs_by_file.get(p, [])
                 if fn.name in BIT_EXACT]
        if not roots:
            continue

        cmd = tu_command(entry)
        has_contract_off = "-ffp-contract=off" in cmd
        bad_flags = [f for f in _FAST_MATH_FLAGS if f in cmd]
        if not has_contract_off:
            findings.append(Finding(
                "fp-determinism", tu, 1,
                "bit-exact-contract TU (defines "
                f"{', '.join(sorted({r.name for r in roots}))}) compiles "
                "without -ffp-contract=off — the compiler may fuse a*b+c "
                "into FMA and break cross-backend bit-identity"))
        for f in bad_flags:
            findings.append(Finding(
                "fp-determinism", tu, 1,
                f"bit-exact-contract TU compiles with {f} — fast-math "
                "reassociation breaks the bit-reproducibility contract"))

        seen_fns: set[int] = set()
        for root_fn in roots:
            for fn in bit_exact_closure(root_fn):
                if id(fn) in seen_fns or fn.path not in closure:
                    continue
                seen_fns.add(id(fn))
                lines = model.files[fn.path].lines
                lo, hi = fn.body
                for ln in range(lo, min(hi, len(lines)) + 1):
                    text = lines[ln - 1]
                    m = _EXPLICIT_FMA_RE.search(text)
                    if m:
                        what = m.group(1) or m.group(2)
                        findings.append(Finding(
                            "fp-determinism", fn.path, ln,
                            f"explicit FMA '{what}' in bit-exact kernel "
                            f"path '{fn.qual}' (reached from "
                            f"{root_fn.name}) — bit-exact kernels must "
                            "use separate mul/add"))
                    elif not has_contract_off and \
                            _CONTRACTIBLE_RE.search(text):
                        findings.append(Finding(
                            "fp-determinism", fn.path, ln,
                            f"FMA-contractible a*b+c in '{fn.qual}' while "
                            f"its TU {tu.name} lacks -ffp-contract=off — "
                            "the compiler is free to fuse this"))

    findings.extend(_fp_reductions(model))

    # De-duplicate across TUs sharing headers.
    uniq: dict[tuple, Finding] = {}
    for f in findings:
        uniq.setdefault(f.key(), f)
    return list(uniq.values())
