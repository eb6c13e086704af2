"""One cold pass over a workload, or the micro cases, in a fresh interpreter.

    python3 bench/worker.py pass --workload W --seed N --start T [--spans PATH]
    python3 bench/worker.py micro --seed N

With --spans the pass runs under the layer tracer and writes its spans there.

`run.py` starts this once per measured pass, so every pass begins with empty
library caches; T is the parent's time.monotonic() just before the spawn, so
set-up time includes interpreter start.  The result is one JSON object on
stdout.  Queries are answered first, with nothing else timed in between;
their answers are reduced to digests only after the pass (and after the
tracer is removed).

The host is shared, and its speed swings by up to 1.9x within a second.
So a pass also times a fixed pure-Python calibration loop after set-up and
between every two queries, and divides each time it reports by the host's
slowdown then, which it derives from the calibrations on either side of it.
Its times read as seconds on the idle machine; the raw ones are reported
beside them.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (plain data, no library import)


def import_library():
    """Import isogenion from this checkout's src/, refusing a warm process."""
    if "isogenion" in sys.modules:
        raise RuntimeError(
            "isogenion is already imported: a timed pass needs a fresh interpreter"
        )
    sys.path.insert(0, SRC)
    import isogenion

    if not os.path.abspath(isogenion.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"isogenion was imported from {isogenion.__file__}, not {SRC}")
    from isogenion import (  # noqa: F401  (every layer, so set-up pays all imports)
        elliptic_curve, endo_ring, errors, finite_field, hom_index_kernel,
        isogeny, isogeny_graph, minimal_degree, polyring, quadratic_order,
    )
    return sys.modules["isogenion"]


# ---------------------------------------------------------------------------
# set-up: turn the query list into library inputs


def prepare(lib, workload):
    ff, ec, iso = lib.finite_field, lib.elliptic_curve, lib.isogeny
    ctx = {}
    if workload == "graph-fp2":
        ctx["fields"] = {(workloads.GRAPH_P, 2): ff.field_create(workloads.GRAPH_P, 2)}
        for ell in workloads.GRAPH_ELLS:
            iso.modular_polynomial(ell)
    elif workload == "mindeg-fp":
        curves = {}
        for (p, t), classes in workloads.MINDEG_CLASSES.items():
            F = ff.field_create(p)
            for j, twist in classes:
                (cls,) = [c for c in ec.twist_classes(F, j)
                          if (c.trace, c.twist_index) == (t, twist)]
                curves[(p, j, twist)] = cls.representative
        ctx["fields"] = {(p, 1): ff.field_create(p) for p, _ in workloads.MINDEG_CLASSES}
        ctx["curves"] = curves
        iso.modular_polynomial(2)
    elif workload == "torsion-fp":
        F = ff.field_create(workloads.TORSION_P)
        ctx["fields"] = {(workloads.TORSION_P, 1): F}
        ctx["curves"] = {j: ec.curve_from_j(F, j, workloads.TORSION_T) for j in workloads.VOLCANO}
        qo = lib.quadratic_order
        ctx["ideals"] = {
            (j, n): qo.enumerate_ideals(qo.quad_order(-8, 2**level), n)
            for j, level in workloads.VOLCANO.items()
            for n in workloads.IDEAL_NORMS
        }
        iso.modular_polynomial(2)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ctx


# ---------------------------------------------------------------------------
# queries


def answer(lib, ctx, query):
    kind, *args = query
    if kind == "graph":
        p, r, t, ell = args
        g = lib.isogeny_graph.build_graph(ctx["fields"][(p, r)], t, ell)
        report = lib.isogeny_graph.verify_volcano(g)
        text = lib.isogeny_graph.graph_to_json(g)
        q = p**r
        components = None
        if t * t < 4 * q and t % p:
            components = lib.isogeny_graph.count_components(q, t, ell)
        return text, report, components, len(g.components)
    if kind == "md_between":
        p, t, j2, tw2, j1, tw1 = args
        curves = ctx["curves"]
        return lib.minimal_degree.md_between(curves[(p, j2, tw2)], curves[(p, j1, tw1)])
    if kind == "rB":
        p, t = args
        return lib.minimal_degree.rB(ctx["fields"][(p, 1)], t)
    if kind == "md_supersingular_bounds":
        return lib.minimal_degree.md_supersingular_bounds(args[0])
    if kind == "torsion_basis":
        j, m = args
        return lib.elliptic_curve.torsion_basis(ctx["curves"][j], m)
    if kind == "frobenius_matrix":
        j, m = args
        return lib.endo_ring.frobenius_matrix(ctx["curves"][j], m)
    if kind == "ideal_round_trip":
        j, n = args
        E, hk = ctx["curves"][j], lib.hom_index_kernel
        out = []
        for ideal in ctx["ideals"][(j, n)]:
            H = hk.kernel_of_ideal(E, ideal)
            out.append((ideal, len(H), hk.annihilator_ideal(E, H)))
        return out
    if kind == "pair_report":
        j2, j1 = args
        curves = ctx["curves"]
        return lib.hom_index_kernel.pair_report(curves[j2], curves[j1], workloads.PAIR_DEGREES)
    if kind == "stable_cyclic_kernels":
        j, n = args
        return lib.hom_index_kernel.stable_cyclic_kernels(ctx["curves"][j], n)
    raise ValueError(f"unknown query kind {kind!r}")


def _prime_factors(m):
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return out + ([m] if m > 1 else [])


def _spans_torsion(lib, P, Q, m):
    """Do P, Q form a basis of E[m]?  Both must be killed by m, and for every
    prime l | m their multiples by m/l must be independent points of order l."""
    mul = lib.elliptic_curve.scalar_mul
    if mul(m, P) or mul(m, Q):
        return False
    for ell in _prime_factors(m):
        P1, Q1 = mul(m // ell, P), mul(m // ell, Q)
        if not P1 or any(mul(k, P1) == Q1 for k in range(ell)):
            return False
    return True


def _ideal(I):
    return [I.t, I.a, I.b]


class CheckFailed(Exception):
    """An answer failed a check the benchmark makes beyond its digest."""


def describe(lib, ctx, query, raw, answers):
    """Canonical text of an answer: only what no arbitrary choice affects.

    Raises CheckFailed when the answer contradicts a cross-check.
    """
    kind, *args = query
    if kind == "graph":
        text, report, components, found = raw
        if components is not None and components != found:
            raise CheckFailed(f"count_components gives {components}, the graph has {found}")
        return f"{text}\n{json.dumps(report, sort_keys=True)}\ncomponents={found}"
    if kind == "md_between":
        pair = [list(c.key()) for c in raw.pair]
        return json.dumps([pair, raw.md, raw.witness.degree])
    if kind == "rB":
        md, pair = raw
        p, t = args
        best = max(
            (r.md for q, r in answers if q[:3] == ("md_between", p, t)
             and not isinstance(r, Exception)),
            default=None,
        )
        if best != md:
            raise CheckFailed(f"rB gives {md}, the largest md_between is {best}")
        return json.dumps([md, [list(c.key()) for c in pair]])
    if kind == "md_supersingular_bounds":
        return json.dumps(raw, sort_keys=True)
    if kind == "torsion_basis":
        j, m = args
        P, Q, K = raw
        if not _spans_torsion(lib, P, Q, m):
            raise CheckFailed(f"the returned pair does not span E[{m}]")
        return f"extension degree {K.r // ctx['curves'][j].field.r}"
    if kind == "frobenius_matrix":
        return f"tr={raw.tr} det={raw.det}"
    if kind == "ideal_round_trip":
        return json.dumps([[_ideal(I), n, _ideal(J)] for I, n, J in raw])
    if kind == "pair_report":
        return raw
    if kind == "stable_cyclic_kernels":
        return f"{len(raw)} kernels"
    raise ValueError(f"unknown query kind {kind!r}")


def judge_answer(lib, ctx, query, raw, answers):
    """[digest, status] with status "answer", "refused" or "error"; an error
    is any exception but a typed IsogenionError, or a failed cross-check."""
    if isinstance(raw, lib.errors.IsogenionError):
        status, text = "refused", f"refused:{type(raw).__name__}"
    elif isinstance(raw, Exception):
        status, text = "error", f"{type(raw).__name__}: {raw}"
    else:
        try:
            status, text = "answer", describe(lib, ctx, query, raw, answers)
        except CheckFailed as exc:
            status, text = "error", str(exc)
    return [hashlib.sha256(text.encode()).hexdigest()[:16], status]


# ---------------------------------------------------------------------------
# host-speed calibration

# One calibration times `_cal_chunk`; on an idle 2-vCPU virtual machine (the
# one the benchmark was tuned on) that takes CAL_REF_S.  It imports nothing
# from the library, so a change to the library cannot move it.  The library's
# queries swing less than this tight loop does, so the slowdown is the
# calibration's ratio to CAL_REF_S raised to CAL_EXPONENT.  Over 24 cold
# `torsion-fp` passes on that machine, with a calibration between every two
# queries, that power left the least spread in the passes' median query
# latency and wall time.  Set-up is scaled by the median of
# SETUP_CAL_CHUNKS calibrations taken right after it.
CAL_REF_S = 0.0025
CAL_EXPONENT = 0.7
SETUP_CAL_CHUNKS = 5
_CAL_P = 1000003


def _cal_mul(a, b):
    # what field arithmetic does: tuples of residues, products reduced mod p
    return tuple((x * y + a[0]) % _CAL_P for x, y in zip(a, b))


def _cal_chunk():
    acc = (1, 2, 3, 4, 5, 6)
    step = (7, 11, 13, 17, 19, 23)
    seen = {}
    for i in range(1200):
        acc = _cal_mul(acc, step)
        seen[acc[i % 6] & 1023] = i
    return len(seen)


def calibrate(chunks=1):
    """Seconds one calibration chunk takes now (the median of `chunks`)."""
    clock = time.perf_counter
    times = []
    for _ in range(chunks):
        t0 = clock()
        _cal_chunk()
        times.append(clock() - t0)
    return statistics.median(times)


def slowdown(cal_s):
    """How many times slower than idle the host runs the library, given the
    seconds one calibration chunk took."""
    return (cal_s / CAL_REF_S) ** CAL_EXPONENT


# ---------------------------------------------------------------------------
# a pass


def run_pass(workload, seed, start, spans_path=None):
    lib = import_library()
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    queries = workloads.queries(workload, seed)
    ctx = prepare(lib, workload)

    raw_setup_s = time.monotonic() - start
    setup_slowdown = slowdown(calibrate(SETUP_CAL_CHUNKS))
    clock = time.perf_counter
    # cals[i] is taken just before query i and cals[i + 1] just after it
    cals = [calibrate()]
    raws, raw_latencies = [], []
    for i, query in enumerate(queries):
        if tracer is not None:
            tracer.query_id = i
        t0 = clock()
        try:
            raw = answer(lib, ctx, query)
        except Exception as exc:  # recorded and judged against the reference
            raw = exc
        raw_latencies.append(clock() - t0)
        raws.append(raw)
        cals.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    latencies = [raw / slowdown((cals[i] + cals[i + 1]) / 2)
                 for i, raw in enumerate(raw_latencies)]
    result = {"setup_s": raw_setup_s / setup_slowdown,
              "wall_s": sum(latencies), "latencies": latencies,
              "peak_rss_mb": peak_rss_mb,
              "slowdown": slowdown(statistics.median(cals)),
              "raw_setup_s": raw_setup_s, "raw_wall_s": sum(raw_latencies)}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.write_spans(spans_path)
    answers = list(zip(queries, raws))
    result["answers"] = {
        workloads.key(query): judge_answer(lib, ctx, query, raw, answers)
        for query, raw in answers
    }
    return result


# ---------------------------------------------------------------------------
# micro cases: public L0/L1 calls on seeded operands in GF(41^r)

MICRO_P = 41
MICRO_REPEATS = 5
MICRO_TARGET_S = 0.04


def _per_call(fn, operands):
    """Median over repeats of the time per call, cycling through operands
    for about MICRO_TARGET_S per repeat."""
    n = len(operands)
    t0 = time.perf_counter()
    fn(operands[0])
    once = max(time.perf_counter() - t0, 1e-7)
    calls = max(1, min(20000, int(MICRO_TARGET_S / once)))
    samples = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(operands[i % n])
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def run_micro(seed):
    lib = import_library()
    ff, ec = lib.finite_field, lib.elliptic_curve
    rng = random.Random(f"micro/{seed}")
    out = {}
    for r in (1, 2, 6, 24):
        F = ff.field_create(MICRO_P, r)
        elems = []
        while len(elems) < 16:
            x = F.from_coeffs([rng.randrange(MICRO_P) for _ in range(r)])
            if x:
                elems.append(x)
        pairs = list(zip(elems, elems[1:] + elems[:1]))
        out[f"finite_field.mul_ns.r{r}"] = _per_call(lambda ab: ab[0] * ab[1], pairs) * 1e9
        out[f"finite_field.inv_ns.r{r}"] = _per_call(lambda a: a.inverse(), elems) * 1e9
        if r > 1:
            squares = [x * x for x in elems]
            out[f"finite_field.sqrt_us.r{r}"] = _per_call(ff.sqrt, squares) * 1e6
        if r in (6, 24):
            out[f"finite_field.frobenius_ns.r{r}"] = _per_call(F.frobenius, elems) * 1e9
    base = ec.curve_from_j(ff.field_create(MICRO_P), 5, 6)
    for r in (1, 2, 6):
        E = ec.base_change(base, r)
        points = [E.random_point(rng) for _ in range(17)]
        pairs = list(zip(points, points[1:]))
        out[f"elliptic_curve.point_add_us.r{r}"] = _per_call(
            lambda PQ: ec.point_add(PQ[0], PQ[1]), pairs) * 1e6
        if r in (1, 6):
            scaled = [(rng.getrandbits(64) | 1 << 63, P) for P in points]
            out[f"elliptic_curve.scalar_mul_us.r{r}"] = _per_call(
                lambda kP: ec.scalar_mul(kP[0], kP[1]), scaled) * 1e6
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("pass", "micro"))
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--start", type=float, default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    if args.mode == "micro":
        result = run_micro(args.seed)
    else:
        if args.workload is None or args.start is None:
            ap.error("a pass needs --workload and --start")
        result = run_pass(args.workload, args.seed, args.start, args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
