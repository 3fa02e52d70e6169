"""The benchmark's four workloads: seeded inputs, one op, and its check.

Each workload builds one round of ops from the seed alone and hands the
library only those inputs.  The round has a fixed mix of op kinds (the
seed varies the values, not the mix), and the runner repeats it, starting
each repetition cold, so every op slot is measured several times.

Library calls go through attributes of the package or its modules at call
time, so the tracer's wrappers see them.  Checks use ``oracle`` only and
run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

import oracle

# The five tau kinds of the acceptance corpus, as (label, JSON spec).
CORPUS_TAUS = (
    ("constant(0)", {"kind": "constant", "value": 0}),
    ("constant(1)", {"kind": "constant", "value": 1}),
    ("constant(5)", {"kind": "constant", "value": 5}),
    ("stream(42)", {"kind": "stream", "seed": 42}),
    ("log_generic(7)", {"kind": "log_generic", "seed": 7}),
)


def _spec(Q, data):
    """Build a tau spec through the kind constructors, not tau_from_json,
    so that only the CLI workload exercises the JSON path."""
    kind = data["kind"]
    if kind == "constant":
        return Q.constant(data["value"])
    if kind == "stream":
        return Q.stream(data["seed"])
    if kind == "log_generic":
        return Q.log_generic(data["seed"])
    raise ValueError(f"unexpected tau kind {kind!r}")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Workload:
    """Interface the runner drives; see run.py for the loop."""

    name = ""
    budget_s = 1.0     # per-op budget; an op over it counts as failed
    cold_ops = False   # start every op cold; such ops share no state

    def __init__(self, Q, seed: int):
        self.Q = Q
        self.ops: list = []

    def fresh(self) -> None:
        """Build the contexts and specs the timed ops use."""

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> str | None:
        """None when the output is correct, else what is wrong."""
        raise NotImplementedError

    def record(self, op, out) -> str:
        """Canonical text of an op's output, hashed into the digest."""
        raise NotImplementedError

    def kind(self, op) -> str:
        raise NotImplementedError


# --------------------------------------------------------------------------
# qe_corpus


def _member(Q, ctx, rng, deg, n):
    # as in the acceptance corpus: an integer polynomial of degree <= deg
    # whose constant term is shifted by the CRT solution of the residue
    # conditions of the denominator n
    while True:
        g = [rng.randint(-9, 9) for _ in range(deg + 1)]
        parts = [(p**e, Q.poly_eval_mod(g, ctx.tau, p, e).value) for p, e in Q.factorize(n)]
        c, _ = Q.crt_combine(parts)
        g[0] -= c
        e = Q.RingElement(g, n)
        if not e.is_zero:
            return abs(e)


def _stratum(rng, values, count):
    """`count` draws that use every value equally often, in seeded order.

    The acceptance corpus draws shapes independently; a round of a few
    hundred such draws varies enough in cost from seed to seed to move
    ops_per_s by a fifth, so a round takes every shape equally often.
    """
    out = []
    while len(out) < count:
        block = list(values)
        rng.shuffle(block)
        out += block
    return out[:count]


def _member_pairs(Q, gens, rng, count):
    """Positive member pairs shaped like the acceptance corpus: a fifth are
    integer pairs with a monic second component, the rest pair members of
    degree 0..4 with denominators in 1..60."""
    n = len(gens)
    ints = sum(1 for i in range(count) if (i // n) % 5 == 0)
    int_shapes = _stratum(rng, [(da, db) for da in range(5) for db in range(1, 4)], ints)
    shapes = _stratum(rng, [(da, db) for da in range(5) for db in range(5)], count - ints)
    dens = _stratum(rng, range(1, 61), 2 * (count - ints))
    pairs = []
    for i in range(count):
        if (i // n) % 5 == 0:
            da, db = int_shapes.pop()
            b = Q.RingElement([rng.randint(-9, 9) for _ in range(db)] + [1])
            a = Q.RingElement([rng.randint(-9, 9) for _ in range(da + 1)])
            pairs.append((i % n, abs(a) if a else Q.RingElement((1,)), b))
        else:
            da, db = shapes.pop()
            ctx = gens[i % n]
            a = _member(Q, ctx, rng, da, dens.pop())
            b = _member(Q, ctx, rng, db, dens.pop())
            pairs.append((i % n, a, b))
    return pairs


class QeCorpus(Workload):
    """qe_chain then gcd_bezout on seeded member pairs over five tau kinds."""

    name = "qe_corpus"
    # A few pairs in a thousand factor a chain denominator of 35-40 bits
    # with large prime factors and take 0.2-2.5 s; the rest take under
    # 0.1 s.  Those rare ops move a round's op time from seed to seed, so
    # a round is large enough to hold several of them (see DESIGN.md).
    budget_s = 30.0
    ROUND_OPS = 5000

    def __init__(self, Q, seed):
        super().__init__(Q, seed)
        rng = random.Random(seed)
        gen = [Q.RingContext(_spec(Q, data)) for _, data in CORPUS_TAUS]
        # within a round no pair repeats, so membership verdicts are never
        # reused, while tau residues at the same small primes are
        self.ops = _member_pairs(Q, gen, rng, self.ROUND_OPS)

    def fresh(self):
        self.ctx = [self.Q.RingContext(_spec(self.Q, data)) for _, data in CORPUS_TAUS]

    def run(self, op):
        t, a, b = op
        ctx = self.ctx[t]
        chain = ctx.qe_chain(a, b)
        return chain, ctx.gcd_bezout(a, b)

    def check(self, op, out):
        _, a, b = op
        chain, (g, u, v) = out
        A, B = oracle.of(a), oracle.of(b)
        if oracle.of(chain.a) != A or oracle.of(chain.b) != B:
            return "chain does not start at the input pair"
        if not chain.remainders or chain.remainders[-1].num:
            return "chain does not terminate"
        prev, cur = A, B
        norm = oracle.phi(prev, cur)
        for step, (q, s) in enumerate(zip(chain.quotients, chain.remainders), 1):
            q, s = oracle.of(q), oracle.of(s)
            if oracle.add(oracle.mul(q, cur), s) != oracle.normal(*prev):
                return f"step {step}: p*cur + s != prev"
            if oracle.sign(s) < 0 or oracle.sign(oracle.sub(oracle.absval(cur), s)) <= 0:
                return f"step {step}: remainder outside [0, |cur|)"
            nxt = oracle.phi(cur, s)
            if not nxt < norm:
                return f"step {step}: phi does not descend"
            prev, cur, norm = cur, s, nxt
        G = oracle.of(g)
        if oracle.sign(G) <= 0:
            return "gcd is not positive"
        if oracle.add(oracle.mul(oracle.of(u), A), oracle.mul(oracle.of(v), B)) != oracle.normal(*G):
            return "g != u*a + v*b"
        return None

    def record(self, op, out):
        chain, (g, u, v) = out
        return _dumps([op[0], chain.to_json(), g.to_json(), u.to_json(), v.to_json()])

    def kind(self, op):
        return CORPUS_TAUS[op[0]][0]


# --------------------------------------------------------------------------
# adversary_ladder

# Cells past the factoring cliff, all with b = 2x^2 + x + 3: stream(42)
# at k = 25 and 30, log_generic(7) at k = 30 and two constant-tau cells.
# They are fixed rather than seeded: a cell's cost is set by factoring
# numbers derived from F_(2k+2) and b, and a seeded b would make a run's
# total swing with the draw.  They take most of a round's time, so they
# set ops_per_s; the seeded cells below the cliff set p50 and the p90 tail.
CLIFF_B = (3, 1, 2)
CLIFF_CELLS = ((3, 25), (1, 30), (4, 30), (0, 35), (3, 30))  # (CORPUS_TAUS index, k)
FAST_KS = (2, 4, 6, 8, 10, 12, 14, 16)
# The median slot falls among the k = 10 cells, whose cost varies with the
# seeded b: with 12 cells per k op_p50_ms spread by 8 % over five seeds,
# with 24 by 3 %.
FAST_CELLS = 190


class AdversaryLadder(Workload):
    """adversarial_pair, degree_retention_check and the hat projection.

    Every op starts cold (fresh context, cleared factor and primality
    caches), as one CLI invocation does; otherwise cells sharing k would
    only measure cache hits on the factors of F_(2k+2).
    """

    name = "adversary_ladder"
    budget_s = 30.0
    cold_ops = True

    def __init__(self, Q, seed):
        super().__init__(Q, seed)
        rng = random.Random(seed)
        fast = []
        for i in range(FAST_CELLS):
            deg = rng.randint(1, 2)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 5)]
            fast.append((i % len(CORPUS_TAUS), FAST_KS[i % len(FAST_KS)], Q.RingElement(coeffs)))
        n = len(CLIFF_CELLS)
        for j, (t, k) in enumerate(CLIFF_CELLS):
            self.ops.append((t, k, Q.RingElement(CLIFF_B)))
            self.ops += fast[j * FAST_CELLS // n : (j + 1) * FAST_CELLS // n]

    def fresh(self):
        self.ctx = [self.Q.RingContext(_spec(self.Q, data)) for _, data in CORPUS_TAUS]

    def run(self, op):
        t, k, b = op
        Q, ctx = self.Q, self.ctx[t]
        a = Q.adversarial_pair(ctx, k, b)
        report = Q.degree_retention_check(ctx, k, a, b)
        qe = ctx.qe_chain(a, b)
        quots = [int(q) for q in qe.quotients[: 2 * k]]
        hats = [Q.hat(report.d, b, r) for r in qe.remainders[: 2 * k]]
        projected = Q.build_chain(report.c, report.d, quots)
        return report, quots, hats, projected

    def check(self, op, out):
        _, k, b = op
        report, quots, hats, projected = out
        if not report.verdict:
            return "verdict is false"
        if len(report.degrees) != 2 * k or min(report.degrees) < len(b.num) - 1:
            return "degrees do not retain deg b over 2k remainders"
        c, d = report.c, report.d
        if c != d + _prev_fib(d) or len(oracle.euclid_remainders(c, d)) <= 2 * k:
            return "(c, d) is not a Fibonacci pair with a chain longer than 2k"
        if not 0 <= report.beta < d:
            return "beta outside [0, d)"
        B = oracle.of(b)
        expect = oracle.mul(((c,), d), oracle.sub(B, ((report.beta,), 1)))
        if oracle.of(report.a) != expect:
            return "a != (c/d)(b - beta)"
        ints = oracle.chain_remainders(c, d, quots)
        if any(h.denominator != 1 or h == 0 for h in hats):
            return "hat projection is not a nonzero integer"
        if [int(h) for h in hats] != ints or [oracle.of(r) for r in projected.remainders] != [
            oracle.normal((r,), 1) for r in ints
        ]:
            return "hat projection differs from build_chain(c, d, quotients)"
        return None

    def record(self, op, out):
        report, _, hats, _ = out
        return _dumps([report.to_json(), [str(h) for h in hats]])

    def kind(self, op):
        t, k, b = op
        if (t, k) in CLIFF_CELLS:
            return f"cliff {CORPUS_TAUS[t][0]} k={k}"
        return f"seeded b, five taus, k={k}"


def _prev_fib(d):
    # the Fibonacci number before d, or -1 when d is not one
    a, b = 1, 1
    while b < d:
        a, b = b, a + b
    return a if b == d else -1


# --------------------------------------------------------------------------
# chain_rewrite

# (chain length, chains per round): a hundred ops a round, most of them
# short, while the k^2 cost of the long ones shows.  The median and the
# p90 tail land inside the groups of 20 and 16, not between groups.
REWRITE_LENGTHS = (
    (400, 1), (256, 1), (128, 2), (64, 16), (32, 16), (16, 20), (8, 20), (4, 18),
)
WITNESS_OPS = 6


class ChainRewrite(Workload):
    """normalize_positive then compare_to_qe on seeded integer chains,
    plus fibonacci_witness(k)."""

    name = "chain_rewrite"
    budget_s = 10.0
    cold_ops = True  # one chain's ops share no state with the next chain's

    def __init__(self, Q, seed):
        super().__init__(Q, seed)
        rng = random.Random(seed)
        for k, count in REWRITE_LENGTHS:
            for _ in range(count):
                # every quotient value equally often: the number of rewrites,
                # and so the cost, then depends on k far more than on the seed
                quots = _stratum(rng, range(-4, 5), k)
                a, b = rng.randint(1, 1597), rng.randint(1, 987)
                self.ops.append(("normalize", (a, b, quots), Q.build_chain(a, b, quots)))
        for _ in range(WITNESS_OPS):
            self.ops.append(("witness", rng.randint(4, 64), None))

    def fresh(self):
        self.ctx = self.Q.RingContext(self.Q.constant(0))

    def run(self, op):
        what, arg, chain = op
        if what == "witness":
            return self.Q.fibonacci_witness(arg)
        out = self.Q.normalize_positive(chain)
        return out, self.Q.compare_to_qe(self.ctx, out)

    def check(self, op, out):
        what, arg, _ = op
        if what == "witness":
            (big, small), chain = out
            k = arg
            if (big, small) != (oracle.fibonacci(2 * k + 3), oracle.fibonacci(2 * k + 2)):
                return "witness pair is not (F_(2k+3), F_(2k+2))"
            f = [small] + oracle.euclid_remainders(big, small)
            rems = [_int(r) for r in chain.remainders]
            if len(rems) != k or any(abs(rems[l - 1]) != f[2 * l] for l in range(1, k + 1)):
                return "witness chain misses |r_l| = f_2l"
            return None
        a, b, quots = arg
        result, comparison = out
        qs = [_int(q) for q in result.quotients]
        rs = [_int(r) for r in result.remainders]
        if (_int(result.a), _int(result.b)) != (a, b) or rs != oracle.chain_remainders(a, b, qs):
            return "result is not a chain from the input pair"
        before = oracle.chain_remainders(a, b, quots)[-1]
        if abs(rs[-1] if rs else b) != abs(before):
            return "|last remainder| not preserved"
        if any(q <= 0 for q in qs[1:]):
            return "tail is not positive"
        n, k = oracle.rewrite_measure(quots)
        if len(qs) > 2 * k - 1 or len(qs) > k + n:
            return "length bound violated"
        if comparison.chain is not result or not comparison.ok:
            return "compare_to_qe does not accept the result"
        return None

    def record(self, op, out):
        if op[0] == "witness":
            pair, chain = out
            return _dumps([list(pair), [_int(q) for q in chain.quotients]])
        result, comparison = out
        return _dumps([[_int(q) for q in result.quotients], comparison.ok])

    def kind(self, op):
        what, arg, _ = op
        return "fibonacci_witness" if what == "witness" else f"normalize k={len(arg[2])}"


def _int(e):
    if e.den != 1:
        raise ValueError(f"{e!r} is not an integer")
    return e.num[0] if e.num else 0


# --------------------------------------------------------------------------
# residue_scan


def _poly_text(coeffs) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        body = str(mag) if i == 0 else f"{mag}*x" + (f"^{i}" if i > 1 else "")
        terms.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


X2_MINUS_2 = (-2, 0, 1)
HENSEL_X2_MINUS_2 = {"kind": "hensel", "poly": list(X2_MINUS_2), "fallback": {"kind": "constant", "value": 1}}
# Saturated primes of x^2 - 2 under HENSEL_X2_MINUS_2 at p <= 50.
KNOWN_SATURATED = (7, 17, 23, 31, 41, 47)
TAU_OPS_PER_HEAVY = 4


class ResidueScan(Workload):
    """In-process CLI invocations (scan, witness, tau) with --json."""

    name = "residue_scan"
    budget_s = 30.0

    def __init__(self, Q, seed):
        super().__init__(Q, seed)
        rng = random.Random(seed)

        def poly(max_deg=3):
            deg = rng.randint(1, max_deg)
            return [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice((-3, -2, -1, 1, 2, 3))]

        def quadratic():
            while True:  # x^2 + bx + c with a non-square discriminant
                b, c = rng.randint(-6, 6), rng.randint(-20, 20)
                disc = b * b - 4 * c
                if disc < 0 or math.isqrt(disc) ** 2 != disc:
                    return [c, b, 1]

        s = rng.randint(0, 10**6)
        stream = {"kind": "stream", "seed": s}
        log = {"kind": "log_generic", "seed": rng.randint(0, 10**6)}
        const = {"kind": "constant", "value": rng.randint(-50, 50)}
        f = quadratic()
        hensel = {"kind": "hensel", "poly": f, "fallback": {"kind": "stream", "seed": s + 1}}
        piece = {
            "kind": "piecewise",
            "overrides": {"2": {"kind": "zero"}, "3": const, "5": stream},
            "default": log,
        }
        zero = {"kind": "zero"}
        x2m2 = list(X2_MINUS_2)
        heavy = [
            # x^2 - 2 under its own Hensel spec: the ROADMAP's slow scan (a
            # linear root search per prime) on a quarter of its 20000 box
            ("scan", HENSEL_X2_MINUS_2, x2m2, {"pmax": 5000, "kmax": 8}),
            ("scan", HENSEL_X2_MINUS_2, x2m2, {"pmax": 50, "kmax": 8}),
            ("scan", HENSEL_X2_MINUS_2, x2m2, {"pmax": 1000, "kmax": 8}),
            ("scan", hensel, f, {"pmax": 3000, "kmax": 8}),
            ("scan", hensel, f, {"pmax": 1000, "kmax": 8}),
            ("scan", stream, poly(), {"pmax": 5000, "kmax": 8}),
            ("scan", stream, poly(), {"pmax": 2000, "kmax": 16}),
            ("scan", log, poly(), {"pmax": 5000, "kmax": 8}),
            ("scan", log, poly(), {"pmax": 2000, "kmax": 4}),
            ("scan", const, poly(), {"pmax": 5000, "kmax": 8}),
            ("scan", const, poly(), {"pmax": 1000, "kmax": 8}),
            ("scan", piece, poly(), {"pmax": 5000, "kmax": 8}),
            ("scan", piece, poly(), {"pmax": 1000, "kmax": 8}),
            ("scan", zero, poly(), {"pmax": 5000, "kmax": 8}),
            ("scan", stream, poly(), {"pmax": 1000, "kmax": 8}),
            ("scan", log, poly(), {"pmax": 1000, "kmax": 8}),
            ("witness", zero, [0] + poly(2), {"depth": 4, "pmax": 50, "kmax": 8}),
            ("witness", stream, poly(), {"depth": 2, "pmax": 200, "kmax": 8}),
            ("witness", HENSEL_X2_MINUS_2, x2m2, {"depth": 4, "pmax": 50, "kmax": 8}),
            ("witness", piece, poly(), {"depth": 3, "pmax": 300, "kmax": 6}),
        ]
        tau_specs = (stream, log, const, hensel, piece, HENSEL_X2_MINUS_2, zero)
        primes = oracle.primes_upto(1000)
        for i, (cmd, spec, h, opts) in enumerate(heavy):
            self.ops.append(self._argv(cmd, spec, _poly_text(h), opts) + (spec, h, opts))
            for j in range(TAU_OPS_PER_HEAVY):
                spec_t = tau_specs[(i * TAU_OPS_PER_HEAVY + j) % len(tau_specs)]
                p, k = rng.choice(primes), rng.randint(1, 16)
                argv = ("tau", "--json", "--tau", _dumps(spec_t), str(p), str(k))
                self.ops.append((argv, spec_t, None, {"p": p, "k": k}))
        self._verified: dict[tuple, str] = {}

    @staticmethod
    def _argv(cmd, spec, h_text, opts):
        argv = [cmd, "--json", "--tau", _dumps(spec)]
        for key in sorted(opts):
            argv += [f"--{key}", str(opts[key])]
        # "--" keeps a polynomial with a leading minus from reading as an option
        return (tuple(argv + ["--", h_text]),)

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.Q.cli.main(list(op[0]))
            except SystemExit as exc:  # argparse rejects a command line this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, op, out):
        argv, spec, h, opts = op
        code, stdout, stderr = out
        if code != 0 or stderr:
            return f"exit {code}, stderr {stderr.strip()[:200]!r}"
        # outputs repeat across rounds: verify each argv once, then compare bytes
        seen = self._verified.get(argv)
        if seen is not None:
            return None if seen == stdout else "output differs from the verified one"
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        problem = self._verify(argv[0], spec, h, opts, payload)
        if problem is None:
            self._verified[argv] = stdout
        return problem

    def _verify(self, cmd, spec, h, opts, payload):
        if cmd == "tau":
            p, k = opts["p"], opts["k"]
            value = oracle.residue(spec, p, k)
            digits = [value // p**i % p for i in range(k)]
            if payload != {"p": p, "k": k, "value": value, "digits": digits}:
                return f"tau {p} {k} disagrees with the reference"
            return None
        expect = oracle.scan(spec, h, opts["pmax"], opts["kmax"])
        if cmd == "scan":
            got = [(x["prime"], x["depth"], x["saturated"], x["exact"]) for x in payload["hits"]]
            if got != expect or payload["h"] != {"num": h, "den": 1}:
                return "scan hits disagree with the reference"
            if spec is HENSEL_X2_MINUS_2 and opts["pmax"] == 50:
                if tuple(p for p, _, sat, _ in got if sat) != KNOWN_SATURATED:
                    return "saturated primes of x^2 - 2 are not 7, 17, 23, 31, 41, 47"
            return None
        depth = opts["depth"]
        exact = [p for p, _, _, ex in expect if ex]
        hit = [p for p, *_ in expect]
        if exact:
            kind, primes, dens = "prime_power", [exact[0]], [exact[0] ** j for j in range(1, depth + 1)]
        elif len(hit) >= depth:
            kind, primes, dens = "distinct_primes", hit[:depth], []
            for p in primes:
                dens.append(p * (dens[-1] if dens else 1))
        else:
            return None if payload["witness"] is None else "witness where the reference has none"
        w = payload["witness"]
        if w is None or w["kind"] != kind or w["primes"] != primes:
            return "witness kind or primes disagree with the reference"
        if [oracle.from_json(e) for e in w["chain"]] != [oracle.normal(h, n) for n in dens]:
            return "witness chain disagrees with the reference"
        return None

    def record(self, op, out):
        return _dumps([op[0], out[0], out[1]])

    def kind(self, op):
        argv, spec, _, opts = op
        if argv[0] == "tau":
            return "tau"
        return f"{argv[0]} {spec['kind']} pmax={opts['pmax']}"


WORKLOADS = {w.name: w for w in (QeCorpus, AdversaryLadder, ChainRewrite, ResidueScan)}
