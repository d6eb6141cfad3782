"""The four benchmark workloads.

Every workload is a closed loop with one client: the next request is built
only after the previous one has finished.  A workload turns a seed into a
deterministic stream of operations.  Operation ``i`` draws its inputs from
a random generator seeded by ``(seed, workload, i)``, so a longer run sees
the same prefix; the program under test receives only inputs generated
with ``fwlop.randgen``.

An operation has a ``run`` callable (the only timed part) and a ``check``
callable that decides, outside the timed region, whether the result obeys
an identity of the library's contract.  ``check`` returns ``"ok"``,
``"wrong"`` (an exact value differs from its oracle) or ``"outcome"`` (the
call ended in a way its contract forbids, such as the wrong exit code).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from collections import deque
from dataclasses import dataclass
from typing import Callable


@dataclass
class Op:
    kind: str
    run: Callable
    check: Callable


def _rng(seed, tag, i):
    return random.Random(f"{seed}/{tag}/{i}")


def _verdict(ok: bool) -> str:
    return "ok" if ok else "wrong"


class Workload:
    """Base class: ``ops()`` yields the deterministic operation stream."""

    name = ""
    rotation = 1  # operations per full cycle of the request mix
    trace_ops = 0  # operations in a traced run, a whole number of cycles
    warmup_count = 1
    mix = {}

    def __init__(self, fw, seed, workdir):
        self.fw = fw
        self.seed = seed
        self.workdir = workdir

    def ops(self, tag="run", seed=None):
        seed = self.seed if seed is None else seed
        i = 0
        while True:
            yield self.make_op(_rng(seed, f"{self.name}/{tag}", i), i)
            i += 1

    def make_op(self, rng, i) -> Op:
        raise NotImplementedError

    def warmup_ops(self):
        """One operation of each kind, from a fixed stream the run never uses.

        The warm-up inputs do not depend on the seed, so set-up time does not
        vary with it.
        """
        stream = self.ops(tag="warmup", seed=0)
        return [next(stream) for _ in range(self.warmup_count)]

    def info(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# operator-algebra
# ---------------------------------------------------------------------------


class OperatorAlgebra(Workload):
    """Fresh DiffOp requests on charts (2,2) and (3,3), orders <= 3.

    Polynomials carry up to 6 terms (the verify default is 4).  The metric
    Laplacian runs on the (2,2) chart only: on (3,3) its 6x6 permutation
    determinant alone costs about 0.25 s and would swamp every other kind.
    """

    name = "operator-algebra"
    kinds = [
        "compose",
        "commutator",
        "apply",
        "grade_decompose",
        "recover_coefficients",
        "linearize_do",
        "fwl_metric_laplacian",
    ]
    charts = [(2, 2), (3, 3)]
    rotation = len(kinds) * len(charts)
    trace_ops = 40 * rotation
    warmup_count = len(kinds)
    mix = {
        "charts": ["(2,2)", "(3,3)"],
        "order_max": 3,
        "terms_max": 6,
        "kinds": kinds,
        "laplacian_chart": "(2,2)",
        "schedule": "kind = i mod 7, chart = (i div 7) mod 2",
    }

    def make_op(self, rng, i):
        fw = self.fw
        rg, Space = fw.randgen, fw.symcore.Space
        kind = self.kinds[i % len(self.kinds)]
        n, m = self.charts[(i // len(self.kinds)) % len(self.charts)]
        chart = fw.symcore.Chart(n, m)
        bounds = rg.Bounds(n_max=n, m_max=m, order_max=3, terms_max=6)
        one = fw.symcore.Poly.const(chart, Space.E, 1)

        def diffop():
            return rg.rand_diffop(rng, chart, Space.E, bounds)

        if kind in ("compose", "commutator"):
            a, b = diffop(), diffop()
            f = rg.rand_poly(rng, chart, Space.E, bounds)

            def expected():
                ab = a.apply(b.apply(f))
                return ab if kind == "compose" else ab - b.apply(a.apply(f))

            if kind == "compose":
                return Op(kind, lambda: a.compose(b), lambda r: _verdict(r.apply(f) == expected()))
            return Op(kind, lambda: a.commutator(b), lambda r: _verdict(r.apply(f) == expected()))
        if kind == "apply":
            a = diffop()
            f = rg.rand_poly(rng, chart, Space.E, bounds)
            mult = fw.diffop.DiffOp.mult(f)
            return Op(kind, lambda: a.apply(f), lambda r: _verdict(r == a.compose(mult).apply(one)))
        if kind == "grade_decompose":
            a = diffop()

            def check(parts):
                total = fw.diffop.DiffOp.zero(chart, Space.E)
                for part in parts.values():
                    total = total + part
                return _verdict(total == a and all(p.weight() == w for w, p in parts.items()))

            return Op(kind, lambda: a.grade_decompose(), check)
        if kind == "recover_coefficients":
            a = diffop()
            return Op(kind, lambda: a.recover_coefficients(), lambda r: _verdict(r == a.terms))
        if kind == "linearize_do":
            q = rng.randint(1, 3)
            op = rg.rand_order_q_linearizable_op(rng, chart, bounds, q)
            lin = fw.linearize

            def check(r):
                top = lin.linearize_multivector(op.symbol_at(q))
                return _verdict(r.is_fwl(q) and r.symbol_at(q) == top)

            return Op(kind, lambda: lin.linearize_do(op, q), check)
        chart = fw.symcore.Chart(2, 2)
        gamma = rg.rand_gamma(rng, chart, bounds)
        mv = fw.multivec
        return Op(
            kind,
            lambda: mv.fwl_metric_laplacian(chart, gamma),
            lambda r: _verdict(r.is_fwl(2) and r.top_table(2) == _laplacian_symbol(fw, chart, gamma)),
        )


def _laplacian_symbol(fw, chart, gamma):
    """Top table of the split-metric Laplacian read off g^-1 = [[0, I], [I, 2 Gamma.u]]."""
    sc = fw.symcore
    E, MI = sc.Space.E, sc.MultiIndex
    n = chart.base_dim
    top = {}

    def add(key, coeff):
        total = top.get(key, sc.Poly.zero(chart, E)) + coeff
        if total.is_zero():
            top.pop(key, None)
        else:
            top[key] = total

    for i in range(1, n + 1):
        add((MI([i]), MI([i])), sc.Poly.const(chart, E, 2))
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                coeff = gamma.get((k, i, j))
                if coeff is not None:
                    u_k = sc.Poly.var(chart, E, sc.Var(sc.VarKind.FIBER, k))
                    add((MI(), MI([i, j])), coeff.with_space(E) * u_k * 2)
    return top


# ---------------------------------------------------------------------------
# bracket-recovery
# ---------------------------------------------------------------------------


class BracketRecovery(Workload):
    """Unshuffle brackets, a_iso and pair algebra at (n, m, q_max) configs.

    Multivector and pair operands come half of the time from a small
    rolling pool per (config, operand kind, order) and are fresh otherwise;
    every fresh operand joins its pool, evicting the oldest.  So some
    requests reuse an instance, and its evaluation cache, that an earlier
    request already used, while no instance stays long enough for one
    seed's pool to weigh on the whole run.  Operand orders follow a fixed
    cycle per kind and results stay within order q_max.
    """

    name = "bracket-recovery"
    kinds = [
        "poisson",
        "sym_product",
        "hamiltonian_field",
        "a_iso",
        "a_inverse",
        "pair_bracket",
        "pair_product",
    ]
    configs = [(1, 1, 2), (2, 2, 3), (3, 3, 3)]
    rotation = len(kinds) * len(configs)
    trace_ops = 8 * rotation
    warmup_count = len(kinds)
    pool_size = 3
    reuse_probability = 0.5
    mix = {
        "configs_n_m_qmax": ["(1,1,2)", "(2,2,3)", "(3,3,3)"],
        "operand_orders": "1 or 2, cycling through every pair whose result order is <= q_max",
        "kinds": kinds,
        "pool_size_per_config_kind_order": pool_size,
        "pool_draw_probability": reuse_probability,
        "schedule": "kind = i mod 7, config = (i div 7) mod 3, orders by i div 21",
    }

    def __init__(self, fw, seed, workdir):
        super().__init__(fw, seed, workdir)
        self.pools = {}
        self.requests = 0
        self.reused_requests = 0
        rng = random.Random(f"{seed}/{self.name}/pool")
        for n, m, qmax in self.configs:
            chart = fw.symcore.Chart(n, m)
            bounds = fw.randgen.Bounds(n_max=n, m_max=m, order_max=qmax)
            for kind in ("symbol", "fwl", "pair"):
                for q in (1, 2):
                    # Entries are [operand, used by an earlier request].
                    self.pools[(n, kind, q)] = deque(
                        ([self._make(kind, rng, chart, bounds, q), False] for _ in range(self.pool_size)),
                        maxlen=self.pool_size,
                    )

    # -- operands --------------------------------------------------------------

    def _make(self, kind, rng, chart, bounds, q):
        rg, Space = self.fw.randgen, self.fw.symcore.Space
        while True:
            if kind == "symbol":
                # An operator of order exactly q together with its symbol.
                op = rg.rand_diffop(rng, chart, Space.E, bounds, max_keys=2, order=q)
                if op.order() == q:
                    return op, op.symbol()
            elif kind == "fwl":
                p = rg.rand_fwl_op(rng, chart, bounds, q).symbol_at(q)
                if not p.is_zero():
                    return p
            else:
                return rg.rand_fwl_pair(rng, chart, bounds, q)

    def _operand(self, rng, kind, chart, bounds, q, reuse):
        """Draw from the pool or build a fresh operand that then joins it.

        ``reuse`` collects whether the operand was used by an earlier request.
        """
        pool = self.pools[(chart.base_dim, kind, q)]
        if rng.random() < self.reuse_probability:
            entry = rng.choice(pool)
            reuse.append(entry[1])
            entry[1] = True
            return entry[0]
        value = self._make(kind, rng, chart, bounds, q)
        pool.append([value, True])
        return value

    def info(self):
        share = self.reused_requests / self.requests if self.requests else 0.0
        return {"requests": self.requests, "reused_operand_share": share}

    def _fresh(self, p):
        """A copy with an empty evaluation cache, so checks leave pools untouched."""
        return self.fw.multivec.SymMultivector(p.chart, p.space, p.q, p.terms)

    def _fresh_pair(self, pair):
        return self.fw.lbundle.LPair(self._fresh(pair.p), self._fresh(pair.rho))

    def make_op(self, rng, i):
        fw = self.fw
        kind = self.kinds[i % len(self.kinds)]
        n, m, qmax = self.configs[(i // len(self.kinds)) % len(self.configs)]
        cycle = i // self.rotation
        chart = fw.symcore.Chart(n, m)
        bounds = fw.randgen.Bounds(n_max=n, m_max=m, order_max=qmax)
        mv, lb = fw.multivec, fw.lbundle
        reuse = []

        def orders(result_order):
            pairs = [(a, b) for a in (1, 2) for b in (1, 2) if result_order(a, b) <= qmax]
            return pairs[cycle % len(pairs)]

        q = 1 + cycle % qmax
        if kind in ("poisson", "sym_product"):
            if kind == "poisson":
                q1, q2 = orders(lambda a, b: a + b - 1)
            else:
                q1, q2 = orders(lambda a, b: a + b)
            d1, p1 = self._operand(rng, "symbol", chart, bounds, q1, reuse)
            d2, p2 = self._operand(rng, "symbol", chart, bounds, q2, reuse)
            if kind == "poisson":
                run = lambda: mv.poisson(p1, p2)
                expected = lambda: d1.commutator(d2).symbol_at(q1 + q2 - 1)
            else:
                run = lambda: mv.sym_product(p1, p2)
                expected = lambda: d1.compose(d2).symbol_at(q1 + q2)
            op = Op(kind, run, lambda r: _verdict(r == expected()))
        elif kind == "hamiltonian_field":
            if q <= 2:
                p = self._operand(rng, "fwl", chart, bounds, q, reuse)
            else:
                p = self._make("fwl", rng, chart, bounds, q)
            core = fw.randgen.rand_core_op(rng, chart, bounds, rng.randint(1, 2))

            def check(field):
                lhs = field.apply(mv.core_to_dualpoly(core.symbol()))
                rhs = _dualpoly_of_core_sum(fw, p.to_operator().commutator(core))
                return _verdict(lhs == rhs)

            op = Op(kind, lambda: mv.hamiltonian_field(p), check)
        elif kind == "a_iso":
            d = fw.randgen.rand_fwl_op(rng, chart, bounds, q)
            op = Op(kind, lambda: lb.a_iso(d, q), lambda r: _verdict(lb.a_inverse(r, q) == d))
        elif kind == "a_inverse":
            d = fw.randgen.rand_homogeneous_lderivation(rng, chart, bounds, q - 1)
            op = Op(kind, lambda: lb.a_inverse(d, q), lambda r: _verdict(lb.a_iso(r, q) == d))
        else:
            if kind == "pair_bracket":
                q1, q2 = orders(lambda a, b: a + b - 1)
            else:
                q1, q2 = orders(lambda a, b: a + b)
            p1 = self._operand(rng, "pair", chart, bounds, q1, reuse)
            p2 = self._operand(rng, "pair", chart, bounds, q2, reuse)
            if kind == "pair_bracket":

                def check(r):
                    lhs = lb.pair_to_lderivation(r)
                    rhs = lb.lderiv_commutator(
                        lb.pair_to_lderivation(p1), lb.pair_to_lderivation(p2)
                    )
                    return _verdict(lhs == rhs)

                op = Op(kind, lambda: lb.pair_bracket(p1, p2), check)
            else:

                def check(r):
                    a, b = self._fresh_pair(p1), self._fresh_pair(p2)
                    rho = mv.sym_product(a.p, b.rho) + mv.sym_product(b.p, a.rho)
                    return _verdict(r.p == mv.sym_product(a.p, b.p) and r.rho == rho)

                op = Op(kind, lambda: lb.pair_product(p1, p2), check)

        self.requests += 1
        self.reused_requests += any(reuse)
        return op


def _dualpoly_of_core_sum(fw, op):
    """A sum of core operators as a polynomial on the dual space."""
    by_order = {}
    for key, coeff in op.terms.items():
        by_order.setdefault(len(key[1]), {})[key] = coeff
    out = fw.symcore.Poly.zero(op.chart, fw.symcore.Space.ESTAR)
    for q, terms in by_order.items():
        p = fw.multivec.SymMultivector(op.chart, fw.symcore.Space.E, q, terms)
        out = out + fw.multivec.core_to_dualpoly(p)
    return out


# ---------------------------------------------------------------------------
# verify-sweep
# ---------------------------------------------------------------------------


class VerifySweep(Workload):
    """One trial of each verify suite in turn, at default bounds."""

    name = "verify-sweep"
    mix = {
        "suites": "all twelve, round-robin",
        "trials_per_operation": 1,
        "bounds": "default (charts up to 2x2, orders up to 3)",
        "schedule": "suite = i mod 12, suite seed drawn from (seed, i)",
    }

    def __init__(self, fw, seed, workdir):
        super().__init__(fw, seed, workdir)
        self.suites = list(fw.verify.SUITES)
        self.rotation = len(self.suites)
        self.warmup_count = len(self.suites)
        self.trace_ops = 8 * self.rotation

    def make_op(self, rng, i):
        verify = self.fw.verify
        suite = self.suites[i % len(self.suites)]
        trial_seed = rng.randrange(2**31)
        return Op(
            suite,
            lambda: verify.run_suite(suite, 1, trial_seed),
            lambda report: _verdict(report.ok and report.trials == 1),
        )


# ---------------------------------------------------------------------------
# cli-documents
# ---------------------------------------------------------------------------

_ERROR_LINE = re.compile(r"^[A-Za-z]+: .+\n$", re.S)


class CliDocuments(Workload):
    """In-process ``fwlop.cli.main`` on small seeded fixture documents.

    Each cycle runs every subcommand except ``verify`` once on a valid
    document, then four malformed documents (bad JSON, unknown keys, a
    grammar error, a wrong field type), one of each kind.  Valid calls must
    print exactly the library's canonical rendering; malformed ones must
    exit 3 with one typed error line on stderr and nothing on stdout.
    """

    name = "cli-documents"
    commands = [
        "eval",
        "compose",
        "bracket",
        "grade",
        "classify",
        "symbol",
        "ad",
        "poisson",
        "a-iso",
        "a-inv",
        "linearize",
        "laplacian",
    ]
    malformed = ["bad-json", "unknown-key", "grammar", "wrong-type"]
    fixtures_per_command = 16
    rotation = len(commands) + len(malformed)
    trace_ops = 48 * rotation
    warmup_count = rotation
    mix = {
        "charts": ["(1,1)", "(1,2)", "(2,1)", "(2,2) for laplacian"],
        "order_max": 2,
        "terms_max": 2,
        "valid_per_cycle": len(commands),
        "malformed_per_cycle": len(malformed),
        "fixtures_per_command": fixtures_per_command,
    }

    def __init__(self, fw, seed, workdir):
        super().__init__(fw, seed, workdir)
        os.makedirs(workdir, exist_ok=True)
        rng = random.Random(f"{seed}/{self.name}/fixtures")
        self.valid = {
            cmd: [self._fixture(rng, cmd, k) for k in range(self.fixtures_per_command)]
            for cmd in self.commands
        }
        self.bad = [self._malformed(rng, k) for k in range(4 * len(self.malformed))]
        self.expected = {}

    # -- fixture writing -------------------------------------------------------

    def _write(self, name, doc):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(doc if isinstance(doc, str) else json.dumps(doc))
        return path

    def _small(self, rng, charts=((1, 1), (1, 2), (2, 1))):
        n, m = rng.choice(charts)
        chart = self.fw.symcore.Chart(n, m)
        return chart, self.fw.randgen.Bounds(n_max=n, m_max=m, order_max=2, terms_max=2)

    def _nonzero(self, make):
        while True:
            value = make()
            if not value.is_zero():
                return value

    def _fixture(self, rng, cmd, k):
        """(argv, expected-stdout thunk) for one valid document."""
        fw = self.fw
        rg, sc, do, mv, lb = fw.randgen, fw.symcore, fw.diffop, fw.multivec, fw.lbundle
        E = sc.Space.E
        chart, bounds = self._small(rng)
        tag = f"{cmd}-{k}"

        def op_file(op, suffix="op"):
            return self._write(f"{tag}-{suffix}.json", do.diffop_to_doc(op))

        def rand_op(space=E, order=None):
            return self._nonzero(
                lambda: rg.rand_diffop(rng, chart, space, bounds, max_keys=2, order=order)
            )

        dumps = lambda doc: json.dumps(doc, separators=(", ", ": ")) + "\n"
        if cmd == "eval":
            space = rng.choice([E, sc.Space.ESTAR])
            op, f = rand_op(space), rg.rand_poly(rng, chart, space, bounds)
            argv = [cmd, op_file(op), f"--fn={sc.poly_to_str(f)}", "--space", space.value]
            return argv, lambda: sc.poly_to_str(op.apply(f)) + "\n"
        if cmd in ("compose", "bracket"):
            a, b = rand_op(), rand_op()
            argv = [cmd, op_file(a, "left"), op_file(b, "right")]
            if cmd == "compose":
                return argv, lambda: do.diffop_dumps(a.compose(b)) + "\n"
            return argv, lambda: do.diffop_dumps(a.commutator(b)) + "\n"
        if cmd == "grade":
            op = rand_op(rng.choice([E, sc.Space.ESTAR]))
            return [cmd, op_file(op)], lambda: dumps(
                {str(w): do.diffop_to_doc(p) for w, p in op.grade_decompose().items()}
            )
        if cmd == "classify":
            q = rng.randint(1, 2)
            op = self._nonzero(lambda: rg.rand_fwl_op(rng, chart, bounds, q))
            if rng.random() < 0.5:
                op = rand_op(order=q)

            def expected():
                if op.is_core(q):
                    return f"core(q={q}), weight={-q}\n"
                if op.is_fwl(q):
                    return f"FWL(q={q}), weight={1 - q}\n"
                return f"not FWL at q={q}; weights={sorted(op.grade_decompose())}\n"

            return [cmd, "--order", str(q), op_file(op)], expected
        if cmd == "symbol":
            op = rand_op()
            return [cmd, op_file(op)], lambda: do.diffop_dumps(op.symbol().to_operator()) + "\n"
        if cmd in ("ad", "a-iso"):
            q = rng.randint(1, 2)
            op = self._nonzero(lambda: rg.rand_fwl_op(rng, chart, bounds, q))
            argv = [cmd, "--order", str(q), op_file(op)]
            if cmd == "ad":
                return argv, lambda: dumps(
                    {k: v for k, v in lb.lderivation_to_doc(lb.a_iso(op, q)).items() if k != "mult"}
                )
            return argv, lambda: dumps(lb.lderivation_to_doc(lb.a_iso(op, q)))
        if cmd == "poisson":
            a, b = rand_op(order=rng.randint(1, 2)), rand_op(order=1)
            pa, pb = a.symbol(), b.symbol()
            argv = [cmd, op_file(pa.to_operator(), "left"), op_file(pb.to_operator(), "right")]
            return argv, lambda: do.diffop_dumps(mv.poisson(pa, pb).to_operator()) + "\n"
        if cmd == "a-inv":
            q = rng.randint(1, 2)
            d = rg.rand_homogeneous_lderivation(rng, chart, bounds, q - 1)
            path = self._write(f"{tag}-deriv.json", lb.lderivation_to_doc(d))
            return [cmd, "--order", str(q), path], lambda: do.diffop_dumps(lb.a_inverse(d, q)) + "\n"
        if cmd == "linearize":
            q = rng.randint(1, 2)
            op = self._nonzero(lambda: rg.rand_order_q_linearizable_op(rng, chart, bounds, q))
            argv = [cmd, "--order", str(q), "--space", "Ambient", op_file(op)]
            return argv, lambda: do.diffop_dumps(fw.linearize.linearize_do(op, q)) + "\n"
        n = rng.randint(1, 2)
        square = sc.Chart(n, n)
        gamma = rg.rand_gamma(rng, square, bounds)
        path = self._write(f"{tag}-gamma.json", _gamma_doc(fw, square, gamma))
        return [cmd, path], lambda: do.diffop_dumps(mv.fwl_metric_laplacian(square, gamma)) + "\n"

    def _malformed(self, rng, k):
        """argv of a document that must be refused with exit code 3.

        The documents have one base dimension, so a boolean ``true`` in its
        place is the only thing wrong with them.
        """
        fw = self.fw
        do = fw.diffop
        chart, bounds = self._small(rng, charts=((1, 1), (1, 2)))
        op = self._nonzero(
            lambda: fw.randgen.rand_diffop(rng, chart, fw.symcore.Space.E, bounds, max_keys=2)
        )
        doc = do.diffop_to_doc(op)
        kind = self.malformed[k % len(self.malformed)]
        variant = k // len(self.malformed)
        name = f"bad-{k}.json"
        if kind == "bad-json":
            text = json.dumps(doc)
            return ["symbol", self._write(name, text[: len(text) // 2])]
        if kind == "unknown-key":
            doc["note"] = "unexpected"
            return ["grade", self._write(name, doc)]
        if kind == "grammar":
            if variant % 2:
                return ["eval", self._write(name, doc), "--fn=x1^ + 2"]
            doc["terms"][0]["coeff"] = "3*w1"
            return ["compose", self._write(name, doc), self._write(name, doc)]
        # Wrong field types, one per cycle: an integer coefficient, string
        # multi-index letters, a Laplacian entry given as a list and a
        # string chart dimension.
        if variant == 0:
            doc["terms"][0]["coeff"] = 5
            return ["symbol", self._write(name, doc)]
        if variant == 1:
            doc["terms"][0]["dx"] = ["1"]
            return ["grade", self._write(name, doc)]
        if variant == 2:
            gamma_doc = {"chart": {"base_dim": 1, "fiber_rank": 1}, "gamma": [[1, 1, 1, "5"]]}
            return ["laplacian", self._write(name, gamma_doc)]
        doc["chart"]["base_dim"] = "1"
        return ["grade", self._write(name, doc)]

    def _defect_probes(self):
        """argv of the documents that known defects mishandle.

        The CLI should refuse both with exit code 3, but an integer Laplacian
        coefficient escapes ``cli.main`` as a ``TypeError`` and a boolean
        chart dimension is accepted as the integer 1.  Every operation of a
        timed run must be able to succeed, so these run once, after the
        timed loop, and their outcomes are reported in ``info``.
        """
        gamma_doc = {
            "chart": {"base_dim": 1, "fiber_rank": 1},
            "gamma": [{"k": 1, "i": 1, "j": 1, "coeff": 5}],
        }
        sc = self.fw.symcore
        one = sc.Poly.const(sc.Chart(1, 1), sc.Space.E, 1)
        doc = self.fw.diffop.diffop_to_doc(self.fw.diffop.DiffOp.mult(one))
        doc["chart"]["base_dim"] = True
        return {
            "laplacian-integer-coeff": ["laplacian", self._write("defect-gamma.json", gamma_doc)],
            "boolean-chart-dim": ["grade", self._write("defect-bool.json", doc)],
        }

    def info(self):
        """Run the known-defect documents and report how each call ended."""
        outcomes = {}
        for name, argv in self._defect_probes().items():
            try:
                code, out, err = self._call(argv)
            except Exception as exc:
                outcomes[name] = f"escaped {type(exc).__name__}"
            else:
                refused = code == 3 and not out and _ERROR_LINE.match(err)
                outcomes[name] = "refused" if refused else f"exit {code}"
        return {"known_defects": outcomes}

    # -- the stream ------------------------------------------------------------

    def make_op(self, rng, i):
        cycle, slot = divmod(i, self.rotation)
        if slot < len(self.commands):
            cmd = self.commands[slot]
            k = (cycle + rng.randrange(self.fixtures_per_command)) % self.fixtures_per_command
            argv, expected = self.valid[cmd][k]
            key = (cmd, k)

            def check(outcome):
                code, out, err = outcome
                if code != 0 or err:
                    return "outcome"
                if key not in self.expected:
                    self.expected[key] = expected()
                return _verdict(out == self.expected[key])

            return Op(cmd, lambda: self._call(argv), check)
        k = (cycle * len(self.malformed) + slot - len(self.commands)) % len(self.bad)
        argv = self.bad[k]

        def check_refused(outcome):
            code, out, err = outcome
            return "ok" if code == 3 and not out and _ERROR_LINE.match(err) else "outcome"

        return Op(self.malformed[k % len(self.malformed)], lambda: self._call(argv), check_refused)

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.fw.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()


def _gamma_doc(fw, chart, gamma):
    return {
        "chart": fw.diffop.chart_to_doc(chart),
        "gamma": [
            {"k": k, "i": i, "j": j, "coeff": fw.symcore.poly_to_str(coeff)}
            for (k, i, j), coeff in sorted(gamma.items())
        ],
    }


WORKLOADS = {
    w.name: w for w in (OperatorAlgebra, BracketRecovery, VerifySweep, CliDocuments)
}
