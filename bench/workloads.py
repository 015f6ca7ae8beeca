"""The four workloads: how each draws its inputs, runs one op, and reduces
the op's outputs to what the correctness gate compares.

`op` makes each haarmult call through `call`, which the worker uses to time
and scale every call on its own (hostspeed.Meter); the default calls directly.
`summarize` returns `(ok, exact, floats, blocks)`: `ok` is the conjunction of
the verifiers' verdicts, `exact` a digest of every output that must not
change at all (tops and blocks, the tops' exact Carleson constant, verdicts),
`floats` the outputs compared to a relative tolerance (norms, `A`, weight
totals), and `blocks` the block count when the op produced a decomposition.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

P_HARDY = 1.0
P_FACTOR, Q_FACTOR = 1.5, 3.0
PHI_PER_OP = 8
X0_SAMPLES = 64


def _digest(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:32]


def _key(interval) -> str:
    return f"{interval.level}/{interval.position}"


def _direct(fn, *args):
    return fn(*args)


def double_weights(m):
    """The `--inject-mutant scale-omega` corruption: every weight doubled."""
    return type(m)(
        weights={k: 2.0 * w for k, w in m.weights.items()},
        normalizer=m.normalizer,
        exponent=m.exponent,
    )


class VerifySuite:
    """`haarmult verify --trials 1` at max level 6, dimension 2, p 1.5, q 3."""

    name = "verify-suite"
    pool = 64  # instances differ a lot in cost; one per op keeps runs comparable
    flags = dict(p=P_FACTOR, q=Q_FACTOR, trials=1, density=0.5, max_level=6, dimension=2)

    def __init__(self, hm) -> None:
        self.hm = hm

    def make_input(self, seed: int):
        return seed

    def prepare(self, seed):
        return (seed,)

    def op(self, seed, mutant: bool = False, call=_direct):
        return call(self._verify, seed, mutant)

    def _verify(self, seed, mutant: bool):
        cli = self.hm.cli
        report = cli.run_verification(
            seed=seed, mutant="scale-omega" if mutant else None, **self.flags
        )
        return report, cli.dump_json(report)

    def summarize(self, out):
        report, text = out
        floats: list[float] = []

        def strip(node):
            if isinstance(node, dict):
                return {k: strip(v) for k, v in node.items()}
            if isinstance(node, list):
                return [strip(v) for v in node]
            if isinstance(node, float):
                floats.append(node)
                return "<float>"
            return node

        exact = json.dumps(strip(report))
        ok = report["passed"] is True and json.loads(text)["passed"] is True
        return ok, _digest([exact]), floats, None

    def facts(self, seed, blocks):
        trial = getattr(self.hm.cli, "_trial_expansion", None)
        if trial is None:  # the suite's instance is not reachable from outside
            return {"max_level": self.flags["max_level"]}
        u = trial(seed, 0, self.flags["max_level"], 1, self.flags["density"])
        return _expansion_facts(u, len(self.hm.decompose(u, P_FACTOR).pieces))


class DeepHardy:
    """Dense scalar expansion at max level 14: the CLI `decompose` and
    `pietsch` commands, then PHI_PER_OP multiplier checks."""

    name = "deep-hardy"
    pool = 6

    def __init__(self, hm) -> None:
        self.hm = hm

    def expansion(self, seed: int):
        return self.hm.cli.gen_random(14, 1, 0.5, seed)

    def make_input(self, seed: int):
        u = self.expansion(seed)
        phis = np.random.default_rng([seed, PHI_PER_OP]).uniform(
            -1.0, 1.0, (PHI_PER_OP, len(u.coeffs))
        )
        return u, phis

    def prepare(self, inst):
        u, phis = inst
        support = u.support
        return u, [dict(zip(support, row.tolist())) for row in phis]

    def op(self, u, phis, mutant: bool = False, call=_direct):
        hm = self.hm
        dec = call(hm.decompose, u, P_HARDY)
        report = call(hm.verify_decomposition, u, P_HARDY, dec)
        m = call(hm.weights_hp, u, P_HARDY)
        if mutant:
            m = double_weights(m)
        checks = [call(hm.check_multiplier_bound, u, P_HARDY, phi, m) for phi in phis]
        return u, dec, report, m, checks

    def summarize(self, out):
        u, dec, report, m, checks = out
        weights_ok = self.hm.validate_measure(m, u)
        ok = report.passed and weights_ok and all(c.ok for c in checks)
        parts = [
            f"{_key(top)}:" + ",".join(_key(i) for i in block)
            for block, top in dec.pieces
        ]
        parts.append(str(report.tops_carleson))
        verdicts = [v for v in report.as_dict().values() if isinstance(v, bool)]
        verdicts += [weights_ok] + [c.ok for c in checks]
        parts.append(json.dumps(verdicts))
        floats = [
            report.norm_p,
            report.block_norm_sum_p,
            report.top_bound_sum,
            report.observed_ratio,
            report.lower_constant,
            m.normalizer,
            m.total(),
        ]
        for c in checks:
            floats += [c.lhs, c.rhs, c.weighted_sum]
        return ok, _digest(parts), floats, len(dec.pieces)

    def facts(self, inst, blocks):
        return _expansion_facts(inst[0], blocks)


class SparseDeep(DeepHardy):
    """The deep-hardy op on a sparse scalar expansion at max level 20."""

    name = "sparse-deep"
    pool = 16
    max_level = 20
    draws = 4000

    def expansion(self, seed: int):
        rng = np.random.default_rng(seed)
        levels = rng.integers(0, self.max_level + 1, self.draws)
        positions = rng.integers(0, 1 << levels)
        values = rng.standard_normal(self.draws)
        coeffs = {}
        for level, pos, value in zip(levels.tolist(), positions.tolist(), values.tolist()):
            # a repeated interval keeps its first value
            coeffs.setdefault(self.hm.DyadicInterval(level, pos), value)
        return self.hm.HaarExpansion(self.max_level, 1, coeffs)


class FactorSampling:
    """`haarmult factorize --p 1.5 --q 3 --samples 64` on a dense scalar
    expansion at max level 12."""

    name = "factor-sampling"
    pool = 16

    def __init__(self, hm) -> None:
        self.hm = hm

    def make_input(self, seed: int):
        return self.hm.cli.gen_random(12, 1, 0.5, seed)

    def prepare(self, u):
        return (u,)

    def op(self, u, mutant: bool = False, call=_direct):
        hm = self.hm
        f = call(hm.factorize, u, P_FACTOR, Q_FACTOR)
        if mutant:  # y_I = (w_I / |I|)^(1/q): doubling the weights scales y
            scale = 2.0 ** (1.0 / f.q)
            f = type(f)(
                x=f.x, y={k: scale * v for k, v in f.y.items()},
                theta=f.theta, p=f.p, q=f.q,
            )
        ok = call(hm.verify_factorization, u, f)
        return f, ok, call(hm.x0_norm_estimate, f, u, X0_SAMPLES, 0)

    def summarize(self, out):
        f, ok, x0 = out
        parts = [",".join(_key(i) for i in sorted(f.x)), json.dumps(ok)]
        weight_total = math.fsum(
            v**f.q * 2.0 ** (-i.level) for i, v in f.y.items()
        )
        x_l1 = math.fsum(abs(v) * 2.0 ** (-i.level) for i, v in f.x.items())
        return ok, _digest(parts), [f.theta, x0, weight_total, x_l1], None

    def facts(self, u, blocks):
        if blocks is None:  # the blocks of |u|^(q/2), which weights_tl uses
            powered = self.hm.convexify(u, Q_FACTOR)
            blocks = len(self.hm.decompose(powered, 2.0 * P_FACTOR / Q_FACTOR).pieces)
        return _expansion_facts(u, blocks)


def _expansion_facts(u, blocks) -> dict:
    support = len(u.coeffs)
    return {
        "max_level": u.max_level,
        "support": support,
        "leaves_per_support": (1 << u.max_level) / support,
        "blocks": blocks,
    }


WORKLOADS = {w.name: w for w in (VerifySuite, DeepHardy, SparseDeep, FactorSampling)}


def floats_match(got: list[float], want: list[float], rtol: float = 1e-9) -> bool:
    return len(got) == len(want) and all(
        a == b or abs(a - b) <= rtol * max(abs(a), abs(b))
        for a, b in zip(got, want)
    )
