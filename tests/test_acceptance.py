"""Acceptance suite: every guarantee of the library at desk scale, on seeded
random instances, with one PASS/FAIL line per criterion (run with -s to see
them).

Pools are built once per module: 1000 scalar instances, 1000 vector
instances, and 1000 interval families whose Carleson constants reach 8.
"""

import contextlib
import copy
import io
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from haarmult import (
    AtomicDecomposition,
    AtomicPiece,
    DyadicInterval,
    Factorization,
    HaarExpansion,
    IntervalFamily,
    PietschMeasure,
    VerificationError,
    appendix_constant,
    carleson_constant,
    check_multiplier_bound,
    check_multiplier_bounds,
    convexify,
    decompose,
    factorize,
    generation_decay_verdicts,
    generations,
    hp_norm,
    is_block,
    l2_norm,
    tl_norm,
    validate_measure,
    verify_decomposition,
    verify_factorization,
    weights_hp,
    weights_tl,
    weights_vector,
    x0_norm_estimate,
)
from haarmult import pisier
from haarmult.atomic import _decompose, _stopping_time
from haarmult.cli import _gen_with_rng, main
from haarmult.dyadic import _layer_leaves, _nearest_ancestors
from haarmult.haar import _cells, _on_atoms, _pow, _product_norms, _support_grid, _support_rows
from haarmult.pietsch import _BOUND_RTOL, _assemble

import atomic_oracle
import dyadic_oracle
import haar_oracle
import pietsch_oracle

N_INSTANCES = 1000
HP_PS = (0.5, 1.0, 1.5, 2.0)
TL_PQS = ((1.5, 2.0), (1.0, 3.0), (2.0, 4.0))
PISIER_PQS = ((4.0 / 3.0, 2.0), (1.5, 3.0), (2.0, 4.0))


def _random_expansion(seed, max_level, dimension, density):
    """The CLI generator; an empty draw gets one root coefficient, drawn next
    from the same stream."""
    rng = np.random.default_rng(seed)
    u = _gen_with_rng(rng, max_level, dimension, density)
    if u.is_zero:
        root = tuple(rng.standard_normal(dimension).tolist())
        u = HaarExpansion(max_level, dimension, {DyadicInterval(0, 0): root})
    return u


def _pool(base_seed, count, dimension):
    rng = np.random.default_rng(base_seed)
    pool = []
    for i in range(count):
        max_level = int(rng.integers(2, 7))
        density = float(rng.uniform(0.2, 0.9))
        pool.append(
            _random_expansion([base_seed, i], max_level, dimension, density)
        )
    return pool


@pytest.fixture(scope="module")
def scalar_pool():
    return _pool(101, N_INSTANCES, 1)


@pytest.fixture(scope="module")
def vector_pool():
    rng = np.random.default_rng(202)
    pool = []
    for i in range(N_INSTANCES):
        max_level = int(rng.integers(2, 6))
        density = float(rng.uniform(0.2, 0.9))
        dimension = int(rng.integers(2, 4))
        pool.append(_random_expansion([202, i], max_level, dimension, density))
    return pool


def _assemble_from(u, p, dec, exponent):
    """The weights of a given verified decomposition of u."""
    return _assemble(u, p, dec, exponent, hp_norm(u, p), _support_grid(u))


def _row_decomposition(u):
    """u's stopping-time blocks in row form, unverified."""
    grid = _support_grid(u)
    block, top_rows = _stopping_time(u, grid)
    return AtomicDecomposition._from_rows(
        u, {}, grid, _block=block, _top_rows=top_rows, max_level=u.max_level, dimension=u.dimension
    )


def _stopping_time_pieces(u):
    return _row_decomposition(u).pieces


@pytest.fixture(scope="module")
def scalar_results(scalar_pool):
    """(dec, report, measure) per (instance, p); decompose verifies internally,
    and the weights are assembled from the same decomposition."""
    results = {}
    for i, u in enumerate(scalar_pool):
        for p in HP_PS:
            dec = decompose(u, p)
            report = verify_decomposition(u, p, dec)
            measure = _assemble_from(u, p, dec, exponent=2.0)
            results[i, p] = (dec, report, measure)
    return results


@pytest.fixture(scope="module")
def tl_decompositions(scalar_pool):
    """(dec, report) per (instance, (p, q)): the verified decomposition of
    |u|^(q/2) in the Hardy space with exponent 2p/q."""
    results = {}
    for i, u in enumerate(scalar_pool):
        for p, q in TL_PQS:
            powered = convexify(u, q)
            results[i, (p, q)] = _decompose(powered, 2.0 * p / q, _support_grid(powered))
    return results


@pytest.fixture(scope="module")
def tl_results(scalar_pool, tl_decompositions):
    results = {}
    for (i, (p, q)), (dec, _) in tl_decompositions.items():
        powered = convexify(scalar_pool[i], q)
        results[i, (p, q)] = _assemble_from(powered, 2.0 * p / q, dec, exponent=q)
    return results


@pytest.fixture(scope="module")
def vector_results(vector_pool):
    results = {}
    for i, u in enumerate(vector_pool):
        for p in HP_PS:
            dec = decompose(u, p)
            results[i, p] = (dec, _assemble_from(u, p, dec, exponent=2.0))
    return results


def _slice_loop_leaf_sums(u, value_of):
    """Reference leaf sums: one slice update per interval, in support order."""
    sums = np.zeros(1 << u.max_level)
    for interval in u.coeffs:
        shift = u.max_level - interval.level
        lo = interval.position << shift
        sums[lo : lo + (1 << shift)] += value_of(interval)
    return sums


def _dense_cover_x0(f, u, n_samples, seed):
    """Reference value of x0_norm_estimate through the dense support x 2^N
    cover matrix (same candidates, same seed)."""
    p, q, th = f.p, f.q, f.theta
    support = list(u.coeffs)
    y_vec = np.array([f.y[i] for i in support])
    x_vec = np.array([abs(f.x[i]) for i in support])
    m_vec = np.array([2.0 ** (-i.level) for i in support])
    cover = np.zeros((len(support), 1 << u.max_level))
    for row, interval in enumerate(support):
        shift = u.max_level - interval.level
        cover[row, interval.position << shift : (interval.position + 1) << shift] = 1.0
    rng = np.random.default_rng(seed)
    raw = 10.0 ** rng.uniform(-3.0, 3.0, size=(n_samples, len(support)))
    scales = (raw**q @ m_vec) ** (1.0 / q)
    candidates = np.vstack([y_vec, raw / scales[:, None]])
    leaf_sums = (x_vec ** (1.0 - th) * candidates**th) ** q @ cover
    norms = np.mean(leaf_sums ** (p / q), axis=1) ** (1.0 / p)
    return float(norms.max()) ** (1.0 / (1.0 - th))


def _report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' - ' + detail if detail else ''}")
    assert passed, f"criterion {criterion} failed: {detail}"


class TestCriterion1Normalization:
    def test_weight_sums_at_most_one(
        self, scalar_pool, vector_pool, scalar_results, tl_results, vector_results
    ):
        tol = 1e-12
        worst = 0.0
        ok = True
        for i, u in enumerate(scalar_pool):
            for p in HP_PS:
                measure = scalar_results[i, p][2]
                total = measure.total()
                worst = max(worst, total)
                ok &= total <= 1.0 + tol and validate_measure(measure, u)
            for pq in TL_PQS:
                measure = tl_results[i, pq]
                total = measure.total()
                worst = max(worst, total)
                ok &= total <= 1.0 + tol and validate_measure(measure, u)
        for i, u in enumerate(vector_pool):
            for p in HP_PS:
                measure = vector_results[i, p][1]
                total = measure.total()
                worst = max(worst, total)
                ok &= total <= 1.0 + tol and validate_measure(measure, u)
        _report(
            1,
            ok,
            f"weight sums <= 1 on {N_INSTANCES} instances x "
            f"{len(HP_PS)} + {len(TL_PQS)} + {len(HP_PS)} parameter sets, "
            f"max sum {worst:.15f}",
        )

    def test_assembly_matches_public_route(self, scalar_pool, scalar_results):
        from haarmult import weights_hp

        for i in (0, 7, 123):
            u = scalar_pool[i]
            for p in (0.5, 2.0):
                cached = scalar_results[i, p][2]
                public = weights_hp(u, p)
                assert public.weights == cached.weights
                assert public.normalizer == cached.normalizer


class TestCriterion2MultiplierBound:
    def test_hardy_bound_hundred_thousand_pairs(self, scalar_pool, scalar_results):
        rng = np.random.default_rng(777)
        pairs = 0
        failures = 0
        per_instance = 25  # 1000 instances x 4 p x 25 phi = 1e5 pairs
        for i, u in enumerate(scalar_pool):
            support = u.support
            for p in HP_PS:
                measure = scalar_results[i, p][2]
                for _ in range(per_instance):
                    phi = dict(zip(support, rng.uniform(-1, 1, len(support))))
                    report = check_multiplier_bound(u, p, phi, measure)
                    pairs += 1
                    failures += not report.ok
        _report(2, failures == 0, f"Hardy route: {pairs} (instance, phi) pairs, {failures} failures")
        assert pairs == 100_000

    def test_tl_bound(self, scalar_pool, tl_results):
        rng = np.random.default_rng(778)
        pairs = 0
        failures = 0
        for i, u in enumerate(scalar_pool):
            support = u.support
            for p, q in TL_PQS:
                measure = tl_results[i, (p, q)]
                for _ in range(7):
                    phi = dict(zip(support, rng.uniform(-1, 1, len(support))))
                    report = check_multiplier_bound(u, p, phi, measure, q=q)
                    pairs += 1
                    failures += not report.ok
        _report(
            2, failures == 0, f"Triebel-Lizorkin route: {pairs} pairs, {failures} failures"
        )

    def test_vector_bound(self, vector_pool, vector_results):
        rng = np.random.default_rng(779)
        pairs = 0
        failures = 0
        for i, u in enumerate(vector_pool):
            support = u.support
            for p in HP_PS:
                measure = vector_results[i, p][1]
                for _ in range(5):
                    phi = dict(zip(support, rng.uniform(-1, 1, len(support))))
                    report = check_multiplier_bound(u, p, phi, measure)
                    pairs += 1
                    failures += not report.ok
        _report(2, failures == 0, f"vector route (s=2): {pairs} pairs, {failures} failures")


class TestCriterion3AtomicGuarantees:
    def test_all_guarantees(self, scalar_pool, vector_pool, scalar_results, vector_results):
        worst_carleson = Fraction(0)
        observed_sup = 0.0
        ok = True
        for i in range(len(scalar_pool)):
            for p in HP_PS:
                report = scalar_results[i, p][1]
                ok &= report.partition_ok and report.blocks_ok and report.tops_ok
                ok &= report.tops_carleson_ok
                ok &= report.chain_lower_ok and report.chain_middle_ok
                ok &= report.lower_constant == 1.0  # scalar case
                worst_carleson = max(worst_carleson, report.tops_carleson)
                observed_sup = max(observed_sup, report.observed_ratio)
        for i, u in enumerate(vector_pool):
            for p in HP_PS:
                dec = vector_results[i, p][0]
                report = verify_decomposition(u, p, dec)
                ok &= report.passed
                worst_carleson = max(worst_carleson, report.tops_carleson)
                observed_sup = max(observed_sup, report.observed_ratio)
        ok &= worst_carleson <= 4 and math.isfinite(observed_sup)
        _report(
            3,
            ok,
            f"tops Carleson <= 4 (max {float(worst_carleson):.4f}), partition/"
            f"block/chain exact, empirical upper-ratio supremum {observed_sup:.4f}",
        )


class TestCriterion4ExactIdentities:
    def test_identities(self, scalar_pool, vector_pool):
        rng = np.random.default_rng(888)
        parseval_ok = True
        for u in scalar_pool + vector_pool[:200]:
            exact = math.fsum(
                haar_oracle.coefficient_square(u, i) * 2.0 ** (-i.level)
                for i in u.coeffs
            )
            value = hp_norm(u, 2.0) ** 2
            parseval_ok &= math.isclose(value, exact, rel_tol=1e-12)

        convex_ok = True
        for i, u in enumerate(scalar_pool):
            p, q = TL_PQS[i % len(TL_PQS)]
            lhs = tl_norm(u, p, q)
            rhs = hp_norm(convexify(u, q), 2.0 * p / q) ** (2.0 / q)
            convex_ok &= math.isclose(lhs, rhs, rel_tol=1e-10)

        h2_ok = True
        for u in vector_pool[:500]:
            dec = decompose(u, 1.0)
            for block, _ in dec.pieces:
                ui = haar_oracle.restrict(u, block)
                mu = pietsch_oracle.h2_weights(ui)
                phi = dict(zip(ui.support, rng.uniform(-1, 1, len(ui.support))))
                lhs = hp_norm(pietsch_oracle.multiply(phi, ui), 2.0) ** 2
                rhs = l2_norm(ui) ** 2 * math.fsum(
                    phi[i] ** 2 * mu[i] for i in mu
                )
                h2_ok &= math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-300)

        _report(
            4,
            parseval_ok and convex_ok and h2_ok,
            "Parseval (1e-12), convexification identity (1e-10), "
            "vector level-2 multiplier identity (1e-12)",
        )


class TestCriterion5Factorization:
    def test_factorization_and_sampling(self, scalar_pool):
        identity_ok = True
        y_ok = True
        chain_failures = 0
        samples_per_instance = 1000
        for i, u in enumerate(scalar_pool):
            p, q = PISIER_PQS[i % len(PISIER_PQS)]
            f = factorize(u, p, q)
            for interval, (value,) in u.coeffs.items():
                product = (
                    f.x[interval] ** (1.0 - f.theta) * f.y[interval] ** f.theta
                )
                identity_ok &= math.isclose(product, abs(value), rel_tol=1e-10)
            y_norm_q = math.fsum(
                f.y[j] ** q * 2.0 ** (-j.level) for j in u.coeffs
            )
            y_ok &= y_norm_q <= 1.0 + 1e-12
            try:
                x0_norm_estimate(f, u, samples_per_instance, seed=i)
            except VerificationError:
                chain_failures += 1
        _report(
            5,
            identity_ok and y_ok and chain_failures == 0,
            f"product identity (1e-10), unit y-norm, Hoelder chain on "
            f"{N_INSTANCES} x {samples_per_instance} sampled candidates, "
            f"{chain_failures} failures",
        )


class TestCriterion6DecayBound:
    @staticmethod
    def _random_family(rng):
        max_level = int(rng.integers(1, 8))
        density = float(rng.choice([0.3, 0.5, 0.8, 1.0]))
        members = [
            DyadicInterval(level, pos)
            for level in range(max_level + 1)
            for pos in range(1 << level)
            if rng.random() < density
        ]
        if not members:
            members = [DyadicInterval(0, 0)]
        return IntervalFamily(members)

    @classmethod
    def _pool(cls):
        rng = np.random.default_rng(999)
        return [cls._random_family(rng) for _ in range(N_INSTANCES)]

    def test_bound_over_thousand_families(self):
        families = self._pool()
        max_packing = max(float(carleson_constant(f)) for f in families)
        assert max_packing == 8.0  # density-1 families at max_level 7 pack to 8

        violations = 0
        checked = 0
        spot_checks = []
        for fam in families:
            packing = float(carleson_constant(fam))
            scale = 1 << fam.max_level
            # one pass: each member contributes its measure to layer
            # (chain position) of every family ancestor, because dyadic
            # ancestors form a chain
            layer_measure: dict[tuple[DyadicInterval, int], int] = {}
            for member in fam:
                chain = [
                    member.ancestor(level)
                    for level in range(member.level + 1)
                    if member.ancestor(level) in fam
                ]
                scaled = scale >> member.level
                for idx, outer in enumerate(chain):
                    key = (outer, len(chain) - 1 - idx)
                    layer_measure[key] = layer_measure.get(key, 0) + scaled
            for (outer, layer), covered in layer_measure.items():
                bound = (
                    4.0
                    * 2.0 ** (-2.0 * layer / (4.0 * packing + 1.0))
                    * 2.0 ** (-outer.level)
                )
                checked += 1
                if covered / scale > bound:
                    violations += 1
            spot_checks.append((fam, *next(iter(layer_measure))))
        # the fast pass must agree with the library checker
        for fam, outer, layer in spot_checks[:100]:
            row = fam.intervals.index(outer)
            assert generation_decay_verdicts(fam, layer + 1)[row][layer]
        _report(
            6,
            violations == 0,
            f"{checked} (interval, layer) pairs over {N_INSTANCES} families, "
            f"Carleson constants up to {max_packing:.0f}, {violations} violations",
        )

    def test_queries_match_reference(self):
        # the nearest-ancestor table against the bisect scans and ancestor
        # walks it replaced
        families = self._pool()
        for fam in families:
            assert carleson_constant(fam) == dyadic_oracle.carleson_constant(fam)
            got = [layer.intervals for layer in generations(fam)]
            assert got == [
                layer.intervals for layer in dyadic_oracle.generations(fam)
            ]
        for fam in families[:100]:
            layers = len(generations(fam)) + 1
            for row, interval in enumerate(fam):
                for layer in range(layers):
                    verdict = generation_decay_verdicts(fam, layer + 1)[row][layer]
                    assert verdict == dyadic_oracle.generation_decay_check(
                        fam, interval, layer
                    )

    def test_whole_family_verdicts_match_reference(self):
        # one bottom-up pass per family against the per-call oracle, for every
        # member and every layer up to one past the deepest generation; the
        # layer measures too, since the bound leaves every verdict true
        for fam in self._pool():
            scale = 1 << fam.max_level
            levels = np.array([i.level for i in fam], dtype=np.int64)
            counts = _layer_leaves(levels, np.array(fam.parents()), fam.max_level)
            for interval, leaves in zip(fam, counts.tolist()):
                while not leaves[-1]:  # the columns past this member's depth
                    leaves.pop()
                assert [Fraction(n, scale) for n in leaves] == (
                    dyadic_oracle.layer_measures(fam, interval)
                )
            layers = len(generations(fam)) + 1
            verdicts = generation_decay_verdicts(fam, layers)
            assert verdicts == [
                [
                    dyadic_oracle.generation_decay_check(fam, interval, layer)
                    for layer in range(layers)
                ]
                for interval in fam
            ]


class TestCriterion7OracleEquivalence:
    def test_pointwise_oracle(self):
        rng = np.random.default_rng(555)
        ok = True
        for max_level in range(9):
            for _ in range(12):
                u = _random_expansion(
                    [555, max_level, int(rng.integers(1 << 30))],
                    max_level,
                    1,
                    float(rng.uniform(0.3, 1.0)),
                )
                leaves = 1 << max_level
                total = 0.0
                for j in range(leaves):
                    for t in ((j + 0.25) / leaves, (j + 0.75) / leaves):
                        value = math.fsum(
                            vec[0] * haar_oracle.evaluate_haar(i, t)
                            for i, vec in u.coeffs.items()
                        )
                        total += value * value / (2.0 * leaves)
                ok &= math.isclose(hp_norm(u, 2.0), math.sqrt(total), rel_tol=1e-12)
        _report(7, ok, "leafwise norm equals brute-force Haar-sum evaluation, N <= 8")


class TestCriterion8MutationSensitivity:
    def test_doubled_weights_caught(self, scalar_pool, scalar_results):
        caught = True
        for i in (0, 250, 999):
            u = scalar_pool[i]
            measure = scalar_results[i, 1.0][2]
            doubled = PietschMeasure(
                weights={k: 2.0 * w for k, w in measure.weights.items()},
                normalizer=measure.normalizer,
                exponent=measure.exponent,
            )
            caught &= validate_measure(measure, u)
            caught &= not validate_measure(doubled, u)
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = main(
                ["verify", "--trials", "2", "--seed", "5", "--p", "1.0",
                 "--inject-mutant", "scale-omega"]
            )
        caught &= exit_code == 1
        _report(8, caught, "doubled weights rejected, mutant verify exits 1")

    def test_perturbed_factor_caught(self, scalar_pool):
        caught = True
        for i in (3, 500):
            u = scalar_pool[i]
            f = factorize(u, 1.5, 3.0)
            target = min(f.x, key=lambda j: abs(f.x[j]))
            bad = Factorization(
                x={**f.x, target: f.x[target] + 1e-3},
                y=dict(f.y),
                theta=f.theta,
                p=f.p,
                q=f.q,
            )
            caught &= verify_factorization(u, f)
            caught &= not verify_factorization(u, bad)
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = main(
                ["verify", "--trials", "2", "--seed", "5", "--p", "1.5", "--q", "3.0",
                 "--inject-mutant", "perturb-x"]
            )
        caught &= exit_code == 1
        _report(8, caught, "perturbed factor rejected, mutant verify exits 1")


class TestCriterion9BoundConsequences:
    """Two exact consequences of the paper's bound, on every instance of
    both pools and on the Hardy, Triebel-Lizorkin and vector routes.

    (a) A <= max(1, observed_ratio), A from the weights and the ratio from
    the report of the same decomposition (for Triebel-Lizorkin that of
    |u|^(q/2) at exponent 2p/q): ||u_i||_2 <= |I_i|^(1/2) sup S(u_i) bounds
    each block's term by the ratio.

    (b) The single-interval multipliers e_I: ||x_I h_I|| = |x_I| |I|^(1/p),
    so the bound forces w_I >= (|x_I| |I|^(1/p) / (C ||u||))^s on every row,
    to the check's own relative tolerance (equality holds at p = 2 on
    one-interval blocks, so no tighter one is possible).
    """

    @staticmethod
    def _routes(scalar_pool, vector_pool, scalar_results, tl_decompositions,
                tl_results, vector_results):
        """(u, p, measure, report, ||u||) on each route."""
        for i, u in enumerate(scalar_pool):
            for p in HP_PS:
                _, report, measure = scalar_results[i, p]
                yield u, p, measure, report, hp_norm(u, p)
            for p, q in TL_PQS:
                report = tl_decompositions[i, (p, q)][1]
                yield u, p, tl_results[i, (p, q)], report, tl_norm(u, p, q)
        for i, u in enumerate(vector_pool):
            for p in HP_PS:
                dec, measure = vector_results[i, p]
                yield u, p, measure, verify_decomposition(u, p, dec), hp_norm(u, p)

    def test_normalizer_and_single_interval_bounds(
        self, scalar_pool, vector_pool, scalar_results, tl_decompositions, tl_results,
        vector_results,
    ):
        worst_a = worst_need = 0.0
        ok = True
        cases = 0
        for u, p, m, report, norm in self._routes(
            scalar_pool, vector_pool, scalar_results, tl_decompositions, tl_results,
            vector_results,
        ):
            a_ratio = m.normalizer / max(1.0, report.observed_ratio)
            lower = appendix_constant(p, 4) ** (-p) if u.dimension > 1 and p > 1 else 1.0
            constant = (m.normalizer / lower) ** (1.0 / p)
            lhs = np.sqrt(u.squares) * np.ldexp(1.0, -u.levels) ** (1.0 / p)
            need = (lhs / (constant * norm)) ** m.exponent
            weights = m._field_rows("weights", u)
            ok &= a_ratio <= 1.0 + 1e-12
            ok &= bool((need <= weights * (1.0 + _BOUND_RTOL)).all())
            worst_a = max(worst_a, a_ratio)
            worst_need = max(worst_need, float((need / weights).max()))
            cases += 1
        assert cases == N_INSTANCES * (2 * len(HP_PS) + len(TL_PQS))
        _report(
            9,
            ok,
            f"A <= max(1, observed ratio) (max quotient {worst_a:.4f}) and "
            f"w_I >= (|x_I| |I|^(1/p) / (C ||u||))^s (max quotient {worst_need!r}) "
            f"on {cases} (instance, route) cases",
        )


class TestLeafSumOracles:
    def test_leaf_sums_bit_identical_to_slice_loop(self, scalar_pool, vector_pool):
        # the library's cell sums on the leaves, of the squares and of the
        # powers |x_I|^q that `tl_norm` sums
        for u in scalar_pool + vector_pool:
            square = partial(haar_oracle.coefficient_square, u)
            expected = _slice_loop_leaf_sums(u, square)
            assert np.array_equal(haar_oracle.leaf_values(u, u.squares), expected)
        for u in scalar_pool:
            for q in (0.7, 2.0, 3.0):
                powers = _slice_loop_leaf_sums(u, lambda i: abs(u.coeffs[i][0]) ** q)
                got = haar_oracle.leaf_values(u, _pow(np.abs(u.values[:, 0]), q))
                assert np.array_equal(got, powers)

    def test_x0_matches_dense_cover(self, scalar_pool):
        for i in (0, 1, 250, 999):
            u = scalar_pool[i]
            p, q = PISIER_PQS[i % len(PISIER_PQS)]
            f = factorize(u, p, q)
            expected = _dense_cover_x0(f, u, 50, seed=i)
            assert x0_norm_estimate(f, u, 50, seed=i) == pytest.approx(
                expected, rel=1e-12
            )


# Levels added when a pool instance is re-embedded deeper: its square
# function stays the same step function, and its support is then sparse
# enough for its depth that every hot path runs on the atoms.
_DEEPER = 12


def _deeper(u):
    return HaarExpansion(u.max_level + _DEEPER, u.dimension, u.coeffs)


def _close(got, want):
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)


class TestCellGridOracles:
    """Both pools re-embedded _DEEPER levels down, where the cell grid is the
    atoms, against the dense leaf path at their own level: cell values bit
    for bit, norms, weights and A to 1e-12, decompositions and verdicts
    exactly."""

    def test_cell_values_bit_identical_to_leaf_sums(self, scalar_pool, vector_pool):
        for u in scalar_pool + vector_pool:
            deep = _deeper(u)
            batch = np.stack([u.squares, np.sqrt(u.squares), u.values[:, 0]])
            values, lengths = _cells(_support_grid(deep), batch)
            assert len(lengths) <= 2 * len(u.support) + 1
            assert lengths.sum() == 1 << deep.max_level
            first_leaf = (np.cumsum(lengths) - lengths) >> _DEEPER
            leaves = haar_oracle.push_down(u.max_level, u.levels, u.positions, batch)
            assert np.array_equal(values, leaves[:, first_leaf])

    def test_norms_match_leaf_path(self, scalar_pool, vector_pool):
        for i, u in enumerate(scalar_pool + vector_pool):
            deep = _deeper(u)
            for p in HP_PS:
                assert _close(hp_norm(deep, p), hp_norm(u, p))
            if u.dimension == 1:
                p, q = TL_PQS[i % len(TL_PQS)]
                assert _close(tl_norm(deep, p, q), tl_norm(u, p, q))

    def test_decompositions_and_weights_match_leaf_path(
        self, scalar_pool, vector_pool, scalar_results, vector_results
    ):
        verdicts = ("partition_ok", "blocks_ok", "tops_ok", "tops_carleson",
                    "tops_carleson_ok", "chain_lower_ok", "chain_middle_ok", "passed")
        floats = ("lower_constant", "norm_p", "block_norm_sum_p", "top_bound_sum",
                  "observed_ratio")
        instances = [
            (u, p, *scalar_results[i, p][::2])
            for i, u in enumerate(scalar_pool)
            for p in (HP_PS[i % len(HP_PS)],)
        ] + [
            (u, p, *vector_results[i, p])
            for i, u in enumerate(vector_pool)
            for p in (HP_PS[i % len(HP_PS)],)
        ]
        for u, p, dec, measure in instances:
            report = verify_decomposition(u, p, dec)
            deep = _deeper(u)
            deep_grid = _support_grid(deep)
            deep_dec, deep_report = _decompose(deep, p, deep_grid)
            assert deep_dec.pieces == dec.pieces
            assert deep_dec.tops() == dec.tops()
            got, want = deep_report.as_dict(), report.as_dict()
            assert [got[k] for k in verdicts] == [want[k] for k in verdicts]
            assert deep_report.tops_carleson == report.tops_carleson
            assert all(_close(got[k], want[k]) for k in floats)
            deep_measure = _assemble(deep, p, deep_dec, 2.0, deep_report.norm_p, deep_grid)
            assert list(deep_measure.weights) == list(measure.weights)
            assert all(
                _close(w, measure.weights[k]) for k, w in deep_measure.weights.items()
            )
            assert _close(deep_measure.normalizer, measure.normalizer)

    def test_x0_matches_leaf_path(self, scalar_pool):
        for i, u in enumerate(scalar_pool):
            p, q = PISIER_PQS[i % len(PISIER_PQS)]
            deep = _deeper(u)
            want = x0_norm_estimate(factorize(u, p, q), u, 4, seed=i)
            assert _close(x0_norm_estimate(factorize(deep, p, q), deep, 4, seed=i), want)


class TestKeptGridOracles:
    """Both pools re-embedded _DEEPER levels down, where a constructor's
    measure keeps its atom grid: each check report on the kept grid is, by
    repr, the report on a grid built fresh, on the hp, tl and vector routes,
    batched and single, and for a phi with zero rows."""

    def test_reports_match_fresh_grid(self, scalar_pool, vector_pool):
        rng = np.random.default_rng(2468)
        for i, u in enumerate(scalar_pool + vector_pool):
            deep = _deeper(u)
            p = HP_PS[i % len(HP_PS)]
            if u.dimension > 1:
                routes = [(weights_vector(deep, p), p, None)]
            else:
                tl_p, q = TL_PQS[i % len(TL_PQS)]
                routes = [(weights_hp(deep, p), p, None), (weights_tl(deep, tl_p, q), tl_p, q)]
            phis = rng.uniform(-1.0, 1.0, (3, len(deep.support)))
            phis[2, ::2] = 0.0
            rows = [dict(zip(deep.support, row)) for row in phis.tolist()]
            for m, p, q in routes:
                fresh = copy.copy(m)
                vars(fresh)["_grid"] = None
                assert m._grid_for(deep) is vars(m)["_grid"] is not None
                got, want = [
                    [repr(check_multiplier_bounds(deep, p, phis, measure, q=q))]
                    + [repr(check_multiplier_bound(deep, p, phi, measure, q=q)) for phi in rows]
                    for measure in (m, fresh)
                ]
                assert got == want


class TestKeptSourceOracles:
    """A constructor's result read on the very expansion it was built from,
    against the recompute path: `x0_norm_estimate` on the measure
    `factorize` kept, and the Hardy and vector checks on the norm the
    measure's verification computed, each bit for bit the result (or the
    exception) of a copy built from dicts, which recomputes them."""

    @staticmethod
    def _estimate(f, u, seed):
        try:
            return x0_norm_estimate(f, u, 8, seed=seed)
        except (ValueError, ArithmeticError, VerificationError) as exc:
            return type(exc), str(exc)

    def test_x0_matches_recompute(self, scalar_pool, monkeypatch):
        calls = []
        weights_tl_core = pisier._weights_tl
        monkeypatch.setattr(
            pisier, "_weights_tl", lambda *a: calls.append(a[0]) or weights_tl_core(*a)
        )
        raised = 0
        for i, u in enumerate(scalar_pool):
            p, q = PISIER_PQS[i % len(PISIER_PQS)]
            f = factorize(u, p, q)
            if i % 4 == 0:  # a factor changed after the fact fails the y check
                f.y[u.support[-1]] *= 1.0 + 1e-6
            calls.clear()
            got = self._estimate(f, u, i)
            assert calls == []
            plain = Factorization(x=f.x, y=f.y, theta=f.theta, p=f.p, q=f.q)
            assert self._estimate(plain, u, i) == got and calls == [u]
            # an equal expansion is another object: one recompute
            twin = HaarExpansion(u.max_level, 1, u.coeffs)
            calls.clear()
            assert self._estimate(f, twin, i) == got and calls == [twin]
            raised += isinstance(got, tuple)
        assert raised == N_INSTANCES // 4

    def test_reports_match_recompute(
        self, scalar_pool, vector_pool, scalar_results, vector_results
    ):
        rng = np.random.default_rng(1357)
        for i, u in enumerate(scalar_pool + vector_pool):
            p = HP_PS[i % len(HP_PS)]
            if i < N_INSTANCES:
                m = scalar_results[i, p][2]
            else:
                m = vector_results[i - N_INSTANCES, p][1]
            assert m._built_from(u) == (p, hp_norm(u, p))
            weights = dict(zip(u.support, m._field_rows("weights", u).tolist()))
            plain = PietschMeasure(weights, m.normalizer, m.exponent)
            phis = rng.uniform(-1.0, 1.0, (3, len(u.support)))
            phis[2, ::2] = 0.0
            got, want = (
                repr(check_multiplier_bounds(u, p, phis, measure)) for measure in (m, plain)
            )
            assert got == want


def _mixed_raw(u, rng):
    """u's coefficients as a constructor might get them: some zero vectors,
    some integer vectors (zero ones too), lists, and bare scalars for d = 1."""
    raw = {}
    for interval, vector in u.coeffs.items():
        draw = rng.random()
        if draw < 0.2:
            raw[interval] = [-0.0] * u.dimension
        elif draw < 0.35:
            raw[interval] = [int(round(c)) for c in vector]
        elif u.dimension == 1 and draw < 0.7:
            raw[interval] = vector[0]
        else:
            raw[interval] = list(vector)
    return raw


class TestExpansionOracles:
    """The support arrays against the per-coefficient loops they replaced."""

    def test_constructor_matches_loop(self, scalar_pool, vector_pool):
        rng = np.random.default_rng(4040)
        for u in scalar_pool + vector_pool:
            for raw in (dict(u.coeffs), _mixed_raw(u, rng)):
                got = HaarExpansion(u.max_level, u.dimension, raw)
                want = haar_oracle.cleaned_coeffs(u.max_level, u.dimension, raw)
                assert list(got.coeffs.items()) == list(want.items())
                assert all(type(c) is float for v in got.coeffs.values() for c in v)
                assert got.levels.tolist() == [i.level for i in want]
                assert got.positions.tolist() == [i.position for i in want]
                assert got.values.tolist() == [list(v) for v in want.values()]
                assert got.squares.tolist() == [
                    haar_oracle.coefficient_square(got, i) for i in want
                ]

    def test_multiply_matches_loop(self, scalar_pool, vector_pool):
        rng = np.random.default_rng(4141)
        outside = DyadicInterval(7, 3)  # above every pool max level
        for u in scalar_pool + vector_pool:
            support = u.support
            factors = rng.uniform(-1.0, 1.0, len(support))
            draw = rng.random(len(support))
            factors[draw < 0.15] = 0.0
            # the smallest subnormal: products with |x| < 1/2 underflow to 0
            factors[(draw >= 0.15) & (draw < 0.3)] = 5e-324
            phi = {
                interval: float(factor)
                for interval, factor, keep in zip(support, factors, draw < 0.9)
                if keep
            }
            phi[outside] = 1.0
            # the support-row product through `HaarExpansion._from_rows`
            got = pietsch_oracle.multiply(phi, u)
            assert list(got.coeffs.items()) == list(haar_oracle.multiply(phi, u).items())
            assert got.squares.tolist() == [
                haar_oracle.coefficient_square(got, i) for i in got.coeffs
            ]
            assert np.array_equal(
                haar_oracle.leaf_values(got, got.squares),
                _slice_loop_leaf_sums(
                    got, partial(haar_oracle.coefficient_square, got)
                ),
            )

    @pytest.mark.parametrize("factor", [1.7976931348623157e308, math.inf, math.nan])
    def test_multiply_non_finite_rejected(self, scalar_pool, vector_pool, factor):
        checked = 0
        for u in scalar_pool[:50] + vector_pool[:50]:
            largest = max(u.coeffs, key=lambda i: max(map(abs, u.coeffs[i])))
            if max(map(abs, u.coeffs[largest])) <= 1.0:
                continue
            checked += 1
            phi = dict.fromkeys(u.coeffs, 0.5)
            phi[largest] = factor
            with pytest.raises(ValueError) as want:
                haar_oracle.multiply(phi, u)
            # the multiplier checks' product norms refuse it as the
            # constructor does; the check itself, unless |phi_I|^2 overflows
            # first
            factors = _support_rows(phi, u)[None]
            with pytest.raises(ValueError) as got:
                _product_norms(u, factors, 1.0, None, _support_grid(u))
            assert str(got.value) == str(want.value)
            if not math.isfinite(factor):
                m = (weights_hp if u.dimension == 1 else weights_vector)(u, 1.0)
                with pytest.raises(ValueError) as got:
                    check_multiplier_bound(u, 1.0, phi, m)
                assert str(got.value) == str(want.value)
        assert checked > 50

    def test_decomposition_pieces_match_set_assignment(
        self, scalar_pool, vector_pool, scalar_results, vector_results
    ):
        for i, u in enumerate(scalar_pool):
            got = scalar_results[i, 1.0][0].pieces
            want = haar_oracle.stopping_time_pieces(u)
            assert [(p.top, p.block.intervals) for p in got] == [
                (p.top, p.block.intervals) for p in want
            ]
        for i, u in enumerate(vector_pool):
            got = vector_results[i, 1.0][0].pieces
            want = haar_oracle.stopping_time_pieces(u)
            assert [(p.top, p.block.intervals) for p in got] == [
                (p.top, p.block.intervals) for p in want
            ]
        for u in scalar_pool[:20]:
            powered = convexify(u, 3.0)
            assert _stopping_time_pieces(powered) == haar_oracle.stopping_time_pieces(powered)


def _assert_same_report(got, want):
    assert got == want
    assert [type(v) for v in vars(got).values()] == [
        type(v) for v in vars(want).values()
    ]


def _assert_same_measure(got, want):
    assert list(got.weights.items()) == list(want.weights.items())
    assert (got.normalizer, got.exponent) == (want.normalizer, want.exponent)


def _corruptions(u, dec, rng):
    """(kind, decomposition) pairs, each breaking dec in one way: a member
    moved to another block, dropped, or duplicated in another block; an
    interval outside the support added; a wrong top, a top shared with
    another piece; an empty block."""
    max_level = dec.max_level
    pieces = list(dec.pieces)
    a, b = rng.choice(len(pieces), 2, replace=False).tolist()
    block_a, top_a = pieces[a]
    block_b, top_b = pieces[b]
    member = block_a.intervals[int(rng.integers(len(block_a)))]

    def replaced(changes):
        out = list(pieces)
        for k, members, top in changes:
            out[k] = AtomicPiece(IntervalFamily(members, max_level=max_level), top)
        return AtomicDecomposition(tuple(out), max_level, dec.dimension)

    rest_a = [i for i in block_a if i != member]
    yield "moved", replaced([(a, rest_a, top_a), (b, [*block_b, member], top_b)])
    yield "dropped", replaced([(a, rest_a, top_a)])
    yield "duplicated", replaced([(b, [*block_b, member], top_b)])
    outside = [
        DyadicInterval(level, pos)
        for level in range(max_level + 1)
        for pos in range(1 << level)
        if DyadicInterval(level, pos) not in u.coeffs
    ]
    if outside:
        stray = outside[int(rng.integers(len(outside)))]
        yield "outside", replaced([(a, [*block_a, stray], top_a)])
    level = int(rng.integers(max_level + 1))
    wrong = DyadicInterval(level, int(rng.integers(1 << level)))
    if wrong != top_a:
        yield "wrong top", replaced([(a, block_a, wrong)])
    yield "shared top", replaced([(b, block_b, top_a)])
    empty = AtomicPiece(IntervalFamily([], max_level=max_level), top_b)
    yield "empty", AtomicDecomposition((*pieces, empty), max_level, dec.dimension)


class TestBlockRowOracles:
    """The verifier and the weights against the set-based and per-interval
    code that the block rows replaced, report field for field and weight for
    weight."""

    def test_pools_match(
        self, scalar_pool, vector_pool, scalar_results, tl_results, vector_results
    ):
        for i, u in enumerate(scalar_pool):
            for p in HP_PS:
                dec, report, measure = scalar_results[i, p]
                _assert_same_report(report, atomic_oracle.verify_decomposition(u, p, dec))
                _assert_same_measure(measure, atomic_oracle.assemble(u, p, dec, 2.0))
            p, q = TL_PQS[i % len(TL_PQS)]
            powered = convexify(u, q)
            inner_p = 2.0 * p / q
            dec = decompose(powered, inner_p)
            want = atomic_oracle.assemble(powered, inner_p, dec, q)
            _assert_same_measure(tl_results[i, (p, q)], want)
        for i, u in enumerate(vector_pool):
            for p in HP_PS:
                dec, measure = vector_results[i, p]
                _assert_same_report(
                    verify_decomposition(u, p, dec),
                    atomic_oracle.verify_decomposition(u, p, dec),
                )
                _assert_same_measure(measure, atomic_oracle.assemble(u, p, dec, 2.0))

    def test_corrupted_decompositions_match(self, scalar_pool, vector_pool):
        rng = np.random.default_rng(6060)
        failed = {}
        broken_partition = {"dropped", "duplicated", "outside", "empty"}
        for u in scalar_pool[:150] + vector_pool[:150]:
            dec = decompose(u, 1.0)
            if len(dec.pieces) < 2:
                continue
            for kind, bad in _corruptions(u, dec, rng):
                for p in (0.5, 1.5):
                    got = verify_decomposition(u, p, bad)
                    _assert_same_report(got, atomic_oracle.verify_decomposition(u, p, bad))
                    failed.setdefault(kind, []).append(not got.passed)
                    if kind in broken_partition:
                        assert not got.partition_ok
        assert set(failed) == broken_partition | {"moved", "wrong top", "shared top"}
        assert all(any(verdicts) for verdicts in failed.values())

    def test_weights_match_at_small_scale(self):
        # at 2^-500 and max level 9 the terms |x_I|^2 |I| are subnormal, so
        # only the order scale * square * 2^-level reproduces the weights
        for i in range(40):
            u = _random_expansion([7, i], 9, 1 + i % 2, 0.5)
            tiny = HaarExpansion._from_rows(
                u.max_level,
                u.dimension,
                u.support,
                u.levels,
                u.positions,
                np.ldexp(u.values, -500),
            )
            for p in (0.5, 1.0, 2.0):
                got = weights_hp(tiny, p) if u.dimension == 1 else weights_vector(tiny, p)
                dec = decompose(tiny, p)
                _assert_same_measure(got, atomic_oracle.assemble(tiny, p, dec, 2.0))


class TestBlockStatsOracle:
    """The block statistics against one `_cells` call per block on the
    block's own grid: the sup and the inside verdict of every block bit for
    bit, and norm_p^p too on the per-block path of a corrupt decomposition;
    on a clean one, summed on the support's grid, norm_p^p within
    `atomic_oracle.BLOCK_NORM_RTOL`. On the leaf grid and on the atoms."""

    def test_pools(self, scalar_pool, vector_pool, scalar_results, vector_results):
        for i, u in enumerate(scalar_pool):
            p = HP_PS[i % len(HP_PS)]
            atomic_oracle.assert_block_stats(u, scalar_results[i, p][0], p)
        for i, u in enumerate(vector_pool):
            p = HP_PS[i % len(HP_PS)]
            atomic_oracle.assert_block_stats(u, vector_results[i, p][0], p)

    def test_reembedded_and_scaled_pools(self, scalar_pool, vector_pool):
        for i, u in enumerate(scalar_pool[:250] + vector_pool[:250]):
            p = HP_PS[i % len(HP_PS)]
            deep = _deeper(u)
            atomic_oracle.assert_block_stats(deep, _row_decomposition(deep), p)
            # at the top of the range a block's sum of squares can overflow,
            # so the scaled pools take p from 0.5 to 1.25
            lo, hi = _normal_scales(u)
            for j in (lo, hi):
                scaled = _scaled(u, j)
                atomic_oracle.assert_block_stats(scaled, _row_decomposition(scaled), p / 2 + 0.25)

    def test_pieces_copy_of_clean_decomposition(self, scalar_pool, vector_pool):
        # pieces that pass the clean conditions take the pass on the
        # support's grid, as the row form does, with the same report
        for i, u in enumerate(scalar_pool[:100] + vector_pool[:100]):
            p = HP_PS[i % len(HP_PS)]
            for v in (u, _deeper(u)):
                dec = decompose(v, p)
                copy = AtomicDecomposition(dec.pieces, dec.max_level, dec.dimension)
                assert vars(copy).get("_support") is None and dec._support is not None
                assert atomic_oracle.assert_block_stats(v, copy, p)
                report = verify_decomposition(v, p, dec)
                _assert_same_report(verify_decomposition(v, p, copy), report)

    def test_corrupt_decompositions(self, scalar_pool, vector_pool):
        # strays outside the support, an empty block, moved, dropped and
        # duplicated members, wrong and shared tops, and two blocks merged;
        # each also on u re-embedded, where the blocks' grid is the atoms
        rng = np.random.default_rng(6161)
        kinds = {}
        for u in scalar_pool[:150] + vector_pool[:150]:
            dec = decompose(u, 1.0)
            if len(dec.pieces) < 2:
                continue
            a, b = sorted(rng.choice(len(dec.pieces), 2, replace=False).tolist())
            (block_a, top_a), (block_b, _) = dec.pieces[a], dec.pieces[b]
            merged = AtomicPiece(
                IntervalFamily([*block_a, *block_b], max_level=u.max_level), top_a
            )
            rest = [piece for k, piece in enumerate(dec.pieces) if k not in (a, b)]
            candidates = [
                *_corruptions(u, dec, rng),
                ("merged", AtomicDecomposition((merged, *rest), u.max_level, u.dimension)),
            ]
            deep = _deeper(u)
            for kind, bad in candidates:
                deep_bad = AtomicDecomposition(bad.pieces, deep.max_level, deep.dimension)
                for p in (0.5, 1.5):
                    clean = atomic_oracle.assert_block_stats(u, bad, p)
                    assert atomic_oracle.assert_block_stats(deep, deep_bad, p) == clean
                    kinds.setdefault(kind, set()).add(clean)
        # a broken partition or top always takes the per-block path
        broken = {"outside", "empty", "dropped", "duplicated", "wrong top", "shared top"}
        assert all(kinds[kind] == {False} for kind in broken)
        assert False in kinds["merged"]


def _outcome(fn, *args, **kwargs):
    """A call's result, or its exception's type and message."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _phi_variants(u, rng):
    """Multipliers on u: uniform on the support; one with missing keys, a key
    outside the support, exact zeros and subnormal factors; and the empty
    one."""
    support = u.support
    factors = rng.uniform(-1.0, 1.0, len(support))
    yield dict(zip(support, factors.tolist()))
    draw = rng.random(len(support))
    factors[draw < 0.15] = 0.0
    factors[(draw >= 0.15) & (draw < 0.25)] = 5e-324
    factors[(draw >= 0.25) & (draw < 0.35)] = -3.1e-310
    phi = {i: f for i, f, keep in zip(support, factors.tolist(), draw < 0.85) if keep}
    phi[DyadicInterval(7, 3)] = 0.5  # above every pool max level
    yield phi
    yield {}


def _measure_variants(m, rng):
    """The measure, and one keeping a strict subset of its keys (when it has
    more than one)."""
    yield m
    keep = rng.random(len(m.weights)) < 0.7
    if len(m.weights) > 1 and not keep.all():
        weights = {k: w for (k, w), kept in zip(m.weights.items(), keep) if kept}
        yield PietschMeasure(weights, m.normalizer, m.exponent)


def _broken_measures(m, u):
    """Measures that break one invariant each: doubled, a negative, a NaN
    and a foreign weight."""
    first = next(iter(m.weights))
    yield PietschMeasure({k: 2.0 * w for k, w in m.weights.items()}, m.normalizer, m.exponent)
    yield PietschMeasure({**m.weights, first: -0.25}, m.normalizer, m.exponent)
    yield PietschMeasure({**m.weights, first: math.nan}, m.normalizer, m.exponent)
    foreign = DyadicInterval(u.max_level + 1, 0)
    yield PietschMeasure({**m.weights, foreign: 0.0}, m.normalizer, m.exponent)


class TestMultiplierOracles:
    """The multiplier check, the multiplier and the measure validator
    against the per-interval code the support-row arrays replaced, on the
    Hardy, Triebel-Lizorkin and vector routes."""

    def _compare(self, u, p, m, rng, q=None):
        for measure in _measure_variants(m, rng):
            phis = list(_phi_variants(u, rng))
            wants = []
            for phi in phis:
                got = _outcome(check_multiplier_bound, u, p, phi, measure, q=q)
                want = _outcome(pietsch_oracle.check_multiplier_bound, u, p, phi, measure, q=q)
                assert got == want
                wants.append(want)
                if isinstance(got, tuple):
                    continue
                assert [type(v) for v in vars(got).values()] == [
                    type(v) for v in vars(want).values()
                ]
            # the variants as one batch: row k's report, or the first
            # failing row's exception
            rows = np.array([_support_rows(phi, u) for phi in phis])
            errors = [want for want in wants if isinstance(want, tuple)]
            batch = _outcome(check_multiplier_bounds, u, p, rows, measure, q=q)
            assert batch == (errors[0] if errors else wants)
            assert _outcome(check_multiplier_bounds, u, p, rows[:0], measure, q=q) == []
        for measure in (m, *_measure_variants(m, rng), *_broken_measures(m, u)):
            assert validate_measure(measure, u) == pietsch_oracle.validate_measure(measure, u)

    def test_hardy_route(self, scalar_pool, scalar_results):
        rng = np.random.default_rng(7070)
        for i, u in enumerate(scalar_pool):
            p = HP_PS[i % len(HP_PS)]
            self._compare(u, p, scalar_results[i, p][2], rng)

    def test_tl_route(self, scalar_pool, tl_results):
        rng = np.random.default_rng(7171)
        for i, u in enumerate(scalar_pool):
            p, q = TL_PQS[i % len(TL_PQS)]
            self._compare(u, p, tl_results[i, (p, q)], rng, q=q)

    def test_vector_route(self, vector_pool, vector_results):
        rng = np.random.default_rng(7272)
        for i, u in enumerate(vector_pool):
            p = HP_PS[i % len(HP_PS)]
            self._compare(u, p, vector_results[i, p][1], rng)


class TestSupportRowBlockCheck:
    """The support parent rows and the block check built on them against
    `IntervalFamily.parents()` and the reference predicate `is_block`."""

    def test_parents_match_family(self, scalar_pool, vector_pool):
        # the preorder search on support and member arrays, and the family
        # table built from it, against the stack walk
        for u in scalar_pool + vector_pool:
            family = IntervalFamily(u.support, u.max_level)
            want = dyadic_oracle.parents(family)
            assert _nearest_ancestors(u.levels, u.positions).tolist() == list(want)
            assert family.parents() == want
        for fam in TestCriterion6DecayBound._pool():
            want = dyadic_oracle.parents(fam)
            levels, positions = np.array(fam.intervals, dtype=np.int64).T
            assert _nearest_ancestors(levels, positions).tolist() == list(want)
            assert fam.parents() == want

    def test_blocks_ok_matches_is_block(self, scalar_pool, vector_pool):
        # the pools' own blocks, a member moved, two blocks merged, a wrong
        # or a shared top: the verdicts of those that keep the partition
        rng = np.random.default_rng(7373)
        verdicts = []
        for u in scalar_pool[:300] + vector_pool[:300]:
            dec = decompose(u, 1.0)
            support = IntervalFamily(u.support, u.max_level)
            candidates = [dec]
            if len(dec.pieces) >= 2:
                candidates += [
                    bad for kind, bad in _corruptions(u, dec, rng)
                    if kind in ("moved", "wrong top", "shared top")
                ]
                a, b = sorted(rng.choice(len(dec.pieces), 2, replace=False).tolist())
                (block_a, top_a), (block_b, _) = dec.pieces[a], dec.pieces[b]
                merged = AtomicPiece(
                    IntervalFamily([*block_a, *block_b], max_level=u.max_level), top_a
                )
                rest = [piece for k, piece in enumerate(dec.pieces) if k not in (a, b)]
                candidates.append(
                    AtomicDecomposition((merged, *rest), dec.max_level, dec.dimension)
                )
            for candidate in candidates:
                report = verify_decomposition(u, 1.0, candidate)
                if not report.partition_ok:  # a moved single member empties its block
                    assert report.blocks_ok is False
                    continue
                want = all(is_block(piece.block, support) for piece in candidate.pieces)
                assert report.blocks_ok is want
                verdicts.append(want)
        assert verdicts.count(False) > 100 and verdicts.count(True) > 600


def _scaled(u, j):
    """2^j u, row by row."""
    return HaarExpansion._from_rows(
        u.max_level, u.dimension, u.support, u.levels, u.positions,
        np.ldexp(u.values, j),
    )


def _normal_scales(u):
    """The least and greatest j for which every nonzero coefficient entry of
    2^j u has a normal square and every cell value of S(2^j u)^2 is finite;
    in between, every square and cell value scales by 4^j exactly."""
    entries = np.abs(u.values[u.values != 0.0])
    smallest = math.frexp(float(entries.min()))[1]
    sums, _ = _cells(_support_grid(u), u.squares)
    largest = math.frexp(float(sums.max()))[1]
    return -510 - smallest, (1024 - largest) // 2


def _same_pieces(u):
    assert _stopping_time_pieces(u) == haar_oracle.stopping_time_pieces(u)


class TestThresholdDescent:
    """The stopping time lowers its threshold to the next power of 4 below
    the largest cell value outside Omega; the oracle steps through every k.
    Both must give the same pieces at the edges of the float range."""

    def test_power_of_four_squares(self):
        # coefficients ±2^k put squares, and sums of nested squares, exactly
        # on the thresholds 4^k
        rng = np.random.default_rng(4141)
        full = [DyadicInterval(n, k) for n in range(4) for k in range(1 << n)]
        cases = [HaarExpansion.scalar(3, dict.fromkeys(full, 1.0))]
        for _ in range(300):
            max_level = int(rng.integers(0, 6))
            coeffs = {
                DyadicInterval(n, k): float(rng.choice([-1.0, 1.0]))
                * 2.0 ** int(rng.integers(-3, 4))
                for n in range(max_level + 1)
                for k in range(1 << n)
                if rng.random() < 0.6
            }
            cases.append(HaarExpansion.scalar(max_level, coeffs or {full[0]: 1.0}))
        for u in cases:
            _same_pieces(u)

    @pytest.mark.parametrize("coeffs", [
        {(0, 0): 1e-160},
        {(0, 0): 1e-160, (1, 0): -2e-160, (2, 3): 3e-160, (3, 1): 1.5e-160},
        {(0, 0): 1.0, (1, 1): 1e-160, (2, 0): 1e-3},
        {(0, 0): 2.0**-537, (1, 0): 2.0**-537, (2, 3): -(2.0**-537)},
    ])
    def test_subnormal_squares(self, coeffs):
        u = HaarExpansion.scalar(3, {DyadicInterval(*i): v for i, v in coeffs.items()})
        assert 0.0 < float(u.squares.min()) < 2.0**-1022
        _same_pieces(u)

    @pytest.mark.parametrize("coeffs", [
        {(0, 0): math.sqrt(1.7976931348623157e308)},
        {(0, 0): 1e154, (1, 1): 5e153, (2, 0): -7e153, (3, 7): 6e153},
        {(0, 0): 1e154, (1, 0): 1.0, (3, 2): 1e-150},
    ])
    def test_squares_near_float_max(self, coeffs):
        u = HaarExpansion.scalar(3, {DyadicInterval(*i): v for i, v in coeffs.items()})
        assert float(u.squares.max()) >= 1e307
        _same_pieces(u)

    def test_scaled_pools_match_oracle(self, scalar_pool, vector_pool):
        # at the ends of the normal range, and below it, where the smallest
        # squares are subnormal but not 0
        checked = 0
        for u in scalar_pool[:250] + vector_pool[:250]:
            lo, hi = _normal_scales(u)
            for j in (lo - 12, lo, hi):
                scaled = _scaled(u, j)
                if len(scaled.support) < len(u.support) or not scaled.squares.min() > 0:
                    continue
                _same_pieces(scaled)
                checked += 1
        assert checked > 1400

    def test_power_of_two_scaling_keeps_pieces(self, scalar_pool, vector_pool):
        rng = np.random.default_rng(4242)
        for u in scalar_pool + vector_pool:
            lo, hi = _normal_scales(u)
            want = _stopping_time_pieces(u)
            for j in (lo, int(rng.integers(lo, hi + 1)), hi):
                assert _stopping_time_pieces(_scaled(u, j)) == want


# Maps of the dyadic tree, applied to expansions. Every object the library
# builds commutes with them, exactly in real arithmetic: tops and blocks
# move with the map, Carleson constants and verdicts stay, and so do the
# weights and A; norms stay, or scale by |J|^(1/p) under a dilation into J.
def _mirror_interval(interval):
    """t -> 1 - t: the interval (l, 2^l - 1 - k)."""
    return DyadicInterval(interval.level, (1 << interval.level) - 1 - interval.position)


def _mirror(u):
    """(u(1 - t), the interval map): each coefficient at the mirrored
    interval, with x -> -x, since a mirrored Haar function changes sign."""
    coeffs = {_mirror_interval(i): tuple(-c for c in x) for i, x in u.coeffs.items()}
    return HaarExpansion(u.max_level, u.dimension, coeffs), _mirror_interval


def _dilate(j_level, j_position, u):
    """(u carried into J = (j_level, j_position) and 0 outside it, the
    interval map): (l, k) -> (l + j_level, j_position 2^l + k), at max level
    N + j_level."""
    def interval_map(interval):
        position = (j_position << interval.level) + interval.position
        return DyadicInterval(interval.level + j_level, position)

    coeffs = {interval_map(i): x for i, x in u.coeffs.items()}
    return HaarExpansion(u.max_level + j_level, u.dimension, coeffs), interval_map


# (the map, the factor |J| its norms scale by to the power 1/p): the mirror,
# and dilations into J = (3, 5) and J = (8, 173); the second puts every
# pool instance on the atom grid, whose cell sums then meet the leaf sums
_MAPS = [
    pytest.param(_mirror, 1.0, id="mirror"),
    pytest.param(partial(_dilate, 3, 5), 2.0**-3, id="dilate-3-5"),
    pytest.param(partial(_dilate, 8, 173), 2.0**-8, id="dilate-8-173"),
]

# how far a weight, A or norm of a mapped expansion may move, relative: the
# map changes the order of the float sums, not their terms
_SYMMETRY_RTOL = 32 * 2.0**-53

_VERDICTS = ("partition_ok", "blocks_ok", "tops_ok", "tops_carleson",
             "tops_carleson_ok", "chain_lower_ok", "chain_middle_ok", "passed")


def _near(got, want):
    return abs(got - want) <= _SYMMETRY_RTOL * abs(want)


def _pieces(dec, interval_map=lambda i: i):
    return {
        (interval_map(piece.top), frozenset(map(interval_map, piece.block)))
        for piece in dec.pieces
    }


class TestExactSymmetries:
    """The maps of `_MAPS` over both pools, one p per instance, against the
    pools' own decompositions and weights; random sign flips of the
    coefficients leave the weights bit for bit."""

    def _check_map(self, u, p, dec, report, measure, mapped, interval_map, scale):
        got = decompose(mapped, p)
        assert _pieces(got) == _pieces(dec, interval_map)
        assert set(got.tops()) == set(map(interval_map, dec.tops()))
        got_report = verify_decomposition(mapped, p, got).as_dict()
        want_report = report.as_dict()
        assert [got_report[k] for k in _VERDICTS] == [want_report[k] for k in _VERDICTS]
        weights = (weights_hp if u.dimension == 1 else weights_vector)(mapped, p)
        assert weights.weights.keys() == set(map(interval_map, measure.weights))
        for interval, w in measure.weights.items():
            assert _near(weights.weights[interval_map(interval)], w)
        assert _near(weights.normalizer, measure.normalizer)
        assert weights.exponent == measure.exponent
        assert _near(hp_norm(mapped, p), hp_norm(u, p) * scale ** (1.0 / p))

    @pytest.mark.parametrize("mapping, scale", _MAPS)
    def test_scalar_pool(self, scalar_pool, scalar_results, mapping, scale):
        for i, u in enumerate(scalar_pool):
            p = HP_PS[i % len(HP_PS)]
            mapped, interval_map = mapping(u)
            dec, report, measure = scalar_results[i, p]
            self._check_map(u, p, dec, report, measure, mapped, interval_map, scale)
            p, q = TL_PQS[i % len(TL_PQS)]
            assert _near(tl_norm(mapped, p, q), tl_norm(u, p, q) * scale ** (1.0 / p))
            got, want = weights_tl(mapped, p, q), weights_tl(u, p, q)
            assert all(_near(got.weights[interval_map(k)], w) for k, w in want.weights.items())
            assert _near(got.normalizer, want.normalizer)

    @pytest.mark.parametrize("mapping, scale", _MAPS)
    def test_vector_pool(self, vector_pool, vector_results, mapping, scale):
        for i, u in enumerate(vector_pool):
            p = HP_PS[i % len(HP_PS)]
            mapped, interval_map = mapping(u)
            dec, measure = vector_results[i, p]
            report = verify_decomposition(u, p, dec)
            self._check_map(u, p, dec, report, measure, mapped, interval_map, scale)

    def test_deep_dilation_reaches_the_atom_grid(self, scalar_pool, vector_pool):
        # every pool instance sums on the leaves, and on the atoms once
        # dilated 8 levels down
        for u in scalar_pool + vector_pool:
            assert not _on_atoms(len(u.support), u.max_level)
            assert _on_atoms(len(u.support), u.max_level + 8)

    def test_sign_flips_keep_weights(self, scalar_pool, vector_pool):
        rng = np.random.default_rng(1313)
        for i, u in enumerate(scalar_pool + vector_pool):
            p = HP_PS[i % len(HP_PS)]
            signs = rng.choice([-1.0, 1.0], len(u.support))
            flipped = HaarExpansion(u.max_level, u.dimension, {
                interval: tuple(s * c for c in x)
                for s, (interval, x) in zip(signs.tolist(), u.coeffs.items())
            })
            weights = weights_hp if u.dimension == 1 else weights_vector
            got, want = weights(flipped, p), weights(u, p)
            assert got.weights == want.weights
            assert got.normalizer == want.normalizer
            assert decompose(flipped, p).tops() == decompose(u, p).tops()
