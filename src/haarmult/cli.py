"""Command-line surface: expansion files, random instances, norms,
decompositions, weights, factorizations, and the randomized verification
suite.

Expansion files are JSON objects
    {"max_level": N, "dimension": d,
     "coefficients": [{"level": n, "pos": k, "value": [..]}, ...]}
with one entry per support interval. Interval keys in reports use the
"level/pos" form. All numeric output is printed with 17 significant digits
so reports are byte-reproducible. Exit codes: 0 all checks pass, 1 a
verification failed, 2 usage, input, file or arithmetic error.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from dataclasses import replace
from typing import Any

import numpy as np

from .atomic import AtomicDecomposition, _block_order, _block_stats, _decompose, _member_rows
from .dyadic import DyadicInterval, _decay_verdicts
from .errors import (
    DegenerateThetaError,
    EmptyFamilyError,
    ExpansionFormatError,
    VerificationError,
    ZeroInputError,
)
from .haar import (
    _MAX_LEVEL,
    HaarExpansion,
    _check_exponents,
    _check_q,
    _pow,
    _square_measures,
    _squares,
    _support_grid,
    hp_norm,
    tl_norm,
)
from .pietsch import (
    PietschMeasure,
    _assemble,
    check_multiplier_bounds,
    validate_measure,
    weights_hp,
    weights_tl,
    weights_vector,
)
from .pisier import (
    _factorize,
    factorize,
    theta,
    verify_factorization,
    x0_norm_estimate,
)

# random multipliers per trial and per multiplier-bound check, and sample
# points of the lattice norm estimate per trial, in `run_verification`
_PHI_PER_TRIAL = 20
_Z_PER_TRIAL = 20
# the corruptions `run_verification` can inject, one object each
_MUTANTS = ("scale-omega", "perturb-x")


def _format_number(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"cannot serialize non-finite number {value}")
    return format(float(value), ".17g")


def dump_json(obj: Any, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits, insertion-ordered."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(key))}: {dump_json(val, indent + 2)}'
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {dump_json(val, indent + 2)}" for val in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, float):
        return _format_number(obj)
    return json.dumps(obj)  # strings, ints, booleans and None


def _is_json_int(value: Any) -> bool:
    """A JSON integer: `json` gives int, and bool is an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def load(path: str) -> HaarExpansion:
    """Read an expansion file; every schema violation gets its own message."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ExpansionFormatError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ExpansionFormatError(f"{path}: top level must be a JSON object")
    max_level = data.get("max_level")
    dimension = data.get("dimension")
    entries = data.get("coefficients")
    if not (_is_json_int(max_level) and _is_json_int(dimension) and entries is not None):
        raise ExpansionFormatError(
            f"{path}: need integer max_level, integer dimension and a "
            f"coefficients list"
        )
    if max_level < 0 or dimension < 1 or not isinstance(entries, list):
        raise ExpansionFormatError(
            f"{path}: max_level must be >= 0, dimension >= 1, coefficients a list"
        )
    coeffs: dict[DyadicInterval, tuple[float, ...]] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            entry = {}
        level, pos, raw = entry.get("level"), entry.get("pos"), entry.get("value")
        if not (
            _is_json_int(level)
            and _is_json_int(pos)
            and isinstance(raw, list)
            and all(_is_json_int(v) or isinstance(v, float) for v in raw)
        ):
            raise ExpansionFormatError(
                f"{path}: each coefficient needs integer level and pos and a "
                f"list of numbers as value"
            )
        if not 0 <= level <= max_level:
            raise ExpansionFormatError(
                f"{path}: level {level} outside [0, {max_level}]"
            )
        if not 0 <= pos < (1 << level):
            raise ExpansionFormatError(
                f"{path}: position {pos} outside [0, 2^{level}) at level {level}"
            )
        if len(raw) != dimension:
            raise ExpansionFormatError(
                f"{path}: value length {len(raw)} != dimension {dimension}"
            )
        interval = DyadicInterval(level, pos)
        try:
            value = tuple(map(float, raw))
        except OverflowError:  # a JSON integer past the float range
            value = (math.inf,)
        if not all(map(math.isfinite, value)):
            raise ExpansionFormatError(
                f"{path}: coefficient at {interval} is not a finite float"
            )
        if interval in coeffs:
            raise ExpansionFormatError(
                f"{path}: duplicate coefficient for interval {interval}"
            )
        coeffs[interval] = value
    return HaarExpansion(max_level, dimension, coeffs)


def save(path: str, u: HaarExpansion) -> None:
    """Write the canonical form: support sorted by (level, position)."""
    payload = {
        "max_level": u.max_level,
        "dimension": u.dimension,
        "coefficients": [
            {"level": i.level, "pos": i.position, "value": list(u.coeffs[i])}
            for i in u.support
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_json(payload) + "\n")


def gen_random(
    max_level: int, dimension: int, density: float, seed: int
) -> HaarExpansion:
    """Each interval of level <= max_level enters independently with
    probability `density`; entries are standard normal. Deterministic in the
    seed."""
    if not 0 < density <= 1:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    return _gen_with_rng(np.random.default_rng(seed), max_level, dimension, density)


def _gen_with_rng(
    rng: np.random.Generator, max_level: int, dimension: int, density: float
) -> HaarExpansion:
    """The draw of `gen_random` from `rng`, whose bit generator must be
    PCG64 (TypeError otherwise): per dyadic interval, in support order, a
    density test and, for an interval it keeps, `dimension` normals."""
    empty = HaarExpansion(max_level, dimension, {})  # the constructor's checks, before any draw
    max_level, dimension = empty.max_level, empty.dimension
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise TypeError(f"the draw needs a PCG64 generator, got {type(bits).__name__}")
    # The stream of `rng.random() < density` and then `standard_normal(d)`
    # per interval, which `bench/refs.json` pins, at one scalar call per
    # draw: on PCG64 `random()` is (raw >> 11) * 2^-53 for one raw draw, so
    # it is below density exactly when raw >> 11 < density * 2^53, that is
    # raw < cut; and d scalar normals are the stream of one
    # `standard_normal(d)`.
    cut = math.ceil(density * 2**53) << 11
    raw, normal, coordinates = bits.random_raw, rng.standard_normal, range(dimension)
    levels, positions, entries = [], [], []
    for level in range(max_level + 1):
        for pos in range(1 << level):
            if raw() < cut:
                levels.append(level)
                positions.append(pos)
                for _ in coordinates:
                    entries.append(normal())
    # drawn in support order, so the rows go in as they are
    intervals = list(map(DyadicInterval, levels, positions))
    values = np.array(entries, dtype=float).reshape(len(intervals), dimension)
    levels, positions = np.array(levels, dtype=np.int64), np.array(positions, dtype=np.int64)
    return HaarExpansion._from_rows(max_level, dimension, intervals, levels, positions, values)


def _trial_expansion(
    seed: int, trial: int, max_level: int, dimension: int, density: float
) -> HaarExpansion:
    """Nonzero random expansion keyed by (seed, trial); empty draws retry
    deterministically, and ValueError follows 64 empty draws."""
    for attempt in range(64):
        rng = np.random.default_rng([seed, trial, attempt])
        u = _gen_with_rng(rng, max_level, dimension, density)
        if not u.is_zero:
            return u
    raise ValueError(f"no nonzero draw in 64 at density {density} and max level {max_level}")


def _h2_sides(
    uv: HaarExpansion, dv: AtomicDecomposition, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of ||phi.u_i||_2^2 = sum_{I in G_i} |phi_I|^2 |x_I|^2 |I|
    on every block of dv (built by `decompose` on uv), phi drawn block after
    block; the left sides from the verifier's block pass on the grid of uv's
    support that dv keeps, over the squares of phi * uv. A zero phi leaves a
    zero square in its row, so dv still partitions the rows summed."""
    phi = np.empty(len(uv.support))
    phi[_block_order(dv._block, len(dv._top_rows))[0]] = rng.uniform(-1, 1, len(phi))
    squares = _squares(uv.values * phi[:, None])
    lhs = _block_stats(uv, 2.0, *_member_rows(uv, dv), dv._grid_for(uv), squares)[2]
    terms = _pow(np.abs(phi), 2.0) * _square_measures(uv)
    return np.array(lhs), np.bincount(dv._block, terms, len(dv._top_rows))


class _Check:
    """Aggregates one named check across trials."""

    def __init__(self) -> None:
        self.trials = 0
        self.failures: list[dict] = []
        self.extremes: dict[str, float] = {}

    def record(self, ok: bool, seed: int, trial: int, detail: str = "") -> None:
        self.trials += 1
        if not ok:
            entry = {"seed": seed, "trial": trial}
            if detail:
                entry["detail"] = detail
            self.failures.append(entry)

    def track(self, key: str, value: float) -> None:
        current = self.extremes.get(key)
        if current is None or value > current:
            self.extremes[key] = value

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        out: dict[str, Any] = {"passed": self.passed, "trials": self.trials}
        if self.extremes:
            out["extremes"] = dict(sorted(self.extremes.items()))
        if self.failures:
            out["failure_count"] = len(self.failures)
            out["failures"] = self.failures[:20]
        return out


def run_verification(
    p: float,
    q: float | None,
    trials: int,
    seed: int,
    density: float,
    max_level: int,
    dimension: int,
    mutant: str | None = None,
) -> dict:
    """Full randomized invariant suite; returns the report dictionary.

    Per trial: the generation decay bound on the support, the block
    decomposition guarantees, the weight normalization and multiplier bound
    for the Hardy route (plus the Triebel-Lizorkin route when q is given and
    the factorization route when additionally 1 < p < q), and the vector
    route when dimension > 1. A trial draws u straight into support rows
    and builds u's grid once; the decay bound reads that grid's parent
    table (`dyadic._decay_verdicts`), so no support family is built. Each
    trial decomposes u, |u|^(q/2) and uv once, and every later step reads
    that decomposition's report, block rows and weights, and the vector h2
    identity its block pass (`_h2_sides`).

    These raise before the first draw: a mutant other than None or one of
    `_MUTANTS`, trials below 1, a max level or dimension that the
    `HaarExpansion` constructor refuses (TypeError off the integers), a
    density outside (0, 1], a p outside (0, 2], a q outside (0, inf) or
    below p, and the perturb-x mutant without the factorization route it
    corrupts; all but the TypeError are ValueErrors.
    """
    if mutant is not None and mutant not in _MUTANTS:
        raise ValueError(f"mutant must be None or one of {', '.join(_MUTANTS)}, got {mutant!r}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    HaarExpansion(max_level, dimension, {})  # the constructor's checks of both
    if not 0 < density <= 1:  # NaN included
        raise ValueError(f"density must lie in (0, 1], got {density}")
    _check_exponents(p)
    if q is not None:
        _check_q(q)  # first, so that a NaN q is named as one
        _check_exponents(p, q)
    run_tl = q is not None
    run_pisier = run_tl and 1 < p < q
    if mutant == "perturb-x" and not run_pisier:
        raise ValueError(f"--inject-mutant perturb-x needs --q with 1 < p < q, got p={p}, q={q}")
    checks: dict[str, _Check] = {}

    def check(name: str) -> _Check:
        if name not in checks:
            checks[name] = _Check()
        return checks[name]

    def check_weights(
        route: str, w: HaarExpansion, m: PietschMeasure, q: float | None = None
    ) -> _Check:
        """The weight-sum check and, on fresh rng draws, the multiplier bound."""
        c = check(f"{route}_weight_sum")
        c.record(validate_measure(m, w), seed, trial)
        c.track("max_weight_sum", m.total())
        c = check(f"{route}_multiplier_bound")
        phis = rng.uniform(-1, 1, (_PHI_PER_TRIAL, len(w.support)))
        for report in check_multiplier_bounds(w, p, phis, m, q=q):
            c.record(report.ok, seed, trial)
        return c

    for trial in range(trials):
        u = _trial_expansion(seed, trial, max_level, 1, density)
        rng = np.random.default_rng([seed, trial, 10_000])

        # a member's depth is at most max_level, and past the deepest
        # generation every verdict holds
        grid = _support_grid(u)
        decay = _decay_verdicts(u.levels, grid.parent, max_level, max_level + 1)
        check("decay_bound").record(bool(decay.all()), seed, trial)

        try:
            dec, report = _decompose(u, p, grid)
        except VerificationError as exc:
            check("atomic_guarantees").record(False, seed, trial, str(exc))
            continue
        c = check("atomic_guarantees")
        c.record(report.passed, seed, trial)
        c.track("max_tops_carleson", float(report.tops_carleson))
        c.track("max_observed_ratio", report.observed_ratio)

        m = _assemble(u, p, dec, 2.0, report.norm_p)
        if mutant == "scale-omega":
            m = replace(m, weights={k: 2.0 * w for k, w in m.weights.items()})
        check_weights("hp", u, m).track("constant", m.normalizer ** (1.0 / p))

        if run_tl:
            mt = weights_tl(u, p, q)
            check_weights("tl", u, mt, q)

        if run_pisier:
            f = _factorize(u, p, q, theta(p, q), mt)
            if mutant == "perturb-x":
                first = next(iter(f.x))
                f.x[first] += 1e-3
            check("factorization_identity").record(
                verify_factorization(u, f), seed, trial
            )
            c = check("factorization_sampling")
            try:
                value = x0_norm_estimate(f, u, _Z_PER_TRIAL, trial)
                c.record(True, seed, trial)
                c.track("max_lattice_candidate", value)
            except VerificationError as exc:
                c.record(False, seed, trial, str(exc))

        if dimension > 1:
            uv = _trial_expansion(seed + 1_000_003, trial, max_level, dimension, density)
            dv, rv = _decompose(uv, p, _support_grid(uv))
            check_weights("vector", uv, _assemble(uv, p, dv, 2.0, rv.norm_p))
            lhs, rhs = _h2_sides(uv, dv, rng)
            slack = 1e-12 * np.maximum(np.maximum(lhs, rhs), 1e-300)
            h2_ok = not (np.abs(lhs - rhs) > slack).any()
            check("vector_h2_identity").record(h2_ok, seed, trial)

    passed = all(c.passed for c in checks.values())
    # Python numbers, which `dump_json` writes, also for numpy arguments
    flags = {
        "p": float(p),
        "q": None if q is None else float(q),
        "trials": operator.index(trials),
        "seed": operator.index(seed),
        "density": float(density),
        "max_level": operator.index(max_level),
        "dimension": operator.index(dimension),
    }
    if mutant:
        flags["inject_mutant"] = mutant
    return {
        "flags": flags,
        "checks": {name: checks[name].as_dict() for name in sorted(checks)},
        "passed": passed,
    }


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)


def _add_common(parser: argparse.ArgumentParser, *, with_q: bool = True) -> None:
    parser.add_argument("--p", type=float, required=True)
    if with_q:
        parser.add_argument("--q", type=float, default=None)
    parser.add_argument("--out", type=str, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haarmult",
        description="Haar-multiplier computations on finite expansions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("norm", help="norm of an expansion file")
    _add_common(norm)
    norm.add_argument("file")

    dec = sub.add_parser("decompose", help="block decomposition with report")
    _add_common(dec, with_q=False)
    dec.add_argument("file")

    pie = sub.add_parser("pietsch", help="summing weights for a multiplier")
    _add_common(pie)
    pie.add_argument("file")

    fac = sub.add_parser("factorize", help="lattice factorization of an expansion")
    fac.add_argument("--p", type=float, required=True)
    fac.add_argument("--q", type=float, required=True)
    fac.add_argument("--samples", type=int, default=0)
    fac.add_argument("--seed", type=int, default=0)
    fac.add_argument("--out", type=str, default=None)
    fac.add_argument("file")

    gen = sub.add_parser("gen", help="write a random expansion file")
    gen.add_argument("--max-level", type=int, default=6)
    gen.add_argument("--dimension", type=int, default=1)
    gen.add_argument("--density", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=str, required=True)

    ver = sub.add_parser("verify", help="randomized verification suite")
    ver.add_argument("--p", type=float, default=1.0)
    ver.add_argument("--q", type=float, default=None)
    ver.add_argument("--trials", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--density", type=float, default=0.5)
    ver.add_argument("--max-level", type=int, default=6)
    ver.add_argument("--dimension", type=int, default=1)
    ver.add_argument(
        "--inject-mutant",
        choices=_MUTANTS,
        default=None,
        help="deliberately corrupt one object to prove the verifier catches it",
    )
    ver.add_argument("--out", type=str, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except (ExpansionFormatError, EmptyFamilyError, ZeroInputError,
            DegenerateThetaError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "norm":
        u = load(args.file)
        if args.q is not None:
            value = tl_norm(u, args.p, args.q)
        else:
            value = hp_norm(u, args.p)
        _emit(_format_number(value), args.out)
        return 0

    if args.command == "decompose":
        u = load(args.file)
        dec, report = _decompose(u, args.p, _support_grid(u))
        payload = {
            "pieces": [
                {
                    "top": str(top),
                    "block": list(map(str, block)),
                }
                for block, top in dec.pieces
            ],
            "report": report.as_dict(),
        }
        _emit(dump_json(payload), args.out)
        return 0

    if args.command == "pietsch":
        u = load(args.file)
        if args.q is not None:
            m = weights_tl(u, args.p, args.q)
        elif u.dimension > 1:
            m = weights_vector(u, args.p)
        else:
            m = weights_hp(u, args.p)
        payload = {
            "weights": m.weights,  # `dump_json` writes each key as str(interval)
            "A": m.normalizer,
            "s": m.exponent,
            "total": m.total(),
        }
        _emit(dump_json(payload), args.out)
        return 0

    if args.command == "factorize":
        if args.samples < 0:
            parser.error(f"--samples must be nonnegative, got {args.samples}")
        u = load(args.file)
        f = factorize(u, args.p, args.q)
        ok = verify_factorization(u, f)
        payload = {
            "theta": f.theta,
            "x": dict(sorted(f.x.items())),
            "y": dict(sorted(f.y.items())),
            "identity_verified": ok,
            "lattice_candidate": x0_norm_estimate(f, u, args.samples, args.seed),
        }
        _emit(dump_json(payload), args.out)
        return 0 if ok else 1

    if args.command in ("gen", "verify") and args.max_level > _MAX_LEVEL:
        parser.error(f"--max-level must be at most {_MAX_LEVEL}, got {args.max_level}")

    if args.command == "gen":
        u = gen_random(args.max_level, args.dimension, args.density, args.seed)
        save(args.out, u)
        print(f"wrote {args.out} with {len(u.support)} coefficients")
        return 0

    if args.command == "verify":
        if not 0 < args.p <= 2:
            parser.error(f"--p must lie in (0, 2] for the Hardy-space path, got {args.p}")
        if args.q is not None and args.q < args.p:
            parser.error(f"--q must be >= --p, got p={args.p}, q={args.q}")
        if args.trials <= 0:
            parser.error("--trials must be positive")
        if args.seed < 0:
            parser.error("--seed must be nonnegative")
        if not 0 < args.density <= 1:
            parser.error("--density must lie in (0, 1]")
        if args.dimension < 1:
            parser.error("--dimension must be positive")
        report = run_verification(
            p=args.p,
            q=args.q,
            trials=args.trials,
            seed=args.seed,
            density=args.density,
            max_level=args.max_level,
            dimension=args.dimension,
            mutant=args.inject_mutant,
        )
        _emit(dump_json(report), args.out)
        return 0 if report["passed"] else 1

    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
