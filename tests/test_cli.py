"""Expansion files, random generation, and the command-line drivers."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from haarmult import DyadicInterval, ExpansionFormatError, HaarExpansion, atomic, cli, dyadic, haar
from haarmult import IntervalFamily, factorize, hp_norm, l2_norm, pietsch
from haarmult import VerificationError, x0_norm_estimate
from haarmult.atomic import _block_order, _decompose
from haarmult.cli import _h2_sides, _trial_expansion, dump_json, gen_random, load, main
from haarmult.cli import run_verification, save
from haarmult.haar import _pow, _support_grid, _support_rows

import pietsch_oracle


def iv(level, pos):
    return DyadicInterval(level, pos)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def count_calls(monkeypatch, module, name):
    """Wrap `module.name`; the returned list gets the arguments of each call."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


MINIMAL = {
    "max_level": 0,
    "dimension": 1,
    "coefficients": [{"level": 0, "pos": 0, "value": [1.0]}],
}


class TestLoadSave:
    def test_minimal_file(self, tmp_path):
        u = load(write(tmp_path, "u.json", MINIMAL))
        assert u.max_level == 0
        assert u.dimension == 1
        assert u.coeffs == {iv(0, 0): (1.0,)}

    def test_round_trip_canonical(self, tmp_path):
        u = gen_random(5, 2, 0.5, seed=3)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save(str(first), u)
        save(str(second), load(str(first)))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "args, digest",
        [
            ((6, 1, 0.5, 0), "286929503e668003c847bcadc95d1237863dde04c07a00162d454419a0efcd0e"),
            ((5, 2, 0.5, 1), "1c8e4669b30c4b1fd1ffde03b0ac30221bcf4f3133331752372ec95b6c8fc08f"),
        ],
        ids=["d1", "d2"],
    )
    def test_saved_bytes_pinned(self, tmp_path, args, digest):
        # rows are written from the support and value arrays in one pass,
        # byte for byte as when each row was looked up by interval
        path = tmp_path / "u.json"
        save(str(path), gen_random(*args))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_position_at_bound_rejected(self, tmp_path):
        bad = dict(MINIMAL, coefficients=[{"level": 0, "pos": 1, "value": [1.0]}])
        with pytest.raises(ExpansionFormatError, match="position"):
            load(write(tmp_path, "bad.json", bad))

    def test_level_out_of_range_rejected(self, tmp_path):
        bad = dict(MINIMAL, coefficients=[{"level": 3, "pos": 0, "value": [1.0]}])
        with pytest.raises(ExpansionFormatError, match="level"):
            load(write(tmp_path, "bad.json", bad))

    def test_duplicate_interval_rejected(self, tmp_path):
        bad = dict(
            MINIMAL,
            coefficients=[
                {"level": 0, "pos": 0, "value": [1.0]},
                {"level": 0, "pos": 0, "value": [2.0]},
            ],
        )
        with pytest.raises(ExpansionFormatError, match="duplicate"):
            load(write(tmp_path, "bad.json", bad))

    def test_malformed_json_rejected(self, tmp_path):
        with pytest.raises(ExpansionFormatError, match="malformed JSON"):
            load(write(tmp_path, "bad.json", "{not json"))

    def test_wrong_value_length_rejected(self, tmp_path):
        bad = dict(MINIMAL, dimension=2)
        with pytest.raises(ExpansionFormatError, match="length"):
            load(write(tmp_path, "bad.json", bad))

    # a float level, a string value and bools are not JSON integers/numbers;
    # they used to load as interval 1/0 with the value coerced
    LOOSE_TYPES = {
        "float level, string value": {
            "max_level": 2,
            "dimension": 2,
            "coefficients": [{"level": 1.9, "pos": 0, "value": "12"}],
        },
        "bool level and value": {
            "max_level": 2,
            "dimension": 1,
            "coefficients": [{"level": True, "pos": 0, "value": [True]}],
        },
        "float max_level": dict(MINIMAL, max_level=1.0),
        "bool dimension": dict(MINIMAL, dimension=True),
        "string pos": dict(
            MINIMAL, coefficients=[{"level": 0, "pos": "0", "value": [1.0]}]
        ),
    }

    @pytest.mark.parametrize("name", sorted(LOOSE_TYPES))
    def test_json_types_strict(self, tmp_path, capsys, name):
        path = write(tmp_path, "bad.json", self.LOOSE_TYPES[name])
        with pytest.raises(ExpansionFormatError):
            load(path)
        assert main(["norm", "--p", "1", path]) == 2
        assert capsys.readouterr().out == ""

    def test_deep_level_refused_without_its_power_of_two(self, tmp_path):
        # the level is the interval's check, then the constructor's: no
        # 2^level is built, which at level 2^40 would take 137 GB
        bad = dict(MINIMAL, coefficients=[{"level": 2**40, "pos": 0, "value": [1.0]}])
        path = write(tmp_path, "bad.json", bad)
        tracemalloc.start()
        try:
            with pytest.raises(ExpansionFormatError, match="interval .* exceeds max level 0") as exc:
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert str(exc.value).startswith(f"{path}: ")

    def test_max_level_refused_before_the_entries(self, tmp_path):
        # the constructor's checks of max level and dimension come first, so
        # a file past the int64 limit is named as such, with its path
        bad = dict(MINIMAL, max_level=62, coefficients=[{"level": 0, "pos": 0, "value": []}])
        with pytest.raises(ExpansionFormatError, match="max_level 62 exceeds 61"):
            load(write(tmp_path, "bad.json", bad))

    def test_integer_values_accepted(self, tmp_path):
        ok = dict(MINIMAL, coefficients=[{"level": 0, "pos": 0, "value": [2]}])
        assert load(write(tmp_path, "u.json", ok)).coeffs == {iv(0, 0): (2.0,)}

    @pytest.mark.parametrize(
        "literal", ["1" + "0" * 400, "-1" + "0" * 400, "NaN", "Infinity", "-Infinity", "1e400"]
    )
    def test_values_past_the_float_range_rejected(self, tmp_path, capsys, literal):
        # a huge JSON integer used to escape as "int too large to convert to
        # float" and NaN or inf as the constructor's message, without the path
        text = json.dumps(dict(MINIMAL, max_level=1, dimension=2)).replace(
            '"value": [1.0]', f'"value": [0.5, {literal}]'
        )
        path = write(tmp_path, "bad.json", text)
        with pytest.raises(ExpansionFormatError, match="0/0 is not a finite float"):
            load(path)
        assert main(["norm", "--p", "1", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: coefficient at 0/0 is not a finite float\n"


def dict_draw(max_level, dimension, density, seed):
    """`gen_random` as it drew before its rows went in as they are: each
    drawn coefficient into a dict, which the constructor sorts and checks,
    from `np.random.default_rng(seed)`, one `random()` and one
    `standard_normal(dimension)` per drawn interval."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for level in range(max_level + 1):
        for pos in range(1 << level):
            if rng.random() < density:
                coeffs[DyadicInterval(level, pos)] = tuple(
                    rng.standard_normal(dimension).tolist()
                )
    return HaarExpansion(max_level, dimension, coeffs)


def assert_same_draw(got, want):
    assert got.support == want.support
    assert got.values.tobytes() == want.values.tobytes()
    assert got.squares.tobytes() == want.squares.tobytes()
    assert np.array_equal(got.levels, want.levels)
    assert np.array_equal(got.positions, want.positions)
    assert got.levels.dtype == got.positions.dtype == np.int64
    assert got.coeffs == want.coeffs


class TestGenRandom:
    @pytest.mark.parametrize("max_level, dimension", [(0, 1), (6, 1), (6, 2), (8, 3), (12, 1)])
    @pytest.mark.parametrize("density", [0.01, 0.1, 0.5, 1.0])
    def test_matches_dict_draw(self, max_level, dimension, density):
        for seed in range(3):
            got = gen_random(max_level, dimension, density, seed)
            assert_same_draw(got, dict_draw(max_level, dimension, density, seed))

    def test_density_test_exact_at_its_boundary(self):
        # at the first draw of random() as the density the one interval of
        # max level 0 is left out, and one float up it is kept, as the
        # dict draw's `random() < density` decides
        kept = []
        for seed in range(20):
            first = np.random.default_rng(seed).random()
            for density in (np.nextafter(first, 0.0), first, np.nextafter(first, 1.0)):
                got = gen_random(0, 1, float(density), seed)
                assert_same_draw(got, dict_draw(0, 1, float(density), seed))
                kept.append(not got.is_zero)
        assert kept == [False, False, True] * 20

    @pytest.mark.parametrize("max_level, density", [(2, 0.05), (6, 0.5)])
    def test_trial_draw_matches_dict_draw(self, max_level, density):
        # at max level 2 and density 0.05, 7 intervals are all left out in
        # about 70% of the draws, so the retries run too
        for seed in range(3):
            for trial in range(4):
                got = _trial_expansion(seed, trial, max_level, 2, density)
                for attempt in range(64):
                    want = dict_draw(max_level, 2, density, [seed, trial, attempt])
                    if not want.is_zero:
                        break
                assert_same_draw(got, want)

    @pytest.mark.parametrize("bits", [np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_bit_generator_other_than_pcg64_refused(self, bits):
        rng = np.random.Generator(bits(0))
        with pytest.raises(TypeError, match=f"needs a PCG64 generator, got {bits.__name__}"):
            cli._gen_with_rng(rng, 3, 1, 0.5)

    def test_draw_builds_no_dict(self, monkeypatch):
        # the constructor runs once, on no coefficients, for its checks
        given = []
        init = HaarExpansion.__init__
        monkeypatch.setattr(
            HaarExpansion, "__init__",
            lambda u, *args: given.append(dict(args[2])) or init(u, *args),
        )
        assert len(gen_random(5, 2, 0.5, seed=2).support) > 0
        assert given == [{}]

    def test_full_density_counts(self):
        u = gen_random(2, 1, 1.0, seed=0)
        assert len(u.support) == 7

    def test_deterministic(self):
        assert gen_random(4, 2, 0.5, seed=11) == gen_random(4, 2, 0.5, seed=11)

    def test_density_zero_rejected(self):
        with pytest.raises(ValueError):
            gen_random(2, 1, 0.0, seed=0)

    @pytest.mark.parametrize(
        "max_level, message",
        [(62, "max_level 62 exceeds 61"), (-1, "max_level must be nonnegative")],
    )
    def test_level_outside_range_rejected_before_drawing(self, monkeypatch, max_level, message):
        # level 62 would take 2^63 - 1 draws before the constructor refused it
        class NoDraws:
            def random(self):
                raise AssertionError("a coefficient was drawn")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
        with pytest.raises(ValueError, match=message):
            gen_random(max_level, 1, 0.5, seed=0)
        with pytest.raises(ValueError, match=message):
            _trial_expansion(0, 0, max_level, 1, 0.5)

    @pytest.mark.parametrize("max_level, dimension", [(3.5, 1), (3.0, 1), (3, 2.5)])
    def test_non_integer_level_rejected_before_drawing(self, monkeypatch, max_level, dimension):
        # a float level used to draw its coefficients and then fail in every
        # norm; the constructor's TypeError now comes first
        drawn = count_calls(monkeypatch, cli, "_trial_expansion")
        message = "max_level and dimension must be integers"
        args = dict(p=1.0, q=None, trials=1, seed=0, density=0.5, max_level=max_level)
        with pytest.raises(TypeError, match=message):
            run_verification(**args, dimension=dimension)
        assert drawn == []

        class NoDraws:
            def random(self):
                raise AssertionError("a coefficient was drawn")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
        with pytest.raises(TypeError, match=message):
            gen_random(max_level, dimension, 0.5, seed=0)

    def test_numpy_integer_level_draws_as_int(self):
        u = gen_random(np.int64(4), np.int64(2), 0.5, seed=3)
        assert (type(u.max_level), type(u.dimension)) == (int, int)
        assert u == gen_random(4, 2, 0.5, seed=3)

    def test_support_size_statistics(self):
        # 7 slots at density 0.5: per-trial mean 3.5, variance 7/4
        trials = 10_000
        sizes = [len(gen_random(2, 1, 0.5, seed=s).support) for s in range(trials)]
        mean = sum(sizes) / trials
        sigma_mean = math.sqrt(7 * 0.25 / trials)
        assert abs(mean - 3.5) < 3 * sigma_mean


class TestDumpJson:
    def test_seventeen_digit_floats(self):
        text = dump_json({"value": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trips_through_json(self):
        payload = {"a": [1.0, 0.1, 12345.6789], "b": {"c": True, "d": None}}
        assert json.loads(dump_json(payload)) == payload

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dump_json({"v": math.inf})


class TestCommands:
    def test_norm_single(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", MINIMAL)
        assert main(["norm", "--p", "1", path]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_norm_tl(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", MINIMAL)
        assert main(["norm", "--p", "1", "--q", "3", path]) == 0
        assert capsys.readouterr().out.strip() == "1"

    @pytest.mark.parametrize(
        "argv",
        [
            ["norm", "--p", "1"],
            ["pietsch", "--p", "1"],
            ["factorize", "--p", "1.5"],
        ],
    )
    def test_infinite_q_exit_two(self, tmp_path, capsys, argv):
        path = write(tmp_path, "u.json", MINIMAL)
        assert main(argv + ["--q", "inf", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: q must be finite, got inf\n"

    def test_norm_bad_file_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", "{broken")
        assert main(["norm", "--p", "1", path]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "route", ["missing input", "directory input", "gen out", "verify out"]
    )
    def test_file_errors_exit_two(self, tmp_path, capsys, route):
        no_dir = str(tmp_path / "no_dir" / "out.json")
        argv = {
            "missing input": ["norm", "--p", "1", str(tmp_path / "missing.json")],
            "directory input": ["norm", "--p", "1", str(tmp_path)],
            "gen out": ["gen", "--max-level", "2", "--out", no_dir],
            "verify out": ["verify", "--trials", "1", "--max-level", "3", "--out", no_dir],
        }[route]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_module_entry_point_missing_file_exit_two(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        missing = str(tmp_path / "missing.json")
        proc = subprocess.run(
            [sys.executable, "-m", "haarmult", "norm", "--p", "1", missing],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stdout == ""

    @pytest.mark.parametrize("command", ["norm", "decompose", "pietsch"])
    def test_max_level_past_int64_limit_exit_two(self, tmp_path, capsys, command):
        payload = {
            "max_level": 62,
            "dimension": 1,
            "coefficients": [
                {"level": 0, "pos": 0, "value": [1.0]},
                {"level": 62, "pos": 7, "value": [0.5]},
            ],
        }
        path = write(tmp_path, "deep.json", payload)
        assert main([command, "--p", "1", path]) == 2
        captured = capsys.readouterr()
        assert "max_level 62 exceeds 61" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["gen", "verify"])
    def test_max_level_flag_past_limit_usage_error(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # refused before the first of about 2^63 draws
        def no_draws(*args):
            raise AssertionError("drew an expansion")

        monkeypatch.setattr("haarmult.cli._gen_with_rng", no_draws)
        out = tmp_path / "x.json"
        extra = ["--out", str(out)] if command == "gen" else ["--trials", "1"]
        with pytest.raises(SystemExit) as exc:
            main([command, "--max-level", "62", *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--max-level must be at most 61, got 62" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("p", ["5e-4", "1e-4"])
    def test_verify_constant_past_the_float_range_exit_two(self, capsys, p):
        # exited 2 with "error: (34, 'Numerical result out of range')"
        assert main(["verify", "--trials", "3", "--p", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        want = f"error: multiplier constant C at p={float(p)} leaves the float range"
        assert captured.err.strip() == want

    def test_pietsch_q_on_vector_file_exit_two(self, tmp_path, capsys):
        path = str(tmp_path / "v.json")
        save(path, gen_random(3, 2, 0.5, seed=1))
        assert main(["norm", "--p", "1", "--q", "3", path]) == 2
        assert main(["pietsch", "--p", "1", "--q", "3", path]) == 2
        captured = capsys.readouterr()
        assert "q applies to scalar expansions only" in captured.err
        assert captured.out == ""

    def test_pietsch_vector_file(self, tmp_path, capsys):
        path = str(tmp_path / "v.json")
        save(path, gen_random(4, 2, 0.5, seed=3))
        assert main(["pietsch", "--p", "1.5", path]) == 0
        m = pietsch.weights_vector(load(path), 1.5)
        payload = {"weights": m.weights, "A": m.normalizer, "s": m.exponent, "total": m.total()}
        assert capsys.readouterr().out == dump_json(payload) + "\n"

    def test_decompose_single(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", MINIMAL)
        assert main(["decompose", "--p", "1", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pieces"] == [{"top": "0/0", "block": ["0/0"]}]
        assert payload["report"]["passed"] is True

    def test_decompose_verifies_once(self, tmp_path, capsys, monkeypatch):
        verifies = count_calls(monkeypatch, atomic, "verify_decomposition")
        path = write(tmp_path, "u.json", MINIMAL)
        assert main(["decompose", "--p", "1", path]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["passed"] is True
        assert len(verifies) == 1

    def test_pietsch_single(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", MINIMAL)
        assert main(["pietsch", "--p", "1", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weights"] == {"0/0": 1.0}
        assert payload["A"] == 1.0

    def test_factorize_pipeline(self, tmp_path, capsys):
        u = gen_random(4, 1, 0.6, seed=5)
        path = str(tmp_path / "u.json")
        save(path, u)
        code = main(
            ["factorize", "--p", "1.3333333333333333", "--q", "2", "--samples", "20", path]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["identity_verified"] is True
        assert payload["theta"] == pytest.approx(0.5, rel=1e-12)
        assert set(payload["x"]) == {f"{i.level}/{i.position}" for i in u.support}

    def test_factorize_decomposes_once(self, tmp_path, capsys, monkeypatch):
        # the factors and the lattice estimate share one weights_tl
        u = gen_random(5, 1, 0.6, seed=6)
        path = str(tmp_path / "u.json")
        save(path, u)
        decomposes = count_calls(monkeypatch, pietsch, "_decompose")
        assert main(["factorize", "--p", "1.5", "--q", "3", "--samples", "8", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(decomposes) == 1
        assert payload["lattice_candidate"] == x0_norm_estimate(factorize(u, 1.5, 3.0), u, 8, 0)

    @pytest.mark.parametrize(
        "max_level, density, seed, digest",
        [
            (8, 0.5, 21, "749e39bc37cdae40913af63171de604e0cbb2243f33dde53511c22714ed008e2"),
            (  # the atom grid
                12,
                0.01,
                22,
                "dc25be8fc3ed7824e70af04350c9a294f07b0b43e5f17469e392b46b658b3310",
            ),
        ],
    )
    def test_factorize_stdout_pinned(self, tmp_path, capsys, max_level, density, seed, digest):
        # every byte of the factors, the verdict and the lattice estimate
        u = gen_random(max_level, 1, density, seed)
        assert (_support_grid(u).lengths is not None) == (max_level == 12)
        path = str(tmp_path / "u.json")
        save(path, u)
        command = ["factorize", "--p", "1.5", "--q", "3", "--samples", "16", "--seed", "4"]
        assert main(command + [path]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_gen_writes_file(self, tmp_path, capsys):
        out = str(tmp_path / "gen.json")
        assert main(["gen", "--max-level", "3", "--seed", "2", "--out", out]) == 0
        u = load(out)
        assert u.max_level == 3

    def test_negative_samples_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", MINIMAL)
        with pytest.raises(SystemExit) as exc:
            main(["factorize", "--p", "1.5", "--q", "3", "--samples", "-1", path])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["factorize", "gen"])
    def test_negative_seed_usage_error(self, tmp_path, capsys, monkeypatch, command):
        # refused as a usage error naming the flag, before any load or draw
        path = write(tmp_path, "u.json", MINIMAL)
        loaded = count_calls(monkeypatch, cli, "load")
        drawn = count_calls(monkeypatch, cli, "gen_random")
        flags = {
            "factorize": ["--p", "1.5", "--q", "3", path],
            "gen": ["--out", str(tmp_path / "gen.json")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "-5", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--seed must be nonnegative" in captured.err
        assert loaded == drawn == [] and not (tmp_path / "gen.json").exists()

    def test_zero_expansion_input_error(self, tmp_path, capsys):
        path = write(
            tmp_path, "zero.json", {"max_level": 1, "dimension": 1, "coefficients": []}
        )
        assert main(["pietsch", "--p", "1", path]) == 2


    @pytest.mark.parametrize(
        "command", [["pietsch", "--p", "1"], ["factorize", "--p", "1.5", "--q", "3"]]
    )
    def test_overflowing_scale_exit_two(self, tmp_path, capsys, command):
        scaled = {
            "max_level": 1,
            "dimension": 1,
            "coefficients": [
                {"level": 0, "pos": 0, "value": [1e160]},
                {"level": 1, "pos": 0, "value": [0.5e160]},
                {"level": 1, "pos": 1, "value": [-0.25e160]},
            ],
        }
        path = write(tmp_path, "u.json", scaled)
        assert main(command + [path]) == 2
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize("scale", [1e-200, 1e160])
    @pytest.mark.parametrize(
        "command",
        [["norm", "--p", "1"], ["norm", "--p", "1", "--q", "2"], ["decompose", "--p", "1"]],
    )
    def test_out_of_float_range_exit_two(self, tmp_path, capsys, command, scale):
        scaled = {
            "max_level": 1,
            "dimension": 1,
            "coefficients": [
                {"level": 0, "pos": 0, "value": [scale]},
                {"level": 1, "pos": 0, "value": [0.5 * scale]},
                {"level": 1, "pos": 1, "value": [-0.25 * scale]},
            ],
        }
        path = write(tmp_path, "u.json", scaled)
        assert main(command + [path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "float range" in captured.err

    @pytest.mark.parametrize(
        "command", [["pietsch", "--p", "1.5"], ["factorize", "--p", "1.5"]]
    )
    def test_underflowing_convexification_exit_two(self, tmp_path, capsys, command):
        # |1e-3|^(300/2) underflows to 0.0, which would drop the row 1/0
        small = {
            "max_level": 1,
            "dimension": 1,
            "coefficients": [
                {"level": 0, "pos": 0, "value": [1.0]},
                {"level": 1, "pos": 0, "value": [1e-3]},
            ],
        }
        path = write(tmp_path, "u.json", small)
        assert main(command + ["--q", "300", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "float range" in captured.err


    @pytest.mark.parametrize("value, q", [("1e-3", "1.502"), ("1e3", "1.5005")])
    def test_x_factor_outside_normal_range_exit_two(self, tmp_path, capsys, value, q):
        # x_I underflows to 0.0 or overflows: no factorization printed
        path = write(
            tmp_path,
            "u.json",
            f'{{"max_level": 0, "dimension": 1, '
            f'"coefficients": [{{"level": 0, "pos": 0, "value": [{value}]}}]}}',
        )
        assert main(["factorize", "--p", "1.5", "--q", q, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a factor x_I at theta=")
        assert captured.err.endswith(" leaves the normal float range\n")

    def test_overflowing_sample_norms_exit_two(self, tmp_path, capsys):
        # at q = 150 the sampled candidates' q-norms overflow
        path = str(tmp_path / "g4.json")
        assert main(["gen", "--max-level", "4", "--seed", "1", "--out", path]) == 0
        capsys.readouterr()
        code = main(["factorize", "--p", "1.5", "--q", "150", "--samples", "4", path])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "float range" in captured.err


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        code = main(
            ["verify", "--trials", "5", "--seed", "42", "--p", "1.0", "--q", "2.0",
             "--max-level", "4", "--dimension", "2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["checks"]["atomic_guarantees"]["extremes"]["max_tops_carleson"] <= 4

    def test_p_above_two_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--p", "3"])
        assert exc.value.code == 2

    def test_bad_density_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--p", "1", "--density", "1.5"])
        assert exc.value.code == 2

    def test_omega_mutant_exit_one(self, capsys):
        code = main(
            ["verify", "--trials", "2", "--seed", "1", "--p", "1.0",
             "--inject-mutant", "scale-omega"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"]["hp_weight_sum"]["passed"] is False
        failure = payload["checks"]["hp_weight_sum"]["failures"][0]
        assert {"seed", "trial"} <= set(failure)

    def test_failure_count_beyond_listed_failures(self, capsys):
        code = main(
            ["verify", "--trials", "25", "--max-level", "3", "--p", "1",
             "--inject-mutant", "scale-omega"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        weight_sum = payload["checks"]["hp_weight_sum"]
        assert weight_sum["failure_count"] == 25
        assert len(weight_sum["failures"]) == 20
        assert "failure_count" not in payload["checks"]["decay_bound"]

    def test_numpy_arguments_dump_as_python_numbers(self):
        # numpy integers were echoed into the flags, which `dump_json`
        # refused: "Object of type int64 is not JSON serializable"
        flags = dict(p=1.5, q=3.0, trials=2, seed=4, density=0.5, max_level=4, dimension=2)
        numpy_flags = {
            key: (np.int64 if isinstance(value, int) else np.float64)(value)
            for key, value in flags.items()
        }
        report = run_verification(**numpy_flags)
        assert all(type(report["flags"][key]) is type(value) for key, value in flags.items())
        assert dump_json(report) == dump_json(run_verification(**flags))
        assert run_verification(**{**numpy_flags, "q": None})["flags"]["q"] is None

    def test_overflowing_convexification_exit_two(self, capsys):
        code = main(["verify", "--p", "1.5", "--q", "1e6", "--trials", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "float range" in captured.err

    def test_infinite_q_exit_two(self, capsys):
        code = main(["verify", "--p", "1", "--q", "inf", "--trials", "1", "--max-level", "3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: q must be finite, got inf\n"

    @pytest.mark.parametrize("q", ["inf", "nan"])
    def test_bad_q_refused_before_first_trial(self, capsys, monkeypatch, q):
        drawn = count_calls(monkeypatch, cli, "_trial_expansion")
        code = main(["verify", "--p", "1", "--q", q, "--trials", "1", "--max-level", "3"])
        assert code == 2
        assert drawn == []
        message = "finite" if q == "inf" else "positive"
        assert capsys.readouterr().err == f"error: q must be {message}, got {q}\n"

    def test_tiny_density_input_error(self, capsys):
        code = main(["verify", "--density", "1e-9", "--max-level", "2", "--trials", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "density 1e-09" in err
        assert "max level 2" in err

    def test_each_expansion_decomposed_once_per_trial(self, monkeypatch):
        stopping_times = count_calls(monkeypatch, atomic, "_stopping_time")
        verifies = count_calls(monkeypatch, atomic, "verify_decomposition")
        report = run_verification(
            p=1.5, q=3.0, trials=1, seed=0, density=0.5, max_level=6, dimension=2
        )
        assert report["passed"] is True
        # u, |u|^(q/2) and the vector expansion uv, once each
        assert (len(stopping_times), len(verifies)) == (3, 3)

    def test_grids_per_trial(self, grid_builds):
        # one grid of u, which its decomposition and Hardy measure keep for
        # the Hardy checks, and on which the TL measure of |u|^(q/2) is built
        # and kept for the TL checks and the sampling; one of uv, which its
        # decomposition and vector measure keep for the h2 identity and the
        # vector checks
        report = run_verification(
            p=1.5, q=3.0, trials=2, seed=0, density=0.5, max_level=6, dimension=2
        )
        assert report["passed"] is True
        assert len(grid_builds) == 2 * 2

    def test_tl_measure_keeps_the_grid_of_u(self, monkeypatch):
        # the TL measure is built on the grid the trial built for u, the
        # very object its Hardy measure keeps
        measures = count_calls(monkeypatch, cli, "check_multiplier_bounds")
        grids = count_calls(monkeypatch, cli, "_support_grid")
        run_verification(p=1.5, q=3.0, trials=1, seed=0, density=0.5, max_level=6, dimension=1)
        (u, _, _, mh), (w, _, _, mt) = measures
        assert w is u and mt.exponent == 3.0
        assert mt._grid_for(u) is mh._grid_for(u) is vars(mh)["_grid"]
        assert len(grids) == 1

    def test_one_tree_per_support(self, monkeypatch, grid_builds):
        # at the bench's flags: no support family, its depths or its parent
        # table; the decay bound reads u's grid. The 3 ancestor tables are
        # the tops' Carleson constants, one per verified decomposition
        def refuse(*args):
            raise AssertionError("a support family was built")

        monkeypatch.setattr(dyadic.IntervalFamily, "depths", refuse)
        tables = []
        for module in (dyadic, haar):
            tables.append(count_calls(monkeypatch, module, "_nearest_ancestors"))
        grids = count_calls(monkeypatch, cli, "_support_grid")
        report = run_verification(
            p=1.5, q=3.0, trials=1, seed=0, density=0.5, max_level=6, dimension=2
        )
        assert report["checks"]["decay_bound"] == {"passed": True, "trials": 1}
        assert sum(map(len, tables)) == 3
        assert len(grid_builds) == 2
        assert len(grids) == 2

    def test_deep_sparse_checks_build_no_grid(self, monkeypatch, grid_builds):
        # on the atoms, as on the leaves, the hp, tl and vector measures
        # keep their grid: a trial builds u's grid, which the TL measure
        # shares, and uv's, its checks build none, and the report is that of
        # checks on fresh grids
        flags = dict(p=1.5, q=3.0, trials=2, seed=0, density=0.01, max_level=12, dimension=2)
        u = _trial_expansion(0, 0, 12, 1, 0.01)
        assert _support_grid(u).lengths is not None
        grid_builds.clear()
        kept = dump_json(run_verification(**flags))
        assert len(grid_builds) == 2 * 2
        monkeypatch.setattr(haar._KeptRows, "_grid_for", lambda m, u: _support_grid(u))
        assert dump_json(run_verification(**flags)) == kept
        assert len(grid_builds) == 2 * 2 + 2 * 13
        assert json.loads(kept)["passed"] is True

    def test_decay_verdicts_match_support_family(self):
        # the trial's verdicts from u's grid against those of u's family
        for max_level, density in ((6, 0.5), (10, 0.05), (14, 0.001)):
            for seed in range(4):
                u = _trial_expansion(seed, 0, max_level, 1, density)
                family = IntervalFamily(u.support, u.max_level)
                grid = _support_grid(u)
                got = dyadic._decay_verdicts(u.levels, grid.parent, max_level, max_level + 1)
                want = dyadic.generation_decay_verdicts(family, max(family.depths()) + 2)
                assert got.all() == all(map(all, want))
                depth = max(family.depths()) + 1
                assert got[:, :depth].tolist() == [row[:depth] for row in want]

    def test_refused_decomposition_carries_its_report(self, monkeypatch, capsys):
        # a vector decomposition that fails its verification escapes the
        # trial: exit 1 and its report on stderr, in the fields' order with
        # the Carleson constant as a float; the error carries the report
        verify, refused = atomic.verify_decomposition, []

        def failing(u, *args):
            report = verify(u, *args)
            if u.dimension == 1:
                return report
            refused.append(replace(report, chain_middle_ok=False))
            return refused[-1]

        monkeypatch.setattr(atomic, "verify_decomposition", failing)
        code = main(["verify", "--trials", "1", "--max-level", "4", "--dimension", "2"])
        r = refused[0]
        fields = {
            "partition_ok": r.partition_ok,
            "blocks_ok": r.blocks_ok,
            "tops_ok": r.tops_ok,
            "tops_carleson": float(r.tops_carleson),
            "tops_carleson_ok": r.tops_carleson_ok,
            "chain_lower_ok": r.chain_lower_ok,
            "chain_middle_ok": False,
            "lower_constant": r.lower_constant,
            "norm_p": r.norm_p,
            "block_norm_sum_p": r.block_norm_sum_p,
            "top_bound_sum": r.top_bound_sum,
            "observed_ratio": r.observed_ratio,
            "passed": False,
        }
        message = f"decomposition failed verification: {fields}"
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"verification failed: {message}\n"
        uv = cli._trial_expansion(1_000_003, 0, 4, 2, 0.5)
        with pytest.raises(VerificationError) as exc:
            _decompose(uv, 1.0, _support_grid(uv))
        assert exc.value.report == refused[-1]
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p", "1.5", "--q", "1"], "--q must be >= --p"),
            (["--trials", "0"], "--trials must be positive"),
            (["--seed", "-1"], "--seed must be nonnegative"),
        ],
    )
    def test_flag_usage_errors(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("flags", [["--p", "1"], ["--p", "1.5", "--q", "1.5"]])
    def test_x_mutant_without_factorization_route_refused(self, capsys, monkeypatch, flags):
        drawn = count_calls(monkeypatch, cli, "_trial_expansion")
        code = main(["verify", "--trials", "2", *flags, "--inject-mutant", "perturb-x"])
        assert code == 2 and drawn == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "perturb-x needs --q with 1 < p < q" in captured.err
        with pytest.raises(ValueError, match="perturb-x needs --q with 1 < p < q"):
            run_verification(
                p=1.0, q=None, trials=1, seed=0, density=0.5, max_level=3, dimension=1,
                mutant="perturb-x",
            )
        # the weight mutant needs no factorization route: it is caught
        assert main(["verify", "--trials", "2", *flags, "--inject-mutant", "scale-omega"]) == 1
        assert drawn

    def test_unknown_mutant_refused_before_first_trial(self, capsys, monkeypatch):
        drawn = count_calls(monkeypatch, cli, "_trial_expansion")
        message = "mutant must be None or one of scale-omega, perturb-x, got 'scale-omgea'"
        with pytest.raises(ValueError, match=message):
            run_verification(
                p=1.0, q=None, trials=1, seed=0, density=0.5, max_level=3, dimension=1,
                mutant="scale-omgea",
            )
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--trials", "1", "--inject-mutant", "scale-omgea"])
        assert exc.value.code == 2
        assert "scale-omega" in capsys.readouterr().err
        assert drawn == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            ({"trials": 0}, "trials must be positive, got 0"),
            ({"trials": -2}, "trials must be positive, got -2"),
            ({"dimension": 0}, "dimension must be positive, got 0"),
            ({"density": 3.0}, r"density must lie in \(0, 1\], got 3.0"),
            ({"density": 0.0}, r"density must lie in \(0, 1\], got 0.0"),
            ({"density": math.nan}, r"density must lie in \(0, 1\], got nan"),
            ({"p": 2.5}, r"p must lie in \(0, 2\], got 2.5"),
            ({"p": 0.0, "q": 3.0}, r"p must lie in \(0, 2\], got 0.0"),
            ({"p": 1.5, "q": 1.0}, "need 0 < p <= q, got p=1.5, q=1.0"),
        ],
        ids=[
            "trials-0", "trials-negative", "dimension-0", "density-3", "density-0",
            "density-nan", "p-2.5", "p-0", "q-below-p",
        ],
    )
    def test_bad_arguments_refused_before_first_draw(self, monkeypatch, flags, message):
        # the library refuses what the CLI refuses as a usage error, where it
        # used to pass with no checks (trials below 1), with scalar checks
        # only (dimension 0) or on any density, or raise inside a trial
        drawn = count_calls(monkeypatch, cli, "_trial_expansion")
        args = dict(p=1.0, q=None, trials=1, seed=0, density=0.5, max_level=4, dimension=1)
        with pytest.raises(ValueError, match=message):
            run_verification(**{**args, **flags})
        assert drawn == []

    @pytest.mark.parametrize("mutant", cli._MUTANTS)
    def test_each_mutant_caught_at_bench_flags(self, capsys, mutant):
        code = main(
            ["verify", "--trials", "1", "--seed", "0", "--p", "1.5", "--q", "3",
             "--max-level", "6", "--dimension", "2", "--inject-mutant", mutant]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["flags"]["inject_mutant"] == mutant
        assert payload["passed"] is False

    def test_dimension_below_one_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--p", "1", "--dimension", "0"])
        assert exc.value.code == 2

    def test_x_mutant_exit_one(self, capsys):
        code = main(
            ["verify", "--trials", "2", "--seed", "1", "--p", "1.5", "--q", "3.0",
             "--inject-mutant", "perturb-x"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"]["factorization_identity"]["passed"] is False

    def test_reports_byte_identical(self):
        kwargs = dict(
            p=1.0, q=2.0, trials=4, seed=7, density=0.5, max_level=4, dimension=1
        )
        first = dump_json(run_verification(**kwargs))
        second = dump_json(run_verification(**kwargs))
        assert first == second

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (
                dict(p=0.5, q=None, dimension=1, max_level=6, density=0.5, seed=11),
                "8e7ede1677609946707ffd177a90153c4c9ad4a85d9fb7a8d976d4dc36479d50",
            ),
            (  # the atom grid
                dict(p=1.5, q=None, dimension=2, max_level=12, density=0.01, seed=12),
                "10599e8d1bbd52610aa0fe8f4b462aa91c045c5af7b412855e3b96703ebdabb1",
            ),
            (  # the atom grid
                dict(p=0.5, q=3.0, dimension=1, max_level=12, density=0.01, seed=13),
                "b38e53ccebfb972a7ba7bb8a6c79aefb9e45821a927872a4f5d5c310e93a8e75",
            ),
            (
                dict(p=1.5, q=3.0, dimension=2, max_level=6, density=0.5, seed=14),
                "2fdb598ddd211cc8bf6c92b19f060568eb62c90c53598376f6acfbdbaf240fd5",
            ),
        ],
    )
    def test_reports_pinned(self, flags, digest):
        # every byte of these reports is fixed, on the leaf and the atom grid
        report = dump_json(run_verification(trials=3, **flags))
        assert hashlib.sha256(report.encode()).hexdigest() == digest

    def test_report_written_to_file(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = main(
            ["verify", "--trials", "2", "--seed", "3", "--p", "0.5", "--out", out]
        )
        assert code == 0
        on_disk = (tmp_path / "report.json").read_text()
        assert json.loads(on_disk)["passed"] is True


def _per_block_h2(uv, dv, rng):
    """The vector h2 identity one block at a time, each block rebuilt as its
    own expansion and its phi drawn from rng in block order, as the verify
    suite checked it before the block pass: (the left sides, the right
    sides, the verdict)."""
    lhs, rhs, ok = [], [], True
    order, ends = _block_order(dv._block, len(dv._top_rows))
    for lo, hi in zip([0] + ends, ends):
        block = order[lo:hi]
        ui = HaarExpansion._from_rows(
            uv.max_level, uv.dimension, [uv.support[r] for r in block.tolist()],
            uv.levels[block], uv.positions[block], uv.values[block],
        )
        mu = _support_rows(pietsch_oracle.h2_weights(ui), ui)
        phis = rng.uniform(-1, 1, len(ui.support))
        left = hp_norm(pietsch_oracle.multiply(dict(zip(ui.support, phis.tolist())), ui), 2.0) ** 2
        right = l2_norm(ui) ** 2 * sum((_pow(np.abs(phis), 2.0) * mu).tolist())
        ok &= not abs(left - right) > 1e-12 * max(left, right, 1e-300)
        lhs.append(left)
        rhs.append(right)
    return lhs, rhs, ok


class _Stream:
    """A generator stand-in whose `uniform` hands out a fixed array in order."""

    def __init__(self, values):
        self._values, self._at = values, 0

    def uniform(self, low, high, size):
        self._at += size
        return self._values[self._at - size : self._at]


class TestVectorH2Identity:
    """The verify suite's h2 identity on the verifier's block pass against
    the per-block reference: the same phi, sides within 1e-13 and the same
    verdicts, on the leaf and the atom grid and with exact-zero phi."""

    CONFIGS = [(d, level, 0.5) for d in (2, 3) for level in (4, 5, 6, 7, 8)] + [
        (d, 12, 0.01) for d in (2, 3)
    ]

    def _compare(self, uv, dv, rngs):
        lhs_ref, rhs_ref, ok_ref = _per_block_h2(uv, dv, rngs[0])
        lhs, rhs = _h2_sides(uv, dv, rngs[1])
        assert len(lhs) == len(rhs) == len(lhs_ref)
        np.testing.assert_allclose(lhs, lhs_ref, rtol=1e-13, atol=0)
        np.testing.assert_allclose(rhs, rhs_ref, rtol=1e-13, atol=0)
        slack = 1e-12 * np.maximum(np.maximum(lhs, rhs), 1e-300)
        assert (not (np.abs(lhs - rhs) > slack).any()) == ok_ref
        return ok_ref

    def test_same_draws_as_per_block(self):
        # one draw of n doubles is the per-block draws laid end to end
        rng = np.random.default_rng([3, 1, 10_000])
        blocks = [rng.uniform(-1, 1, size) for size in (5, 1, 17, 2)]
        flat = np.random.default_rng([3, 1, 10_000]).uniform(-1, 1, 25)
        assert np.concatenate(blocks).tobytes() == flat.tobytes()

    def test_matches_per_block_reference(self):
        trials = 0
        for k, (d, level, density) in enumerate(self.CONFIGS):
            for trial in range(20 if level < 12 else 10):
                uv = _trial_expansion(k, trial, level, d, density)
                dv, _ = _decompose(uv, 1.5, _support_grid(uv))
                seed = [k, trial, 10_000]
                rngs = np.random.default_rng(seed), np.random.default_rng(seed)
                assert self._compare(uv, dv, rngs)
                trials += 1
        assert trials >= 200

    def test_exact_zero_phi(self):
        # a zero phi leaves a zero square in its row, on uv's grid
        rng = np.random.default_rng(19)
        for k, (d, level, density) in enumerate(self.CONFIGS):
            uv = _trial_expansion(100 + k, 0, level, d, density)
            dv, _ = _decompose(uv, 1.0, _support_grid(uv))
            n = len(uv.support)
            draws = rng.uniform(-1, 1, n)
            draws[: _block_order(dv._block, len(dv._top_rows))[1][0]] = 0.0  # the first block
            draws[rng.choice(n, n // 3, replace=False)] = 0.0
            assert self._compare(uv, dv, (_Stream(draws), _Stream(draws)))

    def test_exact_zero_phi_sums_on_the_support_grid(self, monkeypatch):
        # with or without a zero phi, dv's blocks are clean on uv's rows and
        # sum on uv's grid: no grid and no `_cells` call per block
        own = count_calls(monkeypatch, atomic, "_own_cells")
        for k, (d, level, density) in enumerate(self.CONFIGS):
            uv = _trial_expansion(200 + k, 0, level, d, density)
            dv, _ = _decompose(uv, 1.0, _support_grid(uv))
            draws = np.random.default_rng(k).uniform(0.5, 1.0, len(uv.support))
            assert self._compare(uv, dv, (_Stream(draws), _Stream(draws)))
            assert own == []
            draws[k % len(draws)] = 0.0
            assert self._compare(uv, dv, (_Stream(draws), _Stream(draws)))
            assert own == []
