import csv
import io
import json

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from stochsem.assembly import evaluate_grid
from stochsem.cli import grid_rows, main, make_discretization, make_problem, make_sampler
from stochsem.config import SCHEMA, ConfigError, _parse_float, load_config, parse_config
from stochsem.model import NumericalError, SingularNonlinearity
from stochsem.model import test2_spec as make_test2
from stochsem.montecarlo import error_report, run_ensemble
from stochsem.stochastic import QWienerSampler, spectrum
from stochsem.timestepper import (DivergenceError, SchemeError, SolverFailure, build_scheme,
                                  run)

T1_SECTIONS = {
    "problem": {"kind": "test1"},
    "mesh": {"nex": "2", "ney": "2", "order": "5"},
    "time": {"tau": "1/8", "t_final": "0.25"},
}

T2_SECTIONS = {
    "problem": {"kind": "test2_smooth"},
    "mesh": {"nex": "1", "ney": "1", "order": "10"},
    "time": {"tau": "0.05", "t_final": "0.1"},
}


def ini(base, **overrides):
    """Merge per-section overrides into a base section dict and render INI."""
    merged = {k: dict(v) for k, v in base.items()}
    for section, entries in overrides.items():
        merged.setdefault(section, {}).update(entries)
    lines = []
    for section, entries in merged.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in entries.items())
        lines.append("")
    return "\n".join(lines)


BASE_T1 = ini(T1_SECTIONS)
BASE_T2 = ini(T2_SECTIONS)


def write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def checksums(outdir, include_volatile=False):
    m = manifest(outdir)
    return {name: info["sha256"] for name, info in m["outputs"].items()
            if include_volatile or not info["volatile"]}


def float_texts(positive=False):
    """Finite floats (positive ones if asked) as repr or as a fraction p/q."""
    return st.one_of(
        st.floats(min_value=0.0 if positive else None, exclude_min=positive,
                  allow_nan=False, allow_infinity=False).map(repr),
        st.builds("{}/{}".format, st.integers(1 if positive else -10**6, 10**6),
                  st.integers(1, 10**6)))


# list keys with a rule beyond their entries' type: "descending" and
# "non-empty" float lists are non-empty (positive and strictly descending
# entries for the first), an "ascending" int list strictly ascends
LIST_RULES = {("table1", "tau_list"): "descending", ("evolve", "times"): "non-empty",
              ("spatial", "n_list"): "ascending", ("table1", "n_list"): "ascending"}


def value_texts(kind, allowed, list_rule=None):
    """Valid text for a key: an allowed value, or one above every range
    check (floats > 0, ints >= 2); int lists are non-empty, float lists are
    unchecked unless their list_rule says otherwise (LIST_RULES)."""
    if allowed is not None:
        return st.sampled_from([repr(a) if kind == "float" else a for a in allowed])
    ascending, descending = list_rule == "ascending", list_rule == "descending"
    return {"float": float_texts(positive=True),
            "int": st.integers(2, 10**9).map(str),
            "bool": st.sampled_from(["true", "false", "yes", "no", "on", "off", "1", "0"]),
            "float_list": st.lists(float_texts(positive=descending),
                                   min_size=int(list_rule is not None), max_size=4,
                                   unique_by=_parse_float if descending else None)
                            .map(lambda v: ", ".join(sorted(v, key=_parse_float, reverse=True)
                                                     if descending else v)),
            "int_list": st.lists(st.integers(2, 1000), min_size=1, max_size=4, unique=ascending)
                          .map(lambda v: ", ".join(map(str, sorted(v) if ascending else v))),
            "str": st.text("abcXYZ019_-./", min_size=1, max_size=12)}[kind]


@st.composite
def config_texts(draw):
    """Configuration text with the required kind and a random subset of the
    other keys."""
    keys = draw(st.lists(st.sampled_from(sorted(SCHEMA)), unique=True))
    sections = {}
    for section, key in [("problem", "kind")] + keys:
        kind, _default, check = SCHEMA[(section, key)]
        allowed = check if isinstance(check, tuple) else None
        sections.setdefault(section, {})[key] = draw(
            value_texts(kind, allowed, LIST_RULES.get((section, key))))
    return ini(sections)


class TestConfig:
    @settings(derandomize=True, deadline=None, database=None)
    @given(config_texts())
    def test_roundtrip_property(self, text):
        cfg = parse_config(text)
        assert parse_config(cfg.to_ini()) == cfg

    def test_fraction_parsing(self):
        cfg = parse_config(BASE_T1)
        assert cfg.get("time", "tau") == 0.125

    def test_defaults_filled(self):
        cfg = parse_config(BASE_T1)
        assert cfg.get("montecarlo", "samples") == 200
        assert cfg.get("noise", "sigma") == 0.0
        assert cfg.get("reference", "order") == 20

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(ini(T1_SECTIONS, mesh={"shape": "quad"}))

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(BASE_T1 + "[solver]\nkind = lu\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match=r"\[problem\] kind"):
            parse_config("[mesh]\nnex = 1\n")

    def test_allowed_values_enforced(self):
        with pytest.raises(ConfigError, match="allowed"):
            parse_config("[problem]\nkind = test3\n")

    def test_range_checks(self):
        with pytest.raises(ConfigError, match="tau"):
            parse_config("[problem]\nkind = test1\n[time]\ntau = 0\n")
        for key in ("tau", "t_final"):
            for value in ("inf", "nan"):
                with pytest.raises(ConfigError, match=rf"\[time\] {key} = {value} must be finite"):
                    parse_config(f"[problem]\nkind = test1\n[time]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match="order"):
            parse_config("[problem]\nkind = test1\n[mesh]\norder = 1\n")

    @pytest.mark.parametrize("section,key,value,what", [
        ("noise", "seed", str(2**64), ">= 0 and < 2**64"),
        ("noise", "seed", "-1", ">= 0 and < 2**64"),
        ("table1", "tau_list", "1/8, 0", "non-empty with every entry finite and > 0"),
        ("table1", "tau_list", "1/8, inf", "non-empty with every entry finite and > 0"),
        ("table1", "tau_list", "", "non-empty with every entry finite and > 0"),
        ("table1", "n_list", "", "non-empty with every entry >= 2"),
        ("spatial", "n_list", "", "non-empty with every entry >= 2"),
        ("spatial", "n_list", "4, 1", "non-empty with every entry >= 2"),
    ])
    def test_range_checks_name_the_key(self, section, key, value, what):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"[problem]\nkind = test1\n[{section}]\n{key} = {value}\n")
        assert str(exc.value).startswith(f"[{section}] {key} = ")
        assert str(exc.value).endswith(f" must be {what}")

    def test_set_checks_the_key(self):
        cfg = parse_config(BASE_T1)
        for section, key, value in (("montecarlo", "workers", 0), ("noise", "seed", 2**64),
                                    ("noise", "sign_convention", "both")):
            with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = "):
                cfg.set(section, key, value)
        assert cfg == parse_config(BASE_T1)
        cfg.set("noise", "seed", 2**64 - 1)
        assert cfg.get("noise", "seed") == 2**64 - 1

    def test_bad_value_diagnostics(self):
        with pytest.raises(ConfigError, match=r"\[mesh\] nex"):
            parse_config("[problem]\nkind = test1\n[mesh]\nnex = two\n")
        with pytest.raises(ConfigError, match=r"bad value for \[noise\] shared_paths in "
                                              r"<config>: 'maybe' \(not a boolean: 'maybe'\)"):
            parse_config(ini(T1_SECTIONS, noise={"shared_paths": "maybe"}))

    def test_roundtrip(self):
        cfg = parse_config(BASE_T1)
        again = parse_config(cfg.to_ini())
        assert again.values == cfg.values

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/path.ini")

    def test_unparsable_text(self):
        with pytest.raises(ConfigError, match=r"parse error in <config>: "):
            parse_config("[problem\nkind = test1\n")

    def test_set_rejects_an_unknown_key(self):
        cfg = parse_config(BASE_T1)
        with pytest.raises(ConfigError, match=r"unknown configuration key \[noise\] paths"):
            cfg.set("noise", "paths", True)
        assert cfg == parse_config(BASE_T1)


class TestRunCommand:
    def test_deterministic_run_artifacts(self, tmp_path):
        cfg = write(tmp_path, BASE_T1)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("final_state.csv", "error_report.csv",
                     "resolved_config.ini", "manifest.json"):
            assert (out / name).exists()
        header, rows = read_csv(out / "final_state.csv")
        assert header == ["x", "y", "u", "v", "w"]
        assert len(rows) == 101 * 101
        # all cells numeric
        assert all(np.all(np.isfinite([float(c) for c in row])) for row in rows[:50])

    def test_error_report_contents(self, tmp_path):
        cfg = write(tmp_path, BASE_T1)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        header, rows = read_csv(out / "error_report.csv")
        assert header == ["field", "l2", "linf"]
        assert [r[0] for r in rows] == ["u", "v", "w", "sum"]
        linfs = [float(r[2]) for r in rows]
        assert linfs[3] == pytest.approx(sum(linfs[:3]), rel=1e-12)

    def test_missing_required_key_exit_2(self, tmp_path):
        cfg = write(tmp_path, "[mesh]\nnex = 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_nonexistent_config_exit_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_ensemble_run(self, tmp_path):
        cfg = write(tmp_path, ini(T2_SECTIONS, noise={"sigma": "0.1", "seed": "5"},
                                  montecarlo={"samples": "4"}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "ensemble_summary.csv")
        assert header[:4] == ["dof", "mean_u", "mean_v", "mean_w"]
        assert all(float(r[4]) >= 0 for r in rows)   # stderr nonnegative

    def test_scheme_options_reach_the_scheme(self, tmp_path):
        # [noise] sign_convention and [scheme] nonlinearity_time set the
        # scheme the ensemble runs on: the summary is run_ensemble's on
        # build_scheme's scheme with both options, and differs from the
        # summary with either option left at its default
        text = ini(T2_SECTIONS, scheme={"nonlinearity_time": "lagged"},
                   noise={"sigma": "0.1", "seed": "3", "truncation": "4",
                          "sign_convention": "increment"},
                   montecarlo={"samples": "8", "chunk_size": "3"})
        out = tmp_path / "out"
        assert main(["run", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 0
        got = np.array(read_csv(out / "ensemble_summary.csv")[1], dtype=float)[:, 1:].T

        cfg = parse_config(text)
        spec = make_problem(cfg)
        mesh, basis = make_discretization(cfg)

        def summary(**options):
            res = run_ensemble(spec, mesh, basis, 0.05, 0.1, make_sampler(cfg), M=8,
                               chunk_size=3, ops=build_scheme(mesh, basis, spec, 0.05,
                                                              **options))
            return np.vstack([*res.mean.fields, res.stderr])

        assert np.array_equal(got, summary(nonlinearity_time="lagged",
                                           noise_convention="increment"))
        for options in ({}, {"nonlinearity_time": "lagged"},
                        {"noise_convention": "increment"}):
            assert not np.array_equal(got, summary(**options))

    def test_ensemble_numerical_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        from stochsem import timestepper

        def diverge(*args, **kwargs):
            raise timestepper.DivergenceError("non-finite state after step 1")

        monkeypatch.setattr(timestepper, "step", diverge)
        cfg = write(tmp_path, ini(T2_SECTIONS, noise={"sigma": "0.1"},
                                  montecarlo={"samples": "3"}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "sample 0" in err

    # u = 0 at the first step meets the pole of u / (kappa1 + u)
    POLE_SECTIONS = {
        "problem": {"kind": "custom", "nonlinearity": "saturating_sum", "init": "zero",
                    "kappa1": "1e-13", "wp": "1.0"},
        "mesh": {"nex": "1", "ney": "1", "order": "4"},
        "time": {"tau": "0.1", "t_final": "0.2"},
    }

    def test_nonlinearity_pole_exit_3(self, tmp_path, capsys):
        cfg = write(tmp_path, ini(self.POLE_SECTIONS))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: singular nonlinearity" in err
        assert "singular nonlinearity at step 1: denominator within 1e-12" in err

    def test_nonlinearity_pole_in_ensemble_exit_3(self, tmp_path, capsys):
        cfg = write(tmp_path, ini(self.POLE_SECTIONS, noise={"sigma": "0.1"},
                                  montecarlo={"samples": "3"}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "sample 0 failed" in err
        assert "sample 0 failed: singular nonlinearity at step 1: " in err

    def test_nonlinearity_pole_in_pool_exit_3(self, tmp_path, capsys):
        # three one-sample chunks on two workers: the failure comes back from
        # a worker process with its type, so the exit code is still 3
        cfg = write(tmp_path, ini(self.POLE_SECTIONS, noise={"sigma": "0.1"},
                                  montecarlo={"samples": "3", "chunk_size": "1"}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--workers", "2"]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: sample 0 failed: singular nonlinearity at step 1: " in err

    def test_singular_scheme_exit_3(self, tmp_path, capsys):
        # 1 + (tau/2) r = 0 with no advection or diffusion: L_w is exactly 0
        problem = {"kind": "custom", "xi": "0", "zeta": "0", "r": "-20", "wp": "0",
                   "init": "smooth"}
        cfg = write(tmp_path, ini(self.POLE_SECTIONS, problem=problem))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "tau=0.1" in err and "1x1" in err

    @pytest.mark.parametrize("cls,old_base", [(SingularNonlinearity, ValueError),
                                              (SchemeError, RuntimeError),
                                              (SolverFailure, RuntimeError),
                                              (DivergenceError, RuntimeError)])
    def test_numerical_failures_share_one_base(self, cls, old_base):
        exc = cls("failure")
        assert isinstance(exc, NumericalError) and isinstance(exc, old_base)

    @pytest.mark.parametrize("key,value", [("zeta", "-1.0"), ("xi", "nan")])
    def test_ill_posed_coefficient_exit_2(self, tmp_path, capsys, key, value):
        problem = {**self.POLE_SECTIONS["problem"], "init": "smooth", "kappa1": "1",
                   key: value}
        cfg = write(tmp_path, ini(self.POLE_SECTIONS, problem=problem))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: coefficient {key}" in capsys.readouterr().err
        assert not (out / "final_state.csv").exists()

    @pytest.mark.parametrize("key", ["kappa1", "kappa2"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_kappa_exit_2(self, tmp_path, capsys, key, value):
        problem = {**self.POLE_SECTIONS["problem"], "init": "smooth", "kappa1": "1",
                   key: value}
        cfg = write(tmp_path, ini(self.POLE_SECTIONS, problem=problem))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert (f"config error: [problem] {key} = {value} must be finite"
                in capsys.readouterr().err)
        assert not (out / "final_state.csv").exists()

    @pytest.mark.parametrize("key", ["t_final", "tau"])
    def test_nonfinite_time_exit_2(self, tmp_path, capsys, key):
        cfg = write(tmp_path, ini(T1_SECTIONS, time={key: "inf"}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: [time] {key} = inf must be finite" in capsys.readouterr().err
        assert not (out / "final_state.csv").exists()

    def test_infinite_delta_width_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, ini(T2_SECTIONS, problem={"kind": "test2_delta",
                                                        "delta_width": "inf"}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("config error: [problem] delta_width = inf must be finite"
                in capsys.readouterr().err)
        assert not (out / "final_state.csv").exists()

    @pytest.mark.parametrize("command,section,key", [("run", "time", "snapshot_times"),
                                                     ("evolve", "evolve", "times")])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_snapshot_time_exit_2(self, tmp_path, capsys, command, section,
                                            key, value):
        cfg = write(tmp_path, ini(T2_SECTIONS, **{section: {key: f"0.05, {value}"}}))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert (f"config error: [{section}] {key} = [0.05, {value}] must be all finite"
                in capsys.readouterr().err)
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command,section,key,value", [
        ("run", "time", "snapshot_times", "0.07, 0.3"),
        ("evolve", "evolve", "times", "-0.1, 0.1")])
    def test_off_grid_snapshot_time_exit_2(self, tmp_path, capsys, command, section, key,
                                           value):
        # a time off the grid (tau = 0.05) is a configuration error of its
        # own, in an ensemble too: no sample failed
        cfg = write(tmp_path, ini(T2_SECTIONS, noise={"sigma": "0.1"},
                                  montecarlo={"samples": "3"}, **{section: {key: value}}))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        bad = value.split(",")[0]
        assert (f"config error: snapshot time {bad} is not a multiple of tau=0.05 "
                f"within [0, T]") in err
        assert "sample" not in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command,base,sections,message", [
        ("run", T2_SECTIONS, {"time": {"snapshot_times": "0.07"}, "noise": {"sigma": "0.1"}},
         "snapshot time 0.07 is not a multiple of tau=0.05 within [0, T]"),
        ("table1", T1_SECTIONS, {"time": {"t_final": "1"}, "table1": {"tau_list": "0.5, 0.3"}},
         "T=1.0 is not an integral multiple of tau=0.3")], ids=["run", "table1"])
    def test_off_grid_time_builds_no_scheme(self, tmp_path, capsys, monkeypatch, command,
                                            base, sections, message):
        # the time grid is checked before any scheme: table1 checks every tau
        # before its first order
        from stochsem import cli

        def forbidden(*args, **kwargs):
            raise AssertionError("scheme built before the time grid was checked")

        monkeypatch.setattr(cli, "build_scheme", forbidden)
        cfg = write(tmp_path, ini(base, **sections))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command,section,key", [("run", "time", "snapshot_times"),
                                                     ("evolve", "evolve", "times")])
    @pytest.mark.parametrize("sigma", ["0", "0.1"], ids=["noise_free", "noisy"])
    def test_snapshot_times_on_one_step(self, tmp_path, command, section, key, sigma):
        # two times that round to the same step (tau = 1/16) each get their
        # snapshot, and the two are equal
        sections = {"time": {"tau": "1/16", "t_final": "0.25"}, "noise": {"sigma": sigma},
                    "montecarlo": {"samples": "3"}, "output": {"grid_n": "5"},
                    "evolve": {"grid_n": "5"}}
        sections[section][key] = "0.125, 0.12500000001"
        cfg = write(tmp_path, ini(T2_SECTIONS, **sections))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        prefix = "snapshot" if command == "run" else "evolve"
        _, first = read_csv(out / f"{prefix}_000.csv")
        _, second = read_csv(out / f"{prefix}_001.csv")
        assert {r[0] for r in first} == {"0.125"} and {r[0] for r in second} == {"0.12500000001"}
        assert [r[1:] for r in first] == [r[1:] for r in second]

    @pytest.mark.parametrize("key,value", [("sigma", "inf"), ("decay_exponent", "inf"),
                                           ("decay_exponent", "nan")])
    def test_nonfinite_noise_parameter_exit_2(self, tmp_path, capsys, key, value):
        cfg = write(tmp_path, ini(T2_SECTIONS, noise={"sigma": "0.1", key: value},
                                  montecarlo={"samples": "2"}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert (f"config error: [noise] {key} = {value} must be finite"
                in capsys.readouterr().err)
        assert not (out / "final_state.csv").exists()

    @pytest.mark.parametrize("key,value", [("prefactor", "nan"), ("prefactor", "inf"),
                                           ("wp", "inf"), ("wp", "nan")])
    @pytest.mark.parametrize("sections", [T1_SECTIONS, T2_SECTIONS],
                             ids=["test1", "test2_smooth"])
    def test_nonfinite_nonlinearity_strength_exit_2(self, tmp_path, capsys, sections,
                                                    key, value):
        cfg = write(tmp_path, ini(sections, problem={key: value}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: coefficient wp must be finite" in capsys.readouterr().err
        assert not (out / "final_state.csv").exists()

    @pytest.mark.parametrize("command", ["run", "evolve"])
    def test_noise_free_study_computes_no_energy(self, tmp_path, monkeypatch, command):
        from stochsem import timestepper
        calls, real = [], timestepper.energy_norm

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(timestepper, "energy_norm", counting)
        cfg = write(tmp_path, ini(T2_SECTIONS, time={"tau": "0.05", "t_final": "0.1",
                                                     "snapshot_times": "0.05"}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert calls == []

    def test_determinism_identical_checksums(self, tmp_path):
        cfg = write(tmp_path, BASE_T1)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert checksums(out1) == checksums(out2)

    def test_resolved_config_reruns_identically(self, tmp_path):
        cfg = write(tmp_path, BASE_T1)
        out1 = tmp_path / "o1"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        out2 = tmp_path / "o2"
        assert main(["run", "--config", str(out1 / "resolved_config.ini"),
                     "--out", str(out2)]) == 0
        c1, c2 = checksums(out1), checksums(out2)
        del c1["resolved_config.ini"], c2["resolved_config.ini"]   # embeds out dir
        assert c1 == c2

    def test_snapshots_written(self, tmp_path):
        cfg = write(tmp_path, ini(T1_SECTIONS,
                                  time={"tau": "1/8", "t_final": "0.25",
                                        "snapshot_times": "0.0, 0.25"}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "snapshot_000.csv").exists()
        assert (out / "snapshot_001.csv").exists()


class TestGridRows:
    def test_rows_equal_per_field_evaluate_grid(self, rng):
        # grid_rows evaluates every field on one set of tables; evaluate_grid,
        # one call per field, is the oracle
        mesh, basis = make_discretization(parse_config(
            ini(T1_SECTIONS, mesh={"nex": "2", "ney": "1", "order": "6"})))
        fields = [rng.standard_normal(mesh.n_global) for _ in range(3)]
        header, rows = grid_rows(mesh, basis, fields, 7, ["u", "v", "w"])
        xs = np.linspace(0.0, 1.0, 7)
        grids = [evaluate_grid(mesh, basis, f, xs, xs) for f in fields]
        assert header == ["x", "y", "u", "v", "w"]
        assert rows == [[float(x), float(y)] + [float(g[i, j]) for g in grids]
                        for i, x in enumerate(xs) for j, y in enumerate(xs)]


class TestFlagsAndEnv:
    def test_seed_flag_overrides(self, tmp_path):
        cfg = write(tmp_path, ini(T2_SECTIONS, noise={"sigma": "0.1", "seed": "1"},
                                  montecarlo={"samples": "2"}))
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out), "--seed", "77"])
        assert manifest(out)["config"]["noise"]["seed"] == 77

    def test_workers_flag_overrides(self, tmp_path):
        cfg = write(tmp_path, ini(T2_SECTIONS, noise={"sigma": "0.1"},
                                  montecarlo={"samples": "4"}))
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out), "--workers", "2"])
        assert manifest(out)["config"]["montecarlo"]["workers"] == 2

    @pytest.mark.parametrize("flag,value,key", [("--workers", "0", "[montecarlo] workers = 0"),
                                                ("--seed", "-1", "[noise] seed = -1"),
                                                ("--seed", str(2**64), f"[noise] seed = {2**64}")])
    def test_flag_out_of_range_exit_2(self, tmp_path, capsys, flag, value, key):
        # a flag goes through the same range check as its config key
        cfg = write(tmp_path, ini(T2_SECTIONS, noise={"sigma": "0.1"},
                                  montecarlo={"samples": "2"}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), flag, value]) == 2
        assert f"config error: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, BASE_T1)
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("STOCHSEM_OUT", str(env_out))
        assert main(["run", "--config", str(cfg)]) == 0
        assert (env_out / "manifest.json").exists()

    def test_out_flag_beats_env(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, BASE_T1)
        monkeypatch.setenv("STOCHSEM_OUT", str(tmp_path / "env_out"))
        flag_out = tmp_path / "flag_out"
        main(["run", "--config", str(cfg), "--out", str(flag_out)])
        assert (flag_out / "manifest.json").exists()
        assert not (tmp_path / "env_out").exists()


class TestMakeProblem:
    def test_delta_takes_the_configured_bump(self):
        cfg = parse_config(ini(T2_SECTIONS, problem={
            "kind": "test2_delta", "delta_center_x": "0.25", "delta_center_y": "0.625",
            "delta_width": "0.1"}))
        spec = make_problem(cfg)
        want = make_test2("delta", delta_center=(0.25, 0.625), delta_width=0.1)
        assert spec.name == want.name == "test2_delta"
        x, y = np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 7), indexing="ij")
        for got, ref in zip(spec.init, want.init):
            assert np.array_equal(got(x, y), ref(x, y))
        assert not np.array_equal(spec.init[0](x, y), make_test2("delta").init[0](x, y))

    @pytest.mark.parametrize("wp", ["0.0", "1.2"])
    def test_test1_wp_override_keeps_manufactured_solution(self, wp):
        # the forcings must be rebuilt for the overridden strength, or the
        # error against the exact solution stalls instead of falling ~4x
        cfg = parse_config(ini(T1_SECTIONS, problem={"kind": "test1", "wp": wp},
                               mesh={"nex": "2", "ney": "2", "order": "10"}))
        spec = make_problem(cfg)
        assert spec.wp == pytest.approx(float(wp), rel=1e-15)
        mesh, basis = make_discretization(cfg)
        errs = [error_report(run(spec, mesh, basis, tau, 1.0, record_reports=False).final,
                             spec.exact, mesh, basis).linf_sum for tau in (1 / 32, 1 / 64)]
        assert 3.5 <= errs[0] / errs[1] <= 4.5


class TestTable1Command:
    def test_rows_and_orders(self, tmp_path):
        cfg = write(tmp_path, ini(T1_SECTIONS,
                                  table1={"tau_list": "1/8, 1/16", "n_list": "5"}))
        out = tmp_path / "out"
        assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "table1_N5.csv")
        assert header == ["tau", "linf_u", "linf_v", "linf_w", "linf_sum", "order"]
        assert len(rows) == 2
        assert rows[0][5] == ""
        assert 1.5 <= float(rows[1][5]) <= 2.3

    def test_single_tau_empty_order(self, tmp_path):
        cfg = write(tmp_path, ini(T1_SECTIONS,
                                  table1={"tau_list": "1/8", "n_list": "4"}))
        out = tmp_path / "out"
        assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "table1_N4.csv")
        assert len(rows) == 1 and rows[0][5] == ""

    def test_wallclock_marked_volatile(self, tmp_path):
        cfg = write(tmp_path, ini(T1_SECTIONS,
                                  table1={"tau_list": "1/8", "n_list": "4"}))
        out = tmp_path / "out"
        main(["table1", "--config", str(cfg), "--out", str(out)])
        m = manifest(out)
        assert m["outputs"]["table1_N4_wallclock.csv"]["volatile"] is True
        assert m["outputs"]["table1_N4.csv"]["volatile"] is False

    @pytest.mark.parametrize("key,value", [("tau_list", "1/8, 0"), ("tau_list", ""),
                                           ("n_list", "")])
    def test_bad_list_exit_2(self, tmp_path, capsys, key, value):
        cfg = write(tmp_path, ini(T1_SECTIONS, table1={key: value}))
        out = tmp_path / "out"
        assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: [table1] {key} = " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value,shown,order", [
        ("n_list", "4, 4", "[4, 4]", "ascending"), ("n_list", "6, 4", "[6, 4]", "ascending"),
        ("tau_list", "1/8, 1/8", "[0.125, 0.125]", "descending"),
        ("tau_list", "1/16, 1/8", "[0.0625, 0.125]", "descending")])
    def test_lists_must_be_strictly_ordered(self, tmp_path, capsys, key, value, shown, order):
        # a repeated order overwrote table1_N4.csv, a repeated tau wrote an order of 0.0
        cfg = write(tmp_path, ini(T1_SECTIONS, table1={key: value}))
        out = tmp_path / "out"
        assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 2
        assert (f"config error: [table1] {key} = {shown} must be strictly {order}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_requires_test1(self, tmp_path):
        cfg = write(tmp_path, BASE_T2)
        assert main(["table1", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2


class TestSpatialCommand:
    def test_deterministic_curve(self, tmp_path):
        cfg = write(tmp_path, ini(T1_SECTIONS,
                                  spatial={"n_list": "4, 6, 8", "tau": "1e-3"},
                                  time={"tau": "1e-3", "t_final": "0.05"}))
        out = tmp_path / "out"
        assert main(["spatial", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "spatial.csv")
        assert header == ["n", "tau", "l2_sum", "linf_sum", "hw_sum", "reference"]
        assert [r[0] for r in rows] == ["4", "6", "8"]
        assert rows[0][5] == "exact"
        errs = [float(r[3]) for r in rows]
        assert errs[0] > errs[1] > errs[2]   # spectral decay, far from floor

    def test_single_point_curve(self, tmp_path):
        cfg = write(tmp_path, ini(T1_SECTIONS,
                                  spatial={"n_list": "4", "tau": "1e-3"},
                                  time={"tau": "1e-3", "t_final": "0.01"}))
        out = tmp_path / "out"
        assert main(["spatial", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "spatial.csv")
        assert len(rows) == 1

    def test_unordered_n_list_rejected(self, tmp_path):
        cfg = write(tmp_path, ini(T1_SECTIONS,
                                  spatial={"n_list": "8, 4"},
                                  time={"tau": "1e-3", "t_final": "0.01"}))
        assert main(["spatial", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("n_list", ["4, 4", "6, 4"])
    def test_n_list_must_strictly_ascend(self, tmp_path, capsys, n_list):
        cfg = write(tmp_path, ini(T1_SECTIONS, spatial={"n_list": n_list}))
        out = tmp_path / "o"
        assert main(["spatial", "--config", str(cfg), "--out", str(out)]) == 2
        assert (f"config error: [spatial] n_list = [{n_list}] must be strictly ascending"
                in capsys.readouterr().err)
        assert not (out / "spatial.csv").exists()

    # noisy Test 2 has no exact solution: the reference is the ensemble mean
    # at [reference] order, on the same noise paths
    NOISY_T2 = dict(mesh={"nex": "1", "ney": "1"}, time={"t_final": "0.005"},
                    noise={"sigma": "0.1", "truncation": "3"}, montecarlo={"samples": "4"},
                    reference={"order": "8"}, spatial={"tau": "1e-3", "n_list": "4, 6"})

    def test_noisy_curve_against_a_reference_order(self, tmp_path):
        cfg = write(tmp_path, ini(T2_SECTIONS, **self.NOISY_T2))
        out = tmp_path / "out"
        assert main(["spatial", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "spatial.csv")
        assert [(r[0], r[5]) for r in rows] == [("4", "order8"), ("6", "order8")]

    def test_noisy_curve_requires_common_random_numbers(self, tmp_path, capsys):
        sections = dict(self.NOISY_T2, reference={"order": "8", "common_random_numbers": "false"})
        cfg = write(tmp_path, ini(T2_SECTIONS, **sections))
        out = tmp_path / "out"
        assert main(["spatial", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("config error: spatial curves with noise require [reference] "
                "common_random_numbers = true" in capsys.readouterr().err)
        assert not (out / "spatial.csv").exists()

    def test_bad_spatial_tau_rejected(self, tmp_path):
        cfg = write(tmp_path, ini(T1_SECTIONS, spatial={"tau": "0.01"}))
        assert main(["spatial", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2


class TestEvolveCommand:
    def test_snapshot_grids(self, tmp_path):
        cfg = write(tmp_path, ini(T2_SECTIONS,
                                  evolve={"times": "0.0, 0.1", "grid_n": "21"}))
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        _, index_rows = read_csv(out / "evolve_times.csv")
        assert len(index_rows) == 2
        header, rows = read_csv(out / "evolve_000.csv")
        assert header == ["t", "x", "y", "u"]
        assert len(rows) == 21 * 21
        # t=0 grid equals the analytic initial profile x(1-x)y(1-y)
        worst = max(abs(float(u) - (float(x) * (1 - float(x)) * float(y) * (1 - float(y))))
                    for _, x, y, u in rows)
        assert worst <= 1e-6
        # boundary values vanish
        for _, x, y, u in rows:
            if float(x) in (0.0, 1.0) or float(y) in (0.0, 1.0):
                assert abs(float(u)) <= 1e-12

    def test_requires_test2(self, tmp_path):
        cfg = write(tmp_path, BASE_T1)
        assert main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_empty_times_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, ini(T2_SECTIONS, evolve={"times": ""}))
        out = tmp_path / "o"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("config error: [evolve] times = [] must be all finite and non-empty"
                in capsys.readouterr().err)
        assert not (out / "evolve_times.csv").exists()

    def test_times_within_horizon(self, tmp_path):
        cfg = write(tmp_path, ini(T2_SECTIONS, evolve={"times": "0.0, 0.5"}))
        assert main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2


class TestSpectrumDump:
    def test_table(self, tmp_path):
        for J in (5, 3):
            cfg = write(tmp_path, ini(T2_SECTIONS, noise={"truncation": str(J)}),
                        name=f"J{J}.ini")
            out = tmp_path / f"out{J}"
            assert main(["spectrum-dump", "--config", str(cfg), "--out", str(out)]) == 0
            header, rows = read_csv(out / "spectrum.csv")
            assert header == ["j", "k", "q"]
            assert len(rows) == J * J
            qs = [float(r[2]) for r in rows]
            assert qs == sorted(qs, reverse=True)
            assert qs[0] == 0.25        # q_11 = 2^-2 at the default decay exponent
            # the bytes csv.writer gives for the header and rows (j, k, repr(q))
            want = io.StringIO()
            writer = csv.writer(want)
            writer.writerow(["j", "k", "q"])
            writer.writerows((j, k, repr(q)) for j, k, q in spectrum(QWienerSampler(truncation=J)))
            assert (out / "spectrum.csv").read_bytes() == want.getvalue().encode()
