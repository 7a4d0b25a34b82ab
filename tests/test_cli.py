"""Command-line surface: exit codes, file artifacts, overrides, manifests."""

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sesvqe
from sesvqe import cli, vqe
from sesvqe import hamiltonian as ham


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_chain(tmp_path, n=2, name="h.json", **kwargs):
    path = tmp_path / name
    rc = cli.main(
        [
            "gen",
            "--family",
            "chain",
            "--n-sites",
            str(n),
            "--out",
            str(path),
            *[str(x) for pair in kwargs.items() for x in (f"--{pair[0]}", pair[1])],
        ]
    )
    assert rc == 0
    return path


class TestGen:
    def test_chain_artifacts(self, tmp_path, capsys):
        out = tmp_path / "chain4.json"
        rc = cli.main(
            ["gen", "--family", "chain", "--n-sites", "4", "--out", str(out)]
        )
        assert rc == 0
        h = ham.load_hamiltonian(out)
        want = sorted(2.0 * np.cos(k * np.pi / 5.0) for k in range(1, 5))
        np.testing.assert_allclose(h.spectrum, want, atol=1e-12)

        stdout = capsys.readouterr().out
        assert "wrote" in stdout
        assert "ground energy" in stdout
        assert f"{want[0]:.12g}" in stdout

        manifest = read_json(str(out) + ".manifest.json")
        assert manifest["format"] == "sesvqe-manifest/1"
        assert manifest["command"][0] == "sesvqe"
        assert manifest["command"][1] == "gen"
        assert str(out) in manifest["outputs"]

    def test_manifest_names_the_package_version(self, tmp_path):
        # from a checkout no distribution metadata exists; the package's own
        # version string is the one home of the version
        path = write_chain(tmp_path)
        manifest = read_json(str(path) + ".manifest.json")
        assert manifest["package_version"] == sesvqe.__version__

    def test_parser_is_built_once_and_reused(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        # a refused call leaves the shared parser fit for the next one
        assert cli.main(["gen", "--family", "chain"]) == 1
        assert "usage error" in capsys.readouterr().err
        write_chain(tmp_path)

    def test_instance_files_are_reproducible(self, tmp_path):
        a = write_chain(tmp_path, 6, "a.json", disorder="1.5", seed="9")
        b = write_chain(tmp_path, 6, "b.json", disorder="1.5", seed="9")
        assert a.read_bytes() == b.read_bytes()
        c = write_chain(tmp_path, 6, "c.json", disorder="1.5", seed="10")
        assert c.read_bytes() != a.read_bytes()

    def test_random_family_records_meta(self, tmp_path):
        out = tmp_path / "rh.json"
        rc = cli.main(
            [
                "gen",
                "--family",
                "random_hermitian",
                "--n-sites",
                "3",
                "--scale",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert read_json(out)["meta"] == {
            "family": "random_hermitian",
            "seed": 0,
            "scale": 0.5,
        }

    def test_zero_sites_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        rc = cli.main(["gen", "--family", "chain", "--n-sites", "0", "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_unknown_family(self, tmp_path, capsys):
        rc = cli.main(["gen", "--family", "kagome", "--n-sites", "4"])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    def test_output_dir_env(self, tmp_path, monkeypatch, capsys):
        workdir = tmp_path / "runs"
        monkeypatch.setenv("SESVQE_OUTPUT_DIR", str(workdir))
        rc = cli.main(["gen", "--family", "chain", "--n-sites", "2"])
        assert rc == 0
        assert (workdir / "hamiltonian.json").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["gen", "--n-sites", "4097"], "error: n_sites must be an integer from 1 to 4096, got 4097"),
        (["gen", "--n-sites", "1000000"], "error: n_sites must be an integer from 1 to 4096, got 1000000"),
        (["gen", "--n-sites", "4", "--disorder", "inf"], "error: disorder must be a number from 0 to"),
        (["gen", "--n-sites", "4", "--disorder", "1e308"], "error: disorder must be a number from 0 to"),
        (["gen", "--n-sites", "4", "--disorder", "-0.5"], "error: disorder must be a number from 0 to"),
        (["gen", "--n-sites", "4", "--seed", "-1"], "seed must be an integer >= 0"),
        (["reconstruct", "--shots", "100", "--seed", "-1"], "seed must be an integer >= 0"),
    ],
)
def test_unrunnable_input_is_refused_before_writing(tmp_path, capsys, argv, message):
    # each once wrote a file that cannot be loaded, or ended in a traceback
    inputs = tmp_path / "in"
    inputs.mkdir()
    h_path = write_chain(inputs, 4)
    (inputs / "amps.json").write_text(json.dumps({"amplitudes": [[0.5, 0.0]] * 4}))
    source = {
        "gen": ["--family", "chain"],
        "reconstruct": ["--hamiltonian", str(h_path), "--protocol", "original",
                        "--amplitudes", str(inputs / "amps.json")],
    }
    out = tmp_path / "out" / "result.json"
    capsys.readouterr()
    assert cli.main([argv[0], *source[argv[0]], *argv[1:], "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.parent.exists()


class TestSolve:
    def make_config(self, tmp_path, n=2, name="solve.json", **extra):
        ham_path = write_chain(tmp_path, n)
        doc = {"hamiltonian": ham_path.name, "max_evaluations": 300, **extra}
        cfg = tmp_path / name
        cfg.write_text(json.dumps(doc))
        return cfg

    def test_two_site_run(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        rc = cli.main(
            [
                "solve",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--trace-csv",
                str(trace),
            ]
        )
        assert rc == 0
        report = read_json(out)
        assert report["format"] == "sesvqe-solve-report/1"
        assert report["status"] == "converged"
        assert report["relative_error"] < 1e-6
        assert report["n_sites"] == 2
        assert len(report["best_params"]) == 2
        assert report["exact_ground"] == pytest.approx(-1.0, abs=1e-12)

        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["evaluation", "energy", "best_so_far"]
        assert len(rows) - 1 == report["evaluations_used"]

        manifest = read_json(str(out) + ".manifest.json")
        assert str(trace) in manifest["outputs"]
        assert "converged: best" in capsys.readouterr().out

    def test_budget_exhaustion_exit_code(self, tmp_path):
        cfg = self.make_config(tmp_path, name="tight.json")
        out = tmp_path / "tight_report.json"
        rc = cli.main(
            [
                "solve",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--max-evaluations",
                "1",
            ]
        )
        assert rc == 2
        report = read_json(out)
        assert report["status"] == "non_converged"
        assert report["evaluations_used"] == 1

    def test_reruns_are_bit_identical(self, tmp_path):
        cfg = self.make_config(
            tmp_path, n=4, name="det.json", seed=5, max_evaluations=2000
        )
        t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        for trace in (t1, t2):
            rc = cli.main(
                [
                    "solve",
                    "--config",
                    str(cfg),
                    "--out",
                    str(tmp_path / f"{trace.stem}.json"),
                    "--trace-csv",
                    str(trace),
                ]
            )
            assert rc == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_malformed_config_names_the_key(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, name="bad.json", shots="fast")
        rc = cli.main(["solve", "--config", str(cfg)])
        assert rc == 1
        assert "shots" in capsys.readouterr().err

    def test_missing_hamiltonian_key(self, tmp_path, capsys):
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({"max_evaluations": 10}))
        rc = cli.main(["solve", "--config", str(cfg)])
        assert rc == 1
        assert "hamiltonian" in capsys.readouterr().err

    def test_nonexistent_config(self, tmp_path, capsys):
        rc = cli.main(["solve", "--config", str(tmp_path / "nope.json")])
        assert rc == 1

    def test_shots_override_paths(self, tmp_path, capsys):
        cfg = self.make_config(
            tmp_path,
            name="spsa.json",
            optimizer="spsa",
            protocol="original",
            shots=200,
            max_evaluations=150,
        )
        out = tmp_path / "spsa_report.json"

        # digits: replace the shot count
        rc = cli.main(
            ["solve", "--config", str(cfg), "--out", str(out), "--shots", "400"]
        )
        assert rc in (0, 2)
        assert read_json(out)["shots"] == 400

        # 'exact': drop to the noiseless protocol route
        rc = cli.main(
            ["solve", "--config", str(cfg), "--out", str(out), "--shots", "exact"]
        )
        assert rc in (0, 2)
        assert read_json(out)["shots"] is None

        # anything else: usage error
        rc = cli.main(
            ["solve", "--config", str(cfg), "--out", str(out), "--shots", "many"]
        )
        assert rc == 1
        assert "--shots" in capsys.readouterr().err

    def test_shot_count_past_two_to_the_53_refused(self, tmp_path, capsys):
        # estimates count outcomes in float64; a larger count once reached the
        # multinomial draw and ended in an OverflowError traceback
        cfg = self.make_config(tmp_path, n=4, name="huge.json", ansatz="binary_ses", protocol="binary",
                               optimizer="spsa", shots=10**30)
        assert cli.main(["solve", "--config", str(cfg)]) == 1
        assert "shots must be an integer >= 1" in capsys.readouterr().err
        amp_path = tmp_path / "amps.json"
        amp_path.write_text(json.dumps({"amplitudes": [[0.5, 0.0]] * 4}))
        rc = cli.main(["reconstruct", "--hamiltonian", str(tmp_path / "h.json"), "--protocol", "binary",
                       "--amplitudes", str(amp_path), "--shots", str(10**30)])
        assert rc == 1
        assert "shots must be an integer >= 1" in capsys.readouterr().err

    def test_shots_override_rejected_for_simplex(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, name="simplex.json", protocol="original")
        rc = cli.main(["solve", "--config", str(cfg), "--shots", "100"])
        assert rc == 1
        assert "spsa" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "optimizer",
        [{"name": "simplex", "visit_cap": 60}, {"name": "spsa", "a": 0.3}, {}, 3],
    )
    def test_unknown_optimizer_option_rejected(self, tmp_path, capsys, optimizer):
        # the optimizers run at fixed settings: an object holds only the name
        cfg = self.make_config(tmp_path, name="opts.json", optimizer=optimizer)
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "config error: config key 'optimizer'" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_optimizer_object_runs_as_its_name(self, tmp_path):
        traces = []
        for name, optimizer in (("object", {"name": "spsa"}), ("name", "spsa")):
            cfg = self.make_config(tmp_path, n=4, name=f"{name}.json", protocol="original", shots=100,
                                   optimizer=optimizer, max_evaluations=60, seed=3)
            trace = tmp_path / f"{name}.csv"
            argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / f"{name}.report.json")]
            assert cli.main([*argv, "--trace-csv", str(trace)]) in (0, 2)
            traces.append(trace.read_bytes())
        assert traces[0] == traces[1]

    def test_misspelled_keys_refused_before_the_hamiltonian_loads(self, tmp_path, capsys, monkeypatch):
        # the misspellings once ran the default simplex under the default budget
        monkeypatch.setattr(cli, "load_hamiltonian", None)  # any load would fail
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"hamiltonian": "h.json", "max_evaluation": 7, "optimiser": "spsa"}))
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error: unknown config key(s) ['max_evaluation', 'optimiser']" in err
        assert "known: " + ", ".join(cli.SOLVE_CONFIG_KEYS) in err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("value", [5, None, ["a"]])
    def test_non_string_hamiltonian_refused_before_the_hamiltonian_loads(self, tmp_path, capsys, monkeypatch, value):
        # these once ended in a TypeError traceback from Path(...)
        monkeypatch.setattr(cli, "load_hamiltonian", None)  # any load would fail
        cfg = tmp_path / "ham.json"
        cfg.write_text(json.dumps({"hamiltonian": value}))
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"config error: config key 'hamiltonian': expected a file path string, got {value!r}" in err
        assert not (tmp_path / "o.json").exists()

    @staticmethod
    def documented_rows():
        """(key, default) cells of the solve-configuration table in docs/formats.md."""
        text = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
        section = text.split("## Solve configuration")[1].split("\n## ")[0]
        rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
        return [(key.strip().strip("`"), default.strip().strip("`")) for key, default in rows]

    def test_known_keys_are_the_documented_ones(self):
        assert tuple(key for key, _ in self.documented_rows()) == cli.SOLVE_CONFIG_KEYS

    def test_documented_defaults_are_the_config_defaults(self):
        fields = {f.name: f.default for f in dataclasses.fields(vqe.VqeConfig)}
        assert fields["hamiltonian"] is dataclasses.MISSING
        for key, default in self.documented_rows():
            want = "required" if key == "hamiltonian" else json.dumps(fields[key])
            assert default == want, key

    def test_config_values_come_from_the_file_or_the_defaults(self, tmp_path):
        write_chain(tmp_path, 4)

        def loaded(doc):
            (tmp_path / "c.json").write_text(json.dumps({"hamiltonian": "h.json", **doc}))
            config = cli.load_solve_config(tmp_path / "c.json", {})
            return {key: getattr(config, key) for key in cli.SOLVE_CONFIG_KEYS[1:]}

        defaults = {f.name: f.default for f in dataclasses.fields(vqe.VqeConfig)[1:]}
        assert loaded({}) == defaults
        assert loaded({"shots": "exact", "optimizer": None, "penalty": "default"}) == defaults
        full = {"ansatz": "hardware_efficient", "protocol": "binary", "shots": 50, "optimizer": {"name": "spsa"},
                "max_evaluations": 9, "seed": 4, "penalty": {"c_p": 7}, "layers": 3, "epsilon": 0.25}
        values = loaded(full)
        assert values == {**full, "optimizer": "spsa", "penalty": 7.0}
        assert type(values["penalty"]) is float

    def test_non_integer_shots_refused(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, name="shots.json", protocol="original", optimizer="spsa", shots=2.5)
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 1
        assert "config error: shots must be an integer >= 1 and <= 2^53, got 2.5" in capsys.readouterr().err

    @pytest.mark.parametrize("c_p", [0, -2.5, float("inf")])
    def test_penalty_c_p_must_be_positive_and_finite(self, tmp_path, capsys, c_p):
        # refused by VqeConfig before the solve starts, as a config error
        cfg = self.make_config(tmp_path, n=4, name="pen.json", ansatz="hardware_efficient", penalty={"c_p": c_p})
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 1
        assert f"config error: penalty c_p must be positive and finite, got {float(c_p)}" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("key,value", [("seed", 1.5), ("max_evaluations", 10.5), ("layers", True)])
    def test_non_integer_count_rejected(self, tmp_path, capsys, key, value):
        cfg = self.make_config(tmp_path, name="count.json", ansatz="hardware_efficient",
                               protocol="binary", **{key: value})
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert f"config error: {key} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("epsilon", ["x", -1.0, float("nan"), float("inf")])
    def test_bad_epsilon_rejected(self, tmp_path, capsys, epsilon):
        cfg = self.make_config(tmp_path, name="eps.json", protocol="original", epsilon=epsilon)
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "config error: epsilon must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("c_p", [None, "5", True])
    def test_penalty_c_p_must_be_a_real_number(self, tmp_path, capsys, c_p):
        cfg = self.make_config(tmp_path, n=4, name="pen.json", ansatz="hardware_efficient",
                               penalty={"c_p": c_p})
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "config error: config key 'penalty': c_p must be a real number" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_non_physical_best_state_exits_2_with_a_warning(self, tmp_path, capsys, lifted_chain):
        ham.save_hamiltonian(lifted_chain, tmp_path / "lifted.json")
        cfg = tmp_path / "low-penalty.json"
        cfg.write_text(json.dumps({
            "hamiltonian": "lifted.json", "ansatz": "hardware_efficient", "penalty": {"c_p": 10}, "seed": 0,
        }))
        out = tmp_path / "report.json"
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "warning: non-physical-state" in captured.err
        assert captured.out.startswith("non_physical:")
        report = read_json(out)
        assert report["status"] == "non_physical"
        assert report["diagnostics"]["warnings"] == ["non-physical-state"]
        assert report["diagnostics"]["physical_weight"] < 0.99


EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def with_entry_field(doc, field, value):
    """``doc`` with field ``field`` of its second entry (the (0, 1) hopping) set to ``value``."""
    doc["entries"][1][field] = value
    return doc


class TestReconstruct:
    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_rejected(self, tmp_path, capsys, epsilon):
        out = tmp_path / "rec.json"
        rc = cli.main([
            "reconstruct", "--hamiltonian", str(EXAMPLES / "hamiltonian.json"),
            "--protocol", "original", "--params", str(EXAMPLES / "params.json"),
            f"--epsilon={epsilon}", "--out", str(out),
        ])
        assert rc == 1
        assert "epsilon must be a finite number >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "corrupt,match",
        [
            (lambda doc: {**doc, "n_sites": 4.7}, "n_sites must be an integer"),
            (lambda doc: with_entry_field(doc, 0, 0.9), "row and column must be integers"),
            (lambda doc: with_entry_field(doc, 2, "1.0"), "re and im must be real numbers"),
            (lambda doc: with_entry_field(doc, 3, None), "re and im must be real numbers"),
            (lambda doc: [doc], "holds a JSON object"),
        ],
        ids=["n-sites-float", "index-float", "value-string", "value-null", "array-document"],
    )
    def test_malformed_hamiltonian_is_an_input_error(self, tmp_path, capsys, corrupt, match):
        ham_path = tmp_path / "h.json"
        ham_path.write_text(json.dumps(corrupt(read_json(EXAMPLES / "hamiltonian.json"))))
        out = tmp_path / "rec.json"
        rc = cli.main([
            "reconstruct", "--hamiltonian", str(ham_path), "--protocol", "original",
            "--params", str(EXAMPLES / "params.json"), "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and match in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "route,doc",
        [
            ("params", {"ansatz": "one_hot_ses", "n_sites": "4", "pairs": [0.1] * 6}),
            ("params", {"ansatz": "one_hot_ses", "n_sites": 0, "pairs": []}),
            ("amplitudes", {"amplitudes": [1, 0, 0, 0]}),
            ("amplitudes", {"amplitudes": [["1", "0"], ["0", "0"], ["0", "0"], ["0", "0"]]}),
            ("amplitudes", {"amplitudes": [[1, 0, 0], [0, 0], [0, 0], [0, 0]]}),
            ("params", {"ansatz": "one_hot_ses", "n_sites": 4, "pairs": ["0.1"] * 6}),
            # an int beyond the float range is no real number
            ("amplitudes", {"amplitudes": [[10**400, 0], [0, 0], [0, 0], [0, 0]]}),
            ("params", {"ansatz": "one_hot_ses", "n_sites": 4, "pairs": [10**400] + [0.1] * 5}),
        ],
    )
    def test_malformed_state_file_is_a_config_error(self, tmp_path, capsys, route, doc):
        ham_path = tmp_path / "h4.json"
        ham.save_hamiltonian(ham.chain_instance(4), ham_path)
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(doc))
        argv = ["reconstruct", "--hamiltonian", str(ham_path), "--protocol", "original"]
        assert cli.main(argv + [f"--{route}", str(state_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_amplitude_route_single_site(self, tmp_path, capsys):
        ham_path = tmp_path / "h3.json"
        h = ham.random_hermitian_instance(3, seed=2)
        ham.save_hamiltonian(h, ham_path)
        amp_path = tmp_path / "amps.json"
        amp_path.write_text(json.dumps({"amplitudes": [[0, 0], [0, 0], [1, 0]]}))
        out = tmp_path / "rec.json"
        rc = cli.main(
            [
                "reconstruct",
                "--hamiltonian",
                str(ham_path),
                "--protocol",
                "binary",
                "--amplitudes",
                str(amp_path),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = read_json(out)
        assert report["format"] == "sesvqe-reconstruction/3"
        assert report["energy"] == pytest.approx(h.matrix[2, 2].real, abs=1e-10)
        assert report["energy_error"] == pytest.approx(0.0, abs=1e-10)
        profile = report["diagnostics"]["profile"]
        assert profile["active"] == [False, False, True]
        assert "energy" in capsys.readouterr().out

    def test_params_route_matches_exact_energy(self, tmp_path):
        ham_path = tmp_path / "h4.json"
        h = ham.chain_instance(4, disorder=0.7, seed=3)
        ham.save_hamiltonian(h, ham_path)
        pairs = np.random.default_rng(4).uniform(-np.pi, np.pi, size=6)
        params_path = tmp_path / "params.json"
        params_path.write_text(
            json.dumps(
                {"ansatz": "one_hot_ses", "n_sites": 4, "pairs": list(pairs)}
            )
        )
        out = tmp_path / "rec.json"
        rc = cli.main(
            [
                "reconstruct",
                "--hamiltonian",
                str(ham_path),
                "--protocol",
                "original",
                "--params",
                str(params_path),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = read_json(out)
        assert abs(report["energy_error"]) < 1e-10

    def test_shot_bookkeeping(self, tmp_path):
        ham_path = tmp_path / "h4.json"
        ham.save_hamiltonian(ham.chain_instance(4), ham_path)
        amp = np.ones(4) / 2.0
        amp_path = tmp_path / "amps.json"
        amp_path.write_text(
            json.dumps({"amplitudes": [[float(a), 0.0] for a in amp]})
        )
        out = tmp_path / "rec.json"
        rc = cli.main(
            [
                "reconstruct",
                "--hamiltonian",
                str(ham_path),
                "--protocol",
                "binary",
                "--amplitudes",
                str(amp_path),
                "--shots",
                "100",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        diag = read_json(out)["diagnostics"]
        assert diag["shots_per_setting"] == 100
        assert len(diag["settings"]) == 5

    def test_shot_mode_original_runs_past_22_sites(self, tmp_path):
        # 23 sites: one past the widest register a run may allocate, which
        # one-hot shot mode does not need
        n = 23
        ham_path = tmp_path / "h23.json"
        ham.save_hamiltonian(ham.chain_instance(n), ham_path)
        amp_path = tmp_path / "amps.json"
        amp_path.write_text(json.dumps({"amplitudes": [[n**-0.5, 0.0]] * n}))
        out = tmp_path / "rec.json"
        rc = cli.main(
            [
                "reconstruct",
                "--hamiltonian",
                str(ham_path),
                "--protocol",
                "original",
                "--amplitudes",
                str(amp_path),
                "--shots",
                "100",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        diag = read_json(out)["diagnostics"]
        assert (diag["shots_per_setting"], diag["settings"]) == (100, ["MZ", "MXX", "MXY"])
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({
            "hamiltonian": ham_path.name, "ansatz": "one_hot_ses", "protocol": "original",
            "optimizer": {"name": "spsa"}, "shots": 100, "max_evaluations": 4,
        }))
        report = tmp_path / "report.json"
        # 2 is a finished solve that did not converge: four evaluations are its budget
        assert cli.main(["solve", "--config", str(cfg), "--out", str(report)]) == 2
        assert read_json(report)["evaluations_used"] == 4

    @pytest.mark.parametrize("shots", [None, 100])
    def test_amplitudes_within_the_format_tolerance_run_in_both_modes(self, tmp_path, shots):
        # a norm error of 2e-8 is inside the format's 1e-6, but shot sampling
        # checks the norm to 1e-10 and once refused this file
        doc = read_json(EXAMPLES / "amplitudes.json")
        doc["amplitudes"] = [[re * (1 + 1e-8), im * (1 + 1e-8)] for re, im in doc["amplitudes"]]
        amp_path = tmp_path / "scaled.json"
        amp_path.write_text(json.dumps(doc))
        reports = []
        for path in (EXAMPLES / "amplitudes.json", amp_path):
            out = tmp_path / f"{path.stem}.report.json"
            argv = ["reconstruct", "--hamiltonian", str(EXAMPLES / "hamiltonian.json"), "--protocol", "original",
                    "--amplitudes", str(path), "--out", str(out)]
            assert cli.main(argv + ([] if shots is None else ["--shots", str(shots)])) == 0
            reports.append(read_json(out))
        assert reports[1]["energy"] == pytest.approx(reports[0]["energy"], abs=1e-12)
        assert reports[1]["exact_energy_of_input"] == pytest.approx(reports[0]["exact_energy_of_input"], abs=1e-12)

    def test_unnormalized_amplitudes_rejected(self, tmp_path, capsys):
        ham_path = tmp_path / "h2.json"
        ham.save_hamiltonian(ham.chain_instance(2), ham_path)
        amp_path = tmp_path / "amps.json"
        amp_path.write_text(json.dumps({"amplitudes": [[1, 0], [1, 0]]}))
        rc = cli.main(
            [
                "reconstruct",
                "--hamiltonian",
                str(ham_path),
                "--protocol",
                "original",
                "--amplitudes",
                str(amp_path),
            ]
        )
        assert rc == 1
        assert "normalized" in capsys.readouterr().err

    @pytest.mark.parametrize("ansatz,protocol", [("binary_ses", "binary"), ("one_hot_ses", "original")])
    def test_non_finite_params_rejected(self, tmp_path, capsys, ansatz, protocol):
        ham_path = tmp_path / "h4.json"
        ham.save_hamiltonian(ham.chain_instance(4), ham_path)
        params_path = tmp_path / "params.json"
        pairs = [0.3, 0.1, float("nan"), 0.2, 0.5, 0.4]
        params_path.write_text(json.dumps({"ansatz": ansatz, "n_sites": 4, "pairs": pairs}))
        out = tmp_path / "rec.json"
        argv = ["reconstruct", "--hamiltonian", str(ham_path), "--protocol", protocol]
        rc = cli.main(argv + ["--params", str(params_path), "--out", str(out)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_nested_params_rejected(self, tmp_path, capsys):
        # ``pairs`` is the flat list of 2(N-1) angles; (beta, gamma) rows are refused
        ham_path = tmp_path / "h4.json"
        ham.save_hamiltonian(ham.chain_instance(4), ham_path)
        params_path = tmp_path / "params.json"
        pairs = [[0.3, 0.1], [0.7, 0.2], [0.5, 0.4]]
        params_path.write_text(json.dumps({"ansatz": "one_hot_ses", "n_sites": 4, "pairs": pairs}))
        out = tmp_path / "rec.json"
        argv = ["reconstruct", "--hamiltonian", str(ham_path), "--protocol", "original"]
        assert cli.main(argv + ["--params", str(params_path), "--out", str(out)]) == 1
        assert "expected 6 parameters (beta,gamma pairs), got shape (3, 2)" in capsys.readouterr().err
        assert not out.exists()

    def test_params_of_the_wrong_length_are_a_config_error(self, tmp_path, capsys):
        # once a bare "error:" line from the circuit builder
        ham_path = tmp_path / "h4.json"
        ham.save_hamiltonian(ham.chain_instance(4), ham_path)
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"ansatz": "one_hot_ses", "n_sites": 4, "pairs": [0.1] * 5}))
        out = tmp_path / "rec.json"
        argv = ["reconstruct", "--hamiltonian", str(ham_path), "--protocol", "original"]
        assert cli.main(argv + ["--params", str(params_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: params key 'pairs': expected 6 parameters (beta,gamma pairs), got shape (5,)"
        )
        assert not out.exists()

    def test_non_finite_amplitudes_rejected(self, tmp_path, capsys):
        ham_path = tmp_path / "h2.json"
        ham.save_hamiltonian(ham.chain_instance(2), ham_path)
        amp_path = tmp_path / "amps.json"
        amp_path.write_text(json.dumps({"amplitudes": [[1, 0], [float("nan"), 0]]}))
        argv = ["reconstruct", "--hamiltonian", str(ham_path), "--protocol", "original"]
        assert cli.main(argv + ["--amplitudes", str(amp_path)]) == 1
        assert "finite" in capsys.readouterr().err

    def test_size_mismatch_rejected(self, tmp_path):
        ham_path = tmp_path / "h3.json"
        ham.save_hamiltonian(ham.chain_instance(3), ham_path)
        amp_path = tmp_path / "amps.json"
        amp_path.write_text(json.dumps({"amplitudes": [[1, 0], [0, 0]]}))
        rc = cli.main(
            [
                "reconstruct",
                "--hamiltonian",
                str(ham_path),
                "--protocol",
                "original",
                "--amplitudes",
                str(amp_path),
            ]
        )
        assert rc == 1


class TestResources:
    def test_small_table(self, capsys):
        rc = cli.main(["resources", "--n-sites", "2"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "strategy" in stdout
        assert "original" in stdout

    def test_kilosite_report(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        rc = cli.main(["resources", "--n-sites", "1024", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "1048.6" in stdout
        assert "10^3" in stdout
        doc = read_json(out)
        assert doc["format"] == "sesvqe-resources/1"
        assert doc["constants_free_ratios"]["binary_hardware_efficient"] == pytest.approx(
            1048.576
        )
        assert (tmp_path / "res.json.manifest.json").exists()

    def test_bad_size(self, capsys):
        rc = cli.main(["resources", "--n-sites", "0"])
        assert rc == 1


SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(argv):
    """Run ``argv`` in a fresh process that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)


def test_installed_entry_point():
    # the installed console script when there is one, the module otherwise
    script = shutil.which("sesvqe")
    command = [script] if script else [sys.executable, "-m", "sesvqe.cli"]
    proc = run_fresh([*command, "resources", "--n-sites", "8"])
    assert proc.returncode == 0, proc.stderr
    assert "original" in proc.stdout


STARTUP_SCRIPT = """
import json, sys
from pathlib import Path
from sesvqe import cli

work, params = Path(sys.argv[1]), sys.argv[2]
h = str(work / "h.json")
assert cli.main(["gen", "--family", "chain", "--n-sites", "4", "--out", h]) == 0
(work / "solve.json").write_text(json.dumps({"hamiltonian": h, "max_evaluations": 30}))
# exit 2: the 30-evaluation budget ends the solve non_converged
assert cli.main(["solve", "--config", str(work / "solve.json"), "--out", str(work / "r.json")]) == 2
assert json.loads((work / "r.json").read_text())["evaluations_used"] == 30
assert cli.main(["reconstruct", "--hamiltonian", h, "--protocol", "original", "--params", params,
                 "--shots", "100", "--out", str(work / "rec.json")]) == 0
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    # numpy is the one runtime dependency; scipy is only the tests' oracle
    proc = run_fresh([sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path), str(EXAMPLES / "params.json")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
