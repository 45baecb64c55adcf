import os

import numpy as np
import pytest

from randcp.als import AlsConfig
from randcp import verify as verifymod
from randcp.cli import _cfg_from_args, build_parser, main
from randcp.tensor import read_matrix
from conftest import make_sparse


@pytest.fixture
def tns_file(tmp_path):
    t = make_sparse((8, 7, 6), 150, seed=0)
    path = tmp_path / "small.tns"
    with open(path, "w") as fh:
        fh.write("# test tensor\n")
        for row, v in zip(t.idx, t.vals):
            fh.write(" ".join(str(i + 1) for i in row) + " %.17g\n" % v)
    return str(path)


class TestDecompose:
    def test_trials_write_outputs(self, tns_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        rc = main(["decompose", "--tensor", tns_file, "--rank", "2", "--rounds", "3",
                   "--sampler", "sts", "--samples", "64",
                   "--schedule", "accumulator-stationary", "--procs", "4",
                   "--seed", "7", "--trials", "2", "--fit-every", "3", "--out", out])
        assert rc == 0
        text = capsys.readouterr().out
        assert "final fit over 2 trials" in text
        for trial in range(2):
            tdir = os.path.join(out, "trial%d" % trial)
            for j in range(3):
                U = read_matrix(os.path.join(tdir, "factor_mode%d.bin" % j))
                assert U.shape == ((8, 7, 6)[j], 2)
                assert np.abs(np.linalg.norm(U, axis=0) - 1.0).max() < 1e-12
            sigma = read_matrix(os.path.join(tdir, "sigma.bin"))
            assert sigma.shape == (2, 1)
            assert os.path.exists(os.path.join(tdir, "ledger.txt"))

    def test_exact_run(self, tns_file, capsys):
        rc = main(["decompose", "--tensor", tns_file, "--rank", "2", "--rounds", "2",
                   "--procs", "2", "--fit-every", "2"])
        assert rc == 0
        assert "mean" in capsys.readouterr().out

    def test_explicit_grid(self, tns_file):
        rc = main(["decompose", "--tensor", tns_file, "--rank", "2", "--rounds", "1",
                   "--grid", "2x2x1", "--fit-every", "1"])
        assert rc == 0

    def test_grid_sets_procs(self):
        args = build_parser().parse_args(["decompose", "--tensor", "x.tns", "--rank", "2",
                                          "--grid", "2x2x1"])
        assert _cfg_from_args(args).procs == 4

    def test_missing_tensor_flag_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["decompose", "--rank", "2"])
        assert e.value.code != 0

    def test_accumulator_requires_sampler(self, tns_file, capsys):
        rc = main(["decompose", "--tensor", tns_file, "--rank", "2",
                   "--sampler", "exact", "--schedule", "accumulator-stationary"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_tensor_path(self, capsys):
        rc = main(["decompose", "--tensor", "/does/not/exist.tns", "--rank", "2"])
        assert rc == 1

    def test_bad_grid_string(self):
        with pytest.raises(SystemExit):
            main(["decompose", "--tensor", "x.tns", "--rank", "2", "--grid", "2xbanana"])

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_bad_workers_flag_usage_error(self, tns_file, workers, capsys):
        with pytest.raises(SystemExit) as e:
            main(["decompose", "--tensor", tns_file, "--rank", "2", "--workers", workers])
        assert e.value.code == 2
        assert "--workers: expected a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("env", ["abc", "0", ""])
    def test_malformed_workers_env_usage_error(self, tns_file, env, monkeypatch, capsys):
        monkeypatch.setenv("RANDCP_WORKERS", env)
        with pytest.raises(SystemExit) as e:
            main(["decompose", "--tensor", tns_file, "--rank", "2"])
        assert e.value.code == 2
        assert "--workers: expected a positive integer" in capsys.readouterr().err
        # An explicit flag overrides the variable; other subcommands ignore it.
        assert main(["decompose", "--tensor", tns_file, "--rank", "2", "--rounds", "1",
                     "--fit-every", "1", "--workers", "2"]) == 0
        assert main(["verify", "--suite", "fit"]) == 0

    @pytest.mark.parametrize("flag", ["--trials", "--procs"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_count_usage_error(self, tns_file, flag, value, capsys):
        with pytest.raises(SystemExit) as e:
            main(["decompose", "--tensor", tns_file, "--rank", "2", flag, value])
        assert e.value.code == 2
        assert "%s: expected a positive integer" % flag in capsys.readouterr().err

    def test_workers_env_sets_default(self, monkeypatch):
        monkeypatch.setenv("RANDCP_WORKERS", "3")
        args = build_parser().parse_args(["decompose", "--tensor", "x.tns", "--rank", "2"])
        assert args.workers == 3


class TestVerify:
    @pytest.mark.parametrize("suite", sorted(verifymod.SUITES))
    def test_suite_passes(self, suite, capsys):
        assert main(["verify", "--suite", suite, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["verify", "--suite", "nonsense"])
        assert e.value.code != 0


def test_config_rejects_workers_below_one():
    with pytest.raises(ValueError, match="workers"):
        AlsConfig(rank=2, rounds=1, workers=0).validate()


def test_comm_report(tns_file, capsys):
    rc = main(["comm-report", "--tensor", tns_file, "--rank", "3",
               "--samples", "128", "--procs", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "analytic exact tensor-stationary" in out
    sections = {}
    for part in out.split("--- ")[1:]:
        title, body = part.split(" ---\n", 1)
        sections[title] = body
    assert sorted(sections) == ["arls-lev / tensor-stationary", "exact / tensor-stationary",
                                "sts / accumulator-stationary"]
    assert all("kind=allgather" in body for body in sections.values())
    # ARLS-LEV moves each distinct drawn row once: at most every row of every
    # off mode, as a 3-word (row, count, leverage) triple and an R-word factor
    # row, to the P-1 other ranks, plus each rebuild's one mass per rank.  A
    # meter per draw would exceed this bound 5-fold at J=128.
    N, P, R, rows = 3, 4, 3, 8
    words = sum(int(line.split("words=")[1].split()[0])
                for line in sections["arls-lev / tensor-stationary"].splitlines()
                if line.startswith("record round=1 kind=allgather"))
    assert 0 < words <= N * (N - 1) * (P - 1) * rows * (3 + R) + N * P * (P - 1)


@pytest.mark.parametrize("flag", ["--procs", "--rank", "--samples"])
def test_comm_report_nonpositive_count_usage_error(tns_file, flag, capsys):
    with pytest.raises(SystemExit) as e:
        main(["comm-report", "--tensor", tns_file, flag, "0"])
    assert e.value.code == 2
    assert "%s: expected a positive integer" % flag in capsys.readouterr().err


def test_degenerate_sketch_exits_1_with_cause(tmp_path, capsys):
    # 300 nonzeros spread over a 65,536^3 x 5 index space: no sampled column hits.
    gen = np.random.default_rng(1)
    dims = (1 << 16, 1 << 16, 1 << 16, 5)
    path = tmp_path / "hyper.tns"
    with open(path, "w") as fh:
        for row, v in zip(np.stack([gen.integers(0, d, 300) for d in dims], 1),
                          gen.standard_normal(300)):
            fh.write(" ".join(str(i + 1) for i in row) + " %.17g\n" % v)
    rc = main(["decompose", "--tensor", str(path), "--rank", "4", "--rounds", "2",
               "--sampler", "sts", "--samples", "256",
               "--schedule", "accumulator-stationary", "--procs", "4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: sketched solve left the mode-0 factor all zero in round 1" in err
    assert "J=256 samples hit 0 sampled nonzeros" in err
