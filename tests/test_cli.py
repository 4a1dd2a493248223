import codecs
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from credal import read_labeled_csv, write_labeled_csv
from credal.cli import dispatch


@pytest.fixture
def prior_csv(tmp_path):
    path = tmp_path / "prior.csv"
    write_labeled_csv(path, ["H1", "H2", "H3"], [0.5, 0.45, 0.05])
    return path


def test_update_inferential(tmp_path, capsys):
    prior = tmp_path / "p.csv"
    scores = tmp_path / "s.csv"
    out = tmp_path / "post.csv"
    write_labeled_csv(prior, ["H1", "H2"], [0.5, 0.5])
    write_labeled_csv(scores, ["H1", "H2"], [0.8, 0.2])
    code = dispatch(
        ["update", "--rule", "inferential", "--prior", str(prior), "--scores", str(scores), "--out", str(out)]
    )
    assert code == 0
    _, values = read_labeled_csv(out)
    np.testing.assert_allclose(values, [0.8, 0.2], rtol=1e-15)
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary == {"rule": "inferential", "min_posterior": values.min()}
    assert summary["min_posterior"] == pytest.approx(0.2, rel=1e-15)


def test_update_inferential_whose_weights_sum_past_the_largest_float(tmp_path, capsys):
    # warnings are errors under pytest, as under python -W error
    prior, scores, out = tmp_path / "p.csv", tmp_path / "s.csv", tmp_path / "post.csv"
    write_labeled_csv(prior, ["H1", "H2"], [0.5000000004, 0.5])
    write_labeled_csv(scores, ["H1", "H2"], [1.7976931348623157e308] * 2)
    args = ["update", "--rule", "inferential", "--prior", str(prior), "--scores", str(scores), "--out", str(out)]
    assert dispatch(args) == 0
    assert out.read_bytes() == b"label,value\r\nH1,0.50000000020000002\r\nH2,0.49999999980000004\r\n"
    assert json.loads(capsys.readouterr().out) == {"rule": "inferential", "min_posterior": 0.49999999980000004}

def test_update_predictive_prints_summary(tmp_path, prior_csv, capsys):
    scores = tmp_path / "s.csv"
    out = tmp_path / "post.csv"
    write_labeled_csv(scores, ["H1", "H2", "H3"], [0.5, 0.4, 0.0])
    code = dispatch(
        ["update", "--rule", "predictive", "--prior", str(prior_csv), "--scores", str(scores), "--out", str(out)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary == {"d": -0.42500000000000004, "zeroed": [2], "rule": "predictive"}
    _, values = read_labeled_csv(out)
    np.testing.assert_allclose(values, [0.575, 0.425, 0.0], atol=1e-15)


def test_update_predictive_with_scale(tmp_path, prior_csv):
    scores = tmp_path / "s.csv"
    out = tmp_path / "post.csv"
    write_labeled_csv(scores, ["H1", "H2", "H3"], [0.5, 0.4, 0.0])
    args = ["update", "--rule", "predictive", "--prior", str(prior_csv),
            "--scores", str(scores), "--out", str(out)]
    assert dispatch(args + ["--a", "0.5"]) == 2  # positive scale rejected
    assert dispatch(args + ["--a", "-1.0"]) == 0


def test_update_general_bayes(tmp_path, capsys):
    prior = tmp_path / "p.csv"
    losses = tmp_path / "l.csv"
    out = tmp_path / "post.csv"
    write_labeled_csv(prior, ["H1", "H2"], [0.5, 0.5])
    write_labeled_csv(losses, ["H1", "H2"], [0.0, np.log(4.0)])
    code = dispatch(
        ["update", "--rule", "general-bayes", "--prior", str(prior), "--scores", str(losses),
         "--out", str(out), "--rate", "2.0"]
    )
    assert code == 0
    _, values = read_labeled_csv(out)
    np.testing.assert_allclose(values, [16.0 / 17.0, 1.0 / 17.0], rtol=1e-15)
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary == {"rule": "general-bayes", "min_posterior": values.min()}
    assert summary["min_posterior"] == pytest.approx(1.0 / 17.0, rel=1e-15)


@pytest.mark.parametrize(
    "prior_values, loss_values, rate, written",
    [
        # exp(-800) and exp(-801) underflow to 0.0; the update takes the
        # losses less 800
        ([0.5, 0.5], [800.0, 801.0], [], b"label,value\r\nH1,0.7310585786300049\r\nH2,0.2689414213699951\r\n"),
        # the smallest loss sits on a zero prior, so the shift is by 800
        ([1.0, 0.0], [800.0, 0.0], [], b"label,value\r\nH1,1\r\nH2,0\r\n"),
        # 10 * 1e308 overflows; that loss scores exp(-inf) = 0
        ([0.5, 0.5], [1e308, 0.0], ["--rate", "10"], b"label,value\r\nH1,0\r\nH2,1\r\n"),
    ],
    ids=["underflow", "zero-prior", "overflow"],
)
def test_update_general_bayes_at_large_losses(tmp_path, capsys, prior_values, loss_values, rate, written):
    # warnings are errors under pytest, as under python -W error
    prior, losses, out = tmp_path / "p.csv", tmp_path / "l.csv", tmp_path / "post.csv"
    write_labeled_csv(prior, ["H1", "H2"], prior_values)
    write_labeled_csv(losses, ["H1", "H2"], loss_values)
    args = ["update", "--rule", "general-bayes", "--prior", str(prior), "--scores", str(losses), "--out", str(out)]
    assert dispatch(args + rate) == 0
    assert out.read_bytes() == written
    _, values = read_labeled_csv(out)
    assert json.loads(capsys.readouterr().out) == {"rule": "general-bayes", "min_posterior": values.min()}


def test_update_general_bayes_rate_defaults_to_one(tmp_path, prior_csv):
    losses = tmp_path / "l.csv"
    write_labeled_csv(losses, ["H1", "H2", "H3"], [0.5, 0.4, 2.0])
    args = ["update", "--rule", "general-bayes", "--prior", str(prior_csv), "--scores", str(losses), "--out"]
    assert dispatch(args + [str(tmp_path / "default.csv")]) == 0
    assert dispatch(args + [str(tmp_path / "one.csv"), "--rate", "1.0"]) == 0
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


@pytest.mark.parametrize(
    "rule, flag, value",
    [
        ("inferential", "--a", "-3"),
        ("general-bayes", "--a", "-3"),
        ("predictive", "--rate", "5"),
        ("inferential", "--rate", "5"),
    ],
)
def test_update_rejects_a_flag_its_rule_does_not_use(tmp_path, prior_csv, capsys, rule, flag, value):
    scores = tmp_path / "s.csv"
    out = tmp_path / "post.csv"
    write_labeled_csv(scores, ["H1", "H2", "H3"], [0.5, 0.4, 0.1])
    code = dispatch(
        ["update", "--rule", rule, "--prior", str(prior_csv), "--scores", str(scores), "--out", str(out), flag, value]
    )
    assert code == 2
    assert f"error: {flag} applies to the" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_2(tmp_path, prior_csv):
    assert dispatch(["update", "--rule", "predictive"]) == 2  # missing flags
    assert dispatch(["no-such-command"]) == 2
    assert dispatch(["update", "--rule", "bogus", "--prior", "x", "--scores", "y", "--out", "z"]) == 2
    assert dispatch(["update", "--rule", "inferential", "--prior", str(prior_csv),
                     "--scores", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o.csv")]) == 2


def test_label_mismatch_exit_2(tmp_path, prior_csv):
    scores = tmp_path / "s.csv"
    write_labeled_csv(scores, ["A", "B", "C"], [1.0, 1.0, 1.0])
    code = dispatch(["update", "--rule", "inferential", "--prior", str(prior_csv),
                     "--scores", str(scores), "--out", str(tmp_path / "o.csv")])
    assert code == 2


def test_inputs_not_mutated(tmp_path, prior_csv):
    scores = tmp_path / "s.csv"
    write_labeled_csv(scores, ["H1", "H2", "H3"], [1.0, 2.0, 3.0])
    before = prior_csv.read_bytes(), scores.read_bytes()
    dispatch(["update", "--rule", "inferential", "--prior", str(prior_csv),
              "--scores", str(scores), "--out", str(tmp_path / "o.csv")])
    assert (prior_csv.read_bytes(), scores.read_bytes()) == before


def test_dominance_json(tmp_path, capsys):
    cred = tmp_path / "c.csv"
    write_labeled_csv(cred, ["H1", "H2"], [0.6, 0.6])
    assert dispatch(["dominance", "--cred", str(cred)]) == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["dominated"] is True
    assert report["labels"] == ["H1", "H2"]
    np.testing.assert_allclose(report["dominator"], [0.5, 0.5])
    np.testing.assert_allclose(report["per_vertex_gap"], [0.02, 0.02])


def test_dominance_probabilistic_input(tmp_path, capsys):
    cred = tmp_path / "c.csv"
    write_labeled_csv(cred, ["H1", "H2"], [0.5, 0.5])
    assert dispatch(["dominance", "--cred", str(cred)]) == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["dominated"] is False
    assert report["dominator"] is None


def test_dominance_search_flags_removed(tmp_path, capsys):
    cred = tmp_path / "c.csv"
    write_labeled_csv(cred, ["H1", "H2"], [0.5, 0.5])
    assert dispatch(["dominance", "--cred", str(cred), "--seed", "5"]) == 2
    assert dispatch(["dominance", "--cred", str(cred), "--perturbations", "500"]) == 2


def test_dominance_negative_eps_exit_2(tmp_path, capsys):
    cred = tmp_path / "c.csv"
    write_labeled_csv(cred, ["H1", "H2"], [0.5, 0.5])
    assert dispatch(["dominance", "--cred", str(cred), "--eps", "-1"]) == 2
    assert dispatch(["dominance", "--cred", str(cred), "--eps", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("eps must be non-negative") == 2


def test_props_suites_pass(capsys):
    # exactly these eight suites, in this order, each with its expected outcome
    assert dispatch(["props", "--tol", "1e-6", "--seed", "7", "--samples", "300"]) == 0
    suites = json.loads(capsys.readouterr().out)
    assert [(s["suite"], s["expected"], s["ok"], s["report"]["passed"]) for s in suites] == [
        ("combination/multiplication", "pass", True, True),
        ("combination/addition", "pass", True, True),
        ("combination/subtraction", "fail", True, False),
        ("combination/max", "fail", True, False),
        ("commutation/multiplicative-constant-scale", "pass", True, True),
        ("commutation/additive-constant-shift", "pass", True, True),
        ("commutation/multiplicative-square", "fail", True, False),
        ("regularity-violation/forced-zero", "pass", True, True),
    ]
    assert [s["report"]["n_samples"] for s in suites] == [300] * 7 + [150]


@pytest.mark.parametrize("module", ["credal", "credal.cli"])
def test_python_m_runs_the_cli(module, capsys):
    # `python -m credal.cli` used to import the module and exit 0 doing nothing
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", module, "props", "--samples", "5"], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert dispatch(["props", "--samples", "5"]) == 0
    assert json.loads(proc.stdout) == json.loads(capsys.readouterr().out)


def test_a_non_ascii_label_survives_an_ascii_locale(tmp_path, capsys):
    # JSON is UTF-8 (RFC 8259) and read_labeled_csv reads UTF-8, so neither
    # the config nor a written CSV may take the locale's encoding
    src = str(Path(__file__).parents[1] / "src")
    env = dict(
        os.environ,
        LC_ALL="C",
        PYTHONCOERCECLOCALE="0",
        PYTHONUTF8="0",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )

    def run(*args):
        return subprocess.run(
            [sys.executable, "-X", "utf8=0", *args], capture_output=True, text=True, env=env, timeout=120
        )

    locale_encoding = run("-c", "import locale; print(locale.getpreferredencoding(False))").stdout.strip()
    assert codecs.lookup(locale_encoding).name != "utf-8"
    model = {"label": "μ", "forecast": {"kind": "gaussian", "mu": 0.5, "sigma": 1.0}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_config(models=[model]), ensure_ascii=False), encoding="utf-8")
    prior, scores = tmp_path / "prior.csv", tmp_path / "scores.csv"
    write_labeled_csv(prior, ["μ", "b"], [0.5, 0.5])
    write_labeled_csv(scores, ["μ", "b"], [0.8, 0.2])
    for side in ("ascii", "utf8"):
        simulate = ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / side)]
        update = ["update", "--rule", "inferential", "--prior", str(prior), "--scores", str(scores)]
        update += ["--out", str(tmp_path / side / "posterior.csv")]
        for argv in (simulate, update):
            if side == "ascii":
                proc = run("-m", "credal", *argv)
                assert proc.returncode == 0, proc.stderr
            else:
                assert dispatch(argv) == 0
    capsys.readouterr()
    for name in ("results.csv", "posterior.csv"):
        assert (tmp_path / "ascii" / name).read_bytes() == (tmp_path / "utf8" / name).read_bytes()
    assert "μ" in (tmp_path / "ascii" / "results.csv").read_text(encoding="utf-8")
    labels, values = read_labeled_csv(tmp_path / "ascii" / "posterior.csv")
    assert labels == ("μ", "b")
    np.testing.assert_allclose(values, [0.8, 0.2], rtol=1e-15)


def test_props_detects_forced_failure(capsys):
    # an impossible tolerance makes the expected-pass suites fail -> exit 1
    assert dispatch(["props", "--tol", "0", "--samples", "100"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("tol, shown", [("-1", "-1.0"), ("nan", "nan")])
def test_props_refuses_a_negative_or_nan_tolerance(tol, shown, capsys):
    # such a tolerance failed the expected-pass suites: exit 1, read as a failed axiom
    assert dispatch(["props", "--tol", tol, "--samples", "5"]) == 2
    assert tuple(capsys.readouterr()) == ("", f"error: tol must be non-negative, got {shown}\n")


def test_dispatch_deterministic(tmp_path, capsys):
    cred = tmp_path / "c.csv"
    write_labeled_csv(cred, ["H1", "H2", "H3"], [0.2, 0.9, 0.4])
    dispatch(["dominance", "--cred", str(cred)])
    first = capsys.readouterr().out
    dispatch(["dominance", "--cred", str(cred)])
    assert capsys.readouterr().out == first


def test_simulate_writes_results(tmp_path, capsys):
    cfg = {
        "seed": 3,
        "truth": {"kind": "gaussian", "mu": 0.0, "sigma": 1.0},
        "models": [
            {"label": "good", "forecast": {"kind": "gaussian", "mu": 0.0, "sigma": 1.0}},
            {"label": "far", "forecast": {"kind": "gaussian", "mu": 4.0, "sigma": 1.0}},
        ],
        "horizon": 5,
        "rules": ["predictive", {"kind": "general_bayes", "rate": 1.0}],
        "a": -1.0,
        "replications": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert dispatch(["simulate", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert [a["rule"] for a in summary["aggregates"]] == ["predictive", "general_bayes"]
    results = (out_dir / "results.csv").read_text()
    assert results.startswith("rule,replication,t,model,posterior,crps,mixture_crps\n")
    assert len(results.strip().split("\n")) == 1 + 2 * 2 * 5 * 2


def test_a_summary_that_is_not_finite_is_refused_as_strict_json(tmp_path):
    # the mixture score is not finite here; RFC 8259 has no NaN or Infinity,
    # so the run fails rather than print them (in a subprocess, as the
    # suite turns the run's overflow warnings into errors)
    def gaussian(mu):
        return {"kind": "gaussian", "mu": mu, "sigma": 1.0}

    models = [{"label": "lo", "forecast": gaussian(-1e308)}, {"label": "hi", "forecast": gaussian(1e308)}]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_config(truth=gaussian(-1e308), models=models, rules=["inferential"])))
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "credal", "simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "strict JSON" in proc.stderr
    assert not any(word in proc.stdout for word in ("NaN", "Infinity"))


def test_simulate_refuses_a_predictive_posterior_that_lost_its_mass(tmp_path, capsys):
    # every score is -1.7e308: p + s is 1 - 1.7e308, d is 1.7e308, and the
    # posterior q + d rounds to 0.0 at the first step of each replication
    cfg = _config(
        truth={"kind": "pointmass", "loc": 9e307},
        models=[{"label": "m", "forecast": {"kind": "pointmass", "loc": -8e307}}],
        horizon=6,
        rules=["predictive"],
        a=-1.0,
        replications=2,
    )
    code, err = _simulate_text(tmp_path, capsys, json.dumps(cfg))
    assert code == 2
    assert err.startswith("error: replication 0, t = 1: the posterior sums to 0.0, not 1")


def test_one_replication_leaves_the_standard_error_null(tmp_path, capsys):
    # it printed 0.0, which reads as no uncertainty
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config(replications=1, rules=["predictive", "inferential"])))
    assert dispatch(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert [a["se_mixture_crps"] for a in summary["aggregates"]] == [None, None]


def _simulate_text(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    code = dispatch(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def _config(**overrides):
    cfg = {
        "seed": 3,
        "truth": {"kind": "gaussian", "mu": 0.0, "sigma": 1.0},
        "models": [{"label": "good", "forecast": {"kind": "gaussian", "mu": 0.0, "sigma": 1.0}}],
        "horizon": 5,
        "rules": [{"kind": "general_bayes", "rate": 1.0}],
    }
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize("rate, shown", [("Infinity", "inf"), ("-Infinity", "-inf"), ("NaN", "nan")])
def test_simulate_rejects_a_non_finite_rate(tmp_path, capsys, rate, shown):
    text = json.dumps(_config()).replace('"rate": 1.0', f'"rate": {rate}')
    code, err = _simulate_text(tmp_path, capsys, text)
    assert (code, err) == (2, f"error: general-Bayes rule needs a positive, finite learning rate, got {shown}\n")
    assert not (tmp_path / "out").exists()


def test_simulate_names_a_missing_key(tmp_path, capsys):
    cfg = _config()
    del cfg["horizon"]
    code, err = _simulate_text(tmp_path, capsys, json.dumps(cfg))
    assert (code, err) == (2, "error: invalid experiment config: missing key 'horizon'\n")


def test_simulate_rejects_rules_that_are_not_a_list(tmp_path, capsys):
    code, err = _simulate_text(tmp_path, capsys, json.dumps(_config(rules="predictive")))
    assert (code, err) == (2, "error: invalid experiment config: rules: must be a list, got 'predictive'\n")
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    code, err = _simulate_text(tmp_path, capsys, "[1, 2]")
    assert (code, err) == (2, "error: invalid experiment config: expected a JSON object, got list\n")


def test_simulate_refuses_a_repeated_key(tmp_path, capsys):
    text = json.dumps(_config(horizon=3)).replace('"horizon": 3', '"horizon": 3, "horizon": 5')
    code, err = _simulate_text(tmp_path, capsys, text)
    assert (code, err) == (2, "error: invalid experiment config: repeated key 'horizon'\n")
    assert not (tmp_path / "out").exists()


def test_simulate_names_a_kind_that_is_not_a_string(tmp_path, capsys):
    code, err = _simulate_text(tmp_path, capsys, json.dumps(_config(rules=[{"kind": ["predictive"]}])))
    assert (code, err) == (2, "error: unknown rule kind: ['predictive']\n")
