import json
import pickle
import tracemalloc

import numpy as np
import pytest

from gpgmc import cli, mle
from gpgmc.emulator import load_design, per_datum_gram
from gpgmc.errors import ConfigError


def banana_config(tmp_path, **overrides):
    cfg = {
        "target": {"name": "banana", "n_data": 60},
        "sampler": {"name": "rwm", "proposal_sd": 0.6},
        "geometry": {"mode": "exact"},
        "seed": 7,
        "iters": 120,
        "burnin": 20,
        "output_dir": str(tmp_path / "out"),
        "timing": "none",
    }
    cfg.update(overrides)
    return cfg


class TestValidation:
    def test_missing_target_reports_path(self):
        with pytest.raises(ConfigError) as err:
            cli.validate_config({"sampler": {"name": "rwm"}, "seed": 1, "iters": 2})
        assert "/target" in str(err.value)

    def test_bad_sampler_name(self):
        with pytest.raises(ConfigError) as err:
            cli.validate_config({"target": {"name": "banana"},
                                 "sampler": {"name": "nuts"},
                                 "seed": 1, "iters": 2})
        assert "/sampler/name" in str(err.value)

    def test_burnin_must_precede_iters(self):
        with pytest.raises(ConfigError) as err:
            cli.validate_config({"target": {"name": "banana"},
                                 "sampler": {"name": "rwm"},
                                 "seed": 1, "iters": 5, "burnin": 5})
        assert "/burnin" in str(err.value)

    def test_emulated_needs_design_or_adaptation(self):
        with pytest.raises(ConfigError):
            cli.validate_config({"target": {"name": "banana"},
                                 "sampler": {"name": "hmc"},
                                 "geometry": {"mode": "emulated"},
                                 "seed": 1, "iters": 5})

    @pytest.mark.parametrize("sampler", ["rhmc", "lmc"])
    def test_exact_manifold_sampler_needs_metric_derivatives(self, tmp_path,
                                                             sampler):
        elliptic = {"name": "elliptic", "mesh_size": 10}
        with pytest.raises(ConfigError) as err:
            cli.validate_config(banana_config(
                tmp_path, target=elliptic, sampler={"name": sampler}))
        assert "/sampler/name" in str(err.value)
        assert "elliptic" in str(err.value)
        # hmc needs no metric, and targets with fisher_derivs run exact rhmc
        cli.validate_config(banana_config(tmp_path, target=elliptic,
                                          sampler={"name": "hmc"}))
        cli.validate_config(banana_config(tmp_path, sampler={"name": sampler}))


    @pytest.mark.parametrize("section, key, text", [
        ("sampler", "step_size", "Infinity"),
        ("sampler", "step_size", "NaN"),
        ("sampler", "fixed_point_tol", "Infinity"),
        ("target", "sigma_y", "Infinity"),
        ("target", "mu_true", "-Infinity"),
        ("sampler", "step_size", "1" + "0" * 400)])
    def test_non_finite_float_reports_path(self, tmp_path, section, key, text):
        """json reads these spellings, and integers beyond the largest
        double; every one is refused at its key."""
        cfg = banana_config(tmp_path, sampler={"name": "rhmc"})
        cfg[section] = {**cfg[section], key: json.loads(text)}
        with pytest.raises(ConfigError) as err:
            cli.validate_config(cfg)
        assert f"/{section}/{key}" in str(err.value)
        assert "finite" in str(err.value)

    def test_unknown_top_level_key_reports_path(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            cli.validate_config(banana_config(tmp_path, n_dta=500))
        assert "/n_dta" in str(err.value)

    def test_unknown_sampler_key_reports_path(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            cli.validate_config(banana_config(
                tmp_path, sampler={"name": "hmc", "step_size": 0.1, "pool_cap": 60}))
        assert "/sampler/pool_cap" in str(err.value)
        # a key of another sampler would be ignored just the same
        with pytest.raises(ConfigError) as err:
            cli.validate_config(banana_config(
                tmp_path, sampler={"name": "rwm", "step_size": 0.1}))
        assert "/sampler/step_size" in str(err.value)

    @pytest.mark.parametrize("sampler", ["hmc", "lmc"])
    @pytest.mark.parametrize("key", ["fixed_point_iters", "fixed_point_tol"])
    def test_fixed_point_keys_are_rhmc_only(self, tmp_path, sampler, key):
        """Only rhmc's implicit leapfrog reads them."""
        with pytest.raises(ConfigError) as err:
            cli.validate_config(banana_config(tmp_path, sampler={"name": sampler,
                                                                 key: 4}))
        assert err.value.path == f"/sampler/{key}"
        cli.validate_config(banana_config(tmp_path, sampler={"name": "rhmc", key: 4}))

    @pytest.mark.parametrize("target, key", [
        ({"name": "banana", "n_dta": 60}, "n_dta"),
        # a key of another target is unknown too
        ({"name": "banana", "dim": 3}, "dim"),
        ({"name": "gaussian", "mean": [0.0], "n_data": 5}, "n_data"),
        ({"name": "elliptic", "mesh": 10}, "mesh"),
    ])
    def test_unknown_target_key_reports_path(self, tmp_path, target, key):
        with pytest.raises(ConfigError) as err:
            cli.validate_config(banana_config(tmp_path, target=target))
        assert f"/target/{key}" in str(err.value)

    def test_unknown_geometry_key_reports_path(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            cli.validate_config(banana_config(
                tmp_path, geometry={"mode": "exact", "design_fil": "d.json"}))
        assert "/geometry/design_fil" in str(err.value)

    def test_unknown_design_key_reports_path(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            cli.validate_config(banana_config(
                tmp_path, geometry={"mode": "exact",
                                    "design": {"source": "prior", "size": 20}}))
        assert "/geometry/design/size" in str(err.value)

    def test_unknown_adaptation_key_reports_path(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            cli.validate_config(banana_config(
                tmp_path, sampler={"name": "hmc"},
                geometry={"mode": "emulated",
                          "adaptation": {"test_interval": 5, "pool_cap": 60}}))
        assert "/geometry/adaptation/pool_cap" in str(err.value)

    @pytest.mark.parametrize("where", ["iters", "n_steps"])
    def test_bool_is_not_an_int(self, tmp_path, where):
        if where == "iters":
            cfg = banana_config(tmp_path, iters=True, burnin=0)
        else:
            cfg = banana_config(tmp_path, sampler={"name": "hmc", "n_steps": True})
        with pytest.raises(ConfigError) as err:
            cli.validate_config(cfg)
        assert f"/{where}" in str(err.value)

    @pytest.mark.parametrize("init", [[0.1], [0.1, 0.2, 0.3], [0.1, float("nan")],
                                      [0.1, float("inf")], [0.1, "a"], [True, 0.0],
                                      0.5])
    def test_init_must_be_finite_point_of_target_dimension(self, tmp_path, init):
        with pytest.raises(ConfigError) as err:
            cli.validate_config(banana_config(tmp_path, init=init))
        assert "/init" in str(err.value)

    def test_init_dimension_follows_target_config(self, tmp_path):
        cfg = cli.validate_config(banana_config(
            tmp_path, target={"name": "bbd", "dim": 3, "n_data": 50},
            init=[1, 0.5, -0.5]))
        assert cfg["init"] == [1.0, 0.5, -0.5]
        with pytest.raises(ConfigError):
            cli.validate_config(banana_config(
                tmp_path, target={"name": "bbd", "n_data": 50}, init=[1, 0.5, -0.5]))

    def test_config_error_pickles(self):
        """Workers of a --chains run hand their errors back by pickling."""
        err = pickle.loads(pickle.dumps(ConfigError("/a", "b")))
        assert isinstance(err, ConfigError)
        assert err.path == "/a" and str(err) == "/a: b"


def adaptive_config(tmp_path, **adaptation):
    return banana_config(
        tmp_path, sampler={"name": "hmc", "step_size": 0.1, "n_steps": 4},
        geometry={"mode": "emulated", "adaptation": adaptation}, iters=4, burnin=0)


def design_config(tmp_path, **design):
    return banana_config(tmp_path, geometry={"mode": "exact", "design": design})


# configs shaped like the README example, the three benchmark workloads and
# an adaptive run
SHAPED_CONFIGS = [
    {"target": {"name": "banana", "n_data": 100},
     "sampler": {"name": "hmc", "step_size": 0.1, "n_steps": 10, "tune": True},
     "geometry": {"mode": "exact"}, "seed": 42, "iters": 20000, "burnin": 2000,
     "output_dir": "out"},
    {"target": {"name": "bbd", "dim": 4, "n_data": 30_000},
     "sampler": {"name": "rhmc", "step_size": 0.0015, "n_steps": 10,
                 "fixed_point_iters": 4, "fixed_point_tol": 0.0},
     "geometry": {"mode": "exact"}, "seed": 11, "iters": 660, "burnin": 60,
     "output_dir": "out"},
    {"target": {"name": "bbd", "dim": 4, "n_data": 30_000},
     "sampler": {"name": "rhmc", "step_size": 0.0015, "n_steps": 10,
                 "fixed_point_iters": 4, "fixed_point_tol": 0.0},
     "geometry": {"mode": "emulated", "design_file": "out/design.json",
                  "design": {"source": "prior", "count": 100, "maxmin_radius": 0.2,
                             "target_size": 20, "with_gradients": True}},
     "seed": 1507, "iters": 260, "burnin": 60, "output_dir": "out"},
    {"target": {"name": "elliptic", "dim": 6, "mesh_size": 20},
     "sampler": {"name": "hmc", "step_size": 0.1, "n_steps": 10},
     "geometry": {"mode": "emulated", "design_file": "out/design.json",
                  "design": {"source": "prior", "count": 100, "maxmin_radius": 0.3,
                             "target_size": 30, "with_gradients": True}},
     "seed": 1507, "iters": 1800, "burnin": 200, "output_dir": "out"},
    {"target": {"name": "bbd", "dim": 2, "n_data": 300},
     "sampler": {"name": "hmc"},
     "geometry": {"mode": "emulated", "adaptation": {"test_interval": 5}},
     "seed": 1, "iters": 10},
    {"target": {"name": "banana"}, "sampler": {"name": "rwm"},
     "geometry": {"design": {"source": "chain", "path": "out/chain.csv",
                             "with_gradients": True}},
     "seed": 1, "iters": 10},
    {"target": {"name": "banana"}, "sampler": {"name": "rhmc"},
     "geometry": {"mode": "emulated", "adaptation": {"init_design": "design.json"}},
     "seed": 1, "iters": 10},
    # an adaptive run tunes during adaptation, with no burn-in
    {"target": {"name": "banana"},
     "sampler": {"name": "lmc", "tune": True, "target_accept": 0.8},
     "geometry": {"mode": "emulated", "adaptation": {}}, "seed": 1, "iters": 10},
]


# each fault a config error at its path
FAULTS = [
    (lambda t: banana_config(t, target={"name": "banana", "n_data": "100"}),
     "/target/n_data"),
    (lambda t: banana_config(t, target={"name": "banana", "n_data": 30.5}),
     "/target/n_data"),
    (lambda t: adaptive_config(t, test_interval=0),
     "/geometry/adaptation/test_interval"),
    (lambda t: adaptive_config(t, maxmin_radius="0.2"),
     "/geometry/adaptation/maxmin_radius"),
    (lambda t: design_config(t, source="chain"), "/geometry/design/path"),
    (lambda t: {**adaptive_config(t),
                "geometry": {"mode": "exact", "adaptation": {}}},
     "/geometry/adaptation"),
    (lambda t: {**adaptive_config(t),
                "geometry": {"mode": "emulated", "design_file": "d.json",
                             "adaptation": {}}},
     "/geometry/design_file"),
    (lambda t: adaptive_config(t, init_design="prirr"),
     "/geometry/adaptation/init_design"),
    (lambda t: banana_config(t, sampler={"name": "rwm", "tune": True}),
     "/sampler/tune"),
    (lambda t: banana_config(t, sampler={"name": "rwm", "target_accept": 0.5}),
     "/sampler/target_accept"),
    # range rules
    (lambda t: banana_config(t, burnin=-1), "/burnin"),
    (lambda t: banana_config(t, sampler={"name": "hmc", "tune": True,
                                         "target_accept": 1.0}),
     "/sampler/target_accept"),
    (lambda t: banana_config(t, sampler={"name": "rhmc", "fixed_point_tol": -1e-8}),
     "/sampler/fixed_point_tol"),
    (lambda t: banana_config(t, target={"name": "bbd", "dim": 1}), "/target/dim"),
    (lambda t: banana_config(t, target={"name": "elliptic", "mesh_size": 15}),
     "/target/mesh_size"),
    (lambda t: banana_config(t, target={"name": "elliptic", "dim": 3,
                                        "theta_true": [0.1, 0.2]}),
     "/target/theta_true"),
    (lambda t: banana_config(t, target={"name": "gaussian", "mean": [0.0, "x"]}),
     "/target/mean"),
    (lambda t: banana_config(t, target={"name": "gaussian", "mean": []}),
     "/target/mean"),
    (lambda t: banana_config(t, target={"name": "gaussian", "mean": [0.0, 1.0],
                                        "cov": [[1.0, 0.0], [0.0]]}),
     "/target/cov/1"),
    (lambda t: design_config(t, count=0), "/geometry/design/count"),
    (lambda t: adaptive_config(t, stop_mspe_rel=-0.1),
     "/geometry/adaptation/stop_mspe_rel"),
    (lambda t: banana_config(t, seed=-1), "/seed"),
    # keys the chosen source would not read; a third entry names a case
    # whose path another row has
    (lambda t: design_config(t, path=str(t / "absent.csv")),
     "/geometry/design/path", "/geometry/design/path with source prior"),
    (lambda t: design_config(t, source="chain", path="chain.csv", count=50),
     "/geometry/design/count", "/geometry/design/count with source chain"),
    (lambda t: adaptive_config(t, init_design="design.json", init_size=12),
     "/geometry/adaptation/init_size"),
    # keys no part of the run reads
    (lambda t: banana_config(t, sampler={"name": "hmc", "tune": True}, burnin=0),
     "/sampler/tune", "/sampler/tune with burnin 0"),
    (lambda t: banana_config(t, sampler={"name": "hmc", "target_accept": 0.8}),
     "/sampler/target_accept", "/sampler/target_accept without tune"),
    (lambda t: banana_config(t, geometry={"mode": "exact", "design_file": "nope.json"}),
     "/geometry/design_file", "/geometry/design_file with mode exact"),
]


class TestConfigTable:
    @pytest.mark.parametrize("make, path", [f[:2] for f in FAULTS],
                             ids=[f[-1] for f in FAULTS])
    def test_fault_reports_path_and_exits_2(self, tmp_path, capsys, make, path):
        cfg = make(tmp_path)
        with pytest.raises(ConfigError) as err:
            cli.validate_config(cfg)
        assert err.value.path == path
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(cfg_path)]) == 2
        assert f"config error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", SHAPED_CONFIGS)
    def test_validation_is_idempotent_and_fills_defaults(self, cfg):
        norm = cli.validate_config(cfg)
        assert cli.validate_config(norm) == norm

        def static_keys(table):
            return {k for k, v in table.items() if not isinstance(v, type)}
        geo = norm["geometry"]
        for section, table in [
                (norm, cli._TOP), (norm["target"], cli._TARGETS[cfg["target"]["name"]]),
                (norm["sampler"], cli._SAMPLERS[cfg["sampler"]["name"]]),
                (geo, cli._GEOMETRY), (geo["design"], cli._DESIGN)]:
            assert set(section) >= static_keys(table)
        # count and init_size are filled for a prior source alone, and
        # target_accept where the step size is tuned
        assert ("count" in geo["design"]) == (geo["design"]["source"] == "prior")
        assert ("target_accept" in norm["sampler"]) == norm["sampler"].get("tune", False)
        if "adaptation" in geo:
            from_prior = geo["adaptation"]["init_design"] == "prior"
            assert set(geo["adaptation"]) == set(cli._ADAPTATION) - (
                set() if from_prior else {"init_size"})

    def test_meta_records_the_config_that_ran(self, tmp_path):
        cfg = cli.validate_config(banana_config(tmp_path))
        meta = json.loads((cli.run(cfg) / "meta.json").read_text())
        assert meta["config"] == cfg
        assert meta["config"]["target"]["sigma_y"] == 2.0
        assert cli.validate_config(meta["config"]) == meta["config"]

    @pytest.mark.parametrize("target", [
        {"name": "banana", "n_data": 40, "mu_true": 1},
        {"name": "bbd", "dim": 3, "n_data": 50},
        {"name": "gaussian", "mean": [1, 2, 3]},
        {"name": "elliptic", "dim": 2, "mesh_size": 10},
        {"name": "elliptic", "dim": 2, "mesh_size": 10, "theta_true": [0.5, -1]},
    ])
    def test_raw_target_builds_the_validated_target(self, tmp_path, target):
        raw = cli.build_target({"target": dict(target)}, 5)
        cfg = cli.validate_config(banana_config(tmp_path, target=dict(target)))
        norm = cli.build_target(cfg, 5)
        for attr in ("data", "obs", "mean", "cov"):
            if hasattr(raw, attr):
                assert np.array_equal(getattr(raw, attr), getattr(norm, attr))
        theta = np.linspace(-0.3, 0.4, raw.dim)
        assert raw.potential(theta) == norm.potential(theta)

    def test_design_from_chain_of_another_dimension(self, tmp_path):
        out = cli.run(cli.validate_config(banana_config(tmp_path / "run")))
        cfg = banana_config(tmp_path / "design",
                            target={"name": "bbd", "dim": 4, "n_data": 50},
                            geometry={"mode": "exact",
                                      "design": {"source": "chain",
                                                 "path": str(out / "chain.csv")}})
        with pytest.raises(ConfigError) as err:
            cli.design_cmd(cli.validate_config(cfg))
        assert err.value.path == "/geometry/design/path"
        cfg_path = tmp_path / "design_cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["design", str(cfg_path)]) == 2


class TestRun:
    def test_outputs_and_header(self, tmp_path):
        cfg = cli.validate_config(banana_config(tmp_path))
        out = cli.run(cfg)
        for name in ("chain.csv", "events.csv", "summary.csv", "meta.json",
                     "data.csv"):
            assert (out / name).exists()
        header = (out / "chain.csv").read_text().splitlines()[0]
        assert header == "iter,theta_1,theta_2,logpost,accepted,kernel,regen,wall_ns"

    def test_determinism_byte_identical(self, tmp_path):
        cfg1 = cli.validate_config(banana_config(tmp_path / "a"))
        cfg2 = cli.validate_config(banana_config(tmp_path / "b"))
        out1, out2 = cli.run(cfg1), cli.run(cfg2)
        for name in ("chain.csv", "events.csv", "summary.csv", "data.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_meta_config_revalidates(self, tmp_path):
        cfg = cli.validate_config(banana_config(tmp_path))
        out = cli.run(cfg)
        meta = json.loads((out / "meta.json").read_text())
        cli.validate_config(meta["config"])  # round trip

    def test_init_starts_the_chain(self, tmp_path):
        cfg = cli.validate_config(banana_config(
            tmp_path, sampler={"name": "rwm", "proposal_sd": 1e-9},
            init=[0.5, -0.5], iters=5, burnin=0))
        out = cli.run(cfg)
        rows = (out / "chain.csv").read_text().splitlines()[1:]
        thetas = np.array([[float(v) for v in r.split(",")[1:3]] for r in rows])
        np.testing.assert_allclose(thetas, [[0.5, -0.5]] * 5, atol=1e-7)
        meta = json.loads((out / "meta.json").read_text())
        assert cli.validate_config(meta["config"])["init"] == [0.5, -0.5]

    def test_summary_times_the_retained_iterations(self, tmp_path, monkeypatch):
        """s/iter and minESS/s are taken over the retained draws' wall time;
        chain.csv keeps every iteration's, burn-in included."""
        clock = iter(range(0, 10**12, 1000))  # every reading 1 us later
        monkeypatch.setattr(cli.time, "perf_counter_ns", lambda: next(clock))
        cfg = cli.validate_config(banana_config(tmp_path, timing="real"))
        out = cli.run(cfg)
        rows = (out / "chain.csv").read_text().splitlines()[1:]
        wall_ns = np.array([int(r.split(",")[-1]) for r in rows])
        assert len(wall_ns) == 120 and np.all(wall_ns == 1000)
        header, values = (out / "summary.csv").read_text().splitlines()
        summary = dict(zip(header.split(","), map(float, values.split(","))))
        retained_s = wall_ns[20:].sum() / 1e9
        assert summary["s/iter"] == pytest.approx(retained_s / 100, rel=1e-12)
        assert summary["minESS/s"] == pytest.approx(summary["ESS_min"] / retained_s,
                                                    rel=1e-12)

    def test_single_post_burnin_sample_flags_ess(self, tmp_path):
        cfg = cli.validate_config(banana_config(tmp_path, iters=21, burnin=20))
        out = cli.run(cfg)
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 2  # header + single row

    def test_emulated_adaptive_run_emits_design(self, tmp_path):
        cfg = cli.validate_config(banana_config(
            tmp_path,
            target={"name": "bbd", "dim": 4, "n_data": 300},
            sampler={"name": "hmc", "step_size": 0.05, "n_steps": 8},
            geometry={"mode": "emulated",
                      "adaptation": {"test_interval": 5, "init_size": 16,
                                     "max_adaptations": 2,
                                     "maxmin_radius": 0.3}},
            iters=150, burnin=30))
        out = cli.run(cfg)
        for name in ("chain.csv", "events.csv", "summary.csv", "design.json",
                     "meta.json"):
            assert (out / name).exists()

    def test_adaptive_tune_reaches_sampler(self, tmp_path, monkeypatch):
        built = []

        class Recording(cli.AdaptiveGPeSampler):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(cli, "AdaptiveGPeSampler", Recording)
        cfg = cli.validate_config(banana_config(
            tmp_path,
            target={"name": "bbd", "dim": 4, "n_data": 300},
            sampler={"name": "hmc", "step_size": 0.05, "n_steps": 4,
                     "tune": True, "target_accept": 0.8},
            geometry={"mode": "emulated",
                      "adaptation": {"test_interval": 5, "init_size": 16,
                                     "max_adaptations": 0,
                                     "maxmin_radius": 0.3}},
            iters=6, burnin=3))
        (tmp_path / "out").mkdir()
        cli.run_single_chain(cfg, 0, tmp_path / "out")
        assert len(built) == 1
        assert built[0].tuner is not None
        assert built[0].tuner.target == 0.8

    def test_unconverged_adaptive_fits_reach_events_csv(self, tmp_path,
                                                         monkeypatch):
        """The start's fit and every refresh's refit that stop at the
        iteration cap leave an mle_warn event."""
        monkeypatch.setattr(mle, "FIT_MAX_ITER", 1)
        cfg = cli.validate_config(banana_config(
            tmp_path,
            target={"name": "bbd", "dim": 4, "n_data": 300},
            sampler={"name": "hmc", "step_size": 0.05, "n_steps": 8},
            geometry={"mode": "emulated",
                      "adaptation": {"test_interval": 5, "init_size": 16,
                                     "max_adaptations": 2,
                                     "maxmin_radius": 0.3}},
            iters=150, burnin=30))
        out = cli.run(cfg)
        rows = [line.split(",") for line in
                (out / "events.csv").read_text().splitlines()[1:]]
        warned = [int(r[0]) for r in rows if r[1] == "mle_warn"]
        refreshed = [int(r[0]) for r in rows if r[1] == "adapt_start"]
        assert warned == [0] + refreshed

    def test_multiple_chains(self, tmp_path):
        cfg = cli.validate_config(banana_config(tmp_path, iters=60, burnin=10))
        out = cli.run(cfg, n_chains=2)
        assert (out / "chain_0.csv").exists()
        assert (out / "chain_1.csv").exists()
        assert (out / "chain_0.csv").read_bytes() != (out / "chain_1.csv").read_bytes()

    @pytest.mark.parametrize("chains", [0, -1])
    def test_chain_count_below_one_is_refused(self, tmp_path, capsys, chains):
        """A usage error before anything is written, and the same refusal
        from ``run`` itself."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(banana_config(tmp_path)))
        with pytest.raises(SystemExit) as exited:
            cli.main(["run", str(path), "--chains", str(chains)])
        assert exited.value.code == 2
        assert "--chains must be at least 1" in capsys.readouterr().err
        with pytest.raises(ValueError, match="at least 1"):
            cli.run(cli.validate_config(banana_config(tmp_path)), n_chains=chains)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("chains", [1, 2])
    def test_adaptive_start_radius_that_keeps_too_few_draws(self, tmp_path,
                                                            capsys, chains):
        """A radius of 10 keeps one of the 50 prior draws; init_size is 10."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(adaptive_config(
            tmp_path, maxmin_radius=10.0, init_size=10)))
        assert cli.main(["run", str(path), "--chains", str(chains)]) == 2
        assert capsys.readouterr().err == (
            "config error: /geometry/adaptation/maxmin_radius: radius 10 keeps "
            "1 of 50 prior draws, fewer than init_size 10\n")

    def test_run_builds_the_target_once(self, tmp_path, monkeypatch):
        calls = []
        build = cli.build_target
        monkeypatch.setattr(cli, "build_target",
                            lambda *a: calls.append(1) or build(*a))
        out = cli.run(cli.validate_config(banana_config(tmp_path)))
        assert len(calls) == 1
        assert (out / "data.csv").read_text().startswith("y\n")


@pytest.fixture(scope="module")
def value_design(tmp_path_factory):
    """A design file from a banana chain without gradients: a value design,
    which carries no per-datum Gram."""
    tmp = tmp_path_factory.mktemp("value_design")
    out = cli.run(cli.validate_config(banana_config(tmp / "run")))
    path, _ = cli.design_cmd(cli.validate_config(banana_config(
        tmp / "design",
        geometry={"mode": "exact",
                  "design": {"source": "chain", "path": str(out / "chain.csv"),
                             "target_size": 15, "maxmin_radius": 0.05}})))
    assert load_design(path)[0].gfi is None
    return path


class TestDesignCommand:
    def test_prior_candidates_reach_target_size(self, tmp_path):
        cfg = cli.validate_config(banana_config(
            tmp_path,
            geometry={"mode": "exact",
                      "design": {"source": "prior", "count": 60,
                                 "target_size": 20, "maxmin_radius": 0.1}}))
        path, info = cli.design_cmd(cfg)
        design, hyper = load_design(path)
        assert design.n == 20
        assert np.all(hyper.rho > 0)

    def test_unconverged_fits_are_named_on_stderr(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setattr(mle, "FIT_MAX_ITER", 1)
        cfg = cli.validate_config(banana_config(
            tmp_path,
            geometry={"mode": "exact",
                      "design": {"source": "prior", "count": 60,
                                 "target_size": 20, "maxmin_radius": 0.1}}))
        cli.design_cmd(cfg)
        err = capsys.readouterr().err.splitlines()
        assert [line.split()[2] for line in err] == ["pool", "final"]
        assert all(line.startswith("warning: the ") for line in err)

    def test_chain_source(self, tmp_path):
        run_cfg = cli.validate_config(banana_config(tmp_path / "run"))
        out = cli.run(run_cfg)
        cfg = cli.validate_config(banana_config(
            tmp_path / "design",
            geometry={"mode": "exact",
                      "design": {"source": "chain",
                                 "path": str(out / "chain.csv"),
                                 "target_size": 15, "maxmin_radius": 0.05}}))
        path, _ = cli.design_cmd(cfg)
        design, _ = load_design(path)
        assert design.n <= 15
        assert design.gfi is None

    @pytest.mark.parametrize("sampler", ["rhmc", "lmc"])
    def test_metric_sampler_on_a_design_without_gram_is_refused(
            self, tmp_path, capsys, value_design, sampler):
        """A value design from a chain holds no per-datum Gram, so no metric:
        the run is refused at the design file before any file of the chain
        is written."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(banana_config(
            tmp_path, sampler={"name": sampler, "step_size": 0.1, "n_steps": 3},
            geometry={"mode": "emulated", "design_file": str(value_design)})))
        assert cli.main(["run", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: /geometry/design_file: {sampler} needs a design with "
            f"a per-datum Gram")
        assert list((tmp_path / "out").iterdir()) == []

    def test_adaptive_run_from_a_design_without_gram(self, tmp_path, value_design):
        """The adaptive sampler evaluates the design's per-datum rows, and
        takes the design's Gram from them."""
        cfg = cli.validate_config(banana_config(
            tmp_path, sampler={"name": "rhmc", "step_size": 0.1, "n_steps": 3},
            geometry={"mode": "emulated",
                      "adaptation": {"init_design": str(value_design),
                                     "test_interval": 2}},
            iters=20, burnin=0))
        out = cli.run(cfg)
        assert len((out / "chain.csv").read_text().splitlines()) == 21
        design, _ = load_design(out / "design.json")
        assert design.gfi.shape == (design.n_tilde, design.n_tilde)

    def test_chain_source_with_gradients_supports_rhmc(self, tmp_path):
        bbd = {"name": "bbd", "dim": 4, "n_data": 300}
        pilot = cli.validate_config(banana_config(
            tmp_path / "pilot", target=bbd,
            sampler={"name": "rwm", "proposal_sd": 0.05}, iters=150, burnin=0))
        out = cli.run(pilot)
        cfg = cli.validate_config(banana_config(
            tmp_path / "design", target=bbd,
            geometry={"mode": "exact",
                      "design": {"source": "chain", "path": str(out / "chain.csv"),
                                 "target_size": 15, "maxmin_radius": 0.02,
                                 "with_gradients": True}}))
        path, _ = cli.design_cmd(cfg)
        design, _ = load_design(path)
        assert design.gfi.shape == (design.n_tilde, design.n_tilde)

        run_path = tmp_path / "rhmc.json"
        run_path.write_text(json.dumps(banana_config(
            tmp_path / "rhmc", target=bbd,
            sampler={"name": "rhmc", "step_size": 0.001, "n_steps": 3},
            geometry={"mode": "emulated", "design_file": str(path)},
            iters=8, burnin=2)))
        assert cli.main(["run", str(run_path)]) == 0

    def test_refined_design_beats_random_subsets(self, tmp_path):
        """Greedy selection outperforms random 20-subsets on held-out error."""
        from gpgmc.adaptation import _holdout_mspe, maxmin_filter
        from gpgmc.emulator import DesignSet, build_emulator
        from gpgmc.mle import fit_hyperparameters
        from gpgmc.samplers import init_state, rwm_step

        base = banana_config(tmp_path / "run", iters=1500, burnin=100)
        run_cfg = cli.validate_config(base)
        out = cli.run(run_cfg)
        target = cli.build_target(run_cfg, run_cfg["seed"])

        cfg = cli.validate_config(banana_config(
            tmp_path / "design", iters=1500, burnin=100,
            geometry={"mode": "exact",
                      "design": {"source": "chain",
                                 "path": str(out / "chain.csv"),
                                 "target_size": 20,
                                 "maxmin_radius": 0.15}}))
        path, _ = cli.design_cmd(cfg)
        design, hyper = load_design(path)

        # held-out posterior samples from an independent chain
        st = init_state(target, np.zeros(2), np.random.default_rng(777))
        hold_pts = []
        for i in range(2000):
            st, _ = rwm_step(st, target, 0.6)
            if i >= 1000 and i % 50 == 0:
                hold_pts.append(st.theta.copy())
        hold_pts = np.array(hold_pts)
        holdout = (hold_pts, np.array([target.potential(p) for p in hold_pts]))
        mice_mspe = _holdout_mspe(build_emulator(design, hyper), holdout)

        pts_all, pots_all = cli._read_chain_csv(out / "chain.csv", 2)
        kept = maxmin_filter(pts_all, 0.15)
        cand_pts, cand_pots = pts_all[kept], pots_all[kept]
        wins = 0
        for s in range(10):
            rng = np.random.default_rng(2000 + s)
            pick = rng.choice(cand_pts.shape[0], size=20, replace=False)
            sub = DesignSet(points=cand_pts[pick], potentials=cand_pots[pick])
            sub_hyper, _ = fit_hyperparameters(sub, rng=np.random.default_rng(0))
            wins += mice_mspe <= _holdout_mspe(build_emulator(sub, sub_hyper),
                                               holdout)
        assert wins >= 8

    def test_saturated_candidates_return_input(self, tmp_path):
        # target size below the seeded size: refinement stops immediately
        cfg = cli.validate_config(banana_config(
            tmp_path,
            geometry={"mode": "exact",
                      "design": {"source": "prior", "count": 40,
                                 "target_size": 8, "maxmin_radius": 0.1}}))
        path, info = cli.design_cmd(cfg)
        design, _ = load_design(path)
        assert info["added"] == 0
        assert design.n >= 8  # the seeded initial design is returned as-is

    def test_radius_that_leaves_too_few_candidates(self, tmp_path, capsys):
        """The fit needs q + 3 = 8 banana candidates; the filter leaves fewer."""
        path = tmp_path / "design.json"
        path.write_text(json.dumps(banana_config(
            tmp_path,
            geometry={"mode": "exact",
                      "design": {"source": "prior", "count": 60,
                                 "maxmin_radius": 2.0}})))
        assert cli.main(["design", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: /geometry/design/maxmin_radius: "
                              "radius 2 leaves ")
        assert err.rstrip().endswith("candidates, the design step needs at least 8")

    def test_evaluated_design_holds_one_copy_of_its_rows(self):
        """Per-datum rows and gradients are written in place into one stacked
        matrix, whose Gram is bitwise that of the same rows stacked apart."""
        target = cli.build_target(cli.validate_config({
            "target": {"name": "bbd", "dim": 4, "n_data": 30_000},
            "sampler": {"name": "rhmc"}, "seed": 3, "iters": 2}), 3)
        n, dim, n_data = 20, 4, 30_000
        points = np.random.default_rng(4).standard_normal((n, dim))
        tracemalloc.start()
        try:
            design = cli._evaluated_design(target, points, with_gradients=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = n * (1 + dim) * n_data * 8
        assert peak <= 1.25 * rows
        u, g, vals, DU = target.per_datum(points[7])
        assert design.potentials[7] == u
        assert np.array_equal(design.gradients[7], g)
        evals = [target.per_datum(p) for p in points]
        stacked = np.concatenate([np.stack([e[2] for e in evals]),
                                  *np.stack([e[3] for e in evals]).transpose(1, 0, 2)])
        assert np.array_equal(design.gfi, per_datum_gram(stacked))


class TestDiagnose:
    def test_self_baseline(self, tmp_path, capsys):
        cfg = cli.validate_config(banana_config(tmp_path, iters=300, burnin=0,
                                                timing="real"))
        out = cli.run(cfg)
        summary = cli.diagnose(out / "chain.csv", out / "chain.csv")
        assert summary.speedup == pytest.approx(1.0)
        printed = capsys.readouterr().out
        assert "minESS/s" in printed

    def test_drops_the_runs_burnin(self, tmp_path, capsys):
        """A run's chain diagnoses as the run's own summary: the burn-in that
        meta.json records is dropped from the ESS, the time and AP."""
        cfg = cli.validate_config(banana_config(tmp_path, iters=2000, burnin=1000,
                                                timing="real"))
        out = cli.run(cfg)
        with open(out / "summary.csv") as fh:
            expected = dict(zip(fh.readline().strip().split(","),
                                fh.readline().strip().split(",")))
        row = cli.diagnose(out / "chain.csv").row()
        for key in ("AP", "s/iter", "ESS_min", "ESS_med", "ESS_max", "minESS/s"):
            assert repr(float(row[key])) == expected[key], key
        # a chain with no meta.json beside it is summarized whole
        alone = tmp_path / "alone"
        alone.mkdir()
        (alone / "chain.csv").write_bytes((out / "chain.csv").read_bytes())
        assert cli.diagnose(alone / "chain.csv").ess_min != float(expected["ESS_min"])


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"target": {"name": "nope"},
                               "sampler": {"name": "rwm"},
                               "seed": 1, "iters": 2}))
    assert cli.main(["run", str(bad)]) == 2
    good = tmp_path / "good.json"
    good.write_text(json.dumps(banana_config(tmp_path)))
    assert cli.main(["run", str(good)]) == 0


class TestUnreadableInput:
    """Input files that cannot be read fail with a message and an exit code."""

    def test_malformed_json_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"target": {"name": "banana"},')
        assert cli.main(["run", str(cfg_path)]) == 2
        assert f"config error: {cfg_path}:" in capsys.readouterr().err

    def test_missing_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "absent.json"
        assert cli.main(["design", str(cfg_path)]) == 2
        assert f"config error: {cfg_path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--seed", "3"),
                                             ("--output-dir", "elsewhere")])
    def test_non_object_config_with_override(self, tmp_path, capsys, flag, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps([banana_config(tmp_path)]))
        assert cli.main(["run", str(cfg_path), flag, value]) == 2
        assert "config error: /: config must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, '{"points": [[1]]}'],
                             ids=["missing", "no-potentials"])
    @pytest.mark.parametrize("adaptive", [False, True], ids=["design_file",
                                                             "init_design"])
    def test_unreadable_design_file(self, tmp_path, capsys, content, adaptive):
        design = tmp_path / "design.json"
        if content is not None:
            design.write_text(content)
        geometry = {"mode": "emulated", "design_file": str(design)}
        if adaptive:
            geometry = {"mode": "emulated",
                        "adaptation": {"init_design": str(design)}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(banana_config(
            tmp_path, sampler={"name": "hmc"}, geometry=geometry)))
        assert cli.main(["run", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {design}: ")

    def test_diagnose_missing_chain(self, tmp_path, capsys):
        chain = tmp_path / "chain.csv"
        assert cli.main(["diagnose", str(chain)]) == 1
        assert f"error: {chain}: cannot read chain CSV" in capsys.readouterr().err

    def test_diagnose_unreadable_chain(self, tmp_path, capsys):
        chain = tmp_path / "chain.csv"
        chain.write_text("iter,theta_1,logpost\n0,0.5\n")
        assert cli.main(["diagnose", str(chain)]) == 1
        assert f"error: {chain}: not a chain CSV" in capsys.readouterr().err

    def test_diagnose_empty_chain(self, tmp_path, capsys):
        chain = tmp_path / "chain.csv"
        chain.write_text("iter,theta_1,logpost,accepted,kernel,regen,wall_ns\n")
        assert cli.main(["diagnose", str(chain)]) == 1
        assert f"error: {chain}: chain has no draws" in capsys.readouterr().err

    @pytest.mark.parametrize("meta, message", [
        ("{", "cannot read burn-in"), ('{"config": {}}', "cannot read burn-in"),
        ('{"config": {"burnin": 2}}', "no draws after burn-in 2")])
    def test_diagnose_chain_beside_an_unusable_meta(self, tmp_path, capsys,
                                                    meta, message):
        chain = tmp_path / "chain.csv"
        chain.write_text("iter,theta_1,logpost,accepted,kernel,regen,wall_ns\n"
                         "0,0.5,-1.0,1,rwm,0,0\n1,0.4,-1.0,1,rwm,0,0\n")
        (tmp_path / "meta.json").write_text(meta)
        assert cli.main(["diagnose", str(chain)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
