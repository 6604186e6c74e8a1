"""CLI tests (``python -m repro``)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.trace import CellArchive, generate_cell


@pytest.fixture(scope="module")
def archived_cell(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cell"
    cell = generate_cell("2019a", scale=0.02, seed=11, days=4,
                         tasks_per_day=400)
    CellArchive(path).save(cell)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "/tmp/x"])
        assert args.cell == "2019c"
        assert args.scale == 0.03

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["destroy"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "/tmp/x"])
        assert args.rate == 2000.0
        assert args.pattern == "poisson"
        assert not args.no_trainer

    def test_loadtest_defaults(self):
        args = build_parser().parse_args(["loadtest", "/tmp/x"])
        assert args.rate == 8000.0
        assert args.duration == 5.0
        assert not args.json
        assert args.workers == 1
        assert args.cells is None

    def test_serving_workers_and_cells(self):
        args = build_parser().parse_args(
            ["serve", "/tmp/x", "--workers", "4", "--cells", "2019a,2019d"])
        assert args.workers == 4
        assert args.cells == "2019a,2019d"
        args = build_parser().parse_args(
            ["loadtest", "/tmp/x", "--workers", "2"])
        assert args.workers == 2

    def test_admission_defaults(self):
        args = build_parser().parse_args(["loadtest", "/tmp/x"])
        assert args.latency_budget_ms is None
        assert args.max_queue is None
        assert args.shed_policy == "reject"
        assert not args.autotune

    def test_admission_flags(self):
        args = build_parser().parse_args(
            ["serve", "/tmp/x", "--latency-budget-ms", "50",
             "--shed-policy", "drop-oldest", "--max-queue", "4096",
             "--autotune"])
        assert args.latency_budget_ms == 50.0
        assert args.shed_policy == "drop-oldest"
        assert args.max_queue == 4096
        assert args.autotune

    def test_bad_shed_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadtest", "/tmp/x",
                                       "--shed-policy", "tail-drop"])

    def test_cell_profile_parsing(self):
        from repro.cli import _parse_cell_profiles

        assert _parse_cell_profiles(None) == []
        assert _parse_cell_profiles("") == []
        assert _parse_cell_profiles("2019a") == ["2019a"]
        assert _parse_cell_profiles("2019a, 2019d,") == ["2019a", "2019d"]

    def test_loadtest_bad_pattern(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadtest", "/tmp/x",
                                       "--pattern", "steady"])

    def test_http_defaults(self):
        args = build_parser().parse_args(["serve", "/tmp/x"])
        assert args.http_port is None
        assert args.http_host == "127.0.0.1"
        assert args.staleness_budget is None
        args = build_parser().parse_args(["loadtest", "/tmp/x"])
        assert args.url is None
        assert args.http_connections == 4

    def test_http_flags(self):
        args = build_parser().parse_args(
            ["serve", "/tmp/x", "--http-port", "0",
             "--http-host", "0.0.0.0", "--staleness-budget", "30"])
        assert args.http_port == 0
        assert args.http_host == "0.0.0.0"
        assert args.staleness_budget == 30.0
        args = build_parser().parse_args(
            ["loadtest", "/tmp/x", "--url", "http://127.0.0.1:8080",
             "--http-connections", "2"])
        assert args.url == "http://127.0.0.1:8080"
        assert args.http_connections == 2


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "IPDPSW 2025" in out

    def test_generate_and_stats(self, tmp_path, capsys):
        outdir = tmp_path / "gen"
        assert main(["generate", str(outdir), "--cell", "2011",
                     "--scale", "0.02", "--days", "3",
                     "--tasks-per-day", "300", "--seed", "3"]) == 0
        assert (outdir / "manifest.json").exists()
        capsys.readouterr()
        assert main(["stats", str(outdir)]) == 0
        out = capsys.readouterr().out
        assert "TABLE IX" in out
        assert "clusterdata-2011" in out

    def test_stats(self, archived_cell, capsys):
        assert main(["stats", str(archived_cell)]) == 0
        out = capsys.readouterr().out
        assert "constrained of" in out

    def test_train(self, archived_cell, capsys):
        assert main(["train", str(archived_cell), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "TABLE XI" in out
        assert "epoch reduction" in out
        assert "Growing" in out

    def test_simulate(self, archived_cell, capsys):
        assert main(["simulate", str(archived_cell), "--seed", "1",
                     "--scan-budget", "16"]) == 0
        out = capsys.readouterr().out
        assert "restrictive tasks" in out
        assert "speedup" in out

    def test_serve(self, archived_cell, capsys):
        assert main(["serve", str(archived_cell), "--duration", "0.5",
                     "--rate", "500", "--train-steps", "2",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "serving" in out
        assert "0 dropped" in out

    def test_loadtest_json(self, archived_cell, capsys):
        import json

        assert main(["loadtest", str(archived_cell), "--duration", "0.5",
                     "--rate", "800", "--train-steps", "2", "--seed", "1",
                     "--no-trainer", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_dropped"] == 0
        assert payload["n_completed"] == payload["n_requests"] > 0
        assert payload["latency_us"]["p99_us"] > 0

    def test_loadtest_sharded(self, archived_cell, capsys):
        import json

        assert main(["loadtest", str(archived_cell), "--duration", "0.4",
                     "--rate", "800", "--train-steps", "2", "--seed", "1",
                     "--workers", "4", "--no-trainer", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_dropped"] == 0
        assert payload["n_completed"] == payload["n_requests"] > 0

    def test_loadtest_overloaded_sheds_but_loses_nothing(self,
                                                         archived_cell,
                                                         capsys):
        """A bursty flood far past the tiny budget must shed (visible in
        the report) while accounting stays exact — and shedding alone
        must not flip the exit code, which is reserved for lost
        requests and misroutes."""

        import json

        assert main(["loadtest", str(archived_cell), "--duration", "1.0",
                     "--rate", "20000", "--pattern", "bursty",
                     "--train-steps", "2", "--seed", "1",
                     "--latency-budget-ms", "5", "--autotune",
                     "--no-trainer", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_dropped"] == 0
        assert payload["n_shed"] > 0
        assert payload["n_requests"] == (payload["n_accepted"]
                                         + payload["n_shed"])
        assert payload["n_accepted"] == (payload["n_completed"]
                                         + payload["n_evicted"]
                                         + payload["n_expired"])
        assert 0.0 < payload["accept_rate"] < 1.0
        assert payload["goodput_rps"] > 0

    def test_loadtest_multicell(self, archived_cell, capsys):
        """--cells spins an extra profile-synthesized cell behind the
        router; the report must show both cells, zero drops, and a
        clean misroute audit over the forced mid-stream hot-swaps."""

        import json

        assert main(["loadtest", str(archived_cell), "--duration", "0.4",
                     "--rate", "600", "--train-steps", "2", "--seed", "1",
                     "--workers", "2", "--cells", "2019d",
                     "--no-trainer", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_dropped"] == 0
        assert payload["n_misrouted"] == 0
        assert payload["n_audited"] > 0
        assert len(payload["per_cell"]) == 2
        assert sum(payload["per_cell"].values()) == payload["n_completed"]
        assert payload["swaps"] == 2  # one forced swap per cell

    def test_wire_loadtest_addresses_the_served_cell_ids(self,
                                                          archived_cell):
        """``loadtest --url --cells`` must name its corpora exactly as
        ``serve --cells`` registered the cells — same ids, same order,
        including the ``#k`` suffix of a repeated profile."""

        from repro.cli import _corpora_setup, _serving_setup

        cells = ["--cells", "2019d,2019d", "--train-steps", "2",
                 "--seed", "1", "--no-trainer"]
        serve_args = build_parser().parse_args(
            ["serve", str(archived_cell), *cells])
        _cell, _result, _model, router, served = _serving_setup(serve_args)
        router.close()
        load_args = build_parser().parse_args(
            ["loadtest", str(archived_cell), *cells,
             "--url", "http://127.0.0.1:9"])
        _result, corpora = _corpora_setup(load_args)
        assert list(corpora) == list(router.cells) == list(served)
        assert list(corpora) == ["clusterdata-2019a", "clusterdata-2019d",
                                 "clusterdata-2019d#2"]
        for cell_id, (tasks, labels) in served.items():
            assert corpora[cell_id][0] == tasks
            assert list(corpora[cell_id][1]) == list(labels)

    def test_loadtest_url_drives_a_live_ingress(self, archived_cell,
                                                capsys):
        """``loadtest --url`` replays the archive's corpus over the wire
        against a real ingress: zero lost, clean exit code."""

        import json

        from repro.cli import _serving_setup
        from repro.serve import HttpIngress

        serve_args = build_parser().parse_args(
            ["serve", str(archived_cell), "--train-steps", "2",
             "--seed", "1", "--no-trainer"])
        _cell, _result, _model, target, _corpora = _serving_setup(
            serve_args)
        with target:
            with HttpIngress(target, port=0) as ingress:
                capsys.readouterr()
                assert main(["loadtest", str(archived_cell),
                             "--duration", "0.4", "--rate", "400",
                             "--seed", "1", "--no-trainer",
                             "--url", ingress.url,
                             "--http-connections", "2", "--json"]) == 0
                payload = json.loads(capsys.readouterr().out)
        assert payload["n_dropped"] == 0
        assert payload["n_completed"] == payload["n_requests"] > 0
        assert payload["latency_us"]["p99_us"] > 0
