"""Unit tests for the command-line interface."""

import json

import pytest

from oracles import liu as liu_oracle
from oracles import minmem as minmem_oracle
from oracles import postorder as postorder_oracle
from oracles import sparse as sparse_oracle
from repro.cli import build_parser, main
from repro.core.serialize import save_tree
from repro.generators.harpoon import harpoon_tree
from repro.sparse.matrices import grid_laplacian_2d


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    save_tree(harpoon_tree(3, memory=10.0, epsilon=1.0), path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        assert parser.parse_args(["minmem", "x.json"]).command == "minmem"
        assert parser.parse_args(["experiment", "fig5"]).which == "fig5"


class TestMinMemCommand:
    def test_prints_all_algorithms(self, tree_file, capsys):
        assert main(["minmem", str(tree_file)]) == 0
        out = capsys.readouterr().out
        assert "PostOrder memory" in out
        assert "Liu (optimal) memory" in out
        assert "MinMem (optimal)" in out

    def test_postorder_ratio_reported(self, tree_file, capsys):
        main(["minmem", str(tree_file)])
        out = capsys.readouterr().out
        assert "PostOrder / optimal" in out


class TestMinIOCommand:
    def test_default_memory(self, tree_file, capsys):
        assert main(["minio", str(tree_file)]) == 0
        out = capsys.readouterr().out
        for name in ("lsnf", "first_fit", "best_fit", "first_fill", "best_fill"):
            assert name in out

    def test_explicit_memory(self, tree_file, capsys):
        assert main(["minio", str(tree_file), "--memory", "100", "--algorithm", "PostOrder"]) == 0
        assert "IO volume" in capsys.readouterr().out

    def test_too_small_memory_fails(self, tree_file, capsys):
        assert main(["minio", str(tree_file), "--memory", "1"]) == 1
        assert "error" in capsys.readouterr().err


class TestDatasetCommand:
    def test_writes_trees(self, tmp_path, capsys):
        out_dir = tmp_path / "ds"
        assert main(["dataset", "--scale", "tiny", "--output", str(out_dir), "--kind", "assembly"]) == 0
        files = list(out_dir.glob("*.json"))
        assert files, "dataset files should have been written"
        data = json.loads(files[0].read_text())
        assert "nodes" in data


class TestExperimentCommand:
    def test_harpoon_experiment(self, capsys):
        assert main(["experiment", "harpoon"]) == 0
        out = capsys.readouterr().out
        assert "levels" in out
        assert "ratio" in out


class TestPipelineCommand:
    def test_grid2d_end_to_end(self, capsys):
        assert main(["pipeline", "--grid2d", "12", "--ordering", "rcm",
                     "--relaxed", "2"]) == 0
        out = capsys.readouterr().out
        for stage in ("symmetrize", "ordering", "etree", "counts", "amalgamate"):
            assert stage in out
        assert "supernodes" in out
        assert "minmem" in out

    def test_json_output_both_engines_agree(self, capsys):
        """The pipeline's JSON agrees with the per-entry and per-node
        reference oracles run stage for stage on the same matrix."""
        assert main(["pipeline", "--grid2d", "9", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        reference = sparse_oracle.build_assembly_tree(
            grid_laplacian_2d(9), ordering="rcm", relaxed=1
        )
        assert doc["nnz_l"] == reference.symbolic.nnz_l
        assert doc["supernodes"] == reference.tree.size
        assert [r["peak_memory"] for r in doc["reports"]] == [
            postorder_oracle.postorder_with_rule(reference.tree).memory,
            liu_oracle.liu_optimal_traversal(reference.tree).memory,
            minmem_oracle.min_mem(reference.tree).memory,
        ]

    def test_engine_flags_are_gone(self):
        for argv in (
            ["solve", "x.json", "--engine", "kernel"],
            ["pipeline", "--grid2d", "3", "--engine", "kernel"],
            ["bench", "--smoke", "--engine", "kernel"],
            ["serve", "--stdio", "--engine", "kernel"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_mtx_source_and_algorithm_selection(self, tmp_path, capsys):
        from repro.sparse.matrices import grid_laplacian_2d
        from repro.sparse.mmio import write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(grid_laplacian_2d(5), path, symmetric=True)
        assert main(["pipeline", "--mtx", str(path), "-a", "liu"]) == 0
        out = capsys.readouterr().out
        assert "liu" in out and "postorder" not in out

    def test_unknown_ordering_rejected(self, capsys):
        assert main(["pipeline", "--grid2d", "4", "--ordering", "amd"]) == 2
        assert "unknown ordering" in capsys.readouterr().err

    def test_unreadable_mtx_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("not a matrix\n")
        assert main(["pipeline", "--mtx", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_rectangular_mtx_reports_error(self, tmp_path, capsys):
        rect = tmp_path / "rect.mtx"
        rect.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n"
        )
        assert main(["pipeline", "--mtx", str(rect)]) == 1
        err = capsys.readouterr().err
        assert "error" in err and "square" in err


class TestServeCommand:
    def test_requires_a_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_stdio_and_port_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--stdio", "--port", "0"])

    def test_bad_max_pending_rejected(self, capsys):
        assert main(["serve", "--stdio", "--max-pending", "0"]) == 2
        assert "max-pending" in capsys.readouterr().err

    def test_stdio_serves_ndjson_requests(self, monkeypatch, capsys, tmp_path):
        lines = "\n".join([
            json.dumps({"id": "a",
                        "tree": {"parents": [-1, 0, 0], "f": [0, 2, 3]},
                        "algorithm": "minmem"}),
            json.dumps({"op": "stats"}),
        ]) + "\n"
        # a real file: the daemon reads a duplicate of stdin's descriptor
        requests = tmp_path / "requests.ndjson"
        requests.write_text(lines)
        with open(requests) as stdin:
            monkeypatch.setattr("sys.stdin", stdin)
            assert main(["serve", "--stdio", "--pool", "serial"]) == 0
        captured = capsys.readouterr()
        docs = [json.loads(line) for line in captured.out.strip().splitlines()]
        by_kind = {("stats" if "op" in d else d.get("id")): d for d in docs}
        assert by_kind["a"]["status"] == "ok"
        assert by_kind["stats"]["stats"]["accepted"] == 1
        assert "served 1 requests" in captured.err


class TestTrafficBenchCommand:
    def test_list_traffic_scenarios(self, capsys):
        assert main(["bench", "--traffic", "--list"]) == 0
        out = capsys.readouterr().out
        assert "service_open_smoke" in out and "service_burst_open" in out

    def test_unmatched_filter_fails(self, capsys):
        assert main(["bench", "--traffic", "--filter", "zzz"]) == 2
        assert "no traffic scenario" in capsys.readouterr().err

    def test_fresh_pool_rejected_for_traffic(self, capsys):
        assert main(["bench", "--traffic", "--smoke", "--pool", "fresh"]) == 2
        assert "no 'fresh' pool" in capsys.readouterr().err

    def test_smoke_traffic_run_and_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_traffic.json"
        assert main(["bench", "--traffic", "--smoke", "--pool", "serial",
                     "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario/cell" in out
        assert "service_open_smoke/poisson-r25" in out
        document = json.loads(out_path.read_text())
        (record,) = document["records"]
        assert record["extras"]["rejected"] == 0
        assert record["extras"]["deadline_missed"] == 0
        assert record["extras"]["latency_p99"] > 0


class TestReportCommand:
    @staticmethod
    def _artifact(path, *, family="synthetic", created="2026-08-08T10:00:00Z"):
        path.write_text(json.dumps({
            "schema": "repro-bench-v1",
            "kind": "campaign",
            "created_utc": created,
            "version": "1.7.0",
            "platform": {"python": "3.11"},
            "run": {"scale": "smoke"},
            "records": [{
                "family": family,
                "name": f"{family}/t0",
                "algorithm": "minmem",
                "best_time": 0.01,
                "extras": {},
            }],
        }))
        return path

    def test_renders_dashboard_from_paths(self, tmp_path, capsys):
        art = self._artifact(tmp_path / "BENCH_a.json")
        out = tmp_path / "dash.html"
        assert main(["report", str(art), "--output", str(out)]) == 0
        assert "wrote dashboard over 1 artifact(s)" in capsys.readouterr().out
        html = out.read_text()
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "BENCH_a.json" in html

    def test_globs_cwd_when_no_paths(self, tmp_path, capsys, monkeypatch):
        self._artifact(tmp_path / "BENCH_x.json")
        monkeypatch.chdir(tmp_path)
        assert main(["report"]) == 0
        assert (tmp_path / "report.html").is_file()

    def test_no_artifacts_found_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["report"]) == 2
        assert "no BENCH_*.json artifacts" in capsys.readouterr().err

    def test_missing_path_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "BENCH_gone.json")]) == 2
        assert "artifact not found" in capsys.readouterr().err

    def test_malformed_artifact_fails(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        assert main(["report", str(bad),
                     "--output", str(tmp_path / "out.html")]) == 1
        assert "error:" in capsys.readouterr().err


class TestServeLoggingFlags:
    def test_parser_accepts_log_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--stdio", "--log-level", "debug", "--log-json"])
        assert args.log_level == "debug"
        assert args.log_json is True

    def test_log_level_defaults_to_info(self):
        args = build_parser().parse_args(["serve", "--stdio"])
        assert args.log_level == "info"
        assert args.log_json is False

    def test_bad_log_level_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--stdio",
                                       "--log-level", "loud"])
