"""CLI surface: exit codes, artifacts, config resolution, manifest
reproducibility."""

import json
import subprocess
import sys
import warnings

import pytest

from zerebro.cli import main, parse_config_file


def run_cli(*argv) -> int:
    return main(list(argv))


class TestExitCodes:
    def test_missing_model_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("collapse", "--m", "10")
        assert excinfo.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("definitely-not-a-command")
        assert excinfo.value.code == 2

    def test_runtime_failure_is_one(self, tmp_path, capsys):
        # deploying with an invalid symbol fails at runtime, not usage time
        code = run_cli(
            "chain", "deploy", "--name", "x", "--symbol", "bad-symbol",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, named", [
        ("--mu", "nan", "error: mu must be finite, got nan"),
        ("--sigma2", "inf", "error: sigma2 must be positive and finite, got inf"),
    ], ids=["mu-nan", "sigma2-inf"])
    def test_non_finite_gaussian_origin_is_one_error_line(self, tmp_path, capsys,
                                                          flag, value, named):
        # refused as the origin is built, before numpy could warn about it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("collapse", "--model", "gaussian", flag, value,
                           "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == named + "\n"

    @pytest.mark.parametrize(
        "argv, connectors, named",
        [
            (["memory", "upsert", "--id", "m1", "--text", "t", "--source", "bogus"],
             None, "'bogus'"),
            (["chain", "deploy", "--name", "x", "--symbol", "TOK", "--supply", "0"],
             None, "got 0"),
            (["agent", "--turns", "1"], "platform=x limit\n", "'platform=x limit'"),
            (["agent", "--turns", "5", "--seed", "1"], "# nothing\n",
             "connectors.conf defines no platform"),
            (["agent", "--turns", "1"], "platform=x outage=5\n",
             "connectors.conf: line 'platform=x outage=5'"),
            (["agent", "--turns", "1"], "platform=x limit=lots\n",
             "connectors.conf: line 'platform=x limit=lots'"),
            (["agent", "--turns", "60", "--eta", "-5"], None, "eta must be"),
            (["agent", "--turns", "5", "--max-actions", "-2"], None, "max_actions must be"),
            (["chain", "mint", "--endowment", "inf"], None, "amount 'inf' is not finite"),
            (["chain", "mint", "--endowment", "1e999999999"], None,
             "amount '1e999999999' is too large"),
            (["agent", "--turns", "1", "--endowment=inf"], None, "amount 'inf' is not finite"),
            (["chain", "mint", "--endowment", "1e5000"], None,
             "amount '1e5000' is too large: the ledger maximum"),
            (["agent", "--turns", "1", "--endowment", "1e5000"], None,
             "amount '1e5000' is too large: the ledger maximum"),
        ],
        ids=["memory-source", "deploy-supply", "connector-line", "connector-none",
             "connector-outage", "connector-limit", "agent-eta", "agent-max-actions",
             "mint-endowment-inf", "mint-endowment-huge", "agent-endowment-inf",
             "mint-endowment-above-maximum", "agent-endowment-above-maximum"],
    )
    def test_bad_value_is_usage_error(self, tmp_path, capsys, argv, connectors, named):
        if connectors is not None:
            path = tmp_path / "connectors.conf"
            path.write_text(connectors, encoding="utf-8")
            argv = [*argv, "--connectors", str(path)]
        code = run_cli(*argv, "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        # a usage error writes no artifact
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if connectors is None else ["connectors.conf"])

    def test_non_utf8_ledger_fails_verify(self, tmp_path, capsys):
        from zerebro.chain import Ledger, to_nanos

        ledger = Ledger()
        ledger.create_wallet(seed=1, endowment=to_nanos("10"))
        ledger.create_wallet(seed=2, endowment=to_nanos("10"))
        path = tmp_path / "ledger.log"
        raw = ledger.serialize().encode("utf-8")
        path.write_bytes(raw[:-3] + b"\xff" + raw[-2:])
        code = run_cli("chain", "verify", "--ledger", str(path), "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "offset 1 is not UTF-8" in err

    def test_success_is_zero(self, tmp_path, capsys):
        (tmp_path / "ledger.log").write_bytes(b"")  # an empty ledger is a valid one
        assert run_cli("chain", "verify", "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out.strip() == "ok"

    @pytest.mark.parametrize("argv", [
        ["chain", "verify", "--ledger", "{out}/no-such/ledger.log"],
        ["memory", "query", "--text", "a lantern", "--store", "{out}/no-such/memory.snapshot"],
        ["memory", "stats", "--store", "{out}/no-such/memory.snapshot"],
        ["memory", "stats"],
    ], ids=["chain-verify", "memory-query", "memory-stats", "memory-stats-default-store"])
    def test_read_only_command_on_missing_file_is_one_error_line(self, tmp_path, capsys,
                                                                 argv):
        argv = [a.replace("{out}", str(tmp_path)) for a in argv]
        assert run_cli(*argv, "--out", str(tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []  # no manifest names a missing file

    def test_module_entrypoint_runs(self, tmp_path):
        (tmp_path / "ledger.log").write_bytes(b"")
        result = subprocess.run(
            [sys.executable, "-m", "zerebro", "chain", "verify", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "ok"


class TestCollapseCommand:
    def test_writes_trajectory_and_report(self, tmp_path, capsys):
        code = run_cli(
            "collapse", "--model", "gaussian", "--m", "50", "--G", "5",
            "--rho", "0.5", "--seeds", "3", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "trajectory.tsv").exists()
        assert (tmp_path / "collapse_report.txt").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_zero_generations_single_row(self, tmp_path):
        run_cli(
            "collapse", "--model", "gaussian", "--G", "0", "--seeds", "1",
            "--out", str(tmp_path),
        )
        rows = [
            line
            for line in (tmp_path / "trajectory.tsv").read_text().splitlines()
            if line and not line.startswith(("#", "generation"))
        ]
        assert len(rows) == 1

    def test_refused_run_leaves_earlier_run_as_it_was(self, tmp_path, capsys):
        assert run_cli("collapse", "--model", "gaussian", "--G", "3",
                       "--out", str(tmp_path)) == 0
        before = tree(tmp_path)
        assert run_cli("collapse", "--model", "gaussian", "--G", "4", "--seeds", "0",
                       "--out", str(tmp_path)) == 1
        assert "n_seeds must be positive" in capsys.readouterr().err
        assert tree(tmp_path) == before


class TestMemoryCommand:
    def test_upsert_then_query_top_k(self, tmp_path, capsys):
        store = tmp_path / "memory.snapshot"
        for i in range(8):
            assert run_cli(
                "memory", "upsert", "--id", f"m{i}", "--text", f"the lantern number {i}",
                "--store", str(store), "--out", str(tmp_path),
            ) == 0
        capsys.readouterr()
        assert run_cli(
            "memory", "query", "--text", "the lantern", "--k", "5",
            "--store", str(store), "--out", str(tmp_path),
        ) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5
        sims = [float(line.split()[0]) for line in out]
        assert sims == sorted(sims, reverse=True)

    def test_stats(self, tmp_path, capsys):
        store = tmp_path / "memory.snapshot"
        run_cli("memory", "upsert", "--id", "a", "--text", "hello there",
                "--store", str(store), "--out", str(tmp_path))
        capsys.readouterr()
        assert run_cli("memory", "stats", "--store", str(store),
                       "--out", str(tmp_path)) == 0
        assert "count=1" in capsys.readouterr().out

    def test_stats_on_refused_header_is_runtime_failure(self, tmp_path, capsys):
        import hashlib

        store = tmp_path / "memory.snapshot"
        run_cli("memory", "upsert", "--id", "a", "--text", "hello there",
                "--store", str(store), "--out", str(tmp_path))
        capsys.readouterr()
        lines = store.read_bytes().split(b"\n")
        lines[0] = lines[0].replace(b"seed=0", b"seed=-1")
        body = b"\n".join(lines[:-2]) + b"\n"
        store.write_bytes(body + f"checksum={hashlib.sha256(body).hexdigest()}\n".encode())
        code = run_cli("memory", "stats", "--store", str(store), "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{store}: unreadable header" in err


class TestChainCommand:
    def test_mint_writes_art_and_verifies(self, tmp_path, capsys):
        assert run_cli(
            "chain", "mint", "--art-seed", "4", "--theme", "well", "--seed", "2",
            "--out", str(tmp_path),
        ) == 0
        art_files = list(tmp_path.glob("*.ppm"))
        assert len(art_files) == 1
        assert art_files[0].read_bytes().startswith(b"P6\n")
        capsys.readouterr()
        assert run_cli("chain", "verify", "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_mint_then_deploy_keeps_time_moving(self, tmp_path, capsys):
        from zerebro.chain import read_entries

        out = str(tmp_path)
        assert run_cli("chain", "mint", "--art-seed", "3", "--theme", "lantern",
                       "--out", out) == 0
        assert run_cli("chain", "deploy", "--name", "t", "--symbol", "CORR", "--out", out) == 0
        stamps = [e.timestamp for e in read_entries(tmp_path / "ledger.log")]
        assert len(stamps) == 5 and stamps == sorted(set(stamps))
        capsys.readouterr()
        assert run_cli("chain", "verify", "--out", out) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_second_command_does_not_endow_again(self, tmp_path):
        from zerebro.chain import GENESIS, Ledger, to_nanos, wallet_address

        out = str(tmp_path)
        assert run_cli("chain", "mint", "--art-seed", "3", "--out", out) == 0
        assert run_cli("chain", "deploy", "--name", "t", "--symbol", "CORR",
                       "--endowment", "5", "--out", out) == 0
        ledger = Ledger.load(tmp_path / "ledger.log")
        endowments = [e for e in ledger.entries if e.src == GENESIS]
        assert [(e.dst, e.amount) for e in endowments] == [(wallet_address(0), to_nanos("1"))]
        fees = ledger.fees.mint + ledger.fees.deploy
        assert ledger.balance(wallet_address(0)) == to_nanos("1") - fees

    def test_verify_reports_time_going_back(self, tmp_path, capsys):
        from zerebro.chain import Ledger, to_nanos

        ticks = iter([5000, 6000, 1000])
        ledger = Ledger(clock=lambda: next(ticks))
        a = ledger.create_wallet(seed=1, endowment=to_nanos("3"))
        b = ledger.create_wallet(seed=2, endowment=to_nanos("3"))
        ledger.transfer(a.address, b.address, to_nanos("1"))
        path = tmp_path / "ledger.log"
        ledger.save(path)
        code = run_cli("chain", "verify", "--ledger", str(path), "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().out == (
            "violation: seq 2: timestamp 1000 precedes seq 1's 6000\n")


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text(
            "agent.seed = 9\n# comment line\nagent.eta=0.2\n\n", encoding="utf-8"
        )
        assert parse_config_file(str(path)) == {"agent.seed": "9", "agent.eta": "0.2"}

    def test_flags_override_config(self, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("agent.seed=1\n", encoding="utf-8")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli("agent", "--turns", "3", "--config", str(conf), "--out", str(out_a))
        run_cli("agent", "--turns", "3", "--seed", "1", "--out", str(out_b))
        hash_a = (out_a / "state_hash.txt").read_text()
        hash_b = (out_b / "state_hash.txt").read_text()
        assert hash_a == hash_b

    def test_agent_config_keys_apply(self, tmp_path):
        conf = tmp_path / "conf"
        conf.write_text(
            "agent.seed=4\nagent.max_actions_per_turn=0\nagent.eta=0.3\n",
            encoding="utf-8",
        )
        out = tmp_path / "run"
        assert run_cli("agent", "--turns", "5", "--config", str(conf),
                       "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["max_actions"] == 0
        assert manifest["config"]["eta"] == 0.3
        log_text = (out / "agent.log").read_text(encoding="utf-8")
        assert "\treceipt\t" not in log_text  # zero actions per turn

    def test_connector_config_file(self, tmp_path):
        connectors = tmp_path / "connectors.conf"
        connectors.write_text("platform=shortwave limit=64 seed=9\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run_cli(
            "agent", "--turns", "6", "--seed", "2",
            "--connectors", str(connectors), "--out", str(out),
        ) == 0
        log_text = (out / "agent.log").read_text(encoding="utf-8")
        assert "twitter" not in log_text
        assert "shortwave" in log_text

    def test_memory_remote_stub_backend(self, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("embedding.backend=remote-stub\nembedding.dimension=64\n",
                        encoding="utf-8")
        store = tmp_path / "mem.snapshot"
        assert run_cli(
            "memory", "upsert", "--id", "s1", "--text", "stub backed record",
            "--store", str(store), "--config", str(conf), "--out", str(tmp_path),
        ) == 0
        header = store.read_text(encoding="utf-8").splitlines()[0]
        assert "backend=remote-stub" in header
        capsys.readouterr()
        assert run_cli(
            "memory", "query", "--text", "stub backed record", "--k", "1",
            "--store", str(store), "--out", str(tmp_path),
        ) == 0
        out = capsys.readouterr().out
        assert "s1" in out


class TestManifestReproducibility:
    def rerun_args(self, manifest: dict, out: str) -> list[str]:
        c = manifest["config"]
        return [
            "collapse", "--model", c["model"], "--m", str(c["m"]), "--G", str(c["G"]),
            "--rho", str(c["rho"]), "--seeds", str(c["seeds"]), "--seed", str(c["seed"]),
            "--out", out,
        ]

    def test_rerun_from_manifest_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        run_cli(
            "collapse", "--model", "categorical", "--m", "40", "--G", "6",
            "--rho", "0.25", "--seeds", "5", "--symbols", "100",
            "--out", str(first),
        )
        manifest = json.loads((first / "manifest.json").read_text())
        args = self.rerun_args(manifest, str(second)) + [
            "--symbols", str(manifest["config"]["symbols"]),
        ]
        run_cli(*args)
        for name in manifest["artifacts"]:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_agent_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run_cli("agent", "--turns", "8", "--seed", "3", "--out", str(out))
        for name in ("agent.log", "ledger.log", "state_hash.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestReportCommand:
    def test_merged_summary(self, tmp_path, capsys):
        collapse_out = tmp_path / "collapse"
        backrooms_out = tmp_path / "backrooms"
        run_cli("collapse", "--model", "gaussian", "--G", "3", "--seeds", "2",
                "--out", str(collapse_out))
        run_cli("backrooms", "--turns", "5", "--seed", "2", "--out", str(backrooms_out))
        capsys.readouterr()
        code = run_cli(
            "report",
            "--collapse", str(collapse_out / "collapse_report.txt"),
            "--backrooms", str(backrooms_out / "transcript.txt"),
            "--out", str(tmp_path / "merged"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== collapse ==" in out
        assert "== backrooms ==" in out
        assert (tmp_path / "merged" / "report.txt").exists()

    def test_empty_report_is_runtime_error(self, tmp_path):
        assert run_cli("report", "--out", str(tmp_path)) == 1

    def test_report_consumes_raw_trajectory(self, tmp_path, capsys):
        collapse_out = tmp_path / "collapse"
        run_cli("collapse", "--model", "gaussian", "--G", "4", "--seeds", "1",
                "--out", str(collapse_out))
        capsys.readouterr()
        code = run_cli(
            "report", "--collapse", str(collapse_out / "trajectory.tsv"),
            "--out", str(tmp_path / "merged"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "generations=4" in out
        assert "final [" in out

    @pytest.mark.parametrize(
        "flag, data, named",
        [
            ("--backrooms", b"", "is empty"),
            ("--collapse", b"", "is empty"),
            ("--collapse", b"# collapse trajectory v1\ngeneration\tmu\n0\t0.5\n",
             "without its config"),
            ("--backrooms", b"summary final_distinct_2=0.5 \xff\n", "is not UTF-8"),
        ],
        ids=["backrooms-empty", "collapse-empty", "collapse-no-config", "not-utf8"],
    )
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, flag, data, named):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        code = run_cli("report", flag, str(path), "--out", str(tmp_path / "merged"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: report: {path} ") and err.count("\n") == 1
        assert named in err


class TestOutEnvDefault:
    def test_zerebro_out_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ZEREBRO_OUT", str(tmp_path / "envout"))
        (tmp_path / "envout").mkdir()
        (tmp_path / "envout" / "ledger.log").write_bytes(b"")
        assert run_cli("chain", "verify") == 0
        assert (tmp_path / "envout" / "manifest.json").exists()


class TestChainVerifyViolations:
    def test_token_sale_without_units(self, tmp_path, capsys):
        from test_chain import rehashed, saved
        from zerebro.chain import Ledger, to_nanos

        ledger = Ledger()
        a = ledger.create_wallet(seed=1, endowment=to_nanos("10"))
        b = ledger.create_wallet(seed=2, endowment=to_nanos("10"))
        ledger.deploy_token(a, "moth token", "MOTH", 1000)
        ledger.execute_sale(("MOTH", 250), a.address, b.address, to_nanos("1"))
        sale = ledger.entries[-1]
        payload = {"token": "MOTH", "price": sale.payload["price"]}
        path = saved([*ledger.entries[:-1], rehashed(sale, payload)], tmp_path)

        code = run_cli("chain", "verify", "--ledger", str(path), "--out", str(tmp_path))
        assert code == 1
        out = capsys.readouterr().out
        # the file holds the payload's keys sorted
        read = dict(sorted(payload.items()))
        assert f"violation: seq {sale.sequence}: sale payload {read!r} cannot be read" in out

    def test_sale_payload_not_an_object(self, tmp_path, capsys):
        from test_chain import rehashed, saved
        from zerebro.chain import Ledger, generate_art, to_nanos

        ledger = Ledger()
        a = ledger.create_wallet(seed=1, endowment=to_nanos("10"))
        b = ledger.create_wallet(seed=2, endowment=to_nanos("10"))
        minted = ledger.mint_nft(a, generate_art(1, "moth", 8, 8))
        ledger.execute_sale(minted.token_id, a.address, b.address, to_nanos("1"))
        sale = ledger.entries[-1]
        payload = [sale.payload["nft"]]
        path = saved([*ledger.entries[:-1], rehashed(sale, payload)], tmp_path)

        code = run_cli("chain", "verify", "--ledger", str(path), "--out", str(tmp_path))
        assert code == 1
        captured = capsys.readouterr()
        assert (f"violation: seq {sale.sequence}: sale payload {payload!r} cannot be read"
                in captured.out)
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("field, value", [("src", ["genesis"]), ("dst", {"w": 1})])
    def test_address_not_a_str(self, tmp_path, capsys, field, value):
        from test_chain import rehashed, saved
        from zerebro.chain import Ledger, to_nanos

        ledger = Ledger()
        ledger.create_wallet(seed=1, endowment=to_nanos("10"))
        saved([rehashed(ledger.entries[0], ledger.entries[0].payload, **{field: value})],
              tmp_path)

        assert run_cli("chain", "verify", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().out == (
            f"violation: seq 0: transfer {field} must be a str, got {value!r}\n")

    @pytest.mark.parametrize("amount", ["Infinity", "1e400", "2.5"])
    def test_amount_not_an_int(self, tmp_path, capsys, amount):
        from test_chain import rehashed, saved
        from zerebro.chain import Ledger, to_nanos

        ledger = Ledger()
        ledger.create_wallet(seed=1, endowment=to_nanos("10"))
        value = json.loads(amount)  # 1e400 reads as inf
        path = saved([rehashed(ledger.entries[0], ledger.entries[0].payload, amount=value)],
                     tmp_path)
        # the amount as the file spells it, under a content hash that matches
        path.write_text(path.read_text(encoding="utf-8").replace(json.dumps(value), amount),
                        encoding="utf-8")

        assert run_cli("chain", "verify", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().out == (
            f"violation: seq 0: endowment must be an int, got {value!r}\n")
        assert run_cli("chain", "mint", "--art-seed", "3", "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"endowment must be an int, got {value!r}" in err


def tree(root) -> dict[str, bytes]:
    """Every file under root, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def argv_from_manifest(config: dict) -> list[str]:
    """The argv that re-runs a command from its manifest's config alone."""
    argv = [config["command"], *([config["op"]] if "op" in config else [])]
    for dest, value in sorted(config.items()):
        flag = "--" + dest.replace("_", "-")
        if dest in ("command", "op") or value is None or value is False:
            continue
        argv += [flag] if value is True else [flag, str(value)]
    return argv


BYTE_STABLE_RUNS = {
    "collapse": ["collapse", "--model", "categorical", "--m", "30", "--G", "4",
                 "--rho", "0.5", "--seeds", "2", "--symbols", "50"],
    "backrooms": ["backrooms", "--turns", "6", "--seed", "2", "--injection-rate", "0.5"],
    "agent": ["agent", "--turns", "6", "--seed", "4"],
    "memory-upsert": ["memory", "upsert", "--id", "m1", "--text", "the lantern at dusk"],
    "chain-mint": ["chain", "mint", "--art-seed", "4", "--theme", "well", "--seed", "2"],
    "report": ["report"],
}


class TestManifestIsWholeRun:
    """manifest.json records the whole resolved run and no wall-clock time."""

    @pytest.mark.parametrize("name", sorted(BYTE_STABLE_RUNS))
    def test_rerun_directory_byte_identical(self, tmp_path, capsys, name):
        argv = list(BYTE_STABLE_RUNS[name])
        if name == "report":
            assert run_cli("collapse", "--model", "gaussian", "--G", "3",
                           "--out", str(tmp_path / "input")) == 0
            argv += ["--collapse", str(tmp_path / "input" / "collapse_report.txt")]
        for out in ("a", "b"):
            assert run_cli(*argv, "--out", str(tmp_path / out)) == 0
        first = tree(tmp_path / "a")
        assert "manifest.json" in first
        assert first == tree(tmp_path / "b")

    @pytest.mark.parametrize("argv", [
        ["collapse", "--model", "gaussian", "--G", "2"],
        ["backrooms", "--turns", "3"],
        ["agent", "--turns", "3"],
        ["memory", "upsert", "--id", "m1", "--text", "a lantern"],
        ["memory", "query", "--text", "a lantern"],
        ["memory", "stats"],
        ["chain", "mint"],
        ["chain", "deploy", "--name", "moth token", "--symbol", "MOTH"],
        ["chain", "verify"],
        ["report", "--backrooms", "{out}/transcript.txt"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_config_covers_every_dest(self, tmp_path, capsys, argv):
        from zerebro.cli import build_parser

        out = str(tmp_path)
        assert run_cli("backrooms", "--turns", "2", "--out", out) == 0
        argv = [a.replace("{out}", out) for a in argv]
        if argv[0] == "memory" and argv[1] != "upsert":  # query and stats read a store
            assert run_cli("memory", "upsert", "--id", "m0", "--text", "a lantern",
                           "--out", out) == 0
        if argv[:2] == ["chain", "verify"]:
            (tmp_path / "ledger.log").write_bytes(b"")
        assert run_cli(*argv, "--out", out) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        dests = set(vars(build_parser().parse_args(argv))) - {"func", "config", "out"}
        assert dests <= set(manifest["config"])
        assert manifest["command"] == argv[0]
        assert set(manifest) == {"command", "config", "artifacts"}

    def test_chain_mint_rerun_from_manifest_alone(self, tmp_path, capsys):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli("chain", "mint", "--art-seed", "4", "--theme", "well",
                       "--seed", "2", "--endowment", "3", "--out", str(first)) == 0
        config = json.loads((first / "manifest.json").read_text())["config"]
        assert run_cli(*argv_from_manifest(config), "--out", str(second)) == 0
        assert tree(first) == tree(second)

    def test_config_file_values_recorded(self, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("embedding.backend=remote-stub\nembedding.dimension=64\n"
                        "embedding.seed=7\nbackrooms.seed=5\n", encoding="utf-8")
        runs = [
            (["memory", "upsert", "--id", "m1", "--text", "a lantern"], "embedding_seed", 7),
            (["backrooms", "--turns", "3"], "seed", 5),
        ]
        for argv, seed_key, seed in runs:
            out = tmp_path / argv[0]
            assert run_cli(*argv, "--config", str(conf), "--out", str(out)) == 0
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert (config["backend"], config["dimension"]) == ("remote-stub", 64)
            assert config[seed_key] == seed

    def test_empty_report_error_line(self, tmp_path, capsys):
        assert run_cli("report", "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "manifest.json").exists()
