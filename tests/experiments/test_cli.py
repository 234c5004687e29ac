"""Tests for the command-line interface."""

import re
import sys
import types
from pathlib import Path

import pytest

from repro import runtime
from repro.cli import COMMANDS, EXPERIMENTS, build_parser, main

ROOT = Path(__file__).resolve().parents[2]

#: Fenced code blocks, inline code spans, and a CLI invocation inside one.
_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
_SPAN = re.compile(r"`([^`]+)`")
_VERB = re.compile(r"(?:\bpython3? -m repro|\bbmbp)\s+([a-z][\w-]*)")
_ENV = re.compile(r"\bBMBP_[A-Z0-9_]+\b")


@pytest.fixture(autouse=True)
def _engine_defaults():
    """main() calls runtime.configure(); don't leak that across tests."""
    runtime.reset_configuration()
    yield
    runtime.reset_configuration()


class TestParser:
    def test_all_experiments_are_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table3"])
        assert args.experiment == "table3"
        assert args.scale == 0.35

    def test_overrides(self):
        args = build_parser().parse_args(
            ["table1", "--scale", "0.1", "--seed", "3", "--epoch", "600"]
        )
        assert args.scale == 0.1
        assert args.seed == 3
        assert args.epoch == 600.0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_registry_covers_every_table_and_figure(self):
        expected = {
            "table1", "table3", "table4", "table5", "table6", "table7",
            "table8", "figure1", "figure2", "ablations", "latency",
            "sensitivity", "clustering",
        }
        assert set(EXPERIMENTS) == expected

    def test_engine_flags(self):
        args = build_parser().parse_args(
            ["table3", "--jobs", "4", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.no_cache is True

    def test_engine_flag_defaults(self):
        args = build_parser().parse_args(["table3"])
        assert args.jobs is None
        assert args.no_cache is False

    def test_clear_cache_is_a_choice(self):
        args = build_parser().parse_args(["clear-cache"])
        assert args.experiment == "clear-cache"


class TestCommandTable:
    @pytest.mark.parametrize("verb", list(COMMANDS))
    def test_every_verb_has_help(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--help"])
        assert exit_info.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_top_level_help_names_every_verb(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        verbs = capsys.readouterr().out.split("\ncommands (", 1)[1]
        listed = re.findall(r"^  (\S+)  ", verbs, re.M)
        assert listed == list(COMMANDS)


def test_docs_name_only_real_verbs():
    """Every ``python -m repro <verb>`` / ``bmbp <verb>`` in the docs' code
    is a verb of the command table.  Every ``BMBP_*`` setting the docs and
    the notes under ``.claude/`` name is read by the program, its benchmarks
    or perfbench."""
    verbs = set(COMMANDS)
    docs = [ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "DESIGN.md",
            *sorted((ROOT / "docs").glob("*.md"))]
    mentions, unknown = 0, []
    for doc in docs:
        text = doc.read_text()
        code = _FENCE.findall(text) + _SPAN.findall(_FENCE.sub("", text))
        for chunk in code:
            for verb in _VERB.findall(chunk):
                mentions += 1
                if verb not in verbs:
                    unknown.append(f"{doc.relative_to(ROOT)}: {verb}")
    assert mentions > 50, "the scan found too few CLI mentions to mean anything"
    assert not unknown, unknown

    read = set()
    for tree in ("src", "benchmarks", "perfbench"):
        for source in (ROOT / tree).rglob("*.py"):
            read.update(_ENV.findall(source.read_text()))
    notes = [p for p in sorted((ROOT / ".claude").rglob("*")) if p.is_file()]
    named = {}
    for doc in docs + notes:
        for name in _ENV.findall(doc.read_text()):
            named.setdefault(name, f"{doc.relative_to(ROOT)}: {name}")
    assert len(named) >= 5, "the scan found too few settings to mean anything"
    unread = [where for name, where in named.items() if name not in read]
    assert not unread, unread


class TestMain:
    def test_table1_runs(self, capsys):
        code = main(["table1", "--scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "datastar/normal" in out

    def test_csv_only_for_figures(self, capsys, tmp_path):
        code = main(["table1", "--scale", "0.01", "--csv", str(tmp_path / "x.csv")])
        assert code == 2

    def test_figure_csv_output(self, tmp_path, capsys):
        path = tmp_path / "fig2.csv"
        code = main(["figure2", "--scale", "0.08", "--csv", str(path)])
        assert code == 0
        content = path.read_text().splitlines()
        assert content[0] == "procs_bin,time_epoch_s,bound_s"
        assert len(content) > 1

    def test_timing_summary_on_stderr_not_stdout(self, capsys):
        code = main(["table1", "--scale", "0.01"])
        assert code == 0
        captured = capsys.readouterr()
        assert "[bmbp] table1:" in captured.err
        assert "cache_hits=" in captured.err
        assert "[bmbp]" not in captured.out  # tables stay clean

    def test_jobs_flag_configures_engine(self):
        main(["table1", "--scale", "0.01", "--jobs", "3"])
        assert runtime.resolve_jobs() == 3

    def test_clear_cache_command(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BMBP_CACHE_DIR", str(tmp_path / "cache"))
        cache = runtime.DiskCache(tmp_path / "cache")
        cache.put(runtime.canonical_key("x"), 1)
        code = main(["clear-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 entries removed" in out
        assert str(tmp_path / "cache") in out
        assert not list((tmp_path / "cache").glob("v*/*.pkl"))


def _fake_experiments(monkeypatch, **mains):
    """Point the experiment loop at stand-in modules with these ``main``s."""
    experiments = {}
    for name, func in mains.items():
        module = f"_fake_experiment_{name}"
        monkeypatch.setitem(
            sys.modules, module, types.SimpleNamespace(main=func)
        )
        experiments[name] = module
    monkeypatch.setattr("repro.cli.EXPERIMENTS", experiments)


class TestFailurePropagation:
    def test_all_reports_failure_and_exits_nonzero(self, capsys, monkeypatch):
        def ok(config):
            return "OK TABLE"

        def boom(config):
            raise RuntimeError("kaboom in worker")

        _fake_experiments(monkeypatch, good=ok, bad=boom)
        code = main(["all", "--scale", "0.01"])
        assert code == 1
        captured = capsys.readouterr()
        # The good experiment still ran and printed its table.
        assert "OK TABLE" in captured.out
        # The failure is reported with its traceback, and named in the recap.
        assert "[bmbp] bad FAILED:" in captured.err
        assert "kaboom in worker" in captured.err
        assert "RuntimeError" in captured.err
        assert "FAILED: bad" in captured.err

    def test_worker_error_traceback_surfaces(self, capsys, monkeypatch):
        def boom(config):
            raise runtime.WorkerError(
                "llnl/short", "Traceback ...\nValueError: inside the worker\n"
            )

        _fake_experiments(monkeypatch, bad=boom)
        code = main(["all", "--scale", "0.01"])
        assert code == 1
        err = capsys.readouterr().err
        assert "inside the worker" in err  # remote traceback, verbatim
