"""--help text pinned against golden text: the CLI surface, flag by flag.

Each subcommand's flags come from its field tables, so a change to a table
shows here as well as in the --dump-config goldens. COLUMNS is fixed because
argparse wraps the text to the terminal width.
"""

import pathlib

import pytest

from fibercavity.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "help"
PAGES = ["fibercavity", "spectrum", "ringdown", "fit", "mode-solve", "experiment"]


def help_text(page: str, monkeypatch, capsys) -> str:
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if page == "fibercavity" else [page, "--help"]
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("page", PAGES)
def test_help_matches_golden(page, monkeypatch, capsys):
    assert help_text(page, monkeypatch, capsys) == (GOLDEN / f"{page}.txt").read_text()


@pytest.mark.parametrize("page", ["fit", "mode-solve"])
def test_plot_is_refused_where_nothing_is_plotted(page, capsys):
    with pytest.raises(SystemExit) as caught:
        main([page, "--plot"])
    assert caught.value.code == 2
    assert "unrecognized arguments: --plot" in capsys.readouterr().err
