"""The README's examples run as written, and its key tables match the CLI's."""

import inspect
import re
import shlex
from pathlib import Path

import susychain
from susychain import checks, cli
from susychain.models import ModelKind, ModelParams
from susychain.numcore import Grid
from susychain.susy import assemble_frame

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(),
                      flags=re.DOTALL | re.MULTILINE)


def test_readme_python_example_runs(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    # the engine's largest distance from the closed-form potential, then
    # the cluster count and the two gap edges
    assert len(lines) == 2
    assert float(lines[0]) < 1e-6
    count, edge_neg, edge_pos = lines[1].split()
    assert int(count) > 0 and float(edge_neg) < 0.0 < float(edge_pos)


def test_package_exports_the_readme_example_imports():
    # an export the example does not use, or an example import the package
    # lacks, fails here
    (names,) = re.findall(r"^from susychain import \((.*?)\)", _blocks("python")[0],
                          flags=re.DOTALL | re.MULTILINE)
    exported = {name for name, obj in vars(susychain).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == set(re.findall(r"\w+", names))


def test_readme_cli_examples_run(tmp_path):
    argvs = [shlex.split(line, comments=True)
             for block in _blocks("sh")
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("susychain ")]
    assert len(argvs) == 3
    for argv in argvs:
        out = argv.index("--out") + 1
        argv[out] = str(tmp_path / argv[out])
        assert cli.main(argv[1:]) == cli.EXIT_OK, argv


def test_readme_key_tables_match_the_cli():
    # every key of every command has its row, and every row is some key's:
    # a key the CLI dropped cannot linger in the README
    rows = {f"| `{key}` | {cli._shown(spec.default)} | {spec.help} |"
            for _, table in cli.COMMANDS.values() for key, spec in table.items()}
    tables = re.findall(r"^\| key \| default \| meaning \|\n\|---\|---\|---\|\n"
                        r"((?:\|.*\n)+)", README.read_text(), flags=re.MULTILINE)
    assert len(tables) == 4  # bands and tune share one
    assert {row for table in tables for row in table.splitlines()} == rows


def test_readme_verify_table_lists_every_row():
    (table,) = re.findall(r"^\| row \| claim checked \|\n\|---\|---\|\n((?:\|.*\n)+)",
                          README.read_text(), flags=re.MULTILINE)
    listed = [name for line in table.splitlines()
              for name in re.findall(r"`(\w+)`", line.split(" | ")[0])]
    assert sorted(listed) == sorted(c["name"] for c in checks.invariant_checks(0))


def test_readme_susy_report_table_lists_every_key():
    (table,) = re.findall(r"^\| key \| claim checked \| `verify` row and threshold \|\n"
                          r"\|---\|---\|---\|\n((?:\|.*\n)+)",
                          README.read_text(), flags=re.MULTILINE)
    rows = {re.fullmatch(r"\| `(\w+)`", line.split(" | ")[0]).group(1): line
            for line in table.splitlines()}
    p = ModelParams(ModelKind.I, 0.07, 0.0)
    frame = assemble_frame(p.seed_data(), Grid(-20.0, 20.0, 201))
    assert sorted(rows) == sorted(checks.frame_report(frame, 2, p))
    assert {key for key, line in rows.items() if line.endswith(" | reported only |")} \
        == {"min_abs_det", "intertwining_residuals"}
