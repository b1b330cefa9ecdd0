"""README as a spec: its ``sh`` examples run as transcripts, and its bench families, params and solvers match the code.

README's "Tests" section defines the transcript format: ``$ cat FILE``, ``$ depthbench ARGS``, the
``# stderr:`` annotation and the inline ``...``.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from depthbench import cli
from depthbench.bench import FAMILIES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# (section heading's first word, block text) for each sh block holding a $ line
TRANSCRIPTS = [
    (re.findall(r"^#+ (\S+)", README[: m.start()], re.M)[-1], m[1])
    for m in re.finditer(r"^```sh\n(.*?)^```$", README, re.M | re.S)
    if re.search(r"^\$ ", m[1], re.M)
]

ANNOTATION = re.compile(r"(.*?)(?: {2,}# (.*))?")


def commands(block: str) -> list[tuple[str, list[str]]]:
    """Each ``$`` line of a transcript without its ``$ ``, with the lines up to the next one."""
    head, *steps = re.split(r"^\$ (.*)\n", block, flags=re.M)
    assert not head, f"a transcript starts with a $ line, not {head!r}"
    return [(command, body.splitlines()) for command, body in zip(steps[::2], steps[1::2])]


def matches(expected: list[str], text: str) -> bool:
    """Whether ``text`` is the expected lines, each ended by a newline, with ``...`` matching any text on its line."""
    pattern = "".join(".*".join(map(re.escape, line.split("..."))) + "\n" for line in expected)
    return re.fullmatch(pattern, text) is not None


@pytest.mark.parametrize("block", [block for _, block in TRANSCRIPTS], ids=[section for section, _ in TRANSCRIPTS])
def test_transcript(block, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for command, body in commands(block):
        program, *args = shlex.split(command)
        if program == "cat":
            (path,) = args
            Path(path).write_text("".join(line + "\n" for line in body), encoding="utf-8")
            continue
        assert program == "depthbench", f"cannot run $ {command}"
        notes = [ANNOTATION.fullmatch(line).groups() for line in body]
        out = [text for text, note in notes if text or note is None]  # a line that is only an annotation prints nothing
        err = [note[len("stderr: "):] for _, note in notes if note is not None and note.startswith("stderr: ")]
        assert "..." not in out + err, f"$ {command}: a line that is only ... would hide how many lines there are"
        code = cli.main(args)
        got = capsys.readouterr()
        assert code == 0, f"$ {command} exited {code}: {got.err}"
        assert matches(out, got.out), f"$ {command} printed on stdout:\n{got.out}"
        assert matches(err, got.err), f"$ {command} printed on stderr:\n{got.err}"


def test_transcripts_cover_every_subcommand():
    # a block that lost its $ lines would silently drop out of test_transcript
    steps = [command for _, block in TRANSCRIPTS for command, _ in commands(block)]
    run = {shlex.split(command)[1] for command in steps if command.startswith("depthbench ")}
    assert run == set(cli.build_parser()._subparsers._group_actions[0].choices)


def test_readme_params_table_matches_family_params():
    # README's table is the only statement of each family's params and defaults outside the code
    rows = re.findall(r"^\| `(\w+)` +\| (.+?) \|$", README[README.index("### bench"):], re.M)
    documented = {}
    for family, cell in rows:
        items = [] if cell == "none" else [re.fullmatch(r"`(\w+)` \[(.+)\]", item) for item in cell.split(", ")]
        assert all(items), cell
        documented[family] = {m[1]: json.loads(m[2]) for m in items}

    def typed(table):
        return [(family, [(k, type(v), v) for k, v in params.items()]) for family, params in table.items()]

    assert typed(documented) == typed({name: family.params for name, family in FAMILIES.items()})


def test_readme_solver_names_match_solvers():
    # README's sentence naming each family's solvers, with K read as 1, 2 and 3, against each record's ``solvers``
    sentence = re.search(r"The solvers are (.+?);", README, re.S)[1]
    documented = {
        family: re.findall(r"`([\w-]+)`", names)
        for names, family in re.findall(r"((?:`[\w-]+`(?:\s+and\s+)?)+)\s+for\s+`(\w+)`", sentence)
    }
    assert set(documented) == set(FAMILIES)
    for family, names in documented.items():
        assert len(names) == FAMILIES[family].solvers.count("|") + 1, family
        for name in names:
            for k in (1, 2, 3):
                assert re.fullmatch(FAMILIES[family].solvers, re.sub(r"K$", str(k), name)), (family, name, k)
    unsupported = re.findall(r"`([^`]+)`", re.search(r"while\s(.+?)\sare unsupported solvers", README, re.S)[1])
    assert unsupported and not [name for name in unsupported if re.fullmatch(FAMILIES["ca"].solvers, name)]


def test_readme_family_table_lists_families_in_order():
    # README's opening table of each family's problem, serial solver and shallow solver
    table = README[: README.index("\n## ")]
    assert re.findall(r"^\| `(\w+)` +\|", table, re.M) == list(FAMILIES)
