"""README's examples run as documented: the library quick start executes and
prints what its comments say, the example scenario file loads through
`load_scenario`, the optional keys it names are the schema's, every
`section.key` it names is a schema key, its CLI usage line names the
parser's global options, and every `--flag` it names is a parser option."""

import argparse
import contextlib
import io
import re
from pathlib import Path

from debtregime.cli import _build_parser
from debtregime.scenario import _SCHEMA, load_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def _text() -> str:
    return README.read_text(encoding="utf-8")


def _block(heading: str) -> str:
    """The body of the first fenced block after `heading`."""
    text = _text()
    after = text[text.index(heading):]
    start = after.index("\n", after.index("```")) + 1  # past the language tag
    return after[start:after.index("```", start)]


def test_quick_start_runs_and_prints_its_comments():
    code = _block("## Library quick start")
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    printed = out.getvalue().splitlines()
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments) > 0
    for value, comment in zip(printed, comments):
        assert value.startswith(comment.rstrip(".")), (value, comment)
    sol = namespace["sol"]  # "interior: rho = 0, ~3pp slack"
    assert (sol.case, sol.rho) == ("a_interior", 0.0)
    assert abs(sol.slack - 0.03) < 0.005
    assert "bounds" in namespace


def test_example_scenario_loads(tmp_path):
    body = _block("### Scenario files")
    path = tmp_path / "example.cfg"
    path.write_text(body)
    sc = load_scenario(str(path))
    assignments = [line.split("=", 1) for line in body.splitlines()
                   if line.strip() and not line.startswith("#")]
    assert assignments
    for key, value in assignments:
        key, value = key.strip(), value.strip()
        if key.startswith("sweep."):
            _, name, row = key.split(".")
            assert row in dict(sc.sweep_rows(name))
        else:
            assert sc.get(key) == float(value)


def test_optional_keys_named_are_the_schema_optional_keys():
    sentence = re.search(r"`none` \(or `null`\) is accepted only by the two optional"
                         r" keys,(.*?);", _text(), re.S)
    named = re.findall(r"`(\w+\.\w+)`", re.sub(r"\([^)]*\)", "", sentence.group(1)))
    assert set(named) == {k for k, (_, kind) in _SCHEMA.items() if kind.endswith("?")}
    assert len(named) == 2


def test_usage_line_names_every_global_option():
    usage = re.search(r"^debtregime (.*) <cmd>$", _text(), re.M).group(1)
    documented = re.findall(r"\[(--[\w-]+)", usage)
    flags = [s for a in _build_parser()._actions for s in a.option_strings
             if s.startswith("--") and s != "--help"]
    assert documented == flags


def test_every_flag_named_is_a_parser_option():
    # a flag deleted from the parser cannot survive in the docs
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {s for p in [parser, *sub.choices.values()] for a in p._actions
               for s in a.option_strings}
    named = {flag for span in re.findall(r"`([^`\n]+)`", _text())
             for flag in re.findall(r"(?<![\w-])--[\w-]+", span)}
    assert named and named <= options, sorted(named - options)


def test_every_key_named_is_a_schema_key():
    # a key deleted from the schema cannot survive in the docs
    sections = {key.split(".")[0] for key in _SCHEMA}
    named = {f"{s}.{k}" for s, k in re.findall(r"`(\w+)\.(\w+)`", _text()) if s in sections}
    assert named and named <= set(_SCHEMA), sorted(named - set(_SCHEMA))
