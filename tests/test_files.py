"""Every input file is opened by morbench.files.reading, so one rule decodes them all."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "morbench"
# (module, function) that may open a file to read it as text; the stopword list
# is a resource packaged with morbench, not a file a user hands it
READERS = {("files.py", "reading"), ("preprocess.py", "load_stopwords")}


def _reads_text(call: ast.Call) -> bool:
    """Whether call is open(...), x.open(...) or x.read_text(...) with no w, a, x or b mode."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "read_text":
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        positional = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        positional = call.args[:1]
    else:
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + positional
    if not modes:
        return True
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("waxb"))


def _text_reads(tree: ast.AST) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of every call in tree that opens a file to read text."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _reads_text(child):
                found.append((function, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else function)

    visit(tree, None)
    return found


@pytest.mark.parametrize(
    "code, reads",
    [
        ("open(p)", True),
        ("open(p, 'r', encoding='utf-8')", True),
        ("open(p, mode='rt')", True),
        ("open(p, m)", True),
        ("Path(p).open()", True),
        ("p.open('r')", True),
        ("p.read_text('utf-8')", True),
        ("open(p, 'w')", False),
        ("open(p, mode='a')", False),
        ("p.open('x')", False),
        ("open(p, 'rb')", False),
        ("p.read_bytes()", False),
    ],
)
def test_the_check_finds_each_way_to_open_a_file_for_reading_text(code, reads):
    assert bool(_text_reads(ast.parse(f"def f():\n    {code}\n"))) == reads


def test_only_files_reading_opens_a_file_to_read_text():
    strays = [
        f"{path.relative_to(SRC)}:{line} in {function}"
        for path in sorted(SRC.rglob("*.py"))
        for function, line in _text_reads(ast.parse(path.read_text(encoding="utf-8")))
        if (path.name, function) not in READERS
    ]
    assert strays == []
