import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_and_shows_true_values():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    shown = []
    for statement in ast.parse(block).body:
        comment = lines[statement.end_lineno - 1].partition("#")[2].strip()
        try:  # a comment that reads as an expression shows the statement's value
            compile(comment, "README.md", "eval")
        except SyntaxError:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        code = ast.unparse(statement)
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        assert repr(value) == comment, code
        shown.append(code)
    assert shown == ["blocks.boundaries", "blocks.means"]
