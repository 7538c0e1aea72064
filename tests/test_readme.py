"""The README's library quick start runs, and gives the values its comments state."""

import ast
import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_and_gives_its_commented_values():
    """Each expression commented with a number or a list gives it, to the digits printed."""
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.S).group(1)
    lines, namespace, checked = block.splitlines(), {}, []
    for statement in ast.parse(block).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        stated = re.match(r".*#\s*(\[[\d., ]*\]|\d+\.\d+|\d+)(?:\s|$)", lines[statement.lineno - 1])
        if stated:
            decimals = len(stated.group(1).rstrip("]").partition(".")[2])
            np.testing.assert_allclose(value, ast.literal_eval(stated.group(1)),
                                       rtol=0.0, atol=0.5 * 10.0 ** -decimals)
            checked.append(ast.get_source_segment(block, statement.value))
    assert checked == ["rc.symplectic_eigenvalues(sigma)", "rc.residual_multipartite(2.0, 7.0)"]
