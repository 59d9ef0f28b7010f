"""The README's library tour runs and shows what its comments say.

The one fenced ``python`` block of the README is run statement by
statement, and the value of each expression statement is kept in order,
as an interactive session would print it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour() -> tuple[dict, list]:
    """The namespace after the README's python block, and the values of its
    expression statements in order."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(
        encoding="utf-8"), flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace: dict = {}
    values = []
    for statement in ast.parse(blocks[0]).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), README.name, "eval")
            values.append(eval(code, namespace))
        else:
            code = compile(ast.Module([statement], []), README.name, "exec")
            exec(code, namespace)
    return namespace, values


def test_library_tour_states_its_values():
    namespace, values = _tour()
    P, t = namespace["P"], namespace["t"]
    assert values[0] == namespace["canonical"](P, t)
    # F's minimal generators: {t,b}, {t,m}, {a,m}
    assert {frozenset(labels) for labels in values[1]} == {
        frozenset("tb"), frozenset("tm"), frozenset("am")}
    assert values[2:] == [True, False, True, "D2_Form7(A1={a}, B1={b})"]
