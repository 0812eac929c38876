"""The README's library example runs, and its comments state what it returns."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _shown(value) -> str:
    """A tuple or list as the README comments write it: elements by str, so 5/2 for Fraction(5, 2)."""
    inner = ", ".join(str(x) for x in value)
    return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"


def test_readme_library_example_runs():
    block = re.search(r"^## Library\n+```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert block, "README has no ## Library python block"
    code = block.group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)  # a removed or renamed public name fails here
    stated = {}
    for line in code.splitlines():
        expr, sep, comment = line.partition("  # ")
        if sep:
            stated[expr.strip()] = comment
    checked = (
        "series.values(4)",
        "ghost_slopes(ctx, Classical(0), 3).slopes",
        "ghost_slopes(ctx, Annulus(0, Fraction(5, 2)), 4).slopes",
        "boundary_polygon(ctx, eps, 5).slopes.slopes",
    )
    for expr in checked:
        shown = _shown(eval(expr, namespace))
        assert stated[expr].startswith(shown), (expr, shown, stated[expr])
