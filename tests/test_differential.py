"""Differential testing: random MiniC programs must produce identical
results on the IR interpreter and on every simulator style.

This is the strongest correctness property in the suite: a scheduling
bug, a simulator timing bug or a lowering bug almost always shows up as
a divergence here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_machine, compile_for_machine, compile_source
from repro.ir import Interpreter
from repro.sim import run_compiled

#: one machine per scheduler/simulator style keeps runtime acceptable
DIFF_MACHINES = ("mblaze-3", "m-vliw-2", "m-tta-2")

_BINOPS = ["+", "-", "*", "&", "|", "^"]
_VARS = ["a", "b", "c", "d"]


@st.composite
def expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return str(draw(st.integers(-100, 1000)))
        if choice == 1:
            return draw(st.sampled_from(_VARS))
        return f"(g[{draw(st.integers(0, 7))}])"
    op = draw(st.sampled_from(_BINOPS + ["<<", ">>", "<", ">", "==", "/", "%"]))
    left = draw(expressions(depth=depth + 1))
    right = draw(expressions(depth=depth + 1))
    if op in ("<<", ">>"):
        right = str(draw(st.integers(0, 31)))
    return f"({left} {op} {right})"


@st.composite
def programs(draw):
    """A random straight-line-plus-one-loop integer program."""
    init = [f"int {v} = {draw(st.integers(-50, 50))};" for v in _VARS]
    body = []
    for _ in range(draw(st.integers(1, 4))):
        target = draw(st.sampled_from(_VARS))
        body.append(f"{target} = {draw(expressions())};")
    loop_body = []
    for _ in range(draw(st.integers(1, 2))):
        target = draw(st.sampled_from(_VARS))
        loop_body.append(f"{target} = {target} + {draw(expressions())};")
    trip = draw(st.integers(1, 6))
    guards = " ^ ".join(_VARS)
    return f"""
int g[8] = {{3, -7, 11, 0, 255, -128, 19, 6}};
int main(void) {{
    {' '.join(init)}
    {' '.join(body)}
    int i;
    for (i = 0; i < {trip}; i++) {{
        {' '.join(loop_body)}
    }}
    return ({guards}) & 0xFF;
}}
"""


@pytest.mark.slow  # hypothesis campaign over the whole stack
@settings(max_examples=25, deadline=None)
@given(programs())
def test_random_programs_agree_across_stack(src):
    expected = Interpreter(compile_source(src)).run()
    for name in DIFF_MACHINES:
        compiled = compile_for_machine(compile_source(src), build_machine(name))
        result = run_compiled(compiled, max_cycles=3_000_000)
        assert result.exit_code == expected, f"{name} diverged on:\n{src}"


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=8),
    st.sampled_from(["+", "*", "^", "|", "&"]),
)
def test_reduction_agrees(values, op):
    """Fold arbitrary 32-bit constants with one operator on every style."""
    expr = op.join(f"({v})" for v in values)
    src = f"int main(void) {{ return ({expr}) & 0x7FFF; }}"
    expected = Interpreter(compile_source(src)).run()
    for name in DIFF_MACHINES:
        compiled = compile_for_machine(compile_source(src), build_machine(name))
        result = run_compiled(compiled, max_cycles=200_000)
        assert result.exit_code == expected


@pytest.mark.parametrize("machine_name", ("m-tta-1", "p-tta-2", "bm-tta-3", "p-vliw-3", "mblaze-5"))
def test_mixed_workload_on_remaining_machines(machine_name):
    """The machines not in the hypothesis loop get one combined program."""
    src = """
    int fib(int n){ if (n < 2) return n; return fib(n-1) + fib(n-2); }
    unsigned lcg(unsigned s){ return s * 1664525u + 1013904223u; }
    int tmp[12];
    int main(void){
        int i; unsigned seed = 7;
        for (i = 0; i < 12; i++) { seed = lcg(seed); tmp[i] = (int)(seed >> 20); }
        int acc = 0;
        for (i = 0; i < 12; i++) acc += tmp[i] % 97;
        acc += fib(8);
        return acc & 0xFF;
    }
    """
    expected = Interpreter(compile_source(src)).run()
    compiled = compile_for_machine(compile_source(src), build_machine(machine_name))
    result = run_compiled(compiled, max_cycles=3_000_000)
    assert result.exit_code == expected
